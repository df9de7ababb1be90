"""Workload ``fit-eval``: the paper's Table III protocol, per IP and seed.

One operation is: reference simulation of the IP's short-TS (HDL model
plus activity power), ``PsmFlow.fit``, reference simulation of a
held-out long-TS, a compiled estimate of it, and MRE over the reliable
instants.  The stimuli are built in set-up.  A round is every IP with
one training seed drawn from the workload seed per held-out seed of
``HELD_OUT_SEEDS``.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List

import checks
import common
from repro.core.metrics import mre
from repro.core.pipeline import PsmFlow
from repro.core.psm import reset_state_ids
from repro.hdl.simulator import Simulator
from repro.power.estimator import run_power_simulation
from repro.testbench import BENCHMARKS

IPS = ("RAM", "MultSum", "AES", "Camellia")
#: Held-out long-TS seeds, the same in every run.  A reference
#: simulation's cost follows its stimulus (RAM's 12,000 cycles took
#: 0.46-0.61 s over six seeds), so seed-drawn held-out traces made the
#: slowest operation, and with it ``p95_ms``, follow the workload seed.
HELD_OUT_SEEDS = (1, 2)
#: Held-out long-TS length: the Table III length at ``REPRO_SCALE=1``.
LONG_CYCLES = 12000

VECTORS = {
    "AES": (checks.AES_VECTOR, False),
    "Camellia": (checks.CAMELLIA_VECTOR, True),
}


def plan(seed: int) -> List[tuple]:
    """The round: ``(ip, training seed, held-out seed)`` per operation."""
    rng = random.Random(f"fit-eval/{seed}")
    return [
        (ip, rng.randrange(1, 1 << 30), held_out_seed)
        for ip in IPS
        for held_out_seed in HELD_OUT_SEEDS
    ]


def build_inputs(round_plan):
    """Short-TS and held-out long-TS stimuli of every operation."""
    inputs = []
    for ip, train_seed, eval_seed in round_plan:
        spec = BENCHMARKS[ip]
        inputs.append(
            (ip, spec.short_ts(seed=train_seed), spec.long_ts(LONG_CYCLES, seed=eval_seed))
        )
    return inputs


def fit_and_evaluate(ip: str, short, held_out, tracer=None):
    """The timed operation; returns what the checks need."""
    spec = BENCHMARKS[ip]
    reset_state_ids()
    train = run_power_simulation(spec.module_class(), short)
    flow = PsmFlow(spec.flow_config()).fit([train.trace], [train.power])
    ref = run_power_simulation(spec.module_class(), held_out)
    start = time.perf_counter()
    result = flow.estimate(ref.trace)
    cold = time.perf_counter() - start
    reliable = result.reliable
    program_mre = mre(result.estimated.values[reliable], ref.power.values[reliable])
    warm = None
    if tracer is not None and tracer.enabled:
        start = time.perf_counter()
        flow.estimate(ref.trace)
        warm = time.perf_counter() - start
    return ref, result, program_mre, cold, warm


def verify(ip: str, ref, result, program_mre: float) -> List[str]:
    """Independent checks of one operation's outputs."""
    reliable = result.reliable
    estimated = result.estimated.values[reliable].tolist()
    reference = ref.power.values[reliable].tolist()
    if not reference:
        return ["no reliable instants"]
    problems = checks.check_mre(ip, checks.mre_percent(estimated, reference), program_mre)
    if ip == "RAM":
        problems += checks.check_ram_trace(ref.trace)
    elif ip == "MultSum":
        problems += checks.check_multsum_trace(ref.trace)
    else:
        (key, data, expected), has_mode = VECTORS[ip]
        trace = Simulator(BENCHMARKS[ip].module_class(), record_activity=False).run(
            checks.cipher_stimulus(key, data, has_mode)
        ).trace
        problems += checks.check_cipher_output(trace, expected)
    return problems


class FitEval(common.SerialWorkload):
    name = "fit-eval"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.plan = plan(seed)
        self.inputs = None

    def setup(self) -> None:
        self.inputs = build_inputs(self.plan)
        ip, short, held_out = self.inputs[0]
        fit_and_evaluate(ip, short, held_out)

    def run_round(self, clock, outcome, tracer) -> Dict[str, list]:
        """One whole round of operations."""
        timed = common.SerialRound(clock, tracer)
        mres, cold, warm = [], [], []
        for ip, short, held_out in self.inputs:
            out, problems = timed.run(lambda: fit_and_evaluate(ip, short, held_out, tracer))
            if not problems:
                ref, result, program_mre, cold_s, warm_s = out
                cold.append(cold_s)
                if warm_s is not None:
                    warm.append(warm_s)
                mres.append(program_mre)
                problems = verify(ip, ref, result, program_mre)
            outcome.record(ip, problems)
        return timed.summary(mre=mres, cold=cold, warm=warm)

    @staticmethod
    def layer_figures(traced: Dict[str, list], tracer) -> Dict[str, float]:
        return {
            "kernel.cold_ms": 1000.0 * sum(traced["cold"]) / len(traced["cold"]),
            "kernel.warm_ms": 1000.0 * sum(traced["warm"]) / len(traced["warm"]),
        }
