"""Workload ``refine``: counterexample-driven refinement on Camellia and RAM.

One operation is one ``refine_benchmark`` run (3 iterations, 3000
held-out cycles).  Every refit retrains on a growing set and rescores
the candidate on a fresh model, so the training, join and kernel layers
that ``fit-eval`` touches lightly dominate here.

The panel is fixed at refine seed 7 whatever the workload seed: how many
counterexamples a seed makes ``refine_benchmark`` accept decides how far the
training set grows, so on a 2-vCPU KVM guest one Camellia run took 4.4 s at
refine seed 1 and 14.5 s at seed 6 (held-out MRE after refinement 23.4 %
and 21.9 %).  A seed-drawn panel would measure the seed, not the code.
"""

from __future__ import annotations

import time
from typing import Dict, List

import checks
import common
from repro.core.export import labeler_from_psms
from repro.core.simulation import MultiPsmSimulator
from repro.power.estimator import run_power_simulation
from repro.refine.driver import RefineConfig, refine_benchmark
from repro.testbench import BENCHMARKS

PANEL = (("Camellia", 7), ("RAM", 7))
ITERATIONS = 3
EVAL_CYCLES = 3000
#: The untimed warm-up: one short refine of the cheaper IP.
WARMUP = ("RAM", 7, 1, 1000)


def refine_once(ip: str, seed: int, iterations: int = ITERATIONS, cycles: int = EVAL_CYCLES):
    return refine_benchmark(
        ip, RefineConfig(iterations=iterations, seed=seed, eval_cycles=cycles)
    )


def verify(ip: str, seed: int, result) -> List[str]:
    """Monotone MRE, and the refined model's held-out MRE recomputed."""
    problems = []
    if not result.mre_after <= result.mre_before:
        problems.append(f"MRE rose: {result.mre_before!r} -> {result.mre_after!r}")
    spec = BENCHMARKS[ip]
    held_out = run_power_simulation(
        spec.module_class(), spec.long_ts(result.eval_cycles, seed=seed)
    )
    estimate = result.flow.estimate(held_out.trace)
    own = checks.mre_percent(
        estimate.estimated.values.tolist(), held_out.power.values.tolist()
    )
    if not checks.agrees(own, result.mre_after):
        problems.append(f"reported MRE {result.mre_after!r} != recomputed {own!r}")
    return problems


class Refine(common.SerialWorkload):
    name = "refine"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.refined = {}

    def setup(self) -> None:
        ip, seed, iterations, cycles = WARMUP
        refine_once(ip, seed, iterations, cycles)

    def run_round(self, clock, outcome, tracer) -> Dict[str, list]:
        """One whole round: the panel, one refine run per IP."""
        timed = common.SerialRound(clock, tracer)
        mres = []
        attempts = accepted = 0
        for ip, seed in PANEL:
            fits_before = tracer.counts["fit.calls"]
            result, problems = timed.run(lambda: refine_once(ip, seed))
            if tracer.enabled:
                # every fit after the base model's is a refit attempt
                attempts += int(tracer.counts["fit.calls"] - fits_before) - 1
            if not problems:
                accepted += sum(1 for it in result.iterations if it.accepted)
                mres.append(result.mre_after)
                self.refined[ip] = result
                problems = verify(ip, seed, result)
            outcome.record(ip, problems)
        return timed.summary(mre=mres, refit_attempts=attempts, refit_accepted=accepted)

    def layer_figures(self, traced: Dict[str, list], tracer) -> Dict[str, float]:
        """Refit counts, and the first and a repeated estimate of the
        held-out trace on a fresh simulator of each refined model."""
        attempts, accepted = traced["refit_attempts"], traced["refit_accepted"]
        cold, warm = [], []
        for ip, seed in PANEL:
            result = self.refined[ip]
            spec = BENCHMARKS[ip]
            held_out = run_power_simulation(
                spec.module_class(), spec.long_ts(result.eval_cycles, seed=seed)
            )
            psms = result.flow.psms
            simulator = MultiPsmSimulator(psms, labeler_from_psms(psms))
            for sink in (cold, warm):
                start = time.perf_counter()
                simulator.run(held_out.trace)
                sink.append(time.perf_counter() - start)
        return {
            "refit.attempts": attempts,
            "refit.accepted": accepted,
            "refit.useful_ratio": accepted / attempts if attempts else 0.0,
            "kernel.cold_ms": 1000.0 * sum(cold) / len(cold),
            "kernel.warm_ms": 1000.0 * sum(warm) / len(warm),
        }
