"""Per-stage micro-benchmark and perf-regression harness.

``run_micro`` times every pipeline stage of every registered IP in
isolation — mine / generate / simplify / join on the short training
suite, label / simulate (single-PSM) / estimate (multi-PSM) on the long
evaluation suite — and reports per-stage throughput.  The JSON payload
(``psmgen bench --micro --json``) is the committed ``BENCH_micro.json``
and the CI bench-smoke artifact; ``compare_micro`` flags stages whose
throughput regressed past a threshold against such a baseline.

Timings are best-of-``repeats`` after one untimed warm-up run, so
one-off costs (frozen-column conversion of a fresh trace, import-time
caches) do not pollute the figures.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .bench import evaluation_trace, fit_benchmark, long_cycles, scale_factor
from .core.join import join
from .core.mining import AssertionMiner
from .core.generator import generate_psms
from .core.propositions import PropositionTrace
from .core.simplify import simplify_all
from .core.simulation import SinglePsmSimulator
from .testbench import BENCHMARKS
from .traces.power import PowerTrace

#: Identifier of the payload layout (bump on breaking changes).
SCHEMA = "psmgen-micro-bench/v1"

#: The stages one micro-bench run times, in report order.  The
#: ``simulate_single`` / ``estimate`` rows run the compiled (dense
#: table) engine — the serving default — while the ``*_object`` rows
#: replay the same traces through the object-graph oracle so every
#: report carries its own like-for-like engine comparison.
STAGES = (
    "mine",
    "generate",
    "simplify",
    "join",
    "label",
    "simulate_single",
    "simulate_single_object",
    "estimate",
    "estimate_object",
)

#: Engine column per stage ("" = stage has no simulation engine).
STAGE_ENGINES = {
    "simulate_single": "compiled",
    "simulate_single_object": "object",
    "estimate": "compiled",
    "estimate_object": "object",
}

#: compiled stage -> object-oracle stage timed on the same run.
OBJECT_BASELINES = {
    "simulate_single": "simulate_single_object",
    "estimate": "estimate_object",
}


def _best_of(fn: Callable[[], object], repeats: int) -> float:
    """Best wall time of ``repeats`` timed calls after one warm-up."""
    fn()
    best = float("inf")
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def micro_rows(
    name: str, cycles: Optional[int] = None, repeats: int = 3
) -> List[dict]:
    """Per-stage timing rows for one IP.

    ``mine``/``simplify`` run on the IP's short verification suite.
    ``generate``/``join`` run on a ``cycles``-instant *long synthetic
    training pair* — the short training behaviour tiled out to ``cycles``
    instants — which is the regime the RLE generation and leader-row join
    engines target.  The labelling/simulation stages replay a fresh
    ``cycles``-instant long suite through the short-TS model, matching
    the paper's Table III setup.
    """
    cycles = cycles or long_cycles()
    spec = BENCHMARKS[name]
    fitted = fit_benchmark(name)
    flow = fitted.flow
    mining = flow.mining
    labeler = mining.labeler
    config = spec.flow_config()

    train_trace = fitted.short_ref.trace
    train_power = fitted.short_ref.power
    power_map = {0: train_power}
    long_trace = evaluation_trace(name, cycles)

    # Long synthetic training pair: the training proposition/power traces
    # tiled out to the long-suite length.
    train_gamma = mining.traces[0]
    long_gamma = PropositionTrace.from_indices(
        np.resize(train_gamma.indices, cycles), train_gamma.alphabet, 0
    )
    long_power = PowerTrace(np.resize(train_power.values, cycles))
    long_power_map = {0: long_power}

    simplified = simplify_all(flow.raw_psms, power_map, config.merge)
    long_raw = generate_psms([long_gamma], [long_power])
    long_simplified = simplify_all(long_raw, long_power_map, config.merge)
    single = SinglePsmSimulator(flow.raw_psms[0], labeler)

    timings = {
        "mine": lambda: AssertionMiner(config.miner).mine(train_trace),
        "generate": lambda: generate_psms([long_gamma], [long_power]),
        "simplify": lambda: simplify_all(
            flow.raw_psms, power_map, config.merge
        ),
        # simplify and join do not mutate their inputs, so the timed
        # calls run on the precomputed PSM sets directly.
        "join": lambda: join(
            long_simplified, long_power_map, config.merge
        ),
        "label": lambda: labeler.label(long_trace),
        "simulate_single": lambda: single.run(long_trace, engine="compiled"),
        "simulate_single_object": lambda: single.run(
            long_trace, engine="object"
        ),
        "estimate": lambda: flow.estimate(long_trace, engine="compiled"),
        "estimate_object": lambda: flow.estimate(long_trace, engine="object"),
    }
    stage_cycles = {
        "mine": len(train_trace),
        "generate": len(long_gamma),
        "simplify": len(train_trace),
        "join": len(long_gamma),
        "label": len(long_trace),
        "simulate_single": len(long_trace),
        "simulate_single_object": len(long_trace),
        "estimate": len(long_trace),
        "estimate_object": len(long_trace),
    }
    rows = []
    walls: Dict[str, float] = {}
    for stage in STAGES:
        wall = _best_of(timings[stage], repeats)
        walls[stage] = wall
        n = stage_cycles[stage]
        row = {
            "benchmark": name,
            "stage": stage,
            "wall_s": wall,
            "cycles": n,
            "cycles_per_s": n / wall if wall > 0 else float("inf"),
        }
        engine = STAGE_ENGINES.get(stage)
        if engine:
            row["engine"] = engine
        rows.append(row)
    # Annotate the compiled rows with the same-run object baseline so a
    # single report answers "how much faster is the compiled engine".
    for row in rows:
        baseline_stage = OBJECT_BASELINES.get(row["stage"])
        if baseline_stage is None:
            continue
        baseline_wall = walls[baseline_stage]
        row["object_wall_s"] = baseline_wall
        if row["wall_s"] > 0 and baseline_wall > 0:
            row["speedup_vs_object"] = baseline_wall / row["wall_s"]
    return rows


def run_micro(
    names: Optional[List[str]] = None,
    cycles: Optional[int] = None,
    repeats: int = 3,
) -> dict:
    """The full micro-bench payload (``BENCH_micro.json`` layout)."""
    names = list(names) if names else list(BENCHMARKS)
    cycles = cycles or long_cycles()
    results: List[dict] = []
    for name in names:
        results.extend(micro_rows(name, cycles=cycles, repeats=repeats))
    return {
        "schema": SCHEMA,
        "repro_scale": scale_factor(),
        "long_cycles": cycles,
        "repeats": repeats,
        "results": results,
    }


def check_fields(obj: dict, fields, context: str = "payload") -> None:
    """Raise ``ValueError`` unless ``obj`` carries every typed field.

    ``fields`` is a sequence of ``(key, type-or-type-tuple)`` pairs —
    the shared validation core of every schema-versioned report
    (micro-bench here, the serving layer's loadgen report in
    :mod:`repro.serve.loadgen`).
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{context} must be a JSON object, got {obj!r}")
    for key, kind in fields:
        if not isinstance(obj.get(key), kind):
            raise ValueError(f"bad {context} (field {key!r}): {obj!r}")


def validate_micro(payload: dict) -> None:
    """Raise ``ValueError`` unless ``payload`` is a well-formed report."""
    if not isinstance(payload, dict):
        raise ValueError("micro-bench payload must be a JSON object")
    if payload.get("schema") != SCHEMA:
        raise ValueError(
            f"unexpected schema {payload.get('schema')!r}; want {SCHEMA!r}"
        )
    results = payload.get("results")
    if not isinstance(results, list) or not results:
        raise ValueError("payload has no results")
    for row in results:
        check_fields(
            row,
            (
                ("benchmark", str),
                ("stage", str),
                ("wall_s", (int, float)),
                ("cycles", int),
                ("cycles_per_s", (int, float)),
            ),
            context="result row",
        )


def _row_throughput(row: dict) -> float:
    """Comparable throughput of one result row.

    Tiny-scale runs can record ``wall_s == 0`` (the stage finished below
    the clock resolution), which the naive ``cycles / wall_s`` turns into
    a ``ZeroDivisionError`` and a serialised ``cycles_per_s`` of
    ``Infinity``.  Such rows — and rows missing the timing fields
    entirely — are reported as ``0.0``, i.e. "no usable measurement",
    which comparison code treats as *skip*, never as a regression.
    """
    throughput = row.get("cycles_per_s")
    if (
        isinstance(throughput, (int, float))
        and math.isfinite(throughput)
        and throughput > 0
    ):
        return float(throughput)
    wall = row.get("wall_s")
    cycles = row.get("cycles")
    if (
        not isinstance(wall, (int, float))
        or not isinstance(cycles, (int, float))
        or wall <= 0
        or not math.isfinite(wall)
    ):
        return 0.0
    return cycles / wall


def compare_micro(
    current: dict, baseline: dict, threshold: float = 2.0
) -> List[str]:
    """Per-stage regressions of ``current`` against ``baseline``.

    Compares *throughput* (``cycles_per_s``), so runs at different
    ``REPRO_SCALE`` remain comparable; a stage regresses when its
    throughput dropped by more than ``threshold``x.  Rows without a
    usable measurement on either side (zero or missing wall time, as on
    tiny-scale smoke runs) are skipped instead of dividing by zero.
    Returns human-readable descriptions (empty = no regression).
    """
    validate_micro(current)
    validate_micro(baseline)
    base = {
        (row["benchmark"], row["stage"]): _row_throughput(row)
        for row in baseline["results"]
    }
    regressions = []
    for row in current["results"]:
        reference = base.get((row["benchmark"], row["stage"]), 0.0)
        if reference <= 0:
            continue
        throughput = _row_throughput(row)
        if throughput <= 0:
            continue
        ratio = reference / throughput
        if ratio > threshold:
            regressions.append(
                f"{row['benchmark']}/{row['stage']}: "
                f"{throughput:.0f} cycles/s vs baseline "
                f"{reference:.0f} ({ratio:.1f}x slower)"
            )
    return regressions


def speedups_micro(
    current: dict, baseline: dict
) -> Dict[Tuple[str, str], float]:
    """Per-stage throughput ratio ``current / baseline``.

    Keys are ``(benchmark, stage)``; values above 1.0 are speedups.
    Rows without a usable measurement on either side are omitted.
    """
    validate_micro(current)
    validate_micro(baseline)
    base = {
        (row["benchmark"], row["stage"]): _row_throughput(row)
        for row in baseline["results"]
    }
    speedups: Dict[Tuple[str, str], float] = {}
    for row in current["results"]:
        key = (row["benchmark"], row["stage"])
        reference = base.get(key, 0.0)
        throughput = _row_throughput(row)
        if reference > 0 and throughput > 0:
            speedups[key] = throughput / reference
    return speedups
