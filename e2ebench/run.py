"""End-to-end benchmark of the PSM flow: fit-eval, refine and serve.

One run::

    python3 e2ebench/run.py --workload fit-eval --seed 1 --seconds 20 --trace 0

prints every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``), then, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--seconds``
defaults to ``run_seconds`` of ``BENCHMARK.json``.

Steadiness::

    python3 e2ebench/run.py --steady 10

runs every workload ``--steady`` times in each of two sets (seeds 1..N,
then 1001..1000+N), alternating the workload order between runs, and
prints each end-to-end metric's quartiles and spread against its bound
in ``BENCHMARK.json``, and the change of its median between the sets.

See ``e2ebench/README.md`` for the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

#: Sets of runs in steadiness mode; their medians are compared.
SETS = 2


def load_spec() -> dict:
    return json.loads((common.ROOT / "BENCHMARK.json").read_text())


def make_workload(name: str, seed: int):
    if name == "fit-eval":
        from fiteval import FitEval
        return FitEval(seed)
    if name == "refine":
        from refine import Refine
        return Refine(seed)
    from serve import Serve
    return Serve(seed)


def measured_run(workload, seconds: float) -> int:
    """Set up ``workload.setups`` times, then whole rounds for ``seconds``.

    ``setup_s`` is the median set-up.  The timed metrics are
    host-normalised by the median of every calibration sample of the run.
    """
    from tracer import Tracer

    clock = common.HostClock()
    outcome = common.Outcome()
    tracer = Tracer()  # never installed: spans stay off
    setups = []
    try:
        clock.calibrate()
        for _ in range(workload.setups):
            with clock.op():
                start = time.perf_counter()
                workload.setup()
                setups.append(time.perf_counter() - start)
            clock.calibrate()
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            rounds.append(workload.run_round(clock, outcome, tracer))
        metrics = {"setup_s": (statistics.median(setups), "s")}
        metrics.update(workload.end_to_end(rounds))
        metrics["peak_rss_mb"] = (workload.peak_rss_mb(), "MiB")
        metrics = common.host_normalised(metrics, clock.median_ms())
    finally:
        workload.shutdown()
    common.emit(outcome, metrics, {
        "workload": workload.name, "seed": workload.seed, "rounds": len(rounds),
        "host.calib_ms": round(clock.median_ms(), 4),
        "setups_s": [round(s, 4) for s in setups],
    })
    return 0


def traced_run(workload) -> int:
    """Set-up and one round under the tracer, beside one untraced round."""
    from tracer import Tracer, layer_metrics

    clock = common.HostClock()
    outcome = common.Outcome()
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("setup"):
            workload.setup()
        tracer.enabled = False
        baseline = workload.run_round(clock, outcome, tracer)
        workload.begin_traced()
        tracer.enabled = True
        traced = workload.run_round(clock, outcome, tracer)
        extra = {
            "trace.overhead_pct": 100.0 * (
                workload.round_seconds(traced) / workload.round_seconds(baseline) - 1.0
            ),
            "trace.coverage_pct": 100.0 * min(traced["coverage"]),
            "host.calib_ms": clock.median_ms(),
        }
        extra.update(workload.layer_figures(traced, tracer))
        metrics = layer_metrics(tracer, extra)
    finally:
        tracer.uninstall()
        workload.shutdown()
    common.WORK.mkdir(exist_ok=True)
    span_file = common.WORK / f"spans-{workload.name}-seed{workload.seed}.json"
    tracer.write(span_file)
    common.emit(outcome, metrics, {
        "workload": workload.name, "seed": workload.seed, "span_file": span_file,
        "absent": tracer.absent,
    })
    return 0


# ----------------------------------------------------------------------
# steadiness mode
# ----------------------------------------------------------------------
def steady(args) -> int:
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    workloads = list(common.WORKLOADS)
    values = {}  # (set, workload, metric) -> [values]
    shares = {}  # workload -> every failed/attempted share seen
    for run_set in range(SETS):
        for index in range(args.steady):
            order = workloads if (index + run_set) % 2 == 0 else workloads[::-1]
            for name in order:
                seed = index + 1 + 1000 * run_set
                result = one_run(name, seed, seconds)
                shares.setdefault(name, set()).add(
                    Fraction(result["failed"], result["attempted"])
                )
                for metric, entry in result["metrics"].items():
                    values.setdefault((run_set, name, metric), []).append(entry["value"])
                print(f"set {run_set} run {index} {name} seed {seed}: "
                      + " ".join(f"{m}={e['value']:.5g}" for m, e in result["metrics"].items()),
                      flush=True)
    report = []
    ok = True
    for name in workloads:
        for metric, bound in bounds.items():
            row = {"workload": name, "metric": metric, "bound": bound, "sets": []}
            for run_set in range(SETS):
                q1, med, q3 = common.quartiles(values[(run_set, name, metric)])
                spread = (q3 - q1) / med if med else float("inf")
                row["sets"].append({"q1": q1, "median": med, "q3": q3, "spread": spread})
            first, second = row["sets"][0]["median"], row["sets"][1]["median"]
            row["median_change"] = (second - first) / first
            row_ok = (
                all(s["spread"] <= bound for s in row["sets"])
                and abs(row["median_change"]) <= bound
            )
            ok = ok and row_ok
            report.append(row)
            sets = "  ".join(
                f"[{s['q1']:.5g} {s['median']:.5g} {s['q3']:.5g}] spread {s['spread']:.4f}"
                for s in row["sets"]
            )
            print(f"{name:9s} {metric:12s} bound {bound:<5} {sets} "
                  f"change {row['median_change']:+.4f} {'ok' if row_ok else 'WIDE'}")
    for name in workloads:
        if len(shares[name]) != 1:
            ok = False
        print(f"{name:9s} failed shares seen: {sorted(str(f) for f in shares[name])}")
    common.WORK.mkdir(exist_ok=True)
    (common.WORK / "steady.json").write_text(json.dumps(report, indent=1))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


def one_run(name: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=str(common.ROOT), capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0,
                        help="steadiness mode: runs per workload and set")
    args = parser.parse_args(argv)
    if not args.steady and args.workload is None:
        parser.error("--workload is required outside --steady mode")
    # SIGTERM unwinds like an exception, so the server process is stopped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        common.import_program()
    except common.SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.steady:
        return steady(args)
    workload = make_workload(args.workload, args.seed)
    if args.trace:
        return traced_run(workload)
    return measured_run(workload, args.seconds or load_spec()["run_seconds"])


if __name__ == "__main__":
    sys.exit(main())
