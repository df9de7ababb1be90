"""Shared machinery of the end-to-end benchmark.

* locating the program's sources in the checkout (and refusing to run
  without them, so a bare benchmark directory exits non-zero);
* the host calibration loop and its interleaving guard;
* order statistics, peak-RSS readers and the result line.

Nothing here imports the program: the calibration loop in particular
must share no code with it.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space of every run (inputs, bundles, span files); ignored by git.
WORK = ROOT / ".e2ebench"

WORKLOADS = ("fit-eval", "refine", "serve")

#: Milliseconds one calibration chunk took on the reference host (a
#: 2-vCPU KVM guest, Python 3.11).  Host-normalised metrics are scaled
#: by ``CALIB_REF_MS / measured chunk ms``, so they read as seconds of
#: that host and move only when the program's work changes.
CALIB_REF_MS = 11.5
#: Iterations of one calibration chunk (about ``CALIB_REF_MS`` there).
CALIB_ITERATIONS = 25000
#: Chunks per calibration sample; the sample is their median.
CALIB_CHUNKS = 3


class SourceMissing(RuntimeError):
    """The checkout holds no program sources next to the benchmark."""


def import_program():
    """Put ``<checkout>/src`` first on ``sys.path`` and import ``repro``.

    Raises :class:`SourceMissing` when the sources are absent or when
    ``repro`` would resolve to another copy than the checkout's.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SourceMissing(f"no program sources under {SRC}")
    os.environ.pop("REPRO_SCALE", None)
    sys.path.insert(0, str(SRC))
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC not in origin.parents:
        raise SourceMissing(f"repro resolved outside the checkout: {origin}")
    return repro


def program_env() -> Dict[str, str]:
    """Environment for a child process running the program from source."""
    env = dict(os.environ)
    env.pop("REPRO_SCALE", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


# ----------------------------------------------------------------------
# host calibration
# ----------------------------------------------------------------------
def _calibration_chunk(iterations: int = CALIB_ITERATIONS) -> int:
    """Fixed integer, dict and sort work in pure Python."""
    table: Dict[int, int] = {}
    acc = 0
    for i in range(iterations):
        key = (i * 2654435761) & 0x3FF
        table[key] = table.get(key, 0) + (i ^ acc)
        acc = (acc + key * 7) & 0xFFFFFFFF
    return acc + len(sorted(table.values()))


class HostClock:
    """Times the calibration loop between operations, never during one.

    ``op()`` marks program work in flight; ``calibrate()`` refuses to run
    inside it, or while ``inflight`` requests are outstanding, because a
    sample taken beside program work measures contention, not the host.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._busy = False

    def calibrate(self, inflight: int = 0) -> float:
        """One calibration sample in milliseconds (median of chunks)."""
        if self._busy or inflight:
            raise RuntimeError(
                "calibration requested while program work is in flight"
            )
        chunks = []
        for _ in range(CALIB_CHUNKS):
            start = time.perf_counter()
            _calibration_chunk()
            chunks.append((time.perf_counter() - start) * 1000.0)
        sample = statistics.median(chunks)
        self.samples.append(sample)
        return sample

    @contextmanager
    def op(self):
        """Mark program work in flight for the guard."""
        self._busy = True
        try:
            yield
        finally:
            self._busy = False

    def median_ms(self) -> float:
        return statistics.median(self.samples)


#: How each timed end-to-end metric scales with time: seconds and
#: milliseconds by +1, a rate by -1.
TIMED = {"setup_s": 1, "op_s": 1, "p50_ms": 1, "p95_ms": 1, "rps": -1}


def host_normalised(metrics: Dict[str, tuple], host_ms: float) -> Dict[str, tuple]:
    """Scale the timed metrics of a run to the reference host's speed.

    ``host_ms`` is the median calibration sample of the run.
    """
    scale = CALIB_REF_MS / host_ms
    return {
        name: (value * scale ** TIMED.get(name, 0), unit)
        for name, (value, unit) in metrics.items()
    }


class SerialRound:
    """Bookkeeping of one round of operations run one after another.

    A calibration sample is taken before the round and after each
    operation; each operation's wall seconds are kept in ``raw``.  An
    exception from the program is a failed operation.
    """

    def __init__(self, clock: HostClock, tracer) -> None:
        self.clock = clock
        self.tracer = tracer
        self.raw: List[float] = []
        self.coverage: List[float] = []
        clock.calibrate()

    def run(self, fn):
        """``(result, problems)`` of one timed call of ``fn``."""
        result, problems = None, []
        with self.clock.op():
            start = time.perf_counter()
            with self.tracer.span("op") as sid:
                try:
                    result = fn()
                except Exception as exc:  # a failed operation, counted
                    problems.append(f"raised {exc!r}")
            wall = time.perf_counter() - start
        self.clock.calibrate()
        self.raw.append(wall)
        if sid is not None:
            self.coverage.append(self.tracer.coverage(sid))
        return result, problems

    def summary(self, **extra) -> Dict[str, list]:
        return dict(raw=self.raw, coverage=self.coverage, **extra)


class SerialWorkload:
    """What the workloads that run one operation at a time in this
    process share: their metrics come from :class:`SerialRound` rounds."""

    #: Set-ups per run; ``setup_s`` is the median of their wall seconds,
    #: host-normalised like every timed metric (README, "Timing").
    setups = 5

    def end_to_end(self, rounds) -> Dict[str, tuple]:
        return serial_metrics(rounds)

    @staticmethod
    def round_seconds(round_result) -> float:
        return sum(round_result["raw"])

    def peak_rss_mb(self) -> float:
        return own_peak_rss_mb()

    def begin_traced(self) -> None:
        """Nothing to read before the traced round."""

    def shutdown(self) -> None:
        """Nothing outlives the run."""


def serial_metrics(rounds: Sequence[Dict[str, list]]) -> Dict[str, tuple]:
    """End-to-end metrics of a workload that runs one operation at a time.

    Each position of the round is reduced to its median over
    the run's rounds; ``op_s`` is their mean, ``rps`` its reciprocal
    and the latency percentiles are taken over the positions.
    """
    per_op = position_medians([r["raw"] for r in rounds])
    mres = rounds[0]["mre"]
    return {
        "op_s": (statistics.fmean(per_op), "s"),
        "rps": (1.0 / statistics.fmean(per_op), "1/s"),
        "p50_ms": (1000.0 * statistics.median(per_op), "ms"),
        "p95_ms": (1000.0 * percentile(per_op, 95), "ms"),
        "mre_pct": (statistics.fmean(mres) if mres else math.inf, "%"),
    }


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(int(math.ceil(q / 100.0 * len(ordered))), 1)
    return ordered[rank - 1]


def quartiles(values: Sequence[float]):
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def position_medians(rounds: Sequence[Sequence[float]]) -> List[float]:
    """Per-position median over whole rounds of the same operations."""
    return [statistics.median(column) for column in zip(*rounds)]


# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------
def own_peak_rss_mb() -> float:
    """Peak RSS of this process in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak RSS (``VmHWM``) of another live process in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of another process (``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rpartition(")")[2].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


# ----------------------------------------------------------------------
# result
# ----------------------------------------------------------------------
class Outcome:
    """Operations attempted and failed, plus the reason of each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def record(self, label: str, problems: Sequence[str]) -> bool:
        """Count one operation; ``problems`` lists its failed checks."""
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")
            return False
        return True

    @property
    def failed(self) -> int:
        return len(self.failures)


def emit(outcome: Outcome, metrics: Dict[str, tuple], notes: Optional[dict] = None) -> None:
    """Print the human-readable report, then the result as the last line.

    ``metrics`` maps a name to ``(value, unit)``.
    """
    for failure in outcome.failures:
        print(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:.6g} {unit}")
    for key, value in (notes or {}).items():
        print(f"# {key}: {value}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    sys.stdout.flush()
    print(json.dumps(result), flush=True)
