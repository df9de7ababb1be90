"""Outside spans around the program's layers, for the traced run.

The tracer wraps each layer's public entry point from here, by patching
the attribute its caller looks up, and records one span per call:
``(id, name, start, end, parent)``.  Nothing inside the program changes.
An entry point that no longer exists is listed as absent and its layer
reads zero; the run goes on.

Per-layer busy time is the union of a layer's spans: a span nested in a
span of the same layer is not counted twice.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple

#: ``(module, attribute path, span name)`` of every wrapped entry point.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.hdl.simulator", "Simulator.run", "hdl"),
    ("repro.power.estimator", "PowerEstimator.estimate_module", "power"),
    ("repro.core.pipeline", "PsmFlow.fit", "fit"),
    ("repro.core.pipeline", "PsmFlow.fit_stream", "fit"),
    ("repro.core.stages.adapters", "join_psms", "join"),
    ("repro.core.compiled", "CompiledMulti.__init__", "compile"),
    ("repro.core.compiled", "CompiledSingle.__init__", "compile"),
    ("repro.core.simulation", "MultiPsmSimulator.run", "estimate"),
    ("repro.core.compiled", "CompiledMulti.run", "kernel"),
    ("repro.refine.oracle", "AccuracyOracle.score_trace", "oracle"),
    ("repro.refine.search", "StimulusSearch.find", "search"),
)
#: Pipeline stage name -> span name (the ``refine`` stage is regression).
STAGE_SPANS = {
    "mine": "mine",
    "generate": "generate",
    "simplify": "simplify",
    "join": "join",
    "refine": "regression",
    "hmm": "hmm",
}

#: Every per-layer metric: name -> (unit, better).
PER_LAYER = {
    "hdl.cycles": ("count", "lower"),
    "hdl.busy_s": ("s", "lower"),
    "hdl.cycles_per_s": ("1/s", "higher"),
    "power.busy_s": ("s", "lower"),
    "testbench.busy_s": ("s", "lower"),
    "fit.calls": ("count", "lower"),
    "fit.busy_s": ("s", "lower"),
    "mine.busy_s": ("s", "lower"),
    "mine.propositions": ("count", "lower"),
    "generate.busy_s": ("s", "lower"),
    "generate.raw_states": ("count", "lower"),
    "simplify.busy_s": ("s", "lower"),
    "regression.busy_s": ("s", "lower"),
    "hmm.busy_s": ("s", "lower"),
    "join.busy_s": ("s", "lower"),
    "join.states_in": ("count", "lower"),
    "join.states_out": ("count", "lower"),
    "compile.calls": ("count", "lower"),
    "compile.busy_s": ("s", "lower"),
    "kernel.calls": ("count", "lower"),
    "kernel.instants": ("count", "lower"),
    "kernel.busy_s": ("s", "lower"),
    "kernel.resolved_edges": ("count", "lower"),
    "kernel.cold_ms": ("ms", "lower"),
    "kernel.warm_ms": ("ms", "lower"),
    "oracle.calls": ("count", "lower"),
    "oracle.busy_s": ("s", "lower"),
    "search.busy_s": ("s", "lower"),
    "search.counterexamples": ("count", "lower"),
    "refit.attempts": ("count", "lower"),
    "refit.accepted": ("count", "higher"),
    "refit.useful_ratio": ("ratio", "higher"),
    "wire.json_decode_ms": ("ms", "lower"),
    "wire.npt_decode_ms": ("ms", "lower"),
    "wire.encode_ms": ("ms", "lower"),
    "server.cpu_ms_per_req": ("ms", "lower"),
    "server.request_ms": ("ms", "lower"),
    "batch.size_mean": ("count", "higher"),
    "registry.reloads": ("count", "lower"),
    "registry.compile_misses": ("count", "lower"),
    "client.cpu_ms_per_req": ("ms", "lower"),
    "host.calib_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.coverage_pct": ("%", "higher"),
    "trace.absent": ("count", "lower"),
}


def _resolve(module_name: str, path: str):
    """``(owner, attribute)`` for a dotted attribute path, or ``None``."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


def _total_states(psms) -> int:
    return sum(len(psm.states) for psm in psms)


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._depth: Dict[str, int] = defaultdict(int)
        #: span id -> True when an ancestor carries the same name.
        self._nested: Dict[int, bool] = {}
        self.counts: Dict[str, float] = defaultdict(float)
        self.absent: List[str] = []
        self._restore: List[Callable[[], None]] = []
        self._machines: Dict[int, object] = {}
        self.enabled = False

    # -- spans ---------------------------------------------------------
    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, name, time.perf_counter() - self.t0, None, parent])
        self._nested[sid] = self._depth[name] > 0
        self._depth[name] += 1
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        record = self.spans[sid]
        record[3] = time.perf_counter() - self.t0
        self._depth[record[1]] -= 1
        self._stack.pop()

    def record(self, name: str, start: float, end: float, parent: int) -> None:
        """A span timed elsewhere (concurrent requests of one slice)."""
        sid = len(self.spans)
        self.spans.append([sid, name, start, end, parent])
        self._nested[sid] = False

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield None
            return
        sid = self.open(name)
        try:
            yield sid
        finally:
            self.close(sid)

    # -- patching ------------------------------------------------------
    def _wrap(self, fn: Callable, name):
        """``fn`` recording a span per call; ``name`` may be a function of
        the call's arguments."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_name = name(args) if callable(name) else name
            sid = tracer.open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            tracer._count(span_name, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        if attr in vars(owner):
            original = vars(owner)[attr]
            self._restore.append(lambda: setattr(owner, attr, original))
        else:  # inherited: removing the patch uncovers it again
            self._restore.append(lambda: delattr(owner, attr))
        setattr(owner, attr, replacement)

    def _patch_item(self, table: dict, key, replacement) -> None:
        original = table[key]
        self._restore.append(lambda: table.__setitem__(key, original))
        table[key] = replacement

    def _count(self, span_name: str, args, result) -> None:
        counts = self.counts
        if span_name == "hdl":
            counts["hdl.cycles"] += result.cycles
        elif span_name == "fit":
            counts["fit.calls"] += 1
        elif span_name == "join" and isinstance(result, list):
            counts["join.states_in"] += _total_states(args[0])
            counts["join.states_out"] += _total_states(result)
        elif span_name == "compile":
            counts["compile.calls"] += 1
        elif span_name == "kernel":
            counts["kernel.calls"] += 1
            counts["kernel.instants"] += len(args[1])
            self._machines[id(args[0])] = args[0]
        elif span_name == "oracle":
            counts["oracle.calls"] += 1
        elif span_name == "search":
            counts["search.counterexamples"] += len(result)
        elif span_name == "mine" and isinstance(result, dict):
            counts["mine.propositions"] += result.get("propositions", 0)
        elif span_name == "generate" and isinstance(result, dict):
            counts["generate.raw_states"] += result.get("states", 0)

    def install(self) -> None:
        """Patch every entry point; missing ones are recorded as absent."""
        for module_name, path, name in ENTRY_POINTS:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            owner, attr = found
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name))
        self._install_stages()
        self._install_testbench()
        self.enabled = True

    def _install_stages(self) -> None:
        classes = []
        adapters = _resolve("repro.core.stages.adapters", "STAGE_CLASSES")
        if adapters is None:
            self.absent.append("repro.core.stages.adapters.STAGE_CLASSES")
        else:
            classes.extend(getattr(*adapters).values())
        streaming = _resolve("repro.core.stages.streaming", "StreamMiningStage")
        if streaming is None:
            self.absent.append("repro.core.stages.streaming.StreamMiningStage")
        else:
            classes.append(getattr(*streaming))
        for cls in classes:
            if "run" not in cls.__dict__:
                continue

            def stage_name(args):
                return STAGE_SPANS.get(args[0].name, args[0].name)

            self._patch(cls, "run", self._wrap(cls.__dict__["run"], stage_name))

    def _install_testbench(self) -> None:
        registry = _resolve("repro.testbench", "BENCHMARKS")
        if registry is None:
            self.absent.append("repro.testbench.BENCHMARKS")
        else:
            for spec in getattr(*registry).values():
                for attr in ("short_ts", "long_ts"):
                    self._patch(spec, attr, self._wrap(getattr(spec, attr), "testbench"))
        families = _resolve("repro.testbench.stimuli", "PERTURBATION_FAMILIES")
        if families is None:
            self.absent.append("repro.testbench.stimuli.PERTURBATION_FAMILIES")
            return
        table = getattr(*families)
        for key, fn in list(table.items()):
            self._patch_item(table, key, self._wrap(fn, "testbench"))

    def uninstall(self) -> None:
        self.enabled = False
        while self._restore:
            self._restore.pop()()

    # -- summaries -----------------------------------------------------
    def resolved_edges(self) -> int:
        """Table edges resolved by every compiled machine seen so far."""
        total = 0
        for machine in self._machines.values():
            stats = getattr(machine, "table_stats", None)
            if stats is not None:
                total += int(stats().get("resolved_edges", 0))
        return total

    def busy(self, name: str) -> float:
        """Seconds covered by ``name`` spans, outermost ones only."""
        return sum(
            rec[3] - rec[2]
            for rec in self.spans
            if rec[1] == name and rec[3] is not None and not self._nested[rec[0]]
        )

    def coverage(self, sid: int) -> float:
        """Share of span ``sid`` covered by the union of its direct children."""
        start, end = self.spans[sid][2], self.spans[sid][3]
        intervals = sorted(
            (rec[2], rec[3]) for rec in self.spans[sid + 1 :] if rec[4] == sid
        )
        covered = 0.0
        cursor = start
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return covered / (end - start) if end > start else 1.0

    def write(self, path) -> None:
        """Write the spans (times in seconds from the tracer's start)."""
        payload = {
            "fields": ["id", "name", "start", "end", "parent"],
            "absent": self.absent,
            "spans": self.spans,
        }
        path.write_text(json.dumps(payload))


def layer_metrics(tracer: Tracer, extra: Dict[str, float]) -> Dict[str, tuple]:
    """Every per-layer metric from the recorded spans and counts.

    ``extra`` supplies the values the spans cannot give (serve-side
    series, wire timings, refit counts, overhead and coverage).  Layers
    the workload never entered read zero.
    """
    values: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    for name in PER_LAYER:
        if name.endswith(".busy_s"):
            values[name] = tracer.busy(name[: -len(".busy_s")])
    for key, value in tracer.counts.items():
        if key in values:
            values[key] = value
    if values["hdl.busy_s"] > 0:
        values["hdl.cycles_per_s"] = values["hdl.cycles"] / values["hdl.busy_s"]
    values["kernel.resolved_edges"] = tracer.resolved_edges()
    values["trace.absent"] = len(tracer.absent)
    values.update(extra)
    return {name: (values[name], unit) for name, (unit, _) in PER_LAYER.items()}
