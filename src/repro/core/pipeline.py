"""End-to-end PSM flow (paper Fig. 1), as a staged pipeline facade.

``PsmFlow`` chains every step of the methodology:

1. mine proposition traces from the training functional traces;
2. run PSMGenerator on each (proposition, power) pair — one chain PSM per
   training trace;
3. ``simplify`` each PSM, then ``join`` the set into the reduced set;
4. refine data-dependent states with the Hamming-distance regression;
5. build the HMM and expose the multi-PSM simulator.

Since the staged-pipeline refactor the phases are first-class
:class:`~repro.core.stages.Stage` objects executed by a
:class:`~repro.core.stages.PipelineRunner` over an
:class:`~repro.core.stages.ArtifactStore`; ``PsmFlow`` is a thin facade
that keeps the original public API.  Each optimisation stage can be
omitted individually (``FlowConfig.stages``), which is what the ablation
benchmarks sweep, and every stage is timed into a
:class:`~repro.core.stages.StageReport`.  With a checkpoint directory a
run persists per-stage JSON artifacts and can later resume downstream of
mining (``skip_to``) instead of re-mining.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..traces.functional import FunctionalTrace
from ..traces.power import PowerTrace
from .hmm import PsmHmm
from .mergeability import MergePolicy
from .metrics import mae, mre, rmse
from .mining import MinerConfig, MiningResult, PropositionLabeler
from .psm import PSM, total_states, total_transitions
from .regression import RefinePolicy
from .simulation import EstimationResult, MultiPsmSimulator
from .stages import (
    FUNCTIONAL_TRACES,
    HMM,
    MANDATORY_STAGES,
    MINING,
    N_REFINED,
    POWER_TRACES,
    RAW_PSMS,
    SIMULATOR,
    STAGE_ORDER,
    WINDOW_SOURCES,
    WORKING_PSMS,
    ArtifactStore,
    PipelineContext,
    PipelineRunner,
    StageReport,
    build_stages,
    build_streaming_stages,
)
from .streaming import (
    DEFAULT_WINDOW,
    BundlePublisher,
    DriftDetector,
    DriftPolicy,
    as_window_source,
)


@dataclass
class FlowConfig:
    """Configuration of the whole flow, one knob set per stage.

    ``stages`` selects the optimisation stages to execute by name
    (any subset of ``("simplify", "join", "refine")``; the mandatory
    ``mine``/``generate``/``hmm`` stages always run).  ``None`` falls
    back to the deprecated boolean aliases ``apply_simplify`` /
    ``apply_join`` / ``apply_refine``, kept so pre-refactor callers and
    configs keep working; when both are given, ``stages`` wins.

    ``checkpoint_dir`` enables JSON checkpointing of every stage's
    artifacts; ``skip_to`` resumes a run from those checkpoints at the
    named stage (requires ``checkpoint_dir``).

    ``jobs`` is the process-parallelism degree for the flow's fan-out
    loops (the miner's per-trace atom evaluation): 1 (the default) runs
    serially, 0/None uses every CPU.  Parallel and serial runs produce
    bit-identical PSM sets.
    """

    miner: MinerConfig = field(default_factory=MinerConfig)
    merge: MergePolicy = field(default_factory=MergePolicy)
    refine: RefinePolicy = field(default_factory=RefinePolicy)
    stages: Optional[Sequence[str]] = None
    checkpoint_dir: Optional[Union[str, Path]] = None
    skip_to: Optional[str] = None
    jobs: int = 1
    apply_simplify: bool = True
    apply_join: bool = True
    apply_refine: bool = True

    def stage_names(self) -> Tuple[str, ...]:
        """The ordered stage list this configuration selects."""
        if self.stages is not None:
            requested = list(self.stages)
            unknown = [n for n in requested if n not in STAGE_ORDER]
            if unknown:
                raise ValueError(
                    f"unknown stage name(s) {unknown}; "
                    f"choose from {list(STAGE_ORDER)}"
                )
            selected = set(requested) | set(MANDATORY_STAGES)
        else:
            selected = set(MANDATORY_STAGES)
            if self.apply_simplify:
                selected.add("simplify")
            if self.apply_join:
                selected.add("join")
            if self.apply_refine:
                selected.add("refine")
        return tuple(name for name in STAGE_ORDER if name in selected)


@dataclass
class FlowReport:
    """Summary of one fitted flow (feeds the Table II columns).

    ``generation_time`` is the end-to-end wall time of the pipeline;
    ``stages`` carries the structured per-stage instrumentation
    (one :class:`~repro.core.stages.StageReport` per executed or resumed
    stage, in execution order).
    """

    generation_time: float = 0.0
    n_atoms: int = 0
    n_propositions: int = 0
    n_raw_states: int = 0
    n_states: int = 0
    n_transitions: int = 0
    n_psms: int = 0
    n_refined_states: int = 0
    training_instants: int = 0
    stages: List[StageReport] = field(default_factory=list)
    # Live reference to the fitted flow's labeler; stats are read at
    # rendering time so they reflect every estimate run so far.
    labeler: Optional[PropositionLabeler] = None

    def row(self) -> tuple:
        """(TS, gen. time, states, transitions) — Table II fragment."""
        return (
            self.training_instants,
            round(self.generation_time, 3),
            self.n_states,
            self.n_transitions,
        )

    def stage(self, name: str) -> Optional[StageReport]:
        """The report of one stage by name (None when it did not run)."""
        for report in self.stages:
            if report.name == name:
                return report
        return None

    def stage_times(self) -> Dict[str, float]:
        """Per-stage wall times by stage name, in execution order."""
        return {report.name: report.wall_time for report in self.stages}

    def describe_stages(self) -> str:
        """One-line rendering of the stage timings (CLI/bench output)."""
        if not self.stages:
            return "no stage reports"
        line = " | ".join(str(report) for report in self.stages)
        stats = self.labeler.stats() if self.labeler is not None else None
        if stats:
            line += (
                " | labeler cache: "
                f"{stats['hits']} hits / {stats['misses']} misses"
                f" / {stats['evictions']} evictions"
                f" ({'on' if stats['enabled'] else 'off'})"
            )
        return line


class PsmFlow:
    """The automatic PSM-generation methodology, end to end."""

    def __init__(self, config: Optional[FlowConfig] = None) -> None:
        self.config = config or FlowConfig()
        self.mining: Optional[MiningResult] = None
        self.raw_psms: List[PSM] = []
        self.psms: List[PSM] = []
        self.hmm: Optional[PsmHmm] = None
        self.report = FlowReport()
        self._simulator: Optional[MultiPsmSimulator] = None
        self._power_traces: Dict[int, PowerTrace] = {}
        self._functional_traces: Dict[int, FunctionalTrace] = {}

    # ------------------------------------------------------------------
    @property
    def fitted(self) -> bool:
        """True once :meth:`fit` has produced a PSM set."""
        return self.hmm is not None

    def fit(
        self,
        functional_traces: Sequence[FunctionalTrace],
        power_traces: Sequence[PowerTrace],
        checkpoint_dir: Optional[Union[str, Path]] = None,
        skip_to: Optional[str] = None,
    ) -> "PsmFlow":
        """Generate, combine and optimise the PSM set from training data.

        ``checkpoint_dir`` / ``skip_to`` override the equally named
        :class:`FlowConfig` fields for this call: with a checkpoint
        directory every stage persists its artifacts as JSON, and
        ``skip_to`` resumes from those checkpoints at the named stage
        (e.g. ``skip_to="generate"`` reuses the mined propositions
        instead of re-mining, producing an identical PSM set).
        """
        if len(functional_traces) != len(power_traces):
            raise ValueError("need one power trace per functional trace")
        if not functional_traces:
            raise ValueError("at least one training pair is required")
        for functional, power in zip(functional_traces, power_traces):
            if len(functional) != len(power):
                raise ValueError(
                    "functional and power traces must have equal lengths"
                )
        config = self.config
        if checkpoint_dir is None:
            checkpoint_dir = config.checkpoint_dir
        if skip_to is None:
            skip_to = config.skip_to
        start = time.perf_counter()

        store = ArtifactStore()
        store.put(FUNCTIONAL_TRACES, dict(enumerate(functional_traces)))
        store.put(POWER_TRACES, dict(enumerate(power_traces)))
        runner = PipelineRunner(build_stages(config.stage_names()))
        ctx = PipelineContext(
            config=config,
            store=store,
            checkpoint_dir=Path(checkpoint_dir) if checkpoint_dir else None,
        )
        stage_reports = runner.run(ctx, skip_to=skip_to)

        self._functional_traces = store.get(FUNCTIONAL_TRACES)
        self._power_traces = store.get(POWER_TRACES)
        self.mining = store.get(MINING)
        self.raw_psms = store.get(RAW_PSMS)
        self.psms = store.get(WORKING_PSMS)
        self.hmm = store.get(HMM)
        self._simulator = store.get(SIMULATOR)

        self.report = FlowReport(
            generation_time=time.perf_counter() - start,
            n_atoms=len(self.mining.atoms),
            n_propositions=len(self.mining.propositions),
            n_raw_states=total_states(self.raw_psms),
            n_states=total_states(self.psms),
            n_transitions=total_transitions(self.psms),
            n_psms=len(self.psms),
            n_refined_states=store.get_or(N_REFINED, 0),
            training_instants=sum(len(t) for t in functional_traces),
            stages=stage_reports,
            labeler=self.mining.labeler,
        )
        return self

    def fit_stream(
        self,
        sources: Sequence,
        window: int = DEFAULT_WINDOW,
        publisher: Optional[BundlePublisher] = None,
        drift: Optional[Union[DriftDetector, DriftPolicy]] = None,
        progress=None,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        skip_to: Optional[str] = None,
    ) -> "PsmFlow":
        """Fit the flow from a windowed replay of the training streams.

        ``sources`` are window sources — anything
        :func:`~repro.core.streaming.as_window_source` accepts: an
        existing source, a ``(functional, power)`` pair, a
        :class:`~repro.traces.io.BinaryTraceReader` or a ``.npt`` path —
        replayed in windows of ``window`` instants.  The mining phase
        runs incrementally (see
        :class:`~repro.core.stages.StreamMiningStage`); every downstream
        stage consumes the finalized artifacts unchanged, so with drift
        detection off the result is bit-identical to :meth:`fit` over
        the full traces — the batch path is this path's equivalence
        oracle.

        ``drift`` (a policy or a ready detector) arms mid-stream
        refresh: each firing re-runs ``simplify``/``join`` over the
        stream prefix and — when ``publisher`` is given — publishes a
        versioned bundle through its atomic-replace path, which a
        serving registry hot-reloads with zero estimate downtime.  The
        final model is always published last when a publisher is given.
        """
        if not sources:
            raise ValueError("at least one training source is required")
        normalized = [
            as_window_source(source, trace_id)
            for trace_id, source in enumerate(sources)
        ]
        if isinstance(drift, DriftPolicy):
            drift = DriftDetector(drift)
        config = self.config
        if checkpoint_dir is None:
            checkpoint_dir = config.checkpoint_dir
        if skip_to is None:
            skip_to = config.skip_to
        start = time.perf_counter()

        store = ArtifactStore()
        store.put(WINDOW_SOURCES, normalized)
        store.put(
            FUNCTIONAL_TRACES,
            {s.trace_id: s.functional() for s in normalized},
        )
        store.put(
            POWER_TRACES, {s.trace_id: s.power() for s in normalized}
        )
        runner = PipelineRunner(
            build_streaming_stages(
                config.stage_names(),
                window=window,
                progress=progress,
                drift=drift,
                publisher=publisher,
            )
        )
        ctx = PipelineContext(
            config=config,
            store=store,
            checkpoint_dir=Path(checkpoint_dir) if checkpoint_dir else None,
        )
        stage_reports = runner.run(ctx, skip_to=skip_to)

        self._functional_traces = store.get(FUNCTIONAL_TRACES)
        self._power_traces = store.get(POWER_TRACES)
        self.mining = store.get(MINING)
        self.raw_psms = store.get(RAW_PSMS)
        self.psms = store.get(WORKING_PSMS)
        self.hmm = store.get(HMM)
        self._simulator = store.get(SIMULATOR)

        if publisher is not None:
            publisher.publish(self.psms, reason="final")

        self.report = FlowReport(
            generation_time=time.perf_counter() - start,
            n_atoms=len(self.mining.atoms),
            n_propositions=len(self.mining.propositions),
            n_raw_states=total_states(self.raw_psms),
            n_states=total_states(self.psms),
            n_transitions=total_transitions(self.psms),
            n_psms=len(self.psms),
            n_refined_states=store.get_or(N_REFINED, 0),
            training_instants=sum(len(s) for s in normalized),
            stages=stage_reports,
            labeler=self.mining.labeler,
        )
        return self

    # ------------------------------------------------------------------
    def simulator(self) -> MultiPsmSimulator:
        """The HMM-driven simulator over the fitted PSM set."""
        self._require_fitted()
        return self._simulator

    def estimate(
        self, trace: FunctionalTrace, engine: str = "auto"
    ) -> EstimationResult:
        """Estimate the power trace of an arbitrary functional trace.

        ``engine`` selects the execution backend — see
        :meth:`MultiPsmSimulator.run`.
        """
        self._require_fitted()
        return self._simulator.run(trace, engine=engine)

    def evaluate(
        self, trace: FunctionalTrace, reference: PowerTrace
    ) -> Dict[str, float]:
        """Estimate ``trace`` and score it against a reference power trace.

        Returns a dict with ``mre`` / ``mae`` / ``rmse`` / ``wsp`` /
        ``desync_fraction`` plus the estimation wall time.
        """
        self._require_fitted()
        start = time.perf_counter()
        result = self._simulator.run(trace)
        elapsed = time.perf_counter() - start
        return {
            "mre": mre(result.estimated, reference),
            "mae": mae(result.estimated, reference),
            "rmse": rmse(result.estimated, reference),
            "wsp": result.wsp,
            "wrong_state_pct": result.wrong_state_fraction,
            "desync_fraction": result.desync_fraction,
            "estimation_time": elapsed,
        }

    def _require_fitted(self) -> None:
        if not self.fitted:
            raise RuntimeError("call fit() before using the flow")


def fit_flow(
    functional_traces: Sequence[FunctionalTrace],
    power_traces: Sequence[PowerTrace],
    config: Optional[FlowConfig] = None,
) -> PsmFlow:
    """Convenience one-liner: build and fit a :class:`PsmFlow`."""
    return PsmFlow(config).fit(functional_traces, power_traces)
