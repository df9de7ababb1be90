"""Stage adapters wrapping the flow's existing phase implementations.

Each adapter re-wraps one of the original modules (``mining.py``,
``generator.py``, ``simplify.py``, ``join.py``, ``regression.py``,
``hmm.py``) behind the :class:`~repro.core.stages.base.Stage` contract
without changing their numerics: the adapters only move values between
the artifact store and the phase functions, count what the phase
produced, and (where it pays) persist/restore the phase output as JSON.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from ..export import psms_from_json, psms_to_json
from ..generator import generate_psms
from ..hmm import PsmHmm
from ..join import join as join_psms
from ..mining import AssertionMiner, MiningResult
from ..psm import (
    PSM,
    ensure_state_ids_above,
    total_states,
    total_transitions,
)
from ..regression import refine_data_dependent
from ..simplify import simplify_all
from ..simulation import MultiPsmSimulator
from .base import PipelineContext, PipelineError, Stage
from .checkpoint import mining_from_json, mining_to_json
from .store import (
    FUNCTIONAL_TRACES,
    HMM,
    MINING,
    N_REFINED,
    POWER_TRACES,
    RAW_PSMS,
    SIMULATOR,
    WORKING_PSMS,
)


def _ordered(traces: Mapping[int, object]) -> List[object]:
    """Values of an id-keyed trace mapping in trace-id order."""
    return [traces[k] for k in sorted(traces)]


def _psm_counters(psms: Sequence[PSM]) -> Dict[str, int]:
    """The standard size counters of a PSM set."""
    return {
        "psms": len(psms),
        "states": total_states(psms),
        "transitions": total_transitions(psms),
    }


class MiningStage(Stage):
    """Phase 1 — dynamic assertion mining over the functional traces.

    Checkpointable: the mined propositions and proposition traces are
    saved as JSON so later runs can resume downstream of mining.
    """

    name = "mine"
    requires = (FUNCTIONAL_TRACES,)
    provides = (MINING,)

    def run(self, ctx: PipelineContext) -> Dict[str, int]:
        """Mine the shared proposition universe from the training traces."""
        traces = ctx.store.get(FUNCTIONAL_TRACES)
        miner = AssertionMiner(
            ctx.config.miner, jobs=getattr(ctx.config, "jobs", 1)
        )
        mining = miner.mine_many(_ordered(traces))
        ctx.store.put(MINING, mining)
        return self._counters(mining)

    @staticmethod
    def _counters(mining: MiningResult) -> Dict[str, int]:
        return {
            "atoms": len(mining.atoms),
            "propositions": len(mining.propositions),
            "instants": sum(len(t) for t in mining.traces),
        }

    def save_checkpoint(self, ctx: PipelineContext) -> None:
        """Write the mining artifacts to ``mine.json``."""
        self._write_json(ctx, mining_to_json(ctx.store.get(MINING)))

    def load_checkpoint(self, ctx: PipelineContext) -> Dict[str, int]:
        """Restore the mining artifacts from ``mine.json``."""
        mining = mining_from_json(self._read_json(ctx))
        ctx.store.put(MINING, mining)
        return self._counters(mining)


class GenerationStage(Stage):
    """Phase 2 — PSMGenerator: one chain PSM per training trace.

    Publishes the raw set and, as the working set, a new list over the
    same PSMs: simplify and join build new PSMs, and the refine stage
    writes only into PSM copies it owns, so the raw set stays intact.
    """

    name = "generate"
    requires = (MINING, POWER_TRACES)
    provides = (RAW_PSMS, WORKING_PSMS)

    def run(self, ctx: PipelineContext) -> Dict[str, int]:
        """Generate the chain PSMs from the mined proposition traces."""
        mining = ctx.store.get(MINING)
        power = ctx.store.get(POWER_TRACES)
        raw = generate_psms(mining.traces, _ordered(power))
        self._publish(ctx, raw)
        return _psm_counters(raw)

    @staticmethod
    def _publish(ctx: PipelineContext, raw: List[PSM]) -> None:
        ctx.store.put(RAW_PSMS, raw)
        ctx.store.put(WORKING_PSMS, list(raw))

    def save_checkpoint(self, ctx: PipelineContext) -> None:
        """Write the raw chain PSMs to ``generate.json``."""
        self._write_json(ctx, psms_to_json(ctx.store.get(RAW_PSMS)))

    def load_checkpoint(self, ctx: PipelineContext) -> Dict[str, int]:
        """Restore the raw PSMs (and the working set over them) from JSON."""
        raw = psms_from_json(self._read_json(ctx))
        ensure_state_ids_above(raw)
        self._publish(ctx, raw)
        return _psm_counters(raw)


class _PsmRewriteStage(Stage):
    """Shared behaviour of stages that rewrite the working PSM set."""

    def save_checkpoint(self, ctx: PipelineContext) -> None:
        """Write the rewritten working PSM set to ``<name>.json``."""
        self._write_json(ctx, psms_to_json(ctx.store.get(WORKING_PSMS)))

    def load_checkpoint(self, ctx: PipelineContext) -> Dict[str, int]:
        """Restore the rewritten working PSM set from ``<name>.json``."""
        psms = psms_from_json(self._read_json(ctx))
        ensure_state_ids_above(psms)
        ctx.store.put(WORKING_PSMS, psms)
        return _psm_counters(psms)


class SimplifyStage(_PsmRewriteStage):
    """Phase 3a — ``simplify``: merge adjacent mergeable chain states."""

    name = "simplify"
    requires = (WORKING_PSMS, POWER_TRACES)
    provides = (WORKING_PSMS,)

    def run(self, ctx: PipelineContext) -> Dict[str, int]:
        """Collapse each chain PSM to its simplification fixpoint."""
        simplified = simplify_all(
            ctx.store.get(WORKING_PSMS),
            ctx.store.get(POWER_TRACES),
            ctx.config.merge,
        )
        ctx.store.put(WORKING_PSMS, simplified)
        return _psm_counters(simplified)


class JoinStage(_PsmRewriteStage):
    """Phase 3b — ``join``: merge mergeable states across the set."""

    name = "join"
    requires = (WORKING_PSMS, POWER_TRACES)
    provides = (WORKING_PSMS,)

    def run(self, ctx: PipelineContext) -> Dict[str, int]:
        """Join the PSM set into the reduced set ``P'``."""
        joined = join_psms(
            ctx.store.get(WORKING_PSMS),
            ctx.store.get(POWER_TRACES),
            ctx.config.merge,
        )
        ctx.store.put(WORKING_PSMS, joined)
        return _psm_counters(joined)


class RefineStage(_PsmRewriteStage):
    """Phase 4 — data-dependent regression refinement, run on shallow
    copies of the working PSMs: regression swaps states inside the PSMs
    it gets, and the raw set may share them (no simplify or join)."""

    name = "refine"
    requires = (WORKING_PSMS, FUNCTIONAL_TRACES, POWER_TRACES)
    provides = (WORKING_PSMS, N_REFINED)

    def run(self, ctx: PipelineContext) -> Dict[str, int]:
        """Install regression output functions on data-dependent states."""
        psms = [psm.copy() for psm in ctx.store.get(WORKING_PSMS)]
        refined = refine_data_dependent(
            psms,
            ctx.store.get(FUNCTIONAL_TRACES),
            ctx.store.get(POWER_TRACES),
            ctx.config.refine,
        )
        ctx.store.put(WORKING_PSMS, psms)
        ctx.store.put(N_REFINED, refined)
        counters = _psm_counters(psms)
        counters["refined_states"] = refined
        return counters

    def save_checkpoint(self, ctx: PipelineContext) -> None:
        """Write the refined PSM set plus the refinement count."""
        payload = psms_to_json(ctx.store.get(WORKING_PSMS))
        payload["n_refined"] = ctx.store.get(N_REFINED)
        self._write_json(ctx, payload)

    def load_checkpoint(self, ctx: PipelineContext) -> Dict[str, int]:
        """Restore the refined PSM set plus the refinement count."""
        payload = self._read_json(ctx)
        psms = psms_from_json(payload)
        ensure_state_ids_above(psms)
        refined = int(payload.get("n_refined", 0))
        ctx.store.put(WORKING_PSMS, psms)
        ctx.store.put(N_REFINED, refined)
        counters = _psm_counters(psms)
        counters["refined_states"] = refined
        return counters


class HmmStage(Stage):
    """Phase 5 — HMM construction and simulator assembly.

    Cheap and terminal, so it is never checkpointed; a resumed run
    always rebuilds the HMM from the restored PSM set.
    """

    name = "hmm"
    requires = (WORKING_PSMS, MINING)
    provides = (HMM, SIMULATOR)

    def run(self, ctx: PipelineContext) -> Dict[str, int]:
        """Build the HMM and the HMM-driven multi-PSM simulator."""
        psms = ctx.store.get(WORKING_PSMS)
        mining = ctx.store.get(MINING)
        hmm = PsmHmm(psms)
        ctx.store.put(HMM, hmm)
        ctx.store.put(
            SIMULATOR, MultiPsmSimulator(psms, mining.labeler, hmm)
        )
        return {
            "hidden_states": len(hmm.state_ids),
            "observations": len(hmm.observations),
        }


#: Stage classes by canonical name.
STAGE_CLASSES = {
    MiningStage.name: MiningStage,
    GenerationStage.name: GenerationStage,
    SimplifyStage.name: SimplifyStage,
    JoinStage.name: JoinStage,
    RefineStage.name: RefineStage,
    HmmStage.name: HmmStage,
}


def build_stages(names: Sequence[str]) -> List[Stage]:
    """Instantiate the stage list for an ordered sequence of names."""
    unknown = [n for n in names if n not in STAGE_CLASSES]
    if unknown:
        raise PipelineError(
            f"unknown stage name(s) {unknown}; "
            f"known stages: {sorted(STAGE_CLASSES)}"
        )
    return [STAGE_CLASSES[name]() for name in names]
