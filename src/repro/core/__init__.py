"""The paper's primary contribution: automatic PSM generation and simulation."""

from .attributes import Interval, PowerAttributes
from .coverage import CoverageReport, coverage_report
from .export import (
    load_psms,
    load_stage_reports,
    psms_from_json,
    psms_to_json,
    save_psms,
    to_dot,
    to_systemc,
)
from .generator import generate_psm, generate_psms
from .hierarchy import (
    ComponentPowerResult,
    HierarchicalEstimate,
    HierarchicalPsmFlow,
    default_hierarchical_config,
    run_hierarchical_power_simulation,
)
from .hmm import PsmHmm
from .join import join, merge_states
from .mergeability import (
    MergePolicy,
    single_observation_t_test,
    welch_t_test,
)
from .metrics import mae, mean_power_error, mre, rmse
from .mining import (
    AssertionMiner,
    MinerConfig,
    MiningResult,
    PropositionLabeler,
    proposition_label,
)
from .pipeline import FlowConfig, FlowReport, PsmFlow, fit_flow
from .stages import (
    MANDATORY_STAGES,
    OPTIONAL_STAGES,
    STAGE_ORDER,
    ArtifactStore,
    CheckpointError,
    MissingArtifactError,
    PipelineContext,
    PipelineError,
    PipelineRunner,
    Stage,
    StageReport,
    build_stages,
)
from .propositions import (
    AtomicProposition,
    Proposition,
    PropositionTrace,
    VarCompare,
    VarEqualsConst,
)
from .psm import (
    PSM,
    ConstantPower,
    PowerModel,
    PowerState,
    RegressionPower,
    Transition,
    find_state,
    next_state_id,
    reset_state_ids,
    state_universe,
    total_states,
    total_transitions,
)
from .regression import RefinePolicy, fit_regression, refine_data_dependent
from .simplify import merge_adjacent, simplify, simplify_all
from .simulation import (
    EstimationResult,
    MultiPsmSimulator,
    SinglePsmSimulator,
    StateTracker,
)
from .temporal import (
    ChoiceAssertion,
    NextAssertion,
    SequenceAssertion,
    TemporalAssertion,
    UntilAssertion,
    base_assertions,
)
from .xu import MinedAssertion, XUAutomaton, mine_patterns

__all__ = [
    # propositions & mining
    "AtomicProposition",
    "VarEqualsConst",
    "VarCompare",
    "Proposition",
    "PropositionTrace",
    "AssertionMiner",
    "MinerConfig",
    "MiningResult",
    "PropositionLabeler",
    "proposition_label",
    # temporal layer
    "TemporalAssertion",
    "UntilAssertion",
    "NextAssertion",
    "SequenceAssertion",
    "ChoiceAssertion",
    "base_assertions",
    "XUAutomaton",
    "MinedAssertion",
    "mine_patterns",
    # PSM structures
    "PSM",
    "PowerState",
    "Transition",
    "PowerModel",
    "ConstantPower",
    "RegressionPower",
    "PowerAttributes",
    "Interval",
    "next_state_id",
    "reset_state_ids",
    "total_states",
    "total_transitions",
    "find_state",
    "state_universe",
    # generation & optimisation
    "generate_psm",
    "generate_psms",
    "MergePolicy",
    "welch_t_test",
    "single_observation_t_test",
    "simplify",
    "simplify_all",
    "merge_adjacent",
    "join",
    "merge_states",
    "RefinePolicy",
    "refine_data_dependent",
    "fit_regression",
    # simulation
    "PsmHmm",
    "SinglePsmSimulator",
    "MultiPsmSimulator",
    "StateTracker",
    "EstimationResult",
    # diagnostics
    "CoverageReport",
    "coverage_report",
    # hierarchy extension
    "HierarchicalPsmFlow",
    "HierarchicalEstimate",
    "ComponentPowerResult",
    "run_hierarchical_power_simulation",
    "default_hierarchical_config",
    # metrics & pipeline
    "mre",
    "mae",
    "rmse",
    "mean_power_error",
    "PsmFlow",
    "FlowConfig",
    "FlowReport",
    "fit_flow",
    # staged pipeline
    "Stage",
    "StageReport",
    "ArtifactStore",
    "PipelineContext",
    "PipelineRunner",
    "PipelineError",
    "CheckpointError",
    "MissingArtifactError",
    "STAGE_ORDER",
    "MANDATORY_STAGES",
    "OPTIONAL_STAGES",
    "build_stages",
    # export
    "to_dot",
    "to_systemc",
    "psms_to_json",
    "psms_from_json",
    "save_psms",
    "load_psms",
    "load_stage_reports",
]
