"""Tests for the staged pipeline subsystem (``repro.core.stages``)."""

import numpy as np
import pytest

from repro.core.export import load_stage_reports, psms_to_json, save_psms
from repro.core.mergeability import MergePolicy
from repro.core.mining import AssertionMiner, MinerConfig
from repro.core.pipeline import FlowConfig, PsmFlow
from repro.core.psm import ConstantPower, RegressionPower, reset_state_ids
from repro.core.stages import (
    MINING,
    STAGE_ORDER,
    ArtifactStore,
    CheckpointError,
    MiningStage,
    MissingArtifactError,
    PipelineError,
    PipelineRunner,
    StageReport,
    build_stages,
    mining_from_json,
    mining_to_json,
    stage_reports_from_json,
)
from repro.traces.functional import FunctionalTrace
from repro.traces.power import PowerTrace
from repro.traces.variables import int_in


def world(pattern, seed=0):
    values = []
    for mode, count in pattern:
        values.extend([mode] * count)
    trace = FunctionalTrace([int_in("x", 2)], {"x": values})
    levels = {0: 1.0, 1: 5.0, 2: 2.0}
    rng = np.random.default_rng(seed)
    power = PowerTrace(
        [levels[v] * (1 + rng.normal(0, 0.002)) for v in values]
    )
    return trace, power


def data_world(blocks=8, seed=0):
    """Idle/active alternation where active power is linear in HD."""
    rng = np.random.default_rng(seed)
    mode, data = [], []
    for _ in range(blocks):
        mode.extend([0] * 6)
        data.extend([0] * 6)
        mode.extend([1] * 20)
        data.extend(int(v) for v in rng.integers(0, 256, 20))
    trace = FunctionalTrace(
        [int_in("mode", 1), int_in("data", 8)],
        {"mode": mode, "data": data},
    )
    hd = trace.hamming_distances()
    power = PowerTrace(
        [
            1.0 if m == 0 else 2.0 + 1.0 * float(h)
            for m, h in zip(mode, hd)
        ]
    )
    return trace, power


def config(**overrides):
    base = dict(
        miner=MinerConfig(min_avg_run=1.0, max_chatter_fraction=1.0),
        merge=MergePolicy(max_cv=None),
    )
    base.update(overrides)
    return FlowConfig(**base)


def model_json(flow):
    """Canonical serialised form of a fitted flow's PSM set."""
    return psms_to_json(flow.psms)


PATTERN = [(0, 5), (1, 5), (0, 5), (2, 5)] * 3 + [(0, 2)]


# ----------------------------------------------------------------------
# artifact store
# ----------------------------------------------------------------------
class TestArtifactStore:
    def test_put_get_roundtrip(self):
        store = ArtifactStore()
        store.put("psms", [])
        assert store.get("psms") == []
        assert store.has("psms")
        assert "psms" in store

    def test_missing_artifact_raises(self):
        store = ArtifactStore()
        with pytest.raises(MissingArtifactError):
            store.get("psms")

    def test_get_or_default(self):
        store = ArtifactStore()
        assert store.get_or("n_refined", 0) == 0
        store.put("n_refined", 3)
        assert store.get_or("n_refined", 0) == 3

    def test_known_key_type_checked(self):
        store = ArtifactStore()
        with pytest.raises(TypeError):
            store.put("psms", "not a list")
        with pytest.raises(TypeError):
            store.put(MINING, {"not": "a MiningResult"})

    def test_unknown_keys_allowed(self):
        store = ArtifactStore()
        store.put("extension_artifact", object())
        assert store.has("extension_artifact")

    def test_keys_in_publication_order(self):
        store = ArtifactStore()
        store.put("b", 1)
        store.put("a", 2)
        assert store.keys() == ["b", "a"]


# ----------------------------------------------------------------------
# stage reports
# ----------------------------------------------------------------------
class TestStageReport:
    def test_json_roundtrip(self):
        report = StageReport(
            "mine", wall_time=1.25, counters={"atoms": 4}
        )
        rebuilt = StageReport.from_json(report.to_json())
        assert rebuilt == report

    def test_resumed_marker_in_str(self):
        live = StageReport("join", wall_time=0.5)
        resumed = StageReport("mine", wall_time=0.1, status="resumed")
        assert "*" not in str(live)
        assert str(resumed).startswith("mine*")
        assert resumed.resumed and not live.resumed

    def test_list_roundtrip(self):
        reports = [StageReport("mine"), StageReport("hmm", wall_time=2.0)]
        payload = [r.to_json() for r in reports]
        assert stage_reports_from_json(payload) == reports


# ----------------------------------------------------------------------
# stage selection / runner validation
# ----------------------------------------------------------------------
class TestStageSelection:
    def test_default_selects_all_stages(self):
        assert FlowConfig().stage_names() == STAGE_ORDER

    def test_stages_subset_keeps_mandatory(self):
        names = FlowConfig(stages=("refine",)).stage_names()
        assert names == ("mine", "generate", "refine", "hmm")

    def test_stages_override_wins_over_flags(self):
        cfg = FlowConfig(stages=("join",), apply_simplify=True)
        assert "simplify" not in cfg.stage_names()

    def test_legacy_flags_still_work(self):
        cfg = FlowConfig(apply_simplify=False, apply_refine=False)
        assert cfg.stage_names() == ("mine", "generate", "join", "hmm")

    def test_unknown_stage_name_rejected(self):
        with pytest.raises(ValueError):
            FlowConfig(stages=("bogus",)).stage_names()

    def test_build_stages_unknown_name(self):
        with pytest.raises(PipelineError):
            build_stages(["mine", "bogus"])

    def test_runner_rejects_empty_pipeline(self):
        with pytest.raises(PipelineError):
            PipelineRunner([])

    def test_runner_rejects_duplicate_stages(self):
        with pytest.raises(PipelineError):
            PipelineRunner([MiningStage(), MiningStage()])


# ----------------------------------------------------------------------
# per-stage instrumentation
# ----------------------------------------------------------------------
class TestInstrumentation:
    def test_every_executed_stage_reports(self):
        trace, power = world(PATTERN)
        flow = PsmFlow(config()).fit([trace], [power])
        names = [r.name for r in flow.report.stages]
        assert tuple(names) == STAGE_ORDER
        for report in flow.report.stages:
            assert report.status == "executed"
            assert report.wall_time >= 0.0
            assert report.counters  # every stage counts something

    def test_stage_counters_match_summary(self):
        trace, power = world(PATTERN)
        flow = PsmFlow(config()).fit([trace], [power])
        mine = flow.report.stage("mine")
        assert mine.counters["atoms"] == flow.report.n_atoms
        assert mine.counters["propositions"] == flow.report.n_propositions
        generate = flow.report.stage("generate")
        assert generate.counters["states"] == flow.report.n_raw_states
        assert flow.report.stage("nonexistent") is None

    def test_stage_times_and_description(self):
        trace, power = world(PATTERN)
        flow = PsmFlow(config(stages=("simplify",))).fit([trace], [power])
        times = flow.report.stage_times()
        assert list(times) == ["mine", "generate", "simplify", "hmm"]
        assert all(t >= 0.0 for t in times.values())
        text = flow.report.describe_stages()
        for name in times:
            assert name in text

    def test_total_time_covers_stage_times(self):
        trace, power = world(PATTERN)
        flow = PsmFlow(config()).fit([trace], [power])
        assert flow.report.generation_time >= sum(
            flow.report.stage_times().values()
        ) * 0.5  # loose: total wall clock includes the stage wall times


# ----------------------------------------------------------------------
# omitting stages == the deprecated boolean flags, bit for bit
# ----------------------------------------------------------------------
class TestStageOmissionEquivalence:
    @pytest.mark.parametrize(
        "flags, stages",
        [
            (dict(apply_simplify=False), ("join", "refine")),
            (dict(apply_join=False), ("simplify", "refine")),
            (dict(apply_refine=False), ("simplify", "join")),
            (
                dict(
                    apply_simplify=False,
                    apply_join=False,
                    apply_refine=False,
                ),
                (),
            ),
        ],
    )
    def test_bit_for_bit(self, flags, stages):
        trace, power = world(PATTERN)
        reset_state_ids()
        legacy = PsmFlow(config(**flags)).fit([trace], [power])
        reset_state_ids()
        staged = PsmFlow(config(stages=stages)).fit([trace], [power])
        assert model_json(legacy) == model_json(staged)


# ----------------------------------------------------------------------
# checkpointing and resume
# ----------------------------------------------------------------------
class TestMiningCheckpoint:
    def test_roundtrip_is_value_identical(self):
        trace, _ = world(PATTERN)
        miner = AssertionMiner(
            MinerConfig(min_avg_run=1.0, max_chatter_fraction=1.0)
        )
        mining = miner.mine_many([trace])
        rebuilt = mining_from_json(mining_to_json(mining))
        assert rebuilt.atoms == mining.atoms
        assert rebuilt.propositions == mining.propositions
        assert len(rebuilt.traces) == len(mining.traces)
        for a, b in zip(rebuilt.traces, mining.traces):
            assert list(a) == list(b)
        for a, b in zip(rebuilt.matrices, mining.matrices):
            assert np.array_equal(a, b)
        assert rebuilt.labeler.atoms == mining.labeler.atoms

    def test_version_guard(self):
        trace, _ = world(PATTERN)
        miner = AssertionMiner(
            MinerConfig(min_avg_run=1.0, max_chatter_fraction=1.0)
        )
        payload = mining_to_json(miner.mine_many([trace]))
        payload["version"] = 99
        with pytest.raises(ValueError):
            mining_from_json(payload)


class TestCheckpointResume:
    def test_checkpoints_written_per_stage(self, tmp_path):
        trace, power = world(PATTERN)
        PsmFlow(config()).fit(
            [trace], [power], checkpoint_dir=tmp_path
        )
        for name in ("mine", "generate", "simplify", "join", "refine"):
            assert (tmp_path / f"{name}.json").exists()
        # the hmm stage is terminal and cheap: never checkpointed
        assert not (tmp_path / "hmm.json").exists()

    @pytest.mark.parametrize("skip_to", ["generate", "simplify", "hmm"])
    def test_resume_produces_identical_psm_set(self, tmp_path, skip_to):
        trace, power = world(PATTERN)
        reset_state_ids()
        full = PsmFlow(config()).fit(
            [trace], [power], checkpoint_dir=tmp_path
        )
        reset_state_ids()
        resumed = PsmFlow(config()).fit(
            [trace], [power], checkpoint_dir=tmp_path, skip_to=skip_to
        )
        assert model_json(full) == model_json(resumed)
        np.testing.assert_array_equal(
            full.estimate(trace).estimated.values,
            resumed.estimate(trace).estimated.values,
        )

    def test_resumed_stages_marked(self, tmp_path):
        trace, power = world(PATTERN)
        PsmFlow(config()).fit([trace], [power], checkpoint_dir=tmp_path)
        resumed = PsmFlow(config()).fit(
            [trace], [power], checkpoint_dir=tmp_path, skip_to="join"
        )
        status = {r.name: r.status for r in resumed.report.stages}
        assert status == {
            "mine": "resumed",
            "generate": "resumed",
            "simplify": "resumed",
            "join": "executed",
            "refine": "executed",
            "hmm": "executed",
        }

    def test_config_level_checkpointing(self, tmp_path):
        trace, power = world(PATTERN)
        cfg = config(checkpoint_dir=tmp_path)
        PsmFlow(cfg).fit([trace], [power])
        assert (tmp_path / "mine.json").exists()
        resumed = PsmFlow(
            config(checkpoint_dir=tmp_path, skip_to="generate")
        ).fit([trace], [power])
        assert resumed.report.stage("mine").resumed

    def test_skip_to_without_checkpoint_dir(self):
        trace, power = world([(0, 5), (1, 5)])
        with pytest.raises(CheckpointError):
            PsmFlow(config()).fit([trace], [power], skip_to="generate")

    def test_skip_to_missing_checkpoint(self, tmp_path):
        trace, power = world([(0, 5), (1, 5)])
        with pytest.raises(CheckpointError):
            PsmFlow(config()).fit(
                [trace], [power],
                checkpoint_dir=tmp_path / "empty",
                skip_to="generate",
            )

    def test_skip_to_unknown_stage(self, tmp_path):
        trace, power = world([(0, 5), (1, 5)])
        with pytest.raises(PipelineError):
            PsmFlow(config()).fit(
                [trace], [power],
                checkpoint_dir=tmp_path,
                skip_to="bogus",
            )

    def test_skip_to_stage_not_in_pipeline(self, tmp_path):
        trace, power = world([(0, 5), (1, 5)])
        with pytest.raises(PipelineError):
            PsmFlow(config(stages=("simplify",))).fit(
                [trace], [power],
                checkpoint_dir=tmp_path,
                skip_to="join",
            )

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        trace, power = world(PATTERN)
        PsmFlow(config()).fit([trace], [power], checkpoint_dir=tmp_path)
        (tmp_path / "mine.json").write_text("{not json")
        with pytest.raises(CheckpointError):
            PsmFlow(config()).fit(
                [trace], [power],
                checkpoint_dir=tmp_path,
                skip_to="generate",
            )


# ----------------------------------------------------------------------
# raw-PSM isolation (the working set shares states; regression copies)
# ----------------------------------------------------------------------
class TestRawPsmIsolation:
    def test_refinement_leaves_raw_set_constant(self):
        trace, power = data_world()
        flow = PsmFlow(config()).fit([trace], [power])
        # the active state's power is linear in HD: refinement must fire
        assert flow.report.n_refined_states > 0
        assert any(
            isinstance(s.power_model, RegressionPower)
            for psm in flow.psms
            for s in psm.states
        )
        # ...while every raw chain state keeps its constant mean output
        for psm in flow.raw_psms:
            for state in psm.states:
                assert isinstance(state.power_model, ConstantPower)
                assert state.power_model.value == state.attributes.mu

    @pytest.mark.parametrize("stages", [("refine",), None])
    def test_raw_set_exports_unchanged(self, stages):
        trace, power = data_world()
        reset_state_ids()
        untouched = PsmFlow(config(stages=())).fit([trace], [power])
        expected = psms_to_json(untouched.raw_psms)
        reset_state_ids()
        flow = PsmFlow(config(stages=stages)).fit([trace], [power])
        # regression fired on the working set, which shares the raw
        # states it did not re-model ...
        assert flow.report.n_refined_states > 0
        assert psms_to_json(flow.psms) != expected
        # ... and the raw set still exports exactly as generated
        assert psms_to_json(flow.raw_psms) == expected


# ----------------------------------------------------------------------
# export of stage reports
# ----------------------------------------------------------------------
class TestStageReportExport:
    def test_saved_model_carries_stage_reports(self, tmp_path):
        trace, power = world(PATTERN)
        flow = PsmFlow(config()).fit([trace], [power])
        path = tmp_path / "model.json"
        save_psms(flow.psms, path, stage_reports=flow.report.stages)
        loaded = load_stage_reports(path)
        assert loaded == flow.report.stages

    def test_model_without_reports_loads_empty(self, tmp_path):
        trace, power = world(PATTERN)
        flow = PsmFlow(config()).fit([trace], [power])
        path = tmp_path / "model.json"
        save_psms(flow.psms, path)
        assert load_stage_reports(path) == []
