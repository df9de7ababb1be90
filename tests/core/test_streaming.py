"""Tests for the incremental training core (streaming window operators).

The batch pipeline is the equivalence oracle throughout: every streaming
operator — run stitching, atom discovery/statistics, minterm composition,
the full ``fit_stream`` flow — must reproduce its batch twin bit for bit
when drift never fires.
"""

import json

import numpy as np
import pytest

from repro.core.export import bundle_digest, load_bundle, psms_to_json
from repro.core.mining import AssertionMiner, MinerConfig
from repro.core.pipeline import FlowConfig, PsmFlow
from repro.core.psm import reset_state_ids
from repro.core.stages import StreamMiningStage, build_streaming_stages
from repro.core.streaming import (
    AtomDiscovery,
    AtomStats,
    BundlePublisher,
    DriftDetector,
    DriftPolicy,
    MemoryWindowSource,
    MintermStream,
    ReaderWindowSource,
    StreamingMiner,
    TraceWindow,
    WindowSummary,
    as_window_source,
)
from repro.core.propositions import run_length_encode
from repro.core.xu import RunLengthStitcher
from repro.traces.functional import FunctionalTrace
from repro.traces.io import BinaryTraceReader, save_training_bin
from repro.traces.power import PowerTrace
from repro.traces.variables import bool_in, int_in


def synthetic_trace(n, seed, name="synthetic"):
    """A control-heavy trace exercising bool, const and compare atoms."""
    rng = np.random.default_rng(seed)
    specs = [
        bool_in("en"),
        int_in("mode", 4),
        int_in("cnt", 4),
        int_in("lvl", 4),
    ]
    en = np.repeat(rng.integers(0, 2, n // 5 + 1), 5)[:n]
    mode = np.repeat(rng.integers(0, 3, n // 9 + 1), 9)[:n]
    cnt = rng.integers(0, 12, n)
    lvl = rng.integers(0, 12, n)
    return FunctionalTrace(
        specs,
        {"en": en, "mode": mode, "cnt": cnt, "lvl": lvl},
        name=name,
    )


def synthetic_power(trace, seed=0):
    """A power trace loosely tracking the trace's ``mode`` column."""
    rng = np.random.default_rng(seed)
    base = trace.column("mode").astype(np.float64) * 2.0 + 1.0
    return PowerTrace(base + rng.random(len(trace)) * 0.1)


def bundle_bytes(psms, variables):
    """Digest-comparable bundle bytes (no stage reports, as the CLI)."""
    return json.dumps(
        psms_to_json(psms, variables=variables), indent=2
    ).encode("utf-8")


class TestRunLengthStitcher:
    @pytest.mark.parametrize("window", [1, 3, 7, 100])
    def test_matches_batch_rle(self, window):
        rng = np.random.default_rng(11)
        values = np.repeat(rng.integers(0, 4, 40), rng.integers(1, 6, 40))
        stitcher = RunLengthStitcher()
        for start in range(0, len(values), window):
            stitcher.extend(values[start : start + window])
        starts, lengths, codes = stitcher.rle()
        b_starts, b_lengths, b_codes = run_length_encode(values)
        assert np.array_equal(starts, b_starts)
        assert np.array_equal(lengths, b_lengths)
        assert np.array_equal(codes, b_codes)
        assert np.array_equal(stitcher.indices(), values.astype(np.int32))
        assert len(stitcher) == len(values)

    def test_boundary_run_is_stitched_not_split(self):
        stitcher = RunLengthStitcher()
        stitcher.extend(np.array([5, 5, 5]))
        stitcher.extend(np.array([5, 5, 2]))
        starts, lengths, codes = stitcher.rle()
        assert codes.tolist() == [5, 2]
        assert lengths.tolist() == [5, 1]
        assert starts.tolist() == [0, 5]

    def test_empty_window_is_noop(self):
        stitcher = RunLengthStitcher()
        stitcher.extend(np.array([1, 1]))
        stitcher.extend(np.array([], dtype=np.int64))
        stitcher.extend(np.array([1, 2]))
        _, lengths, codes = stitcher.rle()
        assert codes.tolist() == [1, 2]
        assert lengths.tolist() == [3, 1]

    def test_never_extended(self):
        stitcher = RunLengthStitcher()
        starts, lengths, codes = stitcher.rle()
        assert len(starts) == len(lengths) == len(codes) == 0
        assert stitcher.runs == 0
        assert len(stitcher.indices()) == 0


class TestWindowSources:
    def test_memory_source_replays_whole_trace(self):
        trace = synthetic_trace(53, seed=3)
        power = synthetic_power(trace)
        source = MemoryWindowSource(trace, power, trace_id=2)
        seen = 0
        for window in source.windows(10):
            assert window.trace_id == 2
            assert window.start == seen
            assert len(window.functional) == len(window.power)
            seen += len(window)
        assert seen == len(trace)
        assert len(source) == len(trace)

    def test_memory_source_length_mismatch_rejected(self):
        trace = synthetic_trace(10, seed=3)
        with pytest.raises(ValueError):
            MemoryWindowSource(trace, PowerTrace([1.0]))

    def test_reader_source_round_trip(self, tmp_path):
        trace = synthetic_trace(41, seed=5)
        power = synthetic_power(trace)
        path = tmp_path / "pair.npt"
        save_training_bin(trace, power, path)
        source = ReaderWindowSource(BinaryTraceReader(path), trace_id=0)
        total = sum(len(w) for w in source.windows(16))
        assert total == len(trace)
        assert len(source.functional()) == len(trace)
        assert np.allclose(source.power().values, power.values)

    def test_as_window_source_coercions(self, tmp_path):
        trace = synthetic_trace(20, seed=7)
        power = synthetic_power(trace)
        path = tmp_path / "pair.npt"
        save_training_bin(trace, power, path)
        assert isinstance(
            as_window_source((trace, power), 0), MemoryWindowSource
        )
        assert isinstance(as_window_source(path, 1), ReaderWindowSource)
        source = MemoryWindowSource(trace, power, 0)
        assert as_window_source(source, 3) is source
        assert source.trace_id == 3
        with pytest.raises(TypeError):
            as_window_source(42, 0)


class TestOperatorMerge:
    """merge() over disjoint trace partitions equals one-pass operators."""

    def _windows(self, trace, power, trace_id, size=13):
        return list(
            MemoryWindowSource(trace, power, trace_id).windows(size)
        )

    def test_atom_discovery_merge(self):
        config = MinerConfig()
        t0, t1 = synthetic_trace(80, 1), synthetic_trace(60, 2)
        single = AtomDiscovery(config)
        for win in self._windows(t0, synthetic_power(t0), 0):
            single.fit_window(win)
        for win in self._windows(t1, synthetic_power(t1), 1):
            single.fit_window(win)

        left, right = AtomDiscovery(config), AtomDiscovery(config)
        for win in self._windows(t0, synthetic_power(t0), 0):
            left.fit_window(win)
        for win in self._windows(t1, synthetic_power(t1), 1):
            right.fit_window(win)
        merged = left.merge(right)
        assert [str(a) for a in merged.finalize()] == [
            str(a) for a in single.finalize()
        ]

    def test_atom_stats_merge(self):
        config = MinerConfig()
        t0, t1 = synthetic_trace(90, 3), synthetic_trace(70, 4)
        atoms = AssertionMiner(config)._candidate_atoms([t0, t1])

        single = AtomStats(atoms, config)
        for win in self._windows(t0, synthetic_power(t0), 0):
            single.fit_window(win)
        for win in self._windows(t1, synthetic_power(t1), 1):
            single.fit_window(win)

        left, right = AtomStats(atoms, config), AtomStats(atoms, config)
        for win in self._windows(t0, synthetic_power(t0), 0):
            left.fit_window(win)
        for win in self._windows(t1, synthetic_power(t1), 1):
            right.fit_window(win)
        merged = left.merge(right)
        kept_single = [str(a) for a in single.finalize()]
        assert [str(a) for a in merged.finalize()] == kept_single
        assert merged.total == single.total
        assert np.array_equal(merged.holds, single.holds)
        assert np.array_equal(merged.total_runs, single.total_runs)
        assert np.array_equal(merged.chatter, single.chatter)

    def test_minterm_stream_merge_remaps_universe(self):
        config = MinerConfig()
        t0, t1 = synthetic_trace(90, 3), synthetic_trace(70, 4)
        batch = AssertionMiner(config).mine_many([t0, t1])
        atoms = batch.atoms

        left, right = MintermStream(atoms), MintermStream(atoms)
        for win in self._windows(t0, synthetic_power(t0), 0):
            left.fit_window(win)
        for win in self._windows(t1, synthetic_power(t1), 1):
            right.fit_window(win)
        merged = left.merge(right).finalize()
        assert [str(p) for p in merged.propositions] == [
            str(p) for p in batch.propositions
        ]
        for got, want in zip(merged.traces, batch.traces):
            assert np.array_equal(got.indices, want.indices)

    def test_minterm_stream_rejects_overlapping_traces(self):
        atoms = AssertionMiner(MinerConfig())._candidate_atoms(
            [synthetic_trace(30, 1)]
        )
        trace = synthetic_trace(30, 1)
        left, right = MintermStream(atoms), MintermStream(atoms)
        for win in self._windows(trace, synthetic_power(trace), 0):
            left.fit_window(win)
            right.fit_window(win)
        with pytest.raises(Exception):
            left.merge(right)


class TestStreamingMinerEquivalence:
    @pytest.mark.parametrize("window", [1, 17, 64, 10_000])
    def test_matches_batch_mine_many(self, window):
        config = MinerConfig()
        traces = [synthetic_trace(257, 1), synthetic_trace(123, 2)]
        batch = AssertionMiner(config).mine_many(traces)

        sources = [
            MemoryWindowSource(t, synthetic_power(t), i)
            for i, t in enumerate(traces)
        ]
        report = StreamingMiner(config, window=window).mine_sources(sources)
        stream = report.mining

        assert [str(a) for a in stream.atoms] == [
            str(a) for a in batch.atoms
        ]
        assert [str(p) for p in stream.propositions] == [
            str(p) for p in batch.propositions
        ]
        for got, want in zip(stream.traces, batch.traces):
            assert got.trace_id == want.trace_id
            assert np.array_equal(got.indices, want.indices)
        for got, want in zip(stream.matrices, batch.matrices):
            assert got.shape == want.shape
            assert np.array_equal(got, want)
        assert set(stream.labeler._universe) == set(batch.labeler._universe)
        assert report.windows == sum(
            -(-len(t) // window) for t in traces
        )

    def test_rejects_incompatible_sources(self):
        t0 = synthetic_trace(20, 1)
        t1 = FunctionalTrace([bool_in("other")], {"other": [0, 1]})
        sources = [
            MemoryWindowSource(t0, synthetic_power(t0), 0),
            MemoryWindowSource(t1, PowerTrace([1.0, 2.0]), 1),
        ]
        with pytest.raises(ValueError):
            StreamingMiner(MinerConfig()).mine_sources(sources)

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            StreamingMiner(MinerConfig()).mine_sources([])
        with pytest.raises(ValueError):
            StreamingMiner(MinerConfig(), window=0)


class TestFitStream:
    def test_digest_equal_to_batch_fit(self):
        traces = [synthetic_trace(257, 1), synthetic_trace(123, 2)]
        powers = [synthetic_power(t, seed=9) for t in traces]
        variables = traces[0].variables

        reset_state_ids()
        batch = PsmFlow(FlowConfig()).fit(traces, powers)
        batch_digest = bundle_digest(bundle_bytes(batch.psms, variables))

        reset_state_ids()
        stream = PsmFlow(FlowConfig()).fit_stream(
            [
                MemoryWindowSource(t, p, i)
                for i, (t, p) in enumerate(zip(traces, powers))
            ],
            window=50,
        )
        stream_digest = bundle_digest(bundle_bytes(stream.psms, variables))
        assert stream_digest == batch_digest
        mine_report = stream.report.stage("mine")
        assert mine_report is not None
        assert mine_report.counters["windows"] == 6 + 3

    def test_digest_equal_on_benchmark_ip(self):
        from repro.power.estimator import run_power_simulation
        from repro.testbench import BENCHMARKS

        spec = BENCHMARKS["RAM"]
        ref = run_power_simulation(spec.module_class(), spec.short_ts())
        variables = ref.trace.variables

        reset_state_ids()
        batch = PsmFlow(spec.flow_config()).fit([ref.trace], [ref.power])
        batch_digest = bundle_digest(bundle_bytes(batch.psms, variables))

        reset_state_ids()
        stream = PsmFlow(spec.flow_config()).fit_stream(
            [(ref.trace, ref.power)], window=97
        )
        stream_digest = bundle_digest(bundle_bytes(stream.psms, variables))
        assert stream_digest == batch_digest

    def test_accepts_npt_paths(self, tmp_path):
        trace = synthetic_trace(150, 5)
        power = synthetic_power(trace)
        path = tmp_path / "pair.npt"
        save_training_bin(trace, power, path)

        reset_state_ids()
        batch = PsmFlow(FlowConfig()).fit([trace], [power])
        reset_state_ids()
        stream = PsmFlow(FlowConfig()).fit_stream([path], window=31)
        assert bundle_bytes(
            stream.psms, trace.variables
        ) == bundle_bytes(batch.psms, trace.variables)

    def test_final_publish_through_publisher(self, tmp_path):
        trace = synthetic_trace(120, 6)
        power = synthetic_power(trace)
        target = tmp_path / "model.json"
        publisher = BundlePublisher(target, variables=trace.variables)
        flow = PsmFlow(FlowConfig()).fit_stream(
            [(trace, power)], window=40, publisher=publisher
        )
        assert target.exists()
        assert publisher.versions[-1][1] == "final"
        bundle = load_bundle(target)
        assert bundle.digest == publisher.digest
        assert len(bundle.psms) == len(flow.psms)

    def test_progress_callback_sees_every_window(self):
        trace = synthetic_trace(100, 7)
        seen = []
        PsmFlow(FlowConfig()).fit_stream(
            [(trace, synthetic_power(trace))],
            window=30,
            progress=seen.append,
        )
        assert [s.index for s in seen] == [0, 1, 2, 3]
        assert all(isinstance(s, WindowSummary) for s in seen)
        assert seen[-1].instants == 10  # final partial window

    def test_checkpoint_resume_crosses_paths(self, tmp_path):
        """A stream run's mine checkpoint resumes under the batch runner."""
        trace = synthetic_trace(140, 8)
        power = synthetic_power(trace)

        reset_state_ids()
        stream = PsmFlow(FlowConfig()).fit_stream(
            [(trace, power)], window=33, checkpoint_dir=tmp_path
        )
        stream_bytes = bundle_bytes(stream.psms, trace.variables)

        reset_state_ids()
        resumed = PsmFlow(FlowConfig()).fit(
            [trace], [power], checkpoint_dir=tmp_path, skip_to="generate"
        )
        assert bundle_bytes(
            resumed.psms, trace.variables
        ) == stream_bytes
        mine_report = resumed.report.stage("mine")
        assert mine_report.status == "resumed"


def drifting_pair(n=400, switch=200):
    """A trace whose behaviour and power level change at ``switch``."""
    specs = [bool_in("en"), int_in("mode", 4)]
    en = np.ones(n, dtype=np.int64)
    mode = np.where(np.arange(n) < switch, 1, 6)
    trace = FunctionalTrace(specs, {"en": en, "mode": mode})
    power = np.where(np.arange(n) < switch, 1.0, 9.0) + np.tile(
        [0.0, 0.01], n // 2
    )
    return trace, PowerTrace(power)


class TestDriftDetection:
    def test_new_proposition_drift_fires(self):
        trace, power = drifting_pair()
        drift = DriftDetector(DriftPolicy(max_new_fraction=0.5))
        StreamingMiner(
            MinerConfig(), window=50, drift=drift
        ).mine_sources([MemoryWindowSource(trace, power, 0)])
        assert drift.events
        event = drift.events[0]
        assert event.reason == "new_propositions"
        assert event.start == 200  # the behaviour switch window

    def test_mean_shift_drift_fires(self):
        trace, power = drifting_pair()
        drift = DriftDetector(DriftPolicy(mean_shift_sigmas=3.0))
        StreamingMiner(
            MinerConfig(), window=50, drift=drift
        ).mine_sources([MemoryWindowSource(trace, power, 0)])
        assert any(e.reason == "mean_shift" for e in drift.events)

    def test_warmup_suppresses_initial_windows(self):
        trace, power = drifting_pair()
        drift = DriftDetector(
            DriftPolicy(max_new_fraction=0.0001, warmup_windows=100)
        )
        StreamingMiner(
            MinerConfig(), window=50, drift=drift
        ).mine_sources([MemoryWindowSource(trace, power, 0)])
        assert drift.events == []

    def test_disabled_policy_never_fires(self):
        trace, power = drifting_pair()
        drift = DriftDetector(DriftPolicy())
        StreamingMiner(
            MinerConfig(), window=50, drift=drift
        ).mine_sources([MemoryWindowSource(trace, power, 0)])
        assert drift.events == []

    def test_drift_refresh_publishes_versions(self, tmp_path):
        """Mid-stream refresh + final publish: versioned, all loadable."""
        trace, power = drifting_pair()
        target = tmp_path / "model.json"
        publisher = BundlePublisher(target, variables=trace.variables)
        drift = DriftDetector(DriftPolicy(max_new_fraction=0.5))

        digests_seen = []
        original_publish = publisher.publish

        def tracking_publish(psms, reason="refresh"):
            digest = original_publish(psms, reason)
            loaded = load_bundle(target)  # every version is complete
            assert loaded.digest == digest
            digests_seen.append(digest)
            return digest

        publisher.publish = tracking_publish
        flow = PsmFlow(FlowConfig()).fit_stream(
            [(trace, power)],
            window=50,
            drift=drift,
            publisher=publisher,
        )
        assert len(publisher.versions) >= 2
        assert publisher.versions[0][1] == "drift"
        assert publisher.versions[-1][1] == "final"
        assert len(set(digests_seen)) >= 2  # the model actually changed
        mine_report = flow.report.stage("mine")
        assert mine_report.counters["drift_events"] >= 1
        assert mine_report.counters["refreshes"] >= 1


class TestStreamingStages:
    def test_build_streaming_stages_swaps_mining(self):
        stages = build_streaming_stages(
            ("mine", "generate", "simplify", "join", "refine", "hmm"),
            window=64,
        )
        assert isinstance(stages[0], StreamMiningStage)
        assert stages[0].window == 64
        assert [s.name for s in stages] == [
            "mine", "generate", "simplify", "join", "refine", "hmm",
        ]

    def test_unknown_stage_rejected(self):
        with pytest.raises(Exception):
            build_streaming_stages(("mine", "nope"))

    def test_window_validated(self):
        with pytest.raises(Exception):
            StreamMiningStage(window=0)


class TestPublisher:
    def test_atomic_replace_keeps_single_file(self, tmp_path):
        trace = synthetic_trace(60, 9)
        power = synthetic_power(trace)
        reset_state_ids()
        flow = PsmFlow(FlowConfig()).fit([trace], [power])
        target = tmp_path / "model.json"
        publisher = BundlePublisher(target, variables=trace.variables)
        first = publisher.publish(flow.psms)
        second = publisher.publish(flow.psms)
        assert first == second  # same model, same bytes, same digest
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]
        assert load_bundle(target).digest == first
