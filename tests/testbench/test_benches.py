"""Tests for the per-IP testbench suites."""

import pytest

from repro.hdl.simulator import Simulator
from repro.testbench import (
    AES_LATENCY,
    BENCHMARKS,
    CAMELLIA_LATENCY,
    aes_long_ts,
    aes_short_ts,
    camellia_long_ts,
    camellia_short_ts,
    default_flow_config,
    multsum_long_ts,
    multsum_short_ts,
    ram_long_ts,
    ram_short_ts,
)


class TestRegistry:
    def test_four_benchmarks(self):
        assert list(BENCHMARKS) == ["RAM", "MultSum", "AES", "Camellia"]

    def test_specs_are_complete(self):
        for spec in BENCHMARKS.values():
            assert callable(spec.short_ts)
            assert callable(spec.long_ts)
            assert spec.module_class.NAME == spec.name

    def test_flow_config_factory(self):
        config = default_flow_config()
        assert config.apply_simplify and config.apply_join


@pytest.mark.parametrize("name", list(BENCHMARKS))
class TestStimulusValidity:
    def test_short_ts_inputs_valid(self, name):
        spec = BENCHMARKS[name]
        stimulus = spec.short_ts()
        result = Simulator(spec.module_class()).run(stimulus)
        assert result.cycles == len(stimulus)

    def test_long_ts_respects_cycle_budget(self, name):
        spec = BENCHMARKS[name]
        stimulus = spec.long_ts(1500)
        assert len(stimulus) == 1500
        Simulator(spec.module_class()).run(stimulus[:100])

    def test_deterministic_per_seed(self, name):
        spec = BENCHMARKS[name]
        assert spec.short_ts() == spec.short_ts()


class TestSuiteShapes:
    def test_ram_short_covers_reads_and_writes(self):
        stimulus = ram_short_ts()
        writes = sum(1 for r in stimulus if r["en"] and r["we"])
        reads = sum(1 for r in stimulus if r["en"] and not r["we"])
        idles = sum(1 for r in stimulus if not r["en"])
        assert writes > 100 and reads > 100 and idles > 10

    def test_multsum_short_has_clear_pulses(self):
        stimulus = multsum_short_ts()
        assert sum(r["clear"] for r in stimulus) > 5

    def test_cipher_short_mixes_modes(self):
        for build in (aes_short_ts, camellia_short_ts):
            stimulus = build()
            assert any(r["load_key"] for r in stimulus)
            assert any(r["start"] and r["decrypt"] for r in stimulus)
            assert any(r["start"] and not r["decrypt"] for r in stimulus)

    def test_aes_short_covers_clock_gating(self):
        assert any(not r["en"] for r in aes_short_ts())

    def test_camellia_short_lacks_clock_gating(self):
        """The coverage gap that produces the paper's Camellia WSP."""
        assert all(r["en"] for r in camellia_short_ts())

    def test_long_suites_include_gating(self):
        assert any(not r["en"] for r in aes_long_ts(4000))
        assert any(not r["en"] for r in camellia_long_ts(4000))

    def test_cipher_inputs_held_during_busy(self):
        stimulus = aes_short_ts()
        for i, row in enumerate(stimulus):
            if row["start"]:
                window = stimulus[i : i + AES_LATENCY + 1]
                assert all(r["data"] == row["data"] for r in window)

    def test_camellia_latency_constant(self):
        assert CAMELLIA_LATENCY == 20
        assert AES_LATENCY == 10


class TestGatingParameter:
    def test_gating_can_be_disabled(self):
        gated = camellia_long_ts(4000, include_gating=True)
        clean = camellia_long_ts(4000, include_gating=False)
        assert any(not r["en"] for r in gated)
        assert all(r["en"] for r in clean)

    def test_aes_gating_parameter(self):
        clean = aes_long_ts(4000, include_gating=False)
        assert all(r["en"] for r in clean)
