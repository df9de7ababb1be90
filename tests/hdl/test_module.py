"""Tests for the Module base class."""

import pytest

from repro.hdl.module import Module
from repro.hdl.simulator import Simulator
from repro.traces.variables import bool_in, int_in, int_out


class Counter(Module):
    """8-bit counter used as a test DUT."""

    NAME = "counter"
    INPUTS = (bool_in("en"), bool_in("clr"), int_in("step", 4))
    OUTPUTS = (int_out("count", 8),)
    COMPONENT_CAPS = {"core": 1.0, "glue": 0.5}

    def __init__(self):
        super().__init__()
        self._count = self.reg("count_reg", 8, component="core")

    def step(self, inputs):
        if inputs["clr"]:
            self._count.load(0)
        elif inputs["en"]:
            self._count.load(self._count.value + inputs["step"])
            self.add_activity("glue", 1.5)
        return {"count": self._count.value}


class TestStructure:
    def test_duplicate_register_rejected(self):
        module = Counter()
        with pytest.raises(ValueError):
            module.reg("count_reg", 4)

    def test_state_bits(self):
        assert Counter().state_bits() == 8

    def test_interface_bits(self):
        assert Counter.input_bits() == 6
        assert Counter.output_bits() == 8

    def test_trace_specs_order(self):
        names = [v.name for v in Counter.trace_specs()]
        assert names == ["en", "clr", "step", "count"]

    def test_components_listed(self):
        module = Counter()
        module.step({"en": 1, "clr": 0, "step": 1})
        assert "core" in module.components


class TestBehaviour:
    def test_step_counts(self):
        module = Counter()
        assert module.step({"en": 1, "clr": 0, "step": 3})["count"] == 3
        assert module.step({"en": 1, "clr": 0, "step": 3})["count"] == 6

    def test_clear(self):
        module = Counter()
        module.step({"en": 1, "clr": 0, "step": 5})
        assert module.step({"en": 0, "clr": 1, "step": 0})["count"] == 0

    def test_reset_restores_registers(self):
        module = Counter()
        module.step({"en": 1, "clr": 0, "step": 5})
        module.reset()
        assert module.step({"en": 0, "clr": 0, "step": 0})["count"] == 0


class TestActivity:
    def test_register_activity_collected(self):
        module = Counter()
        module.step({"en": 1, "clr": 0, "step": 3})  # 0 -> 3: 2 toggles
        activity = module.collect_activity()
        assert activity["core"] == 2
        assert activity["glue"] == 1.5

    def test_collect_clears_accumulators(self):
        module = Counter()
        module.step({"en": 1, "clr": 0, "step": 3})
        module.collect_activity()
        assert module.collect_activity() == {}

    def test_idle_cycle_reports_nothing(self):
        module = Counter()
        module.step({"en": 0, "clr": 0, "step": 0})
        assert module.collect_activity() == {}

    def test_domain_sums_its_registers(self):
        module = Counter()
        extra = module.reg("shadow", 8, component="core")
        other = module.reg("flag", 1, component="glue")
        module.step({"en": 1, "clr": 0, "step": 3})  # count_reg: 2 toggles
        extra.load(0xFF)  # 8 toggles, same domain
        other.load(1)
        activity = module.collect_activity()
        assert activity == {"core": 10.0, "glue": 2.5}
        extra.load(0)
        module.reset()
        assert module.collect_activity() == {}

    def test_add_activity_accumulates(self):
        module = Counter()
        module.add_activity("glue", 1.0)
        module.add_activity("glue", 2.0)
        assert module.collect_activity()["glue"] == 3.0


class TestCheckInputs:
    """Stimulus validation, which :meth:`Simulator.run` does up front."""

    def test_valid(self):
        trace = Simulator(Counter()).run(
            [{"en": 1, "clr": 0, "step": 15, "unused": 99}]
        ).trace
        assert trace.at(0) == {"en": 1, "clr": 0, "step": 15, "count": 15}

    def test_missing_input(self):
        with pytest.raises(KeyError):
            Simulator(Counter()).run([{"en": 1, "clr": 0}])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            Simulator(Counter()).run([{"en": 1, "clr": 0, "step": 16}])

    def test_abstract_step(self):
        with pytest.raises(NotImplementedError):
            Module().step({})
