"""Shared fixtures for the test suite."""

from __future__ import annotations

import logging

import pytest

from repro.core.mining import AssertionMiner, MinerConfig
from repro.core.pipeline import PsmFlow
from repro.core.psm import reset_state_ids
from repro.power.estimator import run_power_simulation
from repro.testbench import BENCHMARKS
from repro.traces.functional import FunctionalTrace
from repro.traces.power import PowerTrace
from repro.traces.variables import bool_in, int_in, int_out


@pytest.fixture(autouse=True)
def _fresh_state_ids():
    """Keep state ids deterministic per test."""
    reset_state_ids()
    yield


class _ErrorRecords(logging.Handler):
    """Collects every ERROR-or-worse record from any logger or thread."""

    def __init__(self) -> None:
        super().__init__(level=logging.ERROR)
        self.records = []

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append(record)


@pytest.fixture
def no_error_logs():
    """Fail the test if anything logs at ERROR or worse while it runs.

    Catches what a passing test hides, such as an asyncio "Exception in
    callback" from a server task that died during teardown.
    """
    handler = _ErrorRecords()
    root = logging.getLogger()
    root.addHandler(handler)
    try:
        yield
    finally:
        root.removeHandler(handler)
    if handler.records:
        lines = [f"{r.name}: {r.getMessage()}" for r in handler.records]
        pytest.fail("unexpected ERROR log records:\n" + "\n".join(lines))


@pytest.fixture
def fig3_trace() -> FunctionalTrace:
    """The functional trace of the paper's Fig. 3 worked example."""
    specs = [
        bool_in("v1"),
        bool_in("v2"),
        int_in("v3", 4),
        int_out("v4", 4),
    ]
    columns = {
        "v1": [1, 1, 1, 0, 0, 0, 1, 1],
        "v2": [0, 0, 0, 1, 1, 1, 1, 1],
        "v3": [3, 3, 3, 3, 4, 2, 0, 3],
        "v4": [1, 1, 1, 3, 4, 2, 0, 1],
    }
    return FunctionalTrace(specs, columns, name="fig3")


@pytest.fixture
def fig3_power() -> PowerTrace:
    """The dynamic power trace of the paper's Fig. 3 worked example."""
    return PowerTrace(
        [3.349, 3.339, 3.353, 1.902, 1.906, 1.944, 3.350, 3.343],
        name="fig3.power",
    )


@pytest.fixture
def fig3_miner() -> AssertionMiner:
    """Miner configured to reproduce Fig. 3's propositions.

    Constant equalities are disabled so the propositions are built from
    the boolean atoms and the ``v3``/``v4`` comparisons, as in the paper.
    """
    return AssertionMiner(
        MinerConfig(
            min_avg_run=1.0,
            max_chatter_fraction=1.0,
            max_distinct_for_const=0,
        )
    )


@pytest.fixture(scope="session")
def ram_fitted():
    """A fitted RAM flow plus training/evaluation data (session-shared)."""
    spec = BENCHMARKS["RAM"]
    reference = run_power_simulation(spec.module_class(), spec.short_ts())
    flow = PsmFlow(spec.flow_config()).fit(
        [reference.trace], [reference.power]
    )
    return spec, flow, reference


@pytest.fixture(scope="session")
def aes_fitted():
    """A fitted AES flow plus training data (session-shared)."""
    spec = BENCHMARKS["AES"]
    reference = run_power_simulation(spec.module_class(), spec.short_ts())
    flow = PsmFlow(spec.flow_config()).fit(
        [reference.trace], [reference.power]
    )
    return spec, flow, reference
