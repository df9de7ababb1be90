"""Golden PSM sets of the fitting flow, and the raw set's immutability.

The digests pin, per IP, the sha256 of ``psms_to_json`` (``sort_keys``)
for the raw chain set and the final set of a ``fit`` and a
``fit_stream`` over the short test suite, and of a small same-seed
refine run.  They were computed with the flow that deep-copied every raw
chain into the working set and ran ``np.mean``/``np.std`` per interval,
so sharing the raw set, adopting trace slices unchecked and the one-pass
interval attributes must all leave every exported byte unchanged.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core.export import psms_to_json
from repro.core.pipeline import PsmFlow
from repro.core.psm import RegressionPower, reset_state_ids
from repro.power.estimator import run_power_simulation
from repro.refine.driver import RefineConfig, refine_benchmark
from repro.testbench import BENCHMARKS
from repro.traces.power import PowerTrace

#: ``ip -> (raw set digest, final set digest)`` of the short-suite fit;
#: ``fit`` and ``fit_stream`` (window 97) produce the same sets.
FIT_GOLDEN = {
    "AES": (
        "f3e1c46021f932765fe7053f622b5ce114a2006abfe335243f151ba91ad3b66a",
        "e74b315f14750448bae12790d36b9a4dd9bb71bd1760ab118f6b2e1173f4ab95",
    ),
    "Camellia": (
        "5c18d12e0375bb32a2249ca117eb29fcc090c3d0bcdac988e5cba0ee5020b305",
        "d6b676077fb0512168fb7f811e3bb4b204387c39bb5ad71398916029c0fa3d18",
    ),
    "MultSum": (
        "a73236fcc65954559cd468847159244023bb7dd824141355fde4366938ef0e9a",
        "d0c89ec8a051a26f069d123d245f802fe114130df188f50cf3cac51f3b2df4c9",
    ),
    "RAM": (
        "83180f0534c84de8e314296eb724c4b6b34edd0b8feb9f3a6fa9e4b4c3e7b5da",
        "5c17ff029c3c19aaec017202c87b6d342f4a90e88e13f10c419ad46624406fe6",
    ),
}

#: The same digests after one refine iteration (``REFINE_CONFIG``).
REFINE_GOLDEN = {
    "MultSum": (
        "cede041671e91615349adb0878f98a646e0b612655d338a8413c79b6cff337f2",
        "43bd380d2ffefda432887e51422531211af3fa729869565e40812d7625687375",
    ),
    "RAM": (
        "83180f0534c84de8e314296eb724c4b6b34edd0b8feb9f3a6fa9e4b4c3e7b5da",
        "5c17ff029c3c19aaec017202c87b6d342f4a90e88e13f10c419ad46624406fe6",
    ),
}

REFINE_CONFIG = dict(
    iterations=1,
    seed=7,
    eval_cycles=400,
    oracle_window=128,
    worst_windows=2,
    max_counterexamples=4,
)


def digest(psms) -> str:
    payload = json.dumps(psms_to_json(psms), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def references():
    """The short-suite reference simulation of every IP."""
    return {
        name: run_power_simulation(spec.module_class(), spec.short_ts())
        for name, spec in BENCHMARKS.items()
    }


def fitted(ref, name, mode, stages=None):
    reset_state_ids()
    config = BENCHMARKS[name].flow_config()
    if stages is not None:
        config.stages = stages
    flow = PsmFlow(config)
    if mode == "fit":
        return flow.fit([ref.trace], [ref.power])
    return flow.fit_stream([(ref.trace, ref.power)], window=97)


@pytest.mark.parametrize("mode", ["fit", "fit_stream"])
@pytest.mark.parametrize("name", sorted(FIT_GOLDEN))
def test_fit_digests(references, name, mode):
    flow = fitted(references[name], name, mode)
    assert (digest(flow.raw_psms), digest(flow.psms)) == FIT_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(REFINE_GOLDEN))
def test_refine_digests(name):
    result = refine_benchmark(name, RefineConfig(**REFINE_CONFIG))
    flow = result.flow
    assert (digest(flow.raw_psms), digest(flow.psms)) == REFINE_GOLDEN[name]


@pytest.mark.parametrize("mode", ["fit", "fit_stream"])
@pytest.mark.parametrize("stages", [("refine",), None])
def test_raw_set_survives_regression(references, stages, mode):
    """RAM's data-dependent states get regression models; the raw
    chains that share their states must not see any of it."""
    flow = fitted(references["RAM"], "RAM", mode, stages=stages)
    assert flow.report.n_refined_states > 0
    assert any(
        isinstance(s.power_model, RegressionPower)
        for psm in flow.psms
        for s in psm.states
    )
    raw_sids = {s.sid for psm in flow.raw_psms for s in psm.states}
    assert not any(
        isinstance(s.power_model, RegressionPower)
        for psm in flow.raw_psms
        for s in psm.states
    )
    assert digest(flow.raw_psms) == FIT_GOLDEN["RAM"][0]
    if stages == ("refine",):
        # no simplify/join: the working set is the raw chains, re-modelled
        assert {s.sid for psm in flow.psms for s in psm.states} == raw_sids
        assert digest(flow.psms) != FIT_GOLDEN["RAM"][0]
    else:
        assert digest(flow.psms) == FIT_GOLDEN["RAM"][1]


@pytest.mark.parametrize("scale", [1e-3, 1e-1, 1.0, 1e1, 1e3])
def test_interval_attributes_match_numpy(scale):
    rng = np.random.default_rng(int(scale * 1000) + 17)
    values = rng.random(4000) * scale
    trace = PowerTrace(values)
    for _ in range(2000):
        start = int(rng.integers(0, len(values)))
        length = int(rng.integers(1, 700))
        stop = min(start + length - 1, len(values) - 1)
        mu, sigma, n = trace.attributes(start, stop)
        segment = values[start : stop + 1]
        assert n == len(segment)
        assert mu == float(np.mean(segment))
        assert sigma == float(np.std(segment))
