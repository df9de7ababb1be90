"""Tests for the data-dependent regression refinement (paper Sec. IV)."""

import numpy as np
import pytest

from repro.core.attributes import Interval, PowerAttributes
from repro.core.propositions import Proposition, VarEqualsConst
from repro.core.psm import PSM, ConstantPower, PowerState, RegressionPower
from repro.core.regression import (
    RefinePolicy,
    RegressionSample,
    assertion_body,
    fit_regression,
    refine_data_dependent,
)
from repro.core.temporal import ChoiceAssertion, SequenceAssertion, UntilAssertion
from repro.traces.functional import FunctionalTrace
from repro.traces.power import PowerTrace
from repro.traces.variables import int_in


def props(n):
    return [
        Proposition(f"p_{i}", [VarEqualsConst("x", i)]) for i in range(n)
    ]


def linear_world(n=64, slope=0.01, intercept=0.1, noise=0.0, seed=0):
    """A trace whose power is linear in the input Hamming distance."""
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, n).tolist()
    trace = FunctionalTrace([int_in("d", 8)], {"d": data})
    hd = trace.hamming_distances()
    power = intercept + slope * hd
    if noise:
        power = power + rng.normal(0, noise, n)
    return trace, PowerTrace(np.clip(power, 0, None))


def state_over(trace_id, start, stop, power, assertion=None):
    p = props(2)
    assertion = assertion or UntilAssertion(p[0], p[1])
    return PowerState(
        assertion=assertion,
        attributes=PowerAttributes.from_power_trace(power, start, stop),
        intervals=[Interval(trace_id, start, stop)],
    )


class TestFitRegression:
    def test_exact_line_recovered(self):
        x = np.array([0.0, 1, 2, 3, 4])
        y = 0.5 + 2.0 * x
        model = fit_regression(RegressionSample(x, y))
        assert model.slope == pytest.approx(2.0)
        assert model.intercept == pytest.approx(0.5)
        assert model.correlation == pytest.approx(1.0)

    def test_degenerate_sample_rejected(self):
        with pytest.raises(ValueError):
            fit_regression(RegressionSample(np.ones(5), np.arange(5.0)))

    def test_estimate(self):
        model = RegressionPower(slope=2.0, intercept=1.0, correlation=0.9)
        assert model.estimate(3) == pytest.approx(7.0)


class TestRefinePolicy:
    def test_candidate_by_cv(self):
        policy = RefinePolicy(cv_threshold=0.2, min_samples=3)
        p = props(2)
        assertion = UntilAssertion(p[0], p[1])
        low = PowerState(
            assertion=assertion, attributes=PowerAttributes(1.0, 0.1, 10)
        )
        high = PowerState(
            assertion=assertion, attributes=PowerAttributes(1.0, 0.5, 10)
        )
        assert not policy.is_candidate(low)
        assert policy.is_candidate(high)

    def test_small_n_never_candidate(self):
        policy = RefinePolicy(min_samples=8)
        p = props(2)
        state = PowerState(
            assertion=UntilAssertion(p[0], p[1]),
            attributes=PowerAttributes(1.0, 5.0, 4),
        )
        assert not policy.is_candidate(state)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cv_threshold": -0.1},
            {"corr_threshold": 0.0},
            {"corr_threshold": 1.5},
            {"min_samples": 2},
        ],
    )
    def test_invalid_policy(self, kwargs):
        with pytest.raises(ValueError):
            RefinePolicy(**kwargs)


class TestRefineDataDependent:
    def test_linear_state_gets_regression(self):
        trace, power = linear_world(noise=0.001)
        state = state_over(0, 0, len(power) - 1, power)
        psm = PSM()
        psm.add_state(state, initial=True)
        refined = refine_data_dependent(
            [psm], {0: trace}, {0: power},
            RefinePolicy(cv_threshold=0.05, min_samples=8, pool_same_body=False),
        )
        assert refined == 1
        # the PSM now holds a re-modelled copy; the state itself is kept
        installed = psm.state(state.sid)
        assert isinstance(installed.power_model, RegressionPower)
        assert installed.power_model.slope == pytest.approx(0.01, rel=0.2)
        assert installed.attributes == state.attributes
        assert isinstance(state.power_model, ConstantPower)

    def test_uncorrelated_state_stays_constant(self):
        rng = np.random.default_rng(1)
        trace, _ = linear_world()
        power = PowerTrace(rng.uniform(1.0, 3.0, len(trace)))
        state = state_over(0, 0, len(power) - 1, power)
        psm = PSM()
        psm.add_state(state, initial=True)
        refined = refine_data_dependent(
            [psm], {0: trace}, {0: power},
            RefinePolicy(cv_threshold=0.05, pool_same_body=False),
        )
        assert refined == 0
        assert isinstance(state.power_model, ConstantPower)

    def test_negative_slope_rejected(self):
        trace, power = linear_world(slope=0.01)
        inverted = PowerTrace(power.values.max() - power.values + 0.01)
        state = state_over(0, 0, len(inverted) - 1, inverted)
        psm = PSM()
        psm.add_state(state, initial=True)
        refined = refine_data_dependent(
            [psm], {0: trace}, {0: inverted},
            RefinePolicy(cv_threshold=0.01, pool_same_body=False),
        )
        assert refined == 0

    def test_low_cv_state_not_touched(self):
        trace, _ = linear_world()
        power = PowerTrace(np.full(len(trace), 2.0))
        state = state_over(0, 0, len(power) - 1, power)
        psm = PSM()
        psm.add_state(state, initial=True)
        refined = refine_data_dependent(
            [psm], {0: trace}, {0: power},
            RefinePolicy(cv_threshold=0.05, pool_same_body=False),
        )
        assert refined == 0


class TestPooledSameBody:
    def test_same_body_alias_states_share_the_fit(self):
        """A state trained on homogeneous data gets the joint line."""
        trace, power = linear_world(n=128, noise=0.001, seed=3)
        p = props(3)
        body = UntilAssertion(p[0], p[1])
        alias = UntilAssertion(p[0], p[2])  # same body, different exit
        rich = PowerState(
            assertion=body,
            attributes=PowerAttributes.from_power_trace(power, 0, 99),
            intervals=[Interval(0, 0, 99)],
        )
        poor = PowerState(
            assertion=alias,
            attributes=PowerAttributes.from_power_trace(power, 100, 104),
            intervals=[Interval(0, 100, 104)],
        )
        psm = PSM()
        psm.add_state(rich, initial=True)
        psm.add_state(poor)
        refine_data_dependent(
            [psm], {0: trace}, {0: power},
            RefinePolicy(cv_threshold=0.05, min_samples=8, pool_same_body=True),
        )
        assert isinstance(psm.state(poor.sid).power_model, RegressionPower)
        assert [s.sid for s in psm.states] == [rich.sid, poor.sid]
        assert isinstance(poor.power_model, ConstantPower)

    def test_bodies_of_composite_assertions(self):
        p = props(4)
        seq = SequenceAssertion(
            [UntilAssertion(p[0], p[1]), UntilAssertion(p[1], p[2])]
        )
        choice = ChoiceAssertion(
            [UntilAssertion(p[0], p[1]), UntilAssertion(p[3], p[1])]
        )
        simple = UntilAssertion(p[0], p[1])
        attrs = PowerAttributes(1.0, 0.0, 2)
        assert assertion_body(PowerState(seq, attrs)) == {p[0], p[1]}
        assert assertion_body(PowerState(choice, attrs)) == {p[0], p[3]}
        assert assertion_body(PowerState(simple, attrs)) == {p[0]}
