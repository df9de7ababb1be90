"""Data-dependent state refinement (paper Sec. IV, final step).

A power state with a "too high" standard deviation is likely
*data-dependent*: its consumption follows the data fed to the IP's inputs
rather than a constant.  For such states the constant output ``mu`` is
replaced by a linear function of the Hamming distance between consecutive
primary-input values, extracted by least-squares regression over the
training intervals — but only when the linear correlation between Hamming
distance and power is strong, the necessary condition the paper cites for
an accurate regression.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from ..traces.functional import FunctionalTrace
from ..traces.power import PowerTrace
from .psm import PSM, PowerState, RegressionPower


@dataclass(frozen=True)
class RefinePolicy:
    """Knobs of the data-dependent refinement.

    Attributes
    ----------
    cv_threshold:
        A state is a refinement candidate when its coefficient of
        variation ``sigma / mu`` exceeds this value ("too high" standard
        deviation).
    corr_threshold:
        Minimum absolute Pearson correlation between Hamming distances and
        power values for the regression to be installed ("strong linear
        correlation" gate).
    min_samples:
        Minimum number of training instants needed to attempt the fit.
    pool_same_body:
        When True, states whose assertions share the same *body*
        propositions (the conditions that hold while the state is
        occupied) are also regressed jointly: their pooled samples span
        the data diversity that each state alone may lack (e.g. a read
        state trained only on walking-ones data), and the joint line is
        installed on every state of the group the per-state pass left
        constant.  Aliased states then predict by data activity no matter
        which of them the HMM picks.
    """

    cv_threshold: float = 0.15
    corr_threshold: float = 0.7
    min_samples: int = 8
    pool_same_body: bool = True

    def __post_init__(self) -> None:
        if self.cv_threshold < 0:
            raise ValueError("cv_threshold must be non-negative")
        if not 0 < self.corr_threshold <= 1:
            raise ValueError("corr_threshold must be in (0, 1]")
        if self.min_samples < 3:
            raise ValueError("min_samples must be at least 3")

    def is_candidate(self, state: PowerState) -> bool:
        """True when the state's variance marks it as data-dependent."""
        if state.n < self.min_samples:
            return False
        if state.mu == 0.0:
            return state.sigma > 0.0
        return state.sigma / abs(state.mu) > self.cv_threshold


@dataclass
class RegressionSample:
    """Paired (Hamming distance, power) samples of one state."""

    distances: np.ndarray
    powers: np.ndarray


def collect_samples(
    state: PowerState,
    functional_traces: Mapping[int, FunctionalTrace],
    power_traces: Mapping[int, PowerTrace],
    hamming_cache: dict,
) -> RegressionSample:
    """Gather the regression samples over all the state's intervals.

    The predictor at instant ``t`` is the Hamming distance between the
    primary-input values at ``t-1`` and ``t`` of the originating
    functional trace.
    """
    distances = []
    powers = []
    for interval in state.intervals:
        trace = functional_traces[interval.trace_id]
        if interval.trace_id not in hamming_cache:
            hamming_cache[interval.trace_id] = trace.hamming_distances()
        hd = hamming_cache[interval.trace_id]
        power = power_traces[interval.trace_id]
        distances.append(hd[interval.start : interval.stop + 1])
        powers.append(power.segment(interval.start, interval.stop))
    return RegressionSample(
        distances=np.concatenate(distances).astype(np.float64),
        powers=np.concatenate(powers).astype(np.float64),
    )


def fit_regression(sample: RegressionSample) -> RegressionPower:
    """Least-squares line power = intercept + slope * HD, with Pearson r."""
    x, y = sample.distances, sample.powers
    if len(x) < 2 or np.std(x) == 0.0 or np.std(y) == 0.0:
        raise ValueError("degenerate sample: correlation undefined")
    r = float(np.corrcoef(x, y)[0, 1])
    slope, intercept = np.polyfit(x, y, 1)
    return RegressionPower(
        slope=float(slope), intercept=float(intercept), correlation=r
    )


def refine_state(
    state: PowerState,
    functional_traces: Mapping[int, FunctionalTrace],
    power_traces: Mapping[int, PowerTrace],
    policy: RefinePolicy,
    hamming_cache: dict,
) -> Optional[RegressionPower]:
    """The regression model for one state, or None if the gate fails."""
    sample = collect_samples(
        state, functional_traces, power_traces, hamming_cache
    )
    x = sample.distances
    if len(x) < policy.min_samples or np.std(x) == 0.0:
        return None
    if np.std(sample.powers) == 0.0:
        return None
    model = fit_regression(sample)
    if model.correlation < policy.corr_threshold or model.slope <= 0:
        # Dynamic power is monotone non-decreasing in switching activity:
        # an anti-correlated fit is an artifact of a degenerate training
        # phase and would extrapolate nonsense.
        return None
    return model


def assertion_body(state: PowerState):
    """The set of propositions holding while the state is occupied."""
    from .temporal import ChoiceAssertion, SequenceAssertion

    assertion = state.assertion
    if isinstance(assertion, ChoiceAssertion):
        alternatives = assertion.alternatives()
    else:
        alternatives = (assertion,)
    bodies = set()
    for alt in alternatives:
        parts = alt.parts if isinstance(alt, SequenceAssertion) else (alt,)
        for part in parts:
            bodies.add(part.first_proposition())
    return frozenset(bodies)


def _refine_pooled(
    psms: Sequence[PSM],
    functional_traces: Mapping[int, FunctionalTrace],
    power_traces: Mapping[int, PowerTrace],
    policy: RefinePolicy,
    hamming_cache: dict,
) -> int:
    """Joint regression over states sharing the same assertion body."""
    groups: dict = {}
    for psm in psms:
        for state in psm.states:
            groups.setdefault(assertion_body(state), []).append((psm, state))
    refined = 0
    for members in groups.values():
        unrefined = [m for m in members if not m[1].is_data_dependent]
        if len(members) < 2 or not unrefined:
            continue
        samples = [
            collect_samples(s, functional_traces, power_traces, hamming_cache)
            for _, s in members
        ]
        x = np.concatenate([s.distances for s in samples])
        y = np.concatenate([s.powers for s in samples])
        if len(x) < policy.min_samples or np.std(x) == 0.0:
            continue
        mean_y = float(np.mean(y))
        if mean_y <= 0.0 or float(np.std(y)) / mean_y <= policy.cv_threshold:
            continue  # the group is collectively constant: keep it so
        model = fit_regression(RegressionSample(x, y))
        if model.correlation < policy.corr_threshold or model.slope <= 0:
            continue
        for psm, state in unrefined:
            psm.put_state(dataclasses.replace(state, power_model=model))
            refined += 1
    return refined


def refine_data_dependent(
    psms: Sequence[PSM],
    functional_traces: Mapping[int, FunctionalTrace],
    power_traces: Mapping[int, PowerTrace],
    policy: RefinePolicy = RefinePolicy(),
) -> int:
    """Refine every candidate state of a PSM set.

    Runs the per-state pass of the paper first, then (when
    ``policy.pool_same_body``) the joint same-body pass.  Each re-modelled
    state is replaced in its PSM by a copy carrying the regression model:
    the state itself may be shared with another PSM set (the raw chains)
    and is never written.  Returns the number of states re-modelled.
    """
    refined = 0
    hamming_cache: dict = {}
    for psm in psms:
        for state in psm.states:
            if not policy.is_candidate(state):
                continue
            model = refine_state(
                state, functional_traces, power_traces, policy, hamming_cache
            )
            if model is not None:
                psm.put_state(dataclasses.replace(state, power_model=model))
                refined += 1
    if policy.pool_same_body:
        refined += _refine_pooled(
            psms, functional_traces, power_traces, policy, hamming_cache
        )
    return refined
