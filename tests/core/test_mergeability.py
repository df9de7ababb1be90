"""Tests for the merge decision (paper Sec. IV-A)."""

import math

import numpy as np
import pytest
from scipy import stats

from repro.core.attributes import PowerAttributes
from repro.core.mergeability import (
    MergePolicy,
    single_observation_t_test,
    variance_f_test,
    welch_t_test,
)
from repro.core.propositions import Proposition, VarEqualsConst
from repro.core.psm import PowerState, RegressionPower
from repro.core.temporal import UntilAssertion


def attrs(mu, sigma, n):
    return PowerAttributes(mu=mu, sigma=sigma, n=n)


class TestWelch:
    def test_matches_scipy_on_samples(self):
        rng = np.random.default_rng(0)
        a = rng.normal(5.0, 1.0, 40)
        b = rng.normal(5.2, 1.5, 25)
        ours = welch_t_test(
            attrs(float(a.mean()), float(a.std()), len(a)),
            attrs(float(b.mean()), float(b.std()), len(b)),
        )
        _, scipy_p = stats.ttest_ind(a, b, equal_var=False)
        assert ours == pytest.approx(scipy_p, rel=1e-9)

    def test_identical_samples_merge(self):
        a = attrs(3.0, 0.5, 20)
        assert welch_t_test(a, a) == pytest.approx(1.0)

    def test_zero_variance_equal_means(self):
        assert welch_t_test(attrs(3.0, 0.0, 5), attrs(3.0, 0.0, 5)) == 1.0

    def test_zero_variance_distinct_means(self):
        assert welch_t_test(attrs(3.0, 0.0, 5), attrs(4.0, 0.0, 5)) == 0.0

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            welch_t_test(attrs(1.0, 0.0, 1), attrs(1.0, 0.1, 5))

    def test_clearly_different_means_rejected(self):
        p = welch_t_test(attrs(1.0, 0.1, 30), attrs(2.0, 0.1, 30))
        assert p < 1e-6


class TestSingleObservation:
    def test_observation_at_mean_merges(self):
        p = single_observation_t_test(5.0, attrs(5.0, 1.0, 20))
        assert p == pytest.approx(1.0)

    def test_far_observation_rejected(self):
        p = single_observation_t_test(15.0, attrs(5.0, 1.0, 20))
        assert p < 0.001

    def test_zero_variance_sample(self):
        assert single_observation_t_test(5.0, attrs(5.0, 0.0, 5)) == 1.0
        assert single_observation_t_test(6.0, attrs(5.0, 0.0, 5)) == 0.0

    def test_needs_real_sample(self):
        with pytest.raises(ValueError):
            single_observation_t_test(1.0, attrs(1.0, 0.0, 1))


class TestVarianceFTest:
    def test_matches_scipy(self):
        a = attrs(1.0, 0.2, 12)
        b = attrs(1.0, 0.35, 8)
        var_a = 0.2 ** 2 * 12 / 11
        var_b = 0.35 ** 2 * 8 / 7
        expected = min(1.0, 2 * stats.f.sf(var_b / var_a, 7, 11))
        assert variance_f_test(a, b) == pytest.approx(expected, rel=1e-9)

    def test_symmetric(self):
        a = attrs(1.0, 0.2, 12)
        b = attrs(1.0, 0.6, 9)
        assert variance_f_test(a, b) == pytest.approx(variance_f_test(b, a))

    def test_equal_variances(self):
        a = attrs(1.0, 0.3, 10)
        assert variance_f_test(a, a) == pytest.approx(1.0)

    def test_zero_vs_nonzero(self):
        assert variance_f_test(attrs(1, 0.0, 5), attrs(1, 0.5, 5)) == 0.0
        assert variance_f_test(attrs(1, 0.0, 5), attrs(1, 0.0, 5)) == 1.0


class TestMergePolicy:
    def test_case1_next_next_within_epsilon(self):
        policy = MergePolicy(epsilon=0.5, epsilon_rel=0.0)
        assert policy.mergeable_attributes(
            attrs(1.0, 0.0, 1), attrs(1.3, 0.0, 1)
        )
        assert not policy.mergeable_attributes(
            attrs(1.0, 0.0, 1), attrs(1.6, 0.0, 1)
        )

    def test_case1_relative_epsilon(self):
        policy = MergePolicy(epsilon=0.0, epsilon_rel=0.1)
        assert policy.mergeable_attributes(
            attrs(10.0, 0.0, 1), attrs(10.9, 0.0, 1)
        )
        assert not policy.mergeable_attributes(
            attrs(10.0, 0.0, 1), attrs(11.5, 0.0, 1)
        )

    def test_case2_until_until_uses_welch(self):
        policy = MergePolicy(alpha=0.05, max_cv=None, variance_alpha=None)
        same = attrs(5.0, 1.0, 30)
        near = attrs(5.05, 1.0, 30)
        far = attrs(8.0, 1.0, 30)
        assert policy.mergeable_attributes(same, near)
        assert not policy.mergeable_attributes(same, far)

    def test_case3_until_next(self):
        policy = MergePolicy(alpha=0.05, max_cv=None)
        until = attrs(5.0, 1.0, 30)
        assert policy.mergeable_attributes(until, attrs(5.3, 0.0, 1))
        assert not policy.mergeable_attributes(until, attrs(15.0, 0.0, 1))
        # symmetric dispatch
        assert policy.mergeable_attributes(attrs(5.3, 0.0, 1), until)

    def test_variance_gate_blocks_incompatible_sigmas(self):
        policy = MergePolicy(alpha=0.05, max_cv=None, variance_alpha=0.01)
        tight = attrs(5.0, 0.01, 30)
        wide = attrs(5.1, 3.0, 30)
        # Welch alone would accept (the wide sigma hides the difference)
        assert welch_t_test(tight, wide) > 0.05
        assert not policy.mergeable_attributes(tight, wide)

    def test_max_cv_guard(self):
        policy = MergePolicy(max_cv=0.2, variance_alpha=None)
        high_cv = attrs(1.0, 0.5, 10)
        assert not policy.mergeable_attributes(high_cv, high_cv)

    def test_data_dependent_states_never_merge(self):
        prop = Proposition("p", [VarEqualsConst("x", 1)])
        assertion = UntilAssertion(
            prop, Proposition("q", [], [VarEqualsConst("x", 1)])
        )
        regular = PowerState(assertion=assertion, attributes=attrs(1, 0.1, 9))
        refined = PowerState(
            assertion=assertion,
            attributes=attrs(1, 0.1, 9),
            power_model=RegressionPower(0.1, 0.5, 0.9),
        )
        policy = MergePolicy(max_cv=None)
        assert policy.mergeable(regular, regular)
        assert not policy.mergeable(regular, refined)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": -1.0},
            {"alpha": 0.0},
            {"alpha": 1.0},
            {"max_cv": 0.0},
            {"variance_alpha": 1.5},
        ],
    )
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MergePolicy(**kwargs)


def leader_row(policy, unique, leader):
    """One leader's decisions against every unique triplet."""
    count = len(unique)
    return policy._decide_lanes(
        unique, np.full(count, leader), np.arange(count)
    )


def equal_variance_rows(rng, count):
    """Triplets with equal positive sample variances but different ``n``.

    The sample variance is computed as the kernel does
    (``sigma ** 2 * n / (n - 1)``) and only exact hits are kept, so
    every pair drawn here takes the F-test's ``f == 1`` branch, whose
    p-value depends on which operand is the leader.
    """
    out = []
    while len(out) < count:
        target = float(rng.choice([0.5, 1.0, 2.0, 4.0, 0.09]))
        mu = float(rng.choice([3.0, 3.05]))
        hits = []
        for n in (2, 3, 5, 17, 30, 64):
            sigma = math.sqrt(target * (n - 1) / n)
            if sigma ** 2 * n / (n - 1) == target:
                hits.append(attrs(mu, sigma, n))
        if len({a.n for a in hits}) >= 2:
            out.extend(hits)
    return out


class TestMergeabilityMatrix:
    """Batched leader-row decisions vs the scalar oracle."""

    POLICIES = [
        MergePolicy(),
        MergePolicy(
            epsilon=0.5,
            epsilon_rel=0.0,
            alpha=0.2,
            max_cv=None,
            variance_alpha=None,
        ),
        MergePolicy(
            epsilon=0.0,
            epsilon_rel=0.1,
            alpha=0.01,
            max_cv=0.1,
            variance_alpha=0.05,
        ),
        # A strict variance gate: an f == 1 F-test between unequal
        # sample counts passes in one operand order and fails in the
        # other, so this policy pins the (leader, candidate) orientation.
        MergePolicy(alpha=0.05, max_cv=None, variance_alpha=0.9),
    ]

    def random_attrs(self, rng, count):
        out = []
        for _ in range(count):
            kind = int(rng.integers(0, 6))
            if kind == 0:
                # next-based single observations
                out.append(attrs(float(rng.normal(5, 3)), 0.0, 1))
            elif kind == 1:
                # duplicate-prone grid values exercise the dedup path
                out.append(
                    attrs(
                        float(rng.integers(0, 3)) * 0.5,
                        float(rng.integers(0, 2)) * 0.25,
                        int(rng.integers(2, 4)),
                    )
                )
            elif kind == 2:
                # zero-mean lanes hit the mu == 0 low-sigma branch
                out.append(
                    attrs(
                        0.0,
                        float(rng.choice([0.0, 0.3])),
                        int(rng.integers(2, 10)),
                    )
                )
            elif kind == 3:
                # zero variance with n > 1: F-test/Welch fallbacks
                out.append(
                    attrs(float(rng.normal(10, 5)), 0.0, int(rng.integers(2, 8)))
                )
            elif kind == 4:
                # equal positive variances with different n
                out.extend(equal_variance_rows(rng, 1))
            else:
                out.append(
                    attrs(
                        float(rng.normal(3, 1)),
                        abs(float(rng.normal(0, 1))),
                        1
                        if rng.random() < 0.4
                        else int(rng.integers(2, 30)),
                    )
                )
        return out

    def assert_rows_match_oracle(self, policy, batch):
        unique, inverse = policy.mergeability_lookup(batch)
        for leader in range(len(unique)):
            row = leader_row(policy, unique, leader)
            a = batch[int(np.flatnonzero(inverse == leader)[0])]
            for j, b in enumerate(batch):
                assert row[inverse[j]] == policy.mergeable_attributes(a, b)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(2024)
        for policy in self.POLICIES:
            for _ in range(6):
                batch = self.random_attrs(rng, int(rng.integers(2, 40)))
                self.assert_rows_match_oracle(policy, batch)

    def test_leader_rows_match_oracle_property(self):
        rng = np.random.default_rng(11)
        fixed = [
            attrs(3.0, 0.0, 1),
            attrs(3.0001, 0.0, 1),
            attrs(8.0, 0.0, 1),
            attrs(3.0, 0.1, 5),
            attrs(3.01, 0.12, 9),
            attrs(3.0, 0.0, 4),
            attrs(12.0, 0.4, 30),
            attrs(0.0, 0.0, 6),
            attrs(0.0, 0.3, 6),
            attrs(12.1, 0.38, 40),
        ]
        orientation_flips = 0
        for trial in range(8):
            batch = fixed + self.random_attrs(rng, 60)
            batch += [batch[int(k)] for k in rng.integers(0, len(batch), 8)]
            # The generator must cover every branch the kernel special-cases.
            assert any(a.n == 1 for a in batch)
            assert any(a.sigma == 0.0 and a.n > 1 for a in batch)
            assert any(a.mu == 0.0 for a in batch)
            assert len({(a.mu, a.sigma, a.n) for a in batch}) < len(batch)
            for policy in self.POLICIES:
                self.assert_rows_match_oracle(policy, batch)
            strict = self.POLICIES[-1]
            orientation_flips += sum(
                strict.mergeable_attributes(a, b)
                != strict.mergeable_attributes(b, a)
                for a in batch
                for b in batch
            )
        # Operand order really decides some lanes, so the rows above
        # pin it rather than agreeing by symmetry.
        assert orientation_flips > 0

    def test_no_floating_point_warnings(self):
        # The lane kernel must keep every division/betainc operand
        # sanitized: zero-variance, n == 1 and duplicate rows together.
        rng = np.random.default_rng(7)
        batch = self.random_attrs(rng, 64)
        with np.errstate(all="raise"):
            for policy in self.POLICIES:
                unique, _ = policy.mergeability_lookup(batch)
                for leader in range(len(unique)):
                    leader_row(policy, unique, leader)

    def test_lookup_dedups_first_seen(self):
        policy = MergePolicy()
        rng = np.random.default_rng(3)
        batch = self.random_attrs(rng, 20)
        batch += batch[:5]
        unique, inverse = policy.mergeability_lookup(batch)
        assert len(inverse) == len(batch)
        keys = [(a.mu, a.sigma, float(a.n)) for a in batch]
        assert [tuple(row) for row in unique] == list(dict.fromkeys(keys))
        for k, key in enumerate(keys):
            assert tuple(unique[inverse[k]]) == key

    def test_symmetric_with_diagonal(self):
        # Under the default gate every decision is orientation-free, so
        # the stacked leader rows form a symmetric matrix.
        policy = MergePolicy()
        rng = np.random.default_rng(5)
        unique, _ = policy.mergeability_lookup(self.random_attrs(rng, 25))
        matrix = np.array(
            [leader_row(policy, unique, k) for k in range(len(unique))]
        )
        assert np.array_equal(matrix, matrix.T)

    def test_empty_input(self):
        policy = MergePolicy()
        unique, inverse = policy.mergeability_lookup([])
        assert unique.shape == (0, 3) and len(inverse) == 0
        empty = np.zeros(0, dtype=np.intp)
        assert policy._decide_lanes(unique, empty, empty).shape == (0,)
