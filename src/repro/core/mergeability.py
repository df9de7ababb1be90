"""Quantifying the mergeability of power states (paper Sec. IV-A).

Two power states are *mergeable* when their power attributes are
statistically indistinguishable.  Three cases apply, keyed on the sample
counts ``n`` of the two states:

* **Case 1** — both states come from *next* patterns (``n_i = n_j = 1``):
  mergeable when ``|mu_i - mu_j| < eps`` for a designer-fixed tolerance.
* **Case 2** — both states come from *until* patterns (``n_i, n_j > 1``):
  Welch's t-test on the two samples; mergeable when the difference of the
  means is not significant at level ``alpha``.
* **Case 3** — an *until* state against a *next* state (``n_i > 1``,
  ``n_j = 1``): a single-observation t-test (prediction-interval form)
  checking whether the lone sample is compatible with the larger sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import special

from .attributes import PowerAttributes
from .psm import PowerState


def _sample_variance(attrs: PowerAttributes) -> float:
    """Unbiased sample variance from the stored population sigma."""
    if attrs.n < 2:
        raise ValueError("sample variance needs n >= 2")
    return attrs.variance * attrs.n / (attrs.n - 1)


def _student_t_two_tailed(t: float, df: float) -> float:
    """Two-tailed p-value of Student's t via the incomplete beta function.

    ``P(|T| >= t) = I_{df/(df+t^2)}(df/2, 1/2)`` — much cheaper than
    instantiating a scipy distribution, which matters because the merge
    procedures run the test thousands of times on long training traces.
    """
    if df <= 0:
        return 1.0
    x = df / (df + t * t)
    return float(special.betainc(df / 2.0, 0.5, x))


def variance_f_test(a: PowerAttributes, b: PowerAttributes) -> float:
    """Two-tailed p-value of the F-test for equal variances.

    Used as an additional merge gate: Welch's test compares means only,
    so a state with a huge standard deviation (a bimodal, data-dependent
    behaviour) would otherwise "absorb" states with very different power
    simply because the test loses power.  Requiring compatible variances
    operationalises the paper's condition that mergeable states have
    *low* (i.e. mutually consistent) standard deviations.
    """
    if a.n < 2 or b.n < 2:
        raise ValueError("the F-test needs n >= 2 on both sides")
    var_a = _sample_variance(a)
    var_b = _sample_variance(b)
    if var_a <= 0.0 and var_b <= 0.0:
        return 1.0
    if var_a <= 0.0 or var_b <= 0.0:
        return 0.0
    # Order so f >= 1; survival of F(d1, d2) via the incomplete beta.
    if var_a >= var_b:
        f, d1, d2 = var_a / var_b, a.n - 1, b.n - 1
    else:
        f, d1, d2 = var_b / var_a, b.n - 1, a.n - 1
    sf = float(special.betainc(d2 / 2.0, d1 / 2.0, d2 / (d2 + d1 * f)))
    return min(1.0, 2.0 * sf)


def welch_t_test(a: PowerAttributes, b: PowerAttributes) -> float:
    """Two-tailed p-value of Welch's t-test on two power-attribute sets.

    Returns 1.0 when the samples cannot be told apart at all (equal means
    with zero variance) and 0.0 for zero-variance samples with different
    means.
    """
    if a.n < 2 or b.n < 2:
        raise ValueError("Welch's test needs n >= 2 on both sides")
    var_a = _sample_variance(a)
    var_b = _sample_variance(b)
    se2 = var_a / a.n + var_b / b.n
    if se2 <= 0.0:
        return 1.0 if math.isclose(a.mu, b.mu, rel_tol=1e-12) else 0.0
    t = (a.mu - b.mu) / math.sqrt(se2)
    df_num = se2 ** 2
    df_den = (var_a / a.n) ** 2 / (a.n - 1) + (var_b / b.n) ** 2 / (b.n - 1)
    df = df_num / df_den if df_den > 0 else float(a.n + b.n - 2)
    return _student_t_two_tailed(abs(t), df)


def single_observation_t_test(value: float, sample: PowerAttributes) -> float:
    """Two-tailed p-value for one observation against a sample.

    Uses the prediction-interval statistic
    ``t = (x - mu) / (s * sqrt(1 + 1/n))`` with ``n - 1`` degrees of
    freedom — the Case 3 formulation for merging a next-based state into
    an until-based state.
    """
    if sample.n < 2:
        raise ValueError("the reference sample needs n >= 2")
    s = math.sqrt(_sample_variance(sample))
    if s <= 0.0:
        return 1.0 if math.isclose(value, sample.mu, rel_tol=1e-12) else 0.0
    t = (value - sample.mu) / (s * math.sqrt(1.0 + 1.0 / sample.n))
    return _student_t_two_tailed(abs(t), sample.n - 1)


@dataclass(frozen=True)
class MergePolicy:
    """Designer-fixed knobs of the merge decision.

    Attributes
    ----------
    epsilon:
        Absolute tolerance for Case 1 (``|mu_i - mu_j| < eps``).
    epsilon_rel:
        Relative tolerance for Case 1, as a fraction of the larger mean;
        the effective Case-1 threshold is the larger of the two.
    alpha:
        Significance level for the Case 2 / Case 3 t-tests; states merge
        when the test does *not* reject equality (p > alpha).
    max_cv:
        "Low sigma" requirement: an until-based state takes part in a
        merge only when its coefficient of variation ``sigma / mu`` is at
        most this value.  Protects high-variance (data-dependent) states
        from being merged merely because the t-test lacks power; set to
        ``None`` to disable.
    variance_alpha:
        Significance level of the equal-variance F-test applied before a
        Case 2 mean comparison; states whose variances are incompatible
        at this level never merge (the quantitative form of the paper's
        "low standard deviations" merge condition).  ``None`` disables
        the gate.
    """

    epsilon: float = 0.0
    epsilon_rel: float = 0.05
    alpha: float = 0.05
    max_cv: Optional[float] = 0.35
    variance_alpha: Optional[float] = 0.01

    def __post_init__(self) -> None:
        if self.epsilon < 0 or self.epsilon_rel < 0:
            raise ValueError("tolerances must be non-negative")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        if self.max_cv is not None and self.max_cv <= 0:
            raise ValueError("max_cv must be positive when set")
        if self.variance_alpha is not None and not 0 < self.variance_alpha < 1:
            raise ValueError("variance_alpha must be in (0, 1) when set")

    # ------------------------------------------------------------------
    def case1_threshold(self, a: PowerAttributes, b: PowerAttributes) -> float:
        """Effective absolute tolerance for a Case-1 comparison."""
        return max(self.epsilon, self.epsilon_rel * max(abs(a.mu), abs(b.mu)))

    def _low_sigma(self, attrs: PowerAttributes) -> bool:
        if self.max_cv is None or attrs.n == 1:
            return True
        if attrs.mu == 0.0:
            return attrs.sigma == 0.0
        return attrs.sigma / abs(attrs.mu) <= self.max_cv

    def mergeable_attributes(
        self, a: PowerAttributes, b: PowerAttributes
    ) -> bool:
        """Apply the correct case to two power-attribute triplets."""
        if not (self._low_sigma(a) and self._low_sigma(b)):
            return False
        if a.n == 1 and b.n == 1:
            return abs(a.mu - b.mu) < self.case1_threshold(a, b)
        if a.n > 1 and b.n > 1:
            if (
                self.variance_alpha is not None
                and variance_f_test(a, b) <= self.variance_alpha
            ):
                return False
            return welch_t_test(a, b) > self.alpha
        if a.n > 1:
            return single_observation_t_test(b.mu, a) > self.alpha
        return single_observation_t_test(a.mu, b) > self.alpha

    def mergeable(self, s1: PowerState, s2: PowerState) -> bool:
        """Mergeability of two power states.

        Data-dependent states (regression output functions) are never
        merged: their power is a function, not a constant, so the
        constant-based tests do not apply.
        """
        if s1.is_data_dependent or s2.is_data_dependent:
            return False
        return self.mergeable_attributes(s1.attributes, s2.attributes)

    # ------------------------------------------------------------------
    def mergeability_lookup(
        self, attrs: Sequence[PowerAttributes]
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Deduplicated ``(mu, sigma, n)`` triplets of a state set.

        Returns ``(unique, inverse)`` where ``unique`` is a ``(U, 3)``
        float array of the distinct triplets in first-seen order and
        ``inverse[k]`` maps state ``k`` to its row.  On long tiled
        traces thousands of states collapse onto a few distinct
        triplets, so :meth:`_decide_lanes` only ever runs over ``U``
        candidates.
        """
        # First-seen dedup via a dict: cheaper than np.unique(axis=0)
        # (no row sort) at every scale this is called at.
        index_of: dict = {}
        inverse = np.zeros(len(attrs), dtype=np.intp)
        rows = []
        for k, a in enumerate(attrs):
            key = (a.mu, a.sigma, a.n)
            row = index_of.get(key)
            if row is None:
                row = index_of[key] = len(rows)
                rows.append(key)
            inverse[k] = row
        unique = np.array(rows, dtype=np.float64).reshape(-1, 3)
        return unique, inverse

    def _decide_lanes(
        self, unique: np.ndarray, ia: np.ndarray, ib: np.ndarray
    ) -> np.ndarray:
        """Batched :meth:`mergeable_attributes` over explicit lanes.

        Lane ``k`` decides ``mergeable_attributes(unique[ia[k]],
        unique[ib[k]])`` in that operand order — which matters for the
        F-test of two equal positive variances with different ``n``,
        whose p-value depends on which side is ``a``.  One-shot form of
        :meth:`_lane_columns` followed by :meth:`_decide_pairs`.
        """
        return self._decide_pairs(self._lane_columns(unique), ia, ib)

    def _lane_columns(self, unique: np.ndarray) -> "tuple[np.ndarray, ...]":
        """Per-row inputs of the lane kernel: ``(mu, n, var, single, low)``.

        Depends only on the deduplicated triplets, so a join computes it
        once and reuses it for every leader row.
        """
        mu = unique[:, 0]
        sigma = unique[:, 1]
        nf = unique[:, 2]
        single = nf == 1.0

        # "Low sigma" requirement, elementwise per unique row.
        if self.max_cv is None:
            low = np.ones(len(unique), dtype=bool)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = sigma / np.abs(mu)
            low = np.where(
                single,
                True,
                np.where(mu == 0.0, sigma == 0.0, ratio <= self.max_cv),
            )

        # Unbiased sample variance, same op order as _sample_variance
        # (population variance via ** 2, times n, divided by n - 1).
        with np.errstate(divide="ignore", invalid="ignore"):
            var = np.float_power(sigma, 2.0) * nf / (nf - 1.0)
        return mu, nf, var, single, low

    def _decide_pairs(
        self,
        columns: "tuple[np.ndarray, ...]",
        ia: np.ndarray,
        ib: np.ndarray,
    ) -> np.ndarray:
        """Decide lanes ``(ia[k], ib[k])`` from :meth:`_lane_columns` rows.

        The Case 1/2/3 statistics are evaluated as numpy vectors with the
        *same operation order* as the scalar functions above (including
        ``x ** 2`` via ``np.float_power``, which matches Python's ``**``
        bit for bit where ``np.square`` does not), so every lane is
        decided on bit-identical intermediate values.  Each case's
        statistics run only on the compressed index set of lanes that
        take that case, so ``betainc`` sees just the lanes that need it.
        """
        mu, nf, var, single, low = columns
        mu_a, mu_b = mu[ia], mu[ib]
        n_a, n_b = nf[ia], nf[ib]
        var_a, var_b = var[ia], var[ib]
        single_a, single_b = single[ia], single[ib]
        diff = mu_a - mu_b
        merged = np.zeros(len(ia), dtype=bool)

        # Case 1: eps gap between two next-based (n == 1) states.
        c1 = np.nonzero(single_a & single_b)[0]
        if len(c1):
            abs_a, abs_b = np.abs(mu_a[c1]), np.abs(mu_b[c1])
            threshold = np.maximum(
                self.epsilon, self.epsilon_rel * np.maximum(abs_a, abs_b)
            )
            merged[c1] = np.abs(diff[c1]) < threshold

        # Case 2: both until-based — F-test gate, then Welch's t-test.
        bu = np.nonzero(~single_a & ~single_b)[0]
        if len(bu):
            va, vb = var_a[bu], var_b[bu]
            na, nb = n_a[bu], n_b[bu]
            d_bu = diff[bu]
            close_bu = np.abs(d_bu) <= 1e-12 * np.maximum(
                np.abs(mu_a[bu]), np.abs(mu_b[bu])
            )

            if self.variance_alpha is not None:
                # Same op order as variance_f_test; betainc only on the
                # lanes where both variances are positive.
                p_f = np.where((va <= 0.0) & (vb <= 0.0), 1.0, 0.0)
                gf = np.nonzero((va > 0.0) & (vb > 0.0))[0]
                if len(gf):
                    vaf, vbf = va[gf], vb[gf]
                    a_larger = vaf >= vbf
                    f = np.where(a_larger, vaf / vbf, vbf / vaf)
                    d1 = np.where(a_larger, na[gf], nb[gf]) - 1.0
                    d2 = np.where(a_larger, nb[gf], na[gf]) - 1.0
                    sf = special.betainc(
                        d2 / 2.0, d1 / 2.0, d2 / (d2 + d1 * f)
                    )
                    p_f[gf] = np.minimum(1.0, 2.0 * sf)
                variance_ok = p_f > self.variance_alpha
            else:
                variance_ok = np.ones(len(bu), dtype=bool)

            # Welch's t-test, same op order as welch_t_test; betainc only
            # where the standard error is positive (else the zero-variance
            # fallback compares the means directly).
            se2 = va / na + vb / nb
            p_welch = np.where(close_bu, 1.0, 0.0)
            gw = np.nonzero(se2 > 0.0)[0]
            if len(gw):
                se2g = se2[gw]
                vag, vbg = va[gw], vb[gw]
                nag, nbg = na[gw], nb[gw]
                t = d_bu[gw] / np.sqrt(se2g)
                df_num = np.float_power(se2g, 2.0)
                with np.errstate(divide="ignore", invalid="ignore"):
                    df_den = np.float_power(vag / nag, 2.0) / (
                        nag - 1.0
                    ) + np.float_power(vbg / nbg, 2.0) / (nbg - 1.0)
                den_ok = df_den > 0.0
                df = np.where(
                    den_ok,
                    df_num / np.where(den_ok, df_den, 1.0),
                    nag + nbg - 2.0,
                )
                df_s = np.where(df > 0.0, df, 1.0)
                p_welch[gw] = np.where(
                    df > 0.0,
                    special.betainc(
                        df_s / 2.0, 0.5, df_s / (df_s + t * t)
                    ),
                    1.0,
                )
            merged[bu] = variance_ok & (p_welch > self.alpha)

        # Case 3: one observation (the n == 1 side's mu) against the
        # until-based sample, same op order as single_observation_t_test.
        mx = np.nonzero(single_a ^ single_b)[0]
        if len(mx):
            sample_first = ~single_a[mx]
            s_var = np.where(sample_first, var_a[mx], var_b[mx])
            s_mu = np.where(sample_first, mu_a[mx], mu_b[mx])
            s_n = np.where(sample_first, n_a[mx], n_b[mx])
            value = np.where(sample_first, mu_b[mx], mu_a[mx])
            close_mx = np.abs(diff[mx]) <= 1e-12 * np.maximum(
                np.abs(mu_a[mx]), np.abs(mu_b[mx])
            )
            p3 = np.where(close_mx, 1.0, 0.0)
            g3 = np.nonzero(s_var > 0.0)[0]
            if len(g3):
                sn = s_n[g3]
                s = np.sqrt(s_var[g3])
                scale = s * np.sqrt(1.0 + 1.0 / sn)
                t3 = (value[g3] - s_mu[g3]) / scale
                df3 = sn - 1.0
                p3[g3] = special.betainc(
                    df3 / 2.0, 0.5, df3 / (df3 + t3 * t3)
                )
            merged[mx] = p3 > self.alpha

        merged &= low[ia] & low[ib]
        return merged
