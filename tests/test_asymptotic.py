"""Limiting formulas against independent numerics and exact counts."""

import math

import pytest

from parkfun import asymptotic, exact

E = math.e


def bisect_te_negt(v, iters=200):
    """Independent root finder for t*e**-t = v on [0, 1]."""
    lo, hi = 0.0, 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(-mid) < v:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestTreeFunction:
    def test_endpoints(self):
        assert asymptotic.tree_function(0.0) == 0.0
        assert asymptotic.tree_function(math.exp(-1.0)) == 1.0

    def test_recovers_lambda_below_one(self):
        for lam in (0.1, 0.5, 0.9, 1.0):
            t = asymptotic.tree_function(lam * math.exp(-lam))
            assert abs(t - lam) <= 1e-10

    def test_residual_on_grid(self):
        prev = -1.0
        for i in range(1001):
            v = math.exp(-1.0) * i / 1000
            t = asymptotic.tree_function(v)
            assert abs(t * math.exp(-t) - v) <= 1e-12
            assert t > prev
            prev = t

    def test_agrees_with_bisection(self):
        for v in (0.05, 0.2, 0.3, 0.36):
            assert abs(asymptotic.tree_function(v) - bisect_te_negt(v)) < 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            asymptotic.tree_function(-0.01)
        with pytest.raises(ValueError):
            asymptotic.tree_function(0.4)


class TestTailLimits:
    def test_values(self):
        assert asymptotic._limiting_tail(1.0, 0.0) == pytest.approx(math.exp(-2), abs=1e-15)
        assert asymptotic._limiting_tail(0.5, 1.0) == 1.0
        assert asymptotic._limiting_tail(0.7, 0.7) == 1.0

    def test_continuous_at_boundary(self):
        # x just above y: exp(-2x(x-y)) -> 1
        assert asymptotic._limiting_tail(0.7 + 1e-12, 0.7) == pytest.approx(1.0, abs=1e-10)

    def test_rejects_negative_x(self):
        with pytest.raises(ValueError):
            asymptotic._limiting_tail(-0.1, 0.0)

    def test_rayleigh(self):
        assert asymptotic.rayleigh_cdf(0.0) == 0.0
        assert abs(asymptotic.rayleigh_cdf(10.0) - 1.0) <= 1e-15
        assert asymptotic.rayleigh_cdf(1.0) == pytest.approx(1 - math.exp(-2), abs=1e-15)
        for x in (0.0, 0.3, 1.7):
            assert asymptotic.rayleigh_cdf(x) == pytest.approx(
                1.0 - asymptotic._limiting_tail(x, 0.0), abs=1e-15)
        with pytest.raises(ValueError):
            asymptotic.rayleigh_cdf(-1.0)


class TestPmfApprox:
    def test_direct_value(self):
        assert asymptotic.pmf_approx(100, 100, 5) == pytest.approx(
            0.2 * math.exp(-0.5), abs=1e-15)

    def test_regime_enforced(self):
        with pytest.raises(ValueError):
            asymptotic.pmf_approx(100, 100, 0)  # m = n + k
        with pytest.raises(ValueError):
            asymptotic.pmf_approx(100, 110, 5)
        with pytest.raises(ValueError):
            asymptotic.pmf_approx(0, 0, 1)

    def test_tracks_exact_probability(self):
        # agreement at n = 100 is good but not perfect; the worst gap over
        # m in {90, 100, 110} sits at m = 90, k = 0 (about 0.067)
        count = exact.defect_count_explicit(100, 90, 2)
        p = exact.ratio_as_float(count, 100 ** 90)
        assert abs(p - asymptotic.pmf_approx(100, 90, 2)) < 0.025
        count = exact.defect_count_explicit(100, 110, 15)
        p = exact.ratio_as_float(count, 100 ** 110)
        assert abs(p - asymptotic.pmf_approx(100, 110, 15)) < 0.02


class TestDensity:
    def test_pinned_value(self):
        # multiprecision evaluation of the closed form at (1, 0, 1/2)
        assert abs(asymptotic._density(1.0, 0.0, 0.5)
                   - 0.2159638660527522078022568) <= 1e-15

    def test_positive_on_grid(self):
        for i in range(1, 50):
            assert asymptotic._density(1.0, 0.0, i / 50) >= 0.0

    @pytest.mark.parametrize("x,y", [(1.0, 0.0), (2.0, 1.0), (0.3, -0.5)])
    def test_integral_matches_closed_form(self, x, y):
        got = asymptotic.density_integral_check(x, y)
        assert abs(got - math.exp(-2 * x * (x - y))) <= 1e-6

    def test_integral_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            asymptotic.density_integral_check(0.5, 0.5)


class TestFullLot:
    def test_limit_branches(self):
        assert asymptotic.full_lot_limit(0.4) == 0.0
        assert asymptotic.full_lot_limit(1.0) == 0.0
        with pytest.raises(ValueError):
            asymptotic.full_lot_limit(0.0)

    def test_limit_against_bisection_oracle(self):
        t = bisect_te_negt(2 * math.exp(-2))
        assert asymptotic.full_lot_limit(2.0) == pytest.approx(1 - t / 2, abs=1e-12)

    def test_large_lambda_upper_bound(self):
        # T(lambda e^-lambda)/lambda <= 1/(e^(lambda-1) - lambda)
        val = asymptotic.full_lot_limit(20.0)
        assert val >= 1 - 1 / (math.exp(19) - 20)
        assert val < 1.0

    def test_series_single_term(self):
        for lam in (0.3, 1.0, 2.5):
            assert asymptotic._full_lot_series(lam, 1) == pytest.approx(
                math.exp(-lam), abs=1e-15)

    def test_series_converges_to_tree_function(self):
        # at lambda = 0.5 the 60-term sum is still ~7e-8 away: convergence
        # is geometric with ratio lambda*e^(1-lambda), not instantaneous
        assert abs(asymptotic._full_lot_series(0.5, 60) - 1.0) <= 1e-6

    def test_series_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            asymptotic._full_lot_series(-1.0, 10)
        with pytest.raises(ValueError):
            asymptotic._full_lot_series(1.0, 0)


class TestPhiAndRatios:
    def test_phi_values(self):
        assert asymptotic._phi(0, 0) == 0.0
        assert asymptotic._phi(1, 1) == 0.0
        assert asymptotic._phi(0, 1) == pytest.approx(-E, abs=1e-12)
        assert asymptotic._phi(0, 2) == pytest.approx(-2 * (E ** 2 - E), abs=1e-12)

    def test_phi_against_exact_counts(self):
        # n * (S(n,n,2)/n^n - 1) at n = 10^4 should be near phi(0, 2)
        n = 10 ** 4
        deficit = n ** n - exact.tail_sum_alternating(n, n, 2)
        val = -n * exact.ratio_as_float(deficit, n ** n)
        assert abs(val - asymptotic._phi(0, 2)) < 0.01

    def test_ratio_limits(self):
        # (0, 1) and (0, 2) are the check ratio-limit-values; (0, 0) is
        # held here to 1e-15, tighter than that check's 1e-12
        assert asymptotic.defect_ratio_limit(0, 0) == pytest.approx(1.0, abs=1e-15)
        assert asymptotic.defect_ratio_limit(-1, 1) > 0.0

    def test_ratio_limit_rejects_positive_ell(self):
        with pytest.raises(ValueError):
            asymptotic.defect_ratio_limit(1, 1)
