"""Limiting formulas against independent numerics and exact counts."""

import decimal
import math

import pytest

from parkfun import asymptotic, exact

E = math.e


def phi(ell, k):
    """phi(ell, k) as a double: summed at k + 30 digits, rounded once."""
    with decimal.localcontext() as ctx:
        ctx.prec = k + 30
        return float(asymptotic._phi_decimal(ell, k))


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
        for x in (-0.1, math.nan):
            with pytest.raises(ValueError, match="nonnegative"):
                asymptotic._limiting_tail(x, 0.0)

    def test_rayleigh(self):
        assert asymptotic.rayleigh_cdf(0.0) == 0.0
        assert abs(asymptotic.rayleigh_cdf(10.0) - 1.0) <= 1e-15
        assert asymptotic.rayleigh_cdf(1.0) == pytest.approx(1 - math.exp(-2), abs=1e-15)
        for x in (0.0, 0.3, 1.7):
            assert asymptotic.rayleigh_cdf(x) == pytest.approx(
                1.0 - asymptotic._limiting_tail(x, 0.0), abs=1e-15)
        with pytest.raises(ValueError):
            asymptotic.rayleigh_cdf(-1.0)

    def test_rayleigh_rejects_nan(self):
        with pytest.raises(ValueError, match="nonnegative"):
            asymptotic.rayleigh_cdf(math.nan)


class TestPmfApprox:
    def test_direct_value(self):
        assert asymptotic.pmf_approx(100, 100, 5) == pytest.approx(
            0.2 * math.exp(-0.5), abs=1e-15)
        # the smallest lot the formula takes: n = 1, m = 0
        assert asymptotic.pmf_approx(1, 0, 1) == pytest.approx(6 * math.exp(-4), abs=1e-15)

    def test_regime_enforced(self):
        with pytest.raises(ValueError):
            asymptotic.pmf_approx(100, 100, 0)  # m = n + k
        with pytest.raises(ValueError, match=r"m=110, n\+k=105$"):
            asymptotic.pmf_approx(100, 110, 5)
        with pytest.raises(ValueError):
            asymptotic.pmf_approx(0, 0, 1)
        for m, k in ((-1, 1), (1, -1)):
            with pytest.raises(ValueError, match="nonnegative"):
                asymptotic.pmf_approx(5, m, k)

    def test_tracks_exact_probability(self):
        # agreement at n = 100 is good but not perfect; the worst gap over
        # m in {90, 100, 110} sits at m = 90, k = 0 (about 0.067)
        count = exact.defect_count_explicit(100, 90, 2)
        p = exact.ratio_as_float(count, 100 ** 90)
        assert abs(p - asymptotic.pmf_approx(100, 90, 2)) < 0.025
        count = exact.defect_count_explicit(100, 110, 15)
        p = exact.ratio_as_float(count, 100 ** 110)
        assert abs(p - asymptotic.pmf_approx(100, 110, 15)) < 0.02


class TestFullLot:
    def test_limit_branches(self):
        assert asymptotic.full_lot_limit(0.4) == 0.0
        assert asymptotic.full_lot_limit(1.0) == 0.0
        with pytest.raises(ValueError):
            asymptotic.full_lot_limit(0.0)

    def test_limit_at_infinity_and_nan(self):
        assert asymptotic.full_lot_limit(math.inf) == 1.0
        with pytest.raises(ValueError, match="positive"):
            asymptotic.full_lot_limit(math.nan)

    def test_large_lambda_upper_bound(self):
        # T(lambda e^-lambda)/lambda <= 1/(e^(lambda-1) - lambda)
        val = asymptotic.full_lot_limit(20.0)
        assert val >= 1 - 1 / (math.exp(19) - 20)
        assert val < 1.0


class TestPhiAndRatios:
    def test_phi_values(self):
        assert phi(0, 0) == 0.0
        assert phi(1, 1) == 0.0
        assert phi(0, 1) == pytest.approx(-E, abs=1e-12)
        assert phi(0, 2) == pytest.approx(-2 * (E ** 2 - E), abs=1e-12)

    def test_phi_against_exact_counts(self):
        # n * (S(n,n,2)/n^n - 1) at n = 10^4 should be near phi(0, 2)
        n = 10 ** 4
        deficit = n ** n - exact.tail_sum_alternating(n, n, 2)
        val = -n * exact.ratio_as_float(deficit, n ** n)
        assert abs(val - phi(0, 2)) < 0.01

    def test_ratio_limits(self):
        # (0, 1) and (0, 2) are the check ratio-limit-values; (0, 0) is
        # held here to 1e-15, tighter than that check's 1e-12
        assert asymptotic.defect_ratio_limit(0, 0) == pytest.approx(1.0, abs=1e-15)
        assert asymptotic.defect_ratio_limit(-1, 1) > 0.0

    def test_phi_closed_form(self):
        # Sigma(k) = 2k + 2/3 + eps(k), with |eps / Sigma| below 1e-16 from k = 16
        for ell in (0, -10, -50):
            for k in (16, 30, 100, 200):
                assert phi(ell, k) == pytest.approx(
                    -(k - ell) * (2 * k + 2 / 3), rel=1e-14, abs=0), (ell, k)

    def test_ratio_limit_closed_form(self):
        # (phi(ell, k) - phi(ell, k + 1)) / -phi(ell, 1), with Sigma(1) = e
        for ell, k in ((0, 30), (0, 200), (-10, 30), (-50, 200)):
            assert asymptotic.defect_ratio_limit(ell, k) == pytest.approx(
                (4 * k - 2 * ell + 8 / 3) / ((1 - ell) * E), rel=1e-14, abs=0), (ell, k)

    def test_ratio_limit_rejects_positive_ell(self):
        with pytest.raises(ValueError):
            asymptotic.defect_ratio_limit(1, 1)
        with pytest.raises(ValueError, match="nonnegative"):
            asymptotic.defect_ratio_limit(0, -1)
