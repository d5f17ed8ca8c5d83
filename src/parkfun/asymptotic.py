"""Limiting formulas for the defect of random preference sequences.

With m = n + y*sqrt(n) drivers on n spaces, the probability that at
least x*sqrt(n) drivers walk tends to exp(-2x(x-y)) for x > y (and to 1
otherwise); at y = 0 the defect scaled by sqrt(n) is therefore Rayleigh.
With m = lambda*n drivers the probability that the lot fills tends to
1 - T(lambda*e**-lambda)/lambda for lambda > 1, where T is the tree
function, the inverse of t -> t*e**-t on [0, 1].  This module evaluates
those limits, the finite-n probability approximation they induce and
the fixed-defect ratio limits; parkfun.checks holds each of them
against exact counts.

Everything here is IEEE double arithmetic but the decimal phi(ell, k);
exact counts enter only through exact.ratio_as_float.
"""

from __future__ import annotations

import math

TREE_ARG_MAX = math.exp(-1.0)

# Below this lambda, full_lot_limit solves for u = lambda - T(...) by the
# series of _conjugate_gap.  Against 60-digit references, 300 random
# lambda per band, that form misses by at most 1.7 ulp on (1, 1.5), where
# 1 - T(lambda e**-lambda)/lambda misses by up to 6.6e7 ulp on (1, 1.1),
# 47 on [1.1, 1.4) and 3.5 on [1.4, 1.5).  Above it the tree function
# form misses by at most 2.9 ulp, and from about 1.7 on it is the better
# one (at 2.8 it is exact and the series form is not).
_FULL_LOT_SWITCH = 1.5
# 1/(k+1)!, k = 1..18, signed: q(u)/u = 1/2 - u/6 + u**2/24 - ..
_Q_SERIES = tuple((-1) ** (k + 1) / math.factorial(k + 1) for k in range(1, 19))


def tree_function(v: float) -> float:
    """T(v): the root t in [0, 1] of t*e**-t = v, for 0 <= v <= 1/e.

    Newton iteration seeded from the truncated series
    sum_{i>=1} i**(i-1)/i! * v**i, safeguarded by bisection on [0, 1];
    plain Newton stalls near v = 1/e where the derivative of t*e**-t
    vanishes.  The result satisfies |T(v)*e**-T(v) - v| <= 1e-12.
    """
    if not 0.0 <= v <= TREE_ARG_MAX:
        raise ValueError(f"tree function argument {v} outside [0, 1/e]")
    if v == 0.0:
        return 0.0
    if v == TREE_ARG_MAX:
        # branch point: t*e**-t is flat here, so the solver cannot pin t
        # beyond ~sqrt(ulp); the root is exactly 1
        return 1.0
    # Series seed: term ratio a_{i}/a_{i-1} = (1 + 1/(i-1))**(i-2) * v.
    term = v
    t = v
    for i in range(2, 21):
        term *= v * (1.0 + 1.0 / (i - 1)) ** (i - 2)
        t += term
    # No clamp is needed: the seed's terms are positive and sum to less
    # than T(v) < 1 (it lies in [v, 0.825]), and every later t lies
    # strictly inside (lo, hi), a part of [0, 1], so gp = e**-t (1 - t) > 0
    lo, hi = 0.0, 1.0
    for _ in range(300):
        g = t * math.exp(-t) - v
        if g == 0.0:
            return t
        if g > 0.0:
            hi = t
        else:
            lo = t
        if hi - lo <= 1e-15:
            # any point of the bracket has residual <= |g'| * width <= 1e-15
            break
        gp = math.exp(-t) * (1.0 - t)
        t_new = t - g / gp
        if not lo < t_new < hi:
            t_new = 0.5 * (lo + hi)
        if t_new == t:
            break
        t = t_new
    return t


def _limiting_tail(x: float, y: float) -> float:
    """Limit of P(defect >= x*sqrt(n)) with m = n + y*sqrt(n) drivers."""
    if not x >= 0.0:                            # nan fails it too
        raise ValueError("x must be nonnegative")
    if x > y:
        return math.exp(-2.0 * x * (x - y))
    return 1.0


def rayleigh_cdf(x: float) -> float:
    """1 - e**(-2x^2): the limit law of defect/sqrt(n) when m = n."""
    return 1.0 - _limiting_tail(x, 0.0)


def pmf_approx(n: int, m: int, k: int) -> float:
    """Large-n approximation of P(defect = k), valid for m < n + k.

    (2/n) * (2k - m + n) * exp(-2k(k - m + n)/n).  Outside the regime
    the formula is meaningless and the call is rejected rather than
    extrapolated.

    Error, with m = n + y*sqrt(n): over k >= 1 the absolute error is
    O(1/n).  At the k = 0 atom, which is in the regime only when m < n,
    the exact P(defect = 0) tends to e|y|/sqrt(n) (Pollak's formula)
    while the formula gives 2|y|/sqrt(n); the ratio tends to e/2, a
    relative miss that does not shrink with n.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if m < 0 or k < 0:
        raise ValueError("m, k must be nonnegative")
    if m >= n + k:
        raise ValueError(f"approximation requires m < n + k, got m={m}, n+k={n + k}")
    return (2.0 / n) * (2 * k - m + n) * math.exp(-2.0 * k * (k - m + n) / n)


def _conjugate_gap(lam: float) -> float:
    """u = lambda - T(lambda*e**-lambda), for 1 < lambda < _FULL_LOT_SWITCH.

    With t = T(lambda*e**-lambda), t*e**-t = lambda*e**-lambda gives
    t = lambda*e**-u, so 1 - e**-u = u/lambda: u > 0 solves
    q(u) = (lambda - 1)/lambda with q(u) = 1 - (1 - e**-u)/u, and the
    limit is 1 - e**-u.  q is taken by the first 18 terms of its series
    sum_{k>=1} (-1)**(k+1) u**k/(k+1)!, which do not cancel; at the
    switch, u = 0.874, the first dropped term is 1e-19 of q.  q is
    concave, and q(u) < u/2, so Newton from u = 2(lambda - 1)/lambda
    climbs to the root without passing it; it stops when rounding no
    longer lets u grow.
    """
    r = (lam - 1.0) / lam
    u = 2.0 * r
    while True:
        # q(u) / u and q'(u) by Horner
        p = dp = 0.0
        for k in range(len(_Q_SERIES), 0, -1):
            c = _Q_SERIES[k - 1]
            p = p * u + c
            dp = dp * u + k * c
        after = u + (r - u * p) / dp
        if not after > u:
            return u
        u = after


def full_lot_limit(lam: float) -> float:
    """Limit of P(all n spaces fill) with m = lambda*n drivers."""
    if not lam > 0.0:                           # nan fails it too
        raise ValueError("lambda must be positive")
    if lam <= 1.0:
        return 0.0
    if lam == math.inf:                         # lam * e**-lam would be nan
        return 1.0
    if lam < _FULL_LOT_SWITCH:
        # 1 - t/lambda cancels as t -> lambda -> 1; -expm1(-u) does not
        return -math.expm1(-_conjugate_gap(lam))
    # lambda >= 1.5, so lambda*e**-lambda <= 0.335 < 1/e: no clamp is needed
    return 1.0 - tree_function(lam * math.exp(-lam)) / lam


def _phi_decimal(ell: int, k: int):
    """phi(ell, k) = lim n*(tail probability - 1) at defect k, m = n + ell.

    -(k - ell) * sum_{i<k} (-1)**i/i! * (k-i)**i * e**(k-i) for k > ell,
    else 0, as a Decimal in the caller's context.  The sum is about 2k + 2/3
    and its terms reach 0.54k digits, so k + 30 digits keep 0.46k + 30.
    """
    import decimal          # only here, so that import parkfun does not load it
    if k <= ell:
        return decimal.Decimal(0)
    return -(k - ell) * sum((-1) ** i * (k - i) ** i * decimal.Decimal(k - i).exp()
                            / math.factorial(i) for i in range(k))


def defect_ratio_limit(ell: int, k: int) -> float:
    """Limit of cp(n, n+ell, k)/cp(n, n+ell, 0); defined for ell <= 0."""
    if ell > 0:
        raise ValueError("ratio limit undefined for ell > 0 (denominator is 0)")
    if k < 0:
        raise ValueError("k must be nonnegative")
    import decimal
    # phi(ell, k) and phi(ell, k + 1), about 2k(k - ell) each, differ by
    # about 4k - 2 ell: subtract and divide at k + 31 digits, round once;
    # phi(ell, 0) is 0 for ell <= 0, so the denominator drops it
    with decimal.localcontext() as ctx:
        ctx.prec = k + 31
        ratio = ((_phi_decimal(ell, k) - _phi_decimal(ell, k + 1))
                 / -_phi_decimal(ell, 1))
    return float(ratio)
