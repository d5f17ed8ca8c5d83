"""Limiting formulas for the defect of random preference sequences.

With m = n + y*sqrt(n) drivers on n spaces, the probability that at
least x*sqrt(n) drivers walk tends to exp(-2x(x-y)) for x > y (and to 1
otherwise); at y = 0 the defect scaled by sqrt(n) is therefore Rayleigh.
With m = lambda*n drivers the probability that the lot fills tends to
1 - T(lambda*e**-lambda)/lambda for lambda > 1, where T is the tree
function, the inverse of t -> t*e**-t on [0, 1].  This module evaluates
those limits, the finite-n probability approximation they induce, the
fixed-defect ratio limits, and the density whose integral over the
occupancy fraction reproduces the tail limit (a quadrature cross-check
of the closed form).

Everything here is IEEE double arithmetic; exact counts enter only
through exact.ratio_as_float.
"""

from __future__ import annotations

import math

TREE_ARG_MAX = math.exp(-1.0)

# density_integral_check's adaptive Simpson: absolute tolerance, recursion depth
_QUAD_TOL = 1e-9
_QUAD_MAX_DEPTH = 40


class QuadratureError(RuntimeError):
    """Adaptive integration failed to reach its tolerance."""


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
    t = min(max(t, 0.0), 1.0)
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
        t_new = t - g / gp if gp > 0.0 else 0.5 * (lo + hi)
        if not lo < t_new < hi:
            t_new = 0.5 * (lo + hi)
        if t_new == t:
            break
        t = t_new
    return min(max(t, 0.0), 1.0)


def _limiting_tail(x: float, y: float) -> float:
    """Limit of P(defect >= x*sqrt(n)) with m = n + y*sqrt(n) drivers."""
    if x < 0.0:
        raise ValueError("x must be nonnegative")
    if x > y:
        return math.exp(-2.0 * x * (x - y))
    return 1.0


def rayleigh_cdf(x: float) -> float:
    """1 - e**(-2x^2): the limit law of defect/sqrt(n) when m = n."""
    if x < 0.0:
        raise ValueError("x must be nonnegative")
    return 1.0 - math.exp(-2.0 * x * x)


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


def _density(x: float, y: float, alpha: float) -> float:
    """Density, over the occupancy fraction alpha, of the tail limit.

    (x-y)/sqrt(2*pi*alpha^3*(1-alpha)) * exp(-(x-(1-alpha)y)^2/(2*alpha*(1-alpha)))

    for 0 < alpha < 1 and x > y, which density_integral_check, the one
    caller, ensures.  The endpoint singularities are integrable and
    belong to the quadrature routine, not this evaluator.
    """
    expo = -((x - (1.0 - alpha) * y) ** 2) / (2.0 * alpha * (1.0 - alpha))
    if expo < -745.0:  # exp underflows; at tiny alpha, alpha**3 too, a 0 divisor
        return 0.0
    return (x - y) / math.sqrt(2.0 * math.pi * alpha ** 3 * (1.0 - alpha)) \
        * math.exp(expo)


def _adaptive_simpson(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0:
        raise QuadratureError("adaptive quadrature exceeded maximum depth")
    if abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return (_adaptive_simpson(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)
            + _adaptive_simpson(f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1))


def density_integral_check(x: float, y: float) -> float:
    """Integral of _density over alpha in (0, 1).

    Substitutes alpha = sin(theta)^2 to flatten the endpoint behavior,
    then integrates by adaptive Simpson to absolute tolerance 1e-9; the
    result should equal the closed form exp(-2x(x-y)) to well within 1e-6.
    """
    if x <= y:
        raise ValueError("integral check requires x > y")

    def integrand(theta: float) -> float:
        s = math.sin(theta)
        alpha = s * s
        if alpha <= 0.0 or alpha >= 1.0:
            return 0.0
        return _density(x, y, alpha) * math.sin(2.0 * theta)

    b = 0.5 * math.pi
    fa, fm, fb = integrand(0.0), integrand(0.5 * b), integrand(b)
    whole = b / 6.0 * (fa + 4.0 * fm + fb)
    return _adaptive_simpson(integrand, 0.0, b, fa, fm, fb, whole,
                             _QUAD_TOL, _QUAD_MAX_DEPTH)


def full_lot_limit(lam: float) -> float:
    """Limit of P(all n spaces fill) with m = lambda*n drivers."""
    if lam <= 0.0:
        raise ValueError("lambda must be positive")
    if lam <= 1.0:
        return 0.0
    v = min(lam * math.exp(-lam), TREE_ARG_MAX)
    return 1.0 - tree_function(v) / lam


def _full_lot_series(lam: float, terms: int) -> float:
    """Partial sum of the series form of T(lambda*e**-lambda)/lambda.

    sum_{i=0}^{terms-1} lambda**i/i! * (i+1)**(i-1) * e**(-lambda*(1+i)),
    evaluated term-wise in log space.
    """
    if lam <= 0.0:
        raise ValueError("lambda must be positive")
    if terms < 1:
        raise ValueError("need at least one term")
    log_lam = math.log(lam)
    total = 0.0
    for i in range(terms):
        log_term = (i * log_lam - math.lgamma(i + 1)
                    + (i - 1) * math.log(i + 1) - lam * (1 + i))
        total += math.exp(log_term)
    return total


def _phi(ell: int, k: int) -> float:
    """Limit of n*(tail probability - 1) for fixed defect k, m = n + ell.

    -(k - ell) * sum_{i=0}^{k-1} (-1)**i/i! * (k-i)**i * e**(k-i) for
    k > ell, and 0 otherwise.  The alternating terms are summed with
    Kahan compensation.  k >= 0: defect_ratio_limit, its one public
    caller, refuses a negative k.
    """
    if k <= ell:
        return 0.0
    total = 0.0
    comp = 0.0
    sign = 1.0
    for i in range(k):
        term = sign * (k - i) ** i * math.exp(k - i) / math.factorial(i)
        yy = term - comp
        t = total + yy
        comp = (t - total) - yy
        total = t
        sign = -sign
    return -(k - ell) * total


def defect_ratio_limit(ell: int, k: int) -> float:
    """Limit of cp(n, n+ell, k)/cp(n, n+ell, 0); defined for ell <= 0."""
    if ell > 0:
        raise ValueError("ratio limit undefined for ell > 0 (denominator is 0)")
    if k < 0:
        raise ValueError("k must be nonnegative")
    # _phi(ell, 0) is +-0.0 for ell <= 0, so the denominator drops it
    return (_phi(ell, k) - _phi(ell, k + 1)) / -_phi(ell, 1)
