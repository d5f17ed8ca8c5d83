"""Named cross-method verification suites behind the `verify` command.

Each check pits independent routes to the same quantity against each
other: recurrence vs closed forms, process simulation vs counting,
series vs root-finding, quadrature vs closed form.  A check returns
(passed, detail): the miss, or for some checks what a pass measured.
Suites are plain lists of named checks; the CLI and the tests run each.

Library functions are looked up through their modules at call time, so
deliberately corrupting one (e.g. monkeypatching exact.tail_sum) makes
the affected checks fail loudly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

from . import asymptotic, exact, simulate
from .rng import SplitMix64, sub_seed


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _fail(detail: str) -> tuple[bool, str]:
    return False, detail


def _ok(detail: str = "") -> tuple[bool, str]:
    return True, detail


# ---------------------------------------------------------------------------
# exact counting


def check_three_way_equivalence(n_max: int = 8, m_max: int = 10):
    for n in range(1, n_max + 1):
        for m in range(m_max + 1):
            for k in range(m + 1):
                rec = exact.defect_count_recurrence(n, m, k)
                exp = exact.defect_count_explicit(n, m, k)
                alt = (exact.tail_sum_alternating(n, m, k)
                       - exact.tail_sum_alternating(n, m, k + 1))
                if not rec == exp == alt:
                    return _fail(f"cp({n},{m},{k}): rec={rec} explicit={exp} alt={alt}")
    return _ok()


def check_row_sums(n_max: int = 8, m_max: int = 10):
    for n in range(1, n_max + 1):
        for m in range(m_max + 1):
            dist = exact.defect_distribution(n, m)
            if sum(dist.counts) != n ** m:
                return _fail(f"sum cp({n},{m},k) != {n}**{m}")
    return _ok()


def check_support(n_max: int = 10):
    for n in range(1, n_max + 1):
        for m in range(12):
            for k in range(max(0, m - n)):
                if exact.defect_count_explicit(n, m, k) != 0:
                    return _fail(f"cp({n},{m},{k}) != 0 below support")
            if m >= 1 and exact.defect_count_explicit(n, m, m) != 0:
                return _fail(f"cp({n},{m},{m}) != 0")
        if exact.defect_count_explicit(n, n, n - 1) != 1:
            return _fail(f"cp({n},{n},{n - 1}) != 1")
    return _ok()


def check_pollak(n_max: int = 20):
    for n in range(n_max + 1):
        for m in range(n + 1):
            if exact.parking_function_count(n, m) != exact.defect_count_explicit(n, m, 0):
                return _fail(f"Pollak mismatch at ({n},{m})")
    return _ok()


def check_closed_form_k0(r_max: int = 10, s_max: int = 10):
    table = exact.DefectTable(r_max, s_max, 0)
    for r in range(r_max + 1):
        for s in range(s_max + 1):
            want = (r + 1) * (r + s + 1) ** (s - 1) if s > 0 else 1
            if table.value(r, s, 0) != want:
                return _fail(f"a({r},{s},0) != (r+1)(r+s+1)^(s-1)")
    return _ok()


def check_abel_grid(bound: int = 8):
    for a in range(bound + 1):
        for b in range(bound + 1):
            for m in range(bound + 1):
                if not exact.abel_identity_check(a, b, m):
                    return _fail(f"Abel identity fails at ({a},{b},{m})")
    return _ok()


def check_monotone_tails(n_max: int = 10, m_max: int = 10):
    for n in range(1, n_max + 1):
        for m in range(m_max + 1):
            prev = None
            for k in range(m + 2):
                s = exact.tail_sum(n, m, k)
                if s < 0 or (prev is not None and s > prev):
                    return _fail(f"tail sums not monotone at ({n},{m},{k})")
                prev = s
    return _ok()


def check_diagonal_special_cases(n_max: int = 20):
    for n in range(2, n_max + 1):
        checks = {
            (n, 1): n ** n - (n + 1) ** (n - 1),
            (n, 2): n ** n - 2 * (n + 2) ** (n - 1) + 2 * n * (n + 1) ** (n - 2),
            (n, n - 1): 1,
            (n, n - 2): 2 ** n + n * (n - 2),
        }
        for (nn, k), want in checks.items():
            if exact.tail_sum(nn, nn, k) != want:
                return _fail(f"S({nn},{nn},{k}) != closed form")
    return _ok()


def check_tail_upper_bound(n_max: int = 12, m_max: int = 12):
    for n in range(n_max + 1):
        for m in range(m_max + 1):
            for k in range(m + 1):
                if not exact.tail_upper_bound_check(n, m, k):
                    return _fail(f"upper bound fails at ({n},{m},{k})")
    return _ok()


# ---------------------------------------------------------------------------
# simulation vs exact


def _enumeration_agrees(pairs, cap: int):
    for n, m in pairs:
        if exact.defect_distribution(n, m) != simulate.enumerate_exhaustive(n, m, cap=cap):
            return _fail(f"enumeration disagrees with exact counts at ({n},{m})")
    return _ok(f"{len(pairs)} pairs")


def exhaustive_pairs(budget: int) -> list[tuple[int, int]]:
    """(n, m) for n <= 12 and every m <= 19 with m = 0 or n**m <= budget."""
    return [(n, m) for n in range(1, 13) for m in range(20) if m == 0 or n ** m <= budget]


def check_exhaustive_oracle_small(cap: int = simulate.DEFAULT_ENUMERATION_CAP):
    pairs = [(n, m) for n in range(1, 6) for m in range(6)] + [(2, 10), (3, 7)]
    return _enumeration_agrees(pairs, cap)


def check_exhaustive_oracle_full(cap: int = simulate.DEFAULT_ENUMERATION_CAP):
    return _enumeration_agrees(exhaustive_pairs(min(cap, 10 ** 6)), cap)


def check_park_implementations(instances: int = 2000, seed: int = 0xC0FFEE):
    gen = SplitMix64(seed)
    for _ in range(instances):
        n = gen.uniform_int(40)
        m = gen.uniform_int(60)
        choices = [gen.uniform_int(n) for _ in range(m)]
        fast = simulate.park(n, choices)
        naive = simulate.park_naive(n, choices)
        if fast != naive:
            return _fail(f"park/fast != naive on n={n}, choices={choices}")
        if fast.defect != simulate.defect_by_suffix_counts(n, choices):
            return _fail(f"suffix-count defect rule off on n={n}, choices={choices}")
    return _ok()


def check_permutation_invariance(multisets: int = 30, seed: int = 0xB0BA):
    gen = SplitMix64(seed)
    for _ in range(multisets):
        n = gen.uniform_int(6)
        m = gen.uniform_int(6)
        base = sorted(gen.uniform_int(n) for _ in range(m))
        defects = {simulate.park(n, p).defect
                   for p in set(itertools.permutations(base))}
        if len(defects) != 1:
            return _fail(f"defect not permutation-invariant for n={n}, multiset={base}")
    return _ok()


def check_sampling_determinism():
    a = simulate.sample_empirical(12, 15, 2000, seed=99)
    b = simulate.sample_empirical(12, 15, 2000, seed=99)
    if a != b:
        return _fail("identical seeds produced different histograms")
    if sum(a.counts) != 2000:
        return _fail("histogram does not sum to the trial count")
    return _ok()


def check_monte_carlo_calibration(trials: int = 10 ** 5, seed: int = 1):
    emp = simulate.sample_empirical(100, 100, trials, seed=seed)
    denom = 100 ** 100
    zs = []
    for k in (5, 10, 20):
        p = exact.ratio_as_float(exact.tail_sum_alternating(100, 100, k), denom)
        se = math.sqrt(p * (1.0 - p) / trials)
        z = abs(emp.tail_frequency(k) - p) / se
        if z > 4.0:
            return _fail(f"empirical tail at k={k} off by {z:.2f} standard errors")
        zs.append(f"k={k} z={z:.2f}")
    return _ok("; ".join(zs))


def check_coupon_experiment(runs: int = 1000, seed: int = 777):
    full = sum(1 for i in range(runs)
               if simulate.cars_until_full(50, sub_seed(seed, i)) <= 100)
    frac = full / runs
    count = exact.tail_sum(50, 100, 50) - exact.tail_sum(50, 100, 51)
    p = exact.ratio_as_float(count, 50 ** 100)
    se = math.sqrt(p * (1.0 - p) / runs)
    if abs(frac - p) > 4.0 * se:
        return _fail(f"full-by-2n fraction {frac:.4f} vs exact {p:.4f} beyond 4 SE")
    return _ok()


# ---------------------------------------------------------------------------
# asymptotics


def check_tree_function_grid(points: int = 1000):
    prev = -1.0
    for i in range(points + 1):
        v = asymptotic.TREE_ARG_MAX * i / points
        t = asymptotic.tree_function(v)
        if abs(t * math.exp(-t) - v) > 1e-12:
            return _fail(f"tree residual too large at v={v}")
        if t <= prev:
            return _fail(f"tree function not strictly increasing at v={v}")
        prev = t
    for lam in (0.1, 0.5, 0.9, 1.0):
        t = asymptotic.tree_function(lam * math.exp(-lam))
        if abs(t - lam) > 1e-10:
            return _fail(f"T(lambda e^-lambda) != lambda at {lam}")
    return _ok()


def check_limiting_tail_shape():
    ys = (-1.0, 0.0, 0.5, 2.0)
    for y in ys:
        prev = None
        for i in range(0, 41):
            x = 0.1 * i
            val = asymptotic.limiting_tail(x, y)
            if not 0.0 < val <= 1.0:
                return _fail(f"tail limit out of (0,1] at ({x},{y})")
            if x > y and prev is not None and val > prev:
                return _fail(f"tail limit not decreasing at ({x},{y})")
            prev = val
        boundary = asymptotic.limiting_tail(max(y, 0.0), y)
        if boundary != 1.0:
            return _fail(f"tail limit not continuous at x=y={y}")
    return _ok()


def check_density_integral_grid():
    for x in (0.25, 0.5, 1.0, 2.0):
        for y in (-1.0, 0.0, 0.5):
            if x <= y:
                continue
            got = asymptotic.density_integral_check(x, y)
            want = math.exp(-2.0 * x * (x - y))
            if abs(got - want) > 1e-6:
                return _fail(f"alpha-density integral off at ({x},{y}): {got} vs {want}")
    return _ok()


def check_series_vs_tree():
    # At lambda = 1 the series sits at its convergence-radius boundary and
    # the error decays only like 1/sqrt(terms), so that point gets its own
    # qualitative treatment below.
    for lam in (0.2, 0.5, 2.0, 4.0):
        ref = asymptotic.tree_function(min(lam * math.exp(-lam),
                                           asymptotic.TREE_ARG_MAX)) / lam
        if abs(asymptotic.full_lot_series(lam, 200) - ref) > 1e-10:
            return _fail(f"series does not reach the tree function at lambda={lam}")
    err_200 = abs(asymptotic.full_lot_series(1.0, 200) - 1.0)
    err_3200 = abs(asymptotic.full_lot_series(1.0, 3200) - 1.0)
    if not err_3200 < err_200 < 0.1:
        return _fail("series at lambda=1 not converging toward T(1/e)")
    return _ok()


def check_ratio_limit_values():
    want = {
        (0, 0): 1.0,
        (0, 1): 2.0 * math.e - 3.0,
        (0, 2): 3.0 * math.e ** 2 - 8.0 * math.e + 3.5,
    }
    for (ell, k), val in want.items():
        got = asymptotic.defect_ratio_limit(ell, k)
        if abs(got - val) > 1e-12:
            return _fail(f"ratio limit ({ell},{k}) = {got}, want {val}")
    return _ok()


def check_ratio_limits_exact(ns=(250, 1000, 4000)):
    reached = []
    for k in (1, 2):
        target = asymptotic.defect_ratio_limit(0, k)
        errs = []
        for n in ns:
            num = (exact.tail_sum_alternating(n, n, k)
                   - exact.tail_sum_alternating(n, n, k + 1))
            den = (exact.tail_sum_alternating(n, n, 0)
                   - exact.tail_sum_alternating(n, n, 1))
            errs.append(abs(exact.ratio_as_float(num, den) - target))
        if not all(a > b for a, b in zip(errs, errs[1:])):
            return _fail(f"ratio error not strictly decreasing for k={k}: {errs}")
        if errs[-1] > 5e-2:
            return _fail(f"ratio error {errs[-1]} above 5e-2 at n={ns[-1]}")
        reached.append(f"k={k} err@{ns[-1]}={errs[-1]:.2e}")
    return _ok("; ".join(reached))


def check_tail_trend(ns=(100, 400, 1600)):
    errs = []
    for n in ns:
        k = math.isqrt(n)
        val = exact.ratio_as_float(exact.tail_sum_alternating(n, n, k), n ** n)
        errs.append(abs(val - math.exp(-2.0)))
    if not all(a > b for a, b in zip(errs, errs[1:])):
        return _fail(f"tail errors not decreasing: {errs}")
    if errs[-1] > 0.05:
        return _fail(f"tail error {errs[-1]} above 0.05 at n={ns[-1]}")
    return _ok(f"errors {['%.4f' % e for e in errs]}")


def check_phi_consistency(ns=(1000, 4000)):
    for k in (1, 2, 3):
        target = asymptotic.phi(0, k)
        errs = []
        for n in ns:
            deficit = n ** n - exact.tail_sum_alternating(n, n, k)
            val = -n * exact.ratio_as_float(deficit, n ** n)
            errs.append(abs(val - target))
        if not errs[-1] < errs[0]:
            return _fail(f"phi(0,{k}) error grew from n={ns[0]} to n={ns[-1]}: {errs}")
    return _ok()


def check_full_lot_ordering():
    for i in range(105, 401, 5):
        lam = i / 100.0
        limit = asymptotic.full_lot_limit(lam)
        vals = []
        for n in (10, 20):
            m = (i * n) // 100
            count = exact.tail_sum(n, m, m - n) - exact.tail_sum(n, m, m - n + 1)
            vals.append(exact.ratio_as_float(count, n ** m))
        if not vals[0] >= vals[1] >= limit:
            return _fail(f"full-lot ordering broken at lambda={lam}: {vals} vs {limit}")
    return _ok()


def check_pmf_normalization():
    n = 400
    total = sum(asymptotic.pmf_approx(n, n, k)
                for k in range(1, math.ceil(3 * math.sqrt(n)) + 1))
    if abs(total - 1.0) > 0.05:
        return _fail(f"pmf approximation sums to {total}, expected ~1")
    return _ok()


# ---------------------------------------------------------------------------
# suites

QUICK_CHECKS: list[tuple[str, Callable]] = [
    ("three-way-equivalence", check_three_way_equivalence),
    ("row-sums", check_row_sums),
    ("support", check_support),
    ("pollak-consistency", check_pollak),
    ("closed-form-k0", check_closed_form_k0),
    ("abel-identity-grid", check_abel_grid),
    ("monotone-tails", check_monotone_tails),
    ("diagonal-special-cases", check_diagonal_special_cases),
    ("tail-upper-bound", check_tail_upper_bound),
    ("exhaustive-oracle-small", check_exhaustive_oracle_small),
    ("park-implementations", check_park_implementations),
    ("permutation-invariance", check_permutation_invariance),
    ("sampling-determinism", check_sampling_determinism),
    ("tree-function-grid", check_tree_function_grid),
    ("limiting-tail-shape", check_limiting_tail_shape),
    ("density-integral-grid", check_density_integral_grid),
    ("series-vs-tree", check_series_vs_tree),
    ("ratio-limit-values", check_ratio_limit_values),
    ("full-lot-ordering", check_full_lot_ordering),
    ("pmf-normalization", check_pmf_normalization),
]

FULL_CHECKS: list[tuple[str, Callable]] = QUICK_CHECKS + [
    ("exhaustive-oracle-full", check_exhaustive_oracle_full),
    ("park-implementations-10k", lambda: check_park_implementations(10 ** 4)),
    ("monte-carlo-calibration", check_monte_carlo_calibration),
    ("coupon-experiment", check_coupon_experiment),
    ("ratio-limits-exact", check_ratio_limits_exact),
    ("tail-trend", check_tail_trend),
    ("phi-consistency", check_phi_consistency),
]

_CAP_AWARE = {"exhaustive-oracle-small", "exhaustive-oracle-full"}


def run_suite(level: str = "quick", cap: int | None = None) -> list[CheckResult]:
    """Run the named level's checks; cap limits exhaustive enumerations.

    A check that raises fails with the exception's type and message as
    its detail; only an over-cap enumeration propagates, as a refusal.
    """
    if level not in ("quick", "full"):
        raise ValueError("level must be 'quick' or 'full'")
    suite = QUICK_CHECKS if level == "quick" else FULL_CHECKS
    results = []
    for name, fn in suite:
        try:
            if cap is not None and name in _CAP_AWARE:
                passed, detail = fn(cap=cap)
            else:
                passed, detail = fn()
        except simulate.EnumerationCapError:
            raise
        except Exception as exc:
            # a check that raises is a failed check, reported like the rest
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(name=name, passed=passed, detail=detail))
    return results
