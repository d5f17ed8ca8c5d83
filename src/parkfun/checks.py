"""Named cross-method verification suites behind the `verify` command.

Each check pits independent routes to the same quantity against each
other: recurrence vs closed forms, process simulation vs counting,
exact counts vs limit laws (ratio-limits-exact holds both fixed-defect
limits on one set of tails, tail-limit-grid the tail limit on a grid of
(x, y)).  A check returns (passed, detail): the miss, or for some checks
what a pass measured.  Checks that set a limit law against exact counts
at growing n read their misses through one helper, _order: the misses
must strictly fall, at an end-to-end rate midway or more between a
right limit's and a wrong one's.  figure1-order holds pmf_approx and its
mass that way.  A rate alone passes a limit off by a little, so the
tail and ratio checks also bound Richardson's extrapolated miss, which
_extrapolate takes from the last two n, each within 3 times its value
on the true code.
Suites are plain lists of named checks, QUICK_CHECKS and FULL_CHECKS;
`verify` runs one of them, and the tests run each check by name.

Every check owns one fixed grid: its bounds, seed and trial count are
constants in its body, and it takes no argument.  The one exception is
check_park_implementations(instances), which the quick suite runs on
2000 instances and the full suite on 10**4.  No test calls a check with
arguments, so each invariant runs on one grid, through one path.  Its
instances are the first `instances` lots of _park_instances: lot i has
a fixed shape (n, m), swept over n <= 40, m <= 60, and its choices come
from seed 0xC0FFEE's stream on the one modulus lcm(1..40), reduced by
the lot's own n in numpy.

Library functions are looked up through their modules at call time, so
deliberately corrupting one (e.g. monkeypatching exact.tail_sum) makes
the affected checks fail loudly.  tests/test_checks.py keeps a table of
such faults, each row listing every check that it fails.
"""

from __future__ import annotations

import collections
import itertools
import math
from typing import Callable

import numpy as np

from . import asymptotic, exact, simulate
from .rng import SplitMix64, _Residues, sub_seed


# ---------------------------------------------------------------------------
# exact counting


def check_three_way_equivalence():
    # one table holds the recurrence's cp(n, m, k) = a(n - m + k, m - k, k)
    # for every n, m <= 12; a negative r has no outcome.  Both tail forms
    # are 0 past k = m, so equal differences make every tail equal too
    table = exact.DefectTable(12, 12, 12)
    for n in range(1, 13):
        for m in range(13):
            for k in range(m + 1):
                r = n - m + k
                rec = table.value(r, m - k, k) if r >= 0 else 0
                exp = exact.defect_count_explicit(n, m, k)
                alt = (exact.tail_sum_alternating(n, m, k)
                       - exact.tail_sum_alternating(n, m, k + 1))
                if not rec == exp == alt:
                    return False, f"cp({n},{m},{k}): rec={rec} explicit={exp} alt={alt}"
    return True, ""


def check_row_sums():
    for n in range(1, 13):
        for m in range(15):
            dist = exact.defect_distribution(n, m)
            if sum(dist.counts) != n ** m:
                return False, f"sum cp({n},{m},k) != {n}**{m}"
    return True, ""


def check_support():
    for n in range(1, 11):
        for m in range(12):
            for k in range(max(0, m - n)):
                if exact.defect_count_explicit(n, m, k) != 0:
                    return False, f"cp({n},{m},{k}) != 0 below support"
            if m >= 1 and exact.defect_count_explicit(n, m, m) != 0:
                return False, f"cp({n},{m},{m}) != 0"
        if exact.defect_count_explicit(n, n, n - 1) != 1:
            return False, f"cp({n},{n},{n - 1}) != 1"
    return True, ""


def check_pollak():
    for n in range(21):
        for m in range(n + 1):
            if exact.parking_function_count(n, m) != exact.defect_count_explicit(n, m, 0):
                return False, f"Pollak mismatch at ({n},{m})"
    return True, ""


def check_closed_form_k0():
    table = exact.DefectTable(10, 10, 0)
    for r in range(11):
        for s in range(11):
            want = (r + 1) * (r + s + 1) ** (s - 1) if s > 0 else 1
            if table.value(r, s, 0) != want:
                return False, f"a({r},{s},0) != (r+1)(r+s+1)^(s-1)"
    return True, ""


def check_abel_grid():
    for a in range(9):
        for b in range(9):
            for m in range(9):
                if not exact.abel_identity_check(a, b, m):
                    return False, f"Abel identity fails at ({a},{b},{m})"
    return True, ""


def check_monotone_tails():
    for n in range(1, 11):
        for m in range(11):
            prev = None
            for k in range(m + 2):
                s = exact.tail_sum(n, m, k)
                if s < 0 or (prev is not None and s > prev):
                    return False, (f"tail sums not monotone at ({n},{m},{k}): "
                                   f"S(k-1)={prev}, S(k)={s}")
                prev = s
    return True, ""


def check_diagonal_special_cases():
    for n in range(2, 21):
        checks = {
            (n, 1): n ** n - (n + 1) ** (n - 1),
            (n, 2): n ** n - 2 * (n + 2) ** (n - 1) + 2 * n * (n + 1) ** (n - 2),
            (n, n - 1): 1,
            (n, n - 2): 2 ** n + n * (n - 2),
        }
        for (nn, k), want in checks.items():
            if exact.tail_sum(nn, nn, k) != want:
                return False, f"S({nn},{nn},{k}) != closed form"
    return True, ""


def check_tail_upper_bound():
    for n in range(16):
        for m in range(16):
            for k in range(m + 1):
                if exact.tail_sum(n, m, k) > math.perm(m, k) * n ** (m - k):
                    return False, f"upper bound fails at ({n},{m},{k})"
    return True, ""


def check_ladder_split_agreement():
    """The tail ladder agrees with itself at every split, and with the
    alternating form at the split it picks."""
    # a small grid, then m > n, m < n, m = n and a 50-bit n
    lots = [(n, m) for n in range(1, 13) for m in range(15)]
    for n, m in lots + [(37, 50), (60, 41), (45, 45), (10 ** 15, 30)]:
        lo = max(0, m - n + 1)
        want = [exact.tail_sum(n, m, k) for k in range(lo + 1, m + 1)]
        for split in range(lo, m + 1):
            if exact._abel_tails(n, m, split) != want:
                return False, f"tails at ({n},{m}) split {split} != tail_sum"
    picked = []
    # (300, 330) is the one lot here with lo > 0 and a nonempty alternating half
    for n, m in ((10 ** 12, 60), (200, 390), (50, 200), (330, 300), (300, 330),
                 (10 ** 9, 80)):
        lo = max(0, m - n + 1)
        split = exact._split(n, m)
        tails = exact._abel_tails(n, m, split)
        # both ends of the alternating half, its middle, and both ends of Abel's
        ks = {lo + 1, (lo + split) // 2, split, split + 1, m} & set(range(lo + 1, m + 1))
        for k in sorted(ks):
            if tails[k - lo - 1] != exact.tail_sum_alternating(n, m, k):
                return False, f"S({n},{m},{k}) at split {split} != alternating form"
        picked.append(f"({n},{m}) lo={lo} split={split}")
    return True, "; ".join(picked)


# ---------------------------------------------------------------------------
# simulation vs exact


def _enumeration_agrees(pairs):
    for n, m in pairs:
        if exact.defect_distribution(n, m) != simulate.enumerate_exhaustive(n, m):
            return False, f"enumeration disagrees with exact counts at ({n},{m})"
    return True, f"{len(pairs)} pairs"


def exhaustive_pairs() -> list[tuple[int, int]]:
    """(n, m) for n <= 12 and every m <= 19 with m = 0 or n**m <= ENUMERATION_CAP."""
    cap = simulate.ENUMERATION_CAP
    return [(n, m) for n in range(1, 13) for m in range(20) if m == 0 or n ** m <= cap]


def check_exhaustive_oracle_small():
    pairs = [(n, m) for n in range(1, 6) for m in range(6)] + [(2, 10), (3, 7)]
    return _enumeration_agrees(pairs)


def check_exhaustive_oracle_full():
    return _enumeration_agrees(exhaustive_pairs())


def _park_instances(instances: int):
    """The lots (n, choices) that check_park_implementations compares on.

    Lot i has the fixed shape n = i mod 40 + 1, m = 7 * (i // 40) mod 60
    + 1; 7 is prime to 60, so lots 0..2399 hold each of the 2400 shapes
    once.  Its m choices are the next m draws u of seed 0xC0FFEE's stream
    on L = lcm(1..40) < 2**63, each u mod n + 1: the draws of successive
    `SplitMix64(0xC0FFEE).uniform_int(L)` calls, less one, read 256 lots
    at a time through one `_Residues` reader.  Each reduction is exactly
    uniform, since every n <= 40 divides L.
    """
    modulus, seed = math.lcm(*range(1, 41)), 0xC0FFEE
    residues, word = _Residues(modulus, 60 * 256), 0
    for first in range(0, instances, 256):
        lots = np.arange(first, min(first + 256, instances))
        ns, ms = lots % 40 + 1, 7 * (lots // 40) % 60 + 1
        choices, word = residues.draws(seed, word, int(ms.sum()))
        choices %= np.repeat(ns, ms)
        choices += 1
        ends = np.cumsum(ms).tolist()
        for n, start, end in zip(ns.tolist(), [0] + ends, ends):
            yield n, choices[start:end].tolist()


def check_park_implementations(instances: int = 2000):
    # park's pointer jumping, the slot-by-slot naive park and the
    # suffix-count defect rule must agree on each lot of _park_instances
    for n, choices in _park_instances(instances):
        fast = simulate.park(n, choices)
        naive = simulate.park_naive(n, choices)
        if fast != naive:
            return False, f"park/fast != naive on n={n}, choices={choices}"
        if fast.defect != simulate.defect_by_suffix_counts(n, choices):
            return False, f"suffix-count defect rule off on n={n}, choices={choices}"
    return True, ""


def check_permutation_invariance():
    gen = SplitMix64(0xB0BA)
    for _ in range(30):
        n = gen.uniform_int(6)
        m = gen.uniform_int(6)
        base = sorted(gen.uniform_int(n) for _ in range(m))
        defects = {simulate.park(n, p).defect
                   for p in set(itertools.permutations(base))}
        if len(defects) != 1:
            return False, f"defect not permutation-invariant for n={n}, multiset={base}"
    return True, ""


def check_sampling_determinism():
    a = simulate.sample_empirical(12, 15, 2000, seed=99)
    b = simulate.sample_empirical(12, 15, 2000, seed=99)
    if a != b:
        return False, "identical seeds produced different histograms"
    if sum(a.counts) != 2000:
        return False, "histogram does not sum to the trial count"
    if simulate.sample_empirical(12, 15, 2000, seed=100) == a:
        return False, "seeds 99 and 100 produced the same histogram"
    return True, ""


def check_monte_carlo_calibration():
    trials = 10 ** 5
    emp = simulate.sample_empirical(100, 100, trials, seed=1)
    denom = 100 ** 100
    zs = []
    for k in (5, 10, 20):
        p = exact.ratio_as_float(exact.tail_sum_alternating(100, 100, k), denom)
        se = math.sqrt(p * (1.0 - p) / trials)
        z = abs(emp.tail_frequency(k) - p) / se
        if z > 3.0:
            return False, f"empirical tail at k={k} off by {z:.2f} standard errors"
        zs.append(f"k={k} z={z:.2f}")
    return True, "; ".join(zs)


def check_coupon_experiment():
    # The lot is full after c cars exactly when c - n of them walked, so
    # P(C <= c) = cp(n, c, c - n) / n**c.  One walk along c gives that CDF,
    # cut at the first c where its tail falls below 1e-9 (c = 1026 here).
    n, runs, top = 50, 1000, 21 * 50
    cars = collections.Counter(simulate.cars_until_full(n, sub_seed(777, i))
                               for i in range(runs))
    cdf = []
    for c, count in zip(range(n, top + 1), exact._full_lot_counts(n, range(n, top + 1))):
        cdf.append(exact.ratio_as_float(count, n ** c))
        if 1.0 - cdf[-1] < 1e-9:
            break
    else:
        return False, f"P(C > {top}) = {1.0 - cdf[-1]:.3g} is not below 1e-9"
    # Both CDFs step only at whole c, so the Kolmogorov-Smirnov D is a max
    # over them; past the cut the exact CDF is within 1e-9 of 1.
    seen, gap = 0, 0.0
    for c, f in enumerate(cdf, n):
        seen += cars[c]
        gap = max(gap, abs(seen / runs - f))
    ks = math.sqrt(runs) * max(gap, 1.0 - seen / runs)
    mean = sum(c * k for c, k in cars.items()) / runs
    detail = (f"sqrt(N) D = {ks:.2f} at N = {runs}; mean {mean:.2f} "
              f"against exact {n + sum(1.0 - f for f in cdf):.2f}")
    # Kolmogorov's upper 0.1 % point
    if ks > 1.95:
        return False, detail + ", beyond the 0.1 % point 1.95"
    p = cdf[n]                              # P(C <= 2n)
    frac = sum(k for c, k in cars.items() if c <= 2 * n) / runs
    se = math.sqrt(p * (1.0 - p) / runs)
    if abs(frac - p) > 4.0 * se:
        return False, f"full-by-2n fraction {frac:.4f} vs exact {p:.4f} beyond 4 SE; {detail}"
    return True, detail


# ---------------------------------------------------------------------------
# asymptotics


def check_tree_function_grid():
    prev = -1.0
    for i in range(1001):
        v = asymptotic.TREE_ARG_MAX * i / 1000
        t = asymptotic.tree_function(v)
        if abs(t * math.exp(-t) - v) > 1e-12:
            return False, f"tree residual too large at v={v}"
        if t <= prev:
            return False, f"tree function not strictly increasing at v={v}"
        prev = t
    for lam in (0.1, 0.5, 0.9, 1.0):
        t = asymptotic.tree_function(lam * math.exp(-lam))
        if abs(t - lam) > 1e-10:
            return False, f"T(lambda e^-lambda) != lambda at {lam}"
    return True, ""


def check_ratio_limit_values():
    want = {
        (0, 0): 1.0,
        (0, 1): 2.0 * math.e - 3.0,
        (0, 2): 3.0 * math.e ** 2 - 8.0 * math.e + 3.5,
    }
    for (ell, k), val in want.items():
        got = asymptotic.defect_ratio_limit(ell, k)
        if abs(got - val) > 1e-12:
            return False, f"ratio limit ({ell},{k}) = {got}, want {val}"
    return True, ""


def _order(ns, misses):
    """(falls, rate, detail): whether the misses strictly fall along ns, and
    their rate log(first/last) / log(n_last/n_first); n**-a reads a."""
    falls = all(a > b for a, b in zip(misses, misses[1:]))
    rate = math.log(misses[0] / misses[-1]) / math.log(ns[-1] / ns[0])
    misses = "/".join("%.3g" % e for e in misses)
    return falls, rate, f"{misses} at n={'/'.join(map(str, ns))}, rate {rate:.2f}"


def _extrapolate(ns, misses, rate):
    """Richardson's limit of misses that close like n**-rate, from the last
    two: (r e(n_last) - e(n_prev)) / (r - 1), with r = (n_last/n_prev)**rate."""
    r = (ns[-1] / ns[-2]) ** rate
    return (r * misses[-1] - misses[-2]) / (r - 1.0)


def check_figure1_order():
    # Panels m = n + y*sqrt(n): at n = 100, figure 1's m = 90, 100, 110.
    # Over the regime's k >= 1 (the bulk) the largest gap |exact - pmf_approx|
    # of a right curve falls like 1/n, a wrong one's like 1/sqrt(n).  At the
    # k = 0 atom (y < 0) sqrt(n)*P(defect = 0) tends to e|y| by Pollak's
    # formula, while pmf_approx gives 2|y|: sqrt(n)*gap tends to (e - 2)|y|.
    ns = (100, 225, 400)
    details = []
    for y in (-1, 0, 1):
        bulk, edge = [], []
        for n in ns:
            m = n + y * math.isqrt(n)
            probs = exact.defect_distribution(n, m).probabilities()
            approx = {k: asymptotic.pmf_approx(n, m, k)
                      for k in range(max(0, m - n + 1), m + 1)}
            gaps = {k: abs(probs[k] - p) for k, p in approx.items()}
            edge.append(gaps.pop(0, None))
            bulk.append(max(gaps.values()))
        falls, rate, detail = _order(ns, bulk)
        detail = f"y={y} bulk gap {detail}"
        if not falls or rate < 0.75 or bulk[-1] > 0.02:
            return False, detail + ": not falling at rate >= 3/4 to <= 0.02"
        if y < 0:
            _, rate, atom = _order(
                ns, [abs((math.e - 2) * -y - math.sqrt(n) * g) for n, g in zip(ns, edge)])
            detail += f"; k=0 |(e-2)|y| - sqrt(n)*gap| {atom}"
            if rate < 0.75:
                return False, detail + ": k=0 rate below 3/4"
        if y == 0:
            # approx holds the panel n = m = 400
            total = sum(approx[k] for k in range(1, 61))
            detail += f"; pmf_approx sums to {total:.4f} over k=1..60"
            if abs(total - 1.0) > 0.05:
                return False, detail + ", not within 0.05 of 1"
        details.append(detail)
    return True, " | ".join(details)


def check_ratio_limits_exact():
    # both fixed-defect limits, from one set of exact tails S(n, n, k), k <= 3;
    # each miss closes like 1/n, and a wrong limit's not at all.  The ratio's
    # Richardson (4 e(4000) - e(1000))/3 cancels the 1/n term; it is bounded
    # by 3 times what is left on the true code, as measured before the bound's
    # first run
    import decimal
    ns = (250, 1000, 4000)
    tails = {n: [exact.tail_sum_alternating(n, n, k) for k in range(4)] for n in ns}
    reached = []
    for k, size in ((1, 8.9e-6), (2, 9.7e-5)):
        target = asymptotic.defect_ratio_limit(0, k)
        errs = [exact.ratio_as_float(s[k] - s[k + 1], s[0] - s[1]) - target
                for s in tails.values()]
        falls, rate, detail = _order(ns, [abs(e) for e in errs])
        detail = f"ratio k={k} error {detail}"
        if not falls or rate < 0.75 or abs(errs[-1]) > 5e-2:
            return False, detail + ": not falling at rate >= 3/4 to <= 5e-2"
        extrapolated = _extrapolate(ns, errs, 1)
        detail += f", extrapolated {extrapolated:.2g}"
        if abs(extrapolated) > 3 * size:
            return False, detail + f" beyond {3 * size:.2g}"
        reached.append(detail)
    for k in (1, 2, 3):
        with decimal.localcontext() as ctx:
            ctx.prec = k + 30
            target = float(asymptotic._phi_decimal(0, k))
        falls, rate, detail = _order(
            ns, [abs(-n * exact.ratio_as_float(n ** n - tails[n][k], n ** n) - target)
                 for n in ns])
        detail = f"phi(0,{k}) error {detail}"
        if not falls or rate < 0.75:
            return False, detail + ": not falling at rate >= 3/4"
        reached.append(detail)
    return True, "; ".join(reached)


def check_tail_limit_grid():
    # P(defect >= x*sqrt(n)) at m = n + y*sqrt(n) against exp(-2x(x - y)),
    # at each x > y of the grid.  Each miss e(n) closes like 1/sqrt(n), and a
    # wrong limit's not at all.  Richardson's 2 e(1600) - e(400) cancels the
    # 1/sqrt(n) term; it is bounded by 3 times what is left on the true code,
    # as measured before the check's first run
    ns = (100, 400, 1600)
    measured = {(0.5, -1): 1.5e-4, (1, -1): 3.1e-5, (1.5, -1): 1.7e-6, (2, -1): 3.3e-8,
                (0.5, 0): 1.0e-4, (1, 0): 3.5e-5, (1.5, 0): 9.9e-6, (2, 0): 1.7e-6,
                (1.5, 1): 3.4e-5, (2, 1): 3.0e-5}
    reached = []
    for (x, y), size in measured.items():
        limit = asymptotic._limiting_tail(x, y)
        errs = []
        for n in ns:
            r = math.isqrt(n)
            m = n + y * r
            p = exact.ratio_as_float(exact.tail_sum_alternating(n, m, int(x * r)), n ** m)
            errs.append(p - limit)
        falls, rate, detail = _order(ns, [abs(e) for e in errs])
        detail = f"({x},{y}) tail error {detail}"
        if not falls or rate < 0.25 or abs(errs[-1]) > 0.05:
            return False, detail + ": not falling at rate >= 1/4 to <= 0.05"
        extrapolated = _extrapolate(ns, errs, 0.5)
        detail += f", extrapolated {extrapolated:.2g}"
        if abs(extrapolated) > 3 * size:
            return False, detail + f" beyond {3 * size:.2g}"
        reached.append(detail)
    return True, "; ".join(reached)


def check_full_lot_ordering():
    # plotdata-fig2's walk along m, bit for bit against point queries on
    # lambda = 1.05..4: n <= 3 sums one U term or none, n = 10 repeats m
    # and n = 20 starts above n; then the curves' order at n = 10, 20
    lams = range(105, 401, 5)
    probs = {}
    for n in (1, 2, 3, 10, 20):
        ms = [(i * n) // 100 for i in lams]
        counts = exact._full_lot_counts(n, ms)
        for m, count in zip(ms, counts):
            if count != exact.defect_count_explicit(n, m, m - n):
                return False, f"full-lot walk gave {count} at n={n}, m={m}"
        probs[n] = [exact.ratio_as_float(c, n ** m) for m, c in zip(ms, counts)]
    for i, p10, p20 in zip(lams, probs[10], probs[20]):
        lam = i / 100.0
        limit = asymptotic.full_lot_limit(lam)
        if not p10 >= p20 >= limit:
            return False, f"full-lot ordering broken at lambda={lam}: {[p10, p20]} vs {limit}"
    return True, ""


def check_limit_precision():
    # full_lot_limit within 4 ulp of a 50-digit solve for the conjugate
    # root t = lambda - u of t e**-t = lambda e**-lambda, that is of
    # f(u) = lambda (1 - e**-u) - u = 0 with u > 0, near lambda = 1 and
    # on each side of the switch between its two forms.  f is concave and
    # f(0) = 0, so a Newton step from any u in (0, lambda] lands at or
    # above the root, and from above it comes down without passing it:
    # from the double's own u, three steps move u by less than 1e-30 of
    # itself, and rounding then keeps it creeping down by about 1e-36
    import decimal
    lams = [1.0 + 10.0 ** -j for j in range(1, 13)] + [1.4, 1.6, 2.0, 2.8, 5.0, 30.0]
    worst, at = 0.0, None
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        tiny = decimal.Decimal("1e-30")
        for lam in lams:
            got = asymptotic.full_lot_limit(lam)
            big = decimal.Decimal(lam)
            u = big
            if 0.0 < got < 1.0:
                u = min(big, -(1 - decimal.Decimal(got)).ln() * decimal.Decimal("1.000000001"))
            for _ in range(200):
                e = (-u).exp()
                after = u - (big * (1 - e) - u) / (big * e - 1)
                if not after < u * (1 - tiny):
                    break
                u = after
            else:
                return False, f"reference solve did not settle at lambda={lam!r}"
            ref = 1 - (-u).exp()
            miss = float(abs(decimal.Decimal(got) - ref)) / math.ulp(float(ref))
            if miss > worst:
                worst, at = miss, lam
    if worst > 4.0:
        return False, f"full_lot_limit({at!r}) is {worst:.3g} ulp off"
    return True, f"worst {worst:.2f} ulp at lambda={at!r}"


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
    ("ratio-limit-values", check_ratio_limit_values),
    ("full-lot-ordering", check_full_lot_ordering),
    ("limit-precision", check_limit_precision),
]

FULL_CHECKS: list[tuple[str, Callable]] = QUICK_CHECKS + [
    ("ladder-split-agreement", check_ladder_split_agreement),
    ("exhaustive-oracle-full", check_exhaustive_oracle_full),
    ("park-implementations-10k", lambda: check_park_implementations(10 ** 4)),
    ("monte-carlo-calibration", check_monte_carlo_calibration),
    ("coupon-experiment", check_coupon_experiment),
    ("ratio-limits-exact", check_ratio_limits_exact),
    ("tail-limit-grid", check_tail_limit_grid),
    ("figure1-order", check_figure1_order),
]
