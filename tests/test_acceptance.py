"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints `criterion NN [name]: PASS/FAIL` (visible with -s, and
in captured output on failure).  Stated runtime budgets are asserted
directly; all machines we run on finish far inside them.  A criterion
that states a named check of `parkfun.checks` calls that check.
"""

import math
import time

from parkfun import asymptotic, checks, exact

TABLE = {
    1: [1],
    2: [3, 1],
    3: [16, 10, 1],
    4: [125, 107, 23, 1],
    5: [1296, 1346, 436, 46, 1],
    6: [16807, 19917, 8402, 1442, 87, 1],
    7: [262144, 341986, 173860, 41070, 4320, 162, 1],
    8: [4782969, 6713975, 3924685, 1166083, 176843, 12357, 303, 1],
    9: [100000000, 148717762, 96920092, 34268902, 6768184, 710314,
        34660, 574, 1],
    10: [2357947691, 3674435393, 2612981360, 1059688652, 256059854,
         36046214, 2743112, 96620, 1103, 1],
}


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {num:02d} [{name}]: {status}{suffix}")
    return ok


def test_criterion_01_reference_table_both_paths():
    t0 = time.perf_counter()
    ok = True
    for n, row in TABLE.items():
        for k in range(n):
            ok &= exact.defect_count_recurrence(n, n, k) == row[k]
            ok &= exact.defect_count_explicit(n, n, k) == row[k]
    elapsed = time.perf_counter() - t0
    assert report(1, "reference table, both paths", ok, f"{elapsed:.2f}s")
    assert elapsed < 1.0


def test_criterion_02_exhaustive_equals_exact():
    t0 = time.perf_counter()
    pairs = checks.exhaustive_pairs(10 ** 6)
    assert (2, 19) in pairs and (3, 12) in pairs and (6, 6) in pairs
    ok, detail = checks.check_exhaustive_oracle_full()
    elapsed = time.perf_counter() - t0
    assert report(2, "exhaustive enumeration oracle", ok,
                  f"{detail}, {elapsed:.1f}s")
    assert elapsed < 30.0


def test_criterion_03_pollak_formula():
    ok, detail = checks.check_pollak(20)
    assert report(3, "defect-free closed form", ok), detail


def test_criterion_04_abel_identity_grid():
    ok, detail = checks.check_abel_grid(8)
    assert report(4, "Abel identity on [0,8]^3", ok), detail


def test_criterion_05_row_sums():
    ok, detail = checks.check_row_sums(12, 14)
    assert report(5, "row sums equal n^m", ok), detail


def test_criterion_06_tail_forms_agree():
    ok = True
    for n in range(1, 13):
        for m in range(13):
            for k in range(m + 3):
                ok &= exact.tail_sum(n, m, k) == exact.tail_sum_alternating(n, m, k)
    assert report(6, "both tail-sum forms agree", ok)


def test_criterion_07_ratio_limits():
    t0 = time.perf_counter()
    ok, detail = checks.check_ratio_limits_exact((250, 1000, 4000))
    elapsed = time.perf_counter() - t0
    assert report(7, "fixed-defect ratio limits", ok,
                  detail + f", {elapsed:.2f}s")
    assert elapsed < 60.0


def test_criterion_08_rayleigh_tail_trend():
    ok, detail = checks.check_tail_trend((100, 400, 1600))
    assert report(8, "tail at sqrt(n) approaches e^-2", ok, detail)


def test_criterion_09_density_integral():
    t0 = time.perf_counter()
    ok, detail = checks.check_density_integral_grid()
    elapsed = time.perf_counter() - t0
    assert report(9, "proof-integral quadrature", ok, f"{elapsed:.2f}s"), detail
    assert elapsed < 5.0


def test_criterion_10_tree_function_fidelity():
    results = [checks.check_tree_function_grid(1000), checks.check_series_vs_tree()]
    ok = all(passed for passed, _ in results)
    assert report(10, "tree function fidelity", ok), results


def _figure1_gaps(n, m):
    """|exact - approx| over the k of the approximation's regime m < n + k.

    Returns the bulk gap (the largest over k >= 1) and the gap at the
    k = 0 atom, which is None when k = 0 lies outside the regime (m >= n).
    """
    probs = exact.defect_distribution(n, m).probabilities()
    gaps = {k: abs(probs[k] - asymptotic.pmf_approx(n, m, k))
            for k in range(m + 1) if m < n + k}
    edge = gaps.pop(0, None)
    return max(gaps.values()), edge


def test_criterion_11_figure1_agreement():
    # Panels m = n + y*sqrt(n), y in {-1, 0, +1}: at n = 100 these are
    # figure 1's m = 90, 100, 110.  The bulk gap of a right curve falls
    # like 1/n and that of a wrong one like 1/sqrt(n); 3/4 is the midpoint
    # of the two rates.  At the k = 0 atom (y < 0) sqrt(n)*P(defect = 0)
    # tends to e|y| by Pollak's formula, while pmf_approx gives 2|y|, so
    # sqrt(n)*gap tends to (e - 2)|y| and the miss from that limit decays.
    t0 = time.perf_counter()
    sizes = (100, 225, 400)
    min_rate = 0.75

    def rate(first, last):
        return math.log(first / last) / math.log(sizes[-1] / sizes[0])

    ok = True
    details = []
    for y in (-1, 0, 1):
        bulk, edge = zip(*(_figure1_gaps(n, n + y * math.isqrt(n))
                           for n in sizes))
        bulk_rate = rate(bulk[0], bulk[-1])
        ok &= bulk[0] > bulk[1] > bulk[2]
        ok &= bulk[-1] <= 0.02
        ok &= bulk_rate >= min_rate
        m0 = sizes[0] + y * math.isqrt(sizes[0])
        detail = (f"y={y} (m={m0} at n={sizes[0]}): bulk@n={sizes} "
                  f"{'/'.join('%.4f' % g for g in bulk)}, rate {bulk_rate:.2f}")
        if y < 0:
            miss = [abs((math.e - 2) * abs(y) - math.sqrt(n) * g)
                    for n, g in zip(sizes, edge)]
            edge_rate = rate(miss[0], miss[-1])
            ok &= edge_rate >= min_rate
            detail += (f"; k=0 gap@n={sizes[0]} {edge[0]:.4f}, "
                       f"|(e-2)|y|-sqrt(n)*gap| "
                       f"{'/'.join('%.4f' % d for d in miss)}, "
                       f"rate {edge_rate:.2f}")
        details.append(detail)
    elapsed = time.perf_counter() - t0
    assert report(11, "figure-1 approximation converges", ok,
                  " | ".join(details) + f", {elapsed:.2f}s")
    assert elapsed < 20.0


def test_criterion_12_figure2_ordering():
    ok, detail = checks.check_full_lot_ordering()
    assert report(12, "figure-2 top-to-bottom ordering", ok), detail


def test_criterion_13_monte_carlo_calibration():
    trials, seed = 10 ** 5, 1
    ok, detail = checks.check_monte_carlo_calibration(trials, seed)
    assert report(13, "Monte Carlo calibration", ok, f"seed={seed}, {detail}")
