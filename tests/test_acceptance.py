"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints `criterion NN [name]: PASS/FAIL` (visible with -s, and
in captured output on failure).  Stated runtime budgets are asserted
directly; all machines we run on finish far inside them.  A criterion
that states a named check of `parkfun.checks` reads that check's one
run from the `full_check` fixture, and asserts its budget on the
seconds that run took.
"""

import time

from parkfun import checks, exact

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


def test_criterion_02_exhaustive_equals_exact(full_check):
    pairs = checks.exhaustive_pairs()
    assert (2, 19) in pairs and (3, 12) in pairs and (6, 6) in pairs
    ok, detail, elapsed = full_check("exhaustive-oracle-full")
    assert report(2, "exhaustive enumeration oracle", ok,
                  f"{detail}, {elapsed:.1f}s")
    assert elapsed < 30.0


def test_criterion_03_pollak_formula(full_check):
    ok, detail, _ = full_check("pollak-consistency")
    assert report(3, "defect-free closed form", ok), detail


def test_criterion_04_abel_identity_grid(full_check):
    ok, detail, _ = full_check("abel-identity-grid")
    assert report(4, "Abel identity on [0,8]^3", ok), detail


def test_criterion_05_row_sums(full_check):
    ok, detail, _ = full_check("row-sums")
    assert report(5, "row sums equal n^m", ok), detail


def test_criterion_06_tail_forms_agree():
    ok = True
    for n in range(1, 13):
        for m in range(13):
            for k in range(m + 3):
                ok &= exact.tail_sum(n, m, k) == exact.tail_sum_alternating(n, m, k)
    assert report(6, "both tail-sum forms agree", ok)


def test_criterion_07_ratio_limits(full_check):
    ok, detail, elapsed = full_check("ratio-limits-exact")
    assert report(7, "fixed-defect ratio limits", ok,
                  detail + f", {elapsed:.2f}s")
    assert elapsed < 60.0


def test_criterion_08_rayleigh_tail_trend(full_check):
    ok, detail, _ = full_check("tail-limit-grid")
    assert report(8, "tail at sqrt(n) approaches e^-2", ok, detail)


def test_criterion_09_density_integral(full_check):
    # the criterion's limit, exp(-2x(x - y)), which the proof writes as an
    # integral over the occupancy fraction, held against exact counts
    ok, detail, elapsed = full_check("tail-limit-grid")
    assert report(9, "tail limit against counts on a grid", ok,
                  f"{elapsed:.2f}s"), detail
    assert elapsed < 5.0


def test_criterion_10_tree_function_fidelity(full_check):
    results = [full_check(name)[:2] for name in ("tree-function-grid", "limit-precision")]
    ok = all(passed for passed, _ in results)
    assert report(10, "tree function fidelity", ok), results


def test_criterion_11_figure1_agreement(full_check):
    ok, detail, elapsed = full_check("figure1-order")
    assert report(11, "figure-1 approximation converges", ok,
                  detail + f", {elapsed:.2f}s")
    assert elapsed < 20.0


def test_criterion_12_figure2_ordering(full_check):
    ok, detail, _ = full_check("full-lot-ordering")
    assert report(12, "figure-2 top-to-bottom ordering", ok), detail


def test_criterion_13_monte_carlo_calibration(full_check):
    # the named check samples 10**5 trials with seed 1
    ok, detail, _ = full_check("monte-carlo-calibration")
    assert report(13, "Monte Carlo calibration", ok, f"seed=1, {detail}")
