"""Tests for the exact counting module.

The reference table (defect counts for n = m up to 10) and the small
brute-force oracles here are the ground truth everything else is checked
against; the oracle simulator is written out locally so it shares no
code with the package.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from parkfun import checks, exact

# cp(n, n, k) for n = 1..10, k = 0..n-1; row n sums to n**n.
REFERENCE_TABLE = {
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


def oracle_park_defect(n, choices):
    """Independent mini-simulator: first free space at or after choice."""
    free = [True] * (n + 1)
    walked = 0
    for c in choices:
        spot = next((j for j in range(c, n + 1) if free[j]), None)
        if spot is None:
            walked += 1
        else:
            free[spot] = False
    return walked


def oracle_distribution(n, m):
    counts = [0] * (m + 1)
    for choices in itertools.product(range(1, n + 1), repeat=m):
        counts[oracle_park_defect(n, choices)] += 1
    return counts


def test_reference_table_recurrence():
    for n, row in REFERENCE_TABLE.items():
        assert [exact.defect_count_recurrence(n, n, k) for k in range(n)] == row


def test_reference_table_explicit():
    for n, row in REFERENCE_TABLE.items():
        assert [exact.defect_count_explicit(n, n, k) for k in range(n)] == row


def test_table_base_case():
    assert exact.table_value(0, 0, 0) == 1


def test_table_k0_slice_closed_form():
    # a(r, s, 0) = (r+1)(r+s+1)**(s-1); in particular a(1, 2, 0) = 2*4 = 8
    assert exact.table_value(1, 2, 0) == 8


def test_table_against_process_oracle():
    # a(1, 2, 1): 3 drivers on 3 spaces leaving 1 space empty, 2 taken,
    # 1 walker; brute force over all 27 sequences gives 10.
    hits = 0
    for choices in itertools.product((1, 2, 3), repeat=3):
        free = [True] * 4
        walked = 0
        for c in choices:
            spot = next((j for j in range(c, 4) if free[j]), None)
            if spot is None:
                walked += 1
            else:
                free[spot] = False
        if walked == 1 and free.count(False) == 2:
            hits += 1
    assert hits == 10
    assert exact.table_value(1, 2, 1) == 10


def test_table_negative_indices_are_zero():
    assert exact.table_value(-1, 0, 0) == 0
    assert exact.table_value(0, -2, 1) == 0
    table = exact.DefectTable(2, 2, 2)
    assert table.value(-1, 1, 1) == 0


def test_table_rejects_bad_bounds_and_out_of_range():
    with pytest.raises(ValueError):
        exact.DefectTable(-1, 2, 2)
    table = exact.DefectTable(2, 2, 1)
    with pytest.raises(ValueError):
        table.value(3, 1, 0)
    with pytest.raises(ValueError):
        table.value(1, 1, 40)


def test_defect_count_recurrence_examples():
    assert exact.defect_count_recurrence(3, 3, 1) == 10
    assert exact.defect_count_recurrence(10, 10, 0) == 2357947691
    assert exact.defect_count_recurrence(2, 3, 1) == 7  # brute force: 7 of 8
    assert exact.defect_count_recurrence(2, 3, 1) == oracle_distribution(2, 3)[1]


def test_defect_count_recurrence_out_of_range_is_zero():
    assert exact.defect_count_recurrence(3, 5, 0) == 0  # r = n - m + k < 0
    assert exact.defect_count_recurrence(3, 2, 3) == 0  # s = m - k < 0


def test_tail_sum_examples():
    assert exact.tail_sum(4, 4, 2) == 24  # == 2**4 + 4*2, and 23 + 1
    assert exact.tail_sum(5, 3, 0) == 125  # k = 0 gives n**m
    assert exact.tail_sum(2, 3, 2) == 1   # only (2,2,2) loses two drivers
    assert sum(oracle_distribution(2, 3)[2:]) == 1


def test_tail_sum_alternating_closed_forms():
    assert exact.tail_sum_alternating(5, 5, 1) == 5 ** 5 - 6 ** 4 == 1829
    assert exact.tail_sum_alternating(6, 6, 5) == 1
    assert all(exact.tail_sum(n, n, n) == 0 for n in range(2, 21))


def test_tail_forms_agree_on_grid():
    for n in range(1, 10):
        for m in range(10):
            for k in range(m + 1):
                assert exact.tail_sum(n, m, k) == exact.tail_sum_alternating(n, m, k)


def test_defect_count_explicit_examples():
    assert exact.defect_count_explicit(6, 6, 2) == 8402
    assert exact.defect_count_explicit(5, 3, 7) == 0  # k > m
    assert exact.defect_count_explicit(4, 7, 3) == 13686
    assert exact.defect_count_explicit(4, 7, 3) == exact.defect_count_recurrence(4, 7, 3)


def test_three_way_equivalence_grid():
    passed, detail = checks.check_three_way_equivalence(10, 12)
    assert passed, detail


def test_parking_function_count():
    assert exact.parking_function_count(3, 2) == 8
    assert exact.parking_function_count(9, 9) == 10 ** 8
    assert exact.parking_function_count(5, 0) == 1
    with pytest.raises(ValueError):
        exact.parking_function_count(3, 4)


def test_abel_identity_examples():
    assert exact.abel_identity_check(2, 3, 2)  # 9 + 8 + 8 == 25
    assert exact.abel_identity_check(1, 0, 0)
    assert exact.abel_identity_check(1, 0, 2)  # (b - i) goes negative
    with pytest.raises(ValueError):
        exact.abel_identity_check(-1, 2, 2)


def test_distribution_examples():
    assert exact.defect_distribution(4, 4).counts == (125, 107, 23, 1, 0)
    assert exact.defect_distribution(1, 1).counts == (1, 0)
    assert exact.defect_distribution(3, 5).counts == tuple(oracle_distribution(3, 5))


def test_distribution_row_sums_and_support():
    for n in range(1, 9):
        for m in range(11):
            dist = exact.defect_distribution(n, m)
            assert sum(dist.counts) == n ** m
            assert all(dist.counts[k] == 0 for k in range(max(0, m - n)))
            if m >= 1:
                assert dist.counts[m] == 0
    for n in range(1, 11):
        assert exact.defect_distribution(n, n).counts[n - 1] == 1


def test_distribution_degenerate_cases():
    assert exact.defect_distribution(0, 0).counts == (1,)
    with pytest.raises(ValueError):
        exact.defect_distribution(0, 3)
    with pytest.raises(ValueError):
        exact.defect_distribution(-1, 2)


def test_distribution_ladder_matches_tail_sum_differences():
    # covers m = 0, n = 1, m < n, m = n and m > n
    for n in range(1, 31):
        for m in range(41):
            tails = [exact.tail_sum(n, m, k) for k in range(m + 2)]
            want = tuple(tails[k] - tails[k + 1] for k in range(m + 1))
            assert exact.defect_distribution(n, m).counts == want, (n, m)


@pytest.mark.parametrize("n,m", [(330, 300), (300, 330), (10 ** 9, 80)])
def test_distribution_ladder_matches_alternating_form(n, m):
    counts = exact.defect_distribution(n, m).counts
    rng = random.Random(f"ladder:{n}:{m}")
    lo = max(0, m - n)
    for k in {lo, lo + 1, m} | {rng.randint(lo, m) for _ in range(6)}:
        want = (exact.tail_sum_alternating(n, m, k)
                - exact.tail_sum_alternating(n, m, k + 1))
        assert counts[k] == want, k


def test_distribution_budget_at_n_m_1000():
    t0 = time.perf_counter()
    counts = exact.defect_distribution(1000, 1000).counts
    elapsed = time.perf_counter() - t0
    assert sum(counts) == 1000 ** 1000 and counts[999] == 1
    assert elapsed < 8.0, f"{elapsed:.1f}s"


def test_counts_roundtrip_decimal_strings():
    for count in exact.defect_distribution(10, 10).counts:
        assert int(str(count)) == count and count >= 0


def test_tail_upper_bound():
    assert exact.tail_upper_bound_check(10, 10, 3)
    n, m = 7, 5
    assert exact.tail_sum(n, m, 0) == n ** m  # k = 0 is equality
    passed, detail = checks.check_tail_upper_bound(15, 15)
    assert passed, detail
    with pytest.raises(ValueError):
        exact.tail_upper_bound_check(4, 3, 5)


def test_ratio_as_float_matches_true_division():
    cases = [(1, 3), (2, 7), (10 ** 17 + 1, 10 ** 17), (-355, 113), (0, 5)]
    for num, den in cases:
        assert exact.ratio_as_float(num, den) == num / den


def test_ratio_as_float_huge_operands():
    num = 101 ** 99
    den = 100 ** 100
    got = exact.ratio_as_float(num, den)
    want = float(Fraction(num, den))
    assert math.isclose(got, want, rel_tol=1e-15)
    assert exact.ratio_as_float(4000 ** 4000, 4000 ** 4000) == 1.0
    with pytest.raises(ValueError):
        exact.ratio_as_float(1, 0)


def test_pascal_row_matches_math_comb():
    for n in (0, 1, 2, 7, 25):
        assert list(exact.pascal_row(n)) == [math.comb(n, j) for j in range(n + 1)]
    with pytest.raises(ValueError):
        exact.pascal_row(-1)
