"""Tests for the exact counting module.

The reference table (defect counts for n = m up to 10) and the small
brute-force oracles here are the ground truth everything else is checked
against; the oracle simulator is written out locally so it shares no
code with the package.
"""

import copy
import gc
import itertools
import pickle
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from parkfun import exact


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


def test_table_refuses_negative_indices():
    table = exact.DefectTable(2, 2, 2)
    for r, s, k in [(-1, 0, 0), (0, -1, 1), (-1, 1, 1), (1, 1, -1)]:
        with pytest.raises(ValueError, match="outside table bounds"):
            table.value(r, s, k)


def test_table_rejects_bad_bounds_and_out_of_range():
    with pytest.raises(ValueError):
        exact.DefectTable(-1, 2, 2)
    table = exact.DefectTable(2, 2, 1)
    for r, s, k in [(3, 1, 0), (1, 1, 40)]:
        with pytest.raises(ValueError, match="outside table bounds"):
            table.value(r, s, k)


@pytest.mark.parametrize("bounds", [(0, 0, 0), (0, 6, 4), (6, 0, 4), (1, 1, 9),
                                    (12, 3, 9), (3, 12, 2), (9, 9, 3),
                                    (2, 20, 1), (20, 2, 20), (32, 4, 3), (0, 0, 3)])
def test_table_every_stored_cell_is_the_abel_count(bounds):
    # a(r, s, k) = cp(r + s, s + k, k) in every lane of every stored cell,
    # column 0 and each column's top k = k_max + s_max - s included; at
    # (2, 20, 1) the (1 + x)**s passes dominate the fill, at (20, 2, 20) the k passes;
    # (32, 4, 3) has 33 lanes, so the k = 0 scan's last shift-add carries
    # lane 0 into lane 32, and (0, 0, 3) has the bound 0**3 = 0 but a(0, 0, 0) = 1
    r_max, s_max, k_max = bounds
    table = exact.DefectTable(*bounds)
    for s in range(s_max + 1):
        k_cap = k_max + s_max - s
        for r in range(r_max + 1):
            for k in range(k_cap + 1):
                assert table.value(r, s, k) == exact.defect_count_explicit(
                    r + s, s + k, k), (r, s, k)
            with pytest.raises(ValueError):
                table.value(r, s, k_cap + 1)


def test_table_widest_lanes():
    # s + k = s_max + k_max is the widest entry a lane must hold: a lane
    # one bit too narrow would mask it, or carry into the next lane
    table = exact.DefectTable(50, 50, 15)
    for s in (1, 25, 50):
        k = 65 - s
        for r in (0, 49, 50):
            assert table.value(r, s, k) == exact.defect_count_explicit(r + s, 65, k), (r, s)


def test_defect_count_recurrence_examples():
    assert exact.defect_count_recurrence(3, 3, 1) == 10
    assert exact.defect_count_recurrence(10, 10, 0) == 2357947691
    assert exact.defect_count_recurrence(2, 3, 1) == 7  # brute force: 7 of 8
    assert exact.defect_count_recurrence(2, 3, 1) == oracle_distribution(2, 3)[1]
    assert exact.defect_count_recurrence(3, 0, 0) == 1  # s = 0: no driver, none walks


def test_defect_count_recurrence_out_of_range_is_zero():
    assert exact.defect_count_recurrence(3, 5, 0) == 0  # r = n - m + k < 0
    assert exact.defect_count_recurrence(3, 4, 0) == 0  # r = -1, the edge
    assert exact.defect_count_recurrence(3, 2, 3) == 0  # s = m - k < 0


@pytest.mark.parametrize("args", [(-1, 3, 1), (3, -1, 1), (3, 3, -1)])
def test_negative_arguments_refused(args):
    for fn in (exact.tail_sum, exact.tail_sum_alternating, exact.defect_count_recurrence):
        with pytest.raises(ValueError, match="n, m, k must be nonnegative"):
            fn(*args)


def test_tail_sum_examples():
    assert exact.tail_sum(4, 4, 2) == 24  # == 2**4 + 4*2, and 23 + 1
    assert exact.tail_sum(5, 3, 0) == 125  # k = 0 gives n**m
    assert exact.tail_sum(2, 3, 2) == 1   # only (2,2,2) loses two drivers
    assert sum(oracle_distribution(2, 3)[2:]) == 1


def test_tail_sum_k0_is_every_sequence(monkeypatch):
    # every sequence has at least 0 walkers, so k = 0 needs no Abel sum
    monkeypatch.setattr(exact, "_diagonal", None)
    grid = [(n, m) for n in range(8) for m in range(11)] + [(10 ** 9, 40), (3, 50)]
    for n, m in [(0, 0), (0, 3), (5, 0), (4, 9)] + grid:
        assert exact.tail_sum(n, m, 0) == n ** m, (n, m)


def test_tail_sum_alternating_closed_forms():
    assert exact.tail_sum_alternating(5, 5, 1) == 5 ** 5 - 6 ** 4 == 1829
    assert exact.tail_sum_alternating(6, 6, 5) == 1
    assert all(exact.tail_sum(n, n, n) == 0 for n in range(2, 21))


def test_defect_count_explicit_examples():
    assert exact.defect_count_explicit(6, 6, 2) == 8402
    assert exact.defect_count_explicit(5, 3, 7) == 0  # k > m
    assert exact.defect_count_explicit(4, 7, 3) == 13686
    assert exact.defect_count_explicit(4, 7, 3) == exact.defect_count_recurrence(4, 7, 3)


def test_parking_function_count():
    assert exact.parking_function_count(3, 2) == 8
    assert exact.parking_function_count(9, 9) == 10 ** 8
    assert exact.parking_function_count(5, 0) == 1
    assert type(exact.parking_function_count(5, 0)) is int
    with pytest.raises(ValueError):
        exact.parking_function_count(3, 4)


def test_abel_identity_examples():
    for args in [(-1, 2, 2), (2, -1, 2), (2, 2, -1)]:
        with pytest.raises(ValueError, match="a, b, m must be nonnegative"):
            exact.abel_identity_check(*args)


def test_distribution_examples():
    assert exact.defect_distribution(4, 4).counts == (125, 107, 23, 1, 0)
    assert exact.defect_distribution(1, 1).counts == (1, 0)
    assert exact.defect_distribution(3, 5).counts == tuple(oracle_distribution(3, 5))


def test_distribution_degenerate_cases():
    assert exact.defect_distribution(0, 0).counts == (1,)
    for m in (1, 3):
        with pytest.raises(ValueError, match="no spaces"):
            exact.defect_distribution(0, m)
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


def test_split_rule():
    assert exact._split(1000, 1000) == 400                   # 2m/5
    assert exact._split(10 ** 9, 500) == 200
    assert exact._split(300, 330) == 132                     # lo = 31 below 2m/5
    assert exact._split(200, 390) == 191                     # lo past 2m/5
    assert exact._split(50, 200) == 151
    for n, m in [(0, 0), (1, 0), (1, 7), (5, 0), (5, 1)]:
        assert exact._split(n, m) == max(0, m - n + 1)


def test_distribution_record():
    from parkfun import simulate
    d = exact.defect_distribution(3, 2)
    assert (d.n, d.m, d.counts, d.total) == (3, 2, (8, 1, 0), 9)
    assert d.probabilities() == [8 / 9, 1 / 9, 0.0]
    assert d != exact.DefectDistribution(3, 2, (7, 2, 0))
    assert d != exact.DefectDistribution(4, 2, (8, 1, 0))
    assert d != exact.DefectDistribution(3, 3, (8, 1, 0))
    emp = simulate.EmpiricalDistribution(n=3, m=2, trials=9, seed=1, counts=(8, 1, 0))
    assert emp.tail_frequency(1) == 1 / 9
    out = simulate.park(3, [2, 2, 3])
    assert (out.occupied, out.defect) == (frozenset({2, 3}), 1)
    # every result record is a _Record: equal only within its own class
    records = [
        (d, exact.DefectDistribution(n=3, m=2, counts=(8, 1, 0)),
         "DefectDistribution(n=3, m=2, counts=(8, 1, 0))"),
        (emp, simulate.EmpiricalDistribution(3, 2, 9, 1, (8, 1, 0)),
         "EmpiricalDistribution(n=3, m=2, trials=9, seed=1, counts=(8, 1, 0))"),
        (out, simulate.ParkOutcome(n=3, assignment=(2, 3, None)),
         "ParkOutcome(n=3, assignment=(2, 3, None))"),
    ]
    for rec, same, text in records:
        fields = tuple(rec)
        assert isinstance(rec, exact._Record) and repr(rec) == text
        assert rec == same and hash(rec) == hash(same) == hash(fields)
        assert len({rec, same}) == 1
        sub = type("Sub", (type(rec),), {"__slots__": ()})(*fields)
        for other in (fields, sub, *(r for r, _, _ in records if r is not rec)):
            assert rec != other and other != rec and not rec == other
        for name in (*rec._fields, "other"):
            with pytest.raises(AttributeError):
                setattr(rec, name, 1)
            with pytest.raises(AttributeError):
                delattr(rec, name)
        for order in (lambda: rec < same, lambda: same >= rec, lambda: fields < rec):
            with pytest.raises(TypeError):
                order()
        assert copy.copy(rec) == pickle.loads(pickle.dumps(rec)) == rec


def test_distribution_budget_at_n_m_1000():
    t0 = time.perf_counter()
    counts = exact.defect_distribution(1000, 1000).counts
    elapsed = time.perf_counter() - t0
    assert sum(counts) == 1000 ** 1000 and counts[999] == 1
    assert elapsed < 8.0, f"{elapsed:.1f}s"


def test_counts_roundtrip_decimal_strings():
    for count in exact.defect_distribution(10, 10).counts:
        assert int(str(count)) == count and count >= 0


def test_ratio_as_float_matches_true_division():
    # the last two quotients are subnormal: rounding twice misses them by an ulp
    cases = [(1, 3), (2, 7), (10 ** 17 + 1, 10 ** 17), (-355, 113), (0, 5),
             (66, 10 ** 312), (12, 10 ** 309)]
    for num, den in cases:
        assert exact.ratio_as_float(num, den) == num / den


def test_ratio_as_float_huge_operands():
    num = 101 ** 99
    den = 100 ** 100
    assert exact.ratio_as_float(num, den) == float(Fraction(num, den))
    assert exact.ratio_as_float(4000 ** 4000, 4000 ** 4000) == 1.0
    with pytest.raises(ValueError):
        exact.ratio_as_float(1, 0)


def test_exact_queries_retain_no_memory():
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        exact.tail_sum_alternating(3000, 3000, 3)
        exact.DefectTable(30, 30, 10).value(30, 30, 10)
        exact.defect_distribution(200, 210)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024, f"{grown} bytes kept"
