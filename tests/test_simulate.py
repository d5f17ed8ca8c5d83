"""Process simulation against hand results, oracles, and exact counts."""

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from parkfun import exact, simulate
from parkfun.rng import SplitMix64, stream_u64, sub_seed, uniform_block

# Histograms of sample_empirical(n, m, trials, seed), trailing zeros cut;
# they pin the stream recipe and the block partition.
SAMPLE_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "sample_golden.json").read_text())


def test_park_identity_preferences():
    out = simulate.park(3, (1, 2, 3))
    assert out.assignment == (1, 2, 3)
    assert out.defect == 0
    assert out.occupied == frozenset({1, 2, 3})


def test_park_overflow_hand_simulation():
    out = simulate.park(2, (2, 2, 2))
    assert out.assignment == (2, None, None)
    assert out.defect == 2
    assert out.occupied == frozenset({2})


def test_park_one_space_two_drivers():
    assert simulate.park(1, (1, 1)).defect == 1


def test_park_rejects_bad_choices():
    with pytest.raises(ValueError):
        simulate.park(3, (0,))
    with pytest.raises(ValueError):
        simulate.park(3, (4,))
    with pytest.raises(ValueError):
        simulate.park(-1, ())


def test_park_empty_sequence():
    out = simulate.park(4, ())
    assert out.defect == 0 and out.occupied == frozenset()


def test_park_matches_naive_exhaustively():
    for n in range(1, 5):
        for m in range(5):
            for choices in itertools.product(range(1, n + 1), repeat=m):
                fast = simulate.park(n, choices)
                assert fast == simulate.park_naive(n, choices)
                assert fast.defect == simulate.defect_by_suffix_counts(n, choices)


def test_park_matches_naive_random_instances():
    gen = SplitMix64(2024)
    for _ in range(2000):
        n = gen.uniform_int(50)
        m = gen.uniform_int(80)
        choices = [gen.uniform_int(n) for _ in range(m)]
        fast = simulate.park(n, choices)
        assert fast == simulate.park_naive(n, choices)
        assert fast.defect == simulate.defect_by_suffix_counts(n, choices)


def test_park_outcome_consistency():
    gen = SplitMix64(5150)
    for _ in range(300):
        n = gen.uniform_int(20)
        m = gen.uniform_int(30)
        choices = [gen.uniform_int(n) for _ in range(m)]
        out = simulate.park(n, choices)
        parked = [s for s in out.assignment if s is not None]
        assert len(set(parked)) == len(parked)
        assert out.occupied == frozenset(parked)
        assert out.defect == m - len(parked)
        assert all(s >= c for s, c in zip(out.assignment, choices) if s is not None)


def test_park_appending_driver_is_monotone():
    gen = SplitMix64(31337)
    for _ in range(200):
        n = gen.uniform_int(12)
        m = gen.uniform_int(20)
        choices = [gen.uniform_int(n) for _ in range(m)]
        prev_defect, prev_occ = 0, 0
        for i in range(1, m + 1):
            out = simulate.park(n, choices[:i])
            assert out.defect >= prev_defect
            assert len(out.occupied) >= prev_occ
            prev_defect, prev_occ = out.defect, len(out.occupied)


def test_defect_invariant_under_permutations():
    gen = SplitMix64(808)
    for _ in range(25):
        n = gen.uniform_int(6)
        m = gen.uniform_int(6)
        base = [gen.uniform_int(n) for _ in range(m)]
        defects = {simulate.park(n, p).defect
                   for p in set(itertools.permutations(base))}
        assert len(defects) == 1


def test_enumerate_examples():
    assert simulate.enumerate_exhaustive(2, 2).counts == (3, 1, 0)
    assert simulate.enumerate_exhaustive(2, 3).counts == (0, 7, 1, 0)
    for m in range(1, 7):
        counts = simulate.enumerate_exhaustive(1, m).counts
        assert counts[m - 1] == 1 and sum(counts) == 1


def test_enumerate_matches_exact_distribution():
    for n in range(1, 7):
        for m in range(7):
            assert simulate.enumerate_exhaustive(n, m) == exact.defect_distribution(n, m)


def test_enumerate_wide_lot_within_budget():
    # n >> m: memory and time follow the n**m sequences, not n per sequence
    t0 = time.process_time()
    assert simulate.enumerate_exhaustive(1000, 2) == exact.defect_distribution(1000, 2)
    assert time.process_time() - t0 < 3.0


def test_enumerate_cap_refusal():
    with pytest.raises(simulate.EnumerationCapError, match="999"):
        simulate.enumerate_exhaustive(10, 12, cap=999)
    # refusal, not truncation: nothing is returned


def test_enumerate_degenerate():
    assert simulate.enumerate_exhaustive(5, 0).counts == (1,)
    assert simulate.enumerate_exhaustive(0, 0).counts == (1,)
    with pytest.raises(ValueError):
        simulate.enumerate_exhaustive(0, 2)


def test_sample_deterministic_replay():
    a = simulate.sample_empirical(9, 12, 5000, seed=123)
    b = simulate.sample_empirical(9, 12, 5000, seed=123)
    assert a == b
    assert sum(a.counts) == 5000
    c = simulate.sample_empirical(9, 12, 5000, seed=124)
    assert c != a


def test_sample_forced_outcomes():
    emp = simulate.sample_empirical(1, 1, 1000, seed=6)
    assert emp.counts == (1000, 0)
    emp = simulate.sample_empirical(3, 0, 50, seed=6)
    assert emp.counts == (50,)


def test_sample_tail_within_three_standard_errors():
    emp = simulate.sample_empirical(100, 100, 10 ** 5, seed=1)
    p = exact.ratio_as_float(exact.tail_sum_alternating(100, 100, 10), 100 ** 100)
    se = math.sqrt(p * (1 - p) / 10 ** 5)
    assert abs(emp.tail_frequency(10) - p) <= 3 * se


def test_sample_matches_exact_frequencies_small_case():
    emp = simulate.sample_empirical(2, 3, 10 ** 4, seed=1)
    freqs = emp.frequencies()
    assert freqs[0] == 0.0
    assert abs(freqs[1] - 7 / 8) < 0.015
    assert abs(freqs[2] - 1 / 8) < 0.015


@pytest.mark.parametrize("n, m", [(1, 1), (1, 7), (6, 1), (40, 9), (9, 40),
                                  (30, 30), (3, 25), (500, 20)])
def test_sorted_kernel_matches_suffix_counts_and_park(n, m):
    choices = uniform_block(sub_seed(4242, n * 100 + m), n, 300 * m).reshape(300, m)
    got = simulate._defects_in_place(n, choices - 1)
    for row, defect in zip(choices.tolist(), got.tolist()):
        assert defect == simulate.defect_by_suffix_counts(n, row)
        assert defect == simulate.park(n, row).defect


@pytest.mark.parametrize(
    "case", SAMPLE_GOLDEN,
    ids=lambda c: "n{n}-m{m}-t{trials}-s{seed}".format(**c))
def test_sample_histograms_are_frozen(case):
    emp = simulate.sample_empirical(case["n"], case["m"], case["trials"], case["seed"])
    assert list(emp.counts) == case["counts"] + [0] * (case["m"] + 1 - len(case["counts"]))


def _scalar_replay(n, m, trials, seed, score):
    """The documented recipe, one scalar draw at a time."""
    counts = [0] * (m + 1)
    for b, start in enumerate(range(0, trials, simulate.SAMPLE_BLOCK_TRIALS)):
        gen = SplitMix64(sub_seed(seed, b))
        for _ in range(min(simulate.SAMPLE_BLOCK_TRIALS, trials - start)):
            counts[score(n, [gen.uniform_int(n) for _ in range(m)])] += 1
    return tuple(counts)


def test_sample_matches_scalar_replay_over_three_blocks():
    # m = 40 puts three chunks in each block; 9000 trials end mid-block 2
    n, m, trials, seed = 30, 40, 9000, 11
    want = _scalar_replay(n, m, trials, seed, lambda n, c: simulate.park(n, c).defect)
    assert simulate.sample_empirical(n, m, trials, seed).counts == want


def _walkers(n, choices):
    # park() allocates O(n) spaces; near n = 2**63 walk an occupied set
    taken = set()
    for c in choices:
        while c in taken:
            c += 1
        if c <= n:
            taken.add(c)
    return len(choices) - len(taken)


def test_sample_rejection_past_first_chunk_replays_whole_block():
    # 2**64 mod n = 2**47, so one word in 2**17 is rejected.  In block 0
    # of seed 9 the first rejected word lies in the second chunk, after
    # the first chunk has been scored; block 1 has none.
    n, m, trials, seed = (1 << 63) - (1 << 46), 40, 5000, 9
    limit = ((1 << 64) // n) * n
    block = simulate.SAMPLE_BLOCK_TRIALS * m
    rejected = np.flatnonzero(stream_u64(sub_seed(seed, 0), 0, block) >= np.uint64(limit))
    assert (simulate.CHUNK_WORDS // m) * m <= rejected[0] < block
    assert not (stream_u64(sub_seed(seed, 1), 0, (trials - 4096) * m)
                >= np.uint64(limit)).any()
    want = _scalar_replay(n, m, trials, seed, _walkers)
    assert simulate.sample_empirical(n, m, trials, seed).counts == want


def test_cars_until_full_trivial_and_deterministic():
    assert all(simulate.cars_until_full(1, s) == 1 for s in range(25))
    assert simulate.cars_until_full(10, 42) == simulate.cars_until_full(10, 42) == 10
    with pytest.raises(ValueError):
        simulate.cars_until_full(0, 1)
