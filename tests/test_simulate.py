"""Process simulation against hand results, oracles, and exact counts."""

import collections
import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from parkfun import exact, simulate
from parkfun.rng import SplitMix64, _Residues, sub_seed, uniform_block

# Histograms of sample_empirical(n, m, trials, seed), trailing zeros cut;
# they pin the stream recipe and the block partition.
SAMPLE_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "sample_golden.json").read_text())
# cars_until_full(n, sub_seed(seed, i)) for i = 0, 1, 2, recorded when the
# process was still run car by car; they pin the coupon stream.
COUPON_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "coupon_golden.json").read_text())


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


@pytest.mark.parametrize("fn", [simulate.park, simulate.park_naive,
                                simulate.defect_by_suffix_counts])
@pytest.mark.parametrize("n, choices, bad", [
    (3, (9, 2, 0), 9),          # first, with a later bad choice too
    (3, (2, 0, 3, 5), 0),       # middle
    (3, (1, 2, 3, 4), 4),       # last
    (0, (1,), 1),               # no spaces: every choice is bad
    (3, (1, float("nan")), "nan"),  # compares false both ways
])
def test_bad_choice_message_names_the_first(fn, n, choices, bad):
    with pytest.raises(ValueError, match=rf"^choice {bad} outside 1\.\.{n}$"):
        fn(n, choices)
    with pytest.raises(ValueError, match="nonnegative"):
        fn(-1, ())
    out = fn(n, ())             # no choices: nothing to check, on any lot
    assert getattr(out, "defect", out) == 0


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


def test_park_naive_walk_home_sentinel():
    # drivers 2 and 5 find only the sentinel past space 3 and walk
    naive = simulate.park_naive(3, [3, 3, 2, 1, 1])
    assert naive.assignment == (3, None, 2, 1, None)
    assert naive.defect == 2
    assert naive == simulate.park(3, [3, 3, 2, 1, 1])
    assert simulate.park_naive(0, ()).defect == 0


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


def test_enumerate_examples():
    assert simulate.enumerate_exhaustive(2, 2).counts == (3, 1, 0)
    assert simulate.enumerate_exhaustive(2, 3).counts == (0, 7, 1, 0)
    for m in range(1, 7):
        counts = simulate.enumerate_exhaustive(1, m).counts
        assert counts[m - 1] == 1 and sum(counts) == 1


def test_enumerate_wide_lot_within_budget():
    # n >> m: memory and time follow the n**m sequences, not n per sequence
    t0 = time.process_time()
    assert simulate.enumerate_exhaustive(1000, 2) == exact.defect_distribution(1000, 2)
    assert time.process_time() - t0 < 3.0


def test_enumerate_edge_lots_within_budget():
    # one row of 10**6 choices; few multisets behind many sequences
    t0 = time.process_time()
    counts = simulate.enumerate_exhaustive(1, 10 ** 6).counts
    assert time.process_time() - t0 < 1.0
    assert counts[-2] == sum(counts) == 1
    for n, m in [(2, 26), (3, 16)]:
        t0 = time.process_time()
        got = simulate.enumerate_exhaustive(n, m)
        assert time.process_time() - t0 < 1.0
        assert got == exact.defect_distribution(n, m)


@pytest.mark.parametrize("n, m", [
    (3, 5),
    (3000, 1),
    (1, 9),          # a single sequence
    (2, 20),
    (4, 8),
    (7, 7),
    (5, 9),
    (1000, 2),       # 16 chunks, the last one short
])
def test_enumerate_visits_each_multiset_once(n, m, monkeypatch):
    multisets = simulate._multisets
    chunks = []

    def spy(n, m):
        for rows, weights in multisets(n, m):
            chunks.append((rows.copy(), weights.copy()))
            yield rows, weights

    monkeypatch.setattr(simulate, "_multisets", spy)
    assert simulate.enumerate_exhaustive(n, m) == exact.defect_distribution(n, m)
    assert all(rows.size <= simulate.CHUNK_WORDS for rows, _ in chunks)
    rows = np.concatenate([rows for rows, _ in chunks])
    weights = np.concatenate([weights for _, weights in chunks])
    # distinct nondecreasing rows over 0..n-1, as many as there are multisets
    assert (np.diff(rows, axis=1) >= 0).all() and rows.min() >= 0 and rows.max() < n
    assert len(set(map(tuple, rows.tolist()))) == len(rows) == math.comb(n + m - 1, m)
    assert weights.sum() == n ** m
    if n ** m * m <= 10 ** 6:
        want = collections.Counter(tuple(sorted(s))
                                   for s in itertools.product(range(n), repeat=m))
        assert dict(zip(map(tuple, rows.tolist()), weights.tolist())) == want


def test_enumerate_cap_refusal():
    # refusal, not truncation: nothing is returned; 10**12 is over the cap
    # by its bit length alone, 3**17 = 129140163 only once it is built
    with pytest.raises(simulate.EnumerationCapError,
                       match=r"^10\*\*12 sequences exceeds the enumeration cap 100000000$"):
        simulate.enumerate_exhaustive(10, 12)
    with pytest.raises(simulate.EnumerationCapError,
                       match=r"^3\*\*17 = 129140163 sequences exceeds"):
        simulate.enumerate_exhaustive(3, 17)
    # 2**27 > 10**8 and low = 27 is the cap's bit length, so the power
    # is refused unbuilt and the message gives no value
    with pytest.raises(simulate.EnumerationCapError,
                       match=r"^2\*\*27 sequences exceeds the enumeration cap 100000000$"):
        simulate.enumerate_exhaustive(2, 27)


def test_enumerate_huge_lot_refused_unbuilt():
    # n**m past the cap's bit length is refused before the power is built;
    # 10**5000 has more digits than CPython will format
    for m in (5000, 10 ** 8):
        t0 = time.process_time()
        with pytest.raises(simulate.EnumerationCapError, match=rf"^10\*\*{m} sequences"):
            simulate.enumerate_exhaustive(10, m)
        assert time.process_time() - t0 < 1.0


def test_enumerate_degenerate():
    assert simulate.enumerate_exhaustive(5, 0).counts == (1,)
    assert simulate.enumerate_exhaustive(1, 0) == exact.defect_distribution(1, 0)
    assert simulate.enumerate_exhaustive(0, 0).counts == (1,)
    with pytest.raises(ValueError):
        simulate.enumerate_exhaustive(0, 2)


def test_sample_forced_outcomes():
    emp = simulate.sample_empirical(1, 1, 1000, seed=6)
    assert emp.counts == (1000, 0)
    emp = simulate.sample_empirical(3, 0, 50, seed=6)
    assert emp.counts == (50,)


def test_tail_frequency_refuses_negative_k():
    emp = simulate.sample_empirical(5, 5, 1000, seed=1)
    assert emp.tail_frequency(0) == 1.0
    with pytest.raises(ValueError):
        emp.tail_frequency(-1)


@pytest.mark.parametrize("n, m", [(1, 1), (1, 7), (6, 1), (40, 9), (9, 40),
                                  (30, 30), (3, 25), (500, 20)])
def test_sorted_kernel_matches_suffix_counts_and_park(n, m):
    choices = uniform_block(sub_seed(4242, n * 100 + m), n, 300 * m).reshape(300, m)
    got = simulate._defects_in_place(n, choices - 1)
    assert (simulate._defects_in_place(n, (choices - 1).astype(np.int32)) == got).all()
    for row, defect in zip(choices.tolist(), got.tolist()):
        assert defect == simulate.defect_by_suffix_counts(n, row)
        assert defect == simulate.park(n, row).defect


def test_kernel_int32_rows_reach_the_top_space():
    # at n = 2**31 the last space, 0-based 2**31 - 1, is int32's largest value
    n, m = 1 << 31, 30
    choices = uniform_block(sub_seed(31, 0), n, 200 * m).reshape(200, m) - 1
    choices[::3, ::4] = n - 1
    choices[1::5] = n - 1
    choices[2::7, :m // 2] = n - 2
    got = simulate._defects_in_place(n, choices.copy())
    assert (simulate._defects_in_place(n, choices.astype(np.int32)) == got).all()
    assert got.tolist() == [_walkers(n, row + 1) for row in choices]
    assert max(got) == m - 1


def test_kernel_int16_rows_reach_both_ends():
    # at n = m = 2**15 an all-zero row reaches c - j = -(2**15 - 1) in its
    # last column, and an all-(n - 1) row reaches n - 1 in its first
    n = m = 1 << 15
    choices = uniform_block(sub_seed(15, 0), n, 6 * m).reshape(6, m) - 1
    choices[0] = 0
    choices[1] = n - 1
    choices[2, :m // 2] = n - 1
    got = simulate._defects_in_place(n, choices.copy())
    assert (simulate._defects_in_place(n, choices.astype(np.int16)) == got).all()
    assert got.tolist() == [simulate.defect_by_suffix_counts(n, row + 1) for row in choices]
    assert got[:2].tolist() == [0, m - 1]


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
    # the first chunk has been scored; block 1 has none.  The chunks after
    # that word read on one word later.  At this n, 40 drivers never
    # collide, so every histogram is all zeros whatever words are drawn;
    # test_sample_scores_the_accepted_stream checks the words.
    n, m, trials, seed = (1 << 63) - (1 << 46), 40, 5000, 9

    def words_read(index, count):
        # count accepted draws read more than count words iff one was rejected
        return _Residues(n, count).draws(sub_seed(seed, index), 0, count)[1]

    chunk = (simulate.CHUNK_WORDS // m) * m
    block = simulate.SAMPLE_BLOCK_TRIALS * m
    tail = (trials - simulate.SAMPLE_BLOCK_TRIALS) * m
    assert words_read(0, chunk) == chunk
    assert words_read(0, block) > block
    assert words_read(1, tail) == tail
    want = _scalar_replay(n, m, trials, seed, _walkers)
    assert simulate.sample_empirical(n, m, trials, seed).counts == want


def _assert_scores_accepted_stream(n, monkeypatch, m=40, trials=9000):
    # Copied before the kernel sorts them and concatenated, the scored rows
    # must be each block's accepted draws in stream order.  Returns the
    # sampled histogram and those draws as rows of choices 1..n.
    seed = 11
    kernel = simulate._defects_in_place
    scored = []

    def spy(n, choices):
        scored.append(choices.copy())
        return kernel(n, choices)

    monkeypatch.setattr(simulate, "_defects_in_place", spy)
    got = simulate.sample_empirical(n, m, trials, seed)
    if n <= 1 << 15 and m <= 1 << 15:
        dtype = np.int16
    else:
        dtype = np.int32 if n <= 1 << 31 else np.int64
    assert {c.dtype for c in scored} == {np.dtype(dtype)}
    want = []
    for b, start in enumerate(range(0, trials, simulate.SAMPLE_BLOCK_TRIALS)):
        gen = SplitMix64(sub_seed(seed, b))
        rows = min(simulate.SAMPLE_BLOCK_TRIALS, trials - start)
        want += [gen.uniform_int(n) - 1 for _ in range(rows * m)]
    assert np.concatenate(scored).ravel().tolist() == want
    return got, [[c + 1 for c in want[i:i + m]] for i in range(0, len(want), m)]


def test_sample_scores_the_accepted_stream(monkeypatch):
    # about a quarter of all words are rejected at n = 2**62 + 1, in every chunk
    _assert_scores_accepted_stream((1 << 62) + 1, monkeypatch)


@pytest.mark.parametrize("n", [1 << 15, (1 << 15) + 1])
def test_sample_rows_are_int16_up_to_two_to_the_15(n, monkeypatch):
    # 2**15 - 1, the top space at n = 2**15, is int16's largest value
    _assert_scores_accepted_stream(n, monkeypatch)


def test_sample_rows_are_int16_at_two_to_the_15_drivers(monkeypatch):
    # m = 2**15 is the last driver count whose offsets 0..m-1 fit int16
    n, m = 50, 1 << 15
    got, rows = _assert_scores_accepted_stream(n, monkeypatch, m=m, trials=3)
    want = collections.Counter(simulate.defect_by_suffix_counts(n, r) for r in rows)
    assert got.counts == tuple(want[k] for k in range(m + 1))


@pytest.mark.parametrize("m", [(1 << 15) + 1, 40000, (1 << 16) + 1])
def test_sample_rows_are_int32_past_two_to_the_15_drivers(m, monkeypatch):
    # From m = 2**15 + 1 the offsets 0..m-1 leave int16, though n = 50 fits
    # it; at m = 40000, int16 offsets would wrap to c - j up to 25586 and
    # give every row too large a defect.  A row of 2**16 + 1 drivers is
    # longer than CHUNK_WORDS, so each chunk holds one row.
    n = 50
    got, rows = _assert_scores_accepted_stream(n, monkeypatch, m=m, trials=3)
    want = collections.Counter(simulate.defect_by_suffix_counts(n, r) for r in rows)
    assert got.counts == tuple(want[k] for k in range(m + 1))


def test_sample_empirical_runs_a_row_at_the_cap(monkeypatch):
    # the cap refuses only rows longer than itself, before any buffer is made
    case = next(c for c in SAMPLE_GOLDEN if (c["n"], c["m"]) == (16, 20))
    monkeypatch.setattr(simulate, "SAMPLE_ROW_CAP", 20)
    emp = simulate.sample_empirical(16, 20, case["trials"], case["seed"])
    assert list(emp.counts) == case["counts"] + [0] * (21 - len(case["counts"]))
    monkeypatch.setattr(simulate, "_Residues", None)
    with pytest.raises(simulate.BudgetError, match="row of 21 drivers"):
        simulate.sample_empirical(16, 21, 1, 1)


@pytest.mark.parametrize("n", [1 << 31, (1 << 31) + 1])
def test_sample_rows_are_int32_up_to_two_to_the_31(n, monkeypatch):
    # 2**31 - 1, the top space at n = 2**31, is int32's largest value
    _assert_scores_accepted_stream(n, monkeypatch)


def test_sample_heavy_rejection_within_budget():
    # rejected words cost one pass over the stream, not a replay
    t0 = time.process_time()
    simulate.sample_empirical((1 << 62) + 1, 100, 20000, 3)
    assert time.process_time() - t0 < 1.0


def test_cars_until_full_within_budget():
    # per-window tallies and a binary search, not a draw and a find per car
    t0 = time.process_time()
    simulate.cars_until_full(10 ** 6, sub_seed(1, 1))
    assert time.process_time() - t0 < 0.75


def test_cars_until_full_trivial_and_deterministic():
    assert all(simulate.cars_until_full(1, s) == 1 for s in range(25))
    assert simulate.cars_until_full(10, 42) == simulate.cars_until_full(10, 42) == 10
    with pytest.raises(ValueError):
        simulate.cars_until_full(0, 1)


def test_deficit_levels_on_a_hand_worked_lot():
    # n = 8: after the first 8 choices (0-based) space j is short by
    # h_j = (j + 1) - #{choices <= j}
    first = [7, 7, 6, 6, 6, 0, 3, 2]
    deficits = [0, 1, 1, 1, 2, 3, 1, 0]
    assert deficits == [j + 1 - sum(c <= j for c in first) for j in range(8)]
    level = np.zeros(9, dtype=np.int32)
    np.add.at(level[1:], first, 1)
    simulate._deficit_levels(level)
    # P(x) = max(0, max_{j < x} h_j): K = 3 levels, reached first at J = 1, 4, 5
    assert level.tolist() == np.maximum.accumulate([0] + deficits).tolist()
    assert level.tolist() == [0, 0, 1, 1, 1, 2, 3, 3, 3]
    # a later choice x serves the levels above P(x)
    later = np.array([5, 1, 6, 0])
    assert level[later].tolist() == [2, 0, 3, 0]
    # level k needs k later cars at or below J_k: three cars leave levels
    # 2 and 3 short, the fourth fills the lot, as the suffix rule says
    need = np.arange(1, 4)
    assert simulate._lacking(need, level[later[:3]]).tolist() == [0, 1, 1]
    assert simulate._lacking(need, level[later]) is None
    cars = [c + 1 for c in first + later.tolist()]
    assert simulate.defect_by_suffix_counts(8, cars[:11]) > 11 - 8
    assert simulate.defect_by_suffix_counts(8, cars) == 12 - 8


def test_lot_full_at_car_n_has_no_levels():
    # the first n choices park every car: every deficit is at most 0, K = 0
    first = [0, 0, 1, 2, 5, 3, 4, 7]
    level = np.zeros(9, dtype=np.int32)
    np.add.at(level[1:], first, 1)
    assert not simulate._deficit_levels(level).any()
    seed = next(s for s in range(100)
                if simulate.defect_by_suffix_counts(8, uniform_block(s, 8, 8).tolist()) == 0)
    assert simulate.cars_until_full(8, seed) == 8


def test_cars_until_full_runs_a_lot_at_the_cap(monkeypatch):
    # the cap refuses only lots larger than itself
    monkeypatch.setattr(simulate, "COUPON_SPACE_CAP", 64)
    case = next(c for c in COUPON_GOLDEN if c["n"] == 64)
    assert simulate.cars_until_full(64, sub_seed(case["seed"], 0)) == case["cars"][0]
    with pytest.raises(simulate.BudgetError):
        simulate.cars_until_full(65, 1)


@pytest.mark.parametrize("case", COUPON_GOLDEN, ids=lambda c: "n{n}-s{seed}".format(**c))
def test_cars_until_full_is_frozen(case):
    n, seed = case["n"], case["seed"]
    assert [simulate.cars_until_full(n, sub_seed(seed, i)) for i in range(3)] == case["cars"]


def _cars_replay(n, seed):
    """The process run car by car: one scalar draw and one find per car."""
    gen = SplitMix64(seed)
    nxt = list(range(n + 2))    # first free space at or after j; n + 1 = walked
    filled = cars = 0
    while filled < n:
        cars += 1
        j = gen.uniform_int(n)
        while nxt[j] != j:
            nxt[j] = nxt[nxt[j]]
            j = nxt[j]
        if j <= n:
            nxt[j] = j + 1
            filled += 1
    return cars


def test_cars_until_full_matches_process_replay():
    gen = SplitMix64(77)
    at_n = past_first_window = 0
    for i in range(60):
        n = gen.uniform_int(3000 if i % 2 else 20)
        want = _cars_replay(n, sub_seed(77, i))
        assert simulate.cars_until_full(n, sub_seed(77, i)) == want, (n, i)
        # lots that fill at car n search no window; past car n each window
        # holds n // 8 + 1 draws, below CHUNK_WORDS here
        at_n += want == n
        past_first_window += want > n + n // 8 + 1
    assert at_n and past_first_window
    # lots of the benchmark's size: 50 to 130 levels, and up to three
    # windows before the one that fills the lot
    for i in range(60, 64):
        n = 10 ** 4 + gen.uniform_int(10 ** 4)
        want = _cars_replay(n, sub_seed(77, i))
        assert simulate.cars_until_full(n, sub_seed(77, i)) == want, (n, i)


def _parked(n, choices):
    """Cars parked after `choices` (1-based), by the suffix-count rule."""
    last = np.bincount(choices, minlength=n + 1)[:0:-1]     # spaces n, n-1, .., 1
    return len(choices) - max(0, int((np.cumsum(last) - np.arange(1, n + 1)).max()))


@pytest.mark.parametrize("n", [100, 1000, 5000])
def test_cars_until_full_is_the_first_car_that_fills(n):
    # the stream redrawn as one block: the lot is full after the reported
    # car and not one car earlier
    for seed in range(50):
        cars = simulate.cars_until_full(n, seed)
        choices = uniform_block(seed, n, cars)
        assert _parked(n, choices) == n and _parked(n, choices[:-1]) < n, (n, seed)
