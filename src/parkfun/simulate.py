"""Direct simulation of the linear parking process.

Drivers are processed in order; each goes to their chosen space and, if
it is taken, rolls forward to the first free space with a larger number,
walking home when none exists.  This module provides the process itself
(`park`, with a slow reference scan `park_naive`), an exhaustive tally
of all n**m preference sequences as the ground-truth oracle at small
sizes, seeded Monte Carlo sampling at large sizes, and the "cars until
the lot is full" experiment.

The defect of a sequence depends only on how many drivers chose each
space: with c_j drivers choosing space j, the number of walkers is

    max(0, max_{1 <= i <= n} (c_n + c_{n-1} + .. + c_{n+1-i}) - i)

because drivers spill rightward, so the last i spaces must absorb every
choice in them.  Sorted, the same rule reads

    max(0, max_{0 <= j < m} (c_(j) - j) + m - n)

where c_(0) <= .. <= c_(m-1) are the 0-based choices in order: the
suffix that starts at space c_(j) + 1 holds at least m - j choices in
n - c_(j) spaces, and the worst suffix starts at a chosen space.  `park`
and both forms are verified against each other in the tests.

Since the defect ignores order, enumeration visits each multiset of
choices once, as a nondecreasing row that needs no sort, and counts it
with its m! / prod(run lengths)! orderings: comb(n + m - 1, m) rows
stand for the n**m sequences.  Sampling sorts each drawn row.  Both
evaluate the sorted form with numpy, in chunks of about CHUNK_WORDS
choices so that each chunk stays in cache and memory does not grow
with n; sampling draws every chunk from one pass over the block's
stream, so chunking changes no draw.  Rows are int16 while n and m are
at most 2**15, int32 while n <= 2**31 and int64 above: the kernel's
c_(j) - j lies in [-(m - 1), n - 1].  Each path writes its chunks into
one reused buffer.

The lot fills by the prefix form of the same rule (Konheim & Weiss,
1966): after c cars every space is taken exactly when, for every j, at
least j of the first c choices are <= j.  Cars only move right, so
spaces 1..j fill only from choices <= j; and no car can pass an empty
space j, so every car that chose <= j parked in the j - 1 spaces below
it.  `cars_until_full` therefore reads the same stream words the scalar
generator would draw, one per car, and finds the least c by binary
search instead of parking car by car.  No lot fills before car n, so
the first n choices are only tallied; what the n spaces still lack after
them reduces to K = O(sqrt(n)) deficit levels, level k asking for k
more cars at or below one space, and one gather maps each later draw to
the levels it serves.  Each window or bisection round tallies its draws
by level in one bincount, whose running sum is what every level gains,
so a round past car n costs its draws plus K levels, not n spaces.
"""

from __future__ import annotations

import collections
import math
from typing import Sequence

import numpy as np

from .exact import BudgetError, DefectDistribution, _check_lot, _Record
from .rng import _Residues, sub_seed

# below 2**63, so the int64 counts of an enumeration stay exact
ENUMERATION_CAP = 10 ** 8
# cars_until_full holds about 4 bytes per space, its int32 level map
# (10**7 spaces: 43 MB peak, 0.30-0.41 s CPU on a 2-core Xeon), so a
# larger lot is refused rather than left to exhaust memory
COUPON_SPACE_CAP = 10 ** 7
# sample_empirical holds about 45 bytes a driver of one row, and the
# simulate command's output about 2 KB a driver as JSON: at 2**17 drivers
# they peak at 33 MB, and the command at 73 MB (CSV) or 278 MB (JSON), so
# a longer row is refused rather than left to exhaust memory
SAMPLE_ROW_CAP = 1 << 17
SAMPLE_BLOCK_TRIALS = 4096
CHUNK_WORDS = 1 << 16


class EnumerationCapError(BudgetError):
    """Raised instead of silently truncating an exhaustive enumeration."""


class ParkOutcome(_Record, collections.namedtuple("ParkOutcome", "n assignment")):
    """Result of running the process on one preference sequence.

    `assignment[i]` is the space taken by driver i (1-based spaces), or
    None if the driver walked; the occupied spaces and the defect are
    read off it.
    """

    __slots__ = ()

    @property
    def occupied(self) -> frozenset:
        return frozenset(self.assignment) - {None}

    @property
    def defect(self) -> int:
        return self.assignment.count(None)


def _check_choices(n: int, choices: Sequence[int]) -> None:
    if n < 0:
        raise ValueError("space count must be nonnegative")
    # not chained: two plain compares run faster than `1 <= c <= n`, and
    # than builtin min and max, on 3.11; a NaN still fails both
    for c in choices:
        if not (1 <= c and c <= n):
            raise ValueError(f"choice {c} outside 1..{n}")


def park(n: int, choices: Sequence[int]) -> ParkOutcome:
    """Run the parking process with next-free-space pointer jumping.

    Near O(m) via path halving: nxt[j] is the first candidate free
    space at or after j, with n + 1 acting as the "walked" sink.
    """
    _check_choices(n, choices)
    nxt = list(range(n + 2))
    assignment = []
    for j in choices:
        # first free space at or after j; path halving changes no root
        while nxt[j] != j:
            nxt[j] = nxt[nxt[j]]
            j = nxt[j]
        if j <= n:
            assignment.append(j)
            nxt[j] = j + 1
        else:
            assignment.append(None)
    return ParkOutcome(n, tuple(assignment))


def park_naive(n: int, choices: Sequence[int]) -> ParkOutcome:
    """Reference O(n*m) scan implementation of the same process.

    Each driver scans the free flags from the chosen space up, with no
    pointer jumping; the scan runs in `bytearray.find`, and the flag at
    n + 1 is a sentinel that is never taken, so finding it means the
    driver walks.

    The chosen space's own flag is read first: when it is free, `find`
    would return it, and reading one byte skips the call's argument
    parsing, which costs more than the scan of a free space.
    """
    _check_choices(n, choices)
    free = bytearray(b"\x01") * (n + 2)
    assignment = []
    for c in choices:
        spot = c if free[c] else free.find(1, c)
        if spot > n:
            assignment.append(None)
        else:
            free[spot] = 0
            assignment.append(spot)
    return ParkOutcome(n, tuple(assignment))


def defect_by_suffix_counts(n: int, choices: Sequence[int]) -> int:
    """Walker count from choice tallies alone (no process run)."""
    _check_choices(n, choices)
    occ = [0] * (n + 1)
    for c in choices:
        occ[c] += 1
    worst = 0
    running = 0
    for i, j in enumerate(range(n, 0, -1), start=1):
        running += occ[j]
        worst = max(worst, running - i)
    return worst


def _row_dtype(n: int, m: int) -> type:
    # Choices 0..n-1 and the kernel's c - j in [-(m - 1), n - 1] fit int16
    # while n, m <= 2**15 and int32 while n <= 2**31; narrower rows sort
    # faster.  numpy has no vector int8 sort, so int16 is the narrowest.
    if n <= 1 << 15 and m <= 1 << 15:
        return np.int16
    return np.int32 if n <= 1 << 31 else np.int64


def _sorted_defects(n: int, rows: np.ndarray) -> np.ndarray:
    # rows: (count, m) of _row_dtype(n, m), nondecreasing in 0..n-1; overwritten.
    count, m = rows.shape
    if m == 0:
        return np.zeros(count, dtype=np.int64)
    rows -= np.arange(m, dtype=rows.dtype)
    return np.maximum(rows.max(axis=1) + np.int64(m - n), 0)


def _defects_in_place(n: int, choices: np.ndarray) -> np.ndarray:
    # choices: (rows, m) of _row_dtype(n, m), values in 0..n-1; sorted in place.
    choices.sort(axis=1)
    return _sorted_defects(n, choices)


def _multisets(n: int, m: int):
    """Yield (rows, weights) chunks that hold every multiset of choices once.

    Rows are the nondecreasing c_0 <= .. <= c_{m-1} over 0..n-1, about
    CHUNK_WORDS choices per chunk, in colex order of the strictly
    increasing x_j = c_j + j: row r is the one whose
    sum_j comb(c_j + j, j + 1) is r, so column j, read from the top, is
    the largest c with comb(c + j, j + 1) at most the rank left over.
    weights[i] is the number of sequences that sort to rows[i],
    m! / prod(run lengths)!, taken as the product over runs [s, e) of
    comb(e, s): every partial product divides the weight, which is at
    most n**m, so int64 holds them all while n**m < 2**63.  A chunk is
    the transpose of one reused (m, rows) buffer, so that each column is
    contiguous.
    """
    dtype = _row_dtype(n, m)
    if n <= 1 or m == 0:
        # one sequence: every driver picks space 1, or there are none.  For
        # m > 26 only n = 1 passes ENUMERATION_CAP, at any m, too large for
        # the m x m int64 binomial table below
        yield np.zeros((1, m), dtype=dtype), np.ones(1, dtype=np.int64)
        return
    # tables[j][c] = comb(c + j, j + 1) for c < n, each the running sum
    # of the one before (hockey stick); column 0 is the rank itself, so
    # no table of n entries is built for m = 1
    tables = [None]
    if m > 1:
        table = np.arange(n, dtype=np.int64)
        for _ in range(1, m):
            table = np.concatenate(([0], np.cumsum(table[1:])))
            tables.append(table)
    binom = np.array([[math.comb(e, s) for s in range(m + 1)] for e in range(m + 1)],
                     dtype=np.int64)
    total = math.comb(n + m - 1, m)         # one row per multiset
    rows = min(max(1, CHUNK_WORDS // m), total)
    buf = np.empty((m, rows), dtype=dtype)
    for first in range(0, total, rows):
        rank = np.arange(first, min(first + rows, total), dtype=np.int64)
        cols = buf[:, :len(rank)]
        for j in range(m - 1, 0, -1):
            c = tables[j].searchsorted(rank, side="right") - 1
            rank -= tables[j][c]
            cols[j] = c
        cols[0] = rank
        # walking down, the run [s, end) closes where column s - 1 differs;
        # an open run takes comb(s, s) = 1, and the last run comb(end, 0) = 1
        weights = np.ones(len(rank), dtype=np.int64)
        end = np.full(len(rank), m)
        for s in range(m - 1, 0, -1):
            closed = cols[s - 1] != cols[s]
            weights *= binom[:, s][np.where(closed, end, s)]
            end[closed] = s
        yield cols.T, weights


def enumerate_exhaustive(n: int, m: int) -> DefectDistribution:
    """Tally the defect of every one of the n**m preference sequences.

    The defect of a sequence depends only on its multiset of choices, so
    each nondecreasing row c_0 <= .. <= c_{m-1} over 0..n-1 is visited
    once, scored by the sorted rule with no sort, and counted with its
    m! / prod(run lengths)! orderings: the same sum over all n**m
    sequences, grouped by the row each sorts to.  Cost follows the
    comb(n + m - 1, m) rows, not n**m.

    Refuses (rather than truncates) when the n**m sequences exceed
    ENUMERATION_CAP: a partial enumeration is not an oracle.  The cap
    counts sequences, not rows.  A power that is over the cap by its bit
    length is refused without being built.
    """
    _check_lot(n, m)
    # n**m >= 2**low, so a low past the cap's bit length is over the cap
    low = m * (n.bit_length() - 1)
    total = n ** m if low < ENUMERATION_CAP.bit_length() else None
    if total is None or total > ENUMERATION_CAP:
        power = f"{n}**{m}" if total is None else f"{n}**{m} = {total}"
        raise EnumerationCapError(
            f"{power} sequences exceeds the enumeration cap {ENUMERATION_CAP}")
    counts = np.zeros(m + 1, dtype=np.int64)
    for rows, weights in _multisets(n, m):
        np.add.at(counts, _sorted_defects(n, rows), weights)
    return DefectDistribution(n=n, m=m, counts=tuple(int(c) for c in counts))


class EmpiricalDistribution(_Record, collections.namedtuple(
        "EmpiricalDistribution", "n m trials seed counts")):
    """Defect histogram over sampled trials (trial counts, not exact counts)."""

    __slots__ = ()

    def tail_frequency(self, k: int) -> float:
        """Fraction of trials with defect >= k, for k >= 0."""
        if k < 0:
            raise ValueError("k must be nonnegative")
        return sum(self.counts[k:]) / self.trials


def sample_empirical(n: int, m: int, trials: int, seed: int) -> EmpiricalDistribution:
    """Defect histogram of `trials` i.i.d. uniform preference sequences.

    Trials are partitioned into blocks of SAMPLE_BLOCK_TRIALS; block b
    draws its sequences from the stream seeded with sub_seed(seed, b), so
    the result is reproducible and blocks may be evaluated in any order.
    Row r of a block holds draws r*m .. r*m+m-1 of the block's stream,
    rejected words skipped as by SplitMix64.uniform_int; rows are drawn
    and scored a chunk of about CHUNK_WORDS draws at a time, each chunk
    reading on from the word where the last one stopped.  A row of more
    than SAMPLE_ROW_CAP drivers is refused with BudgetError before
    anything is allocated.
    """
    if not 1 <= n <= 1 << 63:
        raise ValueError("sampling needs 1 <= n <= 2**63 spaces")
    if m < 0 or trials < 1:
        raise ValueError("need m >= 0 and trials >= 1")
    if m > SAMPLE_ROW_CAP:
        raise BudgetError(f"a row of {m} drivers exceeds the sample row cap {SAMPLE_ROW_CAP}")
    counts = np.zeros(m + 1, dtype=np.int64)
    if m == 0:
        counts[0] = trials
    else:
        rows = min(trials, SAMPLE_BLOCK_TRIALS, max(1, CHUNK_WORDS // m))
        residues = _Residues(n, rows * m)
        buf = np.empty(rows * m, dtype=_row_dtype(n, m))
        for b, start in enumerate(range(0, trials, SAMPLE_BLOCK_TRIALS)):
            block_seed = sub_seed(seed, b)
            t = min(SAMPLE_BLOCK_TRIALS, trials - start)
            word = 0
            for row in range(0, t, rows):
                r = min(rows, t - row)
                draws, word = residues.draws(block_seed, word, r * m)
                choices = buf[:r * m]
                choices[:] = draws
                counts += np.bincount(_defects_in_place(n, choices.reshape(r, m)),
                                      minlength=m + 1)
    return EmpiricalDistribution(n=n, m=m, trials=trials, seed=seed,
                                 counts=tuple(int(c) for c in counts))


def _check_coupon_lot(n: int) -> None:
    if n < 1:
        raise ValueError("need at least one space")
    if n > COUPON_SPACE_CAP:
        raise BudgetError(
            f"{n} spaces exceeds the coupon lot cap {COUPON_SPACE_CAP}")


def _lacking(need: np.ndarray, part: np.ndarray) -> np.ndarray | None:
    """What each deficit level lacks after the draws in `part`; None once none does.

    need[v] counts the later cars that level v + 1 lacks.  A draw at
    level p serves levels p + 1..K, so the running sum of one bincount
    is what each level gains; level K's bin serves none and is dropped.
    """
    k = len(need)
    after = need - np.cumsum(np.bincount(part, minlength=k)[:k])
    return None if after.max() <= 0 else after


def _deficit_levels(level: np.ndarray) -> np.ndarray:
    """Turn tallies of the first n choices into their level map, in place.

    On entry level[0] = 0 and level[1 + x] = #{first n choices = x} for
    the 0-based spaces x < n.  On return level[x] = P(x) =
    max(0, max_{j < x} h_j), where h_j = (j + 1) - #{choices <= j} is
    space j's deficit after n cars, and level[n] = K = max(0, max_j h_j).
    The lot is full once, for every j, at least h_j later cars choose at
    or below j.

    Those n constraints reduce to K.  Let J_k be the first space whose
    deficit reaches k, for k = 1..K; h rises by at most 1 a space, so
    h_{J_k} = k.  Level k asks for k later cars at or below J_k.  Space
    J_k asks for exactly that, so every level is needed.  The levels also
    suffice: a space j with h_j = k > 0 has J_k <= j, and a choice counts
    for every space at or above it, so the k cars at or below J_k count
    for j too.  A later choice x is at or below J_k exactly when no j < x
    has h_j >= k, that is when k > P(x): it serves levels P(x) + 1..K
    (`_lacking`).
    """
    np.subtract(1, level[1:], out=level[1:])
    np.cumsum(level, out=level)                 # level[x] = h_{x-1}
    return np.maximum.accumulate(level, out=level)


def cars_until_full(n: int, seed: int) -> int:
    """Send single random cars into one evolving lot until it is full.

    Each car picks uniformly on 1..n and parks by the process rules (or
    walks).  Returns how many cars were sent in total, walkers included.
    Deterministic given the seed: car i's choice is draw i of the seed's
    stream, the same words as SplitMix64(seed).uniform_int(n).  A lot of
    more than COUPON_SPACE_CAP spaces is refused with BudgetError before
    anything is allocated.

    The process itself is not run: the lot fills by the module's prefix
    rule (Konheim & Weiss, 1966).  No lot fills before car n, so the
    first n choices are tallied in one pass, a buffer at a time, and
    reduced to their K deficit levels (`_deficit_levels`).  K is
    O(sqrt(n)) for a random lot: 20 to 333, median 180, over 40 lots at
    n = 10**5.  Later cars are drawn in windows of about n / 8 words,
    each mapped to its level by one gather.  `need` holds what each level
    still lacks, k cars for level k at first; each window, and each round
    of the binary search in the window that fills the lot, subtracts what
    its draws serve (`_lacking`), so a step costs O(its draws + K).

    Collector's reading of the same process: draw from n ranked items
    until the collection completes, where a duplicate may be traded for
    the best still-missing item of lower rank (here: the next free space
    of larger index); a car that walks is a wasted draw.
    """
    _check_coupon_lot(n)
    size = min(n, CHUNK_WORDS)
    residues = _Residues(n, size)
    # int32 holds every tally and deficit below the cap, and its passes
    # run faster than int64's; add.at takes the slow casting path unless
    # the added value is int32 too
    level = np.zeros(n + 1, dtype=np.int32)
    word = 0
    for start in range(0, n, size):
        draws, word = residues.draws(seed, word, min(size, n - start))
        np.add.at(level[1:], draws, np.int32(1))
    need = np.arange(1, int(_deficit_levels(level)[n]) + 1)
    if not len(need):
        return n                            # the first n choices park every car
    # A window past car n costs its words plus K levels.  Lots fill
    # about 0.7n cars after car n on average (median 0.35n), so
    # windows of about n / 8 words take a few rounds and mix less than
    # one window past the car that fills the lot; the buffer caps them.
    window = min(n // 8 + 1, size)
    cars = n
    while True:
        draws, word = residues.draws(seed, word, window)
        part = level[draws]
        after = _lacking(need, part)
        if after is None:
            break
        need, cars = after, cars + window
    lo, hi = 0, window                      # part[:hi] fill the lot, part[:lo] do not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        after = _lacking(need, part[lo:mid])
        if after is None:
            hi = mid
        else:
            lo, need = mid, after
    return cars + hi
