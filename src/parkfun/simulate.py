"""Direct simulation of the linear parking process.

Drivers are processed in order; each goes to their chosen space and, if
it is taken, rolls forward to the first free space with a larger number,
walking home when none exists.  This module provides the process itself
(`park`, with a slow reference scan `park_naive`), exhaustive
enumeration over all n**m preference sequences as the ground-truth
oracle at small sizes, seeded Monte Carlo sampling at large sizes, and
the "cars until the lot is full" experiment.

The defect of a sequence depends only on how many drivers chose each
space: with c_j drivers choosing space j, the number of walkers is

    max(0, max_{1 <= i <= n} (c_n + c_{n-1} + .. + c_{n+1-i}) - i)

because drivers spill rightward, so the last i spaces must absorb every
choice in them.  Sorted, the same rule reads

    max(0, max_{0 <= j < m} (c_(j) - j) + m - n)

where c_(0) <= .. <= c_(m-1) are the 0-based choices in order: the
suffix that starts at space c_(j) + 1 holds at least m - j choices in
n - c_(j) spaces, and the worst suffix starts at a chosen space.  `park`
and both forms are verified against each other in the tests; the
vectorized enumeration and sampling paths evaluate the sorted form with
numpy, in chunks of about CHUNK_WORDS choices so that each chunk stays
in cache and memory does not grow with n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exact import DefectDistribution
from .rng import SplitMix64, _Residues, sub_seed, uniform_block

DEFAULT_ENUMERATION_CAP = 10 ** 8
SAMPLE_BLOCK_TRIALS = 4096
CHUNK_WORDS = 1 << 16


class EnumerationCapError(ValueError):
    """Raised instead of silently truncating an exhaustive enumeration."""


@dataclass(frozen=True)
class ParkOutcome:
    """Result of running the process on one preference sequence.

    `assignment[i]` is the space taken by driver i (1-based spaces), or
    None if the driver walked.
    """

    n: int
    assignment: tuple
    occupied: frozenset
    defect: int


def _check_choices(n: int, choices: Sequence[int]) -> None:
    if n < 0:
        raise ValueError("space count must be nonnegative")
    for c in choices:
        if not 1 <= c <= n:
            raise ValueError(f"choice {c} outside 1..{n}")


def _find(nxt: list, j: int) -> int:
    # first free space at or after j; path halving changes no root
    while nxt[j] != j:
        nxt[j] = nxt[nxt[j]]
        j = nxt[j]
    return j


def park(n: int, choices: Sequence[int]) -> ParkOutcome:
    """Run the parking process with next-free-space pointer jumping.

    Near O(m) via path halving: nxt[j] is the first candidate free
    space at or after j, with n + 1 acting as the "walked" sink.
    """
    _check_choices(n, choices)
    nxt = list(range(n + 2))
    assignment = []
    occupied = []
    for c in choices:
        j = _find(nxt, c)
        if j <= n:
            assignment.append(j)
            occupied.append(j)
            nxt[j] = j + 1
        else:
            assignment.append(None)
    return ParkOutcome(n=n, assignment=tuple(assignment),
                       occupied=frozenset(occupied),
                       defect=len(choices) - len(occupied))


def park_naive(n: int, choices: Sequence[int]) -> ParkOutcome:
    """Reference O(n*m) scan implementation of the same process."""
    _check_choices(n, choices)
    free = [True] * (n + 1)
    assignment = []
    occupied = []
    for c in choices:
        spot = None
        for j in range(c, n + 1):
            if free[j]:
                spot = j
                break
        if spot is None:
            assignment.append(None)
        else:
            free[spot] = False
            assignment.append(spot)
            occupied.append(spot)
    return ParkOutcome(n=n, assignment=tuple(assignment),
                       occupied=frozenset(occupied),
                       defect=len(choices) - len(occupied))


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


def _defects_in_place(n: int, choices: np.ndarray) -> np.ndarray:
    # choices: (rows, m) int64 array with values in 0..n-1; sorted in place.
    rows, m = choices.shape
    if m == 0:
        return np.zeros(rows, dtype=np.int64)
    choices.sort(axis=1)
    choices -= np.arange(m, dtype=np.int64)
    return np.maximum(choices.max(axis=1) + (m - n), 0)


def enumerate_exhaustive(n: int, m: int,
                         cap: int = DEFAULT_ENUMERATION_CAP) -> DefectDistribution:
    """Tally the defect of every one of the n**m preference sequences.

    Refuses (rather than truncates) when n**m exceeds `cap`: a partial
    enumeration is not an oracle.
    """
    if n < 0 or m < 0:
        raise ValueError("n, m must be nonnegative")
    if n == 0 and m > 0:
        raise ValueError("no spaces: the parking process is undefined")
    total = n ** m
    if total > cap:
        raise EnumerationCapError(
            f"{n}**{m} = {total} sequences exceeds the enumeration cap {cap}")
    counts = np.zeros(m + 1, dtype=np.int64)
    if m == 0 or n == 0:
        counts[0] = 1
        return DefectDistribution(n=n, m=m, counts=tuple(int(c) for c in counts))
    divisors = np.array([n ** j for j in range(m - 1, -1, -1)], dtype=np.int64)
    rows = max(1, CHUNK_WORDS // m)
    idx = np.arange(rows, dtype=np.int64)[:, None]
    buf = np.empty((rows, m), dtype=np.int64)
    for start in range(0, total, rows):
        choices = buf[:min(rows, total - start)]
        np.floor_divide(idx[:len(choices)], divisors, out=choices)
        np.remainder(choices, n, out=choices)
        counts += np.bincount(_defects_in_place(n, choices), minlength=m + 1)
        idx += rows
    return DefectDistribution(n=n, m=m, counts=tuple(int(c) for c in counts))


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Defect histogram over sampled trials (trial counts, not exact counts)."""

    n: int
    m: int
    trials: int
    seed: int
    counts: tuple

    def frequencies(self) -> list:
        return [c / self.trials for c in self.counts]

    def tail_frequency(self, k: int) -> float:
        """Fraction of trials with defect >= k."""
        return sum(self.counts[k:]) / self.trials


def sample_empirical(n: int, m: int, trials: int, seed: int) -> EmpiricalDistribution:
    """Defect histogram of `trials` i.i.d. uniform preference sequences.

    Trials are partitioned into blocks of SAMPLE_BLOCK_TRIALS; block b
    draws its sequences from the stream seeded with sub_seed(seed, b), so
    the result is reproducible and blocks may be evaluated in any order.
    Row r of a block holds words r*m .. r*m+m-1 of the block's stream;
    rows are drawn and scored a chunk of about CHUNK_WORDS words at a
    time, which changes no draw.
    """
    if n < 1:
        raise ValueError("sampling needs at least one space")
    if m < 0 or trials < 1:
        raise ValueError("need m >= 0 and trials >= 1")
    counts = np.zeros(m + 1, dtype=np.int64)
    if m == 0:
        counts[0] = trials
    else:
        rows = min(trials, SAMPLE_BLOCK_TRIALS, max(1, CHUNK_WORDS // m))
        residues = _Residues(n, rows * m)
        for b, start in enumerate(range(0, trials, SAMPLE_BLOCK_TRIALS)):
            block_seed = sub_seed(seed, b)
            t = min(SAMPLE_BLOCK_TRIALS, trials - start)
            hist = np.zeros(m + 1, dtype=np.int64)
            for row in range(0, t, rows):
                r = min(rows, t - row)
                draws = residues.draws(block_seed, row * m, r * m)
                if draws is None:
                    # a rejected word shifts every later draw: replay the block
                    draws = uniform_block(block_seed, n, t * m) - 1
                    hist = np.bincount(_defects_in_place(n, draws.reshape(t, m)),
                                       minlength=m + 1)
                    break
                hist += np.bincount(_defects_in_place(n, draws.reshape(r, m)),
                                    minlength=m + 1)
            counts += hist
    return EmpiricalDistribution(n=n, m=m, trials=trials, seed=seed,
                                 counts=tuple(int(c) for c in counts))


def cars_until_full(n: int, seed: int) -> int:
    """Send single random cars into one evolving lot until it is full.

    Each car picks uniformly on 1..n and parks by the process rules (or
    walks).  Returns how many cars were sent in total, walkers included.
    Deterministic given the seed.

    Collector's reading of the same process: draw from n ranked items
    until the collection completes, where a duplicate may be traded for
    the best still-missing item of lower rank (here: the next free space
    of larger index); a car that walks is a wasted draw.
    """
    if n < 1:
        raise ValueError("need at least one space")
    gen = SplitMix64(seed)
    nxt = list(range(n + 2))
    filled = 0
    cars = 0
    while filled < n:
        cars += 1
        j = _find(nxt, gen.uniform_int(n))
        if j <= n:
            nxt[j] = j + 1
            filled += 1
    return cars
