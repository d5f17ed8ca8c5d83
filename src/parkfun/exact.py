"""Exact enumeration of defective parking functions.

A preference sequence assigns each of m drivers a favorite space in a
linear car park with n spaces; a driver parks at the first free space at
or after the favorite and walks home if there is none.  cp(n, m, k)
counts the sequences under which exactly k drivers walk.  Everything in
this module is exact integer arithmetic; counts routinely exceed 64 bits
(n**n already does at n = 16), so plain Python ints carry all values.

Two independent routes to cp(n, m, k) are provided and cross-checked in
the test suite:

* a three-index recurrence over table_value(r, s, k), the number of
  outcomes with r spaces left empty, s spaces occupied and k walkers,
  where cp(n, m, k) = table_value(n - m + k, m - k, k);
* closed-form Abel-type partial sums tail_sum(n, m, k) counting the
  sequences with *at least* k walkers, so that
  cp(n, m, k) = tail_sum(n, m, k) - tail_sum(n, m, k + 1).

defect_distribution takes every k at once from the Abel route: one
tail_sum call gives the widest nontrivial tail, and the others come from
a shared term ladder (_abel_tails) in which each Abel term is its
neighbour times a small integer, divided exactly by another, so the
whole law costs about min(m, n)**2 / 2 cheap steps instead of m**2 / 2
terms with big powers.  tail_sum stays the point query, and
tail_sum_alternating the independent check.

Counts serialize as decimal strings, never as floats; ratio_as_float is
the one sanctioned bridge from exact counts to IEEE doubles.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

def pascal_row(n: int) -> tuple[int, ...]:
    """Row n of Pascal's triangle, (C(n,0), .., C(n,n)), cached."""
    if n < 0:
        raise ValueError("binomial row index must be nonnegative")
    return _pascal_row(n)


@functools.lru_cache(maxsize=512)
def _pascal_row(n: int) -> tuple[int, ...]:
    vals = [1]
    for j in range(1, n + 1):
        vals.append(vals[-1] * (n - j + 1) // j)
    return tuple(vals)


def _pollak_weight(a: int, i: int) -> int:
    # a * (a + i)**(i - 1) with the i = 0 factor defined as 1; this is the
    # count of defect-free sequences of i drivers on a + i - 1 spaces, so
    # it is always a plain integer (no fractional intermediate).
    if i == 0:
        return 1
    return a * (a + i) ** (i - 1)


class DefectTable:
    """Dense table of table_value(r, s, k) filled by the recurrence.

    The recurrence is

        a(r, s, k) = [r = s = k = 0]
                     + [k = 0] * a(r - 1, s, 0)
                     + sum_{i=0}^{k+1} C(s + k, k + 1 - i) * a(r, s - 1, i)

    with out-of-range indices contributing 0.  The binomial is over the
    s + k drivers present below the split, not r + k; the table built
    this way reproduces the n <= 10 reference values exactly.

    Filling goes s ascending, then r ascending, then k ascending.  Since
    the k-th entry in column s consumes entries up to k + 1 in column
    s - 1, column s is filled up to k_max + (s_max - s), which makes
    every stored value exact.
    """

    def __init__(self, r_max: int, s_max: int, k_max: int):
        if min(r_max, s_max, k_max) < 0:
            raise ValueError("table bounds must be nonnegative")
        self.r_max = r_max
        self.s_max = s_max
        self.k_max = k_max
        cols: list[list[list[int]]] = []
        for s in range(s_max + 1):
            k_cap = k_max + (s_max - s)
            col = []
            for r in range(r_max + 1):
                vals = []
                for k in range(k_cap + 1):
                    v = 1 if (r == 0 and s == 0 and k == 0) else 0
                    if k == 0 and r > 0:
                        v += col[r - 1][0]
                    if s > 0:
                        row = pascal_row(s + k)
                        below = cols[s - 1][r]
                        v += sum(row[k + 1 - i] * below[i]
                                 for i in range(k + 2))
                    vals.append(v)
                col.append(vals)
            cols.append(col)
        self._cols = cols

    def covers(self, r: int, s: int, k: int) -> bool:
        return r <= self.r_max and s <= self.s_max and k <= self.k_max

    def value(self, r: int, s: int, k: int) -> int:
        """a(r, s, k); negative indices give 0 by convention."""
        if r < 0 or s < 0 or k < 0:
            return 0
        if s > self.s_max or r > self.r_max:
            raise ValueError(f"({r},{s},{k}) outside table bounds")
        vals = self._cols[s][r]
        if k >= len(vals):
            raise ValueError(f"({r},{s},{k}) outside table bounds")
        return vals[k]


_SHARED_TABLE: DefectTable | None = None


def _shared_table(r: int, s: int, k: int) -> DefectTable:
    # Grows monotonically; a completed table is immutable, and rebinding
    # the module global is atomic, so concurrent readers stay safe.
    global _SHARED_TABLE
    t = _SHARED_TABLE
    if t is None or not t.covers(r, s, k):
        have = (0, 0, 0) if t is None else (t.r_max, t.s_max, t.k_max)
        t = DefectTable(max(r, have[0]), max(s, have[1]), max(k, have[2]))
        _SHARED_TABLE = t
    return t


def table_value(r: int, s: int, k: int) -> int:
    """a(r, s, k): outcomes with r empty spaces, s occupied, k walkers."""
    if r < 0 or s < 0 or k < 0:
        return 0
    return _shared_table(r, s, k).value(r, s, k)


def _check_params(n: int, m: int, k: int = 0) -> None:
    if n < 0 or m < 0 or k < 0:
        raise ValueError("n, m, k must be nonnegative")


def _check_lot(n: int, m: int) -> None:
    _check_params(n, m)
    if n == 0 and m > 0:
        raise ValueError("no spaces: the parking process is undefined")


def defect_count_recurrence(n: int, m: int, k: int) -> int:
    """cp(n, m, k) through the recurrence table."""
    _check_params(n, m, k)
    r, s = n - m + k, m - k
    if r < 0 or s < 0:
        return 0
    return table_value(r, s, k)


def tail_sum(n: int, m: int, k: int) -> int:
    """Number of sequences with at least k walkers, S(n, m, k).

    Evaluates n**m when k <= m - n, and otherwise the nonnegative-term
    Abel partial sum

        sum_{i=0}^{m-k} C(m, i) * a * (a + i)**(i-1) * (m - k - i)**(m-i)

    with a = n - m + k (positive in this branch) and 0**0 = 1.
    """
    _check_params(n, m, k)
    if k <= m - n:
        return n ** m
    if k > m:
        return 0
    a = n - m + k
    row = pascal_row(m)
    return sum(row[i] * _pollak_weight(a, i) * (m - k - i) ** (m - i)
               for i in range(m - k + 1))


def tail_sum_alternating(n: int, m: int, k: int) -> int:
    """S(n, m, k) again, by the short alternating-sign rewrite.

    For k > m - n this is

        n**m - sum_{i=0}^{k-1} C(m, i) * (-1)**i * a * (k-i)**i
                               * (n + k - i)**(m-1-i)

    with a = n - m + k.  Exact signed arithmetic throughout; the result
    must come out nonnegative, and a negative value would mean a bug, so
    it is asserted.
    """
    _check_params(n, m, k)
    if k <= m - n:
        return n ** m
    if k > m:
        return 0
    a = n - m + k
    row = pascal_row(m)
    acc = n ** m
    sign = 1
    for i in range(k):
        acc -= sign * row[i] * a * (k - i) ** i * (n + k - i) ** (m - 1 - i)
        sign = -sign
    assert acc >= 0, f"alternating tail sum went negative at {(n, m, k)}"
    return acc


def defect_count_explicit(n: int, m: int, k: int) -> int:
    """cp(n, m, k) = tail_sum(n, m, k) - tail_sum(n, m, k + 1)."""
    return tail_sum(n, m, k) - tail_sum(n, m, k + 1)


def parking_function_count(n: int, m: int) -> int:
    """Defect-free sequences of m drivers on n spaces: (n+1-m)(n+1)**(m-1).

    Requires 0 <= m <= n; with m > n a defect-free outcome is impossible
    (the count would be 0) and the formula does not apply, so that case
    is rejected.
    """
    _check_params(n, m)
    if m > n:
        raise ValueError(f"m = {m} > n = {n}: no defect-free assignment")
    if m == 0:
        return 1
    return (n + 1 - m) * (n + 1) ** (m - 1)


def abel_identity_check(a: int, b: int, m: int) -> bool:
    """Exact check of sum C(m,i) a (a+i)**(i-1) (b-i)**(m-i) == (a+b)**m.

    Integer instance; b - i goes negative for i > b, hence signed terms.
    """
    if a < 0 or b < 0 or m < 0:
        raise ValueError("a, b, m must be nonnegative")
    row = pascal_row(m)
    lhs = sum(row[i] * _pollak_weight(a, i) * (b - i) ** (m - i)
              for i in range(m + 1))
    return lhs == (a + b) ** m


def tail_upper_bound_check(n: int, m: int, k: int) -> bool:
    """True iff tail_sum(n, m, k) <= m!/(m-k)! * n**(m-k), exactly."""
    _check_params(n, m, k)
    if k > m:
        raise ValueError("bound requires k <= m")
    return tail_sum(n, m, k) <= math.perm(m, k) * n ** (m - k)


@dataclass(frozen=True)
class DefectDistribution:
    """Counts of sequences by defect k = 0..m for fixed (n, m)."""

    n: int
    m: int
    counts: tuple[int, ...]

    @property
    def total(self) -> int:
        return self.n ** self.m

    def probabilities(self) -> list[float]:
        t = self.total
        return [ratio_as_float(c, t) for c in self.counts]

    def tail_probability(self, k: int) -> float:
        """P(defect >= k) as a float."""
        return ratio_as_float(sum(self.counts[k:]), self.total)


def _abel_tails(n: int, m: int) -> list[int]:
    """[S(n, m, k) for k = lo + 1 .. m], with lo = max(0, m - n + 1).

    With a = n - m + k and j = m - k - i, the Abel sum of tail_sum reads

        S(n, m, k) = (m - k)**m + a * sum_{i + j = m - k; i, j >= 1} R(i, j),
        R(i, j) = C(m, i) * (n - j)**(i - 1) * j**(m - i),

    and along each j the next term is one small multiply and one exact
    small divide, R(i + 1, j) = R(i, j) * (m - i)(n - j) / ((i + 1) j),
    from R(1, j) = m * j**(m - 1).  Walking every j's chain once fills
    all the sums together in about min(m, n)**2 / 2 such steps.
    """
    lo = max(0, m - n + 1)
    sums = [0] * (m + 1)
    for j in range(1, m - lo - 1):
        r = m * j ** (m - 1)
        for i in range(1, m - lo - j):
            sums[m - j - i] += r
            r = r * ((m - i) * (n - j)) // ((i + 1) * j)
    return [(m - k) ** m + (n - m + k) * sums[k] for k in range(lo + 1, m + 1)]


def defect_distribution(n: int, m: int) -> DefectDistribution:
    """The full defect distribution for (n, m), from the closed forms.

    The widest Abel tail, S(n, m, lo) with lo = max(0, m - n + 1), is the
    one tail_sum call; the narrower ones come from the shared term ladder
    of _abel_tails, and every tail below lo is n**m.

    n = 0 with drivers present is rejected (there is no parking process
    without spaces); n = m = 0 is the single empty assignment.
    """
    _check_lot(n, m)
    lo = max(0, m - n + 1)
    tails = ([n ** m] * lo + [tail_sum(n, m, lo)]
             + _abel_tails(n, m) + [0])
    counts = tuple(tails[k] - tails[k + 1] for k in range(m + 1))
    return DefectDistribution(n, m, counts)


def ratio_as_float(num: int, den: int) -> float:
    """num / den for (possibly huge) integers, without overflow.

    Shifts the numerator so the integer quotient keeps a 128-bit window,
    divides exactly, and rescales; n**n overflows a double's exponent
    near n = 144, so the operands must never be converted individually.
    """
    if den <= 0:
        raise ValueError("denominator must be positive")
    if num == 0:
        return 0.0
    sign = -1.0 if num < 0 else 1.0
    num = abs(num)
    shift = den.bit_length() - num.bit_length() + 128
    if shift >= 0:
        q = (num << shift) // den
    else:
        q = num // (den << -shift)
    return sign * math.ldexp(float(q), -shift)
