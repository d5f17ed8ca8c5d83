"""Exact enumeration of defective parking functions.

A preference sequence assigns each of m drivers a favorite space in a
linear car park with n spaces; a driver parks at the first free space at
or after the favorite and walks home if there is none.  cp(n, m, k)
counts the sequences under which exactly k drivers walk.  Everything in
this module is exact integer arithmetic; counts routinely exceed 64 bits
(n**n already does at n = 16), so plain Python ints carry all values.

Two independent routes to cp(n, m, k) are provided and cross-checked in
the test suite:

* a three-index recurrence over a(r, s, k), the number of outcomes
  with r spaces left empty, s spaces occupied and k walkers, filled by
  DefectTable, where cp(n, m, k) = a(n - m + k, m - k, k);
* closed-form Abel-type partial sums tail_sum(n, m, k) counting the
  sequences with *at least* k walkers, so that
  cp(n, m, k) = tail_sum(n, m, k) - tail_sum(n, m, k + 1).

Every Abel sum here is a sum of one term,

    R(i, j) = C(m, i) * (n - j)**(i - 1) * j**(m - i),   1 <= i <= m,

with 0**0 = 1.  Abel's binomial identity, for integers a, b, m >= 0 and
n = a + b, reads

    n**m = b**m + a * sum_{i=1}^{m} R(i, b - i),

a sum along the anti-diagonal i + j = b (abel_identity_check tests it
as written).  Take b = m - k and a = n - b.  Every sequence has at least
max(0, m - n) walkers, so S(n, m, k) = n**m up to there; past it, for
max(0, m - n) < k <= m, the identity splits n**m at the term j = 0,
which vanishes, into

    S(n, m, k) = b**m + a * sum_{i=1}^{b-1} R(i, b - i)      (tail_sum)
               = n**m - a * sum_{i=b+1}^{m} R(i, b - i)      (tail_sum_alternating)

Abel's form, the first, has m - k - 1 nonnegative terms (j >= 1); the
alternating one has k terms of alternating sign (j <= -1).  _diagonal
yields R along an anti-diagonal and walks C(m, i) along it, C(m, i + 1) =
C(m, i) * (m - i) / (i + 1), so a point query costs its own terms and
nothing more.

defect_distribution takes every k at once from the two forms: one
tail_sum call gives the widest nontrivial tail, and the others come from
one chain ladder (_abel_tails) that walks R along each j instead, where
the next term is its neighbour times a small integer, divided exactly by
another.  Tails above a split take Abel's form and the others the
alternating one; the split, from a closed-form cost model, is m/2 at
n = m and falls toward 0.29 m as n / m grows, so the whole law costs
about (m - split)**2/2 + (split**2 - lo**2)/2 cheap steps, half of
Abel's form alone at n = m.  tail_sum stays the point query, and
tail_sum_alternating the independent check.

plotdata-fig2 needs the full-lot count cp(n, m, m - n) for a whole
column of increasing m at one n.  _full_lot_counts takes Abel's form at
a = 1, b = n - 1 for all of them at once: its n - 2 terms are
C(m, i) U_i(m), and U_i(m) = (i + 1)**(i - 1) (n - 1 - i)**(m - i) moves
to m + d by one multiply by (n - 1 - i)**d, with no division.  So each
further m costs n - 2 multiplies and the walk of C(m, i), not 2(n - 2)
fresh big powers.

No state is kept between calls: defect_count_recurrence builds the
table its query needs, and nothing is cached.

Counts serialize as decimal strings, never as floats; ratio_as_float is
the one sanctioned bridge from exact counts to IEEE doubles, and it is
correctly rounded.

BudgetError, the refusal of a run past its stated size cap, is defined
here rather than in simulate, so that the CLI can catch it without
loading numpy.
"""

from __future__ import annotations

import math


class BudgetError(ValueError):
    """Raised instead of starting a run beyond its stated size cap."""


class DefectTable:
    """Dense table of a(r, s, k): outcomes with r empty spaces, s occupied, k walkers.

    The recurrence is

        a(r, s, k) = [r = s = k = 0]
                     + [k = 0] * a(r - 1, s, 0)
                     + sum_{i=0}^{k+1} C(s + k, k + 1 - i) * a(r, s - 1, i)

    with out-of-range indices contributing 0.  The binomial is over the
    s + k drivers present below the split, not r + k; the table built
    this way reproduces the n <= 10 reference values exactly.

    Filling goes s ascending, then k ascending.  Since the k-th entry in
    column s consumes entries up to k + 1 in column s - 1, column s is
    filled up to k_max + (s_max - s), which makes every stored value
    exact.

    The binomials do not depend on r, so each (s, k) cell is one int
    holding a(r, s, k) for every r at once: bits w*r .. w*r + w - 1 are
    lane r, for r = 0..r_max.  A stored a(r, s, k) is cp(r + s, s + k, k),
    at most (r + s)**(s + k) <= B = (r_max + s_max)**(s_max + k_max) in
    every column, so w = bitlen(B) bits hold it; w is at least 1, since a
    (0, 0, k) table has B = 0**k = 0 but a(0, 0, 0) = 1.

    The k = 0 cell is a(r, s, 0) = c_0 + .. + c_r, the prefix sum over the
    lanes c_r of the binomial sum's word (v[1] below), taken by the
    log-step scan of Hillis & Steele (CACM 29(12), 1986): x += x << shift
    for shift = w, 2w, 4w, .. below w * (r_max + 1), then masked to
    r_max + 1 lanes.  After the pass at shift = 2**t * w, lane r holds
    c_max(0, r - 2**(t+1) + 1) + .. + c_r, a part of a(r, s, 0), which
    the lane holds; so no lane at or below r_max carries, and what spills
    above lane r_max carries only upward, into bits the mask drops.

    The binomial sum is [x^(k+1)] (1 + x)**(s+k) P(x), with P(x) the
    previous column p_0 + p_1 x + ..., so Pascal's rule, C(N, j) =
    C(N - 1, j) + C(N - 1, j - 1), builds it from additions alone.  With
    top = k_max + s_max - s, take v = p_0 .. p_(top+1) and run the pass
    v[j] += v[j - 1] for j = top + 1 down to 1, s times: cell 0 is then
    v[1].  For k = 1..top, one more pass over j = top + 1 down to k + 1
    leaves cell k in v[k + 1].  After N passes v[j] = sum_t C(N, j - t)
    p_t with N <= s + j - 1, so lane by lane it is at most cell (s, j - 1):
    every value is nonnegative and within the lane bound, no lane ever
    carries into its neighbour, and the packed sums are the lane-wise sums
    of the same recurrence.  A column costs s(top + 1) + top(top + 1)/2
    additions.
    """

    def __init__(self, r_max: int, s_max: int, k_max: int):
        if min(r_max, s_max, k_max) < 0:
            raise ValueError("table bounds must be nonnegative")
        self.r_max = r_max
        self.s_max = s_max
        # a (0, 0, k) table's bound is 0**k = 0, but its a(0, 0, 0) is 1
        self._w = w = max(1, ((r_max + s_max) ** (s_max + k_max)).bit_length())
        self._lane = (1 << w) - 1
        width = w * (r_max + 1)
        lanes = (1 << width) - 1
        ones = lanes // self._lane          # a 1 in every lane
        # column 0: a(r, 0, 0) = 1 for every r, and no walker without a driver
        cols = [[ones] + [0] * (k_max + s_max)]
        for s in range(1, s_max + 1):
            top = k_max + s_max - s
            v = cols[-1][:top + 2]
            # v becomes (1 + x)**s P(x), one Pascal pass at a time
            for _ in range(s):
                for j in range(top + 1, 0, -1):
                    v[j] += v[j - 1]
            # lane r of the k = 0 cell sums lanes 0..r of v[1]: a log-step scan
            x, shift = v[1], w
            while shift < width:
                x += x << shift
                shift <<= 1
            col = [x & lanes]
            for k in range(1, top + 1):
                for j in range(top + 1, k, -1):
                    v[j] += v[j - 1]
                col.append(v[k + 1])
            cols.append(col)
        self._cols = cols

    def value(self, r: int, s: int, k: int) -> int:
        """a(r, s, k) for a stored cell; any other index, negative too, is refused."""
        if not (0 <= r <= self.r_max and 0 <= s <= self.s_max
                and 0 <= k < len(self._cols[s])):
            raise ValueError(f"({r},{s},{k}) outside table bounds")
        return self._cols[s][k] >> self._w * r & self._lane


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
    return DefectTable(r, s, k).value(r, s, k)


def _diagonal(n: int, m: int, d: int, first: int, last: int):
    """Yield R(i, d - i) for i = first..last, with 1 <= first; none if first > last.

    C(m, i) is walked along the diagonal, one exact small divide per term.
    """
    c = math.comb(m, first)
    for i in range(first, last + 1):
        yield c * (d - i) ** (m - i) * (n - d + i) ** (i - 1)
        c = c * (m - i) // (i + 1)


def tail_sum(n: int, m: int, k: int) -> int:
    """Number of sequences with at least k walkers, S(n, m, k).

    n**m when k <= max(0, m - n), 0 when k > m, and otherwise Abel's
    nonnegative form of the module docstring, m - k - 1 terms R(i, j)
    with j >= 1.
    """
    _check_params(n, m, k)
    if k <= max(0, m - n):
        return n ** m
    if k > m:
        return 0
    b = m - k
    return b ** m + (n - b) * sum(_diagonal(n, m, b, 1, b - 1))


def _full_lot_counts(n: int, ms: list[int]) -> list[int]:
    """[cp(n, m, m - n) for m in ms], for n >= 1 and n <= ms[0] <= ms[1] <= ...

    The lot is full when exactly m - n drivers walk, and cp(n, m, m - n)
    = n**m - S(n, m, m - n + 1), the first term a tail_sum call.  The
    second is Abel's form at a = 1, b = n - 1,

        S(n, m, m - n + 1) = b**m + sum_{i=1}^{b-1} C(m, i) U_i(m),

    with U_i(m) = (i + 1)**(i - 1) * (b - i)**(m - i), the terms R(i, b - i)
    of _diagonal without their binomial.  Each U_i is built once, at
    m = n, and walked up the list, U_i(m + d) = U_i(m) * (b - i)**d, so
    the walk along m has no division.  C(m, i) is walked along i as in
    _diagonal, one exact small divide per term.
    """
    b, at = n - 1, n
    us = [(i + 1) ** (i - 1) * (b - i) ** (n - i) for i in range(1, b)]
    counts = []
    for m in ms:
        us = [u * (b - i) ** (m - at) for i, u in enumerate(us, 1)]
        at = m
        s, c = 0, m
        for i, u in enumerate(us, 1):
            s += c * u
            c = c * (m - i) // (i + 1)
        counts.append(tail_sum(n, m, m - n) - b ** m - s)
    return counts


def tail_sum_alternating(n: int, m: int, k: int) -> int:
    """S(n, m, k) again, by the short alternating form.

    n**m when k <= m - n, 0 when k > m, and otherwise the alternating
    form of the module docstring, k signed terms R(i, j) with j <= -1.
    The result must come out nonnegative, and a negative value would
    mean a bug, so it is asserted.
    """
    _check_params(n, m, k)
    if k <= m - n:
        return n ** m
    if k > m:
        return 0
    b = m - k
    acc = n ** m - (n - b) * sum(_diagonal(n, m, b, b + 1, m))
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
    """Exact check of Abel's identity, b**m + a * sum R == (a + b)**m.

    The sum runs along the whole anti-diagonal i + j = b, i = 1..m, so
    j = b - i goes negative for i > b (see the module docstring).
    """
    if a < 0 or b < 0 or m < 0:
        raise ValueError("a, b, m must be nonnegative")
    return b ** m + a * sum(_diagonal(a + b, m, b, 1, m)) == (a + b) ** m


class DefectDistribution:
    """Counts of sequences by defect k = 0..m for fixed (n, m); read-only.

    A plain slotted record: `import dataclasses` would load inspect, ast
    and tokenize for it.  Two records are equal, and hash alike, when n,
    m and counts are.
    """

    __slots__ = ("n", "m", "counts")

    def __init__(self, n: int, m: int, counts: tuple[int, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "counts", counts)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return self.n, self.m, self.counts

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        # copy and pickle rebuild through __init__, past the read-only __setattr__
        return self.__class__, self._key()

    def __repr__(self) -> str:
        return f"DefectDistribution(n={self.n!r}, m={self.m!r}, counts={self.counts!r})"

    @property
    def total(self) -> int:
        return self.n ** self.m

    def probabilities(self) -> list[float]:
        t = self.total
        return [ratio_as_float(c, t) for c in self.counts]


def _chain(sums: list[int], n: int, m: int, j: int, i: int, top: int, r: int) -> None:
    """Add R(i', j) into sums[m - i' - j] for i' = i .. top, given r = R(i, j).

    1 <= i <= top <= m, and j is any nonzero integer.  Each term after
    the first is its predecessor times a small integer, divided exactly
    by another: R(i' + 1, j) = R(i', j) * (m - i')(n - j) / ((i' + 1) j).
    """
    k = m - i - j
    for i in range(i, top):
        sums[k] += r
        k -= 1
        r = r * ((m - i) * (n - j)) // ((i + 1) * j)
    sums[k] += r


def _split(n: int, m: int) -> int:
    """Where _abel_tails hands the tails from the alternating form to Abel's.

    In units of log(n) bits, a term R(i, j) is about (i - 1) + (m - i)rho
    long, with rho = log(m) / log(n) standing in for log|j| / log(n).  A
    step costs about its operand's length, so Abel's anti-diagonal at k,
    with d = m - k terms, costs about (1 - rho)d**2/2 + rho*m*d, and the
    alternating one, with k terms, m*k - (1 - rho)k**2/2.  The two are
    equal at k = x*m with x = (1 + rho) / (2 + sqrt(2 + 2 rho**2)): 1/2 at
    n = m, 1 - 1/sqrt(2) ~ 0.29 as n / m grows without bound, and below
    1/sqrt(2) for every n, m.  The split is that k, but not below
    lo = max(0, m - n + 1); with one tail or none left past lo there is
    nothing to split.
    """
    lo = max(0, m - n + 1)
    if lo >= m - 1:
        return lo
    rho = math.log(m, n)
    return max(lo, round(m * (1 + rho) / (2 + math.sqrt(2 + 2 * rho * rho))))


def _abel_tails(n: int, m: int, split: int) -> list[int]:
    """[S(n, m, k) for k = lo + 1 .. m], with lo = max(0, m - n + 1).

    Tails with k > split take Abel's form and the others the alternating
    one (module docstring), but each sum is gathered along j instead of
    along its anti-diagonal: _chain walks R(i, j) up in i at one small
    multiply and one exact small divide per step, R(i + 1, j) = R(i, j)
    (m - i)(n - j) / ((i + 1) j).  The divide is exact because R(i + 1, j)
    is an integer for every i < m, and its divisor (i + 1)|j| stays small
    on both sides; walking down in i would divide by (m - i + 1)(n - j),
    which is wide when n is.

    Abel's form takes one chain per j = 1 .. m - split - 2 that starts at
    R(1, j) = m j**(m - 1); the alternating one takes one chain per
    j = -1 .. -split that starts at k = split and stops at
    k = max(lo + 1, -j).  Those chains start on the anti-diagonal
    i + j = m - split, so one _diagonal walk gives every seed.  The law
    then costs about (m - split)**2/2 + (split**2 - lo**2)/2 steps;
    _split picks the split.  Every split in [lo, m] gives the same tails.
    """
    lo = max(0, m - n + 1)
    sums = [0] * (m + 1)
    for j in range(1, m - split - 1):
        _chain(sums, n, m, j, 1, m - split - 1 - j, m * j ** (m - 1))
    if split > lo:
        seeds = _diagonal(n, m, m - split, m - split + 1, m)
        for j, r in zip(range(1, split + 1), seeds):
            _chain(sums, n, m, -j, m - split + j, min(m, m - lo - 1 + j), r)
    nm = n ** m
    return ([nm - (n - m + k) * sums[k] for k in range(lo + 1, split + 1)]
            + [(m - k) ** m + (n - m + k) * sums[k] for k in range(split + 1, m + 1)])


def defect_distribution(n: int, m: int) -> DefectDistribution:
    """The full defect distribution for (n, m), from the closed forms.

    The widest Abel tail, S(n, m, lo) with lo = max(0, m - n + 1), is the
    one tail_sum call; the narrower ones come from the chain ladder of
    _abel_tails, split where _split puts it, and every tail below lo is
    n**m.

    n = 0 with drivers present is rejected (there is no parking process
    without spaces); n = m = 0 is the single empty assignment.
    """
    _check_lot(n, m)
    lo = max(0, m - n + 1)
    # the ladder could give this tail too, 4-15 % faster at m >= n, but this
    # call ties every exact CLI output to tail_sum: the CLI's TestTailSumTie
    # and the benchmark's off-by-one tail_sum self-test both rely on it
    tails = ([n ** m] * lo + [tail_sum(n, m, lo)]
             + _abel_tails(n, m, _split(n, m)) + [0])
    counts = tuple(tails[k] - tails[k + 1] for k in range(m + 1))
    return DefectDistribution(n, m, counts)


def ratio_as_float(num: int, den: int) -> float:
    """num / den for (possibly huge) integers, correctly rounded.

    n**n overflows a double's exponent near n = 144, so the operands must
    never be converted individually; Python's int true division divides
    exactly and rounds once, subnormal quotients included.
    """
    if den <= 0:
        raise ValueError("denominator must be positive")
    return num / den
