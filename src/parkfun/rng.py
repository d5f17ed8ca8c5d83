"""Seedable, portable random number generation for the simulators.

The generator is SplitMix64.  Its entire state is one 64-bit word and the
j-th output (counting from 0) is a pure function of the seed:

    output(seed, j) = mix64((seed + (j + 1) * GAMMA) mod 2**64)

with GAMMA = 0x9E3779B97F4A7C15 and mix64 the murmur-style finalizer

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9;  z &= 2**64 - 1
    z ^= z >> 27;  z *= 0x94D049BB133111EB;  z &= 2**64 - 1
    z ^= z >> 31

Uniform draws on {1, .., n} use rejection sampling on the raw 64-bit
stream: a word u is accepted iff u < 2**64 - (2**64 mod n), and the draw
is then u mod n + 1.  Each rejected word is consumed and the next word is
tried.  Any implementation of this recipe, in any language, reproduces
the exact same draw sequence for a given seed.

`SplitMix64` is the scalar form of that recipe, one word and one draw
per call in pure Python; it stays the reference that the one vector form
is tested against.  That form, `_Residues`, mixes a window of words at
once with numpy and draws on one fixed n per reader: the sampler's,
`coupon`'s and `uniform_block`'s path.  A caller that needs several
moduli makes one `uniform_block` call on a common multiple of them and
reduces each draw (the `park-implementations` check's lots).

Worker streams are derived from a master seed with

    sub_seed(seed, index) = mix64((seed + (index + 1) * LEAP) mod 2**64)

where LEAP = 0xD1342543DE82EF95, so that block streams never coincide
with the master stream itself.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
LEAP = 0xD1342543DE82EF95

_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """Finalizing bijection of SplitMix64 on 64-bit words."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & MASK64
    return z ^ (z >> 31)


def sub_seed(seed: int, index: int) -> int:
    """Deterministic seed for worker/block `index` under master `seed`."""
    if index < 0:
        raise ValueError("block index must be nonnegative")
    return mix64((seed + (index + 1) * LEAP) & MASK64)


class SplitMix64:
    """Sequential view of the stream defined in the module docstring."""

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GAMMA) & MASK64
        return mix64(self._state)

    def uniform_int(self, n: int) -> int:
        """One draw uniform on {1, .., n} by rejection on the raw stream."""
        if n < 1:
            raise ValueError("uniform_int needs n >= 1")
        limit = ((1 << 64) // n) * n  # == 2**64 - (2**64 mod n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n + 1


def _mix(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """mix64 applied in place to the uint64 array z; t is scratch of z's size."""
    for shift, mult in ((30, _MIX_A), (27, _MIX_B)):
        z ^= np.right_shift(z, np.uint64(shift), out=t)
        z *= np.uint64(mult)
    z ^= np.right_shift(z, np.uint64(31), out=t)
    return z


class _Residues:
    """Uniform draws on 0..n-1 from a seed's stream, into buffers of `size`.

    `draws(seed, word, count)` reads the stream from word `word` on,
    drops each word that rejection sampling skips, and returns the next
    `count` accepted draws with the index of the first word it did not
    read: draw for draw what `SplitMix64.uniform_int` gives, less one.
    The buffers are made once, so a caller that walks a stream window by
    window reuses the same cache-sized memory instead of faulting in
    fresh pages for every window.  The draws are an int64 view of that
    buffer, valid until the next call.
    """

    def __init__(self, n: int, size: int):
        # the largest accepted word: 2**64 - 1 when n is a power of two
        self._top = np.uint64(((1 << 64) // n) * n - 1)
        self._n = np.uint64(n)
        # steps[i] = (i + 1) * GAMMA mod 2**64
        self._steps = np.arange(1, size + 1, dtype=np.uint64)
        self._steps *= np.uint64(GAMMA)
        self._z = np.empty_like(self._steps)
        self._t = np.empty_like(self._steps)

    def draws(self, seed: int, word: int, count: int) -> tuple[np.ndarray, int]:
        done = 0
        while True:
            z = self._z[done:count]
            # word + i of the stream is mix64(seed + (word + 1 + i) * GAMMA):
            # steps[i] plus seed + word * GAMMA, mixed in place
            np.add(self._steps[:len(z)], np.uint64((seed + word * GAMMA) & MASK64), out=z)
            _mix(z, self._t[:len(z)])
            word += len(z)
            # one reduction tests the window; max raises on an empty one
            if not len(z) or z.max() <= self._top:
                break
            # close up over the rejected words; the next pass fills the tail
            kept = z[z <= self._top]
            z[:len(kept)] = kept
            done += len(kept)
        z, q = self._z[:count], self._t[:count]
        # z mod n as z - (z // n) * n: numpy divides uint64 words by a scalar
        # with a vectorized multiply-high and shift, but np.remainder takes
        # one hardware divide per word
        np.floor_divide(z, self._n, out=q)
        q *= self._n
        z -= q
        return z.view(np.int64), word


def uniform_block(seed: int, n: int, count: int) -> np.ndarray:
    """`count` uniform draws on {1, .., n} from the seed's stream.

    Rejected words are skipped in place, so the result equals `count`
    calls of SplitMix64(seed).uniform_int(n).
    """
    if not 1 <= n < 1 << 63:
        raise ValueError("uniform_block needs 1 <= n < 2**63 (int64 output)")
    if count < 0:
        raise ValueError("count must be nonnegative")
    draws, _ = _Residues(n, count).draws(seed, 0, count)
    draws += 1
    return draws
