"""The random stream must be reproducible bit-for-bit, forever."""

import itertools

import numpy as np
import pytest

from parkfun.rng import GAMMA, SplitMix64, _Residues, mix64, sub_seed, uniform_block

# SplitMix64 outputs for seed 1234567, as published for the reference
# implementation (e.g. the rand crate's splitmix64 test vector).
SEED_1234567_OUTPUTS = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
    4593380528125082431,
    16408922859458223821,
]


def test_known_vector():
    gen = SplitMix64(1234567)
    assert [gen.next_u64() for _ in range(5)] == SEED_1234567_OUTPUTS


def test_uniform_int_range_and_determinism():
    gen = SplitMix64(42)
    draws = [gen.uniform_int(7) for _ in range(2000)]
    assert set(draws) == set(range(1, 8))
    gen2 = SplitMix64(42)
    assert [gen2.uniform_int(7) for _ in range(2000)] == draws
    with pytest.raises(ValueError):
        gen.uniform_int(0)


def test_uniform_block_matches_scalar():
    # at n = 3 the limit 2**64 - (2**64 mod 3) is 2**64 - 1, and word 0 of
    # seed 0x31628AF67B2131AB (mix64 inverted) is that very word: both
    # paths must reject it
    for seed, n in ((5, 3), (99, 10), (7, 64), (123456789, 1000), (0x31628AF67B2131AB, 3)):
        gen = SplitMix64(seed)
        scalar = [gen.uniform_int(n) for _ in range(500)]
        assert uniform_block(seed, n, 500).tolist() == scalar


def test_uniform_block_rejection_fallback():
    # an enormous range rejects ~1/4 of raw words, which the vector path
    # drops in place; results must still match the scalar stream
    n = (1 << 62) + 1
    gen = SplitMix64(11)
    scalar = [gen.uniform_int(n) for _ in range(64)]
    assert uniform_block(11, n, 64).tolist() == scalar
    for bad_n, count in ((1 << 63, 4), (0, 4), (3, -1)):
        with pytest.raises(ValueError):
            uniform_block(11, bad_n, count)
    assert uniform_block(11, 3, 0).tolist() == []


def test_residue_windows_match_stream():
    # one buffer serves windows of any seed, offset and length up to its size
    residues = _Residues(1000, 300)
    for seed, start, count in ((1, 0, 300), (2, 12345, 7), (1, 299, 300), (3, 5, 0)):
        gen = SplitMix64(seed)
        for _ in range(start):
            gen.next_u64()
        want = [gen.next_u64() % 1000 for _ in range(count)]
        draws, word = residues.draws(seed, start, count)
        assert draws.tolist() == want
        assert word == start + count


@pytest.mark.parametrize("n", [1, 2, 3, 59, (1 << 31) - 1, 1 << 31, (1 << 31) + 1,
                               3 << 61, (1 << 62) + 1, (1 << 63) - 1, 1 << 63])
def test_residue_windows_match_scalar_draws(counted_words, n):
    # two chained windows from a nonzero word, with an empty window between;
    # about a quarter of all words are rejected at 3 * 2**61 and 2**62 + 1:
    # a window drops them and reads on, the next starts where it stopped
    gen = counted_words(5)
    for _ in range(9):
        gen.next_u64()
    residues = _Residues(n, 40)
    word = gen.words
    for count in (40, 0, 23):
        want = [gen.uniform_int(n) - 1 for _ in range(count)]
        draws, word = residues.draws(5, word, count)
        assert draws.dtype == np.int64
        assert draws.tolist() == want
        assert word == gen.words


def test_window_keeps_the_largest_accepted_word_past_a_rejected_one():
    # A seed whose word 1 is an odd v above 2**65 / 3 and whose word 0 is
    # above v: at n = (v + 1) / 2, 2**64 div n is 2, so v = 2n - 1 is the
    # largest accepted word.  The window drops word 0 and keeps word 1.
    for seed in itertools.count():
        first, v = mix64(seed + GAMMA), mix64(seed + 2 * GAMMA)
        if v % 2 and first > v > (1 << 65) // 3:
            break
    n = (v + 1) // 2
    assert (1 << 64) // n * n - 1 == v
    gen = SplitMix64(seed)
    want = [gen.uniform_int(n) - 1 for _ in range(4)]
    draws, _ = _Residues(n, 4).draws(seed, 0, 4)
    assert draws.tolist() == want and want[0] == v % n


def test_sub_seed_properties():
    assert sub_seed(1, 0) == sub_seed(1, 0)
    seeds = {sub_seed(1, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert sub_seed(1, 0) != sub_seed(2, 0)
    with pytest.raises(ValueError):
        sub_seed(1, -1)


def test_mix64_is_bijective_sample():
    outs = {mix64(z) for z in range(4096)}
    assert len(outs) == 4096


def test_stream_dtype_and_bounds():
    vals = uniform_block(9, 6, 10 ** 4)
    assert vals.min() >= 1 and vals.max() <= 6
    # roughly uniform: each value within 10% of expectation
    counts = np.bincount(vals, minlength=7)[1:]
    assert abs(counts - 10 ** 4 / 6).max() < 0.1 * 10 ** 4 / 6
