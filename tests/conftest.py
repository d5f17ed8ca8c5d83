import time

import pytest

from parkfun import checks
from parkfun.rng import SplitMix64


@pytest.fixture(scope="session")
def full_check():
    """Run a named FULL_CHECKS entry once per session.

    Returns (passed, detail, seconds), where seconds is the wall time of
    the one run, so a criterion that states a budget can assert it.
    """
    fns = dict(checks.FULL_CHECKS)
    results = {}

    def run(name):
        if name not in results:
            t0 = time.perf_counter()
            passed, detail = fns[name]()
            results[name] = (passed, detail, time.perf_counter() - t0)
        return results[name]

    return run


class _CountedWords(SplitMix64):
    """The scalar generator, counting the words it has read."""

    words = 0

    def next_u64(self):
        self.words += 1
        return super().next_u64()


@pytest.fixture
def counted_words():
    """The scalar generator class whose instances count the words they read."""
    return _CountedWords
