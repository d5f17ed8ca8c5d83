import time

import pytest

from parkfun import checks


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
