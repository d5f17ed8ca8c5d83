import sys
import time
from pathlib import Path

import pytest

# allow running the suite from a fresh checkout without installing
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from parkfun import checks  # noqa: E402


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
