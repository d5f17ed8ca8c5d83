"""Every named check of `parkfun verify --level full`, one test id each.

Each invariant the checks state is defined once, in `parkfun.checks`;
tests elsewhere keep only what no check covers.
"""

import pytest

from parkfun import checks


@pytest.mark.parametrize("fn", [fn for _, fn in checks.FULL_CHECKS],
                         ids=[name for name, _ in checks.FULL_CHECKS])
def test_check_passes(fn):
    passed, detail = fn()
    assert passed, detail
