"""Every named check of `parkfun verify --level full`, one test id each.

Each invariant the checks state is defined once, in `parkfun.checks`;
tests elsewhere keep only what no check covers.  A test that restated a
check was folded into it, its stricter bound or extra case included,
and deleted.  Each check runs once per session, through the
`full_check` fixture the acceptance criteria read too.
"""

import pytest

from parkfun import checks
from parkfun.rng import SplitMix64


@pytest.mark.parametrize("name", [name for name, _ in checks.FULL_CHECKS])
def test_check_passes(full_check, name):
    passed, detail, _ = full_check(name)
    assert passed, detail


def test_park_instances_are_the_scalar_draws():
    # the block reader must hand park-implementations the very lots that
    # successive scalar calls draw: n, then m, then m choices
    gen = SplitMix64(0xC0FFEE)
    want = []
    for _ in range(2000):
        n = gen.uniform_int(40)
        m = gen.uniform_int(60)
        want.append((n, [gen.uniform_int(n) for _ in range(m)]))
    assert list(checks._park_instances(2000)) == want
