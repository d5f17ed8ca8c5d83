"""Every named check of `parkfun verify --level full`, one test id each.

Each invariant the checks state is defined once, in `parkfun.checks`;
tests elsewhere keep only what no check covers.  A test that restated a
check was folded into it, its stricter bound or extra case included,
and deleted.  Each check runs once per session, through the
`full_check` fixture the acceptance criteria read too.
"""

import math

import pytest

from parkfun import checks


@pytest.mark.parametrize("name", [name for name, _ in checks.FULL_CHECKS])
def test_check_passes(full_check, name):
    passed, detail, _ = full_check(name)
    assert passed, detail


def test_park_instances_are_the_scalar_draws(counted_words):
    # park-implementations' lots are successive scalar draws u on 0..L-1,
    # L = lcm(1..40): 2 * 2000 of them give (n, m) = (u mod 40 + 1,
    # u mod 60 + 1) lot by lot, then the choices follow, u mod n + 1
    modulus = math.lcm(*range(1, 41))
    assert modulus < 1 << 63
    assert all(modulus % d == 0 for d in [*range(1, 41), 60])
    gen = counted_words(0xC0FFEE)

    def draw(d):
        return (gen.uniform_int(modulus) - 1) % d + 1

    sizes = [(draw(40), draw(60)) for _ in range(2000)]
    want = [(n, [draw(n) for _ in range(m)]) for n, m in sizes]
    assert list(checks._park_instances(2000)) == want
    # about 10 of the 66k words are rejected, so the replay covers a skip
    draws = 2 * 2000 + sum(m for _, m in sizes)
    assert gen.words > draws
