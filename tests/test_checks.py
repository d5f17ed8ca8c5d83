"""Every named check of `parkfun verify --level full`, one test id each.

Each invariant the checks state is defined once, in `parkfun.checks`;
tests elsewhere keep only what no check covers.  A test that restated a
check was folded into it, its stricter bound or extra case included,
and deleted.  Each check runs once per session, through the
`full_check` fixture the acceptance criteria read too.
"""

import math

import pytest

from parkfun import asymptotic, checks


@pytest.mark.parametrize("name", [name for name, _ in checks.FULL_CHECKS])
def test_check_passes(full_check, name):
    passed, detail, _ = full_check(name)
    assert passed, detail


def test_ratio_limits_exact_fails_on_either_wrong_target(monkeypatch):
    # the phi half, with the ratio limits held at their true values: phi + 1
    # makes the misses grow, and phi - 1 makes them fall at rate about 0
    ratio = {k: asymptotic.defect_ratio_limit(0, k) for k in (1, 2)}
    phi = asymptotic._phi_decimal
    for shift in (1, -1):
        with monkeypatch.context() as patch:
            patch.setattr(asymptotic, "defect_ratio_limit", lambda ell, k: ratio[k])
            patch.setattr(asymptotic, "_phi_decimal", lambda ell, k: phi(ell, k) + shift)
            passed, detail = checks.check_ratio_limits_exact()
        assert not passed and detail.startswith("phi(0,1) error"), detail
    # the ratio half: + 0.1 makes the misses level off, and +- 1e-3 leaves
    # them falling at rates 0.90 and 1.14 but moves the extrapolated limit
    for shift, tripped in ((0.1, "to <= 5e-2"), (1e-3, "beyond 2.7e-05"),
                           (-1e-3, "beyond 2.7e-05")):
        with monkeypatch.context() as patch:
            patch.setattr(asymptotic, "defect_ratio_limit",
                          lambda ell, k: ratio[k] + shift)
            passed, detail = checks.check_ratio_limits_exact()
        assert not passed and detail.startswith("ratio k=1 error"), detail
        assert detail.endswith(tripped), detail


@pytest.mark.parametrize("scale", [1.01, 1.001, 0.999])
def test_tail_limit_grid_fails_on_a_wrong_limit(monkeypatch, scale):
    # every raw miss still falls at a rate above 1/4; the extrapolated miss
    # moves by (scale - 1) times the limit, 6e-4 at (0.5, 0) for 1 +- 1e-3
    tail = asymptotic._limiting_tail
    monkeypatch.setattr(asymptotic, "_limiting_tail", lambda x, y: scale * tail(x, y))
    passed, detail = checks.check_tail_limit_grid()
    assert not passed and ", extrapolated " in detail and " beyond " in detail, detail


@pytest.mark.parametrize("scale, expo, tripped", [
    (1.05, 2.0, "k=0 rate below 3/4"),      # the k = 0 atom's miss levels off
    (0.95, 2.0, "k=0 rate below 3/4"),
    (1.0, 1.9, "not within 0.05 of 1"),     # every rate holds; the mass moves 5 %
])
def test_figure1_order_fails_on_a_wrong_pmf_approx(monkeypatch, scale, expo, tripped):
    # scale * (2/n)(2k - m + n) exp(-expo * k(k - m + n)/n); pmf_approx has 1 and 2
    monkeypatch.setattr(asymptotic, "pmf_approx", lambda n, m, k: scale * 2.0 / n
                        * (2 * k - m + n) * math.exp(-expo * k * (k - m + n) / n))
    passed, detail = checks.check_figure1_order()
    assert not passed and detail.endswith(tripped), detail


def test_park_instances_are_the_scalar_draws(counted_words):
    # park-implementations' lot i has n = i mod 40 + 1 and m = 7 * (i // 40)
    # mod 60 + 1; its m choices are the next scalar draws u on 0..L-1,
    # L = lcm(1..40), each u mod n + 1
    modulus = math.lcm(*range(1, 41))
    assert modulus < 1 << 63
    assert all(modulus % d == 0 for d in range(1, 41))
    gen = counted_words(0xC0FFEE)
    want = []
    for i in range(2000):
        n, m = i % 40 + 1, 7 * (i // 40) % 60 + 1
        want.append((n, [(gen.uniform_int(modulus) - 1) % n + 1 for _ in range(m)]))
    assert list(checks._park_instances(2000)) == want
    # a few of the 59k words are rejected, so the replay covers a skip
    assert gen.words > sum(len(choices) for _, choices in want)


def test_park_instances_sweep_every_shape_once():
    # the lots are prefix-stable, and lots 0..2399 hold each shape
    # (n, m) with n <= 40, m <= 60 exactly once
    lots = list(checks._park_instances(2400))
    assert list(checks._park_instances(300)) == lots[:300]
    assert list(checks._park_instances(2000)) == lots[:2000]
    shapes = sorted((n, len(choices)) for n, choices in lots)
    assert shapes == [(n, m) for n in range(1, 41) for m in range(1, 61)]
