"""Every named check of `parkfun verify --level full`, one test id each.

Each invariant the checks state is defined once, in `parkfun.checks`;
tests elsewhere keep only what no check covers.  A test that restated a
check was folded into it, its stricter bound or extra case included,
and deleted.  Each check runs once per session, through the
`full_check` fixture the acceptance criteria read too, and again under
each fault of FAULTS that it owns.
"""

import functools
import math
import re
from decimal import Decimal

import pytest

import parkfun
from parkfun import checks, cli


@pytest.mark.parametrize("name", [name for name, _ in checks.FULL_CHECKS])
def test_check_passes(full_check, name):
    passed, detail, _ = full_check(name)
    assert passed, detail


def _plus(shift):
    return lambda f: lambda *args: f(*args) + shift


def _times(scale):
    return lambda f: lambda *args: scale * f(*args)


def _abel_middle(f):
    # at m >= 100, one Abel sum too high: the middle tail k rises by n - m + k
    def tails(n, m, split):
        got, lo = f(n, m, split), max(0, m - n + 1)
        k = (lo + 1 + m) // 2
        got[k - lo - 1] += (n - m + k) * (m >= 100)
        return got
    return tails


def _bins_up(share):
    # a share of each defect bin, rounded down, moves up one defect; seed=
    # passes through as the keyword the checks give it
    def sample(f):
        def moved(*args, **kwargs):
            got = f(*args, **kwargs)
            up = [int(share * c) for c in got.counts[:-1]]
            counts = [c - u + v for c, u, v in zip(got.counts, up + [0], [0] + up)]
            return got._replace(counts=tuple(counts))
        return moved
    return sample


# A fault patches the library attribute its id names.  Its owners, split by
# "; ", are every check it fails in one FULL_CHECKS pass, as measured, with
# fragments of the detail after ": ", and command lines whose stdout it changes.
SMALL = ("three-way-equivalence; support; pollak-consistency; diagonal-special-cases; "
         "exhaustive-oracle-small; exhaustive-oracle-full")
RATIO = "ratio-limit-values; ratio-limits-exact: ratio k=1 error ... "
FAULTS = [
    # phi +- 1 moves the ratio limits too; a scaled phi reaches only the phi half
    *[(f"asymptotic._phi_decimal{d:+}", _plus(d), RATIO + "ends above 0.05") for d in (1, -1)],
    *[(f"asymptotic._phi_decimal*{c}", _times(Decimal(c)), "ratio-limits-exact: phi(0,1) error "
       "... rate below 0.75") for c in ("1.01", "0.99")],
    # +- 1e-3, or a scaled tail limit, moves only the extrapolated limit
    ("asymptotic.defect_ratio_limit+0.1", _plus(0.1), RATIO + "ends above 0.05"),
    *[(f"asymptotic.defect_ratio_limit{d:+}", _plus(d), RATIO + "beyond 2.7e-05")
      for d in (1e-3, -1e-3)],
    ("asymptotic.defect_ratio_limit+1e-11", _plus(1e-11), "ratio-limit-values: (0,0) = 1.0000"),
    ("asymptotic._limiting_tail*1.01", _times(1.01),
     "tail-limit-grid: (0.5,-1) ... beyond 0.00045"),
    *[(f"asymptotic._limiting_tail*{c}", _times(c), "tail-limit-grid: (0.5,0) ... beyond 0.0003")
      for c in (1.001, 0.999)],
    *[(f"asymptotic.pmf_approx*{c}", _times(c), "figure1-order: y=-1 k=0 ... rate below 0.75")
      for c in (1.05, 0.95)],
    ("asymptotic.pmf_approx(exponent*0.95)", lambda f: lambda n, m, k: f(n, m, k) * math.exp(
        0.1 * k * (k - m + n) / n), "figure1-order: y=0 ... not within 0.05 of 1"),
    ("asymptotic.full_lot_limit*(1+1e-12)", _times(1 + 1e-12), "limit-precision: (30.0) is"),
    ("asymptotic.tree_function*(1+1e-12)", _times(1 + 1e-12), "limit-precision: (1.6) is"),
    ("exact.tail_sum+k", lambda f: lambda n, m, k: f(n, m, k) + k, SMALL + "; tail-upper-bound; "
     "full-lot-ordering; ladder-split-agreement; monotone-tails: tail sums not monotone "
     "at (1,1,2): S(k-1)=1, S(k)=2"),
    ("exact.tail_sum+[k=0]", lambda f: lambda n, m, k: f(n, m, k) + (k == 0),
     SMALL + "; row-sums; tail-upper-bound"),
    # off by one in k, since a uniform shift cancels in every difference; the
    # command lines it changes are test_cli's TestTailSumTie
    ("exact.tail_sum(k+1)", lambda f: lambda n, m, k: f(n, m, k + 1), SMALL + "; row-sums; "
     "figure1-order; full-lot-ordering; ladder-split-agreement; coupon-experiment"),
    ("exact.tail_sum_alternating+[n>=100]", lambda f: lambda n, m, k: f(n, m, k) + (n >= 100),
     "ladder-split-agreement"),
    ("exact._full_lot_counts+[n>=10]", lambda f: lambda n, ms: [c + (n >= 10) for c in f(n, ms)],
     "full-lot-ordering"),
    ("exact.DefectTable.value+1", _plus(1), "three-way-equivalence; closed-form-k0"),
    ("exact.DefectTable.value+[r+s>=8,k>=1]", lambda f: lambda t, r, s, k: f(t, r, s, k)
     + (r + s >= 8 and k >= 1), "three-way-equivalence: cp(8,1,1)"),
    ("exact._abel_tails+1", lambda f: lambda n, m, split: [t + 1 for t in f(n, m, split)],
     "exhaustive-oracle-small; exhaustive-oracle-full; ladder-split-agreement"),
    ("exact._abel_tails-middle+1", _abel_middle, "parkfun dist --n 150 --m 150"),
    ("simulate.sample_empirical(3% of each bin up one)", _bins_up(0.03),
     "monte-carlo-calibration: empirical tail at k=10 off by"),
    ("simulate.cars_until_full+2", _plus(2), "coupon-experiment: beyond the 0.1 % point 1.95"),
]


@pytest.mark.parametrize("fault, transform, owners", FAULTS, ids=[row[0] for row in FAULTS])
def test_fault_fails_its_owners(capsys, monkeypatch, fault, transform, owners):
    def stdout(line):
        cli.main(line.split()[1:])
        return capsys.readouterr().out
    owners = [owner.partition(": ") for owner in owners.split("; ")]
    lines = {name: stdout(name) for name, _, _ in owners if name.startswith("parkfun ")}
    path = re.match(r"[\w.]+", fault)[0]
    monkeypatch.setattr("parkfun." + path,
                        transform(functools.reduce(getattr, path.split("."), parkfun)))
    for name, _, fragment in owners:
        if name in lines:
            assert stdout(name) != lines[name], name
        else:
            passed, detail = dict(checks.FULL_CHECKS)[name]()
            # every part of a fragment lies in one "; "-separated series
            parts = fragment.split(" ... ")
            assert not passed and any(all(p in series for p in parts)
                                      for series in detail.split("; ")), detail


@pytest.mark.parametrize("errs, bounds, missed", [
    ((1e-2, 2.5e-3, 6.25e-4), dict(end=0.02, extrapolated=(1, 1e-6)), ""),
    ((1e-2, 1e-2, 1e-4), {}, "not strictly falling"),
    ((-1e-2, -8e-3, -6e-3), {}, "rate below 0.75"),
    ((1.0, 0.25, 0.0625), dict(end=0.02), "ends above 0.02"),
    ((1e-2, 2.5e-3, 1e-3), dict(extrapolated=(1, 1e-5)), "extrapolated beyond 3e-05"),
], ids=["passes", "not-strictly-falling", "low-rate", "above-end", "extrapolated-beyond"])
def test_converges_names_the_condition_missed(errs, bounds, missed):
    # each series misses one condition of _converges, or none; at n =
    # 100/400/1600 the four misses fall at rates 1.66, 0.18, 1 and 0.83
    passed, detail = checks._converges("miss", (100, 400, 1600), errs, 0.75, **bounds)
    assert passed == (not missed)
    assert detail.partition(": ")[2] == missed, detail


def test_verdicts_report_only_failed_series():
    ok, low = (True, "a 1/0.5"), (False, "b 1/0.9: rate below 0.75")
    assert checks._verdicts(lambda: [ok, ok])() == (True, "a 1/0.5; a 1/0.5")
    assert checks._verdicts(lambda: [ok, low, ok])() == (False, "b 1/0.9: rate below 0.75")


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
