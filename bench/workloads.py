"""Seeded workloads of the parkfun benchmark: op lists, op execution, output checks.

An op is a plain dict: a "kind" plus the parameters the program receives.
`generate` draws a workload's op list from its seed; `run_op` executes one
op against the program (the CLI in-process, or the library where the
library is the interface); `check_op` verifies the op's output by a route
other than the one the op timed.

Parameters are drawn by stratified sampling: each op kind's count splits
every parameter range into that many equal strata, one draw per stratum,
paired across parameters by seeded shuffles.  Op cost grows steeply with
n (about n**3.7 for a distribution), so plain uniform draws would make the
run's total cost depend on the seed far more than on the program.

The dense `dist` lots go one step further: their stratified draw picks a
modelled cost, not n.  The cost profile (DIST_COST_PROFILE) has a flat
stretch, so the ops that set `op_tail_s` have one modelled cost whatever
the seed; the seed moves their shapes (n, m - n), not their cost.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import statistics
import sys
from fractions import Fraction

import numpy as np

import parkfun
from parkfun import cli, exact, simulate
from parkfun.checks import QUICK_CHECKS
from parkfun.rng import SplitMix64, sub_seed, uniform_block

WORKLOADS = ("exact", "sample", "oracle")

# Op counts per kind for a run of NOMINAL_SECONDS; `generate` scales them
# to the requested run length, so the op list depends on seed and length
# only and a faster program finishes the same list sooner.
NOMINAL_SECONDS = 20
MIXES = {
    # op_p50_s: fig1 ops cost nearly the same at every n, and the tables
    # and fig2 ops that cost less than they do about match the ones that
    # cost more, so the median op is a fig1 op from the middle of their
    # cluster.  op_tail_s, the 11th slowest op, is one from the middle of
    # the flat `dist` stretch (DIST_COST_PROFILE).
    "exact": {"wide": 3, "dist": 20, "dist_k": 3, "fig1": 40, "fig2": 10,
              "table": 60},
    "sample": {"simulate": 34, "sample": 34},
    # Point queries are the cheapest ops and fewer than half the list, so
    # the median falls among the equal-cost park batches.  op_tail_s falls
    # among the costliest enumerations (ENUM_TOP_SHARE).
    "oracle": {"enumerate": 34, "table_build": 34, "park_batch": 34,
               "coupon": 34, "point": 60, "verify": 4},
}

# The dense `dist` ops' modelled cost, as a share of the cost at n = m =
# 600, against the op's stratum u in [0, 1): (u where a segment ends,
# share at its start, share at its end), log-spaced within a segment.
# Of 20 ops, 6 small ones rise from n = 200, 12 sit on a flat stretch at
# n ~ 320 and 2 large ones at n ~ 500-600.  The `dist --k` ops sit on the
# flat stretch too.  The 3 wide ops, even at m = 300, cost more than the
# stretch, so 5 ops are slower than it and op_tail_s, the 11th slowest,
# is the 6th of its 15 ops.
TAIL_SHARE = 0.1
DIST_COST_PROFILE = ((0.3, 0.012, 0.06), (0.9, TAIL_SHARE, TAIL_SHARE), (1.0, 0.7, 0.7))
# A least-squares fit of a distribution's CPU time over n in [200, 600],
# m = n + [-30, 30]: time ~ n**1.43 * m**2.29.
DIST_COST_EXPONENTS = (1.43, 2.29)
# A wide op's CPU time, as a share of the cost at n = m = 600, is about
# WIDE_SHARE * (m / 500)**WIDE_EXPONENT (a fit; n barely matters).  The
# large `dist` lots take up the wide ops' departure from its mean, so the
# run's modelled total does not move with the wide ops the seed draws;
# the wide draws themselves, and so the digit-limit failures, are left as
# they are.
WIDE_SHARE, WIDE_EXPONENT = 1.33, 3.9
WIDE_MEAN_SHARE = statistics.fmean(WIDE_SHARE * (m / 500) ** WIDE_EXPONENT
                                   for m in range(300, 501))

# Sampling ops draw as many trials as take SAMPLE_OP_SECONDS times
# _profile(u, SAMPLE_COST_PROFILE) by a least-squares fit of a trial's CPU
# time, c * n**a * m**b, per kind.  Every op's modelled cost is then set by
# its stratum alone.  The profile runs from 0.5 to 1.5 with two flat
# stretches: 40 % of the ops at 1.0 hold the median op, and 20 % at 1.35,
# with 5 % above them, hold op_tail_s (the 11th slowest of 68).
SAMPLE_OP_SECONDS = 0.36
SAMPLE_COST_PROFILE = ((0.3, 0.5, 0.9), (0.7, 1.0, 1.0), (0.75, 1.1, 1.3),
                       (0.95, 1.35, 1.35), (1.0, 1.45, 1.5))
TRIAL_COST = {"simulate": (1.23e-8, 0.35, 0.86), "sample": (2.05e-9, 0.43, 1.06)}
# A park batch holds as many sequences as take about PARK_BATCH_SECONDS:
# `park` costs about 0.6 us per car, and `park_naive` scans about n/2
# spaces, 15 ns each, for every car that comes after the lot is full.
# Equal-cost batches put the oracle's median op inside one dense cluster.
PARK_BATCH_SECONDS = 0.05
REPLAY_TRIALS = 16          # trials of the scalar replay check, all in block 0
CHECK_PRIME = (1 << 127) - 1

# (n, m) with 10**5 <= n**m <= 2*10**6 and n <= 12: beyond n = 12 the
# enumeration kernel's per-sequence cost grows with n and one op leaves
# the 0.05-0.5 s band.  Sorted by modelled cost, n**m * (m + 18): a
# sequence costs a fixed part plus a part per car.
ENUM_PAIRS = sorted(((n, m) for n in range(2, 13) for m in range(1, 25)
                     if 10 ** 5 <= n ** m <= 2 * 10 ** 6),
                    key=lambda p: (p[0] ** p[1] * (p[1] + 18), p))
# The 5 costliest pairs, (2, 20), (11, 6), (6, 8), (3, 13) and (5, 9),
# cost 0.45-0.6 s each, a third more than the next.  They take half of
# the enumerations, 17 of 34: well over the 11 ops op_tail_s needs, so it
# falls inside this group rather than on its lower edge.  Enumerations
# take their strata's centres, so every run enumerates the same lots (in
# seeded order) and op_tail_s does not move with how often the seed
# happened to draw the cheaper of the 5.
ENUM_TOP, ENUM_TOP_SHARE = 5, 0.5


# ---------------------------------------------------------------------------
# generation


def _strata(rng: random.Random, count: int) -> list[float]:
    """`count` uniforms on [0, 1), one per equal stratum, in seeded order."""
    u = [(i + rng.random()) / count for i in range(count)]
    rng.shuffle(u)
    return u


def _pick(u: float, lo: int, hi: int) -> int:
    return lo + min(int(u * (hi - lo + 1)), hi - lo)


def _dist_cost(n: int, m: int) -> float:
    a, b = DIST_COST_EXPONENTS
    return n ** a * m ** b


def _profile(u: float, profile) -> float:
    """A cost profile at u in [0, 1): log-spaced within each segment."""
    lo = 0.0
    for hi, c0, c1 in profile:
        if u < hi or hi == 1.0:
            return c0 * (c1 / c0) ** ((u - lo) / (hi - lo))
        lo = hi
    raise AssertionError("unreachable")


def _dense(share: float, ud: float) -> tuple[int, int]:
    """A lot with n in [200, 600], m = n + [-30, 30], of modelled cost `share`."""
    delta = _pick(ud, -30, 30)
    target = share * _dist_cost(600, 600)
    lo, hi = 200, 600                     # the least n whose cost reaches the target
    while lo < hi:
        mid = (lo + hi) // 2
        if _dist_cost(mid, mid + delta) < target:
            lo = mid + 1
        else:
            hi = mid
    return lo, lo + delta


def _lam_m(n: int, ul: float) -> int:
    return max(1, round((0.6 + ul) * n))   # m = lambda * n, lambda in [0.6, 1.6)


def _gen_kind(kind: str, rng: random.Random, count: int, drawn: list[dict]) -> list[dict]:
    """`count` ops of `kind`; `drawn` holds the ops drawn so far in the run."""
    cols = [_strata(rng, count) for _ in range(3)]
    if kind == "dist":
        top = DIST_COST_PROFILE[-2][0]
        wide = [op["m"] for op in drawn if op["kind"] == "wide"]
        surplus = sum(WIDE_SHARE * (m / 500) ** WIDE_EXPONENT - WIDE_MEAN_SHARE
                      for m in wide)
        take = surplus / max(1, sum(u >= top for u in cols[0]))
    if kind == "sample":
        # The largest lot also draws the largest lambda and the most trials,
        # so peak_rss_mb reads the sampler's largest block in every run.
        top = cols[0].index(max(cols[0]))
        for col in cols[1:]:
            j = col.index(max(col))
            col[top], col[j] = col[j], col[top]
    ops = []
    for u1, u2, u3 in zip(*cols):
        if kind == "dist":
            share = _profile(u1, DIST_COST_PROFILE)
            if u1 >= top:
                share = max(2 * TAIL_SHARE, share - take)
            n, m = _dense(share, u2)
            op = {"n": n, "m": m}
        elif kind == "dist_k":
            n, m = _dense(TAIL_SHARE, u2)
            lo = max(0, m - n)
            op = {"n": n, "m": m, "k": _pick(u3, lo, min(m, lo + 2 * math.isqrt(n)))}
        elif kind == "wide":
            op = {"n": _pick(u1, 10 ** 6, 10 ** 9), "m": _pick(u2, 300, 500)}
        elif kind == "fig1":
            op = {"n": _pick(u1, 100, 200)}
        elif kind == "fig2":
            op = {"ns": [_pick(u1, 10, 200), _pick(u2, 10, 200)]}
        elif kind == "table":
            op = {"n": _pick(u1, 2, 60)}
        elif kind in ("simulate", "sample"):
            lo, hi = (50, 200) if kind == "simulate" else (500, 1000)
            n = _pick(u1, lo, hi)
            m = _lam_m(n, u2)
            c, a, b = TRIAL_COST[kind]
            trials = (SAMPLE_OP_SECONDS * _profile(u3, SAMPLE_COST_PROFILE)
                      / (c * n ** a * m ** b))
            op = {"n": n, "m": m, "trials": max(1, round(trials)),
                  "seed": rng.randrange(1 << 32)}
        elif kind == "enumerate":
            u1 = (int(u1 * count) + 0.5) / count      # the stratum's centre
            rest = len(ENUM_PAIRS) - ENUM_TOP
            cut = 1 - ENUM_TOP_SHARE
            i = (_pick(u1 / cut, 0, rest - 1) if u1 < cut
                 else rest + _pick((u1 - cut) / ENUM_TOP_SHARE, 0, ENUM_TOP - 1))
            n, m = ENUM_PAIRS[i]
            op = {"n": n, "m": m}
        elif kind == "table_build":
            op = {"r": _pick(u1, 20, 50), "s": _pick(u2, 20, 50),
                  "k": _pick(u3, 5, 15)}
        elif kind == "park_batch":
            n = _pick(u1, 50, 400)
            m = _lam_m(n, u2)
            per_sequence = 0.6e-6 * m + 15e-9 * max(0, m - n) * n / 2
            op = {"n": n, "m": m, "batch": max(1, round(PARK_BATCH_SECONDS / per_sequence)),
                  "seed": rng.randrange(1 << 32)}
        elif kind == "coupon":
            op = {"n": _pick(u1, 10 ** 4, 10 ** 5), "seed": rng.randrange(1 << 32)}
        elif kind == "point":
            n = _pick(u1, 1000, 4000)
            op = {"n": n, "k": _pick(u2 * 2, 1, 5) if u2 < 0.5 else math.isqrt(n)}
        elif kind == "verify":
            op = {}
        else:
            raise ValueError(f"unknown op kind {kind!r}")
        ops.append({"kind": kind, **op})
    return ops


def op_counts(workload: str, seconds: float) -> dict[str, int]:
    scale = seconds / NOMINAL_SECONDS
    return {kind: max(1, round(base * scale))
            for kind, base in MIXES[workload].items()}


def generate(workload: str, seed: int, seconds: float) -> list[dict]:
    """The op list of one run: a pure function of (workload, seed, seconds)."""
    if workload not in MIXES:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"parkfun-bench:{workload}:{seed}")
    ops = []
    for kind, count in op_counts(workload, seconds).items():
        ops.extend(_gen_kind(kind, rng, count, ops))
    rng.shuffle(ops)
    for op in ops:
        op["check_seed"] = rng.randrange(1 << 32)
    return ops


# ---------------------------------------------------------------------------
# execution


def prepare(op: dict):
    """Inputs an op needs beyond its parameters, built before it is timed."""
    if op["kind"] == "park_batch":
        rng = random.Random(op["seed"])
        n, m = op["n"], op["m"]
        return [[rng.randint(1, n) for _ in range(m)] for _ in range(op["batch"])]
    return None


def cli_argv(op: dict) -> list[str] | None:
    kind = op["kind"]
    if kind in ("dist", "wide"):
        return ["dist", "--n", str(op["n"]), "--m", str(op["m"])]
    if kind == "dist_k":
        return ["dist", "--n", str(op["n"]), "--m", str(op["m"]),
                "--k", str(op["k"]), "--format", "json"]
    if kind == "fig1":
        return ["plotdata-fig1", "--n", str(op["n"])]
    if kind == "fig2":
        return ["plotdata-fig2", "--n", str(op["ns"][0]), "--n", str(op["ns"][1])]
    if kind == "table":
        return ["table", "--n", str(op["n"])]
    if kind == "simulate":
        return ["simulate", "--n", str(op["n"]), "--m", str(op["m"]),
                "--trials", str(op["trials"]), "--seed", str(op["seed"])]
    if kind == "coupon":
        return ["coupon", "--n", str(op["n"]), "--seed", str(op["seed"])]
    if kind == "verify":
        return ["verify", "--level", "quick"]
    return None


def run_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_op(op: dict, inputs=None):
    """Execute one op; the return value is the op's raw output."""
    argv = cli_argv(op)
    if argv is not None:
        return run_cli(argv)
    kind = op["kind"]
    if kind == "sample":
        return parkfun.sample_empirical(op["n"], op["m"], op["trials"], op["seed"])
    if kind == "enumerate":
        return parkfun.enumerate_exhaustive(op["n"], op["m"])
    if kind == "table_build":
        return parkfun.DefectTable(op["r"], op["s"], op["k"])
    if kind == "park_batch":
        n = op["n"]
        return ([parkfun.park(n, c) for c in inputs],
                [parkfun.park_naive(n, c) for c in inputs])
    if kind == "point":
        n, k = op["n"], op["k"]
        tail = parkfun.tail_sum_alternating(n, n, k)
        return tail, parkfun.ratio_as_float(tail, n ** n)
    raise ValueError(f"unknown op kind {kind!r}")


# ---------------------------------------------------------------------------
# checks
#
# Each check returns (status, note) with status "ok", "wrong", or
# "known-defect": an op that failed exactly as the documented CPython
# 4300-digit int->str limit predicts (`dist` exits 2 after the work).


class CheckFailed(Exception):
    pass


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _alt_count(n: int, m: int, k: int) -> int:
    """cp(n, m, k) through the alternating tail form (the CLI uses Abel's)."""
    return exact.tail_sum_alternating(n, m, k) - exact.tail_sum_alternating(n, m, k + 1)


def _true_float(num: int, den: int) -> float:
    return float(Fraction(num, den))


def _close(printed: float, ref: float) -> bool:
    return math.isclose(printed, ref, rel_tol=1e-13, abs_tol=1e-300)


def _csv_rows(stdout: str, header: str) -> list[list[str]]:
    lines = stdout.splitlines()
    _expect(len(lines) >= 2 and lines[0].startswith("# config "), "missing config line")
    _expect(lines[1] == header, f"header {lines[1]!r}")
    return [line.split(",") for line in lines[2:]]


def _unquote(cell: str) -> int:
    _expect(cell.startswith('"') and cell.endswith('"'), f"unquoted count {cell!r}")
    return int(cell[1:-1])


def _float_cell(cell: str) -> float | None:
    return None if cell == "NA" else float(cell)


def _check_ks(rng: random.Random, lo: int, hi: int, extra: int) -> set[int]:
    return {lo, hi} | {rng.randint(lo, hi) for _ in range(extra)}


def _exceeds_str_limit(n: int, m: int) -> bool:
    """Whether some count of the (n, m) distribution has too many digits to print.

    For n far above m the defect-free count (n+1-m)(n+1)**(m-1) (Pollak)
    is the largest count, so it decides; the limit is the interpreter's.
    """
    limit = sys.get_int_max_str_digits()
    return limit > 0 and (n + 1 - m) * (n + 1) ** (m - 1) >= 10 ** limit


def _check_dist(op: dict, res: dict, rng: random.Random) -> None:
    n, m = op["n"], op["m"]
    rows = _csv_rows(res["stdout"], "n,m,k,count,probability")
    _expect(len(rows) == m + 1, f"{len(rows)} rows for m={m}")
    counts = []
    for k, row in enumerate(rows):
        _expect(row[:3] == [str(n), str(m), str(k)], f"row {k} keys {row[:3]}")
        counts.append(_unquote(row[3]))
    total = n ** m
    _expect(sum(counts) == total, "counts do not sum to n**m")
    for k in _check_ks(rng, max(0, m - n), m, 3):
        want = _alt_count(n, m, k)
        _expect(counts[k] == want, f"cp({n},{m},{k}) differs from the alternating form")
        _expect(_close(float(rows[k][4]), _true_float(want, total)),
                f"probability at k={k}")


def _check_dist_k(op: dict, res: dict, rng: random.Random) -> None:
    n, m, k = op["n"], op["m"], op["k"]
    doc = json.loads(res["stdout"])
    (rec,) = doc["records"]
    _expect((rec["n"], rec["m"], rec["k"]) == (n, m, k), "record keys")
    want = _alt_count(n, m, k)
    _expect(int(rec["count"]) == want, f"cp({n},{m},{k}) differs from the alternating form")
    _expect(_close(rec["probability"], _true_float(want, n ** m)), "probability")


def _pmf_formula(n: int, m: int, k: int) -> float:
    return 2.0 * (2 * k - m + n) / n * math.exp(-2.0 * k * (k - m + n) / n)


def _check_fig1(op: dict, res: dict, rng: random.Random) -> None:
    n = op["n"]
    rows = _csv_rows(res["stdout"], "n,m,k,exact_probability,approx")
    ms = [90, 100, 110]
    _expect(len(rows) == sum(m + 1 for m in ms), f"{len(rows)} rows")
    i = 0
    for m in ms:
        block = rows[i:i + m + 1]
        i += m + 1
        probs = [float(r[3]) for r in block]
        _expect(abs(sum(probs) - 1.0) < 1e-9, f"probabilities at m={m} sum to {sum(probs)}")
        for k, row in enumerate(block):
            _expect(row[:3] == [str(n), str(m), str(k)], f"row keys {row[:3]}")
            approx = _float_cell(row[4])
            if m < n + k:
                _expect(approx is not None and math.isclose(
                    approx, _pmf_formula(n, m, k), rel_tol=1e-12, abs_tol=1e-300),
                    f"approx at m={m} k={k}")
            else:
                _expect(approx is None, f"approx outside its regime at m={m} k={k}")
        for k in _check_ks(rng, 0, m, 2):
            _expect(_close(probs[k], _true_float(_alt_count(n, m, k), n ** m)),
                    f"exact probability at m={m} k={k}")


def _lambda_grid() -> list[Fraction]:
    return [Fraction(1, 2) + Fraction(i, 20) for i in range(71)]   # 0.5 .. 4.0


def _check_fig2(op: dict, res: dict, rng: random.Random) -> None:
    ns = op["ns"]
    rows = _csv_rows(res["stdout"], "n,lambda,m,exact_full_probability,limit")
    grid = _lambda_grid()
    _expect(len(rows) == len(grid) * len(ns), f"{len(rows)} rows")
    picks = {rng.randrange(len(rows)) for _ in range(3)}
    for idx, row in enumerate(rows):
        lam, n = grid[idx // len(ns)], ns[idx % len(ns)]
        m = math.floor(lam * n)
        _expect(row[0] == str(n) and row[2] == str(m), f"row {idx} keys")
        p, limit = float(row[3]), float(row[4])
        if m < n:
            _expect(p == 0.0, f"full probability {p} with m < n")
        elif idx in picks:
            want = _true_float(_alt_count(n, m, m - n), n ** m)
            _expect(_close(p, want), f"full probability at n={n} m={m}")
        lf = float(lam)
        if lam <= 1:
            _expect(limit == 0.0, f"limit {limit} at lambda <= 1")
        else:
            t = lf * (1.0 - limit)   # the tree function value the limit encodes
            _expect(0.0 <= t <= 1.0 and abs(t * math.exp(-t) - lf * math.exp(-lf)) < 1e-12,
                    f"limit at lambda={lf} does not solve t*e**-t = lambda*e**-lambda")


def _check_table(op: dict, res: dict, rng: random.Random) -> None:
    n_max = op["n"]
    lines = res["stdout"].splitlines()
    _expect(lines[0] == "n " + " ".join(f"k={k}" for k in range(n_max)), "header")
    _expect(len(lines) == n_max + 1, f"{len(lines)} lines")
    picks = {rng.randint(1, n_max) for _ in range(3)} | {n_max}
    for n in range(1, n_max + 1):
        cells = lines[n].split(" ")
        _expect(cells[0] == str(n) and len(cells) == n + 1, f"row {n} shape")
        vals = [int(c) for c in cells[1:]]
        _expect(sum(vals) == n ** n, f"row {n} does not sum to n**n")
        if n in picks:
            for k in _check_ks(rng, 0, n - 1, 2):
                _expect(vals[k] == _alt_count(n, n, k), f"cp({n},{n},{k})")


def _replay_histogram(n: int, m: int, trials: int, seed: int) -> list[int]:
    """Block 0 of a sample, redrawn with the scalar generator and `park`."""
    gen = SplitMix64(sub_seed(seed, 0))
    counts = [0] * (m + 1)
    for _ in range(trials):
        counts[simulate.park(n, [gen.uniform_int(n) for _ in range(m)]).defect] += 1
    return counts


def _check_simulate(op: dict, res: dict, rng: random.Random) -> None:
    n, m, trials = op["n"], op["m"], op["trials"]
    header = "n,m,k,trials,count,frequency,exact_probability"
    rows = _csv_rows(res["stdout"], header)
    _expect(len(rows) == m + 1, f"{len(rows)} rows")
    counts = [_unquote(r[4]) for r in rows]
    _expect(sum(counts) == trials, "histogram does not sum to trials")
    for k, row in enumerate(rows):
        _expect(row[:4] == [str(n), str(m), str(k), str(trials)], f"row {k} keys")
        _expect(_close(float(row[5]), counts[k] / trials), f"frequency at k={k}")
    for k in _check_ks(rng, 0, m, 2):
        _expect(_close(float(rows[k][6]), _true_float(_alt_count(n, m, k), n ** m)),
                f"exact column at k={k}")
    small = run_cli(["simulate", "--n", str(n), "--m", str(m),
                     "--trials", str(REPLAY_TRIALS), "--seed", str(op["seed"])])
    _expect(small["rc"] == 0, "replay-size rerun failed")
    got = [_unquote(r[4]) for r in _csv_rows(small["stdout"], header)]
    _expect(got == _replay_histogram(n, m, REPLAY_TRIALS, op["seed"]),
            "histogram differs from the scalar replay")


def _check_sample(op: dict, res, rng: random.Random) -> None:
    n, m, trials, seed = op["n"], op["m"], op["trials"], op["seed"]
    _expect((res.n, res.m, res.trials, res.seed) == (n, m, trials, seed), "echoed parameters")
    _expect(len(res.counts) == m + 1 and sum(res.counts) == trials,
            "histogram does not sum to trials")
    small = parkfun.sample_empirical(n, m, REPLAY_TRIALS, seed)
    _expect(list(small.counts) == _replay_histogram(n, m, REPLAY_TRIALS, seed),
            "histogram differs from the scalar replay")


def _check_enumerate(op: dict, res, rng: random.Random) -> None:
    want = exact.defect_distribution(op["n"], op["m"]).counts
    _expect(tuple(res.counts) == want, "enumeration differs from the Abel counts")


def _check_table_build(op: dict, res, rng: random.Random) -> None:
    r_max, s_max, k_max = op["r"], op["s"], op["k"]
    cells = {(r_max, s_max, k_max), (0, s_max, 0), (r_max, 0, k_max)}
    cells |= {(rng.randint(0, r_max), rng.randint(0, s_max), rng.randint(0, k_max))
              for _ in range(12)}
    for r, s, k in cells:
        # a(r, s, k) = cp(r + s, s + k, k): r empty, s occupied, k walked
        _expect(res.value(r, s, k) == exact.defect_count_explicit(r + s, s + k, k),
                f"a({r},{s},{k}) differs from the Abel count")


def _check_park_batch(op: dict, res, rng: random.Random, inputs) -> None:
    fast, naive = res
    n = op["n"]
    for choices, a, b in zip(inputs, fast, naive):
        _expect(a == b, "park and park_naive disagree")
        _expect(a.defect == simulate.defect_by_suffix_counts(n, choices),
                "defect differs from the suffix-count rule")
        _expect(a.occupied == frozenset(x for x in a.assignment if x is not None),
                "occupied set")
    _expect(len(fast) == len(naive) == op["batch"], "batch size")


def _suffix_defect(n: int, choices: np.ndarray) -> int:
    occ = np.bincount(choices, minlength=n + 1)[1:]
    over = occ[::-1].cumsum() - np.arange(1, n + 1)
    return max(0, int(over.max()))


def _check_coupon(op: dict, res: dict, rng: random.Random) -> None:
    n = op["n"]
    rows = _csv_rows(res["stdout"], "n,run,cars")
    _expect(len(rows) == 1 and rows[0][:2] == [str(n), "0"], "rows")
    cars = int(rows[0][2])
    _expect(cars >= n, f"{cars} cars cannot fill {n} spaces")
    # the same stream the scalar generator drew from, redrawn vectorized
    choices = uniform_block(sub_seed(op["seed"], 0), n, cars)
    # full after `cars` cars and not one car earlier, by the suffix-count rule
    _expect(cars - _suffix_defect(n, choices) == n, "lot not full after the reported cars")
    _expect(cars - 1 - _suffix_defect(n, choices[:-1]) == n - 1,
            "lot already full before the last car")


def abel_mod(n: int, m: int, k: int, p: int) -> int:
    """The Abel form of S(n, m, k) reduced mod the prime p > m (k > m - n)."""
    a = n - m + k
    fact = [1] * (m + 1)
    for i in range(1, m + 1):
        fact[i] = fact[i - 1] * i % p
    inv = [1] * (m + 1)                  # inv[i] = 1 / i! mod p
    inv[m] = pow(fact[m], p - 2, p)
    for i in range(m, 0, -1):
        inv[i - 1] = inv[i] * i % p
    total = 0
    for i in range(m - k + 1):
        binom = fact[m] * inv[i] % p * inv[m - i] % p
        weight = a * pow(a + i, i - 1, p) % p if i else 1
        total = (total + binom * weight * pow(m - k - i, m - i, p)) % p
    return total


def _check_point(op: dict, res, rng: random.Random) -> None:
    n, k = op["n"], op["k"]
    tail, prob = res
    _expect(0 <= tail <= n ** n, "tail out of range")
    _expect(tail % CHECK_PRIME == abel_mod(n, n, k, CHECK_PRIME),
            "alternating tail differs from the Abel form mod 2**127 - 1")
    _expect(_close(prob, _true_float(tail, n ** n)), "ratio_as_float")


def _check_verify(op: dict, res: dict, rng: random.Random) -> None:
    _expect(res["rc"] == 0, f"verify exited {res['rc']}")
    want = [f"PASS {name}" for name, _ in QUICK_CHECKS]
    want.append(f"{len(QUICK_CHECKS)} passed, 0 failed")
    _expect(res["stdout"].splitlines() == want, "verify report")


_CHECKS = {
    "dist": _check_dist, "wide": _check_dist, "dist_k": _check_dist_k,
    "fig1": _check_fig1, "fig2": _check_fig2, "table": _check_table,
    "simulate": _check_simulate, "sample": _check_sample,
    "enumerate": _check_enumerate, "table_build": _check_table_build,
    "coupon": _check_coupon, "point": _check_point, "verify": _check_verify,
}


def check_op(op: dict, res, inputs=None) -> tuple[str, str]:
    """Verify one op's output; returns (status, note)."""
    rng = random.Random(op["check_seed"])
    try:
        if isinstance(res, dict) and "rc" in res and res["rc"] != 0:
            if (op["kind"] == "wide" and res["rc"] == cli.EXIT_USAGE
                    and "Exceeds the limit" in res["stderr"]
                    and _exceeds_str_limit(op["n"], op["m"])):
                return "known-defect", "count over the int->str digit limit"
            return "wrong", f"exit {res['rc']}: {res['stderr'].strip()[-200:]}"
        if op["kind"] == "park_batch":
            _check_park_batch(op, res, rng, inputs)
        else:
            _CHECKS[op["kind"]](op, res, rng)
    except CheckFailed as exc:
        return "wrong", str(exc)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return "wrong", f"unreadable output: {exc!r}"
    return "ok", ""
