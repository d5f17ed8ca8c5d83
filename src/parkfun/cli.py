"""Command-line front end.

Subcommands (every one takes --out; all but table and verify take --format):

    table           defect counts cp(n, n, k) for n = 1..n_max, one row per n
    dist            full defect distribution for one (n, m)
    plotdata-fig1   exact probabilities vs the large-n approximation
    plotdata-fig2   exact full-lot probabilities vs the limiting curve
    simulate        seeded Monte Carlo defect histogram
    coupon          cars sent into one lot until it fills
    verify          cross-method invariant suites (quick or full)

Counts are emitted as decimal strings, never floats; probability columns
are derived values printed with 15 significant digits.  CSV output is
RFC-4180-style (comma separated, header row) preceded by one
`# config {..}` comment line echoing the resolved configuration; JSON
output carries the same configuration in a "config" field.  A CSV cell
is a bare int, a quoted count, a %.15g float, or NA where JSON has null.
The plain-text commands (table, verify) echo their configuration to
stderr so their stdout stays machine-comparable.

Exit codes: 0 success, 1 verification failure, 2 usage error or an
--out path that cannot be written (OSError), 3 refusal (exact.BudgetError)
of a coupon lot above COUPON_SPACE_CAP spaces, of a plotdata-fig2 lambda
grid above _LAMBDA_GRID_CAP points, or of a simulate or coupon run that
would draw more than _WORD_BUDGET stream words.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

# simulate, rng and checks load numpy, so only the commands that use them
# import them: the exact commands start without it
from . import asymptotic, exact

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP_REFUSED = 3

# a plotdata-fig2 lambda grid is built whole before its first row
_LAMBDA_GRID_CAP = 10 ** 5

# stream words a simulate or coupon run may draw.  On a 2-core Xeon, CPU
# min of 3: 0.9 min of simulate at 6.2 ns a word (n = m = 1000), 1.3-1.5
# min of coupon at n = 10**5 (9.4-10.4 ns a counted word), 1.7-1.9 min at
# 10**7 (11.6-13.1)
_WORD_BUDGET = 1 << 33

# counts stay exact far beyond this, but probability columns need n**m;
# beyond ~200k bits the exact column is skipped rather than stalled on
_EXACT_COLUMN_BIT_LIMIT = 200_000


def _na_last(template: str):
    # the line of a row whose last cell, a float, may be None: NA in CSV
    full, short = (template + ",%.15g\n").__mod__, (template + ",NA\n").__mod__
    return lambda row: short(row[:-1]) if row[-1] is None else full(row)


def _config(args, **resolved) -> tuple[dict, str]:
    # every option as resolved, and its one-line echo; both outputs sort keys
    config = {**vars(args), **resolved}
    return config, "# config " + json.dumps(config, sort_keys=True) + "\n"


def _write(args, text: str) -> None:
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit(args, columns, rows, line, **resolved) -> int:
    # rows are tuples in column order; line formats one as one CSV line
    config, echo = _config(args, **resolved)
    if args.format == "json":
        records = [dict(zip(columns, row)) for row in rows]
        _write(args, json.dumps({"config": config, "records": records},
                                sort_keys=True, indent=2) + "\n")
    else:
        _write(args, echo + ",".join(columns) + "\n" + "".join(map(line, rows)))
    return EXIT_OK


def _text(args, lines: list[str], code: int = EXIT_OK) -> int:
    sys.stderr.write(_config(args)[1])
    _write(args, "\n".join(lines) + "\n")
    return code


def cmd_table(args) -> int:
    if args.n < 1:
        raise ValueError("table needs n >= 1")
    lines = ["n " + " ".join(f"k={k}" for k in range(args.n))]
    for n in range(1, args.n + 1):
        vals = exact.defect_distribution(n, n).counts[:n]
        lines.append(f"{n} " + " ".join(str(v) for v in vals))
    return _text(args, lines)


def cmd_dist(args) -> int:
    n, m = args.n, args.m
    if args.k is None:
        ks = range(m + 1)
        counts = exact.defect_distribution(n, m).counts
    else:
        # one count takes two Abel point queries, not the whole law
        exact._check_lot(n, m)
        if not 0 <= args.k <= m:
            raise ValueError(f"k must lie in 0..{m}")
        ks = [args.k]
        counts = {args.k: exact.defect_count_explicit(n, m, args.k)}
    total = n ** m
    rows = [(n, m, k, str(counts[k]), exact.ratio_as_float(counts[k], total))
            for k in ks]
    return _emit(args, ("n", "m", "k", "count", "probability"), rows,
                 '%d,%d,%d,"%s",%.15g\n'.__mod__)


def cmd_plotdata_fig1(args) -> int:
    m_list = args.m if args.m else [90, 100, 110]
    n = args.n
    rows = []
    for m in m_list:
        probs = exact.defect_distribution(n, m).probabilities()
        rows += [(n, m, k, probs[k],
                  asymptotic.pmf_approx(n, m, k) if m < n + k else None)
                 for k in range(m + 1)]
    return _emit(args, ("n", "m", "k", "exact_probability", "approx"), rows,
                 _na_last("%d,%d,%d,%.15g"), m=m_list)


def _lambda_grid(lo: float, hi: float, step: float) -> list[Fraction]:
    # exact decimal steps so floor(lambda * n) never wobbles on float dust
    flo, fhi, fstep = (Fraction(str(x)) for x in (lo, hi, step))
    if fstep <= 0 or flo <= 0:
        raise ValueError("lambda grid must be positive with positive step")
    if flo > fhi:
        raise ValueError("lambda grid needs lambda-min <= lambda-max")
    points = (fhi - flo) // fstep + 1
    if points > _LAMBDA_GRID_CAP:
        raise exact.BudgetError(
            f"{points} lambda values exceed the grid cap {_LAMBDA_GRID_CAP}")
    return [flo + i * fstep for i in range(points)]


def cmd_plotdata_fig2(args) -> int:
    n_list = args.n if args.n else [10, 20]
    if min(n_list) < 1:
        raise ValueError("plotdata-fig2 needs n >= 1")
    grid = _lambda_grid(args.lambda_min, args.lambda_max, args.lambda_step)
    # each column is one walk along its increasing m = floor(lambda * n) >= n
    full = {}
    for n in set(n_list):
        ms = [m for m in dict.fromkeys(int(lam * n) for lam in grid) if m >= n]
        full[n] = dict(zip(ms, exact._full_lot_counts(n, ms)))
    rows = []
    for lam in grid:
        lam_f = float(lam)
        limit = asymptotic.full_lot_limit(lam_f)
        for n in n_list:
            m = int(lam * n)  # floor, exactly
            if m < n:
                p_full = 0.0
            else:
                p_full = exact.ratio_as_float(full[n][m], n ** m)
            rows.append((n, lam_f, m, p_full, limit))
    return _emit(args, ("n", "lambda", "m", "exact_full_probability", "limit"),
                 rows, "%d,%.15g,%d,%.15g,%.15g\n".__mod__, n=n_list)


def _check_words(words: int, what: str) -> None:
    # counted from the arguments, before the first draw
    if words > _WORD_BUDGET:
        raise exact.BudgetError(
            f"{what} draw {words} stream words, over the budget {_WORD_BUDGET}")


def cmd_simulate(args) -> int:
    n, m, trials = args.n, args.m, args.trials
    _check_words(trials * m, f"{trials} trials of {m} drivers")
    from . import simulate
    emp = simulate.sample_empirical(n, m, trials, args.seed)
    exact_probs = None
    if m * n.bit_length() <= _EXACT_COLUMN_BIT_LIMIT:
        exact_probs = exact.defect_distribution(n, m).probabilities()
    rows = [(n, m, k, trials, str(c), c / trials,
             exact_probs[k] if exact_probs else None)
            for k, c in enumerate(emp.counts)]
    return _emit(args, ("n", "m", "k", "trials", "count", "frequency",
                        "exact_probability"), rows,
                 _na_last('%d,%d,%d,%d,"%s",%.15g'))


def cmd_coupon(args) -> int:
    if args.trials < 1:
        raise ValueError("need at least one run")
    from . import simulate
    from .rng import sub_seed
    simulate._check_coupon_lot(args.n)
    # a run is counted as 3n words, an over-count kept until a time
    # estimate replaces it: the lot fills after about 1.7n cars on
    # average, and past car n words are drawn in windows of about n / 8
    _check_words(args.trials * 3 * args.n,
                 f"{args.trials} runs on {args.n} spaces")
    rows = [(args.n, i, simulate.cars_until_full(args.n, sub_seed(args.seed, i)))
            for i in range(args.trials)]
    return _emit(args, ("n", "run", "cars"), rows, "%d,%d,%d\n".__mod__)


def cmd_verify(args) -> int:
    from . import checks
    suite = checks.QUICK_CHECKS if args.level == "quick" else checks.FULL_CHECKS
    lines = []
    failed = 0
    for name, fn in suite:
        try:
            passed, detail = fn()
        except Exception as exc:
            # a check that raises is a failed check, reported like the rest
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        lines.append(f"PASS {name}" if passed else f"FAIL {name}: {detail}")
        failed += not passed
    lines.append(f"{len(suite) - failed} passed, {failed} failed")
    return _text(args, lines, EXIT_VERIFY_FAILED if failed else EXIT_OK)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args keeps no state between calls
    parser = argparse.ArgumentParser(
        prog="parkfun",
        description="Exact, asymptotic and simulated counts of defective "
                    "parking functions.")
    sub = parser.add_subparsers(dest="command", required=True)
    # --out and --format are each declared once, in a parent parser
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write to this file, not to stdout")
    fmt = argparse.ArgumentParser(add_help=False, parents=[out])
    fmt.add_argument("--format", choices=("csv", "json"), default="csv")

    def command(name, parent, func, about):
        p = sub.add_parser(name, parents=[parent], help=about)
        p.set_defaults(func=func)
        return p

    p = command("table", out, cmd_table, "defect counts cp(n,n,k) up to n_max")
    p.add_argument("--n", type=int, default=10, help="largest n (default 10)")

    p = command("dist", fmt, cmd_dist, "defect distribution for one (n, m)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, default=None,
                   help="restrict output to a single defect value")

    p = command("plotdata-fig1", fmt, cmd_plotdata_fig1,
                "exact probabilities vs large-n approximation")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--m", type=int, action="append",
                   help="driver count; repeatable (default 90, 100, 110)")

    p = command("plotdata-fig2", fmt, cmd_plotdata_fig2,
                "full-lot probabilities vs the limiting curve")
    p.add_argument("--n", type=int, action="append",
                   help="space count; repeatable (default 10, 20)")
    p.add_argument("--lambda-min", type=float, default=0.5)
    p.add_argument("--lambda-max", type=float, default=4.0)
    p.add_argument("--lambda-step", type=float, default=0.05)

    p = command("simulate", fmt, cmd_simulate,
                "seeded Monte Carlo defect histogram")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=1)

    p = command("coupon", fmt, cmd_coupon, "cars sent until the lot fills")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trials", type=int, default=1,
                   help="independent runs; run i uses sub_seed(seed, i)")

    p = command("verify", out, cmd_verify,
                "run the cross-method invariant suites")
    p.add_argument("--level", choices=("quick", "full"), default="quick")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return vars(args).pop("func")(args)  # the rest is the config
    except exact.BudgetError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_CAP_REFUSED
    except (ValueError, OSError) as exc:
        # an unwritable --out is not a failed verification: exit 2, not 1
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
