"""CLI behavior: the stdout corpus, formats, exit codes, checks against other routes."""

import argparse
import hashlib
import json
import runpy
import time
from pathlib import Path

import pytest

from parkfun import checks, cli, exact, simulate

ROOT = Path(__file__).resolve().parent.parent
CORPUS = json.loads((ROOT / "tests" / "data" / "cli_golden.json").read_text())


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


@pytest.mark.parametrize("entry", CORPUS.values(), ids=CORPUS.keys())
def test_stdout_matches_corpus(capsys, entry):
    """Exit code, stdout digest and error line, as recorded in cli_golden.json.

    A change that alters an output on purpose records the new digest,
    which the failure message prints, by hand.
    """
    if "demo" in entry:
        runpy.run_path(str(ROOT / "demos" / f"{entry['demo']}.py"), run_name="__main__")
        code = 0
    else:
        code = cli.main(entry["argv"])
    out, err = capsys.readouterr()
    # only the error line: argparse wraps its usage line to $COLUMNS
    line = next((ln for ln in err.splitlines()
                 if ln.startswith("refused: ") or "error: " in ln), None)
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, digest, line) == (entry["exit"], entry["stdout_sha256"],
                                    entry.get("stderr")), (
        f"{entry.get('argv', entry.get('demo'))}: exit {code} (recorded "
        f"{entry['exit']}), stdout sha256 {digest}, error line {line!r}")


@pytest.mark.parametrize("argv, missing", [
    (("dist", "--n", "5", "--m", "7"), 0),
    # approx is missing for k <= m - n
    (("plotdata-fig1", "--n", "20", "--m", "25", "--m", "12"), 6),
    (("plotdata-fig2", "--n", "12", "--n", "3", "--lambda-max", "2"), 0),
    (("simulate", "--n", "6", "--m", "8", "--trials", "500", "--seed", "9"), 0),
    # m * bitlen(n) = 201600 bits: the exact column is skipped on every row
    (("simulate", "--n", str(2 ** 62), "--m", "3200", "--trials", "1"), 3201),
    (("coupon", "--n", "10", "--seed", "42", "--trials", "3"), 0),
])
def test_csv_and_json_agree_cell_by_cell(capsys, argv, missing):
    """Every CSV cell is its JSON value under the cell rules of the cli docstring."""
    _, csv_out, _ = run_cli(capsys, *argv)
    _, json_out, _ = run_cli(capsys, *argv, "--format", "json")
    payload = json.loads(json_out)
    config, header, *lines = csv_out.splitlines()
    assert json.loads(config.removeprefix("# config ")) == {**payload["config"], "format": "csv"}
    header = header.split(",")
    assert len(lines) == len(payload["records"])
    nulls = 0
    for line, rec in zip(lines, payload["records"]):
        cells = line.split(",")
        assert len(cells) == len(header) == len(rec) and set(header) == set(rec)
        for col, cell in zip(header, cells):
            value = rec[col]
            if value is None:
                nulls += 1
                assert cell == "NA", col
            elif isinstance(value, str):
                assert cell == f'"{value}"' and value.isdigit(), col
            elif isinstance(value, int):
                assert cell == str(value), col
            else:
                assert cell == "%.15g" % value, col
    assert nulls == missing


class TestTable:
    def test_config_echoed_to_stderr(self, capsys):
        _, out, err = run_cli(capsys, "table", "--n", "2")
        assert err.startswith("# config ")
        assert '"command": "table"' in err
        assert not out.startswith("#")


class TestDist:
    def test_csv_counts_sum(self, capsys):
        code, out, _ = run_cli(capsys, "dist", "--n", "4", "--m", "4")
        _, rows = csv_rows(out)
        assert code == 0 and len(rows) == 5
        assert sum(int(r["count"].strip('"')) for r in rows) == 256
        assert all(r["count"].startswith('"') for r in rows)

    def test_json_matches_enumeration(self, capsys):
        code, out, _ = run_cli(capsys, "dist", "--n", "3", "--m", "5",
                               "--format", "json")
        payload = json.loads(out)
        got = [int(rec["count"]) for rec in payload["records"]]
        assert got == list(simulate.enumerate_exhaustive(3, 5).counts)
        assert payload["config"]["command"] == "dist"

    def test_single_k_row_matches_full_law(self, capsys):
        _, full, _ = run_cli(capsys, "dist", "--n", "9", "--m", "12")
        _, rows = csv_rows(full)
        for k in (0, 3, 12):
            _, out, _ = run_cli(capsys, "dist", "--n", "9", "--m", "12", "--k", str(k))
            assert csv_rows(out)[1] == [rows[k]]

    def test_json_roundtrip(self, capsys):
        _, out, _ = run_cli(capsys, "dist", "--n", "5", "--m", "3",
                            "--format", "json")
        payload = json.loads(out)
        dist = exact.defect_distribution(5, 3)
        for rec in payload["records"]:
            k = rec["k"]
            assert rec == {"n": 5, "m": 3, "k": k,
                           "count": str(dist.counts[k]),
                           "probability": exact.ratio_as_float(dist.counts[k], 125)}

    def test_probability_column_precision(self, capsys):
        _, out, _ = run_cli(capsys, "dist", "--n", "4", "--m", "4")
        _, rows = csv_rows(out)
        want = exact.ratio_as_float(107, 256)
        assert float(rows[1]["probability"]) == pytest.approx(want, rel=1e-14)


class TestPlotdataFig1:
    def test_default_panels(self, capsys):
        code, out, _ = run_cli(capsys, "plotdata-fig1")
        header, rows = csv_rows(out)
        assert code == 0
        assert header == ["n", "m", "k", "exact_probability", "approx"]
        assert {r["m"] for r in rows} == {"90", "100", "110"}

    def test_regime_markers(self, capsys):
        _, out, _ = run_cli(capsys, "plotdata-fig1")
        _, rows = csv_rows(out)
        for r in rows:
            m, k = int(r["m"]), int(r["k"])
            if m < 100 + k:
                assert r["approx"] != "NA"
            else:
                assert r["approx"] == "NA"

    def test_support_zeros_for_heavy_traffic(self, capsys):
        _, out, _ = run_cli(capsys, "plotdata-fig1")
        _, rows = csv_rows(out)
        for r in rows:
            if r["m"] == "110" and int(r["k"]) < 10:
                assert float(r["exact_probability"]) == 0.0

    def test_defect_free_probability_pinned(self, capsys):
        _, out, _ = run_cli(capsys, "plotdata-fig1", "--m", "100")
        _, rows = csv_rows(out)
        k0 = next(r for r in rows if r["k"] == "0")
        want = exact.ratio_as_float(101 ** 99, 100 ** 100)
        assert float(k0["exact_probability"]) == pytest.approx(want, rel=1e-14)
        assert k0["approx"] == "NA"


class TestPlotdataFig2:
    def test_columns_and_zero_below_capacity(self, capsys):
        code, out, _ = run_cli(capsys, "plotdata-fig2")
        header, rows = csv_rows(out)
        assert code == 0
        assert header == ["n", "lambda", "m", "exact_full_probability", "limit"]
        for r in rows:
            if int(r["m"]) < int(r["n"]):
                assert float(r["exact_full_probability"]) == 0.0
            if float(r["lambda"]) <= 1.0:
                assert float(r["limit"]) == 0.0

    def test_exact_value_at_lambda_two(self, capsys):
        _, out, _ = run_cli(capsys, "plotdata-fig2", "--n", "20")
        _, rows = csv_rows(out)
        row = next(r for r in rows if r["lambda"] == "2" and r["n"] == "20")
        count = exact.defect_count_explicit(20, 40, 20)
        want = exact.ratio_as_float(count, 20 ** 40)
        assert float(row["exact_full_probability"]) == pytest.approx(want, rel=1e-14)

    def test_equal_lambda_bounds_give_one_point(self, capsys):
        code, out, _ = run_cli(capsys, "plotdata-fig2", "--lambda-min", "1.5",
                               "--lambda-max", "1.5")
        _, rows = csv_rows(out)
        assert code == 0
        assert [(r["lambda"], r["n"]) for r in rows] == [("1.5", "10"), ("1.5", "20")]

    def test_lambda_grid_cap_edge(self, capsys, monkeypatch):
        # the point count comes from the exact Fractions, before any is built
        monkeypatch.setattr(cli, "_LAMBDA_GRID_CAP", 3)
        argv = ("plotdata-fig2", "--n", "10", "--lambda-min", "1", "--lambda-step", "0.1")
        code, out, _ = run_cli(capsys, *argv, "--lambda-max", "1.2")
        assert code == 0 and len(csv_rows(out)[1]) == 3
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, *argv, "--lambda-max", "1000000")
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (3, "")
        assert "refused: 9999991 lambda values exceed the grid cap 3" in err


class TestSimulate:
    def test_small_case_frequencies(self, capsys):
        _, out, _ = run_cli(capsys, "simulate", "--n", "2", "--m", "3",
                            "--trials", "10000", "--seed", "1")
        _, rows = csv_rows(out)
        freqs = [float(r["frequency"]) for r in rows]
        assert freqs[0] == 0.0
        assert abs(freqs[1] - 7 / 8) < 0.015
        assert abs(freqs[2] - 1 / 8) < 0.015
        assert all(r["exact_probability"] != "NA" for r in rows)

    def test_histogram_mode_near_sqrt_n(self, capsys):
        _, out, _ = run_cli(capsys, "simulate", "--n", "100", "--m", "100",
                            "--trials", "100000", "--seed", "7")
        _, rows = csv_rows(out)
        counts = [int(r["count"].strip('"')) for r in rows]
        mode = counts.index(max(counts))
        # defect concentrates on the sqrt(n) scale; the peak sits near sqrt(n)/2
        assert 2 <= mode <= 10

    def test_many_spaces_few_drivers(self, capsys):
        # n >> m: the sampler's memory must not grow with n
        code, out, _ = run_cli(capsys, "simulate", "--n", "1000000", "--m", "5",
                               "--trials", "5000", "--seed", "1")
        assert code == 0
        _, rows = csv_rows(out)
        assert sum(int(r["count"].strip('"')) for r in rows) == 5000

    def test_exact_column_bit_limit_edge(self, capsys, monkeypatch):
        # m * bitlen(n) = 50 * 4000 = 200000 bits (n = 2**49) prints the exact
        # column, and 3 * 66667 = 200001 prints NA; the stub builds no law
        monkeypatch.setattr(exact, "defect_distribution",
                            lambda n, m: exact.DefectDistribution(1, m, (1,) * (m + 1)))
        for n, m, cell in (("562949953421312", "4000", "1"), ("4", "66667", "NA")):
            _, out, _ = run_cli(capsys, "simulate", "--n", n, "--m", m, "--trials", "1")
            assert {r["exact_probability"] for r in csv_rows(out)[1]} == {cell}

    def test_word_budget_edge(self, capsys, monkeypatch):
        # trials * m words: 10 trials of 4 drivers run at a budget of 40
        argv = ("simulate", "--n", "3", "--m", "4", "--trials", "10")
        monkeypatch.setattr(cli, "_WORD_BUDGET", 40)
        assert run_cli(capsys, *argv)[0] == 0
        monkeypatch.setattr(cli, "_WORD_BUDGET", 39)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert "refused: 10 trials of 4 drivers draw 40 stream words, over the budget 39" in err


class TestCoupon:
    def test_lot_beyond_cap_is_refused(self, capsys):
        # about 4 bytes a space: 10**10 spaces would need some 40 GB
        for n in (10 ** 10, simulate.COUPON_SPACE_CAP + 1):
            t0 = time.perf_counter()
            code, out, err = run_cli(capsys, "coupon", "--n", str(n))
            assert time.perf_counter() - t0 < 1.0
            assert code == 3 and out == "" and "refused" in err

    def test_word_budget_edge(self, capsys, monkeypatch):
        # trials * 3n words: 2 runs on 5 spaces run at a budget of 30
        argv = ("coupon", "--n", "5", "--trials", "2")
        monkeypatch.setattr(cli, "_WORD_BUDGET", 30)
        assert run_cli(capsys, *argv)[0] == 0
        monkeypatch.setattr(cli, "_WORD_BUDGET", 29)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert "refused: 2 runs on 5 spaces draw 30 stream words, over the budget 29" in err


class TestVerify:
    @pytest.mark.parametrize("exc", [ValueError, RuntimeError])
    def test_raising_check_is_a_failure(self, capsys, monkeypatch, exc):
        def broken(n, m):
            raise exc("broken on purpose")
        monkeypatch.setattr(exact, "parking_function_count", broken)
        code, out, _ = run_cli(capsys, "verify", "--level", "quick")
        assert code == 1
        assert f"FAIL pollak-consistency: {exc.__name__}: broken on purpose" in out
        assert out.splitlines()[-1].endswith("1 failed")

    def test_full_level_reports_each_check(self, capsys, monkeypatch):
        def broken():
            raise RuntimeError("broken on purpose")
        monkeypatch.setattr(checks, "FULL_CHECKS",
                            [("fine", lambda: (True, "")), ("broken", broken)])
        code, out, _ = run_cli(capsys, "verify", "--level", "full")
        assert code == 1
        assert out.splitlines() == ["PASS fine",
                                    "FAIL broken: RuntimeError: broken on purpose",
                                    "1 passed, 1 failed"]


class TestTailSumTie:
    """Every exact CLI output passes through exact.tail_sum."""

    @pytest.mark.parametrize("argv", [
        ("dist", "--n", "7", "--m", "9"),
        ("dist", "--n", "9", "--m", "7"),
        ("table", "--n", "6"),
        ("plotdata-fig1", "--n", "20", "--m", "18"),
        ("plotdata-fig2", "--n", "12"),
    ])
    def test_off_by_one_tail_sum_changes_output(self, capsys, monkeypatch, argv):
        _, want, _ = run_cli(capsys, *argv)
        right = exact.tail_sum
        # off by one in k: a uniform shift would cancel in every difference
        monkeypatch.setattr(exact, "tail_sum", lambda n, m, k: right(n, m, k + 1))
        _, got, _ = run_cli(capsys, *argv)
        assert got != want


COMMAND_OPTIONS = {
    "table": {"--n", "--out"},
    "dist": {"--n", "--m", "--k", "--format", "--out"},
    "plotdata-fig1": {"--n", "--m", "--format", "--out"},
    "plotdata-fig2": {"--n", "--lambda-min", "--lambda-max", "--lambda-step",
                      "--format", "--out"},
    "simulate": {"--n", "--m", "--trials", "--seed", "--format", "--out"},
    "coupon": {"--n", "--seed", "--trials", "--format", "--out"},
    "verify": {"--level", "--out"},
}


class TestPlumbing:
    def test_each_command_takes_its_options(self):
        sub, = (action for action in cli._build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))
        got = {name: {opt for action in parser._actions
                      for opt in action.option_strings} - {"-h", "--help"}
               for name, parser in sub.choices.items()}
        assert got == COMMAND_OPTIONS

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        # every command writes the same payload to --out as to stdout; only
        # the echoed out-path in the config line differs
        strip = lambda text: [ln for ln in text.splitlines() if not ln.startswith("#")]
        path = tmp_path / "out.txt"
        for argv in [("table", "--n", "3"),
                     ("dist", "--n", "4", "--m", "4"),
                     ("plotdata-fig1", "--n", "6", "--m", "5"),
                     ("plotdata-fig2", "--n", "3", "--lambda-max", "1.5"),
                     ("simulate", "--n", "4", "--m", "4", "--trials", "50"),
                     ("coupon", "--n", "5", "--trials", "2"),
                     ("verify",)]:
            code, out, _ = run_cli(capsys, *argv)
            assert run_cli(capsys, *argv, "--out", str(path))[:2] == (code, "")
            assert out and strip(path.read_text()) == strip(out), argv

    @pytest.mark.parametrize("argv", [("dist", "--n", "3", "--m", "2"), ("verify",)])
    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path, argv):
        # a directory cannot be opened for writing: exit 2 with one error line,
        # so that verify's exit 1 still means a failed check
        code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path))
        assert code == 2 and out == ""
        last = err.splitlines()[-1]
        assert last.startswith("error: ") and str(tmp_path) in last

    def test_cached_parser_keeps_no_state(self, capsys):
        # each run's output equals the same command's on a fresh parser, so
        # no append default (--m, --n) leaks into the next call
        sequence = [
            (0, ["plotdata-fig1", "--n", "20", "--m", "5"]),
            (0, ["plotdata-fig1", "--n", "20"]),
            (0, ["plotdata-fig2", "--n", "12"]),
            (0, ["plotdata-fig2"]),
            (2, ["dist", "--n", "4"]),
            (0, ["dist", "--n", "4", "--m", "4"]),
        ]
        alone = []
        for _, argv in sequence:
            cli._build_parser.cache_clear()
            alone.append(run_cli(capsys, *argv))
        assert cli._build_parser() is cli._build_parser()
        for (code, argv), want in zip(sequence, alone):
            got = run_cli(capsys, *argv)
            assert got[0] == code and got == want
        config = json.loads(alone[1][1].splitlines()[0].removeprefix("# config "))
        assert config["m"] == [90, 100, 110]
        config = json.loads(alone[3][1].splitlines()[0].removeprefix("# config "))
        assert config["n"] == [10, 20]
