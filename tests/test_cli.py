"""CLI behavior: golden output, formats, determinism, exit codes."""

import json
import time
from pathlib import Path

import pytest

from parkfun import checks, cli, exact, simulate

GOLDEN = Path(__file__).parent / "data" / "table1_golden.txt"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


class TestTable:
    def test_golden_match_is_byte_exact(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--n", "10")
        assert code == 0
        assert out == GOLDEN.read_text()

    def test_single_row(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--n", "1")
        data = [ln for ln in out.splitlines()][1:]
        assert code == 0 and data == ["1 1"]

    def test_prefix_stability(self, capsys):
        _, out12, _ = run_cli(capsys, "table", "--n", "12")
        golden_rows = GOLDEN.read_text().splitlines()[1:]
        assert out12.splitlines()[1:11] == golden_rows

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

    def test_trivial_case(self, capsys):
        code, out, _ = run_cli(capsys, "dist", "--n", "1", "--m", "0")
        _, rows = csv_rows(out)
        assert code == 0 and len(rows) == 1
        assert rows[0]["count"] == '"1"' and rows[0]["k"] == "0"

    def test_single_k_row(self, capsys):
        _, out, _ = run_cli(capsys, "dist", "--n", "4", "--m", "4", "--k", "2")
        _, rows = csv_rows(out)
        assert len(rows) == 1 and rows[0]["count"] == '"23"'

    def test_single_k_row_matches_full_law(self, capsys):
        _, full, _ = run_cli(capsys, "dist", "--n", "9", "--m", "12")
        _, rows = csv_rows(full)
        for k in (0, 3, 12):
            _, out, _ = run_cli(capsys, "dist", "--n", "9", "--m", "12", "--k", str(k))
            assert csv_rows(out)[1] == [rows[k]]

    def test_single_k_refusals(self, capsys):
        code, _, err = run_cli(capsys, "dist", "--n", "4", "--m", "4", "--k", "5")
        assert code == 2 and "k must lie in 0..4" in err
        code, _, err = run_cli(capsys, "dist", "--n", "0", "--m", "3", "--k", "1")
        assert code == 2 and "no spaces" in err

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

    def test_ordering_above_one(self, capsys):
        _, out, _ = run_cli(capsys, "plotdata-fig2")
        _, rows = csv_rows(out)
        by_lambda = {}
        for r in rows:
            by_lambda.setdefault(r["lambda"], {})[r["n"]] = r
        for lam, group in by_lambda.items():
            if float(lam) > 1.0:
                v10 = float(group["10"]["exact_full_probability"])
                v20 = float(group["20"]["exact_full_probability"])
                assert v10 >= v20 >= float(group["20"]["limit"])

    def test_exact_value_at_lambda_two(self, capsys):
        _, out, _ = run_cli(capsys, "plotdata-fig2", "--n", "20")
        _, rows = csv_rows(out)
        row = next(r for r in rows if r["lambda"] == "2" and r["n"] == "20")
        count = exact.defect_count_explicit(20, 40, 20)
        want = exact.ratio_as_float(count, 20 ** 40)
        assert float(row["exact_full_probability"]) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("argv", [
        ("--n", "-3", "--lambda-min", "1.5", "--lambda-max", "1.6"),
        ("--n", "0"),
        ("--n", "10", "--n", "0"),
    ])
    def test_lot_without_spaces_is_refused(self, capsys, argv):
        code, out, err = run_cli(capsys, "plotdata-fig2", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ")


class TestSimulate:
    def test_replay_is_byte_identical(self, capsys, tmp_path):
        path = tmp_path / "run.csv"
        argv = ["simulate", "--n", "6", "--m", "8", "--trials", "500",
                "--seed", "9", "--out", str(path)]
        assert cli.main(argv) == 0
        first = path.read_bytes()
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert path.read_bytes() == first

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

    def test_lot_beyond_int64_is_refused(self, capsys):
        # residues of n > 2**63 overflow int64; 2**63 rejects no word
        for n in (2 ** 64 - 1, 2 ** 63 + 1):
            code, _, err = run_cli(capsys, "simulate", "--n", str(n), "--m", "5")
            assert code == 2 and "sampling" in err
        assert run_cli(capsys, "simulate", "--n", str(2 ** 63), "--m", "5")[0] == 0


class TestCoupon:
    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "coupon", "--n", "10", "--seed", "42",
                             "--trials", "3")
        _, out2, _ = run_cli(capsys, "coupon", "--n", "10", "--seed", "42",
                             "--trials", "3")
        assert out1 == out2
        _, rows = csv_rows(out1)
        assert len(rows) == 3 and all(int(r["cars"]) >= 10 for r in rows)

    def test_single_space(self, capsys):
        _, out, _ = run_cli(capsys, "coupon", "--n", "1", "--seed", "5")
        _, rows = csv_rows(out)
        assert rows[0]["cars"] == "1"

    def test_lot_beyond_cap_is_refused(self, capsys):
        # about 36 bytes a space: 10**10 spaces would need some 360 GB
        for n in (10 ** 10, simulate.COUPON_SPACE_CAP + 1):
            t0 = time.perf_counter()
            code, out, err = run_cli(capsys, "coupon", "--n", str(n))
            assert time.perf_counter() - t0 < 1.0
            assert code == 3 and out == "" and "refused" in err


class TestVerify:
    def test_tampered_tail_sum_is_caught(self, capsys, monkeypatch):
        orig = exact.tail_sum
        monkeypatch.setattr(exact, "tail_sum", lambda n, m, k: orig(n, m, k) + k)
        code, out, _ = run_cli(capsys, "verify", "--level", "quick")
        assert code == 1
        # S(1, 1, 1) = 0 and S(1, 1, 2) = 0 become 1 and 2: the detail gives both
        assert ("FAIL monotone-tails: tail sums not monotone at (1,1,2): "
                "S(k-1)=1, S(k)=2") in out.splitlines()

    def test_tampered_recurrence_table_is_caught(self, capsys, monkeypatch):
        # three-way-equivalence reads the recurrence off one DefectTable
        orig = exact.DefectTable.value
        monkeypatch.setattr(exact.DefectTable, "value",
                            lambda self, r, s, k: orig(self, r, s, k) + 1)
        code, out, _ = run_cli(capsys, "verify", "--level", "quick")
        assert code == 1
        failed = [ln.split(":")[0] for ln in out.splitlines() if ln.startswith("FAIL")]
        assert failed == ["FAIL three-way-equivalence", "FAIL closed-form-k0"]

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
    ])
    def test_off_by_one_tail_sum_changes_output(self, capsys, monkeypatch, argv):
        _, want, _ = run_cli(capsys, *argv)
        right = exact.tail_sum
        # off by one in k: a uniform shift would cancel in every difference
        monkeypatch.setattr(exact, "tail_sum", lambda n, m, k: right(n, m, k + 1))
        _, got, _ = run_cli(capsys, *argv)
        assert got != want


class TestPlumbing:
    def test_usage_errors(self, capsys):
        assert run_cli(capsys, "dist", "--n", "0", "--m", "3")[0] == 2
        assert run_cli(capsys, "dist", "--n", "4")[0] == 2          # missing --m
        assert run_cli(capsys, "nope")[0] == 2                      # unknown command
        assert run_cli(capsys, "dist", "--n", "2", "--m", "2",
                       "--bogus", "1")[0] == 2                      # unknown flag
        assert run_cli(capsys, "verify", "--cap", "10")[0] == 2     # removed flag

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "dist.csv"
        assert cli.main(["dist", "--n", "4", "--m", "4", "--out", str(path)]) == 0
        code, out, _ = run_cli(capsys, "dist", "--n", "4", "--m", "4")
        on_disk = path.read_text()
        # identical payload; only the echoed out-path in the config differs
        strip = lambda text: [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert strip(on_disk) == strip(out)

    @pytest.mark.parametrize("argv", [("dist", "--n", "3", "--m", "2"), ("verify",)])
    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path, argv):
        # a directory cannot be opened for writing: exit 2 with one error line,
        # so that verify's exit 1 still means a failed check
        code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path))
        assert code == 2 and out == ""
        last = err.splitlines()[-1]
        assert last.startswith("error: ") and str(tmp_path) in last

    def test_csv_runs_are_byte_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "dist", "--n", "6", "--m", "6")
        _, out2, _ = run_cli(capsys, "dist", "--n", "6", "--m", "6")
        assert out1 == out2

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
