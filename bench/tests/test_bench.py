"""Tests of the benchmark itself: op generation, metric names, self time, checks.

    python -m pytest bench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from parkfun import exact  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_op_list_is_a_function_of_the_seed(workload):
    assert workloads.generate(workload, 7, 20) == workloads.generate(workload, 7, 20)
    assert workloads.generate(workload, 7, 20) != workloads.generate(workload, 8, 20)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS


def test_metric_specs_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(tracer.PER_LAYER)
    assert tracer.QUICK_CHECK_NAMES == tuple(name for name, _ in workloads.QUICK_CHECKS)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(tmp_path, trace, key):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "sample", "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--out", str(tmp_path)],
        capture_output=True, text=True, check=True, timeout=170)
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC[key]]
    for m in SPEC[key]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    (record,) = tmp_path.glob("*[0-9].json")
    rec = json.loads(record.read_text(encoding="utf-8"))
    assert rec["summary"]["attempted"] == len(rec["ops"]) == result["attempted"]
    assert {"git_sha", "git_dirty", "python", "numpy", "nproc", "cpu"} <= rec.keys()
    # latencies: CPU time over the slowness of the probes around the op;
    # run_s: the run's CPU time over the mean slowness of all its probes
    probes = [p["numpy"] for p in rec["probe_slowness"]]
    assert len(probes) == len(rec["ops"]) + 1
    for i, op in enumerate(rec["ops"]):
        assert op["slowness"] == pytest.approx((probes[i] + probes[i + 1]) / 2)
        assert op["latency_s"] == pytest.approx(op["cpu_s"] / op["slowness"])
    assert rec["summary"]["run_s"] == pytest.approx(
        sum(op["cpu_s"] for op in rec["ops"]) / (sum(probes) / len(probes)))


def test_oracle_ops_take_the_probe_part_of_their_work():
    assert probe.part_for("oracle", "enumerate") == "numpy"
    assert probe.part_for("oracle", "park_batch") == "interp"
    assert probe.part_for("oracle", "verify") == "all"
    assert probe.part_for("exact", "dist") == "all"
    p = probe.slowness("exact")
    assert set(p) == {"bigint", "all"} and p["bigint"] == pytest.approx(p["all"])


def test_refuses_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_bytes(f.read_bytes())
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "exact",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0 and out.stdout == ""


def test_self_time_on_a_synthetic_span_tree():
    t = tracer.Tracer()
    for name, start, end, parent in [
        ("cli.main", 0.0, 10.0, -1),
        ("exact.tail_sum", 1.0, 4.0, 0),
        ("exact.pascal_row", 2.0, 3.0, 1),
        ("exact.tail_sum", 3.0, 6.0, 0),      # overlaps its sibling: union counts once
        ("rng.sub_seed", 9.0, 12.0, 0),        # runs past its parent: clipped
    ]:
        t.record(name, start, end, parent)
    assert list(tracer.self_times(t.start, t.end, t.parent)) == [10 - 5 - 1, 2, 1, 3, 3]
    m = tracer.layer_metrics(t, bytes_out=5)
    assert m["cli.self_s"] == 4.0
    assert m["exact.self_s"] == 6.0 and m["exact.tail_sum.self_s"] == 5.0
    assert m["exact.tail_sum.calls"] == 2 and m["cli.calls"] == 1
    assert m["rng.self_s"] == 3.0 and m["cli.bytes_out"] == 5
    assert m["simulate.park.calls"] == 0


def test_tail_falls_on_the_flat_dist_stretch():
    # Every `dist --k` op and the 12 middle `dist` ops share one modelled
    # cost whatever the seed; 2 `dist` ops cost well above it.
    flat = workloads.TAIL_SHARE * workloads._dist_cost(600, 600)
    for seed in range(1, 6):
        ops = workloads.generate("exact", seed, 20)
        dense = [op for op in ops if op["kind"] in ("dist", "dist_k")]
        costs = sorted(workloads._dist_cost(op["n"], op["m"]) / flat for op in dense)
        on_flat = [c for c in costs if abs(c - 1) < 0.03]
        assert len(on_flat) == 15
        above = [c for c in costs if c > 1.03]
        assert len(above) == 2 and min(above) >= 2
        assert all(abs(workloads._dist_cost(op["n"], op["m"]) / flat - 1) < 0.03
                   for op in dense if op["kind"] == "dist_k")
        assert all(200 <= op["n"] <= 600 and abs(op["m"] - op["n"]) <= 30 for op in dense)


def test_large_lots_take_up_the_wide_ops_cost():
    # The modelled cost of the wide ops and the `dist` ops together is the
    # same for every seed, while the wide draws vary.
    totals, wide_ms = [], set()
    for seed in range(1, 11):
        ops = workloads.generate("exact", seed, 20)
        totals.append(sum(
            workloads.WIDE_SHARE * (op["m"] / 500) ** workloads.WIDE_EXPONENT
            if op["kind"] == "wide"
            else workloads._dist_cost(op["n"], op["m"]) / workloads._dist_cost(600, 600)
            for op in ops if op["kind"] in ("wide", "dist")))
        wide_ms.add(tuple(sorted(op["m"] for op in ops if op["kind"] == "wide")))
    assert max(totals) / min(totals) < 1.02
    assert len(wide_ms) == 10


def test_sampling_ops_follow_the_cost_profile():
    # 40 % of the ops sit at the median's modelled cost, and op_tail_s's
    # rank, the 11th slowest, falls on the second flat stretch.
    for seed in range(1, 6):
        ops = workloads.generate("sample", seed, 20)
        costs = []
        for op in ops:
            c, a, b = workloads.TRIAL_COST[op["kind"]]
            costs.append(op["trials"] * c * op["n"] ** a * op["m"] ** b
                         / workloads.SAMPLE_OP_SECONDS)
        costs.sort()
        assert sum(abs(x - 1.0) < 0.01 for x in costs) >= 26
        assert abs(costs[len(costs) // 2] - 1.0) < 0.01
        assert abs(costs[-11] - 1.35) < 0.01


def test_tail_percentile_keeps_ten_ops_beyond():
    value, pct = run.tail([float(i) for i in range(1, 101)])
    assert (value, pct) == (90.0, 90.0)
    assert run.tail([1.0, 2.0]) == (2.0, 100.0)


def test_compare_verdicts():
    parent = {s: 10.0 + 0.1 * (s % 3) for s in range(10)}
    assert compare.verdict(parent, {s: v * 0.8 for s, v in parent.items()},
                           0.1, True)[0] == "better"
    assert compare.verdict(parent, {s: v * 1.2 for s, v in parent.items()},
                           0.1, True)[0] == "worse"
    assert compare.verdict(parent, dict(parent), 0.1, True)[0] == "unchanged"
    noisy = {s: 10.0 * (1 + (s % 2)) for s in range(10)}
    assert compare.verdict(noisy, dict(noisy), 0.1, True)[0] == "unresolved"
    assert compare.verdict(parent, {s: v * 1.2 for s, v in parent.items()},
                           0.1, False)[0] == "better"


def _statuses(ops):
    out = []
    for op in ops:
        inputs = workloads.prepare(op)
        out.append(workloads.check_op(op, workloads.run_op(op, inputs), inputs)[0])
    return out


def test_exact_ops_pass_their_checks():
    ops = workloads.generate("exact", 11, 1)
    assert {op["kind"] for op in ops} == set(workloads.MIXES["exact"])
    assert set(_statuses(ops)) <= {"ok", "known-defect"}


def test_off_by_one_tail_sum_fails_every_exact_op(monkeypatch):
    # Off by one in k: a uniform +1 would cancel in every difference of
    # tails, leaving the printed counts correct.
    right = exact.tail_sum
    monkeypatch.setattr(exact, "tail_sum", lambda n, m, k: right(n, m, k + 1))
    ops = workloads.generate("exact", 11, 1)
    assert _statuses(ops).count("ok") == 0


def test_known_defect_needs_the_predicted_digit_count():
    res = {"rc": 2, "stdout": "", "stderr": "error: Exceeds the limit (4300 digits)"}
    too_big = {"kind": "wide", "n": 10 ** 9, "m": 500, "check_seed": 1}
    fits = {"kind": "wide", "n": 10 ** 6, "m": 300, "check_seed": 1}
    assert workloads.check_op(too_big, res)[0] == "known-defect"
    assert workloads.check_op(fits, res)[0] == "wrong"
