"""parkfun benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload exact --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the program is imported from
its `src/` directory, so nothing is installed or built.  With `--trace 0`
the last stdout line is a JSON object holding every end-to-end metric;
with `--trace 1` it holds every per-layer metric.  Each run also writes
a result record (and, traced, its spans) under `--out`.
See bench/README.md for the workloads, the metrics and how to read them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("exact", "sample", "oracle")

SETUP_SAMPLES = 11         # fresh interpreters timed per run, half before the
                           # workload and half after; the median is reported
TIME_LIMIT_S = 170         # every run ends, with a result, inside this
TAIL_BEYOND = 10           # op_tail_s: ops that must lie beyond the percentile

# (name, unit) of every end-to-end metric, in print order.
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("op_p50_s", "s"),
              ("op_tail_s", "s"), ("peak_rss_mb", "MB"))


def setup_seconds(count: int, warm: bool) -> list[float]:
    """`count` times from a fresh interpreter's start until `import parkfun`
    returns; with `warm`, after one untimed start that writes bytecode caches."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); import parkfun; "
            "sys.stdout.write(str(time.monotonic_ns()))")
    samples = []
    for i in range(count + warm):
        t0 = time.monotonic_ns()
        out = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=60)
        if i >= warm:
            samples.append((int(out.stdout) - t0) / 1e9)
    return samples


def run_worker(workload: str, seed: int, seconds: float, trace: bool,
               deadline: float, spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
           "--deadline", f"{max(deadline - 30, 1):.1f}"]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    # One thread: no idle BLAS pool.  glibc malloc raises its mmap threshold
    # to at most 32 MiB (trim threshold 64 MiB) after the first large free;
    # fixing it there from the start makes peak RSS depend on the ops, not
    # on the order in which the allocator saw frees.
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", MALLOC_MMAP_THRESHOLD_=str(32 << 20),
               MALLOC_TRIM_THRESHOLD_=str(64 << 20))
    out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                         check=True, timeout=deadline)
    return json.loads(out.stdout.splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND ops beyond it."""
    xs = sorted(latencies)
    if len(xs) <= TAIL_BEYOND:
        return xs[-1], 100.0
    rank = len(xs) - TAIL_BEYOND          # nearest rank, 1-based
    return xs[rank - 1], 100.0 * rank / len(xs)


def summarize(result: dict) -> dict:
    lat = [r["latency_s"] for r in result["ops"] if r["latency_s"] is not None]
    attempted = len(result["ops"])
    failed = sum(1 for r in result["ops"] if r["status"] != "ok")
    value, pct = tail(lat)
    return {"attempted": attempted, "failed": failed,
            "correct": all(r["status"] in ("ok", "known-defect") for r in result["ops"]),
            "error_rate": failed / attempted, "run_s": result["run_s"],
            "run_cpu_s": result["run_cpu_s"], "run_wall_s": result["run_wall_s"],
            "op_p50_s": statistics.median(lat), "op_tail_s": value,
            "tail_percentile": pct, "peak_rss_mb": result["peak_rss_mb"],
            "check_s": result["check_s"], "probes": len(result["probe_slowness"]),
            "probe_slowness": statistics.fmean(p["all"] for p in result["probe_slowness"])}


def environment() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    sha = dirty = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
        if head.returncode == 0:
            sha = head.stdout.strip()
            status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                    env=env, capture_output=True, text=True)
            dirty = bool(status.stdout.strip())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    return {"git_sha": sha, "git_dirty": dirty, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(), "cpu": cpu}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="parkfun benchmark: one workload, one run")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=HERE / "results",
                   help="directory for result records (default bench/results)")
    a = p.parse_args(argv)
    if not (SRC / "parkfun" / "__init__.py").is_file():
        print(f"error: no parkfun sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S

    def left() -> float:
        return deadline - time.monotonic()

    a.out.mkdir(parents=True, exist_ok=True)
    stem = a.out / f"{a.workload}-seed{a.seed}-trace{a.trace}-{time.time_ns()}"
    record = {"workload": a.workload, "seed": a.seed, "seconds": a.seconds,
              "trace": a.trace, **environment()}
    if a.trace:
        base = run_worker(a.workload, a.seed, a.seconds, False, left() / 2)
        traced = run_worker(a.workload, a.seed, a.seconds, True, left(),
                            Path(f"{stem}.spans.json.gz"))
        summary = summarize(traced)
        untraced = summarize(base)
        metrics = dict(traced["layers"])
        # wall time, the clock the spans use
        metrics["trace.run_s"] = summary["run_wall_s"]
        metrics["trace.overhead_s"] = summary["run_wall_s"] - untraced["run_wall_s"]
        metrics["check.s"] = summary["check_s"]
        units = dict(PER_LAYER)
        summary["correct"] = summary["correct"] and untraced["correct"]
        ops = traced["ops"]
    else:
        setup = setup_seconds(SETUP_SAMPLES // 2, warm=True)
        base = run_worker(a.workload, a.seed, a.seconds, False, left() - 10)
        setup = statistics.median(setup + setup_seconds(SETUP_SAMPLES - len(setup), warm=False))
        summary = summarize(base)
        metrics = {"setup_s": setup, **{k: summary[k] for k, _ in END_TO_END[1:]}}
        units = dict(END_TO_END)
        ops = base["ops"]
    record.update(summary=summary, metrics=metrics, ops=ops,
                  probe_slowness=(traced if a.trace else base)["probe_slowness"])
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": summary["correct"], "attempted": summary["attempted"],
                      "failed": summary["failed"],
                      "metrics": {k: {"value": metrics[k], "unit": units[k]}
                                  for k in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
