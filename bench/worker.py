"""Run one workload's op list in a fresh interpreter: one client, closed loop.

    python3 bench/worker.py --workload exact --seed 1 --seconds 20 --trace 0 \
        --deadline 150 [--spans PATH]

One process, one thread: each op starts after the previous op and its
output check have finished.  Only the op is timed; its check runs right
after it, outside the timing, so outputs need not be kept.  With
`--trace 1` every call into parkfun records a span (see tracer.py).
Ops not started before `--deadline` seconds count as failed.  Prints one
JSON line: the per-op records, run and check time, peak RSS and, when
traced, the per-layer metrics.

An op's latency is the process CPU time it took, scaled to a nominal
host speed.  On a shared host two things move a timing that the program
does not: the scheduler, which lends the core to other tenants (wall time
grows, CPU time does not), and the speed of the core itself, which
swings by half from one second to the next and drifts by a third over
minutes as other tenants load its neighbours (both grow).  CPU time
removes the first.  For the second, a probe of fixed work that does not
touch parkfun (probe.py) runs before every op and after the last.
- An op's latency is its CPU time divided by the mean slowness of the
  two probes around it (on `oracle`, of the probe part that does the op's
  kind of work: probe.KIND_PART).  The speed swings between a fast and a slow state
  over tenths of a second, and a short op and its neighbouring probes
  mostly see the same state.
- The run's time, `run_s`, sums each op's CPU time divided by the mean
  slowness of all the run's probes (the same part): for a sum over the
  whole run, the mean
  over the run is the matching speed, and it is not thrown off by the
  two probes around a long op that happen to catch the fast state.
Raw CPU and wall times are kept per op.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import probe  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

PROBE_WARMUP = 3            # probes run and discarded before the first op


def run(workload: str, seed: int, seconds: float, trace: bool,
        deadline: float, spans_path: str | None = None) -> dict:
    ops = workloads.generate(workload, seed, seconds)
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()
    stop_at = time.monotonic() + deadline
    records = []
    check_s = 0.0
    bytes_out = 0
    for _ in range(PROBE_WARMUP):
        probe.slowness(workload)
    probes = []
    for i, op in enumerate(ops):
        rec = {"op": {k: v for k, v in op.items() if k != "check_seed"}}
        records.append(rec)
        if time.monotonic() > stop_at:
            rec.update(cpu_s=None, wall_s=None, status="not-run",
                       note="run deadline passed")
            continue
        probes.append(probe.slowness(workload))
        inputs = workloads.prepare(op)
        if tracer:
            tracer.op, tracer.enabled = i, True
            root = tracer.open("bench.op")
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            res, error = workloads.run_op(op, inputs), None
        except Exception as exc:   # the op failed: record it and go on
            res, error = None, repr(exc)
        cpu, wall = time.process_time() - c0, time.perf_counter() - w0
        if tracer:
            tracer.close(root)
            tracer.enabled = False
        t1 = time.perf_counter()
        status, note = ("failed", error) if error else workloads.check_op(op, res, inputs)
        check_s += time.perf_counter() - t1
        if isinstance(res, dict) and "stdout" in res:
            bytes_out += len(res["stdout"].encode())
        rec.update(cpu_s=cpu, wall_s=wall, status=status, note=note,
                   probe=len(probes) - 1)
        del res, inputs
    probes.append(probe.slowness(workload))
    timed = [r for r in records if r["cpu_s"] is not None]
    run_mean = {part: statistics.fmean(p[part] for p in probes) for part in probes[0]}
    for rec in records:
        rec["latency_s"] = None
    run_s = 0.0
    for rec in timed:
        part = probe.part_for(workload, rec["op"]["kind"])
        # the probes just before and just after the op
        rec["slowness"] = (probes[rec["probe"]][part] + probes[rec["probe"] + 1][part]) / 2
        rec["latency_s"] = rec["cpu_s"] / rec["slowness"]
        run_s += rec["cpu_s"] / run_mean[part]
    out = {"ops": records, "check_s": check_s, "run_s": run_s,
           "run_cpu_s": sum(r["cpu_s"] for r in timed),
           "run_wall_s": sum(r["wall_s"] for r in timed),
           "probe_slowness": probes,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer:
        tracer.uninstall()
        out["layers"] = tracing.layer_metrics(tracer, bytes_out)
        if spans_path:
            tracer.dump(spans_path)
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--deadline", type=float, required=True)
    p.add_argument("--spans")
    a = p.parse_args()
    result = run(a.workload, a.seed, a.seconds, bool(a.trace), a.deadline, a.spans)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
