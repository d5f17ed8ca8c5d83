"""Compare two sets of benchmark result records, metric by metric.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the `*.json` records that `bench/run.py --out DIR`
wrote with `--trace 0`.  For every workload and every end-to-end metric
in BENCHMARK.json it prints both sides' median and quartiles, the pairs
won, and a verdict:

- better: at least ten pairs (runs of one seed on both sides), the change
  wins at least nine tenths of them (ties count for neither), and the
  medians differ by more than the parent's interquartile range;
- worse: the change's median is worse than the parent's by more than the
  metric's bound (a share of the parent's median);
- unresolved: neither, and the parent's own spread (interquartile range
  over median) is wider than the bound, unless every change run reads
  better than every parent run;
- unchanged: otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory: Path) -> dict[str, dict[int, dict[str, float]]]:
    """workload -> seed -> metric values of the trace-0 records (last run per seed)."""
    runs: dict[str, dict[int, dict[str, float]]] = {}
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text(encoding="utf-8"))
        if rec.get("trace") == 0:
            runs.setdefault(rec["workload"], {})[rec["seed"]] = rec["metrics"]
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: dict[int, float], change: dict[int, float], bound: float,
            lower_is_better: bool) -> tuple[str, int, int]:
    """(verdict, pairs won by the change, pairs) for one metric on one workload."""
    sign = 1.0 if lower_is_better else -1.0
    p = [sign * v for v in parent.values()]
    c = [sign * v for v in change.values()]
    seeds = sorted(parent.keys() & change.keys())
    wins = sum(1 for s in seeds if sign * change[s] < sign * parent[s])
    p_q1, p_med, p_q3 = quartiles(p)
    c_med = statistics.median(c)
    scale = abs(p_med)
    if (len(seeds) >= MIN_PAIRS and wins >= WIN_SHARE * len(seeds)
            and p_med - c_med > p_q3 - p_q1):
        return "better", wins, len(seeds)
    if c_med - p_med > bound * scale:
        return "worse", wins, len(seeds)
    if (p_q3 - p_q1) > bound * scale and not max(c) < min(p):
        return "unresolved", wins, len(seeds)
    return "unchanged", wins, len(seeds)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent, change = (load(Path(d)) for d in argv)
    print(f"{'workload':8s} {'metric':12s} {'parent med [q1, q3]':>31s} "
          f"{'change med [q1, q3]':>31s} {'delta':>8s} {'won':>7s}  verdict")
    for workload in sorted(parent.keys() & change.keys()):
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = {s: v[name] for s, v in parent[workload].items() if name in v}
            cv = {s: v[name] for s, v in change[workload].items() if name in v}
            if not pv or not cv:
                continue
            v, wins, pairs = verdict(pv, cv, m["bound"], m["better"] == "lower")
            pq, cq = quartiles(list(pv.values())), quartiles(list(cv.values()))
            delta = (cq[1] - pq[1]) / pq[1] if pq[1] else float("nan")
            print(f"{workload:8s} {name:12s} "
                  f"{pq[1]:10.4g} [{pq[0]:8.4g}, {pq[2]:8.4g}] "
                  f"{cq[1]:10.4g} [{cq[0]:8.4g}, {cq[2]:8.4g}] "
                  f"{delta:+8.1%} {wins:3d}/{pairs:<3d}  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
