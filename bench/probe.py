"""Host-speed probes: fixed work that does not touch parkfun.

On a shared host the speed of a core drifts by a quarter and more within
minutes, as other tenants load its neighbours.  The worker runs a probe
between ops and scales each op's CPU time by how slow the probes around
it ran (see worker.py).  A probe tracks the drift best when it does the
same kind of work as the ops, so each workload has its own mix:

- bigint: products of 6000- and 10000-bit integers (Karatsuba), the work
  of the Abel sums;
- numpy: sorts, counts and prefix sums of a 100 000-word array, the work
  of the sampler and the defect kernel;
- interp: an interpreted dict loop, the work of `park` and the scalar
  generator.

Each part is fixed work of 2 to 3 ms on a 2-core Intel Xeon host, and a
probe runs 3 or 4 of them, 7 to 9 ms in all.  NOMINAL_S holds each
part's time there, so a probe reads 1.0 at that host's usual speed.  On
`oracle`, whose ops do different kinds of work, each op is scaled by the
part that does its kind of work (KIND_PART).
"""

from __future__ import annotations

import time

import numpy as np

_X = 3 ** 4000
_Y = 7 ** 3500
_ARRAY = np.random.default_rng(1).integers(0, 1 << 62, size=100_000, dtype=np.uint64)


def _bigint() -> None:
    acc = 0
    for i in range(50):
        acc += (_X + i) * (_Y - i)


def _numpy() -> None:
    a = np.sort(_ARRAY)
    np.bincount((a >> np.uint64(50)).astype(np.int64))
    a.cumsum()


def _interp() -> None:
    table: dict[int, int] = {}
    for i in range(20_000):
        table[i & 1023] = table.get(i & 1023, 0) + i


PARTS = {"bigint": _bigint, "numpy": _numpy, "interp": _interp}
NOMINAL_S = {"bigint": 0.0027, "numpy": 0.0021, "interp": 0.003}
MIX = {"exact": ("bigint",) * 3, "sample": ("numpy",) * 4,
       "oracle": ("bigint", "numpy", "interp")}


# The part whose work each oracle op kind does; other ops take the whole
# mix.  Over 20-second stretches on a shared host, the median enumeration
# scaled by the numpy part varied by 0.4 %, by the whole mix by 8 %, and
# the median park batch scaled by the loop part by 0.8 %, by the numpy
# part by 9 %.
KIND_PART = {"enumerate": "numpy", "park_batch": "interp", "coupon": "interp",
             "table_build": "bigint", "point": "bigint"}


def slowness(workload: str) -> dict[str, float]:
    """One probe: each part's CPU time over its nominal time (1.0 at the
    usual speed), and under "all" the whole mix's."""
    times = dict.fromkeys(MIX[workload], 0.0)
    for name in MIX[workload]:
        t0 = time.process_time()
        PARTS[name]()
        times[name] += time.process_time() - t0
    out = {name: t / (NOMINAL_S[name] * MIX[workload].count(name))
           for name, t in times.items()}
    out["all"] = sum(times.values()) / sum(NOMINAL_S[name] for name in MIX[workload])
    return out


def part_for(workload: str, kind: str) -> str:
    """The probe reading that an op of this kind is scaled by."""
    part = KIND_PART.get(kind, "all")
    return part if part in MIX[workload] else "all"
