"""Span tracing of parkfun from outside the program, and the per-layer metrics.

`Tracer.install` replaces every public function of the traced modules, and
the `DefectTable` constructor, with a timing wrapper.  The wrapper goes in
the defining module and in every `parkfun` module (and check suite) that
holds the same function object, so calls through imported names are
traced too.  Each call records a span: name, start, end, parent and op id.
Spans stay in memory until the run ends.

Not wrapped: `rng.mix64`, the scalar generator's per-word finalizer.  A
span per 64-bit word would cost more than the word, so scalar draws count
as their caller's self time (`cars_until_full`, the checks).

Count metrics are computed from call arguments and results, so they
repeat exactly for a given op list.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import math
import sys
import time
from array import array
from collections import Counter

MODULES = ("cli", "exact", "asymptotic", "simulate", "rng", "checks")
NOT_WRAPPED = {"rng.mix64"}

# The quick suite's checks, reported one metric each as checks.<name>.s.
QUICK_CHECK_NAMES = (
    "three-way-equivalence", "row-sums", "support", "pollak-consistency",
    "closed-form-k0", "abel-identity-grid", "monotone-tails",
    "diagonal-special-cases", "tail-upper-bound", "exhaustive-oracle-small",
    "park-implementations", "permutation-invariance", "sampling-determinism",
    "tree-function-grid", "limiting-tail-shape", "density-integral-grid",
    "series-vs-tree", "ratio-limit-values", "full-lot-ordering",
    "pmf-normalization",
)

_SELF = "s"
_COUNT = "count"
# (name, unit) of every per-layer metric, in print order.
PER_LAYER = (
    [(f"{mod}.self_s", _SELF) for mod in MODULES]
    + [
        ("cli.calls", _COUNT), ("cli.bytes_out", "bytes"),
        ("exact.tail_sum.calls", _COUNT), ("exact.tail_sum.self_s", _SELF),
        ("exact.tail_sum.terms", _COUNT),
        ("exact.defect_distribution.calls", _COUNT),
        ("exact.defect_distribution.self_s", _SELF),
        ("exact.max_operand_bits", "bits"),
        ("exact.tail_sum_alternating.calls", _COUNT),
        ("exact.tail_sum_alternating.self_s", _SELF),
        ("exact.tail_sum_alternating.terms", _COUNT),
        ("exact.ratio_as_float.calls", _COUNT), ("exact.ratio_as_float.self_s", _SELF),
        ("exact.DefectTable.self_s", _SELF), ("exact.DefectTable.cells", _COUNT),
        ("exact.pascal_row.calls", _COUNT), ("exact.pascal_row.distinct", _COUNT),
        ("exact.pascal_row.self_s", _SELF),
        ("rng.uniform_block.calls", _COUNT), ("rng.uniform_block.self_s", _SELF),
        ("rng.uniform_block.draws", _COUNT), ("rng.stream_u64.self_s", _SELF),
        ("simulate.sample_empirical.self_s", _SELF),
        ("simulate.sample_empirical.trials", _COUNT),
        ("simulate.enumerate_exhaustive.self_s", _SELF),
        ("simulate.enumerate_exhaustive.sequences", _COUNT),
        ("simulate.park.calls", _COUNT), ("simulate.park.self_s", _SELF),
        ("simulate.park_naive.self_s", _SELF),
        ("simulate.cars_until_full.self_s", _SELF),
        ("simulate.cars_until_full.cars", _COUNT),
        ("asymptotic.calls", _COUNT),
    ]
    + [(f"checks.{name}.s", _SELF) for name in QUICK_CHECK_NAMES]
    + [("trace.run_s", _SELF), ("trace.overhead_s", _SELF), ("check.s", _SELF)]
)


def _operand_bits(n: int, m: int) -> int:
    return math.ceil(m * math.log2(n)) if n > 1 and m > 0 else 0


def _count(c: Counter, name: str, a: dict, result) -> None:
    """Add one call's work counts, computed from its arguments and result."""
    if name in ("exact.tail_sum", "exact.tail_sum_alternating",
                "exact.defect_distribution"):
        c["exact.max_operand_bits"] = max(c["exact.max_operand_bits"],
                                          _operand_bits(a["n"], a["m"]))
    if name == "exact.tail_sum":
        n, m, k = a["n"], a["m"], a["k"]
        c["exact.tail_sum.terms"] += max(0, m - k + 1) if k > m - n else 0
    elif name == "exact.tail_sum_alternating":
        n, m, k = a["n"], a["m"], a["k"]
        c["exact.tail_sum_alternating.terms"] += k if m - n < k <= m else 0
    elif name == "exact.DefectTable":
        # column s holds k_max + (s_max - s) + 1 defect values per r
        r, s, k = a["r_max"], a["s_max"], a["k_max"]
        c["exact.DefectTable.cells"] += (r + 1) * sum(k + gap + 1 for gap in range(s + 1))
    elif name == "exact.pascal_row":
        c[("pascal_row", a["n"])] = 1
    elif name == "rng.uniform_block":
        c["rng.uniform_block.draws"] += a["count"]
    elif name == "simulate.sample_empirical":
        c["simulate.sample_empirical.trials"] += a["trials"]
    elif name == "simulate.enumerate_exhaustive":
        c["simulate.enumerate_exhaustive.sequences"] += a["n"] ** a["m"]
    elif name == "simulate.cars_until_full":
        c["simulate.cars_until_full.cars"] += result


_COUNTED = {"exact.tail_sum", "exact.tail_sum_alternating", "exact.defect_distribution",
            "exact.DefectTable", "exact.pascal_row", "rng.uniform_block",
            "simulate.sample_empirical", "simulate.enumerate_exhaustive",
            "simulate.cars_until_full"}


class Tracer:
    """Spans of one run, one entry per span in parallel arrays.

    A hot leaf such as `pascal_row` inside `DefectTable` records over a
    million spans in one run, so the columns are typed arrays, not lists.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op_id = array("i")
        self._stack: list[int] = []
        self.op = -1
        self.enabled = False
        self.counts: Counter = Counter()
        self._restore: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def record(self, name: str, start: float, end: float, parent: int) -> int:
        self.name_id.append(self._name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op_id.append(self.op)
        return len(self.start) - 1

    def open(self, name: str) -> int:
        idx = self.record(name, 0.0, 0.0, self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        self.start[idx] = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self
        sig = inspect.signature(fn) if name in _COUNTED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if sig is not None:
                _count(tracer.counts, name, sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of MODULES wherever `parkfun` holds them."""
        wrapped = {}            # id(original) -> (original, wrapper)
        for short in MODULES:
            mod = importlib.import_module(f"parkfun.{short}")
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in NOT_WRAPPED):
                    wrapped[id(obj)] = (obj, self._wrap(name, obj))

        def replacement(obj):
            pair = wrapped.get(id(obj))
            return pair[1] if pair is not None and pair[0] is obj else None

        for key, mod in list(sys.modules.items()):
            if key == "parkfun" or key.startswith("parkfun."):
                for attr, obj in list(vars(mod).items()):
                    if (new := replacement(obj)) is not None:
                        self._restore.append((setattr, mod, attr, obj))
                        setattr(mod, attr, new)
        checks = importlib.import_module("parkfun.checks")
        for suite in (checks.QUICK_CHECKS, checks.FULL_CHECKS):
            for i, (name, fn) in enumerate(suite):
                if (new := replacement(fn)) is not None:
                    self._restore.append((list.__setitem__, suite, i, (name, fn)))
                    suite[i] = (name, new)
        table = importlib.import_module("parkfun.exact").DefectTable
        self._restore.append((setattr, table, "__init__", table.__init__))
        table.__init__ = self._wrap("exact.DefectTable", table.__init__)

    def uninstall(self) -> None:
        for restore, holder, key, original in reversed(self._restore):
            restore(holder, key, original)
        self._restore.clear()

    def dump(self, path: str) -> None:
        """Write the spans, times relative to the first span, as gzipped JSON."""
        t0 = self.start[0] if self.start else 0.0
        head = {"names": self.names, "fields": ["name", "start_s", "end_s", "parent", "op"]}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(head)[:-1] + ', "spans": [')
            rows = zip(self.name_id, self.start, self.end, self.parent, self.op_id)
            for i, (nid, s, e, p, op) in enumerate(rows):
                fh.write(f'{"," if i else ""}[{nid},{s - t0:.7f},{e - t0:.7f},{p},{op}]')
            fh.write("]}")


def self_times(start, end, parent) -> array:
    """Each span's duration minus the part of it that its child spans cover.

    Spans come in the order they opened, so a parent's children arrive by
    start time and their union is swept in one pass; a child reaching past
    its parent is clipped to it.
    """
    covered = array("d", bytes(8 * len(start)))
    reach = array("d", start)          # how far the parent's children have covered
    for i, p in enumerate(parent):
        if p >= 0:
            lo, hi = max(start[i], reach[p]), min(end[i], end[p])
            if hi > lo:
                covered[p] += hi - lo
                reach[p] = hi
    return array("d", (e - s - c for s, e, c in zip(start, end, covered)))


def layer_metrics(t: Tracer, bytes_out: int) -> dict[str, float]:
    """Every per-layer metric except trace.run_s, trace.overhead_s and check.s."""
    from parkfun.checks import QUICK_CHECKS
    check_spans = {f"checks.{fn.__name__}": name for name, fn in QUICK_CHECKS}
    own = self_times(t.start, t.end, t.parent)
    self_s: Counter = Counter()
    calls: Counter = Counter()
    check_s: Counter = Counter()
    for nid, start, end, own_s in zip(t.name_id, t.start, t.end, own):
        name = t.names[nid]
        module = name.split(".", 1)[0]
        self_s[name] += own_s
        self_s[module] += own_s
        calls[name] += 1
        calls[module] += 1
        if name in check_spans:
            check_s[check_spans[name]] += end - start
    counts = t.counts
    metrics = {}
    for name, _unit in PER_LAYER:
        base, _, leaf = name.rpartition(".")
        if name in counts:
            metrics[name] = counts[name]
        elif leaf == "self_s":
            metrics[name] = self_s[base]
        elif leaf == "calls":
            metrics[name] = calls["cli.main" if base == "cli" else base]
        elif name.startswith("checks.") and leaf == "s":
            metrics[name] = check_s[base[len("checks."):]]
    metrics["cli.bytes_out"] = bytes_out
    metrics["exact.pascal_row.distinct"] = sum(1 for key in counts
                                               if isinstance(key, tuple))
    for name, unit in PER_LAYER:
        if unit != _SELF:
            metrics.setdefault(name, 0)
    return metrics
