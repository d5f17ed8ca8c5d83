"""Mutation score of one parkfun module against the tier-1 tests.

    python tools/mutate.py exact

Each mutant changes one site of src/parkfun/MODULE.py by one of six
operators: an int constant + 1 or - 1, + <-> - (augmented assignments
too), // -> *, < <-> <=, > <-> >=, and == <-> !=.  A mutant is written
with ast.unparse into a worker's own copy of src/, and the tests under
tests/ run against that copy with `pytest -x`; it is killed when any
test fails or errors, or when the run outlasts four times the unmutated
run.  One worker runs per core, and each pytest run is capped at
MEMORY_CAP bytes of address space, so a mutant that allocates in an
endless loop (say, a lambda grid whose step no longer moves) dies with
MemoryError rather than taking the host's memory until its timeout.

The test that killed each mutant is cached in tools/.mutate_cache.json
(not tracked) and runs alone first the next time, so a mutant killed
before costs one short pytest run, not the tests up to its killer.  Runs
are unbuffered and print each test's id as it starts, so a run cut at
its timeout has printed the id of the test it hung in last, and that
test is cached as the killer too.  Only the test lines are verbose: -v
would also spell out assertion diffs in full, which takes up to a
minute on a failing comparison of two long lists.  A killer runs alone under four times its own share of the
unmutated run (its setup, call and teardown, from --durations, plus the
run's start-up and collection), so a mutant that loops costs seconds on
the next run, not the whole suite's timeout.

A mutant's key is its enclosing function, operator, source text and the
occurrence of that text among the function's sites with that operator,
joined by "|".  tools/equivalent_mutants.txt lists the survivors that
are accepted, one per line: module, key and a one-line reason, split by
tabs.  Every survivor is printed as file:line and key, the listed ones
as "accepted" apart from the unlisted ones, then one summary line.  The
exit status is 1 only when an unlisted mutant survived.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import queue
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKERS = os.cpu_count() or 1
CACHE = ROOT / "tools" / ".mutate_cache.json"
ACCEPTED = ROOT / "tools" / "equivalent_mutants.txt"
# tier-1 passes under 512 MiB of address space; twice that leaves headroom
MEMORY_CAP = 1 << 30
PYTEST = ("import resource, sys, pytest; "
          f"resource.setrlimit(resource.RLIMIT_AS, ({MEMORY_CAP}, {MEMORY_CAP})); "
          "sys.exit(pytest.console_main())")

SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.FloorDiv: ast.Mult,
         ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
SYMBOLS = {ast.Add: "+", ast.Sub: "-", ast.FloorDiv: "//", ast.Mult: "*",
           ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
           ast.Eq: "==", ast.NotEq: "!="}


def sites(tree: ast.Module):
    """Yield (node, scope, where, operator) for every mutable site, in a fixed order.

    `where` is None for a constant, "op" for a BinOp or AugAssign, and an
    index into `ops` for a Compare.
    """
    def walk(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Constant) and type(node.value) is int:
            yield node, scope, None, "int+1"
            yield node, scope, None, "int-1"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            op = type(node.op)
            yield node, scope, "op", f"{SYMBOLS[op]} -> {SYMBOLS[SWAPS[op]]}"
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(map(type, node.ops)):
                if op in SWAPS:
                    yield node, scope, i, f"{SYMBOLS[op]} -> {SYMBOLS[SWAPS[op]]}"
        for child in ast.iter_child_nodes(node):
            yield from walk(child, scope)

    yield from walk(tree, "")


def mutants(source: str) -> list[dict]:
    """Every mutant of `source`: its key, line and code."""
    out, seen = [], {}
    for index, (node, scope, where, operator) in enumerate(sites(ast.parse(source))):
        text = " ".join((ast.get_source_segment(source, node) or "").split())
        base = f"{scope or '<module>'}|{operator}|{text}"
        seen[base] = seen.get(base, 0) + 1
        # mutate the index-th site of a fresh tree, so each mutant has one change
        tree = ast.parse(source)
        node, _, where, operator = list(sites(tree))[index]
        if where is None:
            node.value += 1 if operator == "int+1" else -1
        elif where == "op":
            node.op = SWAPS[type(node.op)]()
        else:
            node.ops[where] = SWAPS[type(node.ops[where])]()
        out.append({"key": f"{base}|{seen[base]}", "line": node.lineno,
                    "code": ast.unparse(tree)})
    return out


def accepted(module: str) -> set[str]:
    """The keys of `module`'s survivors listed in ACCEPTED."""
    keys = set()
    for line in ACCEPTED.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            listed_module, key, _reason = line.split("\t")
            if listed_module == module:
                keys.add(key)
    return keys


def run_tests(src: Path, args: list[str], timeout: float) -> tuple[str, str | None, str]:
    """(status, test id, stdout) for one pytest run.

    status is 'pass', 'fail', 'timeout' or 'error'; the test id is the
    first failing test's, or on a timeout the last test that started.
    """
    cmd = [sys.executable, "-u", "-c", PYTEST, "-x", "-q", "-o", "verbosity_test_cases=1",
           "-rfE", "-p", "no:cacheprovider", "-o", f"pythonpath={src}", *args]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    try:
        out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                             timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        # the partial output comes as bytes, text=True or not
        partial = (exc.stdout or b"").decode(errors="replace")
        started = re.findall(r"^(tests/\S+::\S+)", partial, re.M)
        return "timeout", started[-1] if started else None, partial
    if out.returncode == 0:
        return "pass", None, out.stdout
    if out.returncode in (1, 2):
        hit = re.search(r"^(?:FAILED|ERROR) (\S+)", out.stdout, re.M)
        return "fail", hit.group(1) if hit else None, out.stdout
    return "error", None, out.stdout    # usage error, or a cached test id that is gone


def durations(out: str) -> dict[str, float]:
    """Seconds per test id, setup, call and teardown summed, from --durations=0 output."""
    per_test: dict[str, float] = {}
    for secs, test in re.findall(r"^([\d.]+)s (?:setup|call|teardown) +(\S+)$", out, re.M):
        per_test[test] = per_test.get(test, 0.0) + float(secs)
    return per_test


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="mutation score of one parkfun module")
    p.add_argument("module", help="module name under src/parkfun, e.g. exact")
    a = p.parse_args(argv)
    rel = Path("parkfun") / f"{a.module}.py"
    source = (ROOT / "src" / rel).read_text(encoding="utf-8")
    found = mutants(source)
    cache = json.loads(CACHE.read_text(encoding="utf-8")) if CACHE.exists() else {}
    killers = cache.get(a.module, {})

    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        dirs = queue.Queue()
        for w in range(WORKERS):
            src = Path(tmp) / str(w) / "src"
            shutil.copytree(ROOT / "src", src,
                            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
            dirs.put(src)
        # the unmutated module, unparsed the same way, must pass and sets the timeout
        src = dirs.get()
        (src / rel).write_text(ast.unparse(ast.parse(source)), encoding="utf-8")
        t0 = time.monotonic()
        status, test, out = run_tests(src, ["--durations=0", "--durations-min=0"],
                                      timeout=3600)
        base_s = time.monotonic() - t0
        dirs.put(src)
        if status != "pass":
            print(f"the unmutated {rel} fails the tests ({status}: {test})", file=sys.stderr)
            return 2
        timeout = 4 * base_s
        test_s = durations(out)
        start_s = max(base_s - sum(test_s.values()), 0.0)

        def run(mutant: dict) -> tuple[str, str | None]:
            src = dirs.get()
            try:
                (src / rel).write_text(mutant["code"], encoding="utf-8")
                killer = killers.get(mutant["key"])
                if killer in test_s:
                    status, test, _ = run_tests(src, [killer],
                                                4 * (start_s + test_s[killer]))
                    if status in ("fail", "timeout"):
                        return status, test or killer
                return run_tests(src, [], timeout)[:2]
            finally:
                dirs.put(src)

        t0 = time.monotonic()
        results = []
        with ThreadPoolExecutor(WORKERS) as pool:
            for result in pool.map(run, found):
                results.append(result)
                print(f"\r{len(results)}/{len(found)} mutants run", end="", file=sys.stderr)
        print(file=sys.stderr)

    survivors = []
    for mutant, (status, test) in zip(found, results):
        if status == "pass":
            survivors.append(mutant)
            killers.pop(mutant["key"], None)
        elif test:
            killers[mutant["key"]] = test
    cache[a.module] = killers
    CACHE.write_text(json.dumps(cache, indent=1, sort_keys=True), encoding="utf-8")

    listed = accepted(a.module)
    unlisted = [m for m in survivors if m["key"] not in listed]
    for m in survivors:
        print(f"{'accepted' if m['key'] in listed else 'survived'}  src/{rel}:{m['line']}  {m['key']}")
    timeouts = sum(status == "timeout" for status, _ in results)
    errors = sum(status == "error" for status, _ in results)
    print(f"{a.module}: {len(found) - len(survivors)} of {len(found)} mutants killed "
          f"({timeouts} by timeout, {errors} by a pytest error), {len(survivors)} "
          f"survived, {len(unlisted)} of them unlisted; {time.monotonic() - t0:.0f} s "
          f"on {WORKERS} workers, unmutated run {base_s:.1f} s")
    return 1 if unlisted else 0


if __name__ == "__main__":
    sys.exit(main())
