"""Mutation score of one parkfun module against the tier-1 tests.

    python tools/mutate.py exact

Each mutant changes one site of src/parkfun/MODULE.py by one of six
operators: an int constant + 1 or - 1, + <-> - (augmented assignments
too), // -> *, < <-> <=, > <-> >=, and == <-> !=.  A mutant is written
with ast.unparse into a worker's own copy of src/, and the tests under
tests/ run against that copy with `pytest -x`; it is killed when any
test fails or errors, or when the run outlasts four times the unmutated
run.  One worker runs per core.

The test that killed each mutant is cached in tools/.mutate_cache.json
(not tracked) and runs alone first the next time, so a mutant killed
before costs one short pytest run, not the tests up to its killer.  Every survivor is
printed as file:line, enclosing function, operator and source text, then
one summary line; the exit status is 1 when any mutant survived.
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
    """Every mutant of `source`: its key, line, scope, operator, text and code."""
    lines = source.splitlines()
    out, seen = [], {}
    for index, (node, scope, where, operator) in enumerate(sites(ast.parse(source))):
        text = ast.get_source_segment(source, node) or ""
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
                    "scope": scope or "<module>", "operator": operator,
                    "text": lines[node.lineno - 1].strip(), "code": ast.unparse(tree)})
    return out


def run_tests(src: Path, args: list[str], timeout: float) -> tuple[str, str | None]:
    """('pass' | 'fail' | 'timeout' | 'error', first failing test id) for one pytest run."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
           "-o", f"pythonpath={src}", *args]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    try:
        out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                             timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout", None
    if out.returncode == 0:
        return "pass", None
    if out.returncode in (1, 2):
        hit = re.search(r"^(?:FAILED|ERROR) (\S+)", out.stdout, re.M)
        return "fail", hit.group(1) if hit else None
    return "error", None        # usage error, or a cached test id that is gone


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
        status, test = run_tests(src, [], timeout=3600)
        base_s = time.monotonic() - t0
        dirs.put(src)
        if status != "pass":
            print(f"the unmutated {rel} fails the tests ({status}: {test})", file=sys.stderr)
            return 2
        timeout = 4 * base_s

        def run(mutant: dict) -> tuple[str, str | None]:
            src = dirs.get()
            try:
                (src / rel).write_text(mutant["code"], encoding="utf-8")
                killer = killers.get(mutant["key"])
                if killer:
                    status, test = run_tests(src, [killer], timeout)
                    if status in ("fail", "timeout"):
                        return status, test or killer
                return run_tests(src, [], timeout)
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

    for m in survivors:
        print(f"survived  src/{rel}:{m['line']}  {m['scope']}  {m['operator']}  {m['text']}")
    timeouts = sum(status == "timeout" for status, _ in results)
    errors = sum(status == "error" for status, _ in results)
    print(f"{a.module}: {len(found) - len(survivors)} of {len(found)} mutants killed "
          f"({timeouts} by timeout, {errors} by a pytest error), {len(survivors)} "
          f"survived; {time.monotonic() - t0:.0f} s on {WORKERS} workers, "
          f"unmutated run {base_s:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
