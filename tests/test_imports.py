"""The import split: the exact routes start without numpy, simulation loads it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import parkfun
from parkfun import cli, exact, simulate

SRC = str(Path(parkfun.__file__).resolve().parent.parent)

# in-process CLI runs that must not load numpy
EXACT_ARGVS = [
    ["dist", "--n", "5", "--m", "7"],
    ["dist", "--n", "5", "--m", "7", "--k", "2"],
    ["table", "--n", "4"],
    ["plotdata-fig1", "--n", "20", "--m", "5"],
    ["plotdata-fig2", "--n", "12"],
]
NUMPY_ARGVS = [
    ["simulate", "--n", "5", "--m", "5", "--trials", "100"],
    ["coupon", "--n", "5"],
    ["verify", "--level", "quick"],
]


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_import_leaves_numpy_out():
    code = ("import json, sys, parkfun; listed = dir(parkfun); "
            "print(json.dumps(['numpy' in sys.modules, sorted(vars(parkfun)), listed]))")
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    numpy_loaded, names, listed = json.loads(proc.stdout)
    assert not numpy_loaded
    assert not set(parkfun._SIMULATE_EXPORTS) & set(names)
    assert set(parkfun.__all__) <= set(listed)      # listed before they load


def test_import_leaves_dataclasses_out():
    # dataclasses would pull in inspect, ast, dis and tokenize; decimal
    # serves only asymptotic._phi_decimal, through defect_ratio_limit and
    # the check ratio-limits-exact, and the check limit-precision, each
    # of which imports it when called
    proc = run_python("-c", "import sys, parkfun; "
                      "print(sorted({'dataclasses', 'decimal'} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    # nor do the numpy modules and the CLI, whose records are named tuples
    # too; the CLI's fractions loads decimal, so only dataclasses is asserted
    proc = run_python("-c", "import sys, parkfun.simulate, parkfun.checks, parkfun.cli; "
                      "print('dataclasses' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_first_simulation_lookup_binds_every_export():
    code = ("import json, sys, parkfun; parkfun.ParkOutcome; "
            "print(json.dumps(['numpy' in sys.modules, sorted(vars(parkfun))]))")
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    numpy_loaded, names = json.loads(proc.stdout)
    assert numpy_loaded
    assert set(parkfun._SIMULATE_EXPORTS) <= set(names)


@pytest.mark.parametrize("module", ["rng", "simulate"])
def test_numpy_submodules_load_when_named(module):
    # `import parkfun` alone still reaches them as attributes
    code = f"import parkfun; print(parkfun.{module}.__name__)"
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"parkfun.{module}\n"


def test_exact_commands_leave_numpy_out():
    code = f"""
import contextlib, io, json, sys
from parkfun import cli
codes = []
for argvs in ({EXACT_ARGVS!r}, {NUMPY_ARGVS!r}):
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            codes.append(cli.main(argv))
    codes.append('numpy' in sys.modules)
print(json.dumps(codes))
"""
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ([0] * len(EXACT_ARGVS) + [False]
                                       + [0] * len(NUMPY_ARGVS) + [True])


def test_every_public_name_resolves():
    listed = dir(parkfun)
    for name in parkfun.__all__:
        assert getattr(parkfun, name) is not None
        assert name in listed
    assert parkfun.park is simulate.park
    assert parkfun.EnumerationCapError is simulate.EnumerationCapError
    with pytest.raises(AttributeError):
        parkfun.no_such_name
    namespace = {}
    exec("from parkfun import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(parkfun.__all__)
    assert len(namespace) == 23


def test_budget_error_lives_in_exact():
    assert simulate.BudgetError is exact.BudgetError
    assert issubclass(simulate.EnumerationCapError, exact.BudgetError)


@pytest.mark.parametrize("argv", [["dist", "--n", "5", "--m", "7"],
                                  ["table", "--n", "4"]])
def test_module_entry_point_matches_main(argv, capsys):
    proc = run_python("-m", "parkfun.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    assert cli.main(argv) == 0
    assert proc.stdout == capsys.readouterr().out
