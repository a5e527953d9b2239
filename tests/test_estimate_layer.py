"""The estimate layer sits above the solvers.

solvers holds the problems, their data constants and the solves, and
the two decisions every fitted estimate shares: the radius power C_R
(_radius_power) and the measured derivative sups of a solution
(_measured_sups).  harness builds fitted bounds and experiments on top
of it, and cli on top of both, so imports run one way and none of them
needs to hide inside a function.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from fracbern.kernels import fractional_kernel
from fracbern.funcspace import constant, gaussian_bump
from fracbern.nonlocal_ops import Lattice
from fracbern import harness, solvers
from fracbern.solvers import (BellmanProblem, solve_bellman,
                              unified_derivative_bound)
from fracbern.harness import measure_derivative_bounds

SRC = Path(__file__).resolve().parent.parent / "src" / "fracbern"
MODULES = sorted(SRC.glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text())


def _imports(tree):
    """The (module, names) of every relative import in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield node.module, [a.name for a in node.names]


def test_no_module_imports_inside_a_function():
    sites = []
    for path in MODULES:
        for fn in ast.walk(_parse(path)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                sites += ["%s:%s" % (path.name, fn.name)
                          for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert sites == []


def test_only_the_cli_imports_the_harness():
    # the package's __init__ loads every submodule; among the
    # submodules, the harness is a top layer that only the cli reads
    importers = {path.name for path in MODULES
                 if path.name != "__init__.py"
                 for module, names in _imports(_parse(path))
                 if module == "harness" or "harness" in names}
    assert importers == {"cli.py"}


def test_the_radius_power_has_one_home():
    sites = set()

    def visit(node, qual):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call)
                    and getattr(child.func, "id", None) == "positive_orders"):
                sites.add(qual)
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.ClassDef)) else qual)

    visit(_parse(SRC / "solvers.py"), None)
    assert sites == {"_radius_power"}


def _instance(n, N):
    zero = constant(0.0, n)
    prob = BellmanProblem(
        [(fractional_kernel(n, 0.5), zero),
         (fractional_kernel(n, 0.7), gaussian_bump(n, None, 0.45, -0.35))],
        gaussian_bump(n, None, 0.5, 0.4), gaussian_bump(n, None, 1.5, 0.3),
        1.0)
    lattice = Lattice(n, 2.0, N, 1.0)
    gf, _, info = solve_bellman(prob, lattice)
    return prob, gf, info


@pytest.mark.parametrize("n, N", [(1, 129), (2, 25)], ids=["1d", "2d"])
def test_both_fitted_bounds_read_one_sup_record(n, N):
    prob, gf, info = _instance(n, N)
    for R in (1.0, 0.8):
        out = unified_derivative_bound(prob, gf, info, R)
        rep = measure_derivative_bounds(gf, prob, R)
        assert out["measured_grad_half"] == rep.sup_grad_half
        assert out["measured_dd_quarter"] == rep.sup_dd_quarter
        assert np.isfinite(rep.sup_dd_half)


def test_a_radius_within_two_steps_is_refused_first(monkeypatch):
    # 1d N = 65 on [-2, 2]: h = 0.0625, so R = 0.1 leaves no node 2h
    # inside B_R, and R = 0.15 keeps the origin
    prob = BellmanProblem([(fractional_kernel(1, 0.5), constant(0.0, 1))],
                          gaussian_bump(1, None, 0.5, 0.4),
                          gaussian_bump(1, None, 1.5, 0.3), 1.0)
    gf, _, info = solve_bellman(prob, Lattice(1, 2.0, 65, 1.0))
    assert np.isfinite(unified_derivative_bound(prob, gf, info, 0.15)
                       ["bracket_first"])
    assert np.isfinite(measure_derivative_bounds(gf, prob, 0.15).rhs_first)
    fits = (lambda R: unified_derivative_bound(prob, gf, info, R),
            lambda R: measure_derivative_bounds(gf, prob, R))
    refusal = r"R = 0\.1 .* 2h = 0\.125 "
    for fit in fits:
        with pytest.raises(ValueError, match=refusal):
            fit(0.1)

    def later_work(*args, **kw):
        raise AssertionError("ran before the radius was checked")

    # the check comes before the linearization and the data constants
    monkeypatch.setattr(solvers, "_linearize", later_work)
    monkeypatch.setattr(harness, "problem_constants", later_work)
    for fit in fits:
        with pytest.raises(ValueError, match=refusal):
            fit(0.1)
