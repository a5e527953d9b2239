"""The Newton step is the linearized operator.

Every Bellman-family solve and estimate freezes one operator,
sum_m alpha_m L_m: LinearizedOperator is its one home, and its matrix()
is the only place where member matrices are weighted and summed.  The
max nonlinearity, the default of a problem without one, is built by
BellmanProblem.F; solve_bellman builds it too, since policy iteration
is the max whatever the problem's nonlinearity.  A second site of
either would be a second copy that could drift from the first.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fracbern"


def _walk():
    """(file name, qualified enclosing name, node) in solvers and harness."""
    for name in ("solvers.py", "harness.py"):
        def visit(node, qual):
            for child in ast.iter_child_nodes(node):
                yield name, qual, child
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    yield from visit(child, qual + (child.name,))
                else:
                    yield from visit(child, qual)
        yield from visit(ast.parse((SRC / name).read_text()), ())


def _is_matrix(node):
    return isinstance(node, ast.Attribute) and node.attr == "A"


def test_member_matrices_are_summed_only_in_the_linearized_operator():
    # a weighted (x * d.A) or summed (d.A + ...) member matrix
    sites = {(name, ".".join(qual)) for name, qual, node in _walk()
             if isinstance(node, ast.BinOp)
             and isinstance(node.op, (ast.Mult, ast.Add))
             and (_is_matrix(node.left) or _is_matrix(node.right))}
    assert sites == {("solvers.py", "LinearizedOperator.matrix")}


def test_the_max_nonlinearity_is_built_in_two_places():
    sites = {(name, ".".join(qual)) for name, qual, node in _walk()
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None))
             == "bellman_max"}
    assert sites == {("solvers.py", "BellmanProblem.F"),
                     ("solvers.py", "solve_bellman")}
