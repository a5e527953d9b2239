"""A quadrature miss is raised in one place and caught only by the CLI.

Every entry of nonlocal_ops formats one batch result, and one function
checks it against the plan and raises QuadratureFailure.  A second
construction or a catch-and-reraise under src/ would be a second place
where the partial result could be reshaped or resigned.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _names(node):
    """The plain names in an except clause's type (a name or a tuple)."""
    if node is None:
        return set()
    return {getattr(n, "id", getattr(n, "attr", None))
            for n in (node.elts if isinstance(node, ast.Tuple) else [node])}


def _walk():
    """(path, enclosing function name, node) for every node under src/."""
    for path in sorted(SRC.rglob("*.py")):
        def visit(node, func):
            for child in ast.iter_child_nodes(node):
                yield path, func, child
                yield from visit(child, child.name if isinstance(
                    child, ast.FunctionDef) else func)
        yield from visit(ast.parse(path.read_text()), None)


def test_quadrature_failure_is_raised_in_one_function():
    sites = {(path.name, func) for path, func, node in _walk()
             if isinstance(node, ast.Call)
             and "QuadratureFailure" in _names(node.func)}
    assert len(sites) == 1, sites


def test_only_the_cli_catches_quadrature_failure():
    catchers = {path.name for path, _, node in _walk()
                if isinstance(node, ast.ExceptHandler)
                and "QuadratureFailure" in _names(node.type)}
    assert catchers == {"cli.py"}
