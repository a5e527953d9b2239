"""The package builds every function through one jet path.

SmoothFunction(n, value, gradient, hessian) is the closure leaf a user
supplies; its orders above the ones given are central differences.  A
construction of one under src/ would bring finite differences back into
the package's own functions, which the jet rules of _Node cover exactly.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_src_builds_no_closure_leaf():
    sites = [(path.name, node.lineno)
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None))
             == "SmoothFunction"]
    assert sites == []
