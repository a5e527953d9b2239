"""Row norms of point arrays go through one helper, _quad.sq_norms.

numpy reduces along a length-2 axis several times slower than it
contracts, and for n <= 2 the contraction adds the same squares in the
same order.  So every np.linalg.norm(z, axis=1) and np.sum(z * z,
axis=1) under src/ is sq_norms, and the results stay bit for bit.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from fracbern._quad import sq_norms

SRC = Path(__file__).resolve().parent.parent / "src"


def _cases():
    rng = np.random.default_rng(5)
    for n in (1, 2):
        for m in (0, 1, 7, 4097):
            z = rng.normal(size=(m, n)) * np.exp(3 * rng.normal(size=(m, n)))
            yield z
            yield z[::3]                                  # strided rows
            yield z[:, ::-1]                              # negative stride
            yield np.asfortranarray(z)
            yield rng.normal(size=5)[:, None, None] + z   # broadcast sum
    yield np.arange(12).reshape(6, 2) - 5                 # integer offsets


@pytest.mark.parametrize("z", list(_cases()))
def test_sq_norms_is_the_norm_bit_for_bit(z):
    z2 = z.reshape(-1, z.shape[-1])
    assert np.array_equal(np.sqrt(sq_norms(z2)), np.linalg.norm(z2, axis=1))
    assert np.array_equal(sq_norms(z2), np.sum(z2 * z2, axis=1))


def _is_axis_1(call):
    return any(k.arg == "axis" and isinstance(k.value, ast.Constant)
               and k.value.value == 1 for k in call.keywords)


def _is_square(node):
    """x * x or x ** 2."""
    if not isinstance(node, ast.BinOp):
        return False
    if isinstance(node.op, ast.Mult):
        return ast.dump(node.left) == ast.dump(node.right)
    return (isinstance(node.op, ast.Pow) and isinstance(node.right, ast.Constant)
            and node.right.value == 2)


def _row_norms(tree):
    """Line numbers of np.linalg.norm(..., axis=1), np.sum(x * x, axis=1)
    and (x * x).sum(axis=1) calls, squares written as x ** 2 included."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and _is_axis_1(node)
                and isinstance(node.func, ast.Attribute)):
            continue
        name, owner = node.func.attr, node.func.value
        if name == "norm" or (name == "sum" and (
                _is_square(owner) or (node.args and _is_square(node.args[0])))):
            yield node.lineno


def test_no_row_norm_bypasses_sq_norms():
    left = {(path.name, line) for path in sorted(SRC.rglob("*.py"))
            for line in _row_norms(ast.parse(path.read_text()))}
    assert not left, sorted(left)


def test_the_guard_sees_each_form():
    code = ("a = np.linalg.norm(z, axis=1)\nb = np.sum(z * z, axis=1)\n"
            "c = np.sum((z @ A) ** 2, axis=1)\nd = (z * z).sum(axis=1)\n"
            "e = np.sum(z * w, axis=1)\nf = np.linalg.norm(H, axis=(1, 2))\n")
    assert list(_row_norms(ast.parse(code))) == [1, 2, 3, 4]
