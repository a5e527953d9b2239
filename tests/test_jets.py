"""One-pass jet evaluation of the function algebra.

Random expression trees over catalog leaves are checked three ways:
against central differences of the order below, against a reference
that keeps the per-derivative closure formulas of the algebra (each node
re-evaluating its children for every derivative), and for consistency
between jet orders.  Counting leaves check that each subexpression is
evaluated once per point set and public call.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracbern.funcspace import (SmoothFunction, gaussian_bump,
                                polynomial_gaussian, modulated_gaussian,
                                plane_wave, tensor_product, make_cutoff,
                                constant, translate, directional_derivative,
                                positive_part_square, incremental_quotient,
                                averaged_square, averaged_square_root)

# fixed before the jet rules were written: central-difference step and
# tolerance, and the relative agreement with the closure reference
FD_STEP = 1e-5
FD_TOL = 1e-6
REF_RTOL = 1e-12
REF_ATOL = 1e-15

LEAVES = {
    1: [lambda: gaussian_bump(1, 0.3, 0.9),
        lambda: polynomial_gaussian([0.2, 1.0, -0.3]),
        lambda: modulated_gaussian(0.1, 1.1, 2.0),
        lambda: plane_wave(1.5, 0.3),
        lambda: constant(0.7, 1),
        lambda: make_cutoff(0.25, 0.5, n=1),
        lambda: make_cutoff(0.3, 0.9, n=1)],
    2: [lambda: gaussian_bump(2, [0.2, -0.4], 1.1),
        lambda: tensor_product(gaussian_bump(1, 0.0, 1.0),
                               polynomial_gaussian([0.0, 1.0])),
        lambda: plane_wave([1.0, -0.5], 0.2),
        lambda: modulated_gaussian([0.1, 0.2], 1.0, [1.5, 0.5], n=2),
        lambda: constant(-0.4, 2),
        lambda: make_cutoff(0.3, 0.9, n=2)],
}


# -- the closure reference ------------------------------------------------------

def _ref_add(F, G):
    return (lambda x: F[0](x) + G[0](x), lambda x: F[1](x) + G[1](x),
            lambda x: F[2](x) + G[2](x))


def _ref_scale(c, F):
    return (lambda x: c * F[0](x), lambda x: c * F[1](x),
            lambda x: c * F[2](x))


def _ref_mul(F, G):
    def hess(x):
        gf, gg = F[1](x), G[1](x)
        cross = gf[:, :, None] * gg[:, None, :]
        return (F[2](x) * G[0](x)[:, None, None]
                + G[2](x) * F[0](x)[:, None, None]
                + cross + np.swapaxes(cross, 1, 2))

    return (lambda x: F[0](x) * G[0](x),
            lambda x: F[1](x) * G[0](x)[:, None] + G[1](x) * F[0](x)[:, None],
            hess)


def _ref_translate(F, a):
    return (lambda x: F[0](x + a), lambda x: F[1](x + a),
            lambda x: F[2](x + a))


def _ref_directional(F, f, e):
    # the Hessian needs the third derivative of the argument: take it
    # from the jet, the reference keeps only the formulas up to order 2
    return (lambda x: F[1](x) @ e, lambda x: F[2](x) @ e,
            lambda x: f.d3(x) @ e)


def _ref_pps(F):
    def hess(x):
        v = F[0](x)
        g = F[1](x)
        gg = g[:, :, None] * g[:, None, :]
        return (2 * np.maximum(v, 0.0)[:, None, None] * F[2](x)
                + 2 * (v > 0).astype(float)[:, None, None] * gg)

    return (lambda x: np.maximum(F[0](x), 0.0) ** 2,
            lambda x: 2 * np.maximum(F[0](x), 0.0)[:, None] * F[1](x), hess)


def _ref_avg(F, h, e, order=16):
    tq, wq = np.polynomial.legendre.leggauss(order)
    tq, wq = 0.5 * (tq + 1.0), 0.5 * wq
    shifts = [t * h * e for t in tq]
    U2 = _ref_mul(F, F)
    return tuple((lambda x, d=d: sum(w * U2[d](x + a)
                                     for w, a in zip(wq, shifts)))
                 for d in range(3))


def _ref_avg_sqrt(F, h, e):
    A = _ref_avg(F, h, e)

    def grad(x):
        return A[1](x) / (2 * np.sqrt(np.maximum(A[0](x), 1e-300)))[:, None]

    def hess(x):
        a, g = np.maximum(A[0](x), 1e-300), A[1](x)
        gg = g[:, :, None] * g[:, None, :]
        with np.errstate(invalid="ignore"):
            return (A[2](x) / (2 * np.sqrt(a))[:, None, None]
                    - gg / (4 * a ** 1.5)[:, None, None])

    return (lambda x: np.sqrt(np.maximum(A[0](x), 0.0)), grad, hess)


def build(spec, n):
    """(function from the algebra, closure-reference triple) of a spec."""
    kind = spec[0]
    if kind == "leaf":
        f = LEAVES[n][spec[1]]()
        return f, (f.value, f.gradient, f.hessian)
    if kind in ("add", "mul"):
        f, F = build(spec[1], n)
        g, G = build(spec[2], n)
        if kind == "add":
            return f + g, _ref_add(F, G)
        return f * g, _ref_mul(F, G)
    f, F = build(spec[1], n)
    if kind == "scale":
        return f * spec[2], _ref_scale(spec[2], F)
    vec = np.asarray(spec[2][:n], dtype=float)
    if kind == "translate":
        return translate(f, vec), _ref_translate(F, vec)
    e = vec / np.linalg.norm(vec)
    if kind == "dir":
        return directional_derivative(f, e), _ref_directional(F, f, e)
    if kind == "pps":
        # shifted to one sign so the stencils never straddle the kink
        if not np.isfinite(f.sup):
            return f, F
        off = spec[3] * (f.sup + 0.5)
        g = f + off
        return positive_part_square(g), _ref_pps(_ref_add(F, _ref_scale(
            off, (lambda x: np.ones(len(x)), lambda x: np.zeros(x.shape),
                  lambda x: np.zeros(x.shape + (x.shape[1],))))))
    h = spec[3]
    if kind == "avg":
        return averaged_square(f, h, e), _ref_avg(F, h, e)
    return averaged_square_root(f, h, e), _ref_avg_sqrt(F, h, e)


def _specs(n):
    leaf = st.tuples(st.just("leaf"), st.integers(0, len(LEAVES[n]) - 1))
    vec = st.lists(st.floats(-0.5, 0.5), min_size=2, max_size=2).filter(
        lambda v: np.linalg.norm(v[:n]) > 0.05)
    step = st.floats(0.05, 0.3) | st.floats(-0.3, -0.05)

    def extend(inner):
        return st.one_of(
            st.tuples(st.just("add"), inner, inner),
            st.tuples(st.just("mul"), inner, inner),
            st.tuples(st.just("scale"), inner, st.floats(-2.0, 2.0)),
            st.tuples(st.just("translate"), inner, vec),
            st.tuples(st.just("dir"), inner, vec),
            st.tuples(st.just("pps"), inner, vec, st.sampled_from([-1.0, 1.0])),
            st.tuples(st.just("avg"), inner, vec, step),
            st.tuples(st.just("avgsqrt"), inner, vec, step))

    return st.recursive(leaf, extend, max_leaves=4)


def _probes(n, seed):
    return np.random.default_rng(seed).uniform(-1.2, 1.2, (7, n))


def _central(f, x, k, h):
    """Central difference of D^(k-1) f, the difference index last."""
    return np.stack([f.jet(x + h * np.eye(f.n)[i], k - 1)[k - 1]
                     - f.jet(x - h * np.eye(f.n)[i], k - 1)[k - 1]
                     for i in range(f.n)], axis=-1) / (2 * h)


def _fd_check(f, x):
    # Richardson pair of central differences: square roots of tiny
    # segment averages have derivatives that grow by orders of magnitude
    # per order, so the h^2 term of a plain central difference would
    # dominate its comparison
    for k in (1, 2, 3):
        D = f.jet(x, k)[k]
        fd = (4 * _central(f, x, k, FD_STEP / 2) - _central(f, x, k, FD_STEP)) / 3
        scale = 1.0 + np.max(np.abs(D)) + np.max(np.abs(f.jet(x, k - 1)[k - 1]))
        assert np.max(np.abs(D - fd)) <= FD_TOL * scale, (k, np.max(np.abs(D - fd)))


def _ref_check(f, F, x):
    # the closure formulas divide 0/0 where a segment average underflows
    # to zero; compare where they are finite
    J = f.jet(x, 2)
    for k in range(3):
        ref = F[k](x)
        ok = np.isfinite(ref)
        scale = max(np.max(np.abs(ref[ok]), initial=0.0), np.max(np.abs(J[k])))
        assert np.max(np.abs(J[k] - ref)[ok], initial=0.0) \
            <= REF_RTOL * scale + REF_ATOL, k


@pytest.mark.parametrize("n", [1, 2])
def test_random_trees_jets(n):
    @given(_specs(n), st.integers(0, 2 ** 16))
    @settings(max_examples=30 if n == 1 else 15, deadline=None)
    def check(spec, seed):
        f, F = build(spec, n)
        x = _probes(n, seed)
        _ref_check(f, F, x)
        _fd_check(f, x)
        J3 = f.jet(x, 3)
        assert np.array_equal(f.jet(x, 0)[0], J3[0])
        assert np.array_equal(f(x), J3[0])
        assert np.array_equal(f.hessian(x), J3[2])

    check()


# -- one evaluation per point set -------------------------------------------------

def _counting(f, log):
    """Closure leaf with f's exact derivatives, logging each evaluation."""

    def logged(d, fn):
        def run(x):
            log.append((id(log_leaf), d, x.shape[0], x.tobytes()))
            return fn(x)
        return run

    log_leaf = SmoothFunction(
        f.n, logged(0, f.value), logged(1, f.gradient), logged(2, f.hessian),
        d3=logged(3, f.d3), sup=f.sup, grad_sup=f.grad_sup,
        hess_sup=f.hess_sup, tail=f.tail)
    return log_leaf


def _roadmap_composites(log):
    e, h, w = np.array([1.0]), 0.1, 1.5
    u = (_counting(gaussian_bump(1, 0.0, 1.0), log)
         + _counting(gaussian_bump(1, 0.8, 0.6, -0.5), log))
    eta = _counting(make_cutoff(0.25, 0.5, n=1), log)
    du = directional_derivative(u, e)
    q = incremental_quotient(u, h, e)
    return {"du2": du * du,
            "aux_dir": (eta * eta) * (du * du) + (u * u) * w,
            "aux_inc": (eta * eta) * (q * q) + averaged_square(u, h, e) * w,
            "avg_sqrt": averaged_square_root(u, h, e)}


@pytest.mark.parametrize("name", ["du2", "aux_dir", "aux_inc", "avg_sqrt"])
def test_each_leaf_once_per_point_set(name):
    log = []
    f = _roadmap_composites(log)[name]
    x = np.linspace(-1.0, 1.0, 5).reshape(-1, 1)
    for call in (f.value, f.gradient, f.hessian, f.d3):
        del log[:]
        call(x)
        assert log
        # each closure of each leaf runs at most once on each point set
        assert len(log) == len(set(log))


def test_averaged_square_one_stacked_call():
    log = []
    u = _counting(gaussian_bump(1, 0.2, 0.8), log)
    A = averaged_square(u, 0.2, np.array([1.0]))
    x = np.linspace(-1.0, 1.0, 5).reshape(-1, 1)
    for k in range(4):
        del log[:]
        A.jet(x, k)
        assert [entry[2] for entry in log if entry[1] == 0] == [16 * 5]


def test_composite_d3_reaches_no_finite_difference(monkeypatch):
    def no_fd(self, x, j):
        raise AssertionError("finite-difference fallback reached")

    monkeypatch.setattr(SmoothFunction, "_derivative", no_fd)
    e, h = np.array([1.0]), 0.1
    u = gaussian_bump(1, 0.0, 1.0) + gaussian_bump(1, 0.8, 0.6, -0.5)
    eta = make_cutoff(0.25, 0.5, n=1)
    du = directional_derivative(u, e)
    q = incremental_quotient(u, h, e)
    x = np.linspace(-1.2, 1.2, 9).reshape(-1, 1)
    for f in [du * du, (eta * eta) * (du * du) + (u * u) * 1.5,
              (eta * eta) * (q * q) + averaged_square(u, h, e) * 1.5,
              averaged_square_root(u, h, e), positive_part_square(du),
              directional_derivative(du, e)]:
        assert np.all(np.isfinite(f.d3(x)))
