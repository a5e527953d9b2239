"""Function catalog, derivatives, cutoffs, quotients, grids."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracbern.funcspace import (SmoothFunction, Tail, gaussian_bump,
                                polynomial_gaussian, modulated_gaussian,
                                plane_wave, tensor_product, make_cutoff,
                                translate, affine_precompose,
                                directional_derivative, positive_part,
                                positive_part_square,
                                incremental_quotient, averaged_square,
                                averaged_square_root, GridFunction, Direction,
                                constant, harmonic_polynomial)

E1 = np.array([1.0])


def _fd_gradient_check(u, pts, h=1e-4, tol=1e-6):
    g = u.gradient(pts)
    for i in range(u.n):
        dx = np.zeros((1, u.n)); dx[0, i] = h
        fd = (u(pts + dx) - u(pts - dx)) / (2 * h)
        scale = max(np.max(np.abs(g[:, i])), u.grad_sup * 1e-3, 1e-9)
        assert np.max(np.abs(fd - g[:, i])) <= tol * max(scale, 1.0)


def test_catalog_gradients_match_fd():
    rng = np.random.default_rng(0)
    pts1 = rng.uniform(-2, 2, size=(1000, 1))
    for u in [gaussian_bump(1, 0.3, 0.9), polynomial_gaussian([0.2, 1.0, -0.3]),
              modulated_gaussian(0.1, 1.1, 2.0), plane_wave(1.5, 0.3)]:
        _fd_gradient_check(u, pts1)
    pts2 = rng.uniform(-2, 2, size=(400, 2))
    for u in [gaussian_bump(2, [0.2, -0.4], 1.1),
              tensor_product(gaussian_bump(1, 0, 1), polynomial_gaussian([0, 1.0]))]:
        _fd_gradient_check(u, pts2)


def test_catalog_hessians_match_fd():
    pts = np.linspace(-1.5, 1.5, 9).reshape(-1, 1)
    for u in [gaussian_bump(1, 0.0, 0.8), modulated_gaussian(0.2, 1.0, 1.7)]:
        H = u.hessian(pts)[:, 0, 0]
        h = 1e-4
        fd = (u(pts + h) + u(pts - h) - 2 * u(pts)) / h ** 2
        assert np.max(np.abs(H - fd)) < 1e-5


def _catalog_leaves():
    return [constant(0.7, 1), gaussian_bump(1, 0.0, 0.8),
            polynomial_gaussian([0.2, 1.0, -0.3]),
            modulated_gaussian(0.2, 1.0, 1.7), plane_wave(1.5, 0.3),
            make_cutoff(0.25, 0.5, n=1), constant(-0.4, 2),
            gaussian_bump(2, [0.2, -0.4], 1.1), plane_wave([1.0, -0.5], 0.2),
            modulated_gaussian([0.1, 0.2], 1.0, [1.5, 0.5], n=2),
            tensor_product(gaussian_bump(1, 0, 1), polynomial_gaussian([0, 1.0])),
            make_cutoff(0.3, 0.9, n=2)]


def test_catalog_d3_match_fd_of_hessian(monkeypatch):
    # exact third derivatives: the finite-difference fallback of closure
    # leaves must not be reached
    def no_fd(self, x, j):
        raise AssertionError("finite-difference fallback reached")

    monkeypatch.setattr(SmoothFunction, "_derivative", no_fd)
    rng = np.random.default_rng(4)
    h = 1e-5
    for u in _catalog_leaves():
        pts = rng.uniform(-1.2, 1.2, size=(40, u.n))
        T = u.d3(pts)
        for i in range(u.n):
            dx = np.zeros((1, u.n)); dx[0, i] = h
            fd = (u.hessian(pts + dx) - u.hessian(pts - dx)) / (2 * h)
            scale = max(np.max(np.abs(T)), 1.0)
            assert np.max(np.abs(T[..., i] - fd)) <= 1e-5 * scale


def _criterion_04_composites():
    """eta^2 (d_e u)^2, u^2, d_e u and u for the criterion-04 pairs: the
    integrands of check_first_order_batch."""
    pairs = [(gaussian_bump(1, 0.0, 1.0), make_cutoff(0.25, 0.5, n=1)),
             (gaussian_bump(1, 0.3, 0.8) + gaussian_bump(1, -0.5, 1.1, -0.6),
              make_cutoff(0.25, 0.5, n=1)),
             (modulated_gaussian(0.0, 1.2, 1.5), make_cutoff(0.2, 0.45, n=1)),
             (polynomial_gaussian([1.0, 0.5, -0.3]),
              make_cutoff(0.3, 0.6, n=1)),
             (plane_wave(1.0), make_cutoff(0.25, 0.5, n=1))]
    out = []
    for u, eta in pairs:
        du = directional_derivative(u, E1)
        out += [(eta * eta) * (du * du), u * u, du, u]
    return out


def _criterion_04_probes(count):
    probes = np.sort(np.random.default_rng(11).uniform(-1.2, 1.2, 1000))
    pick = np.random.default_rng(0).choice(1000, count, replace=False)
    return probes[np.sort(pick)].reshape(-1, 1)


def test_d4_match_fd_of_d3(monkeypatch):
    # exact fourth derivatives of catalog leaves and of the composites
    # the quartic zone cut bounds, without the finite-difference fallback
    def no_fd(self, x, j):
        raise AssertionError("finite-difference fallback reached")

    monkeypatch.setattr(SmoothFunction, "_derivative", no_fd)
    rng = np.random.default_rng(5)
    h = 1e-5
    for u in _catalog_leaves() + _criterion_04_composites():
        assert u.exact_jets
        pts = rng.uniform(-1.2, 1.2, size=(40, u.n))
        T = u.jet(pts, 4)[4]
        for i in range(u.n):
            dx = np.zeros((1, u.n)); dx[0, i] = h
            fd = (u.d3(pts + dx) - u.d3(pts - dx)) / (2 * h)
            scale = max(np.max(np.abs(T)), 1.0)
            assert np.max(np.abs(T[..., i] - fd)) <= 1e-5 * scale


def test_exact_jets_flag():
    u = gaussian_bump(1, 0.0, 1.0)
    closure = harmonic_polynomial(1, "x1")
    assert u.exact_jets and (u * u + constant(1.0, 1)).exact_jets
    assert not closure.exact_jets and not (u * closure).exact_jets
    assert not positive_part_square(u - 0.5).exact_jets
    assert not (positive_part(u - 0.5) * u).exact_jets
    assert not tensor_product(u, closure).exact_jets
    grid = GridFunction(1, 2.0, np.zeros(9), constant(0.0, 1)).promote()
    assert not grid.exact_jets


def test_sampled_d4_bound_covers_dense_max():
    # the sampled sup |D^4| over B_r(x), r = 1e-2 (the zone's outer
    # radius), is at least the max over 201 points of the segment
    r = 1e-2
    xs = _criterion_04_probes(24)
    dense = (xs[:, None, :] + np.linspace(-r, r, 201)[None, :, None])
    for G in _criterion_04_composites():
        d3, d4 = G.derivative_bounds(xs, r)
        J = G.jet(dense.reshape(-1, 1), 4)
        for bound, D in [(d3, J[3]), (d4, J[4])]:
            sup = np.abs(D).reshape(len(xs), -1).max(axis=1)
            assert np.all(bound >= sup)


def test_derivative_bounds_rejects_non_finite_d3():
    bad = SmoothFunction(
        1, lambda x: x[:, 0], lambda x: np.ones((len(x), 1)),
        lambda x: np.zeros((len(x), 1, 1)),
        d3=lambda x: np.full((len(x), 1, 1, 1), np.nan),
        sup=10.0, grad_sup=1.0, hess_sup=0.0, tail=Tail.bounded(10.0))
    with pytest.raises(ArithmeticError, match="not finite"):
        bad.derivative_bounds(np.array([0.3]), 1e-3)


def test_sup_metadata_upper_bounds():
    rng = np.random.default_rng(1)
    pts = rng.uniform(-8, 8, size=(2000, 1))
    for u in [gaussian_bump(1, 0.5, 0.7, -2.0), polynomial_gaussian([1.0, 0.4, 0.2]),
              plane_wave(2.0, 0.4, 1.3)]:
        assert np.max(np.abs(u(pts))) <= u.sup * (1 + 1e-9)
        assert np.max(np.linalg.norm(u.gradient(pts), axis=1)) \
            <= u.grad_sup * (1 + 1e-9)


def test_algebra_product_values_and_tails():
    f = gaussian_bump(1, 0.0, 1.0)
    g = plane_wave(2.0)
    prod = f * g
    pts = np.linspace(-2, 2, 11).reshape(-1, 1)
    assert np.allclose(prod(pts), f(pts) * g(pts))
    assert prod.tail.limit == 0.0
    # trig x trig picks up the product mean in the limit; the combined
    # period is a (not necessarily minimal) common period
    sq = g * g
    assert sq.tail.limit == pytest.approx(0.5, abs=1e-12)
    assert (sq.tail.period / (np.pi / 2)) == pytest.approx(
        round(sq.tail.period / (np.pi / 2)), abs=1e-12)


def test_shifted_square_constant_tail():
    u = gaussian_bump(1, 0.0, 1.0)
    w = (u - 0.8) * (u - 0.8)
    assert w.tail.limit == pytest.approx(0.64)
    pts = np.array([[50.0]])
    assert w(pts)[0] == pytest.approx(0.64, rel=1e-10)


def test_cutoff_plateau_and_support():
    eta = make_cutoff(0.25, 0.5, n=1)
    assert eta(np.array([[0.0]]))[0] == 1.0
    assert eta(np.array([[0.2]]))[0] == 1.0
    assert eta(np.array([[0.51]]))[0] == 0.0
    assert eta(np.array([[0.9]]))[0] == 0.0
    mid = eta(np.array([[0.375]]))[0]
    assert 0.0 < mid < 1.0
    vals = eta(np.linspace(-1, 1, 401).reshape(-1, 1))
    assert np.all((vals >= 0) & (vals <= 1))


def test_cutoff_c2_norm_scaling():
    # eta_r with (r, 2r) scales the profile by 1/r^2 in the C^2 part
    base = make_cutoff(1.0, 2.0, n=1)
    small = make_cutoff(0.25, 0.5, n=1)
    ratio = small.c2_norm / base.c2_norm
    expect = (1 + base.grad_sup * 4 + base.hess_sup * 16) / base.c2_norm
    assert ratio == pytest.approx(expect, rel=1e-6)


def test_cutoff_derivative_bounds_at_probes():
    eta = make_cutoff(0.3, 0.9, n=2)
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1, 1, size=(800, 2))
    g = np.linalg.norm(eta.gradient(pts), axis=1)
    assert np.max(g) <= eta.grad_sup * (1 + 1e-9)
    H = eta.hessian(pts)
    lap = np.abs(np.trace(H, axis1=1, axis2=2))
    assert np.max(lap) <= 2 * eta.c2_norm * (1 + 1e-9)


def test_cutoff_errors():
    with pytest.raises(ValueError):
        make_cutoff(0.5, 0.5)
    with pytest.raises(ValueError):
        make_cutoff(0.7, 0.5)


def test_incremental_quotient_taylor():
    u = plane_wave(1.0)  # sin-free, u=cos(x), d_e u = -sin
    x = np.linspace(-1, 1, 21).reshape(-1, 1)
    errs = []
    for h in [0.4, 0.2, 0.1, 0.05]:
        dq = incremental_quotient(u, h, E1)
        errs.append(np.max(np.abs(dq(x) - u.gradient(x)[:, 0])))
    errs = np.array(errs)
    # first-order convergence
    assert np.all(errs[1:] / errs[:-1] < 0.6)


def test_incremental_quotient_constant_and_bound():
    c = constant(3.0, 1)
    dq = incremental_quotient(c, 0.3, E1)
    assert np.max(np.abs(dq(np.linspace(-2, 2, 50).reshape(-1, 1)))) == 0.0
    u = gaussian_bump(1, 0.0, 1.0)
    dq = incremental_quotient(u, 0.1, E1)
    pts = np.random.default_rng(3).uniform(-3, 3, size=(1000, 1))
    assert np.max(np.abs(dq(pts))) <= u.grad_sup * (1 + 1e-12)
    with pytest.raises(ValueError):
        incremental_quotient(u, 0.0, E1)
    with pytest.raises(ValueError):
        incremental_quotient(u, 0.6, E1)


@given(st.floats(-0.45, 0.45).filter(lambda h: abs(h) > 1e-3),
       st.floats(-1.0, 1.0))
@settings(max_examples=25, deadline=None)
def test_translation_equivariance(h, a):
    u = gaussian_bump(1, 0.2, 0.9)
    lhs = incremental_quotient(translate(u, np.array([a])), h, E1)
    rhs = translate(incremental_quotient(u, h, E1), np.array([a]))
    pts = np.linspace(-1.5, 1.5, 11).reshape(-1, 1)
    assert np.allclose(lhs(pts), rhs(pts), atol=1e-13)


def test_quotient_cauchy_schwarz_against_segment():
    u = gaussian_bump(1, 0.1, 0.8) + gaussian_bump(1, -0.4, 1.2, -0.6)
    h = 0.37
    dq = incremental_quotient(u, h, E1)
    pts = np.random.default_rng(5).uniform(-2, 2, size=(500, 1))
    lhs = dq(pts) ** 2
    # right side: segment average of |grad u|^2 by Gauss-Legendre
    from numpy.polynomial.legendre import leggauss
    tq, wq = leggauss(48)
    tq, wq = 0.5 * (tq + 1.0), 0.5 * wq
    rhs = np.zeros(len(pts))
    for t, w in zip(tq, wq):
        rhs += w * np.linalg.norm(u.gradient(pts + t * h), axis=1) ** 2
    assert np.all(lhs <= rhs * (1 + 1e-9) + 1e-12)


def test_averaged_square_root_constant():
    c = constant(-2.5, 1)
    asr = averaged_square_root(c, 0.3, E1)
    pts = np.linspace(-1, 1, 7).reshape(-1, 1)
    assert np.allclose(asr(pts), 2.5)


def test_averaged_square_root_linear_closed_form():
    # u(x) = x integrated over the unit segment from 0: sqrt(1/3)
    lin = SmoothFunction(
        1, lambda x: x[:, 0], lambda x: np.ones((len(x), 1)),
        lambda x: np.zeros((len(x), 1, 1)),
        sup=10.0, grad_sup=1.0, hess_sup=0.0, tail=Tail.bounded(10.0))
    asr = averaged_square_root(lin, 1.0, E1)
    with pytest.raises(ValueError):
        averaged_square(lin, 1.0, E1, order=8)
    assert asr(np.array([[0.0]]))[0] == pytest.approx(1 / np.sqrt(3), rel=1e-12)


def test_averaged_square_root_finite_far_from_data():
    # u^2 underflows to zero at x = 30: value and derivatives are zero,
    # not 0/0
    u = gaussian_bump(1, 0.0, 1.0) + gaussian_bump(1, 0.8, 0.6, -0.5)
    asr = averaged_square_root(u, 0.1, [1.0])
    for D in asr.jet([[30.0]], 3):
        assert np.all(np.isfinite(D))
    assert asr.hessian([[30.0]])[0, 0, 0] == 0.0


def test_averaged_square_against_refined_reference():
    u = gaussian_bump(1, 0.3, 0.7)
    h = 0.4
    a16 = averaged_square(u, h, E1, order=16)
    a96 = averaged_square(u, h, E1, order=96)
    pts = np.linspace(-1, 1, 21).reshape(-1, 1)
    assert np.max(np.abs(a16(pts) - a96(pts))) <= 1e-10 * np.max(np.abs(a96(pts)))


def test_positive_part_square_derivatives():
    v = polynomial_gaussian([0.0, 1.0])  # odd: changes sign at 0
    p = positive_part_square(v)
    # probes off the kink: the composite is C^{1,1}, FD matches the
    # analytic gradient away from {v = 0}
    pts = (np.linspace(-2, 2, 41) + 0.013).reshape(-1, 1)
    vals = p(pts)
    assert np.all(vals >= 0)
    assert np.allclose(vals, np.maximum(v(pts), 0) ** 2)
    g = p.gradient(pts)[:, 0]
    h = 1e-5
    fd = (p(pts + h) - p(pts - h)) / (2 * h)
    assert np.max(np.abs(g - fd)) < 1e-6
    # at the kink itself the gradient is continuous (value 0)
    assert p.gradient(np.array([[0.0]]))[0, 0] == 0.0


def test_affine_precompose():
    u = gaussian_bump(2, [0.1, 0.2], 1.0)
    A = np.array([[1.3, 0.2], [0.2, 0.7]])
    w = affine_precompose(u, A)
    pts = np.random.default_rng(8).uniform(-1, 1, size=(50, 2))
    assert np.allclose(w(pts), u(pts @ A.T))
    _fd_gradient_check(w, pts[:20])


def test_direction_normalizes():
    d = Direction([3.0, 4.0])
    assert np.linalg.norm(d.e) == pytest.approx(1.0, abs=1e-14)


def test_grid_function_promote_1d():
    axis = np.linspace(-2, 2, 161)
    ext = gaussian_bump(1, 0.0, 1.0)
    vals = ext(axis.reshape(-1, 1))
    gf = GridFunction(1, 2.0, vals, ext)
    assert gf.boundary_mismatch() < 1e-12
    prom = gf.promote()
    pts = np.linspace(-1.9, 1.9, 57).reshape(-1, 1)
    # cubic interpolation error ~ h^4 |u''''| / 384 at h = 0.025
    assert np.max(np.abs(prom(pts) - ext(pts))) < 1e-6
    outside = np.array([[2.5], [-3.0]])
    assert np.allclose(prom(outside), ext(outside))
    # second derivatives survive cubic promotion
    h_pts = np.linspace(-1.5, 1.5, 11).reshape(-1, 1)
    assert np.max(np.abs(prom.hessian(h_pts)[:, 0, 0]
                         - ext.hessian(h_pts)[:, 0, 0])) < 1e-3


def test_grid_function_promote_2d():
    axis = np.linspace(-1.5, 1.5, 49)
    ext = gaussian_bump(2, [0.0, 0.0], 0.8)
    X, Y = np.meshgrid(axis, axis, indexing="ij")
    vals = ext(np.stack([X.ravel(), Y.ravel()], 1)).reshape(49, 49)
    gf = GridFunction(2, 1.5, vals, ext)
    prom = gf.promote()
    pts = np.random.default_rng(9).uniform(-1.2, 1.2, size=(200, 2))
    assert np.max(np.abs(prom(pts) - ext(pts))) < 1e-6


def test_grid_function_validates():
    with pytest.raises(ValueError):
        GridFunction(1, 1.0, np.array([1.0, np.nan, 2.0]), constant(0.0, 1))


def test_harmonic_polynomials_are_harmonic():
    for kind in ["x1", "re_z2", "im_z2", "re_z3"]:
        u = harmonic_polynomial(2, kind)
        pts = np.random.default_rng(10).uniform(-2, 2, size=(100, 2))
        lap = np.trace(u.hessian(pts), axis1=1, axis2=2)
        assert np.max(np.abs(lap)) < 1e-12
