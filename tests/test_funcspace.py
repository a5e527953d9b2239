"""Function catalog, derivatives, cutoffs, quotients, grids."""

import sys
import types

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
                                averaged_square_root, GridFunction,
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


def test_d6_match_fd_of_d5(monkeypatch):
    # exact sixth derivatives, which the sextic zone cut bounds in 1d,
    # without the finite-difference fallback
    def no_fd(self, x, j):
        raise AssertionError("finite-difference fallback reached")

    monkeypatch.setattr(SmoothFunction, "_derivative", no_fd)
    rng = np.random.default_rng(6)
    h = 1e-5
    for u in _catalog_leaves() + _criterion_04_composites():
        assert u.exact_jets
        pts = rng.uniform(-1.2, 1.2, size=(40, u.n))
        T = u.jet(pts, 6)[6]
        for i in range(u.n):
            dx = np.zeros((1, u.n)); dx[0, i] = h
            fd = (u.jet(pts + dx, 5)[5] - u.jet(pts - dx, 5)[5]) / (2 * h)
            scale = max(np.max(np.abs(T)), 1.0)
            assert np.max(np.abs(T[..., i] - fd)) <= 1e-5 * scale


def test_exact_jets_flag():
    u = gaussian_bump(1, 0.0, 1.0)
    closure = SmoothFunction(1, lambda x: x[:, 0],
                             lambda x: np.ones((len(x), 1)),
                             lambda x: np.zeros((len(x), 1, 1)))
    assert u.exact_jets and (u * u + constant(1.0, 1)).exact_jets
    assert harmonic_polynomial(2, "re_z3").exact_jets
    assert not closure.exact_jets and not (u * closure).exact_jets
    assert not positive_part_square(u - 0.5).exact_jets
    assert not (positive_part(u - 0.5) * u).exact_jets
    assert not tensor_product(u, closure).exact_jets
    grid = GridFunction(1, 2.0, np.zeros(9), constant(0.0, 1)).promote()
    assert not grid.exact_jets


def test_sampled_d4_bound_covers_dense_max():
    # the sampled sups of |D^3| to |D^6| over B_r(x), r = 1e-2 (the
    # zone's outer radius), are at least the max over 201 points of the
    # segment, and the jet at x comes from the same call
    r = 1e-2
    xs = _criterion_04_probes(24)
    dense = (xs[:, None, :] + np.linspace(-r, r, 201)[None, :, None])
    for G in _criterion_04_composites():
        Jx, sups = G.derivative_bounds(xs, r)
        assert len(sups) == 4
        for a, b in zip(Jx, G.jet(xs, 6)):
            assert np.array_equal(a, b)
        J = G.jet(dense.reshape(-1, 1), 6)
        for bound, D in zip(sups, J[3:]):
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


def test_tail_resid_takes_radius_arrays():
    # a resid closure maps an array of radii to the values of one call
    # per radius, bit for bit
    from fracbern.solvers import _fd_closure, _quotient_closure, barrier
    u = gaussian_bump(1, 0.2, 0.8) + polynomial_gaussian([1.0, 0.5], 0.1, 1.2)
    du = directional_derivative(u, E1)
    eta = make_cutoff(0.25, 0.5, n=1)
    fs = [u, du, eta * eta * du * du + u * u * 1.5, translate(u, 0.7),
          affine_precompose(u, [[1.3]]), positive_part_square(du - 0.1),
          averaged_square_root(u, 0.1, E1), incremental_quotient(u, 0.1, E1),
          plane_wave(1.2) * u + constant(0.3, 1), barrier(1.0, 1),
          _quotient_closure(u, E1, 1 / 32, 1), _fd_closure(u, E1, 1 / 32, 2),
          GridFunction(1, 2.0, np.linspace(0.0, 1.0, 9), u).promote(),
          tensor_product(u, gaussian_bump(1, 0.0, 1.0))]
    rs = np.array([0.0, 0.3, 0.5, 1.0, 2.0, 2.9, 3.0, 7.5, 10.0, 12.0, 40.0])
    for f in fs:
        one = np.array([f.tail.resid(r) for r in rs], dtype=float)
        assert np.array_equal(np.broadcast_to(f.tail.resid(rs), rs.shape),
                              one)


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


def test_averaged_square_bits_independent_of_blocking():
    # a point's value, gradient and Hessian do not depend on the other
    # points of its call: 768 seeded points as one call, as 682 + 86 and
    # one at a time (the first eight)
    u = gaussian_bump(1, 0.1, 0.8) + gaussian_bump(1, -0.4, 0.6, -0.5)
    A = averaged_square(u, 0.1, E1)
    x = np.random.default_rng(5).uniform(-2.0, 2.0, (768, 1))
    for whole, head, rest in zip(A.jet(x, 2), A.jet(x[:682], 2),
                                 A.jet(x[682:], 2)):
        assert np.array_equal(whole, np.concatenate([head, rest]))
    ones = [A.jet(x[i:i + 1], 2) for i in range(8)]
    for j, whole in enumerate(A.jet(x, 2)):
        assert np.array_equal(whole[:8], np.concatenate([J[j] for J in ones]))


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


def test_incommensurate_tails_and_affine_period():
    # periods in the ratio sqrt 2 have no common period: the sum and the
    # product fold their periodic parts into the residual bound
    f, g = plane_wave(1.0), plane_wave(np.sqrt(2.0))
    rs = np.array([0.0, 10.0, 1e4])
    for h, bound in ((f + g, 2.0), (f * g, 1.0)):
        assert h.tail.period is None and h.tail.limit == 0.0
        assert np.all(np.broadcast_to(h.tail.resid(rs), rs.shape) == bound)
        pts = np.linspace(-40.0, 40.0, 801).reshape(-1, 1)
        assert np.max(np.abs(h(pts))) <= bound
    # x -> cos(2 x) keeps a periodic tail, of period pi
    h = affine_precompose(plane_wave(1.0), [[2.0]])
    assert h.tail.period == pytest.approx(np.pi, rel=1e-15)
    pts = np.linspace(-5.0, 5.0, 41).reshape(-1, 1)
    assert np.allclose(h(pts), np.cos(2.0 * pts[:, 0]), rtol=0, atol=1e-15)


def test_periodic_product_mean_starts_past_the_residual():
    # cos^2 has mean 1/2: a bump beside the wave shifts the limit of the
    # product only if the mean is taken where the bump has not decayed
    for center in (0.0, 3.0):
        p = (plane_wave(1.0) + gaussian_bump(1, center, 1.0)) * plane_wave(1.0)
        assert p.tail.limit == pytest.approx(0.5, abs=1e-12), center


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


def test_grid_function_promote_1d_meets_the_exterior_slope():
    """The 1d spline is clamped to the exterior's slopes at x = +-L: the
    promoted gradient is the exterior's on both sides of the box edge,
    and D^2 in the last half cell stays near the exterior's (clamping to
    slope 0 left a gradient jump and an O(slope / h) D^2 there)."""
    ext = gaussian_bump(1, 0.2, 0.8, 0.7)
    axis = np.linspace(-2.0, 2.0, 257)
    prom = GridFunction(1, 2.0, ext(axis.reshape(-1, 1)), ext).promote()
    h = axis[1] - axis[0]
    for edge in (-2.0, 2.0):
        x = np.array([[edge - 1e-9], [edge + 1e-9]])
        np.testing.assert_allclose(prom.gradient(x), ext.gradient(x),
                                   rtol=1e-6)
        y = np.array([[edge - np.sign(edge) * h / 2]])
        assert abs(prom.hessian(y) - ext.hessian(y)).max() < 1e-3


def test_grid_function_promote_2d():
    axis = np.linspace(-1.5, 1.5, 49)
    ext = gaussian_bump(2, [0.0, 0.0], 0.8)
    X, Y = np.meshgrid(axis, axis, indexing="ij")
    vals = ext(np.stack([X.ravel(), Y.ravel()], 1)).reshape(49, 49)
    gf = GridFunction(2, 1.5, vals, ext)
    prom = gf.promote()
    pts = np.random.default_rng(9).uniform(-1.2, 1.2, size=(200, 2))
    assert np.max(np.abs(prom(pts) - ext(pts))) < 1e-6


def test_grid_function_promote_2d_derivatives():
    # a bicubic not-a-knot spline reproduces the cubic Re z^3, so the
    # promoted jet to order 3 matches the closed form inside the box up
    # to round-off, and is the exterior's jet outside it
    u = harmonic_polynomial(2, "re_z3")
    axis = np.linspace(-1.5, 1.5, 25)
    X, Y = np.meshgrid(axis, axis, indexing="ij")
    gf = GridFunction(2, 1.5, u(np.stack([X.ravel(), Y.ravel()], 1))
                      .reshape(25, 25), u)
    prom = gf.promote()
    pts = np.random.default_rng(12).uniform(-1.5, 1.5, size=(200, 2))
    for a, b in zip(prom.jet(pts, 3), u.jet(pts, 3)):
        assert np.max(np.abs(a - b)) < 1e-12
    out = np.array([[2.0, 0.3], [-0.4, -1.7], [3.0, 3.0]])
    for a, b in zip(prom.jet(out, 3), u.jet(out, 3)):
        np.testing.assert_array_equal(a, b)


def test_grid_function_boundary_mismatch_2d():
    # the rim nodes are read against the closure: an offset of 0.01 reads
    # 0.01, a perturbed rim node is found, an interior one is not read
    ext = gaussian_bump(2, [0.2, -0.1], 0.8)
    nodes = GridFunction(2, 1.5, np.zeros((25, 25)), ext).nodes()
    vals = ext(nodes).reshape(25, 25) + 0.01
    assert GridFunction(2, 1.5, vals, ext).boundary_mismatch() \
        == pytest.approx(0.01, abs=1e-15)
    vals[12, 12] += 5.0
    assert GridFunction(2, 1.5, vals, ext).boundary_mismatch() \
        == pytest.approx(0.01, abs=1e-15)
    vals[7, 24] += 0.3
    assert GridFunction(2, 1.5, vals, ext).boundary_mismatch() \
        == pytest.approx(0.31, abs=1e-15)


def test_grid_function_validates():
    with pytest.raises(ValueError):
        GridFunction(1, 1.0, np.array([1.0, np.nan, 2.0]), constant(0.0, 1))


def test_harmonic_polynomials_are_harmonic():
    for kind in ["x1", "re_z2", "im_z2", "re_z3"]:
        u = harmonic_polynomial(2, kind)
        pts = np.random.default_rng(10).uniform(-2, 2, size=(100, 2))
        lap = np.trace(u.hessian(pts), axis1=1, axis2=2)
        assert np.max(np.abs(lap)) < 1e-12


# -- memory: a function keeps scalars, not scans -------------------------------

def _arrays_reachable(obj):
    """{id: (nbytes, path)} of every ndarray reachable from obj through
    instance attributes, closure cells, defaults, bound methods and
    containers.  Modules, classes and function globals are not followed."""
    seen, found, todo = set(), {}, [(obj, "f")]
    while todo:
        o, path = todo.pop()
        if (o is None or id(o) in seen
                or isinstance(o, (type, types.ModuleType, str, bytes))):
            continue
        seen.add(id(o))
        if isinstance(o, np.ndarray):
            found[id(o)] = (o.nbytes, path)
            todo.append((o.base, path + ".base"))
        elif isinstance(o, types.FunctionType):
            for name, c in zip(o.__code__.co_freevars, o.__closure__ or ()):
                try:
                    todo.append((c.cell_contents, "%s.%s" % (path, name)))
                except ValueError:  # an empty cell
                    pass
            todo += [(d, path + ".<default>") for d in o.__defaults__ or ()]
        elif isinstance(o, types.MethodType):
            todo += [(o.__self__, path), (o.__func__, path)]
        elif isinstance(o, dict):
            todo += [(v, "%s[%r]" % (path, k)) for k, v in o.items()]
            todo += [(k, path + ".<key>") for k in o]
        elif isinstance(o, (list, tuple, set, frozenset)):
            todo += [(v, "%s[%d]" % (path, i)) for i, v in enumerate(o)]
        elif hasattr(o, "__dict__"):
            todo += [(v, "%s.%s" % (path, k)) for k, v in vars(o).items()]
    return found


def _shared_arrays():
    """Ids of the arrays that fracbern's module globals hold: caches
    shared by every function, not owned by one."""
    mods = [m for name, m in sys.modules.items()
            if name == "fracbern" or name.startswith("fracbern.")]
    return set().union(*(_arrays_reachable(vars(m)) for m in mods))


def _memory_cases():
    """name -> (function, byte budget per array): one or more instances
    of every funcspace.__all__ constructor, the barrier, promotions, and
    sums, products and tensor products of them."""
    from fracbern import solvers
    pg = polynomial_gaussian([0.2, 1.0, -0.3, 0.5], 0.3, 0.9)
    g1, g2 = gaussian_bump(1, 0.1, 0.8), gaussian_bump(2, [0.1, -0.2], 0.7)
    wave = plane_wave([1.5, 0.5], 0.3)
    cases = {
        "constant": constant(1.5, 2), "gaussian_bump": g2,
        "polynomial_gaussian": pg,
        "modulated_gaussian": modulated_gaussian([0.1, 0.2], 0.9,
                                                 [1.0, 2.0], n=2),
        "plane_wave": wave,
        "tensor_product": tensor_product(pg, g1),
        "translate": translate(pg, 0.4),
        "affine_precompose": affine_precompose(g2, [[1.2, 0.3], [0.0, 0.9]]),
        "directional_derivative": directional_derivative(wave, [0.6, 0.8]),
        "positive_part": positive_part(pg - 0.1),
        "positive_part_square": positive_part_square(pg - 0.1),
        "make_cutoff": make_cutoff(0.5, 1.0, 2), "Cutoff": make_cutoff(0.3, 0.9),
        "incremental_quotient": incremental_quotient(pg, 0.1, E1),
        "averaged_square": averaged_square(g2, 0.2, [1.0, 0.0]),
        "averaged_square_root": averaged_square_root(pg, 0.2, E1),
        "harmonic_polynomial": harmonic_polynomial(2, "re_z3"),
        "SmoothFunction": SmoothFunction(
            1, lambda x: np.sin(x[:, 0]), np.cos,
            lambda x: -np.sin(x)[:, :, None]),
        "sum": pg + g1 + 2.0, "product": pg * g1 * (-3.0),
        "tensor_of_composites": tensor_product(pg * pg, g1 + pg),
        "barrier_1d": solvers.barrier(0.5), "barrier_2d": solvers.barrier(1.0, 2),
    }
    budget = {name: 1024 for name in cases}
    for n, N, ext in ((1, 9, g1), (2, 5, g2)):
        # a promotion keeps its spline: 4^n (N - 1)^n cell coefficients
        vals = np.random.default_rng(n).uniform(size=(N,) * n)
        name = "GridFunction.promote.%dd" % n
        cases[name] = GridFunction(n, 1.5, vals, ext).promote()
        budget[name] = max(1024, 8 * (4 * (N - 1)) ** n)
    cases["promote_sum"] = cases["GridFunction.promote.1d"] + pg
    budget["promote_sum"] = budget["GridFunction.promote.1d"]
    return {name: (f, budget[name]) for name, f in cases.items()}


def test_functions_hold_no_large_arrays():
    """A catalog function costs O(1) memory: after a jet of order 3, no
    array over 1 KB (a promotion: over its spline cells) is reachable from
    it, other than caches that fracbern's modules share."""
    import fracbern.funcspace as fs
    cases = _memory_cases()
    # Tail is not a function; every function's tail is walked
    missing = [name for name in fs.__all__ if name != "Tail"
               and not any(c.split(".")[0] == name for c in cases)]
    assert not missing, "no memory case for %s" % missing
    shared = _shared_arrays()
    for name, (f, budget) in cases.items():
        x = np.random.default_rng(1).uniform(-1.0, 1.0, (64, f.n))
        f.jet(x, 3)
        large = sorted((nbytes, path) for i, (nbytes, path)
                       in _arrays_reachable(f).items()
                       if nbytes > budget and i not in shared)
        assert not large, "%s holds %s" % (name, large)
