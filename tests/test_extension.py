"""Extension fields, the trace constant, weighted-operator identities."""

import numpy as np
import pytest
from scipy.special import gamma

from fracbern.funcspace import (gaussian_bump, plane_wave, constant,
                                modulated_gaussian, make_cutoff)
from fracbern.extension import (extend, weighted_normal_derivative,
                                trace_constant, poisson_constant,
                                verify_extension_identities,
                                check_halfspace_max_principle)
from fracbern.nonlocal_ops import spectral_oracle


def test_poisson_constant_half():
    assert poisson_constant(1, 0.5) == pytest.approx(1 / np.pi, rel=1e-14)


def test_constant_extends_to_itself():
    E = extend(constant(1.0, 1), 0.3)
    xs = np.array([0.0, 1.0, -2.0])
    ys = np.array([0.05, 0.7, 2.5])
    assert np.max(np.abs(E.value(xs, ys) - 1.0)) < 1e-11


def test_cos_closed_form_extension():
    # s = 1/2: U(x, y) = e^{-y} cos x, checked to 1e-6 absolute on [0,3]^2
    E = extend(plane_wave(1.0), 0.5)
    xs = np.linspace(0, 3, 7)
    ys = np.linspace(0.05, 3, 7)
    X, Y = np.meshgrid(xs, ys)
    U = E.value(X.ravel(), Y.ravel())
    exact = np.exp(-Y.ravel()) * np.cos(X.ravel())
    assert np.max(np.abs(U - exact)) < 1e-6


def test_fourth_x_derivative_is_exact():
    w, c = 0.8, 0.3
    E = extend(gaussian_bump(1, c, w), 0.4)
    t = np.linspace(-2.0, 2.5, 41).reshape(-1, 1)
    z = (t[:, 0] - c) / w
    # D^4 exp(-z^2 / 2) = He_4(z) exp(-z^2 / 2) / w^4
    exact = (z ** 4 - 6 * z ** 2 + 3) * np.exp(-0.5 * z * z) / w ** 4
    got = E._ux[4](t)
    assert np.max(np.abs(got - exact)) <= 1e-11 * np.max(np.abs(exact))


def test_gaussian_equation_residual():
    E = extend(gaussian_bump(1, 0.0, 1.0), 0.25)
    rng = np.random.default_rng(0)
    xs = rng.uniform(-2, 2, 100)
    ys = rng.uniform(0.05, 2.0, 100)
    la = E.la_value(xs, ys)
    assert np.max(np.abs(la)) < 1e-5


def test_verify_invariants_bundle():
    E = extend(gaussian_bump(1, 0.3, 0.9), 0.6)
    rep = E.verify()
    assert rep["la_pass"] and rep["sup_pass"] and rep["trace_pass"]


def test_normal_derivative_cos_half():
    E = extend(plane_wave(1.0), 0.5)
    for x in [0.0, 0.3, 1.1]:
        w = weighted_normal_derivative(E, x)
        assert w == pytest.approx(np.cos(x), rel=1e-6)


def test_normal_derivative_constant_zero():
    E = extend(constant(2.0, 1), 0.4)
    assert abs(weighted_normal_derivative(E, 0.2)) < 1e-10


def test_trace_constant_closed_form():
    # d_s = 2s Gamma(1-s) / (4^s Gamma(1+s)), derived from the Bessel
    # small-argument expansion of the one-mode extension profile
    for s in [0.25, 0.5, 0.75]:
        ds, spread = trace_constant(s)
        want = 2 * s * gamma(1 - s) / (4 ** s * gamma(1 + s))
        assert ds == pytest.approx(want, rel=1e-5)
        assert spread < 1e-3


def test_trace_factorization_across_catalog():
    s = 0.75
    ds, _ = trace_constant(s)
    u = modulated_gaussian(0.1, 1.3, 1.0)
    E = extend(u, s)
    for x in np.linspace(-0.8, 0.8, 5):
        num = weighted_normal_derivative(E, x)
        den = spectral_oracle(s, u, x)
        if abs(den) > 1e-2:
            assert num / den == pytest.approx(ds, rel=1e-3)


def test_product_rule_two_route():
    # L_a(VW) from finite differences of the product values must agree
    # with (L_aV)W + V(L_aW) - 2 y^a grad V . grad W from the fields
    s = 0.4
    a = 1 - 2 * s
    Eu = extend(gaussian_bump(1, 0.0, 1.0), s)
    Ew = extend(modulated_gaussian(0.3, 1.1, 1.5), s)
    probes = [(0.2, 0.5), (-0.4, 0.8), (0.1, 1.3)]
    h = 1e-3
    for (x, y) in probes:
        xs = np.array([x, x + h, x - h, x, x])
        ys = np.array([y, y, y, y + h, y - h])
        V = Eu.value(xs, ys)
        W = Ew.value(xs, ys)
        P = V * W
        lap = (P[1] + P[2] - 2 * P[0]) / h ** 2 + (P[3] + P[4] - 2 * P[0]) / h ** 2
        dy = (P[3] - P[4]) / (2 * h)
        la_fd = -(y ** a) * lap - a * y ** (a - 1) * dy
        gradV = np.array([Eu.field(1, 0)(x, y)[0], Eu.field(0, 1)(x, y)[0]])
        gradW = np.array([Ew.field(1, 0)(x, y)[0], Ew.field(0, 1)(x, y)[0]])
        laV = Eu.la_value(x, y)[0]
        laW = Ew.la_value(x, y)[0]
        rhs = laV * W[0] + V[0] * laW - 2 * y ** a * np.dot(gradV, gradW)
        assert la_fd == pytest.approx(rhs, abs=5e-4 * max(1, abs(rhs)))


def test_identities_constant_function():
    rep = verify_extension_identities(constant(0.7, 1), 0.5, R=1.0,
                                      kappa=0.0)
    assert np.max(np.abs(rep["residual_psi0"])) < 1e-8
    assert rep["psi1_pass"] and rep["psi2_pass"]


def test_identities_cos_half():
    rep = verify_extension_identities(plane_wave(1.0), 0.5, R=1.0)
    # (i) is an exact identity; quadrature residual stays tiny
    assert np.max(np.abs(rep["residual_psi0"])) <= 1e-5 * rep["psi0_scale"] * 10
    assert rep["psi1_pass"]
    assert rep["psi2_pass"]
    assert rep["sigma_monotone"]
    assert rep["tau0"] >= 1.0 and rep["sigma0"] >= 1.0


def test_identities_gaussian():
    rep = verify_extension_identities(
        gaussian_bump(1, 0.1, 0.9) + gaussian_bump(1, -0.4, 1.3, -0.5),
        0.35, R=1.0)
    assert rep["psi1_pass"] and rep["psi2_pass"]
    assert rep["sigma_monotone"]


def test_halfspace_max_principle_extension_shift():
    u = gaussian_bump(1, 0.0, 1.0)
    E = extend(u, 0.5)

    def value_fn(x, y):
        return E.value(x, y) - u.sup

    rep = check_halfspace_max_principle(
        value_fn, lambda x: u(x.reshape(-1, 1)) - u.sup)
    assert rep["pass"] and not rep["hypothesis_error"]


def test_halfspace_max_principle_homogeneous_supersolution():
    s = 0.3
    rep = check_halfspace_max_principle(
        lambda x, y: -np.asarray(y) ** (2 * s),
        lambda x: np.zeros_like(np.asarray(x)),
        la_fn=lambda x, y: np.zeros_like(np.asarray(x)))
    assert rep["pass"]


def test_halfspace_max_principle_hypothesis_gate():
    rep = check_halfspace_max_principle(
        lambda x, y: np.ones_like(np.asarray(x)),
        lambda x: np.ones_like(np.asarray(x)))  # trace positive: gated
    assert not rep["pass"] and rep["hypothesis_error"]


def test_subsolution_shifted_pair():
    # Phi - Phi* vanishes on the trace and stays nonpositive above it
    s = 0.5
    u = plane_wave(1.0)
    E = extend(u, s)
    # Phi: squared first derivative composite with sigma weight;
    # Phi*: extension of its own trace
    eta = make_cutoff(0.25, 0.5, n=1)
    sigma = 60.0
    from fracbern.funcspace import directional_derivative
    du = directional_derivative(u, np.array([1.0]))
    phi_trace = (eta * eta) * (du * du) + (u * u) * sigma
    Estar = extend(phi_trace, s)

    def Phi(x, y):
        x = np.atleast_1d(x); y = np.atleast_1d(y)
        ux = E.field(1, 0)(x, y)
        ev = eta(x.reshape(-1, 1))
        uv = E.value(x, y)
        return ev ** 2 * ux ** 2 + sigma * uv ** 2

    def Vfn(x, y):
        return Phi(x, y) - Estar.value(x, y)

    rep = check_halfspace_max_principle(
        Vfn, lambda x: np.zeros_like(np.asarray(x)), box=(2.0, 2.0),
        nx=11, ny=8, tol=1e-5)
    assert rep["pass"]
