"""Kernel families, structural-class validation, measures, nonlinearities."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from fracbern._quad import geometric_edges, half_sphere, panel_nodes
from fracbern.kernels import (normalizing_constant, fractional_kernel,
                              anisotropic_kernel, stable_kernel,
                              custom_kernel, validate_kernel_class,
                              rescale_kernel, MeasureOnUnit, EllipticMatrix,
                              bellman_max, log_sum_exp, linear_nonlinearity)
from fracbern.funcspace import gaussian_bump
from fracbern.nonlocal_ops import apply_nonlocal, spectral_oracle


def test_normalizing_constant_half():
    # closed form at n=1, s=1/2 is 1/pi; cross-checked by the symbol test below
    assert normalizing_constant(1, 0.5) == pytest.approx(1 / np.pi, rel=1e-14)


def test_normalizing_constant_symbol_oracle():
    # the constant is correct iff the quadratured operator matches the
    # spectral symbol; cos has symbol value exactly 1 at s = 1/2
    from fracbern.funcspace import plane_wave
    u = plane_wave(1.0)
    val = apply_nonlocal(fractional_kernel(1, 0.5), u, 0.3)
    assert val.value == pytest.approx(np.cos(0.3), rel=1e-9)


def test_normalizing_constant_vanishes_linearly():
    for s in [1e-3, 1e-4]:
        c = normalizing_constant(1, s)
        assert c == pytest.approx(s * normalizing_constant(1, 1e-9) / 1e-9,
                                  rel=2e-3)


def test_normalizing_constant_2d_oracle():
    g = gaussian_bump(2, width=1.0)
    x = np.array([0.2, -0.1])
    a = apply_nonlocal(fractional_kernel(2, 0.5), g, x)
    b = spectral_oracle(0.5, g, x)
    assert a.value == pytest.approx(b, rel=1e-6)


def test_fractional_density_closed_form():
    K = fractional_kernel(1, 0.5)
    z = np.array([[0.5], [2.0]])
    assert np.allclose(K(z), (1 / np.pi) * np.abs(z[:, 0]) ** -2)


def test_parameter_errors():
    with pytest.raises(ValueError):
        normalizing_constant(3, 0.5)
    with pytest.raises(ValueError):
        normalizing_constant(1, 1.0)


def test_anisotropic_identity_matches_fractional():
    K1 = fractional_kernel(2, 0.4)
    K2 = anisotropic_kernel(0.4, np.eye(2))
    z = np.random.default_rng(0).normal(size=(50, 2))
    assert np.allclose(K1(z), K2(z), rtol=1e-13)


def test_stable_constant_density_matches_fractional():
    s = 0.6
    c = normalizing_constant(2, s)
    K1 = fractional_kernel(2, s)
    K2 = stable_kernel(2, s, lambda w: np.full(w.shape[0], c))
    z = np.random.default_rng(1).normal(size=(40, 2))
    assert np.allclose(K1(z), K2(z), rtol=1e-12)


def test_stable_rejects_nonpositive_density():
    with pytest.raises(ValueError):
        stable_kernel(2, 0.5, lambda w: w[:, 0])  # odd => symmetrized sign


def test_custom_rejects_asymmetric():
    with pytest.raises(ValueError):
        custom_kernel(1, 0.5, lambda z: np.exp(z[:, 0]) *
                      np.abs(z[:, 0]) ** -2, 0.1, 10.0, 10.0)


def test_validate_fractional_exact_ratios():
    K = fractional_kernel(1, 0.3)
    rep = validate_kernel_class(K)
    base = normalizing_constant(1, 0.3) / (0.3 * 0.7)
    assert rep["pass"]
    assert rep["C1_hat"] == pytest.approx(base, rel=1e-12)
    assert rep["C2_hat"] == pytest.approx(base, rel=1e-12)


def test_validate_first_order_ratio_is_nplus2s():
    # |z| |grad K| / K for the pure power is exactly n + 2s
    for (n, s) in [(1, 0.5), (2, 0.25)]:
        K = fractional_kernel(n, s)
        z = np.random.default_rng(2).normal(size=(30, n))
        ratio = np.linalg.norm(K.grad(z), axis=1) * np.linalg.norm(z, axis=1) / K(z)
        assert np.allclose(ratio, n + 2 * s, rtol=1e-10)


def _log_modulated(n, s):
    c = normalizing_constant(n, s)

    def dens(z):
        r = np.linalg.norm(z, axis=1)
        return c * r ** (-n - 2 * s) * (2.0 + np.sin(np.log(r)))

    def rt(a):
        T = np.log(a)
        return c * (2 * a ** (-2 * s) / (2 * s)
                    + np.exp(-2 * s * T) * (2 * s * np.sin(T) + np.cos(T))
                    / (4 * s * s + 1))

    def rm2(r):
        T = np.log(r)
        q = 2 - 2 * s
        return c * (2 * r ** q / q
                    + np.exp(q * T) * (q * np.sin(T) - np.cos(T)) / (q * q + 1))

    return custom_kernel(n, s, dens, C1=c / (s * (1 - s)),
                         C2=3 * c / (s * (1 - s)), C3=40.0,
                         radial_tail=rt, radial_moment2=rm2)


def test_validate_log_modulated_ratio_three():
    K = _log_modulated(1, 0.5)
    rep = validate_kernel_class(K, radii_count=4000)
    # extremes of 2 + sin are 1 and 3
    assert rep["C2_hat"] / rep["C1_hat"] == pytest.approx(3.0, rel=5e-3)
    assert rep["pass"]


def _zone_radii(r_lo, r_hi=1e-2):
    # a fine zone rule's radii: one panel below r_lo, 6 per decade above
    return panel_nodes(np.append(0.0, geometric_edges(r_lo, r_hi, 6)), 16)[0]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("s", [0.1, 0.5, 0.501, 0.9])
@pytest.mark.parametrize("r_lo", [1e-10, 1e-4])
def test_zone_weight_closed_form_matches_numeric(n, s, r_lo):
    # the power-law closed form (expm1 at and near s = 1/2) against the
    # numeric panel sums of the same density wrapped as a custom kernel;
    # M = J_1 - rho J_0 cancels as rho nears r_hi, so the gap is held
    # against J_1 + rho J_0, the sum it is taken from
    K = fractional_kernel(n, s)
    C = custom_kernel(n, s, K._density, K.C1, K.C2, K.C3)
    rho, dirs = _zone_radii(r_lo), half_sphere(n, 16)[0]
    M = K.zone_weight(rho, dirs, r_lo, 1e-2)
    lo = np.maximum(rho, r_lo)[:, None]
    J0 = K._angular(dirs) * (lo ** (-2 * s) - 1e-2 ** (-2 * s)) / (2 * s)
    gap = np.abs(C.zone_weight(rho, dirs, r_lo, 1e-2) - M)
    assert np.all(gap <= 1e-13 * (M + 2 * rho[:, None] * J0))


@pytest.mark.parametrize("n", [1, 2])
def test_zone_weight_numeric_matches_scipy(n):
    # the log-modulated kernel's M against scipy's quad in log r, at
    # radii on both sides of r_lo (M is linear in rho below it)
    K, r_hi = _log_modulated(n, 0.5), 1e-2
    w = half_sphere(n, 4)[0][-1]
    for r_lo in (1e-10, 1e-5):
        rho = r_lo * np.array([0.3, 0.9, 1.5, 40.0, 0.5 * r_hi / r_lo,
                               0.99 * r_hi / r_lo])
        got = K.zone_weight(rho, w[None], r_lo, r_hi)[:, 0]
        for r, g in zip(rho, got):
            def ref(sign):
                f = lambda t: (np.exp(t) + sign * r) * np.exp(n * t) \
                    * K(np.exp(t) * w[None])[0]
                return quad(f, np.log(max(r, r_lo)), np.log(r_hi),
                            epsabs=0.0, epsrel=1e-13, limit=200)[0]
            assert abs(g - ref(-1.0)) <= 1e-11 * ref(1.0)


@pytest.mark.parametrize("n", [1, 2])
def test_abs_moment_bounds_cover_quadrature(n):
    # the C2 bounds abs_moment(p, r), p = 3, 4 and 6, are at least the
    # ball integrals of |z|^p K, here on geometric panels over 14
    # decades below r (and 256 directions in 2d)
    from fracbern._quad import geometric_edges, panel_nodes
    from fracbern.kernels import sphere_directions
    A = np.array([[1.3]]) if n == 1 else np.array([[1.3, 0.2], [0.2, 0.8]])
    kernels = [fractional_kernel(n, 0.3), fractional_kernel(n, 0.9),
               anisotropic_kernel(0.6, A), _log_modulated(n, 0.5)]
    dirs = sphere_directions(n, 2 if n == 1 else 256)
    dw = 1.0 if n == 1 else 2 * np.pi / len(dirs)
    for K in kernels:
        for r in [1e-9, 1e-5, 1e-2, 1.0, 3.0]:
            t, wt = panel_nodes(geometric_edges(r * 1e-14, r, 4), 16)
            kz = K((t[:, None, None] * dirs[None]).reshape(-1, n))
            radial = dw * kz.reshape(len(t), -1).sum(axis=1) * t ** (n - 1)
            for p in (3, 4, 6):
                quad = np.dot(wt, radial * t ** p)
                assert quad <= K.abs_moment(p, r) * (1 + 1e-12), (K, r, p)


def test_fourth_moment_matches_quadrature():
    # m_4(r) = int_{|z| < r} z^4 K, exact for the power laws and from
    # panels plus a C2 remainder for the log-modulated kernel, agrees
    # with geometric panels over 14 decades below r within its error
    from fracbern._quad import geometric_edges, panel_nodes
    kernels = [fractional_kernel(1, 0.3), fractional_kernel(1, 0.9),
               anisotropic_kernel(0.6, np.array([[1.3]])),
               _log_modulated(1, 0.5), _log_modulated(1, 0.95)]
    for K in kernels:
        for r in [1e-9, 1e-5, 1e-2, 1.0, 3.0]:
            t, wt = panel_nodes(geometric_edges(r * 1e-14, r, 4), 16)
            quad = np.dot(wt, (K(t) + K(-t)) * t ** 4)
            m4, err = K.fourth_moment(r)
            assert abs(m4 - quad) <= err + 1e-14 * quad, (K, r)
            assert err <= 1e-12 * m4
    with pytest.raises(NotImplementedError):
        fractional_kernel(2, 0.5).fourth_moment(1.0)


@pytest.mark.parametrize("n", [1, 2])
def test_numeric_fallbacks_meet_the_power_law(n):
    # a custom kernel wrapping the fractional density takes the numeric
    # radial rule (half-sphere of 64 directions) for its tail mass and
    # second moment; both meet the closed forms within their errors
    F = fractional_kernel(n, 0.4)
    C = custom_kernel(n, 0.4, F, C1=F.C1, C2=F.C2, C3=F.C3)
    for R in (1e-2, 1.0, 8.0):
        (v, err), (ref, _) = C.tail_mass(R), F.tail_mass(R)
        assert abs(v - ref) <= err + 1e-13 * ref, R
        (M, err), (Mref, _) = C.second_moment_matrix(R), \
            F.second_moment_matrix(R)
        assert np.max(np.abs(M - Mref)) <= err + 1e-13 * Mref[0, 0], R
    # the C2 bounds take |S^0| = 2 and |S^1| = 2 pi exactly
    surf = {1: 2.0, 2: 2 * np.pi}[n]
    assert F.abs_moment(4, 1.0) == F.C2 * 0.4 * 0.6 * surf / (4 - 0.8)


def test_rescale_power_kernels_pointwise_invariant():
    K = fractional_kernel(1, 0.5)
    assert rescale_kernel(K, 3.7) is K
    KA = anisotropic_kernel(0.3, np.array([[1.5, 0.2], [0.2, 0.8]]))
    assert rescale_kernel(KA, 0.25) is KA


def test_rescale_custom_identity_at_one():
    K = _log_modulated(1, 0.5)
    K1 = rescale_kernel(K, 1.0)
    z = np.linspace(0.1, 5, 20).reshape(-1, 1)
    assert np.allclose(K(z), K1(z), rtol=1e-13)


def test_rescale_scale_covariance():
    # L_{K^[R]} u_R (x) = R^{2s} L_K u(R x), both sides by quadrature
    K = _log_modulated(1, 0.5)
    R = 2.0
    KR = rescale_kernel(K, R)
    u = gaussian_bump(1, 0.2, 1.0)
    from fracbern.funcspace import affine_precompose
    uR = affine_precompose(u, np.array([[R]]))
    x = 0.3
    lhs = apply_nonlocal(KR, uR, x)
    rhs = apply_nonlocal(K, u, R * x)
    assert lhs.value == pytest.approx(R ** (2 * K.s) * rhs.value, rel=1e-5)


def test_rescale_constants_carry_over():
    K = _log_modulated(1, 0.4)
    KR = rescale_kernel(K, 2.0)
    assert (KR.C1, KR.C2, KR.C3) == (K.C1, K.C2, K.C3)
    rep = validate_kernel_class(KR, radii_count=2000)
    assert rep["pass"]


def test_symmetry_probe_cloud():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(1000, 2)) * rng.uniform(0.01, 10, size=(1000, 1))
    for K in [fractional_kernel(2, 0.5),
              anisotropic_kernel(0.7, np.array([[2.0, 0.4], [0.4, 1.0]])),
              stable_kernel(2, 0.5, lambda w: 1.2 + 0.5 * w[:, 0] ** 2)]:
        assert np.max(np.abs(K(z) - K(-z))) == 0.0


def test_measure_normalization_and_omega0():
    mu = MeasureOnUnit([(0.5, 0.25), (0.0, 0.5), (1.0, 0.25)])
    assert mu.omega0 == 1
    assert MeasureOnUnit([(0.3, 1.0)]).omega0 == 0
    with pytest.raises(ValueError):
        MeasureOnUnit([(0.5, 0.5)])
    with pytest.raises(ValueError):
        MeasureOnUnit([(0.5, 0.5), (0.5, 0.5)])
    with pytest.raises(ValueError):
        MeasureOnUnit([(1.5, 1.0)])


def test_elliptic_matrix_validation():
    with pytest.raises(ValueError):
        EllipticMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        EllipticMatrix(np.array([[1.0, 0.0], [0.0, -1.0]]))
    A = EllipticMatrix(np.array([[2.0, 0.3], [0.3, 1.0]]))
    assert 0 < A.lam <= A.Lam


@given(st.integers(2, 5), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_bellman_subgradient_supporting_plane(J, seed):
    # F(q) - F(p) >= alpha(p) . (q - p), with equality at q = p
    F = bellman_max(J)
    rng = np.random.default_rng(seed)
    p = rng.normal(size=J)
    q = rng.normal(size=J)
    a = F.subgradient(p)
    assert np.all(a >= 0) and a.sum() >= F.theta0 - 1e-12
    assert F(q) - F(p) >= np.dot(a, q - p) - 1e-12
    assert F(p) - F(p) == pytest.approx(np.dot(a, p - p))


def test_bellman_first_argmax_tiebreak():
    F = bellman_max(3)
    a = F.subgradient(np.array([2.0, 2.0, 1.0]))
    assert list(a) == [1.0, 0.0, 0.0]


def test_bellman_subgradient_bulk():
    F = bellman_max(4)
    rng = np.random.default_rng(7)
    p = rng.normal(size=(10000, 4))
    q = rng.normal(size=(10000, 4))
    a = F.subgradient(p)
    gap = F(q) - F(p) - np.sum(a * (q - p), axis=1)
    assert np.min(gap) >= -1e-12


def test_smooth_convex_families():
    for F in [log_sum_exp(3, 2.0), linear_nonlinearity([0.3, 0.7])]:
        rng = np.random.default_rng(9)
        p = rng.normal(size=(500, F.J))
        q = rng.normal(size=(500, F.J))
        a = F.subgradient(p)
        assert np.all(a >= -1e-14)
        assert np.all(a.sum(axis=1) >= F.theta0 - 1e-9)
        gap = F(q) - F(p) - np.sum(a * (q - p), axis=1)
        assert np.min(gap) >= -1e-9


def _ray_tail_kernels():
    s = 0.4
    frac = fractional_kernel(1, s)
    return {
        "fractional": fractional_kernel(1, s),
        "anisotropic": anisotropic_kernel(s, [[1.7]]),
        "stable": stable_kernel(1, s, lambda w: 1.0 + 0.5 * w[:, 0] ** 2),
        "custom-hook": _log_modulated(1, s),
        "custom-generic": custom_kernel(1, s, frac, C1=frac.C1,
                                        C2=frac.C2, C3=frac.C3),
        "fractional-2d": fractional_kernel(2, s),
        "custom-generic-2d": custom_kernel(2, s, fractional_kernel(2, s),
                                           C1=1.0, C2=1.0, C3=1.0),
    }


@pytest.mark.parametrize("name", list(_ray_tail_kernels()))
def test_ray_tail_array_equals_elementwise(name):
    K = _ray_tail_kernels()[name]
    omega = np.array([1.0]) if K.n == 1 else np.array([0.6, -0.8])
    a = np.array([[0.3, 1.0, 16.0], [24.0, 30.0, 24.0 + 48.0 * np.pi]])
    got = K.ray_tail(a, omega)
    assert got.shape == a.shape
    each = np.array([[K.ray_tail(ai, omega) for ai in row] for row in a])
    assert np.array_equal(got, each)


def test_generic_ray_tail_truncation_is_covered_or_refused():
    # the generic ray tail adds the pure-power continuation past 1e10 a,
    # so it matches the closed form; the C2 bound of tail_mass keeps the
    # operator value honest: covered by the certified error at s = 0.25,
    # refused at s = 0.1
    from fracbern.funcspace import plane_wave
    from fracbern.nonlocal_ops import QuadratureFailure
    e1 = np.array([1.0])
    for s in (0.05, 0.1, 0.25):
        F = fractional_kernel(1, s)
        C = custom_kernel(1, s, F, C1=F.C1, C2=F.C2, C3=F.C3)
        short = 1.0 - C.ray_tail(16.0, e1) / F.ray_tail(16.0, e1)
        assert abs(short) < 1e-12
    F = fractional_kernel(1, 0.25)
    C = custom_kernel(1, 0.25, F, C1=F.C1, C2=F.C2, C3=F.C3)
    val = apply_nonlocal(C, plane_wave(1.0), 0.3)
    assert abs(val.value - np.cos(0.3)) <= val.error
    F = fractional_kernel(1, 0.1)
    C = custom_kernel(1, 0.1, F, C1=F.C1, C2=F.C2, C3=F.C3)
    with pytest.raises(QuadratureFailure):
        apply_nonlocal(C, plane_wave(1.0), 0.3)
