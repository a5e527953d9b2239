"""Auxiliary-function identities and inequalities."""

import numpy as np
import pytest

from fracbern.kernels import (fractional_kernel, anisotropic_kernel,
                              custom_kernel, normalizing_constant,
                              MeasureOnUnit)
from fracbern.funcspace import (gaussian_bump, plane_wave, constant,
                                make_cutoff, harmonic_polynomial,
                                modulated_gaussian, directional_derivative,
                                SmoothFunction)
from fracbern.bernstein import (check_supert_identity, check_first_order_fraclap,
                                check_second_order_fraclap,
                                check_positive_part_global, sigma_affinity,
                                check_conto_traccia, compute_J_terms,
                                taper_moment, odd_taper, select_delta,
                                check_kernel_radial_identity,
                                check_downstairs_sharmonic,
                                check_incremental_classical, SearchFailure,
                                doubling_bisection, check_first_order_batch)
from fracbern.nonlocal_ops import Lattice, default_plan
from fracbern.solvers import solve_linear_dirichlet

E1 = np.array([1.0])


def _mix():
    return gaussian_bump(1, 0.0, 1.0) + gaussian_bump(1, 0.8, 0.6, -0.5)


def log_modulated(n, s):
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
        T, q = np.log(r), 2 - 2 * s
        return c * (2 * r ** q / q
                    + np.exp(q * T) * (q * np.sin(T) - np.cos(T)) / (q * q + 1))

    return custom_kernel(n, s, dens, C1=c / (s * (1 - s)),
                         C2=3 * c / (s * (1 - s)), C3=40.0,
                         radial_tail=rt, radial_moment2=rm2)


def test_doubling_bisection_threshold():
    got = doubling_bisection(lambda s: s >= 37.2, steps=40)
    assert got == pytest.approx(37.2, rel=1e-9)
    with pytest.raises(SearchFailure):
        doubling_bisection(lambda s: False, cap=10.0)


# -- the exact identity ----------------------------------------------------------

def test_supert_constant_cutoff_reduction():
    # eta constant kills the cross term; both routes reduce to the same
    # squared-difference integral
    K = fractional_kernel(1, 0.5)
    u = _mix()
    eta_const = constant(0.8, 1)
    r = check_supert_identity(K, u, eta_const, 0.0, "directional", 0.2)
    assert r["pass"]
    assert r["residual"] <= 10 * r["error_budget"]


@pytest.mark.parametrize("variant", ["directional", "positive-part",
                                     "gradient", "incremental"])
def test_supert_variants_random_probes(variant):
    K = fractional_kernel(1, 0.5)
    u = _mix()
    eta = make_cutoff(0.25, 0.5, n=1)
    rng = np.random.default_rng(1)
    for x in rng.uniform(-1.0, 1.0, 4):
        r = check_supert_identity(K, u, eta, 1.5, variant, x, h=0.1)
        assert r["pass"], (variant, x, r)


def test_supert_incremental_far_from_data():
    # the segment average underflows to zero at x = 30; the identity still
    # holds there and its pieces stay finite
    u = gaussian_bump(1, 0.0, 1.0) + gaussian_bump(1, 0.8, 0.6, -0.5)
    r = check_supert_identity(fractional_kernel(1, 0.5), u,
                              make_cutoff(0.25, 0.5), 1.5, "incremental", 30.0)
    assert np.isfinite([r["D1"], r["D2"], r["error_budget"]]).all()
    assert r["pass"]


def test_supert_custom_kernel():
    K = log_modulated(1, 0.5)
    u = _mix()
    eta = make_cutoff(0.25, 0.5, n=1)
    for variant in ["directional", "incremental"]:
        r = check_supert_identity(K, u, eta, 1.2, variant, 0.3)
        assert r["pass"]


def test_supert_anisotropic_2d():
    K = anisotropic_kernel(0.5, np.array([[1.3, 0.2], [0.2, 0.9]]))
    u = gaussian_bump(2, [0.0, 0.1], 1.0)
    eta = make_cutoff(0.3, 0.6, n=2)
    r = check_supert_identity(K, u, eta, 1.0, "directional",
                              np.array([0.2, -0.1]), e=np.array([1.0, 0.0]))
    assert r["pass"]


# -- first-order inequality ------------------------------------------------------

def test_first_order_constant_function_trivial():
    u = constant(2.0, 1)
    eta = make_cutoff(0.25, 0.5, n=1)
    sigma0, reports = check_first_order_fraclap(u, eta, E1, 0.5,
                                                np.array([0.0, 0.4]))
    assert sigma0 <= 1e-4
    assert all(r.verdict for r in reports)


def test_first_order_cos_uniform_sigma_across_orders():
    # the theory provides one threshold free of the order; minimal
    # per-order thresholds fluctuate below it, so the meaningful check
    # is that the WORST threshold over the sweep passes at every order
    u = plane_wave(1.0)
    eta = make_cutoff(0.25, 0.5, n=1)
    probes = np.linspace(-0.7, 0.7, 5)
    orders = [0.25, 0.5, 0.75, 0.95]
    sigmas = {}
    for s in orders:
        sig0, reports = check_first_order_fraclap(u, eta, E1, s, probes,
                                                  verify_multipliers=(1.0,))
        assert all(r.verdict for r in reports)
        sigmas[s] = sig0
    sigma_star = max(max(sigmas.values()), 1.0)
    from fracbern.bernstein import check_first_order_batch
    for s in orders:
        A, S, errA, errS = check_first_order_batch(
            u, eta, E1, s, probes.reshape(-1, 1))
        resid = A + sigma_star * S
        budget = errA + sigma_star * errS
        assert np.all(resid <= budget + 1e-9), s


def test_first_order_classical_endpoint():
    # s = 1: the classical computation with sigma >= C_n ||eta||_C2^2
    u = _mix()
    eta = make_cutoff(0.25, 0.5, n=1)
    probes = np.linspace(-0.8, 0.8, 7)
    sig0, reports = check_first_order_fraclap(u, eta, E1, 1.0, probes,
                                              verify_multipliers=(1.0, 4.0))
    assert all(r.verdict for r in reports)
    assert sig0 <= 3.0 * eta.c2_norm ** 2


def test_affine_sigma_law_and_slope():
    u = _mix()
    eta = make_cutoff(0.25, 0.5, n=1)
    res, coll, slope_fit, slope_direct = sigma_affinity(
        u, eta, E1, 0.5, 0.3, (2.0, 4.0, 8.0))
    assert coll <= 1e-8
    assert slope_fit == pytest.approx(slope_direct, rel=1e-4)
    assert slope_direct <= 0.0


@pytest.mark.parametrize("op", [0.7, MeasureOnUnit([(0.3, 0.5), (0.7, 0.5)])],
                         ids=["order", "measure"])
def test_affine_sigma_law_and_slope_other_operator(op):
    # the slope oracle integrates against op, not against (-Delta)^s
    u = _mix()
    eta = make_cutoff(0.25, 0.5, n=1)
    res, coll, slope_fit, slope_direct = sigma_affinity(
        u, eta, E1, 0.5, 0.3, (2.0, 4.0, 8.0), op=op)
    assert coll <= 1e-8
    assert slope_fit == pytest.approx(slope_direct, rel=1e-4)


def test_first_order_fraclap_is_bisection_over_batch():
    u = _mix()
    eta = make_cutoff(0.25, 0.5, n=1)
    probes = np.linspace(-0.8, 0.8, 7)
    sig0, _ = check_first_order_fraclap(u, eta, E1, 0.5, probes,
                                        verify_multipliers=(1.0,))
    A, S, errA, errS = check_first_order_batch(u, eta, E1, 0.5, probes)
    assert sig0 == doubling_bisection(
        lambda sg: np.all(A + sg * S <= errA + sg * errS))


def test_first_order_fraclap_integrates_each_term_once(monkeypatch):
    # the search pieces give the linearised terms of the verification:
    # the four batched integrals of the search, then one per multiplier
    import fracbern.bernstein as bern
    calls, apply_batch = [], bern.apply_batch

    def counting(*args, **kw):
        calls.append(args[1])
        return apply_batch(*args, **kw)

    monkeypatch.setattr(bern, "apply_batch", counting)
    check_first_order_fraclap(_mix(), make_cutoff(0.25, 0.5, n=1), E1, 0.5,
                              np.linspace(-0.8, 0.8, 3),
                              verify_multipliers=(1.0, 2.0))
    assert len(calls) == 6


def test_first_order_batch_classical_endpoint():
    # s = 1: L(f^2) - 2 f L f = -2 |f'|^2 exactly, with no quadrature error
    u = _mix()
    eta = make_cutoff(0.25, 0.5, n=1)
    xs = np.linspace(-0.8, 0.8, 7).reshape(-1, 1)
    A, S, errA, errS = check_first_order_batch(u, eta, E1, 1.0, xs)
    assert S == pytest.approx(-2 * u.gradient(xs)[:, 0] ** 2, rel=1e-12,
                              abs=1e-14)
    du = directional_derivative(u, E1)
    aux1 = (eta * eta) * (du * du)
    want = -aux1.hessian(xs)[:, 0, 0] \
        + 2 * eta(xs) ** 2 * du(xs) * du.hessian(xs)[:, 0, 0]
    assert A == pytest.approx(want, rel=1e-12, abs=1e-14)
    assert not errA.any() and not errS.any()


def test_first_order_batch_measure_is_atom_sum():
    # the pieces are linear in L: a measure gives the weighted atom sum
    u = _mix()
    eta = make_cutoff(0.25, 0.5, n=1)
    xs = np.linspace(-0.8, 0.8, 7).reshape(-1, 1)
    mu = MeasureOnUnit([(0.0, 0.2), (0.5, 0.5), (1.0, 0.3)])
    got = check_first_order_batch(u, eta, E1, mu, xs)
    atoms = [(w, check_first_order_batch(u, eta, E1, s, xs)) for s, w in mu]
    for k in range(2):
        want = sum(w * p[k] for w, p in atoms)
        err = sum(w * p[k + 2] for w, p in atoms)
        assert np.all(np.abs(got[k] - want) <= got[k + 2] + err)
    sig0, reports = check_first_order_fraclap(u, eta, E1, mu, xs)
    assert all(r.verdict for r in reports)


# -- second-order inequality -----------------------------------------------------

def test_second_order_concave_head_reduces():
    # u concave-in-e everywhere inside the support: positive part vanishes
    # there and the search reduces to the first-order structure
    u = gaussian_bump(1, 0.0, 1.4)   # dd_e u <= 0 on |x| < 1.4
    (tau0, sigma0), rep = check_second_order_fraclap(
        u, 0.5, R=1.0, probes=np.linspace(-0.6, 0.6, 5).reshape(-1, 1))
    assert rep.verdict
    assert rep.params["repass_at_doubled"]


def test_second_order_cos():
    (tau0, sigma0), rep = check_second_order_fraclap(
        plane_wave(1.0), 0.5, R=1.0,
        probes=np.linspace(-1.2, 1.2, 7).reshape(-1, 1))
    assert rep.verdict and rep.params["repass_at_doubled"]
    assert np.isfinite(tau0) and np.isfinite(sigma0)


def test_second_order_identity_atom_trivial():
    # s = 0: the operator is the identity and the inequality is algebraic
    u = _mix()
    (tau0, sigma0), rep = check_second_order_fraclap(
        u, 0.0, R=1.0, probes=np.linspace(-1.0, 1.0, 9).reshape(-1, 1))
    assert rep.verdict
    assert tau0 <= 1.0 and sigma0 <= 1.0


def test_second_order_measure_version():
    mu = MeasureOnUnit([(0.0, 0.2), (0.5, 0.5), (1.0, 0.3)])
    (tau0, sigma0), rep = check_second_order_fraclap(
        _mix(), 0.5, R=1.0, measure=mu,
        probes=np.linspace(-1.0, 1.0, 7).reshape(-1, 1))
    assert rep.verdict


# -- positive part global --------------------------------------------------------

def test_positive_part_negative_derivative_reduces():
    # v with d_e v <= 0 at all probes: head term vanishes identically
    v = gaussian_bump(1, -3.0, 1.2)  # increasing toward -3; on [0,1] dv<0
    eta = make_cutoff(0.25, 0.5, n=1)
    probes = np.linspace(0.1, 0.9, 5)
    sigma0, rep = check_positive_part_global(v, eta, E1, 0.5, probes)
    assert rep.verdict


def test_positive_part_sin():
    v = plane_wave(1.0, phase=-np.pi / 2)  # sin x
    eta = make_cutoff(0.25, 0.5, n=1)
    probes = np.linspace(-0.9, 0.9, 7)
    sigma0, rep = check_positive_part_global(v, eta, E1, 0.5, probes)
    assert rep.verdict
    assert np.isfinite(sigma0)


def test_positive_part_zero_derivative_convention():
    # at a zero of d_e v the first right-hand term contributes nothing
    v = plane_wave(1.0)          # d_e v = -sin: zero at x = 0
    eta = make_cutoff(0.25, 0.5, n=1)
    sigma0, rep = check_positive_part_global(v, eta, E1, 0.5,
                                             np.array([0.0]))
    assert rep.verdict


# -- the inequality with remainder ----------------------------------------------

def test_taper_profile_properties():
    xi, xi1, xi2 = odd_taper(0.25)
    t = np.linspace(-1.2, 1.2, 2001)
    assert np.max(np.abs(xi(t))) <= 2 * 0.25 + 1e-12
    inner = np.abs(t) <= 0.25
    assert np.allclose(xi(t[inner]), t[inner])
    assert np.all(xi(t[t > 0.5 - 1e-9][-5:]) == 0.0)
    assert np.allclose(xi(-t), -xi(t))
    # scaled C2 norm <= C / delta
    for d in [0.5, 0.25, 0.125]:
        _, _, x2 = odd_taper(d)
        tt = np.linspace(-2 * d, 2 * d, 4001)
        assert np.max(np.abs(x2(tt))) <= 12.0 / d


def test_taper_moment_decreasing_sweep():
    K = fractional_kernel(1, 0.5)
    deltas = 0.5 ** np.arange(1, 7)
    vals = [taper_moment(K, d) for d in deltas]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    d, j3, sweep = select_delta(K, 0.1)
    assert abs(j3) <= 0.01


def test_conto_traccia_fractional():
    K = fractional_kernel(1, 0.5)
    u = _mix()
    eta = make_cutoff(0.5, 1.0, n=1)
    sel, rep = check_conto_traccia(K, u, eta, eps=0.1)
    assert rep.verdict
    assert abs(sel.J3) <= 0.01
    # the pure power empirically holds with the remainder dropped
    assert rep.params["eps0_hold_fraction"] == 1.0


def test_conto_traccia_custom_kernel_and_monotone_tradeoff():
    K = log_modulated(1, 0.5)
    u = _mix()
    eta = make_cutoff(0.5, 1.0, n=1)
    sel1, rep1 = check_conto_traccia(K, u, eta, eps=0.1)
    sel2, rep2 = check_conto_traccia(K, u, eta, eps=0.05)
    assert rep1.verdict and rep2.verdict
    assert sel2.sigma_eps >= sel1.sigma_eps - 1e-9
    assert sel2.delta <= sel1.delta


def test_j_terms_constant_function_vanish():
    K = fractional_kernel(1, 0.5)
    r = compute_J_terms(K, constant(1.3, 1), make_cutoff(0.5, 1.0, n=1), 0.25)
    assert abs(r["J1"]) < 1e-12 and abs(r["J2"]) < 1e-12


def test_j_terms_taper_corrected_cutoff_flat_at_origin():
    K = fractional_kernel(1, 0.4)
    r = compute_J_terms(K, _mix(), make_cutoff(0.5, 1.0, n=1), 0.25)
    assert abs(r["phi0"]) < 1e-13
    assert abs(r["dphi0"]) < 1e-10


def test_j_terms_two_route_consistency():
    K = fractional_kernel(1, 0.5)
    r = compute_J_terms(K, _mix(), make_cutoff(0.5, 1.0, n=1), 0.25)
    scale = abs(r["J1"]) + abs(r["J2"]) + 1e-9
    assert r["route_gap"] <= 1e-4 * max(scale, 1.0)
    assert r["bound_holds"]


def test_j_terms_skip_the_cross_term(monkeypatch):
    # R1 and R2 are the two squared differences; the cross term, which
    # compute_J_terms does not report, is not integrated
    import fracbern.bernstein as bern
    calls, apply_batch = [], bern.apply_batch

    def counting(*args, **kw):
        calls.append(args[1])
        return apply_batch(*args, **kw)

    monkeypatch.setattr(bern, "apply_batch", counting)
    u, eta = _mix(), make_cutoff(0.5, 1.0, n=1)
    assert abs(directional_derivative(u, E1)(np.zeros((1, 1)))[0]) > 0.1
    r = compute_J_terms(fractional_kernel(1, 0.5), u, eta, 0.25)
    assert len(calls) == 2 and r["R1"] > 0 and r["R2"] > 0


# -- radial identity --------------------------------------------------------------

def test_radial_identity_closed_form_point():
    # 1d, s = 1/2, z = 1: both derivative terms cancel exactly
    K = fractional_kernel(1, 0.5)
    z = np.array([[1.0]])
    resid = 2 * 1.5 * K.grad(z) + z * np.trace(K.hess(z), axis1=1, axis2=2)
    assert abs(resid[0, 0]) < 1e-14


def test_radial_identity_fractional_probes():
    assert check_kernel_radial_identity(0.5, fd=False) < 1e-10
    assert check_kernel_radial_identity(0.25, n=2, fd=False) < 1e-10
    # finite-difference route agrees to its roundoff floor
    assert check_kernel_radial_identity(0.5, fd=True) < 1e-6


def test_radial_identity_anisotropic_fails():
    K = anisotropic_kernel(0.5, np.array([[1.6, 0.2], [0.2, 0.8]]))
    resid = check_kernel_radial_identity(0.5, n=2, kernel=K, fd=False)
    assert resid > 0.1  # genuinely nonzero; recorded, not asserted away


# -- grid-born harmonic-type checks ----------------------------------------------

@pytest.fixture(scope="module")
def sharmonic_solution():
    s = 0.5
    lat = Lattice(1, 2.0, 257, 1.0)
    ext = gaussian_bump(1, 1.6, 0.3, 1.0) + gaussian_bump(1, -1.6, 0.3, -1.0)
    gf, info = solve_linear_dirichlet(0.5, constant(0.0, 1), ext, lat)
    return gf.promote(), s


def test_downstairs_sharmonic_pass(sharmonic_solution):
    u_sh, s = sharmonic_solution
    rep = check_downstairs_sharmonic(u_sh, s)
    assert rep["pass"]
    assert np.isfinite(rep["sigma0"])
    assert rep["margin"] >= 0.0


def test_downstairs_constant_trivial():
    lat = Lattice(1, 2.0, 129, 1.0)
    gf, _ = solve_linear_dirichlet(0.5, constant(0.0, 1), constant(1.0, 1), lat)
    rep = check_downstairs_sharmonic(gf.promote(), 0.5)
    assert rep["pass"]
    assert abs(rep["lhs"]) < 1e-8


def test_downstairs_hypothesis_gate(sharmonic_solution):
    u_sh, s = sharmonic_solution
    # outside the solve ball the operator does not vanish: the check must
    # refuse rather than assert the inequality there
    with pytest.raises(SearchFailure):
        check_downstairs_sharmonic(u_sh, s, x=np.array([1.5]), hyp_tol=1e-3)


# -- incremental classical checks -------------------------------------------------

def _ball_probes(rng, count, radius):
    pts = rng.uniform(-radius, radius, size=(4 * count, 2))
    pts = pts[np.linalg.norm(pts, axis=1) < radius]
    return pts[:count]


def test_incremental_linear_trivial():
    # constant quotient and plateau probes: nonnegative for any sigma
    u = harmonic_polynomial(2, "x1")
    eta = make_cutoff(0.5, 0.95, n=2)
    probes = _ball_probes(np.random.default_rng(3), 50, 0.45)
    sigma, rep = check_incremental_classical(u, eta, 0.3, np.array([1.0, 0.0]),
                                             probes, sigma=0.5)
    assert rep.verdict


def test_incremental_cubic_harmonic():
    # cutoff transition zone inside the probe ball: the weight genuinely
    # fights the cutoff curvature here
    u = harmonic_polynomial(2, "re_z3")
    eta = make_cutoff(0.25, 0.45, n=2)
    rng = np.random.default_rng(4)
    probes = _ball_probes(rng, 200, 0.49)
    e = np.array([1.0, 0.0])
    hs = [0.4, 0.2, 0.1, 0.05]
    # one-time search: the uniform weight is the worst one over the sweep
    sigma_star = max(check_incremental_classical(u, eta, h, e, probes)[0]
                     for h in hs)
    assert sigma_star <= 10.0 * eta.c2_norm ** 2  # h-free structural bound
    for h in hs:
        _, rep_h = check_incremental_classical(u, eta, h, e, probes,
                                               sigma=sigma_star)
        assert rep_h.verdict, h


def test_incremental_search_takes_each_hessian_once(monkeypatch):
    # the composite's Hessian is affine in sigma, so the doubling search
    # reads the Hessians of its two parts once, not once per step
    calls = []
    hessian = SmoothFunction.hessian

    def counted(self, x):
        calls.append(1)
        return hessian(self, x)

    monkeypatch.setattr(SmoothFunction, "hessian", counted)
    u = harmonic_polynomial(2, "re_z3")
    eta = make_cutoff(0.25, 0.45, n=2)
    probes = _ball_probes(np.random.default_rng(4), 200, 0.49)
    sigma, rep = check_incremental_classical(u, eta, 0.2, np.array([1.0, 0.0]),
                                             probes)
    assert sigma > 0 and rep.verdict
    assert len(calls) <= 2


def test_incremental_positive_part_variant():
    v = harmonic_polynomial(2, "im_z2")
    u = harmonic_polynomial(2, "re_z2")
    eta = make_cutoff(0.25, 0.45, n=2)
    probes = _ball_probes(np.random.default_rng(5), 100, 0.49)
    sigma, rep = check_incremental_classical(u, eta, 0.2, np.array([1.0, 0.0]),
                                             probes, positive_part_of=v)
    assert rep.verdict
