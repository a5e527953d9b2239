"""Grid solvers, barriers, linearization, maximum principles."""

import numpy as np
import pytest

from fracbern.kernels import (fractional_kernel, anisotropic_kernel,
                              MeasureOnUnit, bellman_max, log_sum_exp,
                              linear_nonlinearity)
from fracbern.funcspace import gaussian_bump, constant, modulated_gaussian
from fracbern.nonlocal_ops import (Lattice, DiscreteOperatorDense,
                                  apply_fractional)
from fracbern.solvers import (barrier, barrier_check, solve_linear_dirichlet,
                              BellmanProblem, solve_bellman, value_iteration,
                              solve_fully_nonlinear, ObstacleProblem,
                              solve_obstacle, linearize,
                              max_principle_estimate,
                              unified_derivative_bound, grid_gradient,
                              grid_second_difference)

K05 = fractional_kernel(1, 0.5)


def lat(N=129, L=2.0, R=1.0, n=1):
    return Lattice(n, L, N, R)


def mixed_bellman(lattice):
    """Two-member family with a genuinely mixed optimal policy."""
    K2 = fractional_kernel(1, 0.7)
    g2 = gaussian_bump(1, -0.3, 0.4, -0.35)  # negative source favors member 2
    f = gaussian_bump(1, 0.2, 0.5, 0.4)
    ext = gaussian_bump(1, 0.0, 1.5, 0.3)
    return BellmanProblem([(K05, constant(0.0, 1)), (K2, g2)], f, ext, 1.0)


# -- barrier ----------------------------------------------------------------------

def test_barrier_second_difference_core():
    # the quadratic core has exact second difference 2|z|^2
    b = barrier(1.0, 1)
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=(40, 1))
    z = rng.uniform(-9, 9, size=(40, 1))
    lhs = (b(x + z) + b(x - z) - 2 * b(x))
    assert np.allclose(lhs, 2 * np.sum(z * z, axis=1), rtol=1e-12)


def test_barrier_bounds_and_values():
    b = barrier(2.0, 2)
    assert b(np.zeros((1, 2)))[0] == pytest.approx(-2.0)
    far = b(np.array([[50.0, 0.0]]))[0]
    assert far == pytest.approx(98.0)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-40, 40, size=(500, 2))
    assert np.max(np.abs(b(pts))) <= 100.0


def test_barrier_identity_atom():
    mu0 = MeasureOnUnit.dirac(0.0)
    rep = barrier_check(mu0, R=1.0, sweep=(1.0,))
    # L beta = beta <= -1 in the unit ball
    assert rep["margin"] >= 1.0


@pytest.mark.parametrize("op", [K05, 0.5], ids=["kernel", "order"])
def test_barrier_fractional_margin_scaling(op):
    rep = barrier_check(op, R=1.0)
    assert rep["margin"] > 0
    # pure power kernels are exactly scale invariant
    vals = np.asarray(rep["normalized_sweep"])
    assert np.max(vals) / np.min(vals) < 1.0001
    assert rep["scaling_stable"]


def test_barrier_measure_scaling():
    # middle-order atoms make the (1 + R^2) normalization tight
    mu = MeasureOnUnit([(0.6, 0.4), (0.65, 0.6)])
    rep = barrier_check(mu, R=1.0)
    assert rep["margin"] > 0
    assert rep["scaling_stable"], rep["normalized_sweep"]
    vals = np.asarray(rep["normalized_sweep"])
    assert vals.max() / vals.min() < 1.6


# -- linear solves -----------------------------------------------------------------

def test_linear_constant_data():
    gf, info = solve_linear_dirichlet(K05, constant(0.0, 1),
                                      constant(2.5, 1), lat())
    assert np.max(np.abs(gf.values - 2.5)) < 1e-11


def test_linear_discrete_max_principle_sandwich():
    ext = modulated_gaussian(0.0, 1.2, 2.0) * 0.5 + 0.7  # values in [m, M]
    m, M = 0.2, 1.2
    gf, _ = solve_linear_dirichlet(K05, constant(0.0, 1), ext, lat())
    assert np.all(gf.values >= m - 1e-9)
    assert np.all(gf.values <= M + 1e-9)


def test_linear_self_convergence():
    # interior self-convergence: the boundary layer of the solution
    # (distance^s growth) limits the sup-norm rate to 2^s, so the
    # refinement study reads differences away from the domain edge
    f = gaussian_bump(1, 0.0, 0.5, 0.5)
    ext = constant(0.0, 1)
    sols = {}
    for N in [65, 129, 257]:
        gf, _ = solve_linear_dirichlet(K05, f, ext, lat(N))
        inner = np.abs(gf.axis) <= 0.5
        sols[N] = gf.values[inner]
    d1 = np.max(np.abs(sols[65] - sols[129][::2]))
    d2 = np.max(np.abs(sols[129] - sols[257][::2]))
    assert d1 / max(d2, 1e-15) >= 1.5


def test_discrete_comparison_pairs():
    # with the positive-definite operator sign the solution increases
    # with the source and with the exterior data
    rng = np.random.default_rng(5)
    for trial in range(4):
        w = rng.uniform(0.3, 1.0)
        ext1 = gaussian_bump(1, rng.uniform(-0.5, 0.5), w, 0.3)
        ext2 = ext1 + 0.2  # ext2 >= ext1
        f1 = gaussian_bump(1, rng.uniform(-0.5, 0.5), 0.6, 0.2)
        f2 = f1 + 0.15     # f2 >= f1
        g1, _ = solve_linear_dirichlet(K05, f1, ext1, lat())
        g2, _ = solve_linear_dirichlet(K05, f2, ext2, lat())
        assert np.all(g1.values <= g2.values + 1e-10)


# -- Bellman -----------------------------------------------------------------------

def test_single_member_equals_linear():
    f = gaussian_bump(1, 0.0, 0.5, 0.4)
    ext = gaussian_bump(1, 0.0, 1.5, 0.3)
    prob = BellmanProblem([(K05, constant(0.0, 1))], f, ext, 1.0)
    gf, policy, info = solve_bellman(prob, lat())
    lin, _ = solve_linear_dirichlet(K05, f, ext, lat())
    assert np.max(np.abs(gf.values - lin.values)) <= 1e-10


def test_single_measure_member_equals_linear():
    # a MeasureOnUnit as the first member is a sum of stencil operators
    mu = MeasureOnUnit([(0.3, 0.5), (0.7, 0.5)])
    f = gaussian_bump(1, 0.0, 0.5, 0.4)
    ext = gaussian_bump(1, 0.0, 1.5, 0.3)
    prob = BellmanProblem([(mu, constant(0.0, 1))], f, ext, 1.0)
    gf, policy, info = solve_bellman(prob, lat())
    lin, _ = solve_linear_dirichlet(mu, f, ext, lat())
    assert np.max(np.abs(gf.values - lin.values)) <= 1e-10
    u_vi, _ = value_iteration(prob, lat())
    assert np.max(np.abs(u_vi - lin.values[lat().interior])) <= 1e-8
    prob.nonlinearity = linear_nonlinearity([1.0])
    gf2, _ = solve_fully_nonlinear(prob, lat())
    assert np.max(np.abs(gf2.values - lin.values)) <= 1e-8


@pytest.mark.parametrize("first", [0.0, 1.0,
                                   MeasureOnUnit([(0.3, 0.5), (0.7, 0.5)])],
                         ids=["order0", "order1", "measure"])
def test_bellman_first_member_any_kind(first):
    # the first member seeds policy iteration; orders 0 and 1 and
    # measures are members like any kernel
    lattice = lat(N=33)
    g2 = gaussian_bump(1, -0.3, 0.4, -0.35)
    prob = BellmanProblem([(first, constant(0.0, 1)), (K05, g2)],
                          gaussian_bump(1, 0.2, 0.5, 0.4),
                          gaussian_bump(1, 0.0, 1.5, 0.3), 1.0)
    gf, policy, info = solve_bellman(prob, lattice)
    assert info["residual"] <= 1e-9
    u_vi, _ = value_iteration(prob, lattice, tol=1e-11)
    assert np.max(np.abs(gf.values[lattice.interior] - u_vi)) <= 1e-7
    prob.nonlinearity = log_sum_exp(2, 4.0)
    _, info_nl = solve_fully_nonlinear(prob, lattice)
    assert info_nl["residual"] <= 1e-8


def test_policy_iteration_matches_value_iteration():
    prob = mixed_bellman(lat())
    lattice = lat()
    gf, policy, info = solve_bellman(prob, lattice)
    assert policy.max() == 1 and policy.min() == 0  # genuinely mixed
    u_vi, iters = value_iteration(prob, lattice, tol=1e-11)
    assert iters > 0
    assert np.max(np.abs(gf.values[lattice.interior] - u_vi)) <= 1e-7


def test_bellman_residual_nonpositive_per_member():
    lattice = lat()
    prob = mixed_bellman(lattice)
    gf, policy, info = solve_bellman(prob, lattice)
    u_int = gf.values[lattice.interior]
    nodes = lattice.nodes[lattice.interior]
    f_int = prob.f(nodes)
    for m, (op, g) in enumerate(prob.members):
        vals = info["discs"][m].apply(u_int) - g(nodes) - f_int
        assert np.max(vals) <= 1e-8


def test_policy_optimality_at_convergence():
    lattice = lat()
    prob = mixed_bellman(lattice)
    gf, policy, info = solve_bellman(prob, lattice)
    u_int = gf.values[lattice.interior]
    nodes = lattice.nodes[lattice.interior]
    stacked = np.stack([info["discs"][m].apply(u_int) - g(nodes)
                        for m, (op, g) in enumerate(prob.members)])
    chosen = stacked[policy, np.arange(lattice.n_int)]
    assert np.max(stacked.max(axis=0) - chosen) <= 1e-10


# -- fully nonlinear ---------------------------------------------------------------

def test_linear_nonlinearity_reduces():
    f = gaussian_bump(1, 0.0, 0.5, 0.4)
    ext = constant(0.0, 1)
    F = linear_nonlinearity([1.0])
    prob = BellmanProblem([(K05, constant(0.0, 1))], f, ext, 1.0,
                          nonlinearity=F)
    gf, info = solve_fully_nonlinear(prob, lat())
    lin, _ = solve_linear_dirichlet(K05, f, ext, lat())
    assert np.max(np.abs(gf.values - lin.values)) <= 1e-8


def test_max_nonlinearity_delegates():
    lattice = lat()
    prob = mixed_bellman(lattice)
    prob.nonlinearity = bellman_max(2)
    gf, info = solve_fully_nonlinear(prob, lattice)
    gf2, policy, _ = solve_bellman(mixed_bellman(lattice), lattice)
    assert np.max(np.abs(gf.values - gf2.values)) <= 1e-10


def test_log_sum_exp_solution_and_rescaling():
    # residual drops below tolerance, and the solved profile transports
    # across the radius-R <-> radius-1 rescaling of the problem
    s = 0.5
    K = fractional_kernel(1, s)
    F = log_sum_exp(2, sharpness=2.0)
    f = gaussian_bump(1, 0.1, 0.5, 0.3)
    g2 = gaussian_bump(1, -0.2, 0.5, 0.2)
    ext = constant(0.0, 1)
    R = 2.0
    latR = Lattice(1, 2 * R, 129, R)
    probR = BellmanProblem([(K, constant(0.0, 1)), (K, g2)], f, ext, R,
                           nonlinearity=F)
    gfR, infoR = solve_fully_nonlinear(probR, latR)
    assert infoR["residual"] <= 1e-7

    # transported problem on the unit ball: x -> R x
    from fracbern.kernels import ConvexNonlinearity
    fac = R ** (2 * s)
    FR = ConvexNonlinearity(2, lambda p: fac * F(np.asarray(p) / fac),
                            lambda p: F.subgradient(np.asarray(p) / fac),
                            F.theta0, "smooth-convex")
    from fracbern.funcspace import affine_precompose
    A = np.array([[R]])
    f1 = affine_precompose(f, A) * fac
    g21 = affine_precompose(g2, A) * fac
    ext1 = affine_precompose(ext, A)
    lat1 = Lattice(1, 2.0, 129, 1.0)
    prob1 = BellmanProblem([(K, constant(0.0, 1)), (K, g21)], f1, ext1, 1.0,
                           nonlinearity=FR)
    gf1, info1 = solve_fully_nonlinear(prob1, lat1)
    # nodes align: u_R(x_i) = u(R x_i)
    assert np.max(np.abs(gf1.values - gfR.values)) <= 1e-6


# -- obstacle ----------------------------------------------------------------------

def binding_obstacle(R_dom=1.0):
    # ceiling low enough to bind near the center
    return ObstacleProblem(0.5, constant(0.3, 1),
                           gaussian_bump(1, 0.0, 0.4, -0.25),
                           constant(0.0, 1), R_dom)


def test_obstacle_inactive_reduces_to_linear():
    prob = ObstacleProblem(0.5, constant(0.2, 1), constant(1e6, 1),
                           constant(0.0, 1), 1.0)
    gf, contact, info = solve_obstacle(prob, lat())
    assert contact.sum() == 0
    lin, _ = solve_linear_dirichlet(0.5, prob.f, prob.exterior, lat())
    assert np.max(np.abs(gf.values - lin.values)) <= 1e-8


def test_obstacle_binds_with_complementarity():
    lattice = lat(257)
    prob = binding_obstacle()
    gf, contact, info = solve_obstacle(prob, lattice)
    assert contact.sum() > 0
    assert info["complementarity"] <= 1e-8
    # on the contact set u = g + f; off it the operator branch is active
    u_int = gf.values[lattice.interior]
    nodes = lattice.nodes[lattice.interior]
    gap = u_int - prob.g(nodes) - prob.f(nodes)
    assert np.max(np.abs(gap[contact])) <= 1e-9
    op_res = info["discs"][0].apply(u_int) - prob.f(nodes)
    assert np.max(np.abs(op_res[~contact])) <= 1e-8


def test_obstacle_negative_part_bound():
    # ||(f+g)_-|| <= ||u|| on the unit ball for solved instances
    lattice = lat(257)
    for prob in [binding_obstacle(),
                 ObstacleProblem(0.5, gaussian_bump(1, 0.0, 0.6, 0.3),
                                 gaussian_bump(1, 0.2, 0.5, -0.2),
                                 constant(0.0, 1), 1.0)]:
        gf, contact, info = solve_obstacle(prob, lattice)
        nodes = lattice.nodes[lattice.interior]
        neg = np.max(np.maximum(-(prob.f(nodes) + prob.g(nodes)), 0.0))
        assert neg <= np.max(np.abs(gf.values[lattice.interior])) + 1e-9


# -- linearized operator ----------------------------------------------------------

def test_linearize_single_linear_member():
    lattice = lat()
    f = gaussian_bump(1, 0.0, 0.5, 0.4)
    g1 = gaussian_bump(1, 0.3, 0.7, 0.2)
    ext = constant(0.0, 1)
    prob = BellmanProblem([(K05, g1)], f, ext, 1.0)
    gf, policy, info = solve_bellman(prob, lattice)
    L, rep = linearize(prob, gf, info)
    # J = 1: L u = f + g exactly (g-composite reduces to g1)
    u_int = gf.values[lattice.interior]
    nodes = lattice.nodes[lattice.interior]
    lhs = L.apply_interior(u_int)
    assert np.max(np.abs(lhs - prob.f(nodes) - g1(nodes))) <= 1e-9
    assert rep["subsolution_ok"]


def test_linearize_two_member_subsolution():
    lattice = lat(257)
    prob = mixed_bellman(lattice)
    gf, policy, info = solve_bellman(prob, lattice)
    L, rep = linearize(prob, gf, info)
    assert rep["subsolution_ok"]
    assert rep["grad_bound_ok"]
    assert rep["second_bound_ok"]


def test_linearize_grad_bound_tightens_with_h():
    worst = []
    for N in [129, 257]:
        lattice = lat(N)
        prob = mixed_bellman(lattice)
        gf, policy, info = solve_bellman(prob, lattice)
        L, rep = linearize(prob, gf, info)
        worst.append(max(rep["grad_bound_worst"], 0.0))
    assert worst[1] <= worst[0] + 1e-6


# -- maximum principle with estimate ----------------------------------------------

def test_max_principle_exact_subsolutions():
    rng = np.random.default_rng(7)
    ops = [K05, fractional_kernel(1, 0.7)]
    for _ in range(4):
        a, b = rng.uniform(0.5, 3.0, 2)
        phi = barrier(1.0, 1) * b + (a + 2 * b)  # nonnegative, L phi <= 0
        rep = max_principle_estimate(ops, phi, 1.0)
        assert rep["pass"]
        assert rep["gamma0"] == 0.0


def test_max_principle_barrier_shifted_construction():
    # the proof's mechanism: with C sized from the barrier margin
    # (C * margin / 100 >= 1), adding the scaled barrier makes the
    # combination attain its supremum outside the ball
    phi = gaussian_bump(1, 0.0, 0.4)
    rep = max_principle_estimate([K05], phi, 1.0)
    assert rep["gamma0"] > 0
    margin = barrier_check(K05, R=1.0, sweep=(1.0,))["margin"]
    C_R = 105.0 / margin
    bshift = barrier(1.0, 1)
    phi_star = phi + bshift * (C_R * rep["gamma0"] / 100.0)
    rng = np.random.default_rng(8)
    inner = rng.uniform(-1, 1, size=(4000, 1))
    outer = rng.uniform(-12, 12, size=(8000, 1))
    outer = outer[np.abs(outer[:, 0]) >= 1.0]
    assert np.max(phi_star(outer)) >= np.max(phi_star(inner)) - 1e-6


def test_max_principle_kernel_scaling():
    s = 0.6
    K = fractional_kernel(1, s)
    fitted = []
    for R in [0.5, 1.0, 2.0, 4.0]:
        phi = gaussian_bump(1, 0.0, R / 3.0)
        rep = max_principle_estimate([K], phi, R)
        fitted.append(rep["fitted_C"] / R ** (2 * s))
    fitted = np.asarray(fitted)
    center = 0.5 * (fitted.max() + fitted.min())
    assert fitted.max() <= 1.5 * center and fitted.min() >= 0.5 * center


def test_max_principle_measure_scaling():
    mu = MeasureOnUnit([(0.6, 0.4), (0.65, 0.6)])
    fitted = []
    for R in [0.5, 1.0, 2.0, 4.0]:
        phi = gaussian_bump(1, 0.0, R / 3.0)
        rep = max_principle_estimate([mu], phi, R)
        fitted.append(rep["fitted_C"] / (1 + R ** 2))
    fitted = np.asarray(fitted)
    center = 0.5 * (fitted.max() + fitted.min())
    assert fitted.max() <= 1.5 * center and fitted.min() >= 0.5 * center


# -- unified derivative bound ------------------------------------------------------

def test_unified_bound_constant_solution():
    lattice = lat()
    ext = constant(1.0, 1)
    prob = BellmanProblem([(K05, constant(0.0, 1))], constant(0.0, 1),
                          ext, 1.0)
    gf, policy, info = solve_bellman(prob, lattice)
    out = unified_derivative_bound(prob, gf, info, 1.0)
    assert out["a0"] <= 1e-8 and out["a1"] <= 1e-7 and out["a2"] <= 1e-6
    assert out["measured_grad_half"] <= 1e-8


def test_unified_bound_bellman_instance(monkeypatch):
    lattice = lat(257)
    prob = mixed_bellman(lattice)
    gf, policy, info = solve_bellman(prob, lattice)
    # per member: three far-field applies in the linearization (d+ u,
    # d- u, dd u), then two more (u - sup u, d u); dd u is not redone
    calls = []
    apply_to_grid = DiscreteOperatorDense.apply_to_grid
    monkeypatch.setattr(DiscreteOperatorDense, "apply_to_grid",
                        lambda d, *a: calls.append(d) or apply_to_grid(d, *a))
    out = unified_derivative_bound(prob, gf, info, 1.0)
    assert len(calls) == 5 * len(prob.members)
    assert np.isfinite(out["fitted_C_first"])
    assert out["fitted_C_first"] > 0
    assert np.isfinite(out["fitted_C_sharp"])
    assert out["linearize_report"]["subsolution_ok"]


def test_unified_bound_obstacle_takes_operator_order():
    # the constraint member of order 0 does not set the family's order,
    # so the order-0.5 obstacle gets C_R = R^{2 s} = R
    prob = binding_obstacle()
    gf, contact, info = solve_obstacle(prob, lat(65))
    out = unified_derivative_bound(prob.as_bellman(), gf, info, 0.8)
    assert out["form"] == "R^2s"
    assert out["C_R"] == pytest.approx(0.8, rel=1e-15)


def test_unified_bound_without_definite_order():
    # a measure has no definite order, nor has a family of two positive
    # orders: the form is 1 + R^2
    lattice = lat(65)
    f, ext = gaussian_bump(1, 0.0, 0.5, 0.3), constant(0.0, 1)
    for members in ([(MeasureOnUnit([(0.3, 0.5), (0.7, 0.5)]),
                      constant(0.0, 1))],
                    [(K05, constant(0.0, 1)),
                     (fractional_kernel(1, 0.7), constant(0.0, 1))]):
        prob = BellmanProblem(members, f, ext, 1.0)
        gf, policy, info = solve_bellman(prob, lattice)
        out = unified_derivative_bound(prob, gf, info, 0.8)
        assert out["form"] == "1+R^2"
        assert out["C_R"] == pytest.approx(1.64, rel=1e-15)


def test_grid_differences_match_spline_reference():
    # the neighbour-shift differences agree with the spline route: the
    # promoted function at the shifted nodes, the closure past the box
    from fracbern.funcspace import GridFunction
    from fracbern.solvers import _quotient_full
    rng = np.random.default_rng(0)
    for n, N in ((1, 65), (2, 25)):
        ext = gaussian_bump(n, np.full(n, 0.4), 0.8)
        gf = GridFunction(n, 2.0, rng.uniform(-1.0, 1.0, (N,) * n), ext)
        prom, h, nodes = gf.promote(), gf.h, gf.nodes()
        v = gf.values.ravel()
        for e in np.eye(n):
            up, down = prom(nodes + h * e), prom(nodes - h * e)
            pairs = [(grid_gradient(gf, e), (up - down) / (2 * h)),
                     (grid_second_difference(gf, e),
                      (up + down - 2 * v) / h ** 2),
                     (_quotient_full(gf, e, 1), (up - v) / h),
                     (_quotient_full(gf, e, -1), (down - v) / -h)]
            for got, ref in pairs:
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    with pytest.raises(ValueError):
        grid_gradient(gf, np.array([0.6, 0.8]))
