"""Grid solvers for the nonlocal Dirichlet, Bellman, fully nonlinear
convex, and obstacle problems and their data constants, plus barriers,
the linearized operator, and the maximum principle with estimate.

Every member, whatever its kind, is one stencil from
nonlocal_ops.assemble_discrete (monotone by construction).  Every
Bellman-type equation is solved by one frozen-coefficient (semismooth)
Newton loop, F(L_1 u - g_1, ...) = f: the subgradient of F freezes a
linear operator, which is solved for the step.  Policy iteration is its
max case (the first-argmax subgradient picks one member per node), and
the obstacle problem is that max over two members.  A damped value
iteration stays as an independent fixed-point oracle.

The fitted estimates share one scaling law (_radius_power) and one
record of a solution's measured sups (_measured_sups); harness builds on
this module, never the other way round.
"""

import numpy as np

from ._quad import sq_norms
from .kernels import MeasureOnUnit, bellman_max, operator_order, \
    positive_orders
from .funcspace import Tail, GridFunction, _Node, _poly_jet, constant, \
    make_cutoff, translate
from .nonlocal_ops import assemble_discrete, apply_batch, default_plan

__all__ = [
    "barrier", "barrier_check", "BellmanProblem", "ObstacleProblem",
    "ProblemConstants", "problem_constants",
    "solve_linear_dirichlet", "solve_bellman", "value_iteration",
    "solve_fully_nonlinear", "solve_obstacle", "linearize",
    "LinearizedOperator", "max_principle_estimate",
    "unified_derivative_bound", "grid_gradient",
    "grid_second_difference",
]


# -- the explicit barrier -------------------------------------------------------

def barrier(R=1.0, n=1):
    """Quadratic-core barrier: |x/R|^2 - 2 inside B_{10R}, 98 outside.

    Continuous, bounded by 100, equal to -2 at the origin; the operators
    of the toolkit see it as a strict supersolution on B_R.
    """
    R = float(R)
    C = np.zeros((4,) * n + (1,))  # |x/R|^2 - 2
    C[(0,) * n], C[tuple(2 * np.eye(n, dtype=int))] = -2.0, R ** -2

    def jet(x, k, call):
        # outside B_{10R} the value 98 and zero derivatives; the kink at
        # |x| = 10R is why the jets are not marked exact
        J = _poly_jet(x, C, k)
        out = sq_norms(x / R) >= 100.0
        J[0][out] = 98.0
        for D in J[1:]:
            D[out] = 0.0
        return J

    return _Node(n, jet, exact=False, sup=100.0, grad_sup=20.0 / R,
                 hess_sup=2.0 / R ** 2,
                 tail=Tail(98.0, lambda r: np.where(r < 10 * R, 100.0, 0.0)))


def barrier_check(op, R=1.0, sweep=(0.5, 1.0, 2.0, 4.0)):
    """Margin c with L beta_R <= -c on B_R, plus the R-scaling study, on
    the line at 9 probes spanning 0.9 B_R.

    op: Kernel or order s (margin should scale like R^{-2s}) or MeasureOnUnit
    (margin should scale like (1 + R^2)^{-1}).  The normalized margins
    over the dyadic sweep must agree within +-50%.
    """
    plan = default_plan(1).scaled(rel_tol=1e-5)

    def margin_at(Rv):
        pr = np.linspace(-0.9 * Rv, 0.9 * Rv, 9).reshape(-1, 1)
        return -float(np.max(apply_batch(op, barrier(Rv), pr, plan)[0]))

    c1 = margin_at(R)
    if c1 <= 0:
        raise ArithmeticError("barrier margin nonpositive: kernel-class "
                              "violation indicator")
    s = operator_order(op)
    normalized = np.array([
        margin_at(Rv) * (Rv ** (2 * s) if s is not None else 1 + Rv ** 2)
        for Rv in sweep])
    # "within +-50%": every value inside [0.5, 1.5] times the center of
    # the sweep range
    center = 0.5 * (normalized.max() + normalized.min())
    stable = bool(normalized.max() <= 1.5 * center
                  and normalized.min() >= 0.5 * center)
    return {"margin": c1, "normalized_sweep": normalized.tolist(),
            "sweep_radii": list(sweep), "scaling_stable": stable}


# -- problems -------------------------------------------------------------------

class BellmanProblem:
    """sup over a finite operator family of (L_m u - g_m) = f on B_R.

    members: list of (op, g) with op a Kernel or MeasureOnUnit and g a
    SmoothFunction source; f: SmoothFunction; exterior: SmoothFunction
    Dirichlet closure; nonlinearity: optional ConvexNonlinearity acting
    on the member values (sup when omitted).
    """

    def __init__(self, members, f, exterior, R_dom, nonlinearity=None):
        if not members:
            raise ValueError("operator family must be nonempty")
        self.members = list(members)
        self.f = f
        self.exterior = exterior
        self.R_dom = float(R_dom)
        self.nonlinearity = nonlinearity

    @property
    def J(self):
        return len(self.members)

    @property
    def F(self):
        """The nonlinearity, the max of the member values when none is
        given."""
        return self.nonlinearity or bellman_max(self.J)

    def source(self, pts):
        """The composed zero-order source -F(-g_1, ..., -g_J) at pts."""
        return -self.F(np.stack([-g(pts) for _, g in self.members], axis=1))


class ObstacleProblem:
    """max{ (-Delta)^s u, u - g } = f on B_1-scale domains."""

    def __init__(self, s, f, g, exterior, R_dom=1.0):
        self.s = float(s)
        self.f = f
        self.g = g
        self.exterior = exterior
        self.R_dom = float(R_dom)

    def as_bellman(self):
        zero = constant(0.0, self.f.n)
        return BellmanProblem(
            [(self.s, zero), (0.0, self.g)],
            self.f, self.exterior, self.R_dom)


# -- data constants -------------------------------------------------------------

class ProblemConstants:
    """Data-side constants of an instance: sups over one seeded
    16,000-point draw of the ball (problem_constants)."""

    def __init__(self, **kw):
        self.__dict__.update(kw)
        for k, v in kw.items():
            if isinstance(v, float) and not np.isfinite(v):
                raise ValueError("constant %s is not finite" % k)


def _ball_samples(R, n, m, rng):
    """The first m of 3 m uniform draws of [-R, R]^n that fall in B_R."""
    pts = rng.uniform(-R, R, size=(3 * m, n))
    pts = pts[np.sqrt(sq_norms(pts)) < R]
    return pts[:m]


def problem_constants(problem, R=None):
    """Sup-type constants of the data f, g_j over the domain ball.

    Computes the negative-part / gradient / directional constants of the
    combined data (e the first axis), the gamma pair driving the
    linearized-operator bounds and the identity-atom flag of the
    measures involved.  The order-2 jets of f and the g_j are taken at
    500 and then 16,000 points of B_R drawn from seed 1.  Data whose
    sampled second derivatives diverge (the 16,000-point sup of the
    positive part of dd_e (f + g_j) above twice the 500-point one) fail
    the semiconcavity certificate with ValueError; every constant is
    the max of its integrand over the 16,000 points.
    """
    n = problem.f.n
    if R is None:
        R = problem.R_dom
    e = np.zeros(n); e[0] = 1.0
    fs = [problem.f] + [g for _, g in problem.members]
    rng = np.random.default_rng(1)
    small, big = [[f.jet(p, 2) for f in fs]
                  for p in [_ball_samples(R, n, m, rng) for m in (500, 16000)]]

    def over_g(fn):  # sup over a draw of the max over the members
        return lambda J: float(np.max([fn(J[0], G) for G in J[1:]]))

    fg_dee_pos = over_g(lambda Jf, G: np.maximum(np.einsum(
        "i,mij,j->m", e, Jf[2] + G[2], e), 0.0))
    a, Ge2 = fg_dee_pos(small), fg_dee_pos(big)
    if Ge2 > 2.0 * max(a, 1e-9) + 1e-6:
        raise ValueError("data fail the semiconcavity certificate: "
                         "second-derivative sampling diverges")
    G0 = over_g(lambda Jf, G: np.maximum(-(Jf[0] + G[0]), 0.0))(big)
    G1 = over_g(lambda Jf, G: np.sqrt(sq_norms(Jf[1] + G[1])))(big)
    Ge1 = over_g(lambda Jf, G: np.abs((Jf[1] + G[1]) @ e))(big)

    def f_plus_max_g(fn):  # sup fn(jet of f) + max_j sup fn(jet of g_j)
        sups = [float(np.max(fn(J))) for J in big]
        return sups[0] + max(sups[1:])

    def top_eig(H):
        # the larger eigenvalue of a symmetric 1x1 or 2x2 H in closed
        # form, (tr H + sqrt(2 |H|_F^2 - (tr H)^2)) / 2 (max(H, 0) in
        # 1d); where the two nearly agree it loses about sqrt(eps)
        # relative, far below the sampling error
        tr = np.einsum("mii->m", H)
        gap2 = 2.0 * np.einsum("mij,mij->m", H, H) - tr * tr
        return 0.5 * (tr + np.sqrt(np.maximum(gap2, 0.0)))

    gamma1 = f_plus_max_g(lambda J: np.sqrt(sq_norms(J[1])))
    gamma2 = f_plus_max_g(lambda J: np.maximum(top_eig(J[2]), 0.0))

    omega0 = 0
    for op, _ in problem.members:
        if isinstance(op, MeasureOnUnit):
            omega0 = max(omega0, op.omega0)
        elif np.isscalar(op) and float(op) == 0.0:
            omega0 = 1

    return ProblemConstants(G0=G0, G1=G1, Ge1=Ge1, Ge2=Ge2,
                            gamma1=gamma1, gamma2=gamma2, omega0=omega0, R=R)


# -- solvers ---------------------------------------------------------------------

def solve_linear_dirichlet(op, f, exterior, lattice):
    """L u = f at interior nodes, u = exterior data outside.

    Returns (GridFunction, info).  The linear-solve residual is checked
    against 1e-10 times the data scale; monotone assembly makes the
    system an M-matrix, so a singular solve here is an assembly bug, not
    a data condition.
    """
    disc = assemble_discrete(op, lattice, exterior)
    f_int = f(lattice.nodes[lattice.interior])
    u_int = _solve_member(disc, f_int)
    res = float(np.max(np.abs(disc.A @ u_int + disc.b - f_int)))
    if res > 1e-10 * max(1.0, float(np.max(np.abs(f_int))) + 1.0):
        raise ArithmeticError("linear solve residual %.2g above tolerance" % res)
    return _to_gridfunction(disc, u_int), {"residual": res, "operator": disc}


def _solve_member(disc, rhs):
    """Interior solution of A u = rhs - b for one discrete member."""
    return np.linalg.solve(disc.A, rhs - disc.b)


def _to_gridfunction(disc, u_int):
    lat = disc.lattice
    vals = disc.full_values(u_int)
    if lat.n == 2:
        vals = vals.reshape(lat.N, lat.N)
    return GridFunction(lat.n, lat.L, vals, disc.exterior)


def _members(problem, lattice):
    """The discrete members, and f and the g_m at the interior nodes."""
    discs = [assemble_discrete(op, lattice, problem.exterior)
             for op, _ in problem.members]
    nodes_int = lattice.nodes[lattice.interior]
    return (discs, problem.f(nodes_int),
            [g(nodes_int) for _, g in problem.members])


def _member_values(discs, g_int, u_int):
    """The member values L_m u - g_m at the interior nodes, (n_int, J)."""
    return np.stack([d.apply(u_int) - g for d, g in zip(discs, g_int)],
                    axis=1)


def _newton(problem, lattice, F):
    """Frozen-coefficient (semismooth Newton) iteration for
    F(L_1 u - g_1, ...) = f, from member 0 solved alone: each step solves
    the LinearizedOperator that the subgradient selector of F freezes,
    until the sup-norm residual is below 1e-9, at most 120 times.

    Returns (GridFunction, member values p at the last iterate, info).
    """
    discs, f_int, g_int = _members(problem, lattice)
    u = _solve_member(discs[0], f_int + g_int[0])
    history = []
    for _ in range(120):
        p = _member_values(discs, g_int, u)
        resid = F(p) - f_int
        history.append(float(np.max(np.abs(resid))))
        if history[-1] <= 1e-9:
            break
        L = LinearizedOperator(discs, F.subgradient(p), F.theta0)
        u = u + np.linalg.solve(L.matrix(), -resid)
    else:
        raise ArithmeticError("Newton iteration did not converge: residual "
                              "history %s" % history[-5:])
    gf = _to_gridfunction(discs[0], u)
    return gf, p, {"history": history, "discs": discs,
                   "residual": history[-1], "iterations": len(history),
                   "u_int": u}


def solve_bellman(problem, lattice):
    """Policy iteration for the maximal equation: the Newton loop of
    solve_fully_nonlinear with F = max, whose first-argmax subgradient
    freezes one member per node.

    Returns (GridFunction, policy array, info dict with residual
    history); the policy is the first argmax of the member values at
    the last iterate.
    """
    gf, p, info = _newton(problem, lattice, bellman_max(problem.J))
    return gf, np.argmax(p, axis=1), info


def value_iteration(problem, lattice, tol=1e-9):
    """Damped fixed-point oracle for the same maximal equation: steps of
    0.85 times the residual over the largest diagonal, at most 400,000."""
    discs, f_int, g_int = _members(problem, lattice)
    u = _solve_member(discs[0], f_int + g_int[0])
    diag = np.max(np.stack([np.diag(d.A) for d in discs]), axis=0)
    for it in range(400000):
        r = _member_values(discs, g_int, u).max(axis=1) - f_int
        if np.max(np.abs(r)) <= tol:
            return u, it
        u = u - 0.85 * r / diag
    raise ArithmeticError("value iteration hit the iteration cap")


def solve_fully_nonlinear(problem, lattice):
    """Frozen-coefficient (semismooth Newton) iteration for
    F(L_1 u - g_1, ...) = f, with F the problem's nonlinearity (the max
    when omitted, where the iteration is policy iteration).

    Returns (GridFunction, info).
    """
    gf, _, info = _newton(problem, lattice, problem.F)
    return gf, info


def solve_obstacle(problem, lattice):
    """Two-branch policy iteration for the obstacle problem.

    Returns (GridFunction, contact mask, info); the contact set is where
    the constraint branch u - g - f attains the max, and the
    complementarity max |max(L u - f, u - g - f)| is the last Newton
    residual.
    """
    gf, policy, info = solve_bellman(problem.as_bellman(), lattice)
    contact = policy == 1
    info["complementarity"] = info["residual"]
    info["contact"] = contact
    return gf, contact, info


# -- linearized operator ---------------------------------------------------------

class LinearizedOperator:
    """Frozen-coefficient mixture of the member discretizations.

    alpha: (n_int, J) nonnegative weights with row sums >= theta0.
    """

    def __init__(self, discs, alpha, theta0):
        self.discs = discs
        self.alpha = np.asarray(alpha, dtype=float)
        self.theta0 = float(theta0)
        self.lattice = discs[0].lattice
        if np.any(self.alpha < -1e-14):
            raise ValueError("negative linearization weight")
        if np.any(self.alpha.sum(axis=1) < theta0 - 1e-12):
            raise ValueError("weights violate the ellipticity lower bound")

    def apply_grid(self, values_full, closure):
        parts = np.stack([d.apply_to_grid(values_full, closure)
                          for d in self.discs], axis=1)
        return np.sum(self.alpha * parts, axis=1)

    def apply_interior(self, u_int):
        parts = np.stack([d.apply(u_int) for d in self.discs], axis=1)
        return np.sum(self.alpha * parts, axis=1)

    def matrix(self):
        """sum_m alpha_m A_m by rows: the dense interior matrix of the
        frozen operator, the one a Newton step solves."""
        M = np.zeros((self.lattice.n_int,) * 2)
        for m, d in enumerate(self.discs):
            M += self.alpha[:, m:m + 1] * d.A
        return M


def _grid_shift(gf, e, sign):
    """gf at every lattice node x + sign h e, flattened as gf.nodes(), for
    e a coordinate axis (or its negative): the neighbouring node's value,
    and the exterior closure past the box edge."""
    e = np.atleast_1d(np.asarray(e, dtype=float))
    axis = np.flatnonzero(e)
    if axis.size != 1 or abs(e[axis[0]]) != 1.0:
        raise ValueError("grid differences need a coordinate axis e")
    a, k = int(axis[0]), int(sign * e[axis[0]])
    out = np.roll(gf.values, -k, axis=a)
    rim = (slice(None),) * a + (-1 if k > 0 else 0,)
    pts = gf.nodes().reshape(gf.values.shape + (gf.n,))[rim].reshape(-1, gf.n)
    out[rim] = gf.exterior.value(pts + sign * gf.h * e).reshape(out[rim].shape)
    return out.ravel()


def grid_gradient(gf, e):
    """Centered difference d_e of a grid function on the full lattice,
    falling back to the exterior closure beyond the box edge; e is a
    coordinate axis."""
    return (_grid_shift(gf, e, 1) - _grid_shift(gf, e, -1)) / (2 * gf.h)


def grid_second_difference(gf, e):
    """Centered second difference along e, as grid_gradient."""
    return (_grid_shift(gf, e, 1) + _grid_shift(gf, e, -1)
            - 2 * gf.values.ravel()) / gf.h ** 2


def linearize(problem, gf, info):
    """Frozen linearization at a converged solution plus the subsolution
    report: L u >= f + g, |L d_e u| <= gamma_1, L dd_e u <= gamma_2, with
    e the first axis.

    Derivatives of the solution are centered differences; a band of
    width 2 h near the domain boundary is excluded from the derivative
    checks (one-sided effects).  gamma_1 and gamma_2 are the data
    constants of problem_constants; tol = 10 h max(gamma_1, 1).
    """
    return _linearize(problem, gf, info)[:2]


def _linearize(problem, gf, info):
    """linearize, plus the second difference dd_e u on the full lattice
    and L dd_e u, which unified_derivative_bound reuses."""
    discs = info["discs"]
    lat = discs[0].lattice
    F = problem.F
    nodes_int = lat.nodes[lat.interior]
    u_int = gf.values.ravel()[lat.interior]
    p = _member_values(discs, [g(nodes_int) for _, g in problem.members],
                       u_int)
    L = LinearizedOperator(discs, F.subgradient(p), F.theta0)

    f_int = problem.f(nodes_int)
    gcomp = problem.source(nodes_int)
    Lu = L.apply_interior(u_int)

    e = np.zeros(lat.n); e[0] = 1.0
    ext = problem.exterior
    # the derivative bounds are rendered through one-sided quotients:
    # the discrete equation gives L d+ u <= d+(f+g) and L d- u >= d-(f+g)
    # exactly (the inactive-member residual gap has a sign), so the pair
    # of one-sided checks is the faithful h-level form of |L d_e u| <= g1
    du_plus = _quotient_full(gf, e, +1)
    du_minus = _quotient_full(gf, e, -1)
    ddu_full = grid_second_difference(gf, e)
    Ldu_plus = L.apply_grid(du_plus, _quotient_closure(ext, e, lat.h, +1))
    Ldu_minus = L.apply_grid(du_minus, _quotient_closure(ext, e, lat.h, -1))
    Lddu = L.apply_grid(ddu_full, _fd_closure(ext, e, lat.h, 2))

    c = problem_constants(problem)
    gam1, gam2 = c.gamma1, c.gamma2
    rad = np.sqrt(sq_norms(nodes_int))
    inner = rad < problem.R_dom - 2 * lat.h
    lip = max(gam1, 1.0)
    tol = 10.0 * lat.h * lip
    grad_hi = float(np.max(Ldu_plus[inner]))
    grad_lo = float(np.min(Ldu_minus[inner]))
    rep = {
        "subsolution_ok": bool(np.all(Lu[inner] >= f_int[inner]
                                      + gcomp[inner] - tol)),
        "subsolution_worst": float(np.min(Lu[inner] - f_int[inner]
                                          - gcomp[inner])),
        "grad_bound_ok": bool(grad_hi <= gam1 + tol
                              and grad_lo >= -(gam1 + tol)),
        "grad_bound_worst": float(max(grad_hi - gam1, -gam1 - grad_lo)),
        "second_bound_ok": bool(np.all(Lddu[inner] <= gam2 + tol)),
        "second_bound_worst": float(np.max(Lddu[inner]) - gam2),
        "gamma1": gam1, "gamma2": gam2, "tol": tol,
    }
    return L, rep, ddu_full, Lddu


def _quotient_full(gf, e, sign):
    """One-sided quotient (u(x + sign*h*e) - u(x)) / (sign*h) on the
    lattice, as grid_gradient."""
    return (_grid_shift(gf, e, sign) - gf.values.ravel()) / (sign * gf.h)


def _quotient_closure(ext, e, h, sign):
    """(ext(x + sign*h*e) - ext(x)) / (sign*h) with gradient-bound metadata."""
    e = np.atleast_1d(np.asarray(e, dtype=float))
    q = (translate(ext, sign * h * e) - ext) * (1.0 / (sign * h))
    rs = ext.tail.resid
    q.tail = Tail(0.0, lambda r: np.minimum(
        ext.grad_sup, 2.0 * rs(np.maximum(r - 1.0, 0.0)) / h),
                  ext.tail.period, ext.grad_sup if ext.tail.period else 0.0)
    q.sup, q.grad_sup, q.hess_sup = ext.grad_sup, ext.hess_sup, np.inf
    return q


def _fd_closure(ext, e, h, order):
    """Central first (order 1) or second (order 2) difference of ext along e."""
    e = np.atleast_1d(np.asarray(e, dtype=float))
    up, down = translate(ext, h * e), translate(ext, -h * e)
    if order == 1:
        d = (up - down) * (1.0 / (2 * h))
    else:
        d = (up + down - ext * 2.0) * (1.0 / h ** 2)
    scale = ext.grad_sup if order == 1 else ext.hess_sup
    rs = ext.tail.resid
    d.tail = Tail(0.0, lambda r: np.minimum(
        scale, 4.0 * rs(np.maximum(r - 1.0, 0.0)) / h ** order),
                  ext.tail.period, scale if ext.tail.period else 0.0)
    d.sup, d.grad_sup, d.hess_sup = scale, np.inf, np.inf
    return d


# -- maximum principle with estimate ---------------------------------------------

def max_principle_estimate(ops, phi, R):
    """sup_{B_R} phi <= sup_outside phi + C_R gamma0, with fitted C, on
    the line.

    ops: list of Kernels and/or MeasureOnUnit members; the pointwise
    operator is the member infimum (arbitrary per-point selection).
    gamma0 is the certified max of that infimum over 13 probes spanning
    0.95 B_R (clipped at 0); the sups come from 4,000 seeded samples of
    B_R and 12,000 of B_{6R} outside it.  Returns the fitted constant
    (minimal C making the bound hold) and the scaling-normalized
    constant: by R^{2s} when the family has a definite order s (one
    positive order, kernels.positive_orders), else by 1 + R^2.
    """
    plan = default_plan(1).scaled(rel_tol=1e-5)
    pr = np.linspace(-0.95 * R, 0.95 * R, 13).reshape(-1, 1)
    inf_vals = np.min([apply_batch(op, phi, pr, plan)[0] for op in ops],
                      axis=0)
    g0 = max(float(np.max(inf_vals)), 0.0)

    rng = np.random.default_rng(3)
    inner = rng.uniform(-R, R, size=(4000, 1))
    inner = inner[np.sqrt(sq_norms(inner)) < R]
    sup_in = float(np.max(phi(inner)))
    outer = rng.uniform(-6 * R, 6 * R, size=(12000, 1))
    outer = outer[np.sqrt(sq_norms(outer)) >= R]
    sup_out = max(float(np.max(phi(outer))), phi.tail.limit)
    gap = sup_in - sup_out
    if g0 <= 0.0:
        return {"pass": bool(gap <= 1e-7), "gamma0": 0.0,
                "sup_in": sup_in, "sup_out": sup_out, "fitted_C": 0.0}
    fitted = max(gap, 0.0) / g0
    C_R, form = _radius_power(ops, R)
    return {"pass": True, "gamma0": g0, "sup_in": sup_in,
            "sup_out": sup_out, "fitted_C": fitted,
            "normalized_C": fitted / C_R, "scaling_form": form}


def _radius_power(ops, R):
    """(C_R, its form) of the fitted estimates on B_R: (R^{2s}, "R^2s")
    for a family of definite order s (exactly one positive order,
    kernels.positive_orders; order-0 members and measures add none),
    else (1 + R^2, "1+R^2")."""
    orders = positive_orders(ops)
    if len(orders) == 1:
        return R ** (2 * orders[0]), "R^2s"
    return 1.0 + R ** 2, "1+R^2"


def _measured_sups(gf, exterior, R):
    """The measured sups of a solved grid function, e the first axis:
    |d_e u| on B_{R/2} and dd_e u on B_{R/4} (0 when it holds no such
    node) and B_{R/2} at the nodes at least 2 h inside B_R, |u| on B_R,
    and |u| over the lattice and the exterior.  Raises ValueError when
    no node of B_{R/2} is 2 h inside B_R."""
    rad = np.sqrt(sq_norms(gf.nodes()))
    band = rad < R - 2 * gf.h
    half, quarter = band & (rad < R / 2), band & (rad < R / 4)
    if not np.any(half):
        raise ValueError("R = %g leaves no node of B_{R/2} 2h = %g inside "
                         "B_R" % (R, 2 * gf.h))
    e = np.zeros(gf.n); e[0] = 1.0
    du = grid_gradient(gf, e)
    ddu = grid_second_difference(gf, e)
    dd_quarter = float(np.max(ddu[quarter])) if np.any(quarter) else 0.0
    return {"grad_half": float(np.max(np.abs(du[half]))),
            "dd_quarter": dd_quarter, "dd_half": float(np.max(ddu[half])),
            "u_R": float(np.max(np.abs(gf.values.ravel()[rad < R]))),
            "u_all": max(float(np.max(np.abs(gf.values))), exterior.sup)}


# -- the unified derivative-bound functional -------------------------------------

def unified_derivative_bound(problem, gf, info, R):
    """Measured derivative sups against the two structural functionals.

    Computes a0, a1, a2 (the negative part / absolute value / positive
    part of the linearized operator on u - sup u, d_e u, dd_e u over the
    domain nodes), assembles the first and one-sided second bound
    brackets with the family's C_R power (_radius_power), and returns
    the fitted constants relating the measured sups (_measured_sups) to
    the brackets, with e the first axis and the weights tau = sigma = 4
    of the intermediate claim.
    """
    sups = _measured_sups(gf, problem.exterior, R)
    lat = info["discs"][0].lattice
    e = np.zeros(lat.n); e[0] = 1.0
    L, rep, ddu_full, Lddu = _linearize(problem, gf, info)
    nodes_int = lat.nodes[lat.interior]
    u_int = gf.values.ravel()[lat.interior]
    rad = np.sqrt(sq_norms(nodes_int))

    sup_u_R = float(np.max(u_int[rad < R])) if np.any(rad < R) else 0.0
    shift_full = gf.values.ravel() - sup_u_R
    shift_ext = problem.exterior - sup_u_R
    Lshift = L.apply_grid(shift_full, shift_ext)
    du_full = grid_gradient(gf, e)
    Ldu = L.apply_grid(du_full, _fd_closure(problem.exterior, e, lat.h, 1))
    band = rad < R - 2 * lat.h
    a0 = float(np.max(np.maximum(-Lshift[band], 0.0)))
    a1 = float(np.max(np.abs(Ldu[band])))
    a2 = float(np.max(np.maximum(Lddu[band], 0.0)))

    C_R, form = _radius_power((op for op, _ in problem.members), R)
    u_sup_R, u_sup_all = sups["u_R"], sups["u_all"]
    measured_grad, measured_dd = sups["grad_half"], sups["dd_quarter"]
    du_grid, ddu_grid = du_full[lat.interior], ddu_full[lat.interior]

    bracket1 = C_R * a1 + np.sqrt(C_R * a0 * u_sup_R) / R + u_sup_all / R
    bracket2 = (C_R * a2 + C_R * a1 / R
                + np.sqrt(C_R * a0 * u_sup_R) / R ** 2 + u_sup_all / R ** 2)
    out = {
        "a0": a0, "a1": a1, "a2": a2, "C_R": C_R, "form": form,
        "measured_grad_half": measured_grad,
        "measured_dd_quarter": measured_dd,
        "bracket_first": bracket1, "bracket_second": bracket2,
        "fitted_C_first": measured_grad / max(bracket1, 1e-300),
        "fitted_C_second": (max(measured_dd, 0.0) / max(bracket2, 1e-300)),
        "linearize_report": rep,
    }

    # intermediate claim: sup phi <= Csharp (C_R sup Phi + R^-4 ||u||^2)
    etab = make_cutoff(R / 8.0, R / 2.0, n=lat.n)
    eta = make_cutoff(R / 2.0, 0.98 * R, n=lat.n)
    bv = etab(nodes_int)
    ev = np.maximum(eta(nodes_int), (rad <= R / 2).astype(float))
    ddp = np.maximum(ddu_grid, 0.0)
    phi_vals = (bv ** 2 * ddp ** 2 + 4.0 / R ** 2 * ev ** 2 * du_grid ** 2
                + 4.0 / R ** 4 * (u_int - sup_u_R) ** 2)
    Phi_vals = (a2 * bv ** 2 * ddp + a1 / R ** 2 * ev ** 2 * np.abs(du_grid)
                + a0 / R ** 4 * u_sup_R)
    rhs = C_R * float(np.max(Phi_vals)) + u_sup_all ** 2 / R ** 4
    out["fitted_C_sharp"] = float(np.max(phi_vals)) / max(rhs, 1e-300)
    return out
