"""Grid solvers for the nonlocal Dirichlet, Bellman, fully nonlinear
convex, and obstacle problems, plus barriers, the linearized operator,
and the maximum principle with estimate.

Every member, whatever its kind, is one stencil from
nonlocal_ops.assemble_discrete (monotone by construction).  Every
Bellman-type equation is solved by one frozen-coefficient (semismooth)
Newton loop, F(L_1 u - g_1, ...) = f: the subgradient of F freezes a
linear operator, which is solved for the step.  Policy iteration is its
max case (the first-argmax subgradient picks one member per node), and
the obstacle problem is that max over two members.  A damped value
iteration stays as an independent fixed-point oracle.
"""

import numpy as np

from .kernels import as_points, bellman_max, operator_order, positive_orders
from .funcspace import SmoothFunction, Tail, GridFunction, constant, \
    translate
from .nonlocal_ops import assemble_discrete, apply_batch, default_plan

__all__ = [
    "barrier", "barrier_check", "BellmanProblem", "ObstacleProblem",
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

    def val(x):
        q = np.sum((x / R) ** 2, axis=1)
        return np.where(q < 100.0, q - 2.0, 98.0)

    def grad(x):
        q = np.sum((x / R) ** 2, axis=1)
        return np.where((q < 100.0)[:, None], 2.0 * x / R ** 2, 0.0)

    def hess(x):
        q = np.sum((x / R) ** 2, axis=1)
        eye = np.eye(n) * (2.0 / R ** 2)
        return np.where((q < 100.0)[:, None, None], eye[None], 0.0)

    return SmoothFunction(n, val, grad, hess, sup=100.0,
                          grad_sup=20.0 / R, hess_sup=2.0 / R ** 2,
                          tail=Tail(98.0, lambda r: 100.0 if r < 10 * R else 0.0))


def barrier_check(op, R=1.0, n=1, probes=None, plan=None,
                  sweep=(0.5, 1.0, 2.0, 4.0)):
    """Margin c with L beta_R <= -c on B_R, plus the R-scaling study.

    op: Kernel or order s (margin should scale like R^{-2s}) or MeasureOnUnit
    (margin should scale like (1 + R^2)^{-1}).  The normalized margins
    over the dyadic sweep must agree within +-50%.
    """
    if plan is None:
        plan = default_plan(n).scaled(rel_tol=1e-5)

    def margin_at(Rv):
        beta_R = barrier(Rv, n)
        if probes is None:
            pr = np.linspace(-0.9 * Rv, 0.9 * Rv, 9).reshape(-1, 1)
            if n == 2:
                pr = np.concatenate([np.hstack([pr, np.zeros_like(pr)]),
                                     np.hstack([np.zeros_like(pr), pr])])
        else:
            pr = as_points(probes, n) * Rv
        return -float(np.max(apply_batch(op, beta_R, pr, plan)[0]))

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


# -- solvers ---------------------------------------------------------------------

def solve_linear_dirichlet(op, f, exterior, lattice, tol=1e-10):
    """L u = f at interior nodes, u = exterior data outside.

    Returns (GridFunction, info).  The linear-solve residual is checked
    against tol; monotone assembly makes the system an M-matrix, so a
    singular solve here is an assembly bug, not a data condition.
    """
    disc = assemble_discrete(op, lattice, exterior)
    f_int = f(lattice.nodes[lattice.interior])
    u_int = _solve_member(disc, f_int)
    res = float(np.max(np.abs(disc.A @ u_int + disc.b - f_int)))
    if res > tol * max(1.0, float(np.max(np.abs(f_int))) + 1.0):
        raise ArithmeticError("linear solve residual %.2g above tolerance" % res)
    gf = _to_gridfunction(lattice, u_int, exterior)
    return gf, {"residual": res, "operator": disc}


def _solve_member(disc, rhs):
    """Interior solution of A u = rhs - b for one discrete member."""
    return np.linalg.solve(disc.A, rhs - disc.b)


def _to_gridfunction(lattice, u_int, exterior):
    vals = exterior(lattice.nodes)
    vals[lattice.interior] = u_int
    if lattice.n == 2:
        vals = vals.reshape(lattice.N, lattice.N)
    return GridFunction(lattice.n, lattice.L, vals, exterior)


def _members(problem, lattice):
    """The discrete members, f and the g_m at the interior nodes, and the
    first iterate: member 0 solved alone."""
    discs = [assemble_discrete(op, lattice, problem.exterior)
             for op, _ in problem.members]
    nodes_int = lattice.nodes[lattice.interior]
    f_int = problem.f(nodes_int)
    g_int = [g(nodes_int) for _, g in problem.members]
    return discs, f_int, g_int, _solve_member(discs[0], f_int + g_int[0])


def _newton(problem, lattice, F, tol, max_iter):
    """Frozen-coefficient (semismooth Newton) iteration for
    F(L_1 u - g_1, ...) = f: the subgradient selector of F gives the
    weights of the frozen linear operator solved for each step.

    Returns (GridFunction, member values p at the last iterate, info).
    """
    discs, f_int, g_int, u = _members(problem, lattice)
    history = []
    for _ in range(max_iter):
        p = np.stack([d.apply(u) - g for d, g in zip(discs, g_int)], axis=1)
        resid = F(p) - f_int
        history.append(float(np.max(np.abs(resid))))
        if history[-1] <= tol:
            break
        alpha = F.subgradient(p)
        Aw = np.zeros((lattice.n_int, lattice.n_int))
        for m, d in enumerate(discs):
            Aw += alpha[:, m:m + 1] * d.A
        u = u + np.linalg.solve(Aw, -resid)
    else:
        raise ArithmeticError("Newton iteration did not converge: residual "
                              "history %s" % history[-5:])
    gf = _to_gridfunction(lattice, u, problem.exterior)
    return gf, p, {"history": history, "discs": discs,
                   "residual": history[-1], "iterations": len(history),
                   "u_int": u}


def solve_bellman(problem, lattice, tol=1e-9, max_iter=80):
    """Policy iteration for the maximal equation: the Newton loop of
    solve_fully_nonlinear with F = max, whose first-argmax subgradient
    freezes one member per node.

    Iterates until the sup-norm Bellman residual is below tol.  Returns
    (GridFunction, policy array, info dict with residual history); the
    policy is the first argmax of the member values at the last iterate.
    """
    gf, p, info = _newton(problem, lattice, bellman_max(problem.J), tol,
                          max_iter)
    return gf, np.argmax(p, axis=1), info


def value_iteration(problem, lattice, tol=1e-9, max_iter=400000, omega=0.85):
    """Damped fixed-point oracle for the same maximal equation."""
    discs, f_int, g_int, u = _members(problem, lattice)
    diag = np.max(np.stack([np.diag(d.A) for d in discs]), axis=0)
    for it in range(max_iter):
        vals = np.stack([d.apply(u) - g for d, g in zip(discs, g_int)])
        r = vals.max(axis=0) - f_int
        if np.max(np.abs(r)) <= tol:
            return u, it
        u = u - omega * r / diag
    raise ArithmeticError("value iteration hit the iteration cap")


def solve_fully_nonlinear(problem, lattice, tol=1e-8, max_iter=120):
    """Frozen-coefficient (semismooth Newton) iteration for
    F(L_1 u - g_1, ...) = f, with F the problem's nonlinearity (the max
    when omitted, where the iteration is policy iteration).

    Returns (GridFunction, info).
    """
    F = problem.nonlinearity or bellman_max(problem.J)
    gf, _, info = _newton(problem, lattice, F, tol, max_iter)
    return gf, info


def solve_obstacle(problem, lattice, tol=1e-9):
    """Two-branch policy iteration for the obstacle problem.

    Returns (GridFunction, contact mask, info); the contact set is where
    the constraint branch u - g - f attains the max.
    """
    bell = problem.as_bellman()
    gf, policy, info = solve_bellman(bell, lattice, tol=tol)
    contact = policy == 1
    u_int = gf.values.ravel()[lattice.interior]
    nodes_int = lattice.nodes[lattice.interior]
    f_int = problem.f(nodes_int)
    comp = np.maximum(info["discs"][0].apply(u_int) - f_int,
                      u_int - problem.g(nodes_int) - f_int)
    info["complementarity"] = float(np.max(np.abs(comp)))
    info["contact"] = contact
    return gf, contact, info


# -- linearized operator ---------------------------------------------------------

class LinearizedOperator:
    """Frozen-coefficient mixture of the member discretizations.

    alpha: (n_int, J) nonnegative weights with row sums >= theta0.
    """

    def __init__(self, discs, alpha, theta0, lattice):
        self.discs = discs
        self.alpha = np.asarray(alpha, dtype=float)
        self.theta0 = float(theta0)
        self.lattice = lattice
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


def grid_gradient(gf, e):
    """Centered difference d_e of a grid function on the full lattice,
    falling back to the exterior closure beyond the box edge."""
    prom, h, nodes = gf.promote(), gf.h, gf.nodes()
    e = np.atleast_1d(np.asarray(e, dtype=float))
    return (prom(nodes + h * e) - prom(nodes - h * e)) / (2 * h)


def grid_second_difference(gf, e):
    """Centered second difference along e, as grid_gradient."""
    prom, h, nodes = gf.promote(), gf.h, gf.nodes()
    e = np.atleast_1d(np.asarray(e, dtype=float))
    return (prom(nodes + h * e) + prom(nodes - h * e)
            - 2 * gf.values.ravel()) / h ** 2


def linearize(problem, gf, info, e=None, band=2, tol_factor=10.0):
    """Frozen linearization at a converged solution plus the subsolution
    report: L u >= f + g, |L d_e u| <= gamma_1, L dd_e u <= gamma_2.

    Derivatives of the solution are centered differences; a band of
    width band*h near the domain boundary is excluded from the
    derivative checks (one-sided effects).  tol = tol_factor * h *
    (Lipschitz scale of the data).
    """
    lat = info["discs"][0].lattice
    discs = info["discs"]
    F = problem.nonlinearity
    nodes_int = lat.nodes[lat.interior]
    u_int = gf.values.ravel()[lat.interior]
    g_int = [g(nodes_int) for _, g in problem.members]
    p = np.stack([discs[m].apply(u_int) - g_int[m]
                  for m in range(len(discs))], axis=1)
    if F is None:
        F = bellman_max(len(discs))
    alpha = F.subgradient(p)
    L = LinearizedOperator(discs, alpha, F.theta0, lat)

    f_int = problem.f(nodes_int)
    gcomp = -F(np.stack([-g for g in g_int], axis=1))
    Lu = L.apply_interior(u_int)

    if e is None:
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

    # data-driven constants
    gam1, gam2 = data_derivative_constants(problem, lat)
    rad = np.linalg.norm(nodes_int, axis=1)
    inner = rad < problem.R_dom - band * lat.h
    lip = max(gam1, 1.0)
    tol = tol_factor * lat.h * lip
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
    return L, rep


def _quotient_full(gf, e, sign):
    """One-sided quotient (u(x + sign*h*e) - u(x)) / (sign*h) on the
    lattice, promoted interpolation supplying off-node shifts."""
    h = gf.h
    e = np.atleast_1d(np.asarray(e, dtype=float))
    return (gf.promote()(gf.nodes() + sign * h * e) - gf.values.ravel()) \
        / (sign * h)


def _quotient_closure(ext, e, h, sign):
    """(ext(x + sign*h*e) - ext(x)) / (sign*h) with gradient-bound metadata."""
    e = np.atleast_1d(np.asarray(e, dtype=float))
    q = (translate(ext, sign * h * e) - ext) * (1.0 / (sign * h))
    rs = ext.tail.resid
    q.tail = Tail(0.0, lambda r: min(ext.grad_sup,
                                     2.0 * rs(max(r - 1.0, 0.0)) / h),
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
    d.tail = Tail(0.0, lambda r: min(scale, 4.0 * rs(max(r - 1.0, 0.0)) / h ** order),
                  ext.tail.period, scale if ext.tail.period else 0.0)
    d.sup, d.grad_sup, d.hess_sup = scale, np.inf, np.inf
    return d


def data_derivative_constants(problem, lattice, samples=400):
    """gamma_1 and gamma_2 from dense sampling of the data derivatives.

    The subgradient weights sum over any p to at most max over one-hot
    selections for the max nonlinearity; smooth selectors are sampled at
    the solution later, so the one-hot bound is used here.
    """
    rng = np.random.default_rng(11)
    n = lattice.n
    pts = rng.uniform(-problem.R_dom, problem.R_dom, size=(samples, n))
    pts = pts[np.linalg.norm(pts, axis=1) < problem.R_dom]
    fgrad = np.linalg.norm(problem.f.gradient(pts), axis=1)
    fh = problem.f.hessian(pts)
    fpp = np.max(np.linalg.eigvalsh(fh), axis=1)
    g1 = float(np.max(fgrad))
    g2 = float(np.max(np.maximum(fpp, 0.0)))
    best_g1 = 0.0
    best_g2 = 0.0
    for _, g in problem.members:
        gg = float(np.max(np.linalg.norm(g.gradient(pts), axis=1)))
        gh = np.max(np.linalg.eigvalsh(g.hessian(pts)), axis=1)
        best_g1 = max(best_g1, gg)
        best_g2 = max(best_g2, float(np.max(np.maximum(gh, 0.0))))
    return g1 + best_g1, g2 + best_g2


# -- maximum principle with estimate ---------------------------------------------

def max_principle_estimate(ops, phi, R, gamma0=None, n=1, plan=None,
                           n_probes=13, ext_samples=4000, tol=1e-7):
    """sup_{B_R} phi <= sup_outside phi + C_R gamma0, with fitted C.

    ops: list of Kernels and/or MeasureOnUnit members; the pointwise
    operator is the member infimum (arbitrary per-point selection).
    gamma0 defaults to the certified max over probe nodes of that
    infimum (clipped at 0).  Returns the fitted constant (minimal C
    making the bound hold) and the scaling-normalized constant: by
    R^{2s} when the family has a definite order s (one positive order,
    kernels.positive_orders), else by 1 + R^2.
    """
    if plan is None:
        plan = default_plan(n).scaled(rel_tol=1e-5)
    pr = np.linspace(-0.95 * R, 0.95 * R, n_probes).reshape(-1, 1)
    if n == 2:
        pr = np.concatenate([np.hstack([pr, np.zeros_like(pr)]),
                             np.hstack([np.zeros_like(pr), pr])])
    inf_vals = np.min([apply_batch(op, phi, pr, plan)[0] for op in ops],
                      axis=0)
    g0 = max(float(np.max(inf_vals)), 0.0) if gamma0 is None else gamma0

    rng = np.random.default_rng(3)
    inner = rng.uniform(-R, R, size=(ext_samples, n))
    inner = inner[np.linalg.norm(inner, axis=1) < R]
    sup_in = float(np.max(phi(inner)))
    outer = rng.uniform(-6 * R, 6 * R, size=(3 * ext_samples, n))
    outer = outer[np.linalg.norm(outer, axis=1) >= R]
    sup_out = max(float(np.max(phi(outer))), phi.tail.limit)
    gap = sup_in - sup_out
    if g0 <= 0.0:
        return {"pass": bool(gap <= tol), "gamma0": 0.0,
                "sup_in": sup_in, "sup_out": sup_out, "fitted_C": 0.0}
    fitted = max(gap, 0.0) / g0
    orders = positive_orders(ops)
    if len(orders) == 1:
        normalized = fitted / R ** (2 * orders[0])
        form = "R^2s"
    else:
        normalized = fitted / (1.0 + R ** 2)
        form = "1+R^2"
    return {"pass": True, "gamma0": g0, "sup_in": sup_in,
            "sup_out": sup_out, "fitted_C": fitted,
            "normalized_C": normalized, "scaling_form": form}


# -- the unified derivative-bound functional -------------------------------------

def unified_derivative_bound(problem, gf, info, R, e=None, sigma=4.0,
                             tau=4.0, cr_form=None):
    """Measured derivative sups against the two structural functionals.

    Computes a0, a1, a2 (the negative part / absolute value / positive
    part of the linearized operator on u - sup u, d_e u, dd_e u over the
    domain nodes), assembles the first and one-sided second bound
    brackets with the declared C_R power, and returns the fitted
    constants relating measured suprema to the brackets.

    cr_form "R^2s" (C_R = R^{2s}) needs a family of definite order s:
    exactly one positive order among the members (order-0 members such
    as an obstacle's constraint, and measures, add none; see
    kernels.positive_orders), else ValueError.  The default is "R^2s"
    for such a family and "1+R^2" (C_R = 1 + R^2) otherwise.
    """
    lat = info["discs"][0].lattice
    if e is None:
        e = np.zeros(lat.n); e[0] = 1.0
    L, rep = linearize(problem, gf, info, e=e)
    nodes_int = lat.nodes[lat.interior]
    u_int = gf.values.ravel()[lat.interior]
    rad = np.linalg.norm(nodes_int, axis=1)

    sup_u_R = float(np.max(u_int[rad < R])) if np.any(rad < R) else 0.0
    shift_full = gf.values.ravel() - sup_u_R
    shift_ext = problem.exterior - sup_u_R
    Lshift = L.apply_grid(shift_full, shift_ext)
    du_full = grid_gradient(gf, e)
    ddu_full = grid_second_difference(gf, e)
    Ldu = L.apply_grid(du_full, _fd_closure(problem.exterior, e, lat.h, 1))
    Lddu = L.apply_grid(ddu_full, _fd_closure(problem.exterior, e, lat.h, 2))
    band = rad < R - 2 * lat.h
    a0 = float(np.max(np.maximum(-Lshift[band], 0.0)))
    a1 = float(np.max(np.abs(Ldu[band])))
    a2 = float(np.max(np.maximum(Lddu[band], 0.0)))

    orders = positive_orders(op for op, _ in problem.members)
    if cr_form is None:
        cr_form = "R^2s" if len(orders) == 1 else "1+R^2"
    if cr_form == "R^2s" and len(orders) != 1:
        raise ValueError("cr_form 'R^2s' needs a family of definite order; "
                         "its positive orders are %s" % orders)
    C_R = R ** (2 * orders[0]) if cr_form == "R^2s" else 1.0 + R ** 2

    u_sup_R = float(np.max(np.abs(u_int[rad < R])))
    u_sup_all = max(float(np.max(np.abs(gf.values))), problem.exterior.sup)
    du_grid = du_full[lat.interior]
    ddu_grid = ddu_full[lat.interior]
    measured_grad = float(np.max(np.abs(du_grid[rad < R / 2])))
    measured_dd = float(np.max(ddu_grid[rad < R / 4])) \
        if np.any(rad < R / 4) else 0.0

    bracket1 = C_R * a1 + np.sqrt(C_R * a0 * u_sup_R) / R + u_sup_all / R
    bracket2 = (C_R * a2 + C_R * a1 / R
                + np.sqrt(C_R * a0 * u_sup_R) / R ** 2 + u_sup_all / R ** 2)
    out = {
        "a0": a0, "a1": a1, "a2": a2, "C_R": C_R, "form": cr_form,
        "measured_grad_half": measured_grad,
        "measured_dd_quarter": measured_dd,
        "bracket_first": bracket1, "bracket_second": bracket2,
        "fitted_C_first": measured_grad / max(bracket1, 1e-300),
        "fitted_C_second": (max(measured_dd, 0.0) / max(bracket2, 1e-300)),
        "linearize_report": rep,
    }

    # intermediate claim: sup phi <= Csharp (C_R sup Phi + R^-4 ||u||^2)
    from .funcspace import make_cutoff
    etab = make_cutoff(R / 8.0, R / 2.0, n=lat.n)
    eta = make_cutoff(R / 2.0, 0.98 * R, n=lat.n)
    bv = etab(nodes_int)
    ev = np.maximum(eta(nodes_int), (rad <= R / 2).astype(float))
    ddp = np.maximum(ddu_grid, 0.0)
    phi_vals = (bv ** 2 * ddp ** 2 + tau / R ** 2 * ev ** 2 * du_grid ** 2
                + sigma / R ** 4 * (u_int - sup_u_R) ** 2)
    Phi_vals = (a2 * bv ** 2 * ddp + a1 / R ** 2 * ev ** 2 * np.abs(du_grid)
                + a0 / R ** 4 * u_sup_R)
    rhs = C_R * float(np.max(Phi_vals)) + u_sup_all ** 2 / R ** 4
    out["fitted_C_sharp"] = float(np.max(phi_vals)) / max(rhs, 1e-300)
    return out
