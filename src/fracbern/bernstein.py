"""Auxiliary functions and the inequality/identity suite built on them.

The composite functions checked here all have the shape

    cutoff^2 * (derivative-like term)^2 + weight * (zeroth-order term)^2

with the derivative slot filled by a directional derivative, its
positive part, the full gradient, or an incremental quotient.  The
algebraic identity relating the operator applied to such a composite to
the operator applied to its pieces holds exactly; the inequalities
derived from it hold once the zeroth-order weight passes a threshold,
which this module locates by doubling plus bisection and then verifies
honestly (fresh quadrature of the whole composite at the final weights).

Every verdict compares a residual against the summed quadrature error
estimates; thresholds that do not exist below the search cap produce a
counterexample report instead of a silent failure.
"""

import numpy as np

from .kernels import fractional_kernel, as_points
from .funcspace import (constant, directional_derivative,
                        positive_part, positive_part_square, incremental_quotient,
                        averaged_square, averaged_square_root, make_cutoff)
from .nonlocal_ops import (singular_integral, apply_batch, apply_fractional,
                           apply_nonlocal, default_plan, _radial_nodes)

__all__ = [
    "InequalityReport", "DeltaSigmaSelection", "SearchFailure",
    "doubling_bisection", "check_first_order_fraclap",
    "check_second_order_fraclap", "check_positive_part_global",
    "check_supert_identity", "check_conto_traccia", "compute_J_terms",
    "check_kernel_radial_identity", "check_downstairs_sharmonic",
    "check_incremental_classical", "odd_taper", "sigma_affinity",
]

SIGMA_CAP = 1e8


class SearchFailure(Exception):
    """No admissible threshold below the cap; carries the counterexample."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class InequalityReport:
    """Per-probe left/right sides with quadrature errors and a verdict."""

    def __init__(self, probes, lhs, rhs, errors, params, slack=0.0):
        self.probes = np.asarray(probes)
        self.lhs = np.asarray(lhs, dtype=float)
        self.rhs = np.asarray(rhs, dtype=float)
        self.errors = np.asarray(errors, dtype=float)
        self.params = dict(params)
        self.residual = self.lhs - self.rhs
        self.margins = self.rhs + self.errors + slack - self.lhs
        self.verdict = bool(np.all(self.margins >= 0.0))
        self.worst_margin = float(np.min(self.margins))

    def to_dict(self):
        return {
            "check": self.params.get("check", ""),
            "variant": self.params.get("variant", ""),
            "params": {k: v for k, v in self.params.items()
                       if isinstance(v, (int, float, str, bool))},
            "probes": self.probes.tolist(),
            "residuals": self.residual.tolist(),
            "errors": self.errors.tolist(),
            "verdict": self.verdict,
            "thresholds": {k: self.params[k] for k in
                           ("sigma0", "tau0", "sigma_eps", "delta")
                           if k in self.params},
        }


class DeltaSigmaSelection:
    """Outcome of the taper-scale selection: delta with |J3| <= eps^2."""

    def __init__(self, delta, J3, sigma_eps, eps):
        if abs(J3) > eps * eps * (1 + 1e-9):
            raise ValueError("selection rule violated: |J3| > eps^2")
        self.delta = float(delta)
        self.J3 = float(J3)
        self.sigma_eps = float(sigma_eps)
        self.eps = float(eps)


def doubling_bisection(feasible, cap=SIGMA_CAP, steps=20):
    """Smallest weight passing `feasible`, by doubling then bisection."""
    sigma = 1.0
    while not feasible(sigma):
        sigma *= 2.0
        if sigma > cap:
            raise SearchFailure("no admissible weight below cap %g" % cap)
    lo, hi = 0.0, sigma
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _si(kernel, G, x, plan):
    """singular_integral that degrades gracefully on kinked integrands:
    a tolerance miss returns the partial value with its honest (larger)
    error estimate, which the verdicts then have to absorb."""
    from .nonlocal_ops import QuadratureFailure
    try:
        return singular_integral(kernel, G, x, plan)
    except QuadratureFailure as qf:
        return qf.partial


def _lenient(n):
    return default_plan(n).scaled(strict=False, max_refine=2)


def _twice(op, f, coef, probes, plan):
    """2 coef L f at the probes and its error 2 |coef| err(L f): one
    linearised term of a majorant."""
    v, err = apply_batch(op, f, probes, plan)
    return 2 * coef * v, 2 * np.abs(coef) * err


def _split(op, sq, f, coef, probes, plan):
    """L sq - 2 coef L f at the probes and its summed error: how far L
    of a composite square sq = c^2 f^2 (or c^2 f_+^2) exceeds its
    linearisation, with coef = c^2 f (or c^2 f_+) at the probes."""
    l_sq, e_sq = apply_batch(op, sq, probes, plan)
    t, e_t = _twice(op, f, coef, probes, plan)
    return l_sq - t, e_sq + e_t


# -- first-order key inequality -------------------------------------------------

def check_first_order_fraclap(u, eta, e, s, probes, plan=None,
                              verify_multipliers=(1.0, 2.0, 4.0)):
    """Threshold sigma0 for the gradient-flavored key inequality.

    Finds the smallest sigma with

      L (eta^2 (d_e u)^2 + sigma u^2)
          <= 2 eta^2 d_e u L d_e u + 2 sigma u L u

    at every probe, from the pieces of check_first_order_batch, then
    re-verifies at sigma0 times the given multipliers with a fresh
    quadrature of the full composite.  L is (-Delta)^s, or any operator
    apply_batch takes.
    """
    if plan is None:
        plan = _lenient(u.n)
    probes = as_points(probes, u.n)
    A, S, errA, errS = check_first_order_batch(u, eta, e, s, probes, plan)
    sigma0 = doubling_bisection(
        lambda sig: np.all(A + sig * S <= errA + sig * errS))
    du = directional_derivative(u, e)
    t_du, e_du = _twice(s, du, eta(probes) ** 2 * du(probes), probes, plan)
    t_u, e_u = _twice(s, u, u(probes), probes, plan)
    reports = []
    for mult in verify_multipliers:
        sig = sigma0 * mult
        aux = (eta * eta) * (du * du) + (u * u) * sig
        l_aux, e_aux = apply_batch(s, aux, probes, plan)
        reports.append(InequalityReport(
            probes, l_aux, t_du + sig * t_u, e_aux + e_du + sig * e_u,
            {"check": "first-order", "variant": "directional", "s": s,
             "sigma": sig, "sigma0": sigma0}))
    return sigma0, reports


def check_first_order_batch(u, eta, e, s, probes, plan=None):
    """The sigma0 search data of the first-order inequality.

    Returns per-probe (A, S, errA, errS), with A + sigma S the residual
    L(eta^2 (d_e u)^2 + sigma u^2) - 2 eta^2 d_e u L d_e u - 2 sigma u L u
    at weight sigma; each error sums the per-probe quadrature error
    estimates of the batched integrals it is built from.  s is the
    operator: an order in [0, 1], a Kernel or a MeasureOnUnit.
    """
    if plan is None:
        plan = _lenient(u.n)
    probes = as_points(probes, u.n)
    du = directional_derivative(u, e)
    A, errA = _split(s, (eta * eta) * (du * du), du,
                     eta(probes) ** 2 * du(probes), probes, plan)
    S, errS = _split(s, u * u, u, u(probes), probes, plan)
    return A, S, errA, errS


def sigma_affinity(u, eta, e, s, x, sigmas, plan=None, op=None):
    """Full-quadrature residuals at three weights plus the slope oracle.

    Returns (residuals, collinearity, slope_fit, slope_direct) where
    collinearity is the relative defect of the middle residual from the
    line through the outer two, and slope_direct is the independently
    quadratured L (u - u(x))^2 at x, that is -integral of |u(x) - u(y)|^2
    K for a kernel.  The operator is op, or (-Delta)^s when op is None.
    """
    if plan is None:
        plan = _lenient(u.n)
    if len(sigmas) != 3:
        raise ValueError("need exactly three weights")
    op = s if op is None else op
    x = as_points(x, u.n)[:1]
    du = directional_derivative(u, e)
    t_du, _ = _twice(op, du, eta(x) ** 2 * du(x), x, plan)
    t_u, _ = _twice(op, u, u(x), x, plan)
    res = np.array([
        apply_batch(op, (eta * eta) * (du * du) + (u * u) * float(sig), x,
                    plan)[0][0] - t_du[0] - sig * t_u[0] for sig in sigmas])
    lam = (sigmas[1] - sigmas[0]) / (sigmas[2] - sigmas[0])
    mid_line = res[0] + lam * (res[2] - res[0])
    scale = max(np.max(np.abs(res)), 1e-300)
    collinearity = abs(res[1] - mid_line) / scale
    slope_fit = (res[2] - res[0]) / (sigmas[2] - sigmas[0])
    uc = float(u(x)[0])
    slope_direct = apply_batch(op, (u - uc) * (u - uc), x, plan)[0][0]
    return res, float(collinearity), float(slope_fit), float(slope_direct)


# -- second-order (positive part, two cutoffs) ---------------------------------

def _second_directional(u, e):
    return directional_derivative(directional_derivative(u, e), e)


def check_second_order_fraclap(u, s, R=1.0, e=None, kappa=None, probes=None,
                               eta_R=None, etab_R=None, plan=None,
                               measure=None):
    """Threshold pair (tau0, sigma0) for the three-term composite

        etabar^2 (dd_e u)_+^2 + tau R^-2 eta^2 (d_e u)^2
            + sigma R^-4 (u - kappa)^2

    against its term-by-term majorant, for a single order s in [0, 1] or
    a measure on [0, 1].  kappa defaults to the sampled supremum of u
    over B_R.
    """
    if plan is None:
        plan = _lenient(u.n)
    if e is None:
        e = np.zeros(u.n); e[0] = 1.0
    if eta_R is None:
        eta_R = make_cutoff(R / 2.0, R, n=u.n)
    if etab_R is None:
        etab_R = make_cutoff(R / 8.0, R / 2.0, n=u.n)
    if kappa is None:
        grid = np.linspace(-R, R, 81)
        pts = grid.reshape(-1, 1) if u.n == 1 else \
            np.stack(np.meshgrid(grid, grid), -1).reshape(-1, 2)
        pts = pts[np.linalg.norm(pts, axis=1) <= R]
        kappa = float(np.max(u(pts)))
    if probes is None:
        probes = np.linspace(-1.4 * R, 1.4 * R, 15).reshape(-1, 1)
    probes = as_points(probes, u.n)

    # the pieces are linear in L, so a measure enters as one operator
    op = measure or s
    du = directional_derivative(u, e)
    ddu = _second_directional(u, e)
    ushift = u - float(kappa)
    P0, E0 = _split(op, (etab_R * etab_R) * positive_part_square(ddu), ddu,
                    etab_R(probes) ** 2 * np.maximum(ddu(probes), 0.0),
                    probes, plan)
    P1, E1 = _split(op, (eta_R * eta_R) * (du * du), du,
                    eta_R(probes) ** 2 * du(probes), probes, plan)
    P2, E2 = _split(op, ushift * ushift, ushift, ushift(probes), probes, plan)
    P1, E1, P2, E2 = P1 / R ** 2, E1 / R ** 2, P2 / R ** 4, E2 / R ** 4

    def feasible_pair(tau, sig_ratio):
        sig = sig_ratio * tau
        return np.all(P0 + tau * P1 + sig * P2
                      <= E0 + tau * E1 + sig * E2)

    tau = 1.0
    found = None
    while tau <= SIGMA_CAP and found is None:
        try:
            ratio = doubling_bisection(lambda r: feasible_pair(tau, r))
            found = (tau, ratio)
        except SearchFailure:
            tau *= 2.0
    if found is None:
        raise SearchFailure("no (tau, sigma) thresholds below cap")
    tau0, ratio0 = found
    resid = P0 + tau0 * P1 + ratio0 * tau0 * P2
    err = E0 + tau0 * E1 + ratio0 * tau0 * E2
    resid2 = P0 + 2 * tau0 * P1 + 2 * ratio0 * 2 * tau0 * P2
    err2 = E0 + 2 * tau0 * E1 + 4 * ratio0 * tau0 * E2
    rep = InequalityReport(
        probes, resid, np.zeros_like(resid), err,
        {"check": "second-order", "variant": "positive-part",
         "s": (s if measure is None else "measure"), "R": R,
         "tau0": tau0, "sigma0": ratio0 * tau0, "kappa": kappa,
         "repass_at_doubled": bool(np.all(resid2 <= err2))})
    return (tau0, ratio0 * tau0), rep


def check_positive_part_global(v, eta, e, s, probes, plan=None):
    """sigma0 for the global positive-part composite
    eta^2 (d_e v)_+^2 + sigma v^2 (one-sided convention at zeros)."""
    if plan is None:
        plan = _lenient(v.n)
    probes = as_points(probes, v.n)
    dv = directional_derivative(v, e)
    # 0 * (unbounded) := 0 convention at the zeros of d_e v
    A, errA = _split(s, (eta * eta) * positive_part_square(dv), dv,
                     eta(probes) ** 2 * np.maximum(dv(probes), 0.0),
                     probes, plan)
    S, errS = _split(s, v * v, v, v(probes), probes, plan)

    def feasible(sig):
        return np.all(A + sig * S <= errA + sig * errS)

    sigma0 = doubling_bisection(feasible)
    rep = InequalityReport(
        probes, A + sigma0 * S, np.zeros_like(A), errA + sigma0 * errS,
        {"check": "positive-part-global", "variant": "positive-part",
         "s": s, "sigma0": sigma0})
    return sigma0, rep


# -- the exact identity (all variants) ------------------------------------------

def check_supert_identity(kernel, base, eta, weight, variant, x, e=None,
                          h=0.1, plan=None):
    """|D1 - D2| for the exact composite identity at one probe.

    D1 is the operator route: L(aux) minus twice the composite pieces
    times L of each piece.  D2 is the bilinear route: the cross term
    with the cutoff increment, minus the two squared-difference
    integrals.  The two agree exactly; the returned residual must sit
    inside the summed quadrature error budget.

    variant: directional | positive-part | gradient | incremental.
    """
    if plan is None:
        plan = _lenient(base.n)
    if e is None:
        e = np.zeros(base.n); e[0] = 1.0
    x = as_points(x, base.n).reshape(-1)
    xm = x.reshape(1, -1)
    n = base.n

    if variant == "directional":
        gs = [directional_derivative(base, e)]
        gsq = gs[0] * gs[0]
        zeroth = base
    elif variant == "positive-part":
        dv = directional_derivative(base, e)
        gsq = positive_part_square(dv)
        gs = ["pp", dv]
        zeroth = base
    elif variant == "gradient":
        gs = [directional_derivative(base, np.eye(n)[i]) for i in range(n)]
        gsq = gs[0] * gs[0]
        for gi in gs[1:]:
            gsq = gsq + gi * gi
        zeroth = base
    elif variant == "incremental":
        gs = [incremental_quotient(base, h, e)]
        gsq = gs[0] * gs[0]
        zeroth = averaged_square_root(base, h, e)
    else:
        raise ValueError("unknown variant %r" % variant)

    aux = (eta * eta) * gsq
    if variant == "incremental":
        z2 = averaged_square(base, h, e)
    else:
        z2 = zeroth * zeroth
    aux_full = aux + z2 * float(weight)

    errors = 0.0
    l_aux = apply_nonlocal(kernel, aux_full, x, plan)
    errors += l_aux.error
    ev = float(eta(xm)[0])
    zv = float(zeroth(xm)[0])
    l_z = apply_nonlocal(kernel, zeroth, x, plan)
    errors += 2 * weight * abs(zv) * l_z.error
    D1 = l_aux.value - 2 * weight * zv * l_z.value

    if variant == "positive-part":
        dv = gs[1]
        gval = max(float(dv(xm)[0]), 0.0)
        gfun_pp = positive_part(dv)
        if gval > 0.0:
            l_g = apply_nonlocal(kernel, gfun_pp, x, plan)
            D1 -= 2 * ev ** 2 * gval * l_g.value
            errors += 2 * ev ** 2 * gval * l_g.error
        gpair = [(gfun_pp, gval)]
    else:
        gpair = []
        for gi in gs:
            gv = float(gi(xm)[0])
            l_g = apply_nonlocal(kernel, gi, x, plan)
            D1 -= 2 * ev ** 2 * gv * l_g.value
            errors += 2 * ev ** 2 * abs(gv) * l_g.error
            gpair.append((gi, gv))

    # bilinear route
    cross = 0.0
    diff_eg = 0.0
    for gi, gv in gpair:
        if abs(2.0 * ev * gv) * gi.sup > 1e-300:
            W = (constant(ev, n) - eta) * gi * (2.0 * ev * gv)
            si = _si(kernel, W, x, plan)
            cross += si.value
            errors += si.error
        egx = constant(ev * gv, n) - eta * gi
        si2 = _si(kernel, egx * egx, x, plan)
        diff_eg += si2.value
        errors += si2.error
    zc = constant(zv, n) - zeroth
    si3 = _si(kernel, zc * zc, x, plan)
    diff_z = si3.value
    errors += weight * si3.error
    D2 = cross - diff_eg - weight * diff_z
    return {
        "D1": D1, "D2": D2, "residual": abs(D1 - D2),
        "error_budget": errors, "pass": bool(abs(D1 - D2) <= 10 * errors),
        "variant": variant,
    }


# -- the inequality with remainder for general kernels --------------------------

def odd_taper(delta):
    """Odd C^2 taper: identity on (-delta, delta), zero beyond 2 delta.

    Profile xi(t) = t on (-1, 1), quintic Hermite ramp down on [1, 2],
    |xi| <= 2; the scaled copy is delta * xi(t / delta).  Returns value
    and first two derivative callables of the scaled taper.
    """
    d = float(delta)
    # quintic ramp p(t) = 1 + t + a t^3 + b t^4 + c t^5 on [0, 1] with
    # value/slope/curvature (1, 1, 0) at 0 and (0, 0, 0) at 1
    Amat = np.array([[1.0, 1.0, 1.0], [3.0, 4.0, 5.0], [6.0, 12.0, 20.0]])
    rhs = np.array([-2.0, -1.0, 0.0])
    abc = np.linalg.solve(Amat, rhs)

    def p(t):
        return 1.0 + t + abc[0] * t ** 3 + abc[1] * t ** 4 + abc[2] * t ** 5

    def p1(t):
        return 1.0 + 3 * abc[0] * t ** 2 + 4 * abc[1] * t ** 3 + 5 * abc[2] * t ** 4

    def p2(t):
        return 6 * abc[0] * t + 12 * abc[1] * t ** 2 + 20 * abc[2] * t ** 3

    def xi(t):
        t = np.asarray(t, dtype=float)
        a = np.abs(t) / d
        out = np.where(a <= 1.0, t, 0.0)
        mid = (a > 1.0) & (a < 2.0)
        out = np.where(mid, np.sign(t) * d * p(a - 1.0), out)
        return out

    def xi1(t):
        t = np.asarray(t, dtype=float)
        a = np.abs(t) / d
        out = np.where(a <= 1.0, 1.0, 0.0)
        mid = (a > 1.0) & (a < 2.0)
        return np.where(mid, p1(a - 1.0), out)

    def xi2(t):
        t = np.asarray(t, dtype=float)
        a = np.abs(t) / d
        mid = (a > 1.0) & (a < 2.0)
        return np.where(mid, np.sign(t) * p2(a - 1.0) / d, 0.0)

    return xi, xi1, xi2


def _plain_kernel_integral(kernel, W, r_lo, r_hi, plan):
    """integral over r_lo < |y| < r_hi of W(y) K(y) dy (even-paired)."""
    z, kz, w = _radial_nodes(kernel, r_lo, r_hi, plan.order,
                             plan.panels_per_decade)
    vals = 0.5 * (W(z) + W(-z)) if kernel.n == 1 else W(z)
    return float(np.dot(vals * kz, w))


def taper_moment(kernel, delta, plan=None):
    """J3 = integral over B_1 of |y| |Z_delta(y)| K(y) dy."""
    if plan is None:
        plan = _lenient(kernel.n)
    xi, _, _ = odd_taper(delta)

    def W(y):
        r = np.linalg.norm(y, axis=1)
        z = np.linalg.norm(xi(y), axis=1)
        return r * z

    val = _plain_kernel_integral(kernel, W, 1e-10, 1.0, plan)
    return val


def select_delta(kernel, eps, deltas=None, plan=None):
    """First dyadic taper scale with |J3| <= eps^2 (decreasing sweep)."""
    if deltas is None:
        deltas = 0.5 ** np.arange(1, 13)
    vals = []
    for d in deltas:
        j3 = taper_moment(kernel, d, plan)
        vals.append((d, j3))
        if abs(j3) <= eps * eps:
            return d, j3, vals
    raise SearchFailure("no admissible taper scale: J3 stays above eps^2",
                        vals)


def check_conto_traccia(kernel, u, eta, eps, e=None, probes=None, plan=None):
    """The key inequality with remainder for a validated general kernel.

    Selects the taper scale delta with |J3| <= eps^2, then finds the
    weight sigma_eps making, at every probe xbar in B_2,

      2 int eta(xb)(eta(xb) - eta(y)) d_e u(xb) d_e u(y) K(xb - y) dy
        <= int |eta(xb) d_e u(xb) - eta(y) d_e u(y)|^2 K dy
           + sigma_eps int |u(xb) - u(y)|^2 K dy
           + eps^2 sup_{B_3} |d_e u|^2.

    The report also records, per probe, whether the inequality holds
    with the remainder dropped (exploration data, never asserted).
    """
    if plan is None:
        plan = _lenient(kernel.n)
    n = kernel.n
    if e is None:
        e = np.zeros(n); e[0] = 1.0
    if probes is None:
        g = np.linspace(-1.8, 1.8, 9)
        probes = g.reshape(-1, 1) if n == 1 else \
            np.stack(np.meshgrid(g, g), -1).reshape(-1, 2)
        probes = probes[np.linalg.norm(probes, axis=1) < 2.0]
    probes = as_points(probes, n)

    delta, J3, sweep = select_delta(kernel, eps, plan=plan)

    du = directional_derivative(u, e)
    grid = np.linspace(-3.0, 3.0, 301)
    pts3 = grid.reshape(-1, 1) if n == 1 else \
        np.stack(np.meshgrid(grid[::4], grid[::4]), -1).reshape(-1, 2)
    pts3 = pts3[np.linalg.norm(pts3, axis=1) <= 3.0]
    du_sup3 = float(np.max(np.abs(du(pts3))))
    E_allow = eps ** 2 * du_sup3 ** 2

    m = len(probes)
    lhs = np.empty(m); r1 = np.empty(m); r2 = np.empty(m); err = np.empty(m)
    for i, x in enumerate(probes):
        xm = x.reshape(1, -1)
        ev = float(eta(xm)[0])
        gv = float(du(xm)[0])
        W = (constant(ev, n) - eta) * du * (2.0 * ev * gv)
        si_c = _si(kernel, W, x, plan)
        egx = constant(ev * gv, n) - eta * du
        si_1 = _si(kernel, egx * egx, x, plan)
        uc = constant(float(u(xm)[0]), n) - u
        si_2 = _si(kernel, uc * uc, x, plan)
        lhs[i] = si_c.value
        r1[i] = si_1.value
        r2[i] = si_2.value
        err[i] = si_c.error + si_1.error + si_2.error

    def feasible(sig):
        return np.all(lhs <= r1 + sig * r2 + E_allow + err)

    sigma_eps = doubling_bisection(feasible)
    sel = DeltaSigmaSelection(delta, J3, sigma_eps, eps)
    holds_without = lhs <= r1 + sigma_eps * r2 + err
    rep = InequalityReport(
        probes, lhs, r1 + sigma_eps * r2 + E_allow, err,
        {"check": "traccia", "variant": "directional", "eps": eps,
         "delta": delta, "J3": J3, "sigma_eps": sigma_eps,
         "du_sup3": du_sup3,
         "eps0_hold_fraction": float(np.mean(holds_without))})
    return sel, rep


def compute_J_terms(kernel, u, eta, delta, e=None, plan=None, r_max=None):
    """The two integrated-by-parts remainder terms and the taper moment.

    J1 pairs the derivative of (taper-corrected cutoff increment times
    kernel) with the mixed difference; J2 carries the second transported
    derivative against the squared difference; J3 is the small moment
    driving the selection rule.  Also returns the direct evaluation of
    the original (pre-integration-by-parts) integral for a two-route
    consistency check, and the fitted constant in the bound
    |J1| + |J2| <= (1/8) R1 + C R2.
    """
    if plan is None:
        plan = _lenient(kernel.n)
    n = kernel.n
    if e is None:
        e = np.zeros(n); e[0] = 1.0
    x0 = np.zeros(n)
    xm = x0.reshape(1, -1)
    xi, xi1, xi2 = odd_taper(delta)
    eta0 = float(eta(xm)[0])
    geta0 = eta.gradient(xm)[0]
    du = directional_derivative(u, e)
    du0 = float(du(xm)[0])
    u0 = float(u(xm)[0])

    def phi(y):
        return eta0 - eta(y) + xi(y) @ geta0

    def dphi_e(y):
        ge = eta.gradient(y) @ e
        return -ge + (xi1(y) * geta0[None, :]) @ e

    def d2phi_e(y):
        he = np.einsum("i,mij,j->m", e, eta.hessian(y), e)
        return -he + (xi2(y) * geta0[None, :] * e[None, :] ** 2).sum(axis=1)

    def rho1(y):
        return (kernel.grad(y) @ e) / kernel(y)

    def rho2(y):
        return np.einsum("i,mij,j->m", e, kernel.hess(y), e) / kernel(y)

    def psi(y):
        return (eta(y) * du(y) - eta0 * du0) * (u(y) - u0)

    def W1(y):
        return (dphi_e(y) + phi(y) * rho1(y)) * psi(y)

    def eta_e(y):
        return eta.gradient(y) @ e

    def W2(y):
        sq = 0.5 * (u(y) - u0) ** 2
        inner = (d2phi_e(y) * eta(y) + dphi_e(y) * eta_e(y)
                 + (2 * dphi_e(y) * eta(y) + phi(y) * eta_e(y)) * rho1(y)
                 + phi(y) * eta(y) * rho2(y))
        return inner * sq

    r_hi = r_max if r_max is not None else _decay_radius(u)
    J1 = _plain_kernel_integral(kernel, W1, 1e-9, r_hi, plan)
    J2 = _plain_kernel_integral(kernel, W2, 1e-9, r_hi, plan)
    J3 = taper_moment(kernel, delta, plan)

    # direct route: integral of I1 = eta(0) phi(y) d_e u(0) d_e u(y) K(y)
    def WI1(y):
        return eta0 * phi(y) * du0 * du(y)

    I1 = _plain_kernel_integral(kernel, WI1, 1e-9, r_hi, plan)

    egx = constant(eta0 * du0, n) - eta * du
    R1 = _si(kernel, egx * egx, x0, plan).value
    uc = constant(u0, n) - u
    R2 = _si(kernel, uc * uc, x0, plan).value
    fitted_C = max((abs(J1) + abs(J2) - R1 / 8.0) / max(R2, 1e-300), 0.0)
    phi0 = float(phi(xm)[0])
    dphi0 = float(dphi_e(xm)[0])
    return {
        "J1": J1, "J2": J2, "J3": J3, "I1_direct": I1,
        "route_gap": abs(I1 - (J1 + J2)),
        "fitted_C": fitted_C, "R1": R1, "R2": R2,
        "phi0": phi0, "dphi0": dphi0,
        "bound_holds": abs(J1) + abs(J2) <= R1 / 8.0 + fitted_C * R2 + 1e-12,
    }


def _decay_radius(u, floor=1e-12):
    r = 8.0
    for _ in range(12):
        if u.tail.resid(r) <= floor and u.tail.period is None:
            return r
        if u.tail.period is not None:
            return 40.0
        r *= 2.0
    return r


# -- fractional-kernel radial identity -------------------------------------------

def check_kernel_radial_identity(s, n=1, probes=None, kernel=None, fd=True):
    """Residual of 2(s+1) grad K + z Laplacian(K) (zero for pure powers).

    With fd=True the Laplacian comes from centered differences, keeping
    the check independent of the analytic derivative formulas.  For a
    non-power kernel the residual is genuinely nonzero and is returned
    for the record.
    """
    K = kernel if kernel is not None else fractional_kernel(n, s)
    if probes is None:
        rng = np.random.default_rng(5)
        r = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 40))
        if n == 1:
            probes = (r * rng.choice([-1.0, 1.0], 40)).reshape(-1, 1)
        else:
            th = rng.uniform(0, 2 * np.pi, 40)
            probes = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
    if fd:
        g = _fd_grad(K, probes)
        H = _fd_hess(K, probes)
    else:
        g = K.grad(probes)
        H = K.hess(probes)
    lap = np.trace(H, axis1=1, axis2=2)
    resid = 2 * (K.s + 1) * g + probes * lap[:, None]
    rel = np.linalg.norm(resid, axis=1) / np.linalg.norm(g, axis=1)
    return float(np.max(rel))


def _fd_grad(K, z, step=1e-6):
    g = np.empty_like(z)
    r = np.linalg.norm(z, axis=1)
    for i in range(z.shape[1]):
        dz = np.zeros_like(z)
        dz[:, i] = step * r
        g[:, i] = (K(z + dz) - K(z - dz)) / (2 * step * r)
    return g


def _fd_hess(K, z, step=1e-4):
    n = z.shape[1]
    H = np.empty((z.shape[0], n, n))
    r = np.linalg.norm(z, axis=1)
    k0 = K(z)
    for i in range(n):
        for j in range(i, n):
            di = np.zeros_like(z); di[:, i] = step * r
            dj = np.zeros_like(z); dj[:, j] = step * r
            if i == j:
                H[:, i, i] = (K(z + di) + K(z - di) - 2 * k0) / (step * r) ** 2
            else:
                H[:, i, j] = H[:, j, i] = (
                    K(z + di + dj) - K(z + di - dj)
                    - K(z - di + dj) + K(z - di - dj)) / (2 * step * r) ** 2
    return H


# -- the identity route for grid-born harmonic-type functions -------------------

def check_downstairs_sharmonic(u_sh, s, eta=None, x=None, hyp_tol=None,
                               plan=None):
    """Gradient-flavored key inequality at a point where the function is
    annihilated by the operator (hypothesis gated, not assumed).

    u_sh: promoted grid solution; the operator residual at the probe is
    recomputed by quadrature and must sit under hyp_tol, otherwise a
    hypothesis error is raised (the claim is simply out of scope there).
    """
    n = u_sh.n
    if plan is None:
        plan = default_plan(n).scaled(rel_tol=1e-3)
    if eta is None:
        eta = make_cutoff(0.25, 0.5, n=n)
    if x is None:
        x = np.zeros(n)
    x = as_points(x, n).reshape(-1)
    star = apply_fractional(s, u_sh, x, plan)
    scale = max(u_sh.sup, 1.0)
    if hyp_tol is None:
        hyp_tol = 5e-2 * scale
    if abs(star.value) > hyp_tol:
        raise SearchFailure(
            "hypothesis fails: operator value %.3g at the probe "
            "(tolerance %.3g)" % (star.value, hyp_tol))
    K = fractional_kernel(n, s)
    xm = x.reshape(1, -1)
    ev = float(eta(xm)[0])
    lhs = 0.0
    r1 = 0.0
    errs = 0.0
    for i in range(n):
        gi = directional_derivative(u_sh, np.eye(n)[i])
        gv = float(gi(xm)[0])
        W = (constant(ev, n) - eta) * gi * (2.0 * ev * gv)
        si = _si(K, W, x, plan)
        lhs += si.value
        errs += si.error
        egx = constant(ev * gv, n) - eta * gi
        si1 = _si(K, egx * egx, x, plan)
        r1 += si1.value
        errs += si1.error
    uc = constant(float(u_sh(xm)[0]), n) - u_sh
    si2 = _si(K, uc * uc, x, plan)
    r2 = si2.value
    errs += si2.error

    def feasible(sig):
        return lhs <= r1 + sig * r2 + errs

    sigma0 = doubling_bisection(feasible)
    margin = r1 + sigma0 * r2 + errs - lhs
    return {"sigma0": sigma0, "margin": float(margin),
            "operator_residual": float(star.value),
            "lhs": lhs, "r1": r1, "r2": r2, "pass": True}


# -- classical incremental-quotient checks --------------------------------------

def check_incremental_classical(u_h, eta, h, e, probes, sigma=None,
                                positive_part_of=None):
    """Nonnegative Laplacian of the incremental composite on harmonic data.

    phi_{h,e} = eta^2 (delta_{h,e} u)^2 + sigma * segment-average of u^2;
    for the one-sided variant the quotient of `positive_part_of` enters
    through its positive part.  Everything is evaluated with analytic
    second derivatives of the composite; returns the report and the
    sigma used (searched once when not supplied).
    """
    probes = as_points(probes, u_h.n)
    dq = incremental_quotient(u_h, h, e)
    if positive_part_of is not None:
        vq = incremental_quotient(positive_part_of, h, e)
        head = (eta * eta) * positive_part_square(vq)
        zavg = averaged_square(positive_part_of, h, e)
    else:
        head = (eta * eta) * (dq * dq)
        zavg = averaged_square(u_h, h, e)

    def lap_at(sig):
        comp = head + zavg * float(sig)
        return np.trace(comp.hessian(probes), axis1=1, axis2=2)

    if sigma is None:
        sigma = doubling_bisection(lambda sg: np.all(lap_at(sg) >= -1e-10))
    lap = lap_at(sigma)
    rep = InequalityReport(probes, -lap, np.zeros(len(probes)),
                           np.full(len(probes), 1e-10),
                           {"check": "incremental-classical",
                            "variant": ("positive-part" if positive_part_of
                                        is not None else "incremental"),
                            "h": h, "sigma0": sigma})
    return sigma, rep
