"""Pointwise evaluation of the integro-differential operators.

The single quadrature pipeline is _integrate: the paired principal-value
integral of G(x + z) K(z) dz for an integrand G (a SmoothFunction)
vanishing at z = 0, evaluated at a whole array of probes x at once.
Pairing z with -z removes the principal value for even kernels.  Every
stage runs vectorized over the probes and gives each probe its own
error estimate:

- inner ball |z| < r0: the quadratic Taylor part against the exact
  kernel second moment;
- correction zone r_zone < |z| < r0: a cancellation-free Bochner
  segment form of the cubic remainder, with a fine/coarse panel pair;
- below r_zone: the paired remainder is even in z, so at most sup |D^4
  G| |z|^4 / 24 (the sup sampled by G.derivative_bounds).  r_zone is
  the largest power of ten up to r0 where that bound, against the
  kernel's fourth moment, is small next to the tolerance and the other
  errors (_zone_cuts); a probe with r_zone = r0 skips the zone.
  Without exact jets to order 4 (closure leaves, positive parts), or
  once a refinement reruns the zone, r_zone = eps = 1e-10 and a bound
  from the third derivative covers |z| < eps;
- annulus r0 < |z| < R: log-radial Gauss-Legendre panels (times a
  trapezoid angular rule in 2d), with a fine/coarse Richardson pair;
- far field |z| > R: the integrand's tail metadata, exact for compact
  supports, certified bounds for decaying tails, and an Euler-Maclaurin
  periodic summation for trigonometric tails in 1d.

Every error also carries a round-off floor.  Probes whose error misses
the tolerance are refined alone.
singular_integral is a batch of one; singular_integral_batch returns
the per-probe values and errors.  apply_batch applies a kernel, an order
in [0, 1] or a measure on [0, 1] at a batch of probes through it.

Sign convention: apply_nonlocal(K, u, x) is the positive-definite form
int (u(x) - u(y)) K(x - y) dy, which for the standard power kernel is
the fractional Laplacian with Fourier symbol |xi|^{2s}.
"""

from functools import lru_cache

import numpy as np

from ._quad import (geometric_edges, panel_nodes, periodic_tail_1d,
                    gl_rule, row_dot)
from .kernels import (MeasureOnUnit, as_points, fractional_kernel,
                      sphere_directions)

__all__ = [
    "QuadraturePlan", "OperatorValue", "QuadratureFailure",
    "singular_integral", "singular_integral_batch", "apply_batch",
    "apply_nonlocal", "apply_fractional", "apply_superposition",
    "spectral_oracle", "spectral_oracle_batch",
    "assemble_discrete", "Lattice", "DiscreteOperatorDense",
]

R_INNER = 1e-2   # Taylor part below this radius, panels above
N_ANGULAR = 48   # trapezoid directions per radius in 2d
T_NODES = 6      # Gauss nodes of the Bochner segment integral
CHUNK = 16384    # integrand points per call, see _chunked
STENCIL_BYTES = 1 << 21  # bound on each gather temporary of apply_to_grid
ORACLE_DIRS = (6, 384)   # first and last direction count of the 2d oracle
EPS = np.finfo(float).eps


class QuadratureFailure(Exception):
    """Raised when the error estimate stays above tolerance; carries the
    partial result in .partial (an OperatorValue, or the (values,
    errors) arrays of a batch)."""

    def __init__(self, message, partial):
        super().__init__(message)
        self.partial = partial


class QuadraturePlan:
    """Knobs for the singular-integral quadrature.

    strict=False turns a tolerance miss after refinement into a returned
    value carrying its (honest, larger) error estimate instead of a
    QuadratureFailure; inequality checkers use that mode and absorb the
    error into their verdict budgets.
    """

    def __init__(self, panels_per_decade=6, order=16, rel_tol=1e-6,
                 max_refine=3, strict=True):
        self.panels_per_decade = panels_per_decade
        self.order = order
        self.rel_tol = rel_tol
        self.max_refine = max_refine
        self.strict = strict

    def scaled(self, **kw):
        return QuadraturePlan(**{**vars(self), **kw})


class OperatorValue(float):
    """A float carrying an error estimate and a contribution breakdown."""

    def __new__(cls, value, error, breakdown=None):
        obj = super().__new__(cls, value)
        obj.value = float(value)
        obj.error = float(error)
        obj.breakdown = breakdown or {}
        return obj

    def __repr__(self):
        return "OperatorValue(%.12g +- %.2g)" % (self.value, self.error)


def default_plan(n, rel_tol=None):
    if rel_tol is None:
        rel_tol = 1e-6 if n == 1 else 1e-4
    return QuadraturePlan(rel_tol=rel_tol,
                          panels_per_decade=6 if n == 1 else 5,
                          order=16 if n == 1 else 12)


def _pick_outer(kernel, G, xnorm, rel_tol):
    """Outer radius so the certified tail error at a probe with |x| =
    xnorm is a small fraction of the working tolerance (doubling search
    on the residual bound); it grows with xnorm."""
    if G.tail.period is not None:
        return max(16.0, 2.0 * xnorm + 8.0)
    R = max(8.0, 2.0 * xnorm + 4.0)
    scale = max(G.sup, 1e-30)
    for _ in range(14):
        tm, _ = kernel.tail_mass(R)
        if G.tail.resid(max(R - xnorm, 0.0)) * tm <= 0.003 * rel_tol * scale:
            break
        R *= 2.0
    return R


@lru_cache(maxsize=64)
def _radial_nodes(kernel, r_lo, r_hi, order, ppd, n_ang=N_ANGULAR):
    """Nodes z, kernel values K(z) and weights w with

        sum_k w_k F(z_k) K(z_k) ~ integral over r_lo < |z| < r_hi of F K

    for an even F: Gauss-Legendre panels on a geometric radial grid, on
    the positive half-line in 1d (weights doubled) and times a trapezoid
    rule over n_ang directions in 2d.  Cached, since the zone edges,
    outer radii and rules recur from call to call; the arrays are
    read-only.
    """
    t, wt = panel_nodes(geometric_edges(r_lo, r_hi, ppd), order)
    if kernel.n == 1:
        z = t.reshape(-1, 1)
        w = 2.0 * wt
    else:
        dirs = sphere_directions(2, n_ang)
        z = (t[:, None, None] * dirs[None]).reshape(-1, 2)
        w = np.repeat(wt * t * (2 * np.pi / n_ang), n_ang)
    out = z, kernel(z), w
    for a in out:
        a.flags.writeable = False
    return out


def _chunked(F, m, z):
    """F(rows, z) over all m probes and nodes z (k, n), as an (m, k)
    array; F maps a slice of the probes and some nodes to their values,
    paired over +-z.  F is called on groups of probes of at most CHUNK
    points, and on at most CHUNK // 8 nodes at one probe: that bounds
    the memory of the evaluation and keeps it in cache."""
    vals = np.empty((m, len(z)))
    step, nz = max(CHUNK // (2 * len(z)), 1), CHUNK // 8
    for i in range(0, m, step):
        for j in range(0, len(z), nz):
            vals[i:i + step, j:j + nz] = F(slice(i, i + step), z[j:j + nz])
    return vals


def _richardson(kernel, F, m, r_lo, r_hi, fine, coarse, n_ang=N_ANGULAR):
    """Fine and coarse (order, panels per decade) rules for the integral
    of F K over r_lo < |z| < r_hi at m probes (F as in _chunked), on one
    pass over the nodes of both.
    Returns (fine value, half the fine-coarse gap) per probe."""
    zf, kf, wf = _radial_nodes(kernel, r_lo, r_hi, *fine, n_ang)
    zc, kc, wc = _radial_nodes(kernel, r_lo, r_hi, *coarse, n_ang)
    vals = _chunked(F, m, np.concatenate([zf, zc]))
    f = row_dot(vals[:, :len(zf)] * kf, wf)
    c = row_dot(vals[:, len(zf):] * kc, wc)
    return f, np.abs(f - c) * 0.5 + 1e-300


def _both_signs(f, xs, z):
    """(f(x + z), f(x - z)) for every probe row x of xs and offset row z
    of z, from one call of f; each of shape (m, k, ...)."""
    m, k = xs.shape[0], z.shape[0]
    pts = np.concatenate([xs[:, None] + z, xs[:, None] - z], axis=1)
    out = f(pts.reshape(-1, xs.shape[1]))
    out = out.reshape((m, 2 * k) + out.shape[1:])
    return out[:, :k], out[:, k:]


def _bochner(G, xs, H, z):
    """Cubic remainder (G(x+z) + G(x-z))/2 - G(x) - z^T H z / 2 without
    cancellation, through the segment representation

        (G(x+z) + G(x-z))/2 - G(x)
            = (1/2) int_0^1 (1-t) [q(x+tz, z) + q(x-tz, z)] dt,

    q(y, z) = z^T D^2 G(y) z.  Noise scales with |z|^2 instead of with
    the sup norm of G, which is what the singular zone needs.
    """
    tq, wq = gl_rule(T_NODES)
    out = np.zeros((xs.shape[0], z.shape[0]))
    for t, w in zip(0.5 * (tq + 1.0), 0.5 * wq):
        Hp, Hm = _both_signs(G.hessian, xs, t * z)
        q = np.einsum("ki,mkij,kj->mk", z, Hp + Hm, z)
        out += 0.5 * w * (1.0 - t) * q
    return out - 0.5 * np.einsum("ki,mij,kj->mk", z, H, z)


def _integrate(kernel, G, xs, plan):
    """Paired PV integral of (G(x + z) - G(x)) K(z) dz at every probe
    row x of xs, shape (m, n).

    Returns a dict of per-probe arrays: value, error, the pieces inner,
    zone, annulus and tail, the outer radius r_outer, the zone's lower
    edge r_zone, the tolerance scale and a converged flag.  The first
    pass starts each probe's zone at its quartic cut (_zone_cuts).
    Probes that miss plan.rel_tol are refined alone: the annulus and the
    tail at a higher order with more panels per decade (and a 4x outer
    radius where the tail holds over half the error), the correction
    zone, from eps and uncut, only where its own error holds over half
    the tolerance.  After the last refinement a probe within 30x the
    tolerance still counts as converged.
    """
    m = xs.shape[0]
    gx, _, H = G.jet(xs, 2)
    # quadratic part against the exact second moment of the kernel
    M2, m2err = kernel.second_moment_matrix(R_INNER)
    inner = 0.5 * np.sum(H * M2, axis=(1, 2))
    inner_err = 0.5 * np.abs(H).sum(axis=(1, 2)) * m2err
    # below eps the remainder is O(|z|^3), bounded through D^3 G
    eps = 1e-8 * R_INNER
    d3, d4 = G.derivative_bounds(xs, R_INNER)
    below_err = d3 * kernel.third_abs_moment(eps) / 3.0
    # round-off: besides 64 eps times the pieces summed (as in the
    # oracle), the annulus subtracts G(x) against the kernel mass past
    # R_INNER, an ulp of G(x) per unit of mass
    roundoff = EPS * np.abs(gx) * kernel.tail_mass(R_INNER)[0]

    out = {"inner": inner, "zone": np.zeros(m), "r_zone": np.full(m, eps)}
    for key in ("value", "error", "annulus", "tail", "r_outer", "scale"):
        out[key] = np.empty(m)
    zone_err = np.zeros(m)
    todo, stale = np.arange(m), None
    order, ppd = plan.order, plan.panels_per_decade
    R = _pick_outer(kernel, G, float(np.linalg.norm(xs, axis=1).max()),
                    plan.rel_tol)
    for _ in range(plan.max_refine + 1):
        x, gxt = xs[todo], gx[todo]

        def paired(rows, z):
            p, q = _both_signs(G, x[rows], z)
            return 0.5 * (p + q) - gxt[rows, None]

        ann, ann_err = _richardson(kernel, paired, todo.size, R_INNER, R,
                                   (order, ppd),
                                   (max(order // 2, 4), max(ppd - 2, 2)))
        tail, tail_err = _tail(kernel, G, x, gxt, R)
        zo, zp = max(order - 8, 8), max(ppd - 2, 3)
        if stale is None:
            # first pass: cut each probe's zone where the quartic bound
            # is small against the tolerance and the other errors
            scale = _scale(inner + ann + tail,
                           np.abs(inner) + np.abs(ann) + np.abs(tail), G.sup)
            out["r_zone"], low_err = _zone_cuts(
                kernel, d4, np.minimum(
                    1e-3 * plan.rel_tol * scale,
                    0.1 * (inner_err + ann_err + tail_err + below_err)),
                eps, below_err)
            stale = np.arange(m)
        for r_lo in np.unique(out["r_zone"][stale]):
            if r_lo >= R_INNER:
                continue
            rows = stale[out["r_zone"][stale] == r_lo]
            zx, zh = xs[rows], H[rows]
            out["zone"][rows], zone_err[rows] = _richardson(
                kernel, lambda sl, z: _bochner(G, zx[sl], zh[sl], z),
                rows.size, r_lo, R_INNER, (zo, zp),
                (max(zo - 4, 4), max(zp - 1, 2)), N_ANGULAR // 3)
        zone = out["zone"][todo]
        value = inner[todo] + zone + ann + tail
        piece = np.abs(inner[todo]) + np.abs(zone) + np.abs(ann) \
            + np.abs(tail)
        error = inner_err[todo] + zone_err[todo] + low_err[todo] \
            + ann_err + tail_err + 64 * EPS * piece + roundoff[todo]
        scale = _scale(value, piece, G.sup)
        for key, v in (("value", value), ("error", error), ("annulus", ann),
                       ("tail", tail), ("r_outer", R), ("scale", scale)):
            out[key][todo] = v
        tol = plan.rel_tol * scale
        miss = ~((error <= tol) | (error < 1e-18 * max(1.0, G.sup)))
        todo = todo[miss]
        if todo.size == 0:
            break
        # the zone runs again, uncut, only where it holds over half the
        # tolerance; R grows where the tail holds over half the error
        stale = todo[zone_err[todo] > 0.5 * tol[miss]]
        out["r_zone"][stale], low_err[stale] = eps, below_err[stale]
        if np.any(tail_err[miss] > 0.5 * error[miss]):
            R *= 4
        order, ppd = order + 8, ppd + 3
    out["converged"] = np.ones(m, dtype=bool)
    out["converged"][todo] = (out["error"][todo]
                              <= 30 * plan.rel_tol * out["scale"][todo])
    return out


def _scale(value, piece, sup):
    """Tolerance scale of a value: near-cancellation leaves a tiny value,
    so the pieces integrated (the sum of their moduli) size it too."""
    return np.maximum(np.maximum(np.abs(value), 0.1 * piece),
                      max(sup * 1e-6, 1e-30))


def _zone_cuts(kernel, d4, budget, eps, below_err):
    """Lower edge of each probe's correction zone and the bound on the
    part below it.

    The paired remainder is even in z, so on B_r it is at most d4
    M_4(r) / 24, M_4 the kernel's fourth absolute moment on B_r and d4
    the sampled sup |D^4 G| on B_{R_INNER}.  The edge is the largest
    power of ten from R_INNER down to 10 eps where that bound is within
    the probe's budget, which it then replaces.  Elsewhere (always
    where d4 is inf) the zone starts at eps, with the cubic bound
    below_err below it.
    """
    edges = np.array([10.0 ** k for k in range(round(np.log10(R_INNER)),
                                              round(np.log10(eps)), -1)])
    quartic = d4[:, None] * kernel.fourth_abs_moment(edges) / 24.0
    ok = quartic <= budget[:, None]
    k, rows = np.argmax(ok, axis=1), np.arange(len(budget))
    cut = ok[rows, k]
    return (np.where(cut, edges[k], eps),
            np.where(cut, quartic[rows, k], below_err))


def singular_integral(kernel, G, x, plan=None):
    """Paired PV integral of (G(y) - G(x)) K(x - y) dy at one point x.

    A batch of one through the shared pipeline (module docstring).
    Returns an OperatorValue with the breakdown inner / zone / annulus /
    tail / r_inner / r_outer / r_zone and the tolerance scale in .scale;
    raises QuadratureFailure carrying that value as .partial if
    refinement cannot reach plan.rel_tol and plan.strict is set.
    """
    if plan is None:
        plan = default_plan(kernel.n)
    res = _integrate(kernel, G, as_points(x, kernel.n).reshape(1, -1), plan)
    r = {key: v[0] for key, v in res.items()}
    out = OperatorValue(r["value"], r["error"], {
        "inner": float(r["inner"]), "zone": float(r["zone"]),
        "annulus": float(r["annulus"]), "tail": float(r["tail"]),
        "r_inner": R_INNER, "r_outer": float(r["r_outer"]),
        "r_zone": float(r["r_zone"])})
    out.scale = float(r["scale"])
    if r["converged"] or not plan.strict:
        return out
    raise QuadratureFailure("error estimate %.2g above tolerance" % out.error,
                            out)


def singular_integral_batch(kernel, G, xs, plan=None):
    """singular_integral at every probe of xs, shape (m, n), in one pass.

    Returns (values, errors): each probe's error is its own Richardson,
    moment and tail estimate, and only the probes that miss the
    tolerance are refined.  With plan.strict, a probe left above
    tolerance raises QuadratureFailure whose .partial is the (values,
    errors) pair.
    """
    if plan is None:
        plan = default_plan(kernel.n)
    res = _integrate(kernel, G, as_points(xs, kernel.n), plan)
    values, errors = res["value"], res["error"]
    if plan.strict and not res["converged"].all():
        raise QuadratureFailure(
            "error estimate above tolerance at %d of %d probes"
            % (np.count_nonzero(~res["converged"]), values.size),
            (values, errors))
    return values, errors


def _tail(kernel, G, xs, gx, R):
    """Far-field contribution past |z| = R at every probe row of xs,
    from G's tail metadata; returns (values, errors)."""
    tm, tm_err = kernel.tail_mass(R)
    lim = G.tail.limit
    value = (lim - gx) * tm
    error = tm_err * (np.abs(lim - gx) + G.tail.resid(0.0) + G.tail.amp)
    resid = np.array([G.tail.resid(max(R - r, 0.0))
                      for r in np.linalg.norm(xs, axis=1)])
    if G.tail.period is not None and kernel.n == 1:
        def gtilde(t):
            p, q = _both_signs(G, xs, t[:, None])
            return (p + q) - 2.0 * lim

        e1 = np.array([1.0])
        ray = lambda t: kernel(t.reshape(-1, 1))
        ray_tail = lambda a: np.array([kernel.ray_tail(ai, e1)
                                       for ai in np.atleast_1d(a)])
        val, err = periodic_tail_1d(gtilde, G.tail.period, R, ray, ray_tail)
        value += val
        error += err + resid * tm
    else:
        error += resid * tm
    return value, error


# -- operator application -----------------------------------------------------

def apply_nonlocal(kernel, u, x, plan=None):
    """L_K u(x) = int (u(x) - u(y)) K(x - y) dy (paired PV form)."""
    si = singular_integral(kernel, u, x, plan)
    return OperatorValue(-si.value, si.error, si.breakdown)


_FRACTIONAL_CACHE = {}


def _cached_fractional(n, s):
    key = (n, round(float(s), 14))
    K = _FRACTIONAL_CACHE.get(key)
    if K is None:
        K = fractional_kernel(n, s)
        _FRACTIONAL_CACHE[key] = K
    return K


def apply_batch(op, u, xs, plan=None):
    """L u at every probe row of xs, shape (m, n): (values, errors).

    op is a Kernel (apply_nonlocal's paired PV form), an order s in
    [0, 1] ((-Delta)^s: u itself at 0 and -Laplacian u at 1, both exact
    with error 0) or a MeasureOnUnit (the weighted sum over its atoms,
    errors weighted the same way).  With plan.strict, a tolerance miss
    raises QuadratureFailure whose .partial is the (values, errors) pair
    of L u.
    """
    xs = as_points(xs, u.n)
    if isinstance(op, MeasureOnUnit):
        vals = errs = 0.0
        miss = None
        for s, w in op:
            try:
                v, e = apply_batch(s, u, xs, plan)
            except QuadratureFailure as exc:
                miss, (v, e) = exc, exc.partial
            vals, errs = vals + w * v, errs + w * e
        if miss is not None:
            raise QuadratureFailure(str(miss), (vals, errs))
        return vals, errs
    if np.isscalar(op):
        if not 0.0 <= op <= 1.0:
            raise ValueError("order must lie in [0, 1]")
        if op == 0.0:
            return u(xs), np.zeros(len(xs))
        if op == 1.0:
            return (-np.trace(u.hessian(xs), axis1=1, axis2=2),
                    np.zeros(len(xs)))
        op = _cached_fractional(u.n, op)
    try:
        values, errors = singular_integral_batch(op, u, xs, plan)
    except QuadratureFailure as exc:
        values, errors = exc.partial
        raise QuadratureFailure(str(exc), (-values, errors)) from None
    return -values, errors


def apply_fractional(s, u, x, plan=None):
    """(-Delta)^s u(x) for s in [0, 1]: apply_nonlocal inside (0, 1),
    with its breakdown, and apply_batch at one point at the ends."""
    if 0.0 < s < 1.0:
        return apply_nonlocal(_cached_fractional(u.n, s), u, x, plan)
    (v,), (e,) = apply_batch(s, u, as_points(x, u.n)[:1], plan)
    return OperatorValue(v, e, {"mode": "identity" if s == 0 else "laplacian"})


def apply_superposition(measure, u, x, plan=None):
    """L_mu u(x) = integral of (-Delta)^s u(x) over the measure's atoms:
    apply_batch at one point."""
    if not isinstance(measure, MeasureOnUnit):
        measure = MeasureOnUnit(measure)
    try:
        (v,), (e,) = apply_batch(measure, u, as_points(x, u.n)[:1], plan)
    except QuadratureFailure as exc:
        (v,), (e,) = exc.partial
        raise QuadratureFailure(str(exc), OperatorValue(v, e)) from None
    return OperatorValue(v, e)


# -- independent spectral oracle ----------------------------------------------

def spectral_oracle(s, u, x, rel_tol=1e-11):
    """(-Delta)^s u(x): spectral_oracle_batch at one point."""
    try:
        v = spectral_oracle_batch(s, u, as_points(x, u.n)[:1], rel_tol)
    except QuadratureFailure as exc:
        (v,), (e,) = exc.partial
        raise QuadratureFailure(str(exc), OperatorValue(v, e, {})) from None
    return float(v[0])


def spectral_oracle_batch(s, u, xs, rel_tol=1e-11):
    """(-Delta)^s u at the probe rows of xs, shape (m, n), through the
    Fourier symbol |xi|^{2s}; exact for trigonometric catalog functions.
    Otherwise Gauss-Legendre panels in |xi| on [1e-12 Xi, Xi] (Xi =
    u.fourier_radius), a fine/coarse pair and a finer rule where they
    disagree.  In 2d each radial node doubles a nested trapezoid rule in
    angle, 6 up to 384 directions (half of them, by conjugate symmetry),
    until its gap times its radial weight is at most 1e-16 A, A the
    rule's sum of |terms| on 6 directions; done nodes form a prefix in
    radius, and an unfinished node adds its gap to the error.  The error
    must stay below 100 rel_tol |value| (1e-8 after the finer rule) or
    64 eps A, else QuadratureFailure with .partial = (values, errors).
    The transform is evaluated once for all probes; each probe keeps its
    own levels and rules, so it gets the value of a scalar call.
    """
    if not 0.0 <= s <= 1.0:
        raise ValueError("order must lie in [0, 1]")
    xs = as_points(xs, u.n)
    if u.harmonics is not None:
        return sum(a * np.linalg.norm(k) ** (2 * s) * np.cos(xs @ k + p)
                   for a, k, p in u.harmonics) + np.zeros(len(xs))
    if u.fourier is None:
        raise ValueError("function is outside the closed-Fourier catalog")
    if s == 0.0:
        return u(xs)
    val, ang, A = _oracle_rule(s, u, xs, 8, 24)
    coarse, ang_c, _ = _oracle_rule(s, u, xs, 5, 12)
    floor = 64 * EPS * A
    err = np.abs(val - coarse) + ang + ang_c
    ok = err <= np.maximum(100 * rel_tol * np.abs(val), floor)
    redo = np.flatnonzero(~ok)
    if redo.size:
        fine2, ang2, _ = _oracle_rule(s, u, xs[redo], 12, 32)
        err[redo] = np.abs(fine2 - val[redo]) + ang2 + ang[redo]
        val[redo] = fine2
        ok[redo] = err[redo] <= np.maximum(1e-8 * np.abs(fine2), floor[redo])
    if not ok.all():
        raise QuadratureFailure(
            "spectral oracle did not converge at %d of %d probes"
            % (np.count_nonzero(~ok), ok.size), (val, err))
    return val


@lru_cache(maxsize=8)
def _oracle_nodes(ppd, order):
    """Nodes and weights of the oracle's radial rule for Xi = 1."""
    return panel_nodes(geometric_edges(1e-12, 1.0, ppd), order)


def _oracle_rule(s, u, xs, ppd, order):
    """One radial rule of the oracle at the rows of xs: (values, angular
    errors, A) per probe, A the sum of the |terms| of its first level."""
    t, wt = (u.fourier_radius * a for a in _oracle_nodes(ppd, order))
    m = xs.shape[0]

    def level(k0, dirs):
        """Sums over dirs of Re(u^(xi) e^{i xi.x}) and of its modulus, at
        xi = t_k dir for the radial nodes k >= k0: shape (2, m, K - k0)."""
        xi = (t[k0:, None, None] * dirs).reshape(-1, u.n)
        ft = u.fourier(xi)
        out = np.empty((2, m, t.size - k0))
        step = max(STENCIL_BYTES // (8 * xi.shape[0]), 1)
        for a in range(0, m, step):
            ph = sum(xs[a:a + step, i, None] * xi[:, i] for i in range(u.n))
            g = (ft.real * np.cos(ph) - ft.imag * np.sin(ph)).reshape(
                len(ph), -1, len(dirs))
            out[:, a:a + step] = g.sum(axis=2), np.abs(g).sum(axis=2)
        return out

    # S sums the N / 2 directions of a half sphere and a node's term is
    # c S / N, c = w t^{n-1+2s} 2 |S^{n-1}| / (2 pi)^n = w t^{n-1+2s} 2/(n pi)
    c = wt * t ** (u.n - 1 + 2 * s) * 2 / (u.n * np.pi)
    N, cap = ORACLE_DIRS if u.n == 2 else (2, 2)
    S, absS = level(0, sphere_directions(u.n, N)[:N // 2])
    A, mean = row_dot(absS, c) / N, S / N
    done, gap = np.zeros((m, t.size), dtype=bool), np.zeros((m, t.size))
    while N < cap and not done.all():
        k0, N = int(done.sum(axis=1).min()), 2 * N
        S[:, k0:] += level(k0, sphere_directions(2, N)[1:N // 2:2])[0]
        live = ~done[:, k0:]
        gap[:, k0:] = np.abs(S[:, k0:] / N - mean[:, k0:]) * c[k0:] * live
        mean[:, k0:] = np.where(live, S[:, k0:] / N, mean[:, k0:])
        done[:, k0:] = np.logical_and.accumulate(
            ~live | (gap[:, k0:] <= 1e-16 * A[:, None]), axis=1)
    return row_dot(mean, c), np.sum(gap * ~done, axis=1), A


# -- monotone discretization --------------------------------------------------

class Lattice:
    """Uniform lattice over [-L, L]^n with a Dirichlet ball of radius R."""

    def __init__(self, n, L, N, R_dom):
        if N % 2 == 0:
            raise ValueError("use an odd node count so the origin is a node")
        self.n, self.L, self.N, self.R_dom = int(n), float(L), int(N), float(R_dom)
        if R_dom >= L:
            raise ValueError("domain ball must sit inside the box")
        self.axis = np.linspace(-L, L, N)
        self.h = self.axis[1] - self.axis[0]
        if n == 1:
            self.nodes = self.axis.reshape(-1, 1)
        else:
            X, Y = np.meshgrid(self.axis, self.axis, indexing="ij")
            self.nodes = np.stack([X.ravel(), Y.ravel()], axis=1)
        rad = np.linalg.norm(self.nodes, axis=1)
        self.interior = np.where(rad < R_dom - 1e-12)[0]
        self.n_int = self.interior.size


def _cell_masses_1d(kernel, h, kmax):
    """Integrals of K over the dual cells [(k-1/2)h, (k+1/2)h], k=1..kmax."""
    x, w = gl_rule(8)
    k = np.arange(1, kmax + 1)
    mid = k * h
    pts = (mid[:, None] + 0.5 * h * x[None, :]).ravel()
    vals = kernel(pts.reshape(-1, 1)).reshape(kmax, -1)
    return 0.5 * h * vals @ w


def _stencil(op, lattice):
    """(W, t, far, offsets, masses) of a Kernel or an order in [0, 1]:
    the full weight array, the mass acting on u(x_i) alone, the far
    field as (weight, kernel) pairs, and the half stencil of a kernel
    (None for the local stencils of orders 0 and 1)."""
    h, n = lattice.h, lattice.n
    if np.isscalar(op):
        if not 0.0 <= op <= 1.0:
            raise ValueError("order must lie in [0, 1]")
        if op == 0.0:
            # L u = u: an empty stencil whose whole mass acts on u(x_i)
            return np.zeros((1,) * n), 1.0, [], None, None
        if op == 1.0:
            # L u = -Lap u: weight 1/h^2 at the 2n axis neighbours
            W = np.zeros((3,) * n)
            for axis in range(n):
                at = [1] * n
                at[axis] = slice(None, None, 2)
                W[tuple(at)] = 1.0 / h ** 2
            return W, 0.0, [], None, None
    kernel = _cached_fractional(n, op) if np.isscalar(op) else op
    kmax = int(np.ceil(max(4 * lattice.L, 8.0) / h))
    M2, _ = kernel.second_moment_matrix(h / 2)
    if n == 1:
        offsets = np.arange(1, kmax + 1).reshape(-1, 1)
        masses = _cell_masses_1d(kernel, h, kmax)
        masses[0] += 0.5 * M2[0, 0] / h ** 2
    else:
        ks = np.arange(-kmax, kmax + 1)
        KX, KY = np.meshgrid(ks, ks, indexing="ij")
        cells = np.stack([KX.ravel(), KY.ravel()], axis=1)
        cells = cells[np.sum(cells * cells, axis=1) <= (kmax + 0.5) ** 2]
        # keep only one of each +-pair: evenness makes them equal
        offsets = cells[(cells[:, 0] > 0)
                        | ((cells[:, 0] == 0) & (cells[:, 1] > 0))]
        x, w = gl_rule(4)
        gx, gy = np.meshgrid(x, x, indexing="ij")
        sub = np.stack([gx.ravel(), gy.ravel()], axis=1) * 0.5 * h
        subw = np.outer(w, w).ravel() * (0.25 * h * h)
        pts = (offsets[:, None, :] * h + sub[None, :, :]).reshape(-1, 2)
        masses = kernel(pts).reshape(offsets.shape[0], -1) @ subw
        # singular cell: eigen-split of the second moment onto lattice
        # directions (axis and diagonal stencils keep the scheme monotone)
        evals, evecs = np.linalg.eigh(M2)
        cand = np.array([[1, 0], [0, 1], [1, 1], [1, -1]])
        candu = cand / np.linalg.norm(cand, axis=1, keepdims=True)
        pick = np.argmax(np.abs(evecs.T @ candu.T), axis=1)
        extra = np.zeros(len(cand))
        np.add.at(extra, pick,
                  0.5 * evals / (np.sum(cand[pick] ** 2, axis=1) * h * h))
        at = [np.flatnonzero(np.all(offsets == c, axis=1))[0] for c in cand]
        masses[at] += extra
    if np.any(masses < 0):
        raise ValueError("negative cell weight; discretization not monotone")
    W = np.zeros((2 * kmax + 1,) * n)
    W[tuple((kmax + offsets).T)] = masses
    W += np.flip(W)
    return (W, kernel.tail_mass((kmax + 0.5) * h)[0], [(1.0, kernel)],
            offsets, masses)


def assemble_discrete(op, lattice, exterior):
    """Monotone difference-form discretization of L on the lattice (the
    finite difference-quadrature scheme of Huang & Oberman), for op a
    Kernel, an order s in [0, 1] or a MeasureOnUnit, as for apply_batch.

    For a kernel, the weight of lattice offset k is the kernel mass of
    its dual cell, for every offset out to R_far = max(4 L, 8), so the
    stencil covers the difference of any two interior nodes.  The
    singular cell is folded into the nearest-neighbor weights (on axis
    and diagonal directions in 2d) through a Taylor-consistent
    second-moment correction; the kernel mass beyond R_eff = (kmax +
    1/2) h acts on u(x_i) alone and, through the exterior data, as a
    far-field integral (_far_data_integral, cut where its certified
    remainder is round-off).  An order in (0, 1) is its fractional
    kernel; order 0 is the identity and order 1 the 3/5-point
    Laplacian.  A measure is the sum of its atoms' stencils times their
    weights: kmax depends only on the lattice, so its kernel atoms share
    R_eff.  Constants are annihilated exactly and all off-diagonal
    entries stay nonpositive.  Returns a DiscreteOperatorDense; for a
    kernel, its offsets and masses are the half stencil (one offset of
    each +-pair).
    """
    if not isinstance(op, MeasureOnUnit):
        W, t, far, offsets, masses = _stencil(op, lattice)
        return DiscreteOperatorDense(lattice, W, exterior, t, far, offsets,
                                     masses)
    parts = [(w, _stencil(s, lattice)) for s, w in op]
    k = max(st[0].shape[0] for _, st in parts) // 2
    W = sum(w * np.pad(st[0], k - st[0].shape[0] // 2) for w, st in parts)
    t = sum(w * st[1] for w, st in parts)
    far = [(w * wk, K) for w, st in parts for wk, K in st[2]]
    return DiscreteOperatorDense(lattice, W, exterior, t, far)


def _far_data_integral(kernel, exterior, xs, R):
    """integral of exterior(x + z) K(z) over |z| > R (paired form) at
    every row x of xs: the tail metadata, plus the residual where it is
    not known to vanish, on the radial rule out to 1e5 R (order 8, 3
    panels per decade) cut at its first edge e with resid(e - max|x|)
    tail_mass(e) <= eps min_x resid(R - |x|) tail_mass(R); resid(r)
    bounds the residual on |y| >= r, so the cut drops only round-off."""
    if exterior.tail.period is not None:
        return _tail(kernel, exterior, xs, np.zeros(len(xs)), R)[0]
    val = np.full(len(xs), exterior.tail.limit * kernel.tail_mass(R)[0])
    xn = np.linalg.norm(xs, axis=1)
    resid = np.array([exterior.tail.resid(max(R - r, 0.0)) for r in xn])
    rows = np.flatnonzero(resid > 0)
    if rows.size == 0:
        return val
    z, kz, w = _radial_nodes(kernel, R, R * 1e5, 8, 3)
    edges, xmax = geometric_edges(R, R * 1e5, 3), xn[rows].max()
    floor = np.finfo(float).eps * resid[rows].min() * kernel.tail_mass(R)[0]
    keep = next((j for j, e in enumerate(edges[1:-1], 1)
                 if exterior.tail.resid(max(e - xmax, 0.0))
                 * sum(kernel.tail_mass(e)) <= floor), len(edges) - 1)
    k = keep * len(z) // (len(edges) - 1)
    z, kz, w = z[:k], kz[:k], w[:k]

    def paired(sl, zz):
        p, q = _both_signs(exterior, x[sl], zz)
        return 0.5 * (p + q) - exterior.tail.limit

    # groups of probes keep the (probes, nodes) value array small
    step = max(STENCIL_BYTES // (8 * len(z)), 1)
    for a in range(0, rows.size, step):
        group = rows[a:a + step]
        x = xs[group]
        val[group] += row_dot(_chunked(paired, group.size, z) * kz, w)
    return val


class DiscreteOperatorDense:
    """A translation-invariant stencil on a lattice, as a dense interior
    matrix A plus an affine exterior vector b:

        (L u)(x_i) ~ (A u_int + b)_i
                   = t u_i + sum_k W_k (u_i - u_{i+k}) - far_i,

    W the full symmetric weight array of side 2 k + 1 (zero at its
    center), t = tail_mass_far the mass acting on u_i alone, and far_i
    = sum of c_K times the far-field integral of the exterior data with
    kernel K past R_eff = (k + 1/2) h, over the (c_K, K) pairs of far
    (empty for a local stencil).  A[i, j] = -W[j - i] off the diagonal
    and t + sum W on it, so A is symmetric and monotone (off-diagonals
    <= 0); b is apply_to_grid of the exterior data with the interior
    zeroed.  offsets and masses keep the half stencil a kernel's
    weights came from.
    """

    def __init__(self, lattice, W, exterior, tail_mass_far=0.0, far=(),
                 offsets=None, masses=None):
        lat = lattice
        n, k = lat.n, W.shape[0] // 2
        self.lattice, self.W, self.exterior = lat, W, exterior
        self.tail_mass_far, self.far = tail_mass_far, list(far)
        self.R_eff = (k + 0.5) * lat.h if self.far else None
        self.offsets, self.masses = offsets, masses
        idx = np.stack(np.unravel_index(lat.interior, (lat.N,) * n), axis=1)
        # the band of lattice indices the stencil reaches from the
        # interior: the neighbours of interior node i are the window of
        # W's shape at band index idx_i - min(idx)
        lo = idx.min(axis=0) - k
        self._side = tuple(idx.max(axis=0) + k + 1 - lo)
        self._starts = idx - idx.min(axis=0)
        band = np.indices(self._side).reshape(n, -1).T + lo
        in_box = np.all((band >= 0) & (band < lat.N), axis=1)
        self._box = np.flatnonzero(in_box)
        self._box_nodes = np.ravel_multi_index(band[in_box].T, (lat.N,) * n)
        # the closure is evaluated only out to the stencil's reach; the
        # band points past it stay 0 and meet only zero weights
        pts = lat.axis[0] + band * lat.h
        reach = lat.R_dom + lat.h * (np.linalg.norm(
            np.argwhere(W != 0) - k, axis=1).max(initial=0) + 1)
        beyond = ~in_box & (np.linalg.norm(pts, axis=1) < reach)
        self._beyond, self._beyond_pts = np.flatnonzero(beyond), pts[beyond]

        # A[i, j] = -W[idx_j - idx_i], from W padded to cover every
        # difference of two interior nodes
        kA = max(k, int(np.max(idx.max(axis=0) - idx.min(axis=0))))
        Wp = np.pad(W, kA - k).ravel()
        sp = (2 * kA + 1) ** np.arange(n - 1, -1, -1)
        fi = idx @ sp
        self.A = -Wp[fi[None, :] - fi[:, None] + kA * sp.sum()]
        np.fill_diagonal(self.A, tail_mass_far + W.sum())
        vals = exterior(lat.nodes)
        vals[lat.interior] = 0.0
        self.b = self.apply_to_grid(vals, exterior)

    def apply(self, u_int):
        return self.A @ u_int + self.b

    def full_values(self, u_int):
        """Lattice-wide value vector: solution inside, closure data outside."""
        lat = self.lattice
        vals = self.exterior(lat.nodes)
        vals[lat.interior] = u_int
        return vals

    def apply_to_grid(self, values_full, closure):
        """Stencil action on an arbitrary grid function, in difference
        form, so constants are annihilated exactly.

        values_full: values at every lattice node; closure: SmoothFunction
        supplying values beyond the box (evaluated once, on the lattice
        points the stencil reaches) and the far-field integral.  Returns
        the operator values at the interior nodes; interior rows are
        gathered in chunks of at most STENCIL_BYTES per temporary.
        """
        lat, w = self.lattice, self.W.ravel()
        G = np.zeros(self._side)
        G.flat[self._box] = values_full[self._box_nodes]
        if self._beyond.size:
            G.flat[self._beyond] = closure(self._beyond_pts)
        windows = np.lib.stride_tricks.sliding_window_view(G, self.W.shape)
        v = values_full[lat.interior]
        out = self.tail_mass_far * v
        step = max(STENCIL_BYTES // (8 * w.size), 1)
        for a in range(0, v.size, step):
            d = windows[tuple(self._starts[a:a + step].T)].reshape(-1, w.size)
            np.subtract(v[a:a + step, None], d, out=d)
            out[a:a + step] += d @ w
        for c, K in self.far:
            out -= c * _far_data_integral(K, closure, lat.nodes[lat.interior],
                                          self.R_eff)
        return out
