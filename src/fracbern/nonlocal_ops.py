"""Pointwise evaluation of the integro-differential operators.

The single quadrature pipeline is _integrate: the paired principal-value
integral of G(x + z) K(z) dz for a tuple of integrands G (SmoothFunctions)
vanishing at z = 0, evaluated at a whole array of probes x at once.
Pairing z with -z removes the principal value for even kernels.  Every
stage runs vectorized over the (probe, integrand) rows and gives each
its own error estimate; the integrands of one pass share its point sets
and jet calls, so a subexpression they share is evaluated once, and each
keeps the value and error a call with it alone gives:

- inner ball |z| < r0: the quadratic Taylor part against the exact
  kernel second moment;
- correction zone r_zone < |z| < r0: the cubic remainder as one radial
  rule of Hessian pairs (_quad.zone_rule), with a fine/coarse pair;
- below r_zone: the paired remainder is even in z.  In 1d its quartic
  Taylor term D^4 G(x) z^4 / 24 is integrated exactly against the
  kernel's fourth moment, and the rest is at most sup |D^6 G| |z|^6 /
  720; in 2d the whole is at most sup |D^4 G| |z|^4 / 24 (the sups
  sampled by G.derivative_bounds, whose jet call, shared by the tuple,
  also gives the jet at x).  r_zone is the largest power of ten up to r0 where that bound,
  against the kernel's absolute moment, is small next to the tolerance
  and the other errors (_zone_cuts); a probe with r_zone = r0 skips the
  zone.  Every refinement pass cuts again against its own errors: a
  probe whose edge falls reruns its zone from there.  Without exact
  jets (closure leaves, positive parts), or once the zone's own error
  holds over half the tolerance, r_zone = eps = 1e-10, with no quartic
  term, and a bound from the third derivative covers |z| < eps;
- annulus r0 < |z| < R: log-radial Gauss-Legendre panels times the
  half-sphere angular rule (_quad.radial_rule), with a fine/coarse
  Richardson pair;
- far field |z| > R: the integrand's tail metadata, exact for compact
  supports, certified bounds for decaying tails, and an Euler-Maclaurin
  periodic summation for trigonometric tails in 1d.

Every paired integrand and every kernel is even in z, so each radial
rule evaluates one direction of each +-pair (_quad.half_sphere).
Every error also carries a round-off floor.  Rows whose error misses
the tolerance are refined alone.

Every entry formats one batch result (_lu): arrays of (probe,
function), signed as L u, of value, error, tol (what the error is held
to) and converged, and for a kernel the pieces inner, quartic, zone,
annulus and tail (summing to value), r_outer, r_zone and scale.
Pointwise entries index it, batch entries return (values, errors), one
pair per function for apply_batch of a tuple; both singular_integral
entries negate it.  One function, _settle, raises QuadratureFailure,
for a strict plan and a missed probe; its .partial is the lenient
return: what the same call returns with strict=False.

Sign convention: apply_nonlocal(K, u, x) is the positive-definite form
int (u(x) - u(y)) K(x - y) dy, which for the standard power kernel is
the fractional Laplacian with Fourier symbol |xi|^{2s}.
"""

from collections import OrderedDict
from functools import lru_cache, partial
from math import factorial, isqrt

import numpy as np

from ._quad import (CHUNK, _read_only, geometric_edges, half_sphere,
                    jacobi_rule, panel_nodes, periodic_tail_1d, gl_rule,
                    radial_rule, row_dot, sq_norms, zone_rule)
from .funcspace import _derivative_bounds, _jets
from .kernels import MeasureOnUnit, as_points, fractional_kernel

__all__ = [
    "QuadraturePlan", "OperatorValue", "QuadratureFailure",
    "singular_integral", "singular_integral_batch", "apply_batch",
    "apply_nonlocal", "apply_fractional",
    "spectral_oracle", "spectral_oracle_batch",
    "assemble_discrete", "Lattice", "StencilPlan", "DiscreteOperatorDense",
]

R_INNER = 1e-2   # Taylor part below this radius, panels above
N_ANGULAR = 48   # trapezoid directions per radius in 2d, half evaluated
# bound on each (probes, nodes) temporary of the far field and the oracle
STENCIL_BYTES = 1 << 21
# bytes of the stencil plans assemble_discrete keeps (least recently used
# out first); a larger plan is built for its call and not kept
PLAN_BYTES = 1 << 25
ORACLE_DIRS = (6, 384)   # first and last direction count of the 2d oracle
ORACLE_HEAD = 1e-2       # the oracle's Gauss-Jacobi head panel is [0, 1e-2 Xi]
EPS = np.finfo(float).eps
# the result entries that _lu signs as L u: the value and its pieces
PIECES = ("value", "inner", "quartic", "zone", "annulus", "tail")


class QuadratureFailure(Exception):
    """An error estimate above tolerance under a strict plan.  .partial
    is what the same call returns with strict=False, signed alike; the
    spectral oracle, with no lenient mode, carries its OperatorValue or
    its (values, errors)."""

    def __init__(self, message, partial):
        super().__init__(message)
        self.partial = partial


class QuadraturePlan:
    """Knobs for the singular-integral quadrature.

    strict decides only what a tolerance miss after refinement does:
    strict=False returns the value with its (honest, larger) error
    estimate, strict=True raises QuadratureFailure carrying that same
    return as .partial.  Inequality checkers use the lenient mode and
    absorb the error into their verdict budgets.
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

    def __str__(self):
        return repr(self.value)


def default_plan(n):
    return QuadraturePlan(rel_tol=1e-6 if n == 1 else 1e-4,
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


def _chunks(F, m, z, width, points):
    """F(sl, zz) over m probes and the nodes z, a slice of the probes and
    a block zz of the nodes at a time: yields (slice, values), nodes
    last.  A call covers at most the given points (2 per probe and node)
    and CHUNK (point, integrand) pairs for width integrands, CHUNK // 4
    at one probe.  A pass's CHUNK // 2 points make a 1d value array of
    64 KB, half glibc's default mmap threshold, above which every call of
    a batch would map and fault in fresh pages."""
    nz = max(CHUNK // (8 * width), 1)
    step = max(min(points, CHUNK // width) // (2 * len(z)), 1)
    for i in range(0, m, step):
        sl = slice(i, min(i + step, m))
        vals = [F(sl, z[j:j + nz]) for j in range(0, len(z), nz)]
        yield sl, vals[0] if len(vals) == 1 else np.concatenate(vals, -1)


def _richardson(rule, F, m, width, fine, coarse, n_ang):
    """Fine and coarse (order, panels per decade) members of a rule
    (radial_rule or zone_rule, its first arguments bound) on n_ang
    directions for sum w F k, on one pass over the nodes of both; F as
    in _chunks, values (probes, width, k), each slice reduced as it
    comes.  Returns (fine value, half the fine-coarse gap), probe-major."""
    zf, kf, wf = rule(*fine, n_ang)
    zc, kc, wc = rule(*coarse, n_ang)
    z, nf = np.concatenate([zf, zc]), len(zf)
    f, c = np.empty(m * width), np.empty(m * width)
    for sl, vals in _chunks(F, m, z, width, CHUNK // 2):
        v, rows = vals.reshape(-1, len(z)), slice(sl.start * width,
                                                  sl.stop * width)
        f[rows] = row_dot(v[:, :nf] * kf, wf)
        c[rows] = row_dot(v[:, nf:] * kc, wc)
    return f, np.abs(f - c) * 0.5 + 1e-300


def _points(xs, z):
    """x + z, then x - z, for every probe row x of xs and offset row z of
    z: shape (m * 2k, n), probe by probe."""
    (m, n), k = xs.shape, z.shape[0]
    # one coordinate at a time: numpy broadcasts slowly over a short
    # last axis
    pts = np.empty((m, 2 * k, n))
    for i in range(n):
        np.add(xs[:, i, None], z[:, i], out=pts[:, :k, i])
        np.subtract(xs[:, i, None], z[:, i], out=pts[:, k:, i])
    return pts.reshape(-1, n)


def _both_signs(f, xs, z):
    """(f(x + z), f(x - z)) for every probe row x of xs and offset row z
    of z, from one call of f; each of shape (m, k, ...)."""
    out = f(_points(xs, z))
    out = out.reshape((xs.shape[0], 2, len(z)) + out.shape[1:])
    return out[:, 0], out[:, 1]


def _paired(Gs, xs, gx, z):
    """(G(x + z) + G(x - z)) / 2 - G(x) for every G of the tuple Gs, gx
    its values (m, len(Gs)) at the probe rows x of xs, from one jet
    call: shape (m, len(Gs), k)."""
    m, k = xs.shape[0], len(z)
    out = np.empty((m, len(Gs), k))
    for i, J in enumerate(_jets(Gs, _points(xs, z), 0)):
        v, o = J[0].reshape(m, 2, k), out[:, i]
        # in place: a (probes, nodes) temporary can cost page faults
        np.add(v[:, 0], v[:, 1], out=o)
        o *= 0.5
        o -= gx[:, i, None]
    return out


def _bochner(Gs, xs, H, z):
    """z^T (D^2 G(x+z) + D^2 G(x-z) - 2 H) z, the zone's integrand
    (_quad.zone_rule), for every G of the tuple Gs, H its Hessians (m,
    len(Gs), n, n) at the probe rows x of xs, from one jet call: shape
    (m, len(Gs), k).  Differenced before the contraction, so noise
    scales with |z|^2, not with sup |G|; summed in one order per point."""
    (m, W), (k, n) = H.shape[:2], z.shape
    zz = (z[:, :, None] * z[:, None, :]).reshape(k, -1)
    out = np.empty((m, W, k))
    for i, J in enumerate(_jets(Gs, _points(xs, z), 2)):
        D = J[2].reshape(m, 2, k, n * n)
        A = D[:, 0] + D[:, 1] - 2.0 * H[:, i].reshape(m, 1, -1)
        out[:, i] = sum(A[..., j] * zz[:, j] for j in range(n * n))
    return out


def _rows(arrays):
    """Per-integrand arrays of m probes as one of the probe-major rows."""
    return arrays[0] if len(arrays) == 1 else np.stack(arrays, 1).reshape(
        (-1,) + arrays[0].shape[1:])


def _groups(rows, S, key):
    """The rows (probe-major indices of (probe, integrand) pairs, S
    integrands) by key: (key, probes P, integrands U, at, pos), at their
    positions in rows and pos in the probe-major product of P and U.  A
    pass evaluates the product and keeps the rows; values are per point,
    so bits are kept."""
    for k in sorted(set(key.tolist())):
        at = np.flatnonzero(key == k)
        p, g = np.divmod(rows[at], S)
        if S == 1:
            yield k, p, g[:1], at, np.arange(at.size)
            continue
        # p is sorted, as the rows are
        P = p[np.flatnonzero(np.diff(p, prepend=-1))]
        U = np.flatnonzero(np.bincount(g, minlength=S))
        yield k, P, U, at, np.searchsorted(P, p) * len(U) \
            + np.searchsorted(U, g)


def _integrate(kernel, Gs, xs, plan):
    """Paired PV integral of (G(x + z) - G(x)) K(z) dz for every G of the
    tuple Gs (or for one G) at every probe row x of xs, shape (m, n).

    Returns the batch result's arrays but tol (module docstring), each
    of shape (m, len(Gs)) and signed as this integral: quartic is the
    Taylor term below the zone's lower edge r_zone (1d only).  Every
    pass starts each of its probes' zones at the cut against that
    pass's errors (_zone_cuts: sextic in 1d, quartic in 2d), and reruns
    a zone, with its quartic term, whose edge falls.  Probes that miss
    plan.rel_tol are refined alone: the annulus and the tail at a higher
    order with more panels per decade (and a 4x outer radius where the
    tail holds over half the error), the correction zone, from eps,
    uncut and without a quartic term, where its own error holds over
    half the tolerance.  After the last refinement a probe within 30x
    the tolerance still counts as converged.

    Rows are (probe, G) pairs, probe-major; each G keeps its own outer
    radius, sup, tail, exact_jets and zone cuts, so its column is what a
    call with it alone gives.  A pass groups its rows by outer radius and
    by zone edge (_groups), a group's Gs sharing each jet call.
    """
    Gs = Gs if isinstance(Gs, tuple) else (Gs,)
    (m, n), S = xs.shape, len(Gs)
    bounds = _derivative_bounds(Gs, xs, R_INNER)
    gx, H = (_rows([J[j] for J, _ in bounds]) for j in (0, 2))
    sup = np.array([G.sup for G in Gs] * m)
    # quadratic part against the exact second moment of the kernel
    M2, m2err = kernel.second_moment_matrix(R_INNER)
    inner = 0.5 * np.sum(H * M2, axis=(1, 2))
    inner_err = 0.5 * np.abs(H).sum(axis=(1, 2)) * m2err
    # below eps the remainder is O(|z|^3), bounded through D^3 G
    eps = 1e-8 * R_INNER
    below_err = _rows([sups[0] for _, sups in bounds]) \
        * kernel.abs_moment(3, eps) / 3.0
    # the sup the zone cut bounds with: D^6 G in 1d, where the cut adds
    # the quartic Taylor term D^4 G(x) exactly, and D^4 G in 2d; without
    # exact jets it is inf, and the zone is never cut
    top = _rows([sups[-1] if G.exact_jets else np.full(m, np.inf)
                 for G, (_, sups) in zip(Gs, bounds)])
    d4x = None if n != 1 else _rows([J[4].reshape(m) if G.exact_jets
                                     else np.zeros(m)
                                     for G, (J, _) in zip(Gs, bounds)])
    # round-off: besides 64 eps times the pieces summed (as in the
    # oracle), the annulus subtracts G(x) against the kernel mass past
    # R_INNER, an ulp of G(x) per unit of mass
    roundoff = EPS * np.abs(gx) * kernel.tail_mass(R_INNER)[0]
    gx2, H2 = gx.reshape(m, S), H.reshape(m, S, n, n)

    # r_zone starts above every edge, so the first cut reruns every zone
    rows = m * S
    out = {"inner": inner, "quartic": np.zeros(rows), "zone": np.zeros(rows),
           "r_zone": np.full(rows, np.inf)}
    for key in ("value", "error", "annulus", "tail", "r_outer", "scale"):
        out[key] = np.empty(rows)
    zone_err, low_err, tail_err = np.zeros(rows), np.zeros(rows), \
        np.zeros(rows)
    probe, root = np.divmod(np.arange(rows), S)
    todo, uncut = np.arange(rows), np.arange(0)
    order, ppd = plan.order, plan.panels_per_decade
    xnorm = float(np.sqrt(sq_norms(xs)).max())
    R = np.array([_pick_outer(kernel, G, xnorm, plan.rel_tol) for G in Gs])
    grow = range(S)
    for it in range(plan.max_refine + 1):
        r_outer = R[root[todo]]
        ann, ann_err = np.empty((2, todo.size))
        for r_hi, P, U, at, pos in _groups(todo, S, r_outer):
            Us, xg, gg = tuple(Gs[g] for g in U), xs[P], gx2[P][:, U]
            v, e = _richardson(
                partial(radial_rule, kernel, R_INNER, r_hi),
                lambda sl, z: _paired(Us, xg[sl], gg[sl], z),
                len(P), len(U), (order, ppd),
                (max(order // 2, 4), max(ppd - 2, 2)), N_ANGULAR)
            ann[at], ann_err[at] = v[pos], e[pos]
        # the tails, per G, where its outer radius is new
        for g in grow:
            at = todo[root[todo] == g]
            out["tail"][at], tail_err[at] = _tail(kernel, Gs[g], xs[probe[at]],
                                                  gx[at], float(R[g]))
        tail, t_err = out["tail"][todo], tail_err[todo]
        zo, zp = max(order - 8, 8), max(ppd - 2, 3)
        # cut each probe's zone where the quartic bound is small against
        # the tolerance and this pass's other errors; the zone reruns
        # where that edge falls, and uncut where it was marked so
        inn = inner[todo]
        scale = _scale(inn + ann + tail,
                       np.abs(inn) + np.abs(ann) + np.abs(tail), sup[todo])
        r_cut, r_err, r_quartic = _zone_cuts(
            kernel, top[todo], None if d4x is None else d4x[todo],
            np.minimum(1e-3 * plan.rel_tol * scale,
                       0.1 * (inner_err[todo] + ann_err + t_err
                              + below_err[todo])),
            eps, below_err[todo])
        falls = r_cut < out["r_zone"][todo]
        rerun = todo[falls]
        out["r_zone"][rerun], low_err[rerun] = r_cut[falls], r_err[falls]
        out["quartic"][rerun] = r_quartic[falls]
        rerun = np.union1d(rerun, uncut) if uncut.size else rerun
        rerun = rerun[out["r_zone"][rerun] < R_INNER]
        for r_lo, P, U, at, pos in _groups(rerun, S, out["r_zone"][rerun]):
            Us, xg, Hg = tuple(Gs[g] for g in U), xs[P], H2[P][:, U]
            v, e = _richardson(
                partial(zone_rule, kernel, r_lo, R_INNER),
                lambda sl, z: _bochner(Us, xg[sl], Hg[sl], z),
                len(P), len(U), (zo, zp),
                (max(zo - 4, 4), max(zp - 1, 2)), N_ANGULAR // 3)
            out["zone"][rerun[at]], zone_err[rerun[at]] = v[pos], e[pos]
        zone, quartic = out["zone"][todo], out["quartic"][todo]
        value = inn + quartic + zone + ann + tail
        piece = np.abs(inn) + np.abs(quartic) + np.abs(zone) + np.abs(ann) \
            + np.abs(tail)
        error = inner_err[todo] + zone_err[todo] + low_err[todo] \
            + ann_err + t_err + 64 * EPS * piece + roundoff[todo]
        scale = _scale(value, piece, sup[todo])
        for key, v in (("value", value), ("error", error), ("annulus", ann),
                       ("r_outer", r_outer), ("scale", scale)):
            out[key][todo] = v
        tol = plan.rel_tol * scale
        miss = ~((error <= tol) | (error < 1e-18 * np.maximum(1.0, sup[todo])))
        # R grows, per G, where the tail holds over half the error
        grow = set(root[todo[miss & (t_err > 0.5 * error)]].tolist())
        todo = todo[miss]
        if todo.size == 0 or it == plan.max_refine:
            break
        # the zone runs again, uncut, where it holds over half the
        # tolerance
        uncut = todo[zone_err[todo] > 0.5 * tol[miss]]
        out["r_zone"][uncut], low_err[uncut] = eps, below_err[uncut]
        out["quartic"][uncut] = 0.0
        R[list(grow)] *= 4
        order, ppd = order + 8, ppd + 3
    out["converged"] = np.ones(rows, dtype=bool)
    out["converged"][todo] = (out["error"][todo]
                              <= 30 * plan.rel_tol * out["scale"][todo])
    return {key: v.reshape(m, S) for key, v in out.items()}


def _scale(value, piece, sup):
    """Tolerance scale of a value: near-cancellation leaves a tiny value,
    so the pieces integrated (the sum of their moduli) size it too."""
    return np.maximum(np.maximum(np.abs(value), 0.1 * piece),
                      np.maximum(sup * 1e-6, 1e-30))


def _zone_cuts(kernel, top, d4x, budget, eps, below_err):
    """Lower edge of each row's correction zone, the bound on the part
    below it and the quartic term added for that part.

    The paired remainder (G(x+z) + G(x-z))/2 - G(x) - z^T H z / 2 is even
    in z.  With d4x = D^4 G(x) (1d), its quartic term against the
    kernel's fourth moment on B_r, D^4 G(x) m_4(r) / 24, is added exactly
    and the rest is at most top M_6(r) / 720; without it, the whole is at
    most top M_4(r) / 24.  M_p is the kernel's p-th absolute moment on
    B_r and top the sampled sup of |D^6 G| (resp. |D^4 G|) on B_{R_INNER}.
    The edge is the largest power of ten from R_INNER down to 10 eps
    where that bound is within the probe's budget; the bound, plus the
    error of m_4, then replaces below_err.  Elsewhere (always where top
    is inf) the zone starts at eps, with no quartic term and the cubic
    bound below_err below it.  In 1d a row without exact jets has top
    inf and d4x 0, so it is never cut and adds no quartic term.  The
    fourth moments of the edges are computed once per kernel.
    """
    edges = np.array([10.0 ** k for k in range(round(np.log10(R_INNER)),
                                              round(np.log10(eps)), -1)])
    p = 4 if d4x is None else 6
    bound = top[:, None] * kernel.abs_moment(p, edges) / factorial(p)
    ok = bound <= budget[:, None]
    k, rows = np.argmax(ok, axis=1), np.arange(len(budget))
    cut = ok[rows, k]
    r_zone = np.where(cut, edges[k], eps)
    err = np.where(cut, bound[rows, k], below_err)
    if d4x is None:
        return r_zone, err, np.zeros(len(budget))
    m4, m4_err = kernel._cached(("m4 zone", eps), lambda: np.array(
        [kernel.fourth_moment(e) for e in edges]).T)
    return (r_zone, err + np.where(cut, np.abs(d4x) * m4_err[k] / 24.0, 0.0),
            np.where(cut, d4x * m4[k] / 24.0, 0.0))


def _resid(tail, r):
    """tail.resid at the radii max(r, 0) of the array r, in one call."""
    r = np.maximum(r, 0.0)
    return np.broadcast_to(tail.resid(r), r.shape)


def _tail(kernel, G, xs, gx, R):
    """Far-field contribution past |z| = R at every probe row of xs,
    from G's tail metadata; returns (values, errors)."""
    tm, tm_err = kernel.tail_mass(R)
    lim = G.tail.limit
    # resid(0) and resid(R - |x|) per probe in one call
    resid = _resid(G.tail, np.append(0.0, R - np.sqrt(sq_norms(xs))))
    value = (lim - gx) * tm
    error = tm_err * (np.abs(lim - gx) + resid[0] + G.tail.amp)
    resid = resid[1:]
    if G.tail.period is not None and kernel.n == 1:
        def gtilde(t):
            p, q = _both_signs(G, xs, t[:, None])
            return (p + q) - 2.0 * lim

        e1 = np.array([1.0])
        ray = lambda t: kernel(t.reshape(-1, 1))
        ray_tail = lambda a: kernel.ray_tail(a, e1)
        val, err = periodic_tail_1d(gtilde, G.tail.period, R, ray, ray_tail)
        value += val
        error += err + resid * tm
    else:
        error += resid * tm
    return value, error


# -- the one batch result and its entries ------------------------------------

def _exact(value):
    """The result of an exact L u: every probe converged with error 0."""
    zeros = np.zeros(value.shape)
    return {"value": value, "error": zeros, "tol": zeros,
            "converged": np.ones(value.shape, dtype=bool)}


def _lu(op, us, xs, plan):
    """The batch result (module docstring) of L u for every u of the
    tuple us at the probe rows of xs, each array of shape (m, len(us)):
    for a kernel _integrate with its PIECES negated, for the orders 0
    and 1 u and -Laplacian u exactly, for a measure the weighted sum of
    its atoms' value, error and tol, their converged masks ANDed."""
    if isinstance(op, MeasureOnUnit):
        parts = [(w, _lu(s, us, xs, plan)) for s, w in op]
        res = {key: sum(w * r[key] for w, r in parts)
               for key in ("value", "error", "tol")}
        res["converged"] = np.logical_and.reduce([r["converged"]
                                                  for _, r in parts])
        return res
    if np.isscalar(op):
        if not 0.0 <= op <= 1.0:
            raise ValueError("order must lie in [0, 1]")
        if op in (0.0, 1.0):
            k = 0 if op == 0.0 else 2
            return _exact(np.stack(
                [J[0] if k == 0 else -np.trace(J[2], axis1=1, axis2=2)
                 for J in _jets(us, xs, k)], axis=1))
        op = fractional_kernel(us[0].n, op)
    plan = plan or default_plan(op.n)
    res = _integrate(op, us, xs, plan)
    for key in PIECES:
        np.negative(res[key], out=res[key])
    res["tol"] = plan.rel_tol * res["scale"]
    return res


def _settle(res, plan, partial):
    """The one failure point: partial, the return formatted from the
    result res, unless the plan is strict (so is None, the default plan
    and the oracle's) and a probe of res missed its tolerance for any
    of its functions: then QuadratureFailure carrying partial."""
    if (plan is not None and not plan.strict) or res["converged"].all():
        return partial
    m = len(res["converged"])
    miss = ~res["converged"].reshape(m, -1)
    err, tol = (res[key].reshape(m, -1)[miss] for key in ("error", "tol"))
    raise QuadratureFailure(
        "error estimate above tolerance at %d of %d probes, worst "
        "error/tolerance %.3g" % (np.count_nonzero(miss.any(axis=1)), m,
                                  np.max(err / tol)),
        partial)


def _pointwise(kernel, G, x, plan, sign):
    """The result at one point x as an OperatorValue times sign (1 for
    L u, -1 for the singular integral), with its breakdown and the
    tolerance scale in .scale."""
    res = _lu(kernel, (G,), as_points(x, kernel.n).reshape(1, -1), plan)
    out = OperatorValue(sign * res["value"][0, 0], res["error"][0, 0], {
        **{key: float(sign * res[key][0, 0]) for key in PIECES[1:]},
        "r_inner": R_INNER, "r_outer": float(res["r_outer"][0, 0]),
        "r_zone": float(res["r_zone"][0, 0])})
    out.scale = float(res["scale"][0, 0])
    return _settle(res, plan, out)


def apply_nonlocal(kernel, u, x, plan=None):
    """L_K u(x) = int (u(x) - u(y)) K(x - y) dy (paired PV form), with
    its error, breakdown inner / quartic / zone / annulus / tail /
    r_inner / r_outer / r_zone and the tolerance scale in .scale."""
    return _pointwise(kernel, u, x, plan, 1.0)


def singular_integral(kernel, G, x, plan=None):
    """Paired PV integral of (G(y) - G(x)) K(x - y) dy at one point x:
    apply_nonlocal negated, value and pieces alike."""
    return _pointwise(kernel, G, x, plan, -1.0)


def singular_integral_batch(kernel, G, xs, plan=None):
    """singular_integral at every probe of xs, shape (m, n), in one pass:
    (values, errors)."""
    res = _lu(kernel, (G,), as_points(xs, kernel.n), plan)
    return _settle(res, plan, (-res["value"][:, 0], res["error"][:, 0]))


def apply_batch(op, u, xs, plan=None):
    """L u at every probe row of xs, shape (m, n): (values, errors), for
    op a Kernel (apply_nonlocal's form), an order s in [0, 1]
    ((-Delta)^s: u itself at 0 and -Laplacian u at 1, both exact) or a
    MeasureOnUnit (the weighted sum over its atoms).

    u may be a tuple of functions: then one (values, errors) pair per
    function, each what a call with that function alone returns, from
    shared quadrature passes (_integrate).  A strict plan raises
    QuadratureFailure when any function misses at any probe; its
    .partial is the tuple of pairs."""
    us = u if isinstance(u, tuple) else (u,)
    res = _lu(op, us, as_points(xs, us[0].n), plan)
    pairs = tuple((res["value"][:, i], res["error"][:, i])
                  for i in range(len(us)))
    return _settle(res, plan, pairs if isinstance(u, tuple) else pairs[0])


def apply_fractional(s, u, x, plan=None):
    """(-Delta)^s u(x) for s in [0, 1]: apply_nonlocal inside (0, 1),
    with its breakdown, and apply_batch at one point at the ends."""
    if 0.0 < s < 1.0:
        return apply_nonlocal(fractional_kernel(u.n, s), u, x, plan)
    (v,), (e,) = apply_batch(s, u, as_points(x, u.n)[:1], plan)
    return OperatorValue(v, e, {"mode": "identity" if s == 0 else "laplacian"})


# -- independent spectral oracle ----------------------------------------------

def spectral_oracle(s, u, x):
    """(-Delta)^s u(x) as OperatorValue(value, error): _oracle at one
    point.  The error covers the radial rules on [0, Xi], the head
    [0, 1e-2 Xi] included (a Gauss-Jacobi panel checked by the same
    fine/coarse pair), the angular levels and round-off; it does not
    cover the band past Xi (about exp(-72) for a Gaussian leaf)."""
    res = _oracle(s, u, as_points(x, u.n)[:1])
    return _settle(res, None, OperatorValue(res["value"][0], res["error"][0]))


def spectral_oracle_batch(s, u, xs):
    """spectral_oracle at the probe rows of xs, shape (m, n): the values
    array; a miss carries the (values, errors) pair."""
    res = _oracle(s, u, as_points(xs, u.n))
    _settle(res, None, (res["value"], res["error"]))
    return res["value"]


def _oracle(s, u, xs):
    """(-Delta)^s u at the probe rows of xs through the Fourier symbol
    |xi|^{2s}, as a result (_lu's value, error, tol and converged);
    exact for trigonometric catalog functions.
    Otherwise a radial rule in |xi| on [0, Xi] (Xi = u.fourier_radius,
    _oracle_nodes): a Gauss-Jacobi panel for the weight |xi|^{n-1+2s}
    on the head [0, 1e-2 Xi], where the paired integrand is even and
    smooth (the catalog's transforms are entire), then Gauss-Legendre
    panels; a fine/coarse pair, each member with its own order on the
    head as on every panel, and a finer rule where they disagree.  The
    band past Xi is not covered (about exp(-72) for a Gaussian leaf).
    In 2d each radial node doubles a nested trapezoid rule in angle, 6
    up to 384 directions (the half_sphere ones, by conjugate symmetry),
    until its gap times its radial weight is at most 1e-16 A, A the
    rule's sum of |terms| on 6 directions; done nodes form a prefix in
    radius, and an unfinished node adds its gap to the error.  The error
    carries a round-off term 8 eps A and is held to 1e-9 |value| (1e-8
    after the finer rule) or 64 eps A.
    The transform is evaluated once for all probes; each probe keeps its
    own levels and rules, so it gets the value of a scalar call.
    """
    if not 0.0 <= s <= 1.0:
        raise ValueError("order must lie in [0, 1]")
    if u.harmonics is not None:
        return _exact(sum(a * np.linalg.norm(k) ** (2 * s) * np.cos(xs @ k + p)
                          for a, k, p in u.harmonics) + np.zeros(len(xs)))
    if u.fourier is None:
        raise ValueError("function is outside the closed-Fourier catalog")
    if s == 0.0:
        return _exact(u(xs))
    val, ang, A = _oracle_rule(s, u, xs, 8, 24)
    coarse, ang_c, _ = _oracle_rule(s, u, xs, 5, 12)
    floor, rnd = 64 * EPS * A, 8 * EPS * A
    err = np.abs(val - coarse) + ang + ang_c + rnd
    tol = np.maximum(1e-9 * np.abs(val), floor)
    redo = np.flatnonzero(~(err <= tol))
    if redo.size:
        fine2, ang2, _ = _oracle_rule(s, u, xs[redo], 12, 32)
        err[redo] = np.abs(fine2 - val[redo]) + ang2 + ang[redo] + rnd[redo]
        val[redo] = fine2
        tol[redo] = np.maximum(1e-8 * np.abs(fine2), floor[redo])
    return {"value": val, "error": err, "tol": tol, "converged": err <= tol}


@lru_cache(maxsize=128)
def _oracle_nodes(ppd, order, beta):
    """Nodes t (increasing) and weights c of the oracle's radial rule
    for Xi = 1, sum c f(t) ~ integral over [0, 1] of t^beta f(t): one
    order-node Gauss-Jacobi panel for the weight t^beta on the head
    [0, ORACLE_HEAD], then ppd Gauss-Legendre panels per decade up to 1.
    Cached per (ppd, order, beta), so every order of a sweep keeps its
    three rules; read-only."""
    x, w = jacobi_rule(order, beta)
    h = ORACLE_HEAD / 2
    tp, wp = panel_nodes(geometric_edges(ORACLE_HEAD, 1.0, ppd), order)
    t = np.concatenate([h * (x + 1), tp])
    c = np.concatenate([h ** (beta + 1) * w, wp * tp ** beta])
    t.flags.writeable = c.flags.writeable = False
    return t, c


def _oracle_rule(s, u, xs, ppd, order):
    """One radial rule of the oracle at the rows of xs: (values, angular
    errors, A) per probe, A the sum of the |terms| of its first level."""
    Xi, beta = u.fourier_radius, u.n - 1 + 2 * s
    t, c = _oracle_nodes(ppd, order, beta)
    # S sums the N / 2 directions of a half sphere and a node's term is
    # c S / N: the unit weight (t^{n-1+2s} in it) times Xi^{n+2s} and
    # 2 |S^{n-1}| / (2 pi)^n = 2 / (n pi)
    t, c = Xi * t, c * (Xi ** (beta + 1) * 2 / (u.n * np.pi))
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

    N, cap = ORACLE_DIRS if u.n == 2 else (2, 2)
    S, absS = level(0, half_sphere(u.n, N)[0])
    A, mean = row_dot(absS, c) / N, S / N
    done, gap = np.zeros((m, t.size), dtype=bool), np.zeros((m, t.size))
    while N < cap and not done.all():
        k0, N = int(done.sum(axis=1).min()), 2 * N
        S[:, k0:] += level(k0, half_sphere(2, N)[0][1::2])[0]
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
        rad = np.sqrt(sq_norms(self.nodes))
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
    kernel = fractional_kernel(n, op) if np.isscalar(op) else op
    kmax = int(np.ceil(max(4 * lattice.L, 8.0) / h))
    if n == 1:
        offsets = np.arange(1, kmax + 1).reshape(-1, 1)
        masses = _cell_masses_1d(kernel, h, kmax)
        # the fold adds the second moment the cells' point masses miss out
        # to R_eff, the singular cell's included: order 2, not 2 - 2s
        tot = kernel.second_moment_matrix((kmax + 0.5) * h)[0][0, 0]
        have = 2 * np.sum(masses * (offsets[:, 0] * h) ** 2)
        masses[0] += 0.5 * (tot - have) / h ** 2
    else:
        # the half disc a^2 + b^2 <= (kmax + 1/2)^2, one offset of each
        # +-pair (evenness makes them equal): row a = 0..kmax holds b = 1
        # (a = 0) or -bmax(a) up to bmax(a), so the offsets are sorted by
        # the key a (2 kmax + 1) + b
        bmax = [isqrt(kmax * kmax + kmax - a * a) for a in range(kmax + 1)]
        cols = [np.arange(-b if a else 1, b + 1) for a, b in enumerate(bmax)]
        rows = np.repeat(np.arange(kmax + 1), [len(c) for c in cols])
        offsets = np.stack([rows, np.concatenate(cols)], axis=1)
        x, w = gl_rule(4)
        gx, gy = np.meshgrid(x, x, indexing="ij")
        sub = np.stack([gx.ravel(), gy.ravel()], axis=1) * 0.5 * h
        subw = np.outer(w, w).ravel() * (0.25 * h * h)
        # the cell masses, CHUNK kernel points per call
        masses = np.empty(len(offsets))
        step = CHUNK // len(sub)
        pts = np.empty((step, len(sub), 2))
        for i in range(0, len(offsets), step):
            o = offsets[i:i + step]
            for c in range(2):  # one coordinate at a time, as _both_signs
                np.add((o[:, c] * h)[:, None], sub[:, c],
                       out=pts[:len(o), :, c])
            masses[i:i + len(o)] = kernel(pts[:len(o)].reshape(-1, 2)) \
                .reshape(-1, len(sub)) @ subw
        # singular cell: eigen-split of the second moment onto lattice
        # directions (axis and diagonal stencils keep the scheme monotone)
        evals, evecs = np.linalg.eigh(kernel.second_moment_matrix(h / 2)[0])
        cand = np.array([[1, 0], [0, 1], [1, 1], [1, -1]])
        candu = cand / np.sqrt(sq_norms(cand))[:, None]
        pick = np.argmax(np.abs(evecs.T @ candu.T), axis=1)
        extra = np.zeros(len(cand))
        np.add.at(extra, pick,
                  0.5 * evals / (sq_norms(cand[pick]) * h * h))
        key = np.array([2 * kmax + 1, 1])
        masses[np.searchsorted(offsets @ key, cand @ key)] += extra
    if np.any(masses < 0):
        raise ValueError("negative cell weight; discretization not monotone")
    W = np.zeros((2 * kmax + 1,) * n)
    W[tuple((kmax + offsets).T)] = masses
    W += np.flip(W)
    return (W, kernel.tail_mass((kmax + 0.5) * h)[0], [(1.0, kernel)],
            offsets, masses)


# assemble_discrete's plans by (op, n, L, N, R_dom), least recently used first
_PLANS = OrderedDict()


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
    R_eff.  All off-diagonal entries stay nonpositive.  A kernel or an
    order annihilates constants exactly (0.0); a measure maps them to
    its order-0 mass, up to a few ulps of t |c| (t = tail_mass_far) with
    two or more kernel atoms, since t u_i sums their tail masses while
    the far field subtracts each atom's c T_K apart.

    Everything but b is the StencilPlan of op on the lattice's geometry
    (n, L, N, R_dom), built once: an order in (0, 1) first resolves to
    kernels.fractional_kernel, one object per (n, s), and a measure is
    keyed by its atoms.  Plans are kept least recently used first out
    while they fit in PLAN_BYTES together; a larger plan serves its own
    call only.  Returns a DiscreteOperatorDense, which computes b; for
    a kernel, its offsets and masses are the half stencil (one offset
    of each +-pair).
    """
    if np.isscalar(op) and 0.0 < op < 1.0:
        op = fractional_kernel(lattice.n, op)
    key = (tuple(op) if isinstance(op, MeasureOnUnit) else op,
           lattice.n, lattice.L, lattice.N, lattice.R_dom)
    plan = _PLANS.pop(key, None) or _stencil_plan(op, lattice)
    if plan.nbytes <= PLAN_BYTES:
        _PLANS[key] = plan
        while sum(p.nbytes for p in _PLANS.values()) > PLAN_BYTES:
            _PLANS.popitem(last=False)
    return DiscreteOperatorDense(plan, lattice, exterior)


def _stencil_plan(op, lattice):
    """The StencilPlan of a Kernel, an order in [0, 1] or a measure."""
    if not isinstance(op, MeasureOnUnit):
        return StencilPlan(lattice, *_stencil(op, lattice))
    parts = [(w, _stencil(s, lattice)) for s, w in op]
    k = max(st[0].shape[0] for _, st in parts) // 2
    W = sum(w * np.pad(st[0], k - st[0].shape[0] // 2) for w, st in parts)
    t = sum(w * st[1] for w, st in parts)
    far = [(w * wk, K) for w, st in parts for wk, K in st[2]]
    return StencilPlan(lattice, W, t, far)


def _far_data_integral(kernel, exterior, xs, R):
    """integral of exterior(x + z) K(z) over |z| > R (paired form) at
    every row x of xs: the tail metadata, plus the residual where it is
    not known to vanish, on the radial rule out to 1e5 R (order 8, 3
    panels per decade, the half-sphere of N_ANGULAR directions in 2d)
    cut at its first edge e with resid(e - max|x|)
    tail_mass(e) <= eps min_x resid(R - |x|) tail_mass(R); resid(r)
    bounds the residual on |y| >= r, so the cut drops only round-off."""
    if exterior.tail.period is not None:
        return _tail(kernel, exterior, xs, np.zeros(len(xs)), R)[0]
    val = np.full(len(xs), exterior.tail.limit * kernel.tail_mass(R)[0])
    xn = np.sqrt(sq_norms(xs))
    resid = _resid(exterior.tail, R - xn)
    rows = np.flatnonzero(resid > 0)
    if rows.size == 0:
        return val
    z, kz, w = radial_rule(kernel, R, R * 1e5, 8, 3, N_ANGULAR)
    edges, xmax = geometric_edges(R, R * 1e5, 3), xn[rows].max()
    floor = np.finfo(float).eps * resid[rows].min() * kernel.tail_mass(R)[0]
    bounds = _resid(exterior.tail, edges[1:-1] - xmax)
    keep = next((j for j, (e, b) in enumerate(zip(edges[1:-1], bounds), 1)
                 if b * sum(kernel.tail_mass(e)) <= floor), len(edges) - 1)
    k = keep * len(z) // (len(edges) - 1)
    z, kz, w = z[:k], kz[:k], w[:k]

    def paired(sl, zz):
        p, q = _both_signs(exterior, x[sl], zz)
        return 0.5 * (p + q) - exterior.tail.limit

    # groups of probes keep the (probes, nodes) value array small
    step = max(STENCIL_BYTES // (8 * len(z)), 1)
    for a in range(0, rows.size, step):
        group = rows[a:a + step]
        x, vals = xs[group], np.empty((group.size, len(z)))
        for sl, v in _chunks(paired, group.size, z, 1, CHUNK):
            vals[sl] = v
        val[group] += row_dot(vals * kz, w)
    return val


def _smooth_len(m):
    """The least m' >= m with no prime factor above 5."""
    r = m
    for p in (2, 3, 5):
        while r % p == 0:
            r //= p
    return m if r == 1 else _smooth_len(m + 1)


class StencilPlan:
    """A translation-invariant stencil on a lattice's geometry: the part
    of a DiscreteOperatorDense that does not read the exterior data,
    shared by every operator of one (op, n, L, N, R_dom).

    W is the full symmetric weight array of side 2 k + 1 (zero at its
    center), tail_mass_far the mass acting on u_i alone, far the (c_K,
    K) pairs of the far field past R_eff = (k + 1/2) h (empty for a
    local stencil), offsets and masses the half stencil a kernel's
    weights came from, and A the interior matrix: A[i, j] = -W[j - i]
    off the diagonal and t + sum W on it, so A is symmetric and
    monotone (off-diagonals <= 0).  W's transform is kept for
    apply_to_grid's FFT convolution, with the band it acts on: one slice
    per axis of the band and of the lattice for the band's part inside
    the box, and the band points beyond the box but within the stencil's
    reach (a mask from per-axis coordinates) with their coordinates,
    where the closure is evaluated.  A is gathered from W by row blocks
    of at most CHUNK entries, so no temporary scales like A.  Every
    array is read-only; nbytes counts them and the lattice's arrays.
    """

    def __init__(self, lattice, W, tail_mass_far=0.0, far=(),
                 offsets=None, masses=None):
        lat = lattice
        n, k = lat.n, W.shape[0] // 2
        self.lattice, self.W = lat, W
        self.tail_mass_far, self.far = tail_mass_far, tuple(far)
        self.R_eff = (k + 0.5) * lat.h if self.far else None
        self.offsets, self.masses = offsets, masses
        idx = np.stack(np.unravel_index(lat.interior, (lat.N,) * n), axis=1)
        # the band of lattice indices the stencil reaches from the
        # interior: the neighbours of interior node i are the window of
        # W's shape at band index idx_i - min(idx).  W is symmetric, so
        # the correlation of the band with W over that window is their
        # convolution at idx_i - min(idx) + 2 k, an index that circular
        # wrap on the band's own side never reaches.  The transform
        # length is the next 5-smooth one: numpy's FFT is 5x slower on a
        # prime such as 1151, the side at 1d N = 257
        lo = idx.min(axis=0) - k
        self._side = tuple(idx.max(axis=0) + k + 1 - lo)
        self._reads = tuple((idx - idx.min(axis=0) + 2 * k).T)
        self._fft = (tuple(_smooth_len(m) for m in self._side),
                     tuple(range(n)))
        self._W_hat = np.fft.rfftn(W, *self._fft)
        # the band inside the box is a rectangle: one slice per axis of
        # the band and of the lattice
        N = lat.N
        self._band_sl = tuple(slice(max(-l, 0), min(N - l, m))
                              for l, m in zip(lo, self._side))
        self._lat_sl = tuple(slice(max(l, 0), min(l + m, N))
                             for l, m in zip(lo, self._side))
        # the closure is evaluated only out to the stencil's reach; the
        # band points past it hold the reference value, a difference of
        # 0, and meet only zero weights
        reach = lat.R_dom + lat.h * (np.sqrt(
            sq_norms(np.argwhere(W != 0) - k)).max(initial=0) + 1)
        coords = [lat.axis[0] + np.arange(l, l + m) * lat.h
                  for l, m in zip(lo, self._side)]
        beyond = np.sqrt(sum(np.ix_(*[c * c for c in coords]))) < reach
        beyond[self._band_sl] = False
        at = np.nonzero(beyond)
        self._beyond = np.ravel_multi_index(at, self._side)
        self._beyond_pts = np.stack([c[i] for c, i in zip(coords, at)],
                                    axis=1)

        # A[i, j] = -W[idx_j - idx_i], from W padded to cover every
        # difference of two interior nodes, gathered CHUNK entries at a
        # time
        kA = max(k, int(np.max(idx.max(axis=0) - idx.min(axis=0))))
        Wn = -np.pad(W, kA - k).ravel()
        sp = (2 * kA + 1) ** np.arange(n - 1, -1, -1)
        fi = idx @ sp
        col = fi + kA * sp.sum()
        self.A = np.empty((lat.n_int,) * 2)
        step = max(CHUNK // lat.n_int, 1)
        for a in range(0, lat.n_int, step):
            np.take(Wn, col - fi[a:a + step, None], out=self.A[a:a + step])
        np.fill_diagonal(self.A, tail_mass_far + W.sum())
        arrays = [a for a in (W, offsets, masses, self.A, self._W_hat,
                              self._beyond, self._beyond_pts, *self._reads)
                  if a is not None]
        _read_only(*arrays)
        self.nbytes = sum(a.nbytes for a in arrays + [lat.axis, lat.nodes,
                                                      lat.interior])

    def apply_to_grid(self, values_full, closure):
        """Stencil action on an arbitrary grid function, in difference
        form (constants: see assemble_discrete).

        values_full: values at every lattice node; closure: SmoothFunction
        supplying values beyond the box (evaluated once, on the lattice
        points the stencil reaches) and the far-field integral.  Returns
        the operator values at the interior nodes.

        The stencil sum is one real-FFT convolution of the band of
        reached values with W, in differences from one reference value
        c = u(x_0): t u_i + sum W (u_i - c) - sum_k W_k (u_{i+k} - c).
        A constant grid function makes every difference exactly 0.
        """
        lat = self.lattice
        v = values_full[lat.interior]
        ref = v[0]
        G = np.full(self._side, ref)
        G[self._band_sl] = values_full.reshape(
            (lat.N,) * lat.n)[self._lat_sl]
        if self._beyond.size:
            G.flat[self._beyond] = closure(self._beyond_pts)
        G -= ref
        conv = np.fft.irfftn(np.fft.rfftn(G, *self._fft) * self._W_hat,
                             *self._fft)
        out = (self.tail_mass_far * v + self.W.sum() * (v - ref)
               - conv[self._reads])
        for c, K in self.far:
            out -= c * _far_data_integral(K, closure, lat.nodes[lat.interior],
                                          self.R_eff)
        return out


class DiscreteOperatorDense(StencilPlan):
    """A stencil plan with its exterior data: a dense interior matrix A
    plus an affine exterior vector b,

        (L u)(x_i) ~ (A u_int + b)_i
                   = t u_i + sum_k W_k (u_i - u_{i+k}) - far_i,

    far_i = sum of c_K times the far-field integral of the exterior data
    with kernel K past R_eff, over the (c_K, K) pairs of far.  The
    operator is its plan plus b: every attribute of the plan (W,
    tail_mass_far (t), far, R_eff, offsets, masses, A and the band of
    apply_to_grid) is the plan's own object, read-only and shared by
    every operator of the same op and lattice geometry; lattice is the
    caller's.  b, the one part that reads the exterior, is apply_to_grid
    of the exterior data with the interior zeroed.
    """

    def __init__(self, plan, lattice, exterior):
        vars(self).update(vars(plan))
        self.plan, self.lattice, self.exterior = plan, lattice, exterior
        vals = exterior(lattice.nodes)
        vals[lattice.interior] = 0.0
        self.b = plan.apply_to_grid(vals, exterior)

    def apply(self, u_int):
        return self.A @ u_int + self.b

    def full_values(self, u_int):
        """Lattice-wide value vector: solution inside, closure data outside."""
        lat = self.lattice
        vals = self.exterior(lat.nodes)
        vals[lat.interior] = u_int
        return vals
