"""The s-harmonic extension to the upper half plane and its calculus.

U(x, y) is built by convolving the base function against the mass-one
fractional Poisson kernel; every derivative field the auxiliary-function
machinery needs is again a convolution, with x-derivatives moved onto
the (exactly differentiable) base function and y-derivatives carried by
closed-form kernel derivatives.  The weighted operator is

    L_a V = -div(y^a grad V),   a = 1 - 2s,

so L_a U = 0, and the weighted normal derivative -lim y^a d_y U recovers
the fractional Laplacian of the trace up to the positive constant
d_s = 2^{1-2s} Gamma(1-s) / Gamma(s) of the mass-one kernel (Caffarelli
and Silvestre, Comm. PDE 32, 2007), in closed form.

Only n = 1 is supported here: the identity structure being verified is
dimension-uniform and the desk-scale checks all live on the line.
"""

from functools import cache
from math import gamma

import numpy as np

from ._quad import (geometric_panels, gl_rule, panel_nodes, periodic_tail_1d,
                    ray_rule, row_dot)
from .funcspace import make_cutoff
from .nonlocal_ops import CHUNK

__all__ = [
    "poisson_constant", "ExtensionField", "extend",
    "weighted_normal_derivative", "trace_constant",
    "verify_extension_identities", "check_halfspace_max_principle",
]


@cache
def _peak_rule():
    """The 12 peak panels on [-4, 4]; a point at height y takes y times."""
    return panel_nodes(np.linspace(-4.0, 4.0, 13), 16)


def poisson_constant(n, s):
    """Mass-one normalization of y^{2s} (|x|^2 + y^2)^{-(n+2s)/2}."""
    return gamma((n + 2 * s) / 2.0) / (np.pi ** (n / 2.0) * gamma(s))


def _kernel_y_derivs(t, y, s, ky):
    """d^ky/dy^ky of the 1d Poisson kernel at offsets t, height y: one
    power each of Q = t^2 + y^2 and of y, the other factors of Q and y
    by division."""
    if ky > 2:
        raise ValueError("kernel y-derivatives available up to order 2")
    Q = t * t + y * y
    al = (1 + 2 * s) / 2.0
    k = poisson_constant(1, s) * y ** (2 * s) * Q ** (-al)
    if ky == 0:
        return k
    if ky == 1:
        return k * (2 * s / y - 2 * al * y / Q)
    return k * (2 * s * (2 * s - 1) / (y * y) - 2 * al * (4 * s + 1) / Q
                + 4 * al * (al + 1) * (y * y) / (Q * Q))


def _kernel_ray_tail(a, y, s, ky):
    """integral over [a, inf) of the ky-th y-derivative of the kernel,
    elementwise over the broadcast of the arrays a and y.

    The rule is 6 order-12 Gauss panels per decade on [a, 1e4 a], one
    unit rule on [1, 1e4] scaled by a, run over blocks of at most CHUNK
    nodes; past 1e4 a the kernel is a pure power in t to machine accuracy.
    """
    a, y = np.broadcast_arrays(np.asarray(a, dtype=float),
                               np.asarray(y, dtype=float))
    af, yf = a.reshape(-1, 1), y.reshape(-1, 1)
    tu, wu = ray_rule(4)
    val = np.empty(af.shape[0])
    step = max(CHUNK // tu.size, 1)
    for i in range(0, val.size, step):
        blk = slice(i, i + step)
        val[blk] = row_dot(_kernel_y_derivs(af[blk] * tu, yf[blk], s, ky), wu)
    # far out the kernel is p y^{2s} t^{-1-2s}: d^ky/dy^ky is a falling
    # factorial of 2s times y^{2s-ky}
    coef = (poisson_constant(1, s) * np.prod(2 * s - np.arange(ky))
            * y ** (2 * s - ky))
    far = a * 1e4
    return a * val.reshape(a.shape) + coef * far ** (-1 - 2 * s) * far / (2 * s)


class ExtensionField:
    """s-harmonic extension of a 1d SmoothFunction with derivative access.

    field(kx, ky) returns a vectorized evaluator of d_x^kx d_y^ky U on
    points (x, y), y > 0; kx <= 4 uses exact base derivatives.  Each
    convolution runs 16-node Gauss panels: 12 across the kernel's peak
    [-4y, 4y] and 6 per decade on either side out to the cutoff
    T = max(24, 8y, 2|x|).  A call evaluates all its points as one batch:
    the base function and the kernel are each evaluated once over the
    nodes of every point, in blocks of at most CHUNK nodes, and the
    far-field limit and periodic tail are added for all points at once.
    """

    def __init__(self, u, s):
        if u.n != 1:
            raise ValueError("extension fields are built over the line")
        if not 0.0 < s < 1.0:
            raise ValueError("order s must lie in (0, 1)")
        self.u = u
        self.s = float(s)
        self.a = 1.0 - 2.0 * s

    def field(self, kx=0, ky=0):
        u = self.u
        uf = lambda t: u.jet(t, kx)[kx]
        # d^kx u keeps u's period and, for kx > 0, has limit 0
        lim = u.tail.limit if kx == 0 else 0.0

        def ev(x, y):
            x, y = (v.ravel() for v in np.broadcast_arrays(
                np.asarray(x, dtype=float), np.asarray(y, dtype=float)))
            T = np.maximum(np.maximum(24.0, 8.0 * y), 2.0 * np.abs(x))
            n, left, right = geometric_panels(4.0 * y, T, 6)
            # whole points per block, at most CHUNK nodes in a block
            step = max(CHUNK // (16 * (12 + 2 * n.max(initial=1))), 1)
            ends = np.cumsum(n)[step - 1:x.size - 1:step]
            out = np.empty(x.size)
            for i, lo, hi in zip(range(0, x.size, step),
                                 np.split(left, ends), np.split(right, ends)):
                b = slice(i, i + step)
                out[b] = self._conv(uf, lim, u.tail.period, ky, x[b], y[b],
                                    T[b], n[b], lo, hi)
            return out

        return ev

    def _conv(self, uf, lim, period, ky, x, y, T, n, left, right):
        """d_x^kx d_y^ky U at the points (x, y) with cutoffs T, where uf
        is d^kx u, lim its far-field limit and period its tail's period
        (or None); the side panels [left, right] of point i are n[i]
        consecutive entries."""
        m = x.size
        gx, gw = gl_rule(16)
        tp, wp = _peak_rule()
        h = 0.5 * (right - left)
        # panel rows: the 12 peak panels of every point, then the sides
        row = np.concatenate([np.repeat(np.arange(m), 12),
                              np.repeat(np.arange(m), n)])
        t = np.concatenate([(y[:, None] * tp).reshape(-1, 16),
                            (left + h)[:, None] + h[:, None] * gx])
        w = np.concatenate([(y[:, None] * wp).reshape(-1, 16),
                            h[:, None] * gw])
        kv = _kernel_y_derivs(t, y[row, None], self.s, ky)
        # u at x + t on every panel and at x - t on the side panels
        xr, k = x[row, None], 12 * m
        vals = uf(np.concatenate([xr + t, xr[k:] - t[k:]]).reshape(-1, 1))
        vals = vals.reshape(-1, 16)
        vals[k:len(t)] += vals[len(t):]
        total = np.bincount(row, np.sum(w * kv * vals[:len(t)], axis=1),
                            minlength=m)
        if lim != 0.0:
            total += lim * 2.0 * _kernel_ray_tail(T, y, self.s, ky)
        if period is not None:
            xc, yc = x[:, None], y[:, None]

            def gt(tt):
                pm = uf(np.concatenate([xc + tt, xc - tt]).reshape(-1, 1))
                pm = pm.reshape(2, m, -1)
                return (pm[0] + pm[1]) - 2.0 * lim

            ray = lambda tt: _kernel_y_derivs(np.abs(tt), yc, self.s, ky)
            ray_tail = lambda aa: _kernel_ray_tail(aa, yc, self.s, ky)
            val, _ = periodic_tail_1d(gt, period, T, ray, ray_tail)
            total += val
        return total

    # convenience bundles ----------------------------------------------------

    def value(self, x, y):
        return self.field(0, 0)(x, y)

    def la_value(self, x, y):
        """L_a U by direct convolution derivatives (not via the equation)."""
        lap = self.field(2, 0)(x, y) + self.field(0, 2)(x, y)
        y = np.atleast_1d(np.asarray(y, dtype=float))
        return _la_of(lap, self.field(0, 1)(x, y), y, self.a)

    def verify(self):
        """Interior equation residual on a 7 x 3 grid of [-1.5, 1.5] x
        [0.08, 1], trace error, and sup bound."""
        X, Y = np.meshgrid(np.linspace(-1.5, 1.5, 7),
                           np.array([0.08, 0.3, 1.0]))
        la = self.la_value(X.ravel(), Y.ravel())
        scale = max(self.u.hess_sup, 1.0)
        trace_pts = np.linspace(-1.0, 1.0, 9)
        tr = self.value(trace_pts, np.full_like(trace_pts, 1e-3))
        tr_err = float(np.max(np.abs(tr - self.u(trace_pts.reshape(-1, 1)))))
        # the boundary layer is genuinely O(y^{2s}); require that rate
        tr_allow = 3.0 * (self.u.sup + self.u.hess_sup) * 1e-3 ** (2 * self.s) \
            + 1e-6
        sup_gap = float(np.max(np.abs(self.value(X.ravel(), Y.ravel())))
                        - self.u.sup)
        return {
            "la_residual": float(np.max(np.abs(la))),
            "la_pass": bool(np.max(np.abs(la)) <= 1e-5 * scale * 100),
            "trace_error": tr_err,
            "trace_pass": bool(tr_err <= tr_allow),
            "sup_excess": sup_gap,
            "sup_pass": bool(sup_gap <= 1e-7),
        }


def extend(u, s):
    """Build the s-harmonic extension of a bounded 1d function."""
    return ExtensionField(u, s)


def weighted_normal_derivative(E, x):
    """-lim_{y -> 0} y^a d_y U at x by dyadic Richardson extrapolation
    over the 7 heights 0.08 2^-k.

    The expansion of y^a d_y U in y has leading corrections y^{2-2s} and
    y^2; both exponents are eliminated in two extrapolation stages.
    """
    x = float(x)
    ys = 0.08 * 2.0 ** (-np.arange(7, dtype=float))
    f = E.field(0, 1)
    w = -(ys ** E.a) * f(np.full(7, x), ys)
    for beta in (2.0 - 2.0 * E.s, 2.0):
        fac = 2.0 ** (-beta)
        w = (w[1:] - fac * w[:-1]) / (1.0 - fac)
    spread = float(np.max(np.abs(np.diff(w[-3:]))))
    if not np.isfinite(spread) or spread > 5e-3 * max(abs(w[-1]), 1e-6):
        raise ArithmeticError("trace extrapolation did not settle "
                              "(spread %.2g)" % spread)
    return float(w[-1])


def trace_constant(s):
    """(d_s, 0.0): the positive constant relating the weighted normal
    derivative to the fractional Laplacian of the trace, in closed form
    for the mass-one kernel, 2^{1-2s} Gamma(1-s) / Gamma(s) (1 at
    s = 1/2); the second entry is the zero spread of an exact value."""
    if not 0.0 < s < 1.0:
        raise ValueError("order s must lie in (0, 1)")
    return 2.0 ** (1.0 - 2.0 * s) * gamma(1.0 - s) / gamma(s), 0.0


# -- identity checks -----------------------------------------------------------

def _la_of(lap, dy, y, a):
    return -(y ** a) * lap - a * y ** (a - 1) * dy


def verify_extension_identities(u, s, R=1.0, kappa=None):
    """Pointwise checks of the weighted-operator calculus on composites.

    At each probe (x, y) of a 7 x 7 grid of [-0.9 R, 0.9 R] x [0.05, 1.2]
    (geometric in y), up to a slack of 1e-4:
      (i)   L_a (U-kappa)^2 + 2 y^a |grad U|^2 = 0        (exact identity)
      (ii)  L_a [eta^2 (d_e U)^2] <= -y^a eta^2 |grad d_e U|^2
                + C 1_{B_R} R^{-2} y^a (d_e U)^2          (fitted C)
      (iii) L_a [etabar^2 (d_ee U)_+^2]
                <= C 1_{B_{R/2}} R^{-2} y^a (d_ee U)^2    (fitted C)
      (iv)  Psi2 + tau R^-2 Psi1 + sigma R^-4 Psi0 is a supersolution
            once tau >= tau0 and sigma >= sigma0 tau      (doubling search)
    """
    E = extend(u, s)
    a = E.a
    eta = make_cutoff(R / 4.0, R / 2.0, n=1)
    etab = make_cutoff(R / 8.0, 0.45 * R, n=1)
    slack = 1e-4
    if kappa is None:
        xs_d = np.linspace(-R, R, 41).reshape(-1, 1)
        kappa = float(np.max(u(xs_d)))
    X, Y = np.meshgrid(np.linspace(-0.9 * R, 0.9 * R, 7),
                       np.geomspace(0.05, 1.2, 7))
    probes = np.stack([X.ravel(), Y.ravel()], axis=1)
    xs, ys = probes[:, 0], probes[:, 1]

    F = {}
    for kx, ky in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
                   (3, 0), (2, 1), (1, 2), (4, 0), (2, 2)]:
        F[(kx, ky)] = E.field(kx, ky)(xs, ys)
    ya = ys ** a

    # (i): Psi0 = (U - kappa)^2
    U = F[(0, 0)]
    gradU2 = F[(1, 0)] ** 2 + F[(0, 1)] ** 2
    lap0 = 2 * (U - kappa) * (F[(2, 0)] + F[(0, 2)]) + 2 * gradU2
    dy0 = 2 * (U - kappa) * F[(0, 1)]
    la0 = _la_of(lap0, dy0, ys, a)
    res_i = la0 + 2 * ya * gradU2
    scale_i = float(max(np.max(np.abs(la0)), np.max(np.abs(2 * ya * gradU2)), 1e-9))

    # (ii): Psi1 = eta^2 (Ux)^2
    ex = xs.reshape(-1, 1)
    e2 = eta * eta
    e2v, e2g, e2h = e2.jet(ex, 2)
    e2g, e2h = e2g[:, 0], e2h[:, 0, 0]
    Ux, Uxx, Uxy = F[(1, 0)], F[(2, 0)], F[(1, 1)]
    Uxxx, Uxxy, Uxyy = F[(3, 0)], F[(2, 1)], F[(1, 2)]
    lap1 = (e2h * Ux ** 2 + 4 * e2g * Ux * Uxx
            + e2v * (2 * Uxx ** 2 + 2 * Ux * Uxxx + 2 * Uxy ** 2 + 2 * Ux * Uxyy))
    dy1 = e2v * 2 * Ux * Uxy
    la1 = _la_of(lap1, dy1, ys, a)
    grad_dU2 = Uxx ** 2 + Uxy ** 2
    lhs_ii = la1 + ya * e2v * grad_dU2
    in_ball = (np.abs(xs) < R).astype(float)
    denom_ii = in_ball * ya * Ux ** 2 / R ** 2
    pos = denom_ii > 1e-12 * max(float(np.max(np.abs(lhs_ii))), 1e-300)
    C_ii = float(max(np.max(lhs_ii[pos] / denom_ii[pos], initial=0.0), 0.0))
    ok_ii = bool(np.all(lhs_ii <= C_ii * denom_ii + slack))

    # (iii): Psi2 = etabar^2 (Uxx)_+^2
    b2 = etab * etab
    b2v, b2g, b2h = b2.jet(ex, 2)
    b2g, b2h = b2g[:, 0], b2h[:, 0, 0]
    W, Wx, Wy = Uxx, Uxxx, Uxxy
    Wxx, Wyy = F[(4, 0)], F[(2, 2)]
    Wp = np.maximum(W, 0.0)
    ind = (W > 0).astype(float)
    lapP = 2 * ind * (Wx ** 2 + Wy ** 2) + 2 * Wp * (Wxx + Wyy)
    lap2 = b2h * Wp ** 2 + 2 * b2g * 2 * Wp * Wx + b2v * lapP
    dy2 = b2v * 2 * Wp * Wy
    la2 = _la_of(lap2, dy2, ys, a)
    in_half = (np.abs(xs) < R / 2).astype(float)
    denom_iii = in_half * ya * W ** 2 / R ** 2
    pos3 = denom_iii > 1e-12
    C_iii = float(max(np.max(la2[pos3] / denom_iii[pos3], initial=0.0), 0.0))
    ok_iii = bool(np.all(la2 <= C_iii * denom_iii + slack))

    # (iv): doubling search for (tau0, sigma0)
    def la_phi(t, sg):
        return la2 + t / R ** 2 * la1 + sg / R ** 4 * la0

    found = None
    t = 1.0
    while t <= 2 ** 22 and found is None:
        sg_ratio = 1.0
        while sg_ratio <= 2 ** 22:
            if np.all(la_phi(t, sg_ratio * t) <= slack):
                found = (t, sg_ratio)
                break
            sg_ratio *= 2
        t *= 2
    if found is None:
        raise ArithmeticError("no (tau, sigma) threshold found; "
                              "counterexample probes recorded")
    tau0, sigma0 = found
    mono = bool(np.all(la_phi(tau0, 2 * sigma0 * tau0) <= slack))
    return {
        "residual_psi0": res_i, "psi0_scale": scale_i,
        "psi0_pass": bool(np.max(np.abs(res_i)) <= 100 * slack * scale_i),
        "fitted_C_psi1": C_ii, "psi1_pass": ok_ii,
        "fitted_C_psi2": C_iii, "psi2_pass": ok_iii,
        "tau0": float(tau0), "sigma0": float(sigma0),
        "sigma_monotone": mono,
        "probes": probes,
    }


def check_halfspace_max_principle(value_fn, trace_fn, la_fn=None,
                                  box=(2.5, 2.5), nx=21, ny=16, tol=1e-6):
    """Sampled maximum principle on the half plane.

    value_fn(x, y): the candidate V (bounded above); trace_fn(x): V(x, 0).
    la_fn, when given, certifies the subsolution hypothesis L_a V <= 0
    (to 1e-4) at interior samples; a failure there is a hypothesis
    error, distinct from a violation of the principle itself.
    """
    xs = np.linspace(-box[0], box[0], nx)
    ys = np.geomspace(1e-3, box[1], ny)
    X, Y = np.meshgrid(xs, ys)
    tr = np.atleast_1d(trace_fn(xs))
    if np.max(tr) > tol:
        return {"pass": False, "hypothesis_error": True,
                "reason": "trace exceeds 0 (%.2g)" % float(np.max(tr)),
                "violations": []}
    if la_fn is not None:
        la = np.atleast_1d(la_fn(X.ravel(), Y.ravel()))
        if np.max(la) > 1e-4:
            return {"pass": False, "hypothesis_error": True,
                    "reason": "L_a V positive at a sample (%.2g)"
                              % float(np.max(la)),
                    "violations": []}
    vals = np.atleast_1d(value_fn(X.ravel(), Y.ravel()))
    bad = vals > tol
    violations = [(float(x), float(y), float(v)) for x, y, v in
                  zip(X.ravel()[bad], Y.ravel()[bad], vals[bad])]
    return {"pass": bool(~bad.any()), "hypothesis_error": False,
            "max_value": float(np.max(vals)), "violations": violations}
