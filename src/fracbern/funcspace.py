"""Globally defined test functions with exact derivatives and tail metadata.

The central object is SmoothFunction: a function on R^n together with
the bookkeeping the singular-integral quadrature needs, namely sup-norm
bounds and an asymptotic tail description (limit at infinity, a
certified bound on the decaying residual, and an optional 1d
oscillation period for trigonometric tails).

Derivatives come from one forward pass.  f.jet(x, k) returns the
derivative tensors (D^0 f, ..., D^k f) at the points x, D^j of shape
(m,) + (n,) * j; value, gradient, hessian, d3 and __call__ are thin
wrappers that ask for one order.  Every composite (sum, scalar multiple,
product, translation, affine precomposition, directional derivative,
positive part and its square, segment averages of u^2 and their square
root) builds its jet from the jets of its children by one propagation
rule (the general Leibniz rule, Faa di Bruno's formula for the chain
rule), so each subexpression is evaluated once per call: a node reached
twice at the same points, as the factor of u * u, is memoised for the
duration of the call, and a directional derivative asks its argument for
one order more.  The segment averages evaluate all their quadrature
shifts as one stacked call.

The catalog leaves (constants, Gaussian bumps, polynomial Gaussians,
modulated Gaussians, plane waves, cutoffs, and tensor products of these)
have exact jets of every order.  Leaves built from closures,
SmoothFunction(n, value, gradient, hessian, d3=None), supply derivatives
up to the Hessian, or up to d3 when given; their higher orders come from
central differences of their own highest derivative.  These closure
leaves (grid-function promotions, harmonic polynomials, barriers and
test functions) are the only place finite differences enter.  The flag
exact_jets, fixed at construction, says that the jets are exact to
order 4: it holds for catalog nodes and their composites, and not for
closure leaves, positive_part, positive_part_square or any node above
one of these.

Arithmetic propagates the metadata as well, so auxiliary functions like
eta^2 (d_e u)^2 + sigma u^2 remain first-class citizens that the
operators can be applied to.
"""

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import numpy as np
from numpy.polynomial import hermite_e

from ._quad import gl_rule
from .kernels import as_points

__all__ = [
    "Tail", "SmoothFunction", "Cutoff", "GridFunction", "Direction",
    "constant", "gaussian_bump", "polynomial_gaussian", "modulated_gaussian",
    "plane_wave", "tensor_product", "translate", "affine_precompose",
    "directional_derivative", "positive_part", "positive_part_square",
    "make_cutoff", "incremental_quotient", "averaged_square",
    "averaged_square_root", "harmonic_polynomial",
]


# -- tail structure -----------------------------------------------------------

def _combine_periods(p1, p2):
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    ratio = Fraction(p1 / p2).limit_denominator(48)
    if ratio.numerator == 0 or abs(p1 / p2 - float(ratio)) > 1e-9:
        return -1.0  # incommensurate marker
    return p2 * ratio.numerator  # == p1 * denominator


class Tail:
    """Asymptotic structure: u = limit + (periodic part) + residual.

    resid(r) bounds sup_{|x| >= r} of the residual; amp bounds the
    periodic part (zero when period is None).  resid must be exact zero
    beyond the support radius for compactly supported residuals.
    """

    def __init__(self, limit=0.0, resid=None, period=None, amp=0.0):
        self.limit = float(limit)
        self.resid = resid if resid is not None else (lambda r: 0.0)
        self.period = period
        self.amp = float(amp)

    @staticmethod
    def compact(radius, bound):
        return Tail(0.0, lambda r: bound if r < radius else 0.0)

    @staticmethod
    def bounded(bound):
        return Tail(0.0, lambda r: bound)

    def __add__(self, other):
        period = _combine_periods(self.period, other.period)
        rs, ro = self.resid, other.resid
        if period == -1.0:
            return Tail(self.limit + other.limit,
                        lambda r: rs(r) + ro(r) + self.amp + other.amp)
        return Tail(self.limit + other.limit, lambda r: rs(r) + ro(r),
                    period, self.amp + other.amp)

    def scaled(self, c):
        rs = self.resid
        return Tail(c * self.limit, lambda r: abs(c) * rs(r),
                    self.period, abs(c) * self.amp)

    def product(self, other, mean_of_periodic_product=0.0):
        """Tail of a pointwise product; the periodic x periodic mean must
        be supplied by the caller when both factors oscillate."""
        period = _combine_periods(self.period, other.period)
        lf, lg = self.limit, other.limit
        af, ag = self.amp, other.amp
        rf, rg = self.resid, other.resid
        resid = lambda r: rf(r) * (abs(lg) + ag + rg(r)) + rg(r) * (abs(lf) + af)
        if period == -1.0:
            bump = af * ag + abs(lf) * ag + abs(lg) * af
            return Tail(lf * lg, lambda r: resid(r) + bump)
        amp = abs(lf) * ag + abs(lg) * af + af * ag + abs(mean_of_periodic_product)
        return Tail(lf * lg + mean_of_periodic_product, resid, period, amp)


# -- jet rules ----------------------------------------------------------------
#
# A jet of order k at m points in R^n is the list [D^0, ..., D^k] with D^j of
# shape (m,) + (n,) * j.  Inside the rules an entry may be None where it is
# known to vanish (the constant Hessian of a quadratic has no third
# derivative).  In 1d every tensor has one entry per point, and the sums
# over slot subsets and set partitions collapse to binomial and partition
# counts.

_SLOTS = "abcdefghijkl"


def _bc(v, j):
    """Broadcast per-point scalars v against order-j tensors."""
    v = np.asarray(v)
    return v.reshape(v.shape + (1,) * j)


@lru_cache(maxsize=None)
def _subsets(j):
    """Leibniz terms of order j: (|S|, einsum spec) per subset S of slots."""
    out = []
    for size in range(j + 1):
        for S in itertools.combinations(range(j), size):
            rest = [p for p in range(j) if p not in S]
            out.append((size, "...%s,...%s->...%s" % (
                "".join(_SLOTS[p] for p in S),
                "".join(_SLOTS[p] for p in rest), _SLOTS[:j])))
    return out


@lru_cache(maxsize=None)
def _partitions(j):
    """Set partitions of the slots 0..j-1, each a tuple of blocks."""
    if j == 0:
        return [()]
    out = []
    for p in _partitions(j - 1):
        for b in range(len(p)):
            out.append(p[:b] + (p[b] + (j - 1,),) + p[b + 1:])
        out.append(p + ((j - 1,),))
    return out


@lru_cache(maxsize=None)
def _faa_terms(j, n):
    """Faa di Bruno terms of order j: (block sizes, weight or einsum spec).

    In 1d the partitions with equal block sizes give equal terms, merged
    into one with their count as the weight."""
    if n == 1:
        counts = {}
        for p in _partitions(j):
            key = tuple(sorted(len(B) for B in p))
            counts[key] = counts.get(key, 0) + 1
        return list(counts.items())
    return [(tuple(len(B) for B in p),
             ",".join("..." + "".join(_SLOTS[s] for s in B) for B in p)
             + "->..." + _SLOTS[:j]) for p in _partitions(j)]


def _leibniz(F, G, k, n):
    """Jet of f g from the jets of f and g (general Leibniz rule)."""
    if n > 1:
        return [sum(np.einsum(spec, F[i], G[j - i]) for i, spec in _subsets(j))
                for j in range(k + 1)]
    f = [a.reshape(-1) for a in F[:k + 1]]
    g = [b.reshape(-1) for b in G[:k + 1]]
    out = [f[0] * g[0]]
    for j in range(1, k + 1):
        t = f[0] * g[j] + f[j] * g[0]
        for i in range(1, j):
            t += comb(j, i) * (f[i] * g[j - i])
        out.append(t.reshape((-1,) + (1,) * j))
    return out


def _chain(dphi, F, k, n):
    """Jet of phi(f) by Faa di Bruno's formula.

    dphi[i] is phi^(i) at the values of f (None where it vanishes) and F
    the jet of f; F[0] only fixes the number of points."""
    m = F[0].shape[0]
    if n == 1:
        F = [None if a is None else a.reshape(-1) for a in F[:k + 1]]
    out = [dphi[0]]
    for j in range(1, k + 1):
        tot = None
        for sizes, how in _faa_terms(j, n):
            term = dphi[len(sizes)]
            if n == 1:
                for s in sizes:
                    if term is None or F[s] is None:
                        term = None
                        break
                    term = term * F[s]
                if term is None:
                    continue
                if how != 1:
                    term = how * term
            else:
                blocks = [F[s] for s in sizes]
                if term is None or any(b is None for b in blocks):
                    continue
                term = _bc(term, j) * np.einsum(how, *blocks)
            tot = term if tot is None else tot + term
        if tot is None:
            tot = np.zeros((m,) + (n,) * j)
        elif n == 1:
            tot = (tot if tot.shape == (m,) else tot + np.zeros(m)).reshape(
                (m,) + (1,) * j)
        out.append(tot)
    return out


def _sqrt_jet(A, k, n):
    """Jet of sqrt(a) from the jet of a >= 0.

    D^j sqrt(a) = sqrt(a) sum over partitions pi of c_|pi| prod_B
    D^|B| a / a, with c_i = (1/2)(1/2 - 1)...(1/2 - i + 1): the ratios stay
    finite where a is tiny, and where a underflows to zero the value and
    all derivatives are zero."""
    a = A[0]
    pos = a > 0
    safe = np.where(pos, a, 1.0)
    root = np.sqrt(np.where(pos, a, 0.0))
    ratios = [a] + [None if A[j] is None else
                    np.where(_bc(pos, j), A[j] / _bc(safe, j), 0.0)
                    for j in range(1, k + 1)]
    coef = [1.0]
    for i in range(k):
        coef.append(coef[-1] * (0.5 - i))
    J = _chain(coef, ratios, k, n)
    return [root] + [_bc(root, j) * J[j] for j in range(1, k + 1)]


# -- core container -----------------------------------------------------------

class SmoothFunction:
    """A function on R^n: derivative jets plus sup bounds and tail data.

    Built directly it is a closure leaf: value, gradient and hessian (and
    d3 if given) map (m, n) point arrays to D^0, D^1, D^2 (and D^3);
    orders above the highest one supplied are central differences of it.
    """

    _children = ()  # (function, extra order) for each one a rule evaluates
    exact_jets = False  # jets exact to order 4 (module docstring)

    def __init__(self, n, value, gradient, hessian, d3=None,
                 sup=np.inf, grad_sup=np.inf, hess_sup=np.inf,
                 tail=None, fourier=None, fourier_radius=None,
                 harmonics=None):
        self._closures = (value, gradient, hessian) + (
            () if d3 is None else (d3,))
        self._set_meta(n, sup, grad_sup, hess_sup, tail, fourier,
                       fourier_radius, harmonics)

    def _set_meta(self, n, sup=np.inf, grad_sup=np.inf, hess_sup=np.inf,
                  tail=None, fourier=None, fourier_radius=None,
                  harmonics=None):
        self.n = int(n)
        self.sup = float(sup)
        self.grad_sup = float(grad_sup)
        self.hess_sup = float(hess_sup)
        self.tail = tail if tail is not None else Tail.bounded(sup)
        self.fourier = fourier            # xi (m, n) -> complex (m,)
        self.fourier_radius = fourier_radius
        self.harmonics = harmonics        # [(amp, kvec, phase)] for trig
        self._plans = {}

    # evaluation ------------------------------------------------------------

    def jet(self, x, order=2):
        """(D^0 f, ..., D^order f) at the points x in one forward pass."""
        return tuple(self._jet(as_points(x, self.n), order))

    def _jet(self, x, k):
        if not self._children:
            return self._eval(x, k, None)
        return _Call(self, k).jet(self, x, k)[:k + 1]

    def value(self, x):
        return self._jet(as_points(x, self.n), 0)[0]

    __call__ = value

    def gradient(self, x):
        return self._jet(as_points(x, self.n), 1)[1]

    def hessian(self, x):
        return self._jet(as_points(x, self.n), 2)[2]

    def d3(self, x):
        return self._jet(as_points(x, self.n), 3)[3]

    def _eval(self, x, k, call):
        return [self._derivative(x, j) for j in range(k + 1)]

    def _derivative(self, x, j):
        """D^j of a closure leaf; central differences above the supplied
        orders, the difference index first."""
        if j < len(self._closures):
            return self._closures[j](x)
        h = 1e-5
        out = np.empty((x.shape[0],) + (self.n,) * j)
        for i in range(self.n):
            dx = np.zeros((1, self.n))
            dx[0, i] = h
            out[:, i] = (self._derivative(x + dx, j - 1)
                         - self._derivative(x - dx, j - 1)) / (2 * h)
        return out

    def _orders(self, k):
        """Order each node below must deliver for an order-k jet here: the
        highest over all paths, so a node shared by paths that need
        different orders is still evaluated once per point set."""
        plan = self._plans.get(k)
        if plan is None:
            plan = {}
            todo = [(self, k)]
            while todo:
                f, j = todo.pop()
                if plan.get(id(f), -1) < j:
                    plan[id(f)] = j
                    todo.extend((g, j + d) for g, d in f._children)
            self._plans[k] = plan
        return plan

    def derivative_bounds(self, x, r):
        """(sup |D^3|, sup |D^4|) over B_r(x), one pair per point of x,
        |D^j| the sum of the absolute entries.

        Sampled, not certified: 1.5 times the largest value at x, x +-
        r/2 e_i and x +- r e_i (and on both diagonals in 2d), plus
        1e-12, from one jet call; a derivative that peaks between the
        samples is missed.  sup |D^4| is inf unless exact_jets, since
        difference quotients and kinks give no fourth-order bound, and
        where D^4 is not finite; a D^3 that is not finite raises
        ArithmeticError.
        """
        x = as_points(x, self.n)
        dirs = np.eye(self.n)
        if self.n == 2:
            dirs = np.concatenate([dirs, [[1.0, 1.0], [1.0, -1.0]]
                                   / np.sqrt(2.0)])
        offsets = np.concatenate([np.zeros((1, self.n))] + [
            c * r * dirs for c in (0.5, -0.5, 1.0, -1.0)])
        pts = (x[:, None, :] + offsets[None]).reshape(-1, self.n)
        J = self.jet(pts, 4 if self.exact_jets else 3)
        sups = [1.5 * np.abs(D).reshape(x.shape[0], -1, D[0].size).sum(
            axis=2).max(axis=1) + 1e-12 for D in J[3:]]
        if not np.all(np.isfinite(sups[0])):
            raise ArithmeticError(
                "third derivative is not finite within %g of x = %s"
                % (r, np.array2string(x.ravel())))
        if not self.exact_jets:
            return sups[0], np.full(x.shape[0], np.inf)
        return sups[0], np.nan_to_num(sups[1], nan=np.inf)

    # algebra ----------------------------------------------------------------

    def __add__(self, other):
        if np.isscalar(other):
            other = constant(float(other), self.n)
        f, g = self, other
        harm = None
        if f.harmonics is not None and g.harmonics is not None:
            harm = f.harmonics + g.harmonics
        four = None
        if f.fourier is not None and g.fourier is not None:
            four = lambda xi: f.fourier(xi) + g.fourier(xi)
        frad = None
        if four is not None:
            frad = max(f.fourier_radius, g.fourier_radius)
        return _Node(
            f.n, lambda x, k, c: [a + b for a, b in zip(
                c.jet(f, x, k)[:k + 1], c.jet(g, x, k))],
            ((f, 0), (g, 0)),
            sup=f.sup + g.sup, grad_sup=f.grad_sup + g.grad_sup,
            hess_sup=f.hess_sup + g.hess_sup, tail=f.tail + g.tail,
            fourier=four, fourier_radius=frad, harmonics=harm)

    __radd__ = __add__

    def __neg__(self):
        return self * (-1.0)

    def __sub__(self, other):
        if np.isscalar(other):
            other = constant(float(other), self.n)
        return self + (other * (-1.0))

    def __rsub__(self, other):
        return (self * (-1.0)) + other

    def __mul__(self, other):
        if np.isscalar(other):
            s = float(other)
            f = self
            harm = None
            if f.harmonics is not None:
                harm = [(s * a, k, p) for a, k, p in f.harmonics]
            four = None
            if f.fourier is not None:
                four = lambda xi: s * f.fourier(xi)
            return _Node(
                f.n, lambda x, k, c: [s * a for a in c.jet(f, x, k)[:k + 1]],
                ((f, 0),),
                sup=abs(s) * f.sup, grad_sup=abs(s) * f.grad_sup,
                hess_sup=abs(s) * f.hess_sup, tail=f.tail.scaled(s),
                fourier=four, fourier_radius=f.fourier_radius, harmonics=harm)
        f, g = self, other
        mean = 0.0
        if f.tail.period is not None and g.tail.period is not None:
            mean = _periodic_product_mean(f, g)
        harm = None
        if f.harmonics is not None and g.harmonics is not None:
            harm = _harmonic_product(f.harmonics, g.harmonics)
        return _Node(
            f.n, lambda x, k, c: _leibniz(c.jet(f, x, k), c.jet(g, x, k), k, f.n),
            ((f, 0), (g, 0)),
            sup=f.sup * g.sup,
            grad_sup=f.sup * g.grad_sup + g.sup * f.grad_sup,
            hess_sup=(f.sup * g.hess_sup + g.sup * f.hess_sup
                      + 2 * f.grad_sup * g.grad_sup),
            tail=f.tail.product(g.tail, mean), harmonics=harm)

    __rmul__ = __mul__


class _Node(SmoothFunction):
    """A function whose jet one rule computes: rule(x, k, call) returns
    [D^0, ..., D^k] at x, evaluating each child through call.jet.
    exact=False marks a rule whose jets are not exact to order 4; a node
    is exact_jets only if its rule and all its children are."""

    def __init__(self, n, rule, children=(), exact=True, **meta):
        self._rule = rule
        self._children = tuple(children)
        self.exact_jets = exact and all(f.exact_jets
                                        for f, _ in self._children)
        self._set_meta(n, **meta)

    def _eval(self, x, k, call):
        return self._rule(x, k, call)


class _Call:
    """One public evaluation: the order each node is evaluated at and the
    jets computed so far, by node and point array.  The memo holds the
    arrays, so their ids stay unique for the duration of the call."""

    def __init__(self, root, k):
        self.orders = root._orders(k)
        self.memo = {}

    def jet(self, f, x, k):
        key = (id(f), id(x))
        hit = self.memo.get(key)
        if hit is None:
            order = max(k, self.orders.get(id(f), k))
            hit = self.memo[key] = (x, f._eval(x, order, self))
        return hit[1]


def _periodic_product_mean(f, g):
    period = _combine_periods(f.tail.period, g.tail.period)
    if period in (None, -1.0) or f.n != 1:
        return 0.0
    x, w = gl_rule(64)
    # mean over one far period of (f - lim)(g - lim); radius large enough
    # that decaying residuals are negligible for catalog functions
    t0 = 0.0
    pts = (t0 + 0.5 * period * (x + 1.0)).reshape(-1, 1)
    fv = f(pts) - f.tail.limit
    gv = g(pts) - g.tail.limit
    return float(np.dot(w, fv * gv) * 0.5)


def _harmonic_product(h1, h2):
    out = []
    for a1, k1, p1 in h1:
        for a2, k2, p2 in h2:
            k1 = np.asarray(k1, dtype=float)
            k2 = np.asarray(k2, dtype=float)
            out.append((0.5 * a1 * a2, k1 + k2, p1 + p2))
            out.append((0.5 * a1 * a2, k1 - k2, p1 - p2))
    return _merge_harmonics(out)


def _merge_harmonics(harm):
    merged = {}
    for a, k, p in harm:
        k = np.asarray(k, dtype=float)
        if np.all(k == 0) and abs(a) > 0:
            key = (tuple(k), 0.0)
            amp = a * np.cos(p)
            a, p = amp, 0.0
        else:
            if (k < 0).any() and (k[k != 0][0] < 0 if (k != 0).any() else False):
                k, p = -k, -p
            key = (tuple(np.round(k, 12)), round(p % (2 * np.pi), 12))
        if key in merged:
            merged[key] = (merged[key][0] + a, k, p)
        else:
            merged[key] = (a, k, p)
    return [v for v in merged.values() if abs(v[0]) > 1e-15]


# -- catalog ------------------------------------------------------------------

def constant(c, n):
    c = float(c)

    def jet(x, k, call):
        m = x.shape[0]
        return [np.full(m, c)] + [np.zeros((m,) + (n,) * j)
                                  for j in range(1, k + 1)]

    return _Node(n, jet, sup=abs(c), grad_sup=0.0, hess_sup=0.0,
                 tail=Tail(c), harmonics=[(c, np.zeros(n), 0.0)],
                 fourier=None)


def gaussian_bump(n, center=None, width=1.0, height=1.0):
    """height * exp(-|x - center|^2 / (2 width^2))."""
    c = np.zeros(n) if center is None else np.atleast_1d(np.asarray(center, dtype=float))
    w = float(width)
    h = float(height)
    curv = -np.eye(n)[None] / (w * w)

    def jet(x, k, call):
        d = x - c
        v = h * np.exp(-np.sum(d * d, axis=1) / (2 * w * w))
        if k == 0:
            return [v]
        if n == 1:
            # D^j = (-1/w)^j He_j(s) v with s = d / w and the Hermite
            # recurrence He_j = s He_{j-1} - (j - 1) He_{j-2}
            s = d[:, 0] / w
            out, he, prev = [v], s, 1.0
            for j in range(1, k + 1):
                if j > 1:
                    he, prev = s * he - (j - 1) * prev, he
                out.append(((-1.0 / w) ** j * v * he).reshape((-1,) + (1,) * j))
            return out
        # exp of the quadratic q = -|x - c|^2 / (2 w^2): D^2 q is constant
        q = [v, -d / (w * w), curv] + [None] * (k - 2)
        return _chain([v] * (k + 1), q, k, n)

    rc = np.linalg.norm(c)
    resid = lambda r: abs(h) * np.exp(-max(r - rc, 0.0) ** 2 / (2 * w * w))
    fac = abs(h) / (w * w)

    def fourier(xi):
        q = np.sum(xi * xi, axis=1)
        phase = np.exp(-1j * (xi @ c))
        return h * (2 * np.pi) ** (n / 2.0) * w ** n * np.exp(-w * w * q / 2) * phase

    return _Node(
        n, jet, sup=abs(h),
        grad_sup=abs(h) * np.exp(-0.5) / w,
        hess_sup=fac, tail=Tail(0.0, resid),
        fourier=fourier, fourier_radius=12.0 / w)


def polynomial_gaussian(coeffs, center=0.0, width=1.0):
    """1d p(t) exp(-t^2/2) with t = (x - center)/width; exact Fourier data."""
    coeffs = np.asarray(coeffs, dtype=float)
    c, w = float(center), float(width)
    P = np.polynomial.polynomial
    # D^j = P_j(t) exp(-t^2/2) / w^j with P_0 = p, P_{j+1} = P_j' - t P_j
    polys = [coeffs]

    def poly(j):
        while len(polys) <= j:
            polys.append(P.polysub(P.polyder(polys[-1]),
                                   P.polymulx(polys[-1])))
        return polys[j]

    def jet(x, k, call):
        t = (x[:, 0] - c) / w
        env = np.exp(-t * t / 2)
        out = [P.polyval(t, polys[0]) * env]
        for j in range(1, k + 1):
            out.append((P.polyval(t, poly(j)) * env / w ** j).reshape(
                (-1,) + (1,) * j))
        return out

    # Fourier of t^m e^{-t^2/2} is sqrt(2pi) (-i)^m He_m(eta) e^{-eta^2/2}
    m = coeffs.size
    he = [hermite_e.HermiteE.basis(k) for k in range(m)]

    def fourier(xi):
        eta = w * xi[:, 0]
        env = np.exp(-eta * eta / 2)
        tot = np.zeros(xi.shape[0], dtype=complex)
        for k, a in enumerate(coeffs):
            if a:
                tot += a * (-1j) ** k * he[k](eta)
        return np.sqrt(2 * np.pi) * w * tot * env * np.exp(-1j * xi[:, 0] * c)

    grid = np.linspace(-12, 12, 20001)
    pad = 1.0005  # dense-grid maxima padded into certified upper bounds
    genv = np.exp(-grid * grid / 2)
    pv = np.abs(P.polyval(grid, polys[0]) * genv)
    sup = float(pv.max()) * pad
    resid = lambda r: (sup if r < abs(c) + 12 * w else
                       float(np.max(pv) * np.exp(-(max((r - abs(c)) / w, 12.0) ** 2 - 144) / 2)))
    gs = float(np.max(np.abs(P.polyval(grid, poly(1))) * genv)) / w * pad
    hs = float(np.max(np.abs(P.polyval(grid, poly(2))) * genv)) / w ** 2 * pad
    return _Node(1, jet, sup=sup, grad_sup=gs, hess_sup=hs,
                 tail=Tail(0.0, resid), fourier=fourier,
                 fourier_radius=(12.0 + m) / w)


def modulated_gaussian(center, width, freq, phase=0.0, n=1):
    """Gaussian bump times cos(freq . x + phase); Fourier by shift."""
    g = gaussian_bump(n, center, width)
    k = np.atleast_1d(np.asarray(freq, dtype=float))
    wave = plane_wave(k, phase, n=n)
    gf = g.fourier

    def fourier(xi):
        return 0.5 * (np.exp(1j * phase) * gf(xi - k[None, :])
                      + np.exp(-1j * phase) * gf(xi + k[None, :]))

    def jet(x, order, call):
        return _leibniz(g._jet(x, order), wave._jet(x, order), order, n)

    kn = np.linalg.norm(k)
    return _Node(n, jet, sup=g.sup,
                 grad_sup=g.grad_sup + g.sup * kn,
                 hess_sup=g.hess_sup + 2 * g.grad_sup * kn + g.sup * kn * kn,
                 tail=g.tail.product(Tail.bounded(1.0)),
                 fourier=fourier,
                 fourier_radius=g.fourier_radius + kn)


def plane_wave(freq, phase=0.0, amp=1.0, n=None):
    """amp * cos(freq . x + phase); exact symbol data, periodic 1d tail."""
    k = np.atleast_1d(np.asarray(freq, dtype=float))
    if n is None:
        n = k.size
    a, ph = float(amp), float(phase)
    powers = [np.ones(())]  # k tensored with itself j times

    def jet(x, order, call):
        # D^j = a cos(th + j pi/2) k^(x)j: -a sin, -a cos, a sin, a cos, ...
        th = x @ k + ph
        cs = np.cos(th)
        out = [a * cs]
        sn = np.sin(th) if order else None
        for j in range(1, order + 1):
            if len(powers) <= j:
                powers.append(np.multiply.outer(powers[-1], k))
            coef = (a if (j - 1) % 4 > 1 else -a) * powers[j]
            out.append(_bc(sn if j % 2 else cs, j) * coef[None])
        return out

    kn = np.linalg.norm(k)
    period = 2 * np.pi / kn if (n == 1 and kn > 0) else None
    return _Node(n, jet, sup=abs(a),
                 grad_sup=abs(a) * kn, hess_sup=abs(a) * kn * kn,
                 tail=Tail(0.0, lambda r: 0.0, period, abs(a)),
                 harmonics=[(a, k.copy(), ph)])


def tensor_product(f1, f2):
    """f(x1, x2) = f1(x1) f2(x2) for 1d factors; keeps Fourier data."""
    if f1.n != 1 or f2.n != 1:
        raise ValueError("tensor factors must be 1d")

    def embed(J, axis):
        # a jet in one coordinate as a jet on R^2
        out = [J[0]]
        for j in range(1, len(J)):
            T = np.zeros((J[0].shape[0],) + (2,) * j)
            T[(slice(None),) + (axis,) * j] = J[j].reshape(-1)
            out.append(T)
        return out

    def jet(x, k, c):
        return _leibniz(embed(f1._jet(x[:, :1], k), 0),
                        embed(f2._jet(x[:, 1:], k), 1), k, 2)

    four = None
    frad = None
    if f1.fourier is not None and f2.fourier is not None:
        four = lambda xi: f1.fourier(xi[:, :1]) * f2.fourier(xi[:, 1:])
        frad = max(f1.fourier_radius, f2.fourier_radius)
    r1, r2 = f1.tail.resid, f2.tail.resid
    tail = Tail(0.0, lambda r: (r1(r / np.sqrt(2)) * f2.sup
                                + r2(r / np.sqrt(2)) * f1.sup))
    return _Node(2, jet, exact=f1.exact_jets and f2.exact_jets,
                 sup=f1.sup * f2.sup,
                 grad_sup=f1.grad_sup * f2.sup + f2.grad_sup * f1.sup,
                 hess_sup=(f1.hess_sup * f2.sup + f2.hess_sup * f1.sup
                           + 2 * f1.grad_sup * f2.grad_sup),
                 tail=tail, fourier=four, fourier_radius=frad)


def harmonic_polynomial(n, kind):
    """Small catalog of harmonic polynomials, clipped metadata on B_4."""
    if n == 2:
        table = {
            "x1": (lambda x: x[:, 0],
                   lambda x: np.stack([np.ones(len(x)), np.zeros(len(x))], 1),
                   lambda x: np.zeros((len(x), 2, 2))),
            "re_z2": (lambda x: x[:, 0] ** 2 - x[:, 1] ** 2,
                      lambda x: np.stack([2 * x[:, 0], -2 * x[:, 1]], 1),
                      lambda x: np.broadcast_to(np.diag([2.0, -2.0]),
                                                (len(x), 2, 2)).copy()),
            "im_z2": (lambda x: 2 * x[:, 0] * x[:, 1],
                      lambda x: np.stack([2 * x[:, 1], 2 * x[:, 0]], 1),
                      lambda x: np.broadcast_to(np.array([[0.0, 2.0], [2.0, 0.0]]),
                                                (len(x), 2, 2)).copy()),
            "re_z3": (lambda x: x[:, 0] ** 3 - 3 * x[:, 0] * x[:, 1] ** 2,
                      lambda x: np.stack([3 * x[:, 0] ** 2 - 3 * x[:, 1] ** 2,
                                          -6 * x[:, 0] * x[:, 1]], 1),
                      lambda x: np.stack([
                          np.stack([6 * x[:, 0], -6 * x[:, 1]], 1),
                          np.stack([-6 * x[:, 1], -6 * x[:, 0]], 1)], 1)),
        }
    else:
        table = {
            "x1": (lambda x: x[:, 0],
                   lambda x: np.ones((len(x), 1)),
                   lambda x: np.zeros((len(x), 1, 1))),
        }
    val, grad, hess = table[kind]
    return SmoothFunction(n, val, grad, hess, sup=60.0, grad_sup=60.0,
                          hess_sup=40.0, tail=Tail.bounded(60.0))


# -- transforms ---------------------------------------------------------------

def translate(f, a):
    """f(. + a)."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    shift = np.linalg.norm(a)
    rs = f.tail.resid
    tail = Tail(f.tail.limit, lambda r: rs(max(r - shift, 0.0)),
                f.tail.period, f.tail.amp)
    harm = None
    if f.harmonics is not None:
        harm = [(amp, k, p + float(np.dot(k, a))) for amp, k, p in f.harmonics]
    four = None
    if f.fourier is not None:
        four = lambda xi: f.fourier(xi) * np.exp(1j * (xi @ a))
    return _Node(
        f.n, lambda x, k, c: c.jet(f, x + a, k)[:k + 1], ((f, 0),),
        sup=f.sup, grad_sup=f.grad_sup, hess_sup=f.hess_sup, tail=tail,
        fourier=four, fourier_radius=f.fourier_radius, harmonics=harm)


def affine_precompose(f, A):
    """x -> f(A x) for an invertible matrix A."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    ev = np.linalg.svd(A, compute_uv=False)
    rs = f.tail.resid
    tail = Tail(f.tail.limit, lambda r: rs(r * ev.min()), None, f.tail.amp)
    if f.tail.period is not None and f.n == 1:
        tail = Tail(f.tail.limit, lambda r: rs(r * ev.min()),
                    f.tail.period / ev.min(), f.tail.amp)

    def jet(x, k, c):
        # D^j (f o A) contracts every slot of D^j f with A
        J = c.jet(f, x @ A.T, k)
        out = [J[0]]
        for j in range(1, k + 1):
            T = J[j]
            for axis in range(1, j + 1):
                T = np.moveaxis(np.tensordot(T, A, axes=([axis], [0])), -1, axis)
            out.append(T)
        return out

    return _Node(f.n, jet, ((f, 0),),
                 sup=f.sup, grad_sup=f.grad_sup * ev.max(),
                 hess_sup=f.hess_sup * ev.max() ** 2, tail=tail)


def directional_derivative(f, e):
    """d_e f; its order-k jet is the order-(k+1) jet of f contracted with e."""
    e = np.atleast_1d(np.asarray(e, dtype=float))
    harm = None
    if f.harmonics is not None:
        harm = [(a * float(np.dot(k, e)), k, p + np.pi / 2)
                for a, k, p in f.harmonics if np.dot(k, e) != 0]
    four = None
    if f.fourier is not None:
        four = lambda xi: 1j * (xi @ e) * f.fourier(xi)
    rs = f.tail.resid
    # derivative of the residual is not controlled by resid alone; fall
    # back to the gradient bound outside the catalog-certified region
    tail = Tail(0.0, lambda r: min(f.grad_sup, 50.0 * rs(max(r - 1.0, 0.0))),
                f.tail.period, f.grad_sup if f.tail.period else 0.0)
    if f.harmonics is not None and f.tail.period is not None:
        amp = sum(abs(a * np.dot(k, e)) for a, k, p in f.harmonics)
        tail = Tail(0.0, lambda r: 0.0, f.tail.period, amp)
    return _Node(f.n, lambda x, k, c: [np.einsum("...i,i->...", D, e)
                                       for D in c.jet(f, x, k + 1)[1:k + 2]],
                 ((f, 1),), sup=f.grad_sup, grad_sup=f.hess_sup,
                 hess_sup=np.inf, tail=tail, fourier=four,
                 fourier_radius=f.fourier_radius, harmonics=harm)


def _compose(f, dphi, **meta):
    """phi(f), with dphi(v, k) = [phi(v), phi'(v), ..., phi^(k)(v)]."""

    def jet(x, k, c):
        F = c.jet(f, x, k)
        return _chain(dphi(F[0], k), F, k, f.n)

    return _Node(f.n, jet, ((f, 0),), **meta)


def positive_part(f):
    """f_+ (C^{1,1} from below; one-sided derivatives on {f = 0})."""
    t = f.tail
    return _compose(
        f, lambda v, k: [np.maximum(v, 0.0), (v > 0).astype(float)] + [None] * k,
        exact=False, sup=f.sup, grad_sup=f.grad_sup, hess_sup=f.hess_sup,
        tail=Tail(max(t.limit, 0.0), t.resid, t.period, t.amp))


def positive_part_square(f):
    """(f_+)^2; C^{1,1} composite with one-sided Hessian on {f = 0}."""

    def dphi(v, k):
        fp = np.maximum(v, 0.0)
        return [fp ** 2, 2 * fp, 2 * (v > 0).astype(float)] + [None] * k

    lim = max(f.tail.limit, 0.0) ** 2
    rs, amp = f.tail.resid, f.tail.amp
    bound = abs(f.tail.limit) + amp
    tail = Tail(lim, lambda r: rs(r) * 2 * (bound + rs(r)) + 2 * amp * bound + amp ** 2
                if f.tail.period else rs(r) * (2 * bound + rs(r)))
    return _compose(f, dphi, exact=False, sup=f.sup ** 2,
                    grad_sup=2 * f.sup * f.grad_sup,
                    hess_sup=2 * f.sup * f.hess_sup + 2 * f.grad_sup ** 2,
                    tail=tail)


# -- cutoffs ------------------------------------------------------------------

@lru_cache(maxsize=None)
def _logistic_derivative(i):
    """s^(i) for s(y) = 1/(1 + e^y) as {(a, b): c}, the sum of c S^a D^b
    with S = s (1 - s) and D = s - (1 - s); s' = -S, S' = S D, D' = -2 S."""
    if i == 1:
        return {(1, 0): -1}
    out = {}
    for (a, b), c in _logistic_derivative(i - 1).items():
        out[(a, b + 1)] = out.get((a, b + 1), 0) + a * c
        if b:
            out[(a + 1, b - 1)] = out.get((a + 1, b - 1), 0) - 2 * b * c
    return out


def _profile_jet(t, k):
    """[rho, rho', ..., rho^(k)] of the profile at t strictly inside (0, 1):
    rho = s(h(t)) with s(y) = 1/(1 + e^y) and h(t) = 1/(1-t) - 1/t."""
    h = np.clip(1.0 / (1.0 - t) - 1.0 / t, -700.0, 700.0)
    eh = np.exp(h)
    rho = 1.0 / (1.0 + eh)
    if k == 0:
        return [rho]
    tau = eh * rho  # 1 - rho without the cancellation
    S, D = rho * tau, rho - tau
    ds = [rho] + [sum(c * S ** a * D ** b if b else c * S ** a
                      for (a, b), c in _logistic_derivative(i).items())
                  for i in range(1, k + 1)]
    dh = [h] + [factorial(i) * (1.0 / (1.0 - t) ** (i + 1)
                                - (-1) ** i / t ** (i + 1))
                for i in range(1, k + 1)]
    return [a.reshape(-1) for a in _chain(ds, dh, k, 1)]


class Cutoff(_Node):
    """Radially symmetric plateau bump: 1 on B_{r_in}, 0 outside B_{r_out}."""

    def __init__(self, n, r_in, r_out):
        if not 0 < r_in < r_out:
            raise ValueError("need 0 < r_in < r_out")
        self.r_in, self.r_out = float(r_in), float(r_out)
        dr = self.r_out - self.r_in
        ts = np.linspace(1e-6, 1 - 1e-6, 20001)
        _, p1, p2 = _profile_jet(ts, 2)
        g1 = np.max(np.abs(p1)) / dr
        rad = r_in + ts * dr
        if n == 1:
            op2 = np.max(np.abs(p2)) / dr ** 2
        else:
            op2 = max(np.max(np.abs(p2)) / dr ** 2,
                      np.max(np.abs(p1) / (dr * rad)))
        self.c2_norm = 1.0 + g1 + op2
        super().__init__(n, self._jet_rule, sup=1.0, grad_sup=g1,
                         hess_sup=op2, tail=Tail.compact(self.r_out, 1.0))

    def _jet_rule(self, x, k, call):
        # the profile of t = (|x| - r_in) / dr, with the radius
        # |x| = sqrt(|x|^2) differentiated by the square-root rule
        n, dr = self.n, self.r_out - self.r_in
        r = np.linalg.norm(x, axis=1)
        t = (r - self.r_in) / dr
        mid = (t > 1e-9) & (t < 1 - 1e-9)
        out = [(t <= 1e-9).astype(float)] + [
            np.zeros((x.shape[0],) + (n,) * j) for j in range(1, k + 1)]
        if not mid.any():
            return out
        xm, tm = x[mid], t[mid]
        if k == 0:
            radius = []
        elif n == 1:  # |x| is linear away from 0
            radius = [None, np.sign(xm)] + [None] * (k - 1)
        else:
            radius = _sqrt_jet([r[mid] ** 2, 2 * xm, 2 * np.eye(n)[None]]
                               + [None] * (k - 2), k, n)
        J = _chain(_profile_jet(tm, k), [tm] + [
            None if D is None else D / dr for D in radius[1:k + 1]], k, n)
        for j in range(k + 1):
            out[j][mid] = J[j]
        return out


def make_cutoff(r_in, r_out, n=1):
    return Cutoff(n, r_in, r_out)


# -- directions, quotients, segment averages ---------------------------------

class Direction:
    def __init__(self, e):
        e = np.atleast_1d(np.asarray(e, dtype=float))
        nrm = np.linalg.norm(e)
        if abs(nrm - 1.0) > 1e-14:
            e = e / nrm
        self.e = e

    def __array__(self, dtype=None):
        return self.e.astype(dtype) if dtype else self.e


def incremental_quotient(u, h, e):
    """(u(x + h e) - u(x)) / h; sup bound inherited from the gradient."""
    h = float(h)
    if h == 0.0:
        raise ValueError("step h must be nonzero")
    if abs(h) >= 0.5:
        raise ValueError("incremental step must satisfy |h| < 1/2")
    e = np.atleast_1d(np.asarray(e, dtype=float))
    diff = (translate(u, h * e) - u) * (1.0 / h)
    diff.sup = min(diff.sup, u.grad_sup)
    return diff


def averaged_square(u, h, e, order=16):
    """A(x) = integral over t in [0,1] of u^2(x + t h e) dt (GL nodes).

    All quadrature shifts are evaluated as one stacked call."""
    if order < 16:
        raise ValueError("use at least 16 quadrature nodes")
    h = float(h)
    e = np.atleast_1d(np.asarray(e, dtype=float))
    tq, wq = gl_rule(order)
    tq = 0.5 * (tq + 1.0)
    wq = 0.5 * wq
    shifts = (tq * h)[:, None] * e[None, :]
    u2 = u * u

    def jet(x, k, c):
        m = x.shape[0]
        J = c.jet(u2, (x[None] + shifts[:, None]).reshape(-1, u.n), k)
        return [np.tensordot(wq, D.reshape((order, m) + D.shape[1:]), axes=1)
                for D in J[:k + 1]]

    rs = u2.tail.resid
    tail = Tail(u2.tail.limit, lambda r: rs(max(r - abs(h), 0.0)),
                u2.tail.period, u2.tail.amp)
    return _Node(u.n, jet, ((u2, 0),), sup=u.sup ** 2,
                 grad_sup=u2.grad_sup, hess_sup=u2.hess_sup, tail=tail)


def averaged_square_root(u, h, e, order=16):
    """u_{h,e}(x) = sqrt(integral of u^2 along the segment)."""
    A = averaged_square(u, h, e, order)
    lim = np.sqrt(max(A.tail.limit, 0.0))
    rs = A.tail.resid
    tail = Tail(lim, (lambda r: np.sqrt(rs(r))) if lim == 0.0
                else (lambda r: rs(r) / lim), A.tail.period,
                np.sqrt(A.tail.amp + A.tail.limit) if A.tail.period else 0.0)
    return _Node(u.n, lambda x, k, c: _sqrt_jet(c.jet(A, x, k), k, u.n),
                 ((A, 0),), sup=u.sup, grad_sup=u.grad_sup, hess_sup=np.inf,
                 tail=tail)


# -- grid functions -----------------------------------------------------------

class GridFunction:
    """Values on a uniform lattice over [-L, L]^n plus an exterior closure."""

    def __init__(self, n, L, values, exterior):
        self.n = int(n)
        self.L = float(L)
        self.values = np.asarray(values, dtype=float)
        if self.n == 1 and self.values.ndim != 1:
            raise ValueError("1d grid values must be a vector")
        if self.n == 2 and self.values.ndim != 2:
            raise ValueError("2d grid values must be a matrix")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid values must be finite")
        self.N = self.values.shape[0]
        self.h = 2 * self.L / (self.N - 1)
        self.exterior = exterior
        self.axis = np.linspace(-L, L, self.N)

    def nodes(self):
        if self.n == 1:
            return self.axis.reshape(-1, 1)
        X, Y = np.meshgrid(self.axis, self.axis, indexing="ij")
        return np.stack([X.ravel(), Y.ravel()], axis=1)

    def promote(self):
        """Cubic-spline SmoothFunction: spline inside, closure outside."""
        ext = self.exterior
        if self.n == 1:
            from scipy.interpolate import CubicSpline
            sp = CubicSpline(self.axis, self.values, bc_type="clamped")
            d1, d2 = sp.derivative(1), sp.derivative(2)

            def val(x):
                t = x[:, 0]
                inside = np.abs(t) <= self.L
                out = np.where(inside, sp(np.clip(t, -self.L, self.L)), 0.0)
                if (~inside).any():
                    out[~inside] = ext.value(x[~inside])
                return out

            def grad(x):
                t = x[:, 0]
                inside = np.abs(t) <= self.L
                g = np.where(inside, d1(np.clip(t, -self.L, self.L)), 0.0)
                g = g[:, None]
                if (~inside).any():
                    g[~inside] = ext.gradient(x[~inside])
                return g

            def hess(x):
                t = x[:, 0]
                inside = np.abs(t) <= self.L
                h2 = np.where(inside, d2(np.clip(t, -self.L, self.L)), 0.0)
                h2 = h2[:, None, None]
                if (~inside).any():
                    h2[~inside] = ext.hessian(x[~inside])
                return h2
        else:
            from scipy.interpolate import RectBivariateSpline
            sp = RectBivariateSpline(self.axis, self.axis, self.values,
                                     kx=3, ky=3)

            def _inside(x):
                return (np.abs(x[:, 0]) <= self.L) & (np.abs(x[:, 1]) <= self.L)

            def val(x):
                inside = _inside(x)
                xc = np.clip(x, -self.L, self.L)
                out = sp.ev(xc[:, 0], xc[:, 1])
                if (~inside).any():
                    out[~inside] = ext.value(x[~inside])
                return out

            def grad(x):
                inside = _inside(x)
                xc = np.clip(x, -self.L, self.L)
                g = np.stack([sp.ev(xc[:, 0], xc[:, 1], dx=1),
                              sp.ev(xc[:, 0], xc[:, 1], dy=1)], axis=1)
                if (~inside).any():
                    g[~inside] = ext.gradient(x[~inside])
                return g

            def hess(x):
                inside = _inside(x)
                xc = np.clip(x, -self.L, self.L)
                H = np.empty((x.shape[0], 2, 2))
                H[:, 0, 0] = sp.ev(xc[:, 0], xc[:, 1], dx=2)
                H[:, 1, 1] = sp.ev(xc[:, 0], xc[:, 1], dy=2)
                H[:, 0, 1] = H[:, 1, 0] = sp.ev(xc[:, 0], xc[:, 1], dx=1, dy=1)
                if (~inside).any():
                    H[~inside] = ext.hessian(x[~inside])
                return H

        sup = max(float(np.max(np.abs(self.values))), ext.sup)
        rs = ext.tail.resid
        tail = Tail(ext.tail.limit,
                    lambda r: (rs(r) if r > self.L * np.sqrt(self.n)
                               else rs(r) + sup + abs(ext.tail.limit)),
                    ext.tail.period, ext.tail.amp)
        return SmoothFunction(self.n, val, grad, hess, sup=sup,
                              grad_sup=np.inf, hess_sup=np.inf, tail=tail)

    def boundary_mismatch(self):
        """Gap between interior values and the exterior closure at the rim."""
        ext = self.exterior
        if self.n == 1:
            pts = np.array([[-self.L], [self.L]])
            vals = np.array([self.values[0], self.values[-1]])
        else:
            idx = [0, self.N - 1]
            pts, vals = [], []
            for i in idx:
                for j in range(self.N):
                    pts.append([self.axis[i], self.axis[j]])
                    vals.append(self.values[i, j])
                    pts.append([self.axis[j], self.axis[i]])
                    vals.append(self.values[j, i])
            pts, vals = np.asarray(pts), np.asarray(vals)
        return float(np.max(np.abs(vals - ext.value(as_points(pts, self.n)))))
