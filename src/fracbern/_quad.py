"""Low-level quadrature building blocks.

Everything here is plain numpy: Gauss-Legendre panels, a Gauss-Jacobi
rule for a power weight, geometric panel grids for integrable power
singularities (one range, or one per row), the half-sphere angular rule
and the radial rules built on it, a row-by-row dot product for batched
quadrature sums, squared row norms, and a periodic-tail summation based
on Euler-Maclaurin for slowly decaying oscillatory tails.
"""

from functools import cache, lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss


# integrand points per call of the far field (half that in a pass, see
# nonlocal_ops._chunks), and the block size of the zone weight, the
# lattice's 2d cell masses and the gather that builds A
CHUNK = 16384


@cache
def gl_rule(order):
    """Gauss-Legendre nodes/weights on [-1, 1].  Cached and read-only."""
    return _read_only(*leggauss(order))


def jacobi_rule(order, beta):
    """Gauss-Jacobi nodes x (increasing) and weights w on [-1, 1] for the
    weight (1 + x)^beta, beta > -1: sum_k w_k f(x_k) is the integral of
    (1 + x)^beta f(x) for every polynomial f of degree < 2 order.

    Golub & Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues
    of the symmetric tridiagonal matrix of the monic three-term
    recurrence, and each weight is the total mass 2^(beta+1) / (beta+1)
    times the squared first component of its eigenvector.
    """
    k = np.arange(1, order)
    d = 2 * np.arange(order) + beta   # 2k + alpha + beta, alpha = 0
    diag = np.empty(order)
    diag[0] = beta / (beta + 2)
    diag[1:] = beta ** 2 / (d[1:] * (d[1:] + 2))
    off = 2 * k * (k + beta) / d[1:] / np.sqrt(d[1:] ** 2 - 1)
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return x, 2 ** (beta + 1) / (beta + 1) * v[0] ** 2


def panel_nodes(edges, order):
    """Nodes and weights for GL quadrature on consecutive panels.

    edges : increasing 1d array of panel boundaries, shape (p+1,)
    Returns flat arrays (nodes, weights) of length p*order.
    """
    x, w = gl_rule(order)
    a = edges[:-1]
    h = 0.5 * np.diff(edges)
    mid = a + h
    nodes = (mid[:, None] + h[:, None] * x[None, :]).ravel()
    weights = (h[:, None] * w[None, :]).ravel()
    return nodes, weights


def geometric_edges(r_inner, r_outer, panels_per_decade):
    """Geometrically spaced panel edges covering [r_inner, r_outer]."""
    if r_outer <= r_inner:
        raise ValueError("empty radial range")
    decades = np.log10(r_outer / r_inner)
    n = max(int(np.ceil(decades * panels_per_decade)), 1)
    return np.geomspace(r_inner, r_outer, n + 1)


def geometric_panels(r_inner, r_outer, panels_per_decade):
    """The panels of geometric_edges(r_inner[i], r_outer[i], ppd) for
    every row i of the arrays r_inner, r_outer at once, flattened in row
    order: (panels per row, left edges, right edges)."""
    decades = np.log10(r_outer / r_inner)
    n = np.maximum(np.ceil(decades * panels_per_decade), 1).astype(int)
    row = np.repeat(np.arange(n.size), n)
    j = np.arange(row.size) - np.repeat(np.cumsum(n) - n, n)
    # the edges of np.geomspace: 10 ** linspace(log10 r_inner, log10 r_outer)
    lo, hi = np.log10(r_inner), np.log10(r_outer)
    step = ((hi - lo) / n)[row]
    edge = lambda k: 10.0 ** (lo[row] + k * step)
    left = np.where(j == 0, r_inner[row], edge(j))
    right = np.where(j + 1 == n[row], r_outer[row], edge(j + 1))
    return n, left, right


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@cache
def half_sphere(n, count):
    """Directions (k, n) and weights (k,) that integrate an even function
    over the unit sphere S^{n-1} exactly as the full count-direction
    trapezoid rule does, from one direction of each +-pair: +1 with
    weight 2 in 1d; in 2d the first count // 2 angles of the count
    uniform ones, each with weight 4 pi / count (count must be even).
    The weights sum to |S^{n-1}|.  Cached and read-only."""
    if n == 1:
        return _read_only(np.array([[1.0]]), np.array([2.0]))
    if count % 2:
        raise ValueError("a half-sphere rule needs an even direction count")
    th = np.linspace(0.0, 2 * np.pi, count, endpoint=False)[:count // 2]
    return _read_only(np.stack([np.cos(th), np.sin(th)], axis=1),
                      np.full(count // 2, 4 * np.pi / count))


@lru_cache(maxsize=256)
def _radial_nodes(n, r_lo, r_hi, order, ppd, n_ang, zone=False):
    """The radii t, nodes z and weights w of radial_rule (of zone_rule:
    a panel on [0, r_lo] first, and no t^{n-1} in w), which do not
    depend on the kernel: read-only, shared by every kernel of
    dimension n."""
    edges = geometric_edges(r_lo, r_hi, ppd)
    t, wt = panel_nodes(np.append(0.0, edges) if zone else edges, order)
    dirs, wd = half_sphere(n, n_ang)
    z = (t[:, None, None] * dirs).reshape(-1, n)
    w = ((wt * t ** (0 if zone else n - 1))[:, None] * wd).ravel()
    return _read_only(t, z, w)


@lru_cache(maxsize=256)
def radial_rule(kernel, r_lo, r_hi, order, ppd, n_ang):
    """Nodes z, kernel values K(z) and weights w with

        sum_k w_k F(z_k) K(z_k) ~ integral over r_lo < |z| < r_hi of F K

    for an even F K: Gauss-Legendre panels (ppd per decade) on a
    geometric radial grid times half_sphere(n, n_ang), w = wt t^{n-1} wd.
    Radius-major, so a prefix of whole panels is the rule on fewer
    panels.  Cached, since zone edges, outer radii and rules recur from
    call to call; the arrays are read-only.  z and w depend only on the
    geometry and are shared by all kernels of one dimension, so a rule
    adds one K(z) array per kernel: pointwise and oracle values over nine
    orders in 1d and 2d fill 36 rules and 36 zone_rules on 14
    geometries, 0.7 MB in all.
    """
    _, z, w = _radial_nodes(kernel.n, r_lo, r_hi, order, ppd, n_ang)
    return (z,) + _read_only(kernel(z)) + (w,)


@lru_cache(maxsize=256)
def zone_rule(kernel, r_lo, r_hi, order, ppd, n_ang):
    """Nodes z, weights k and w with sum w F k ~ the integral of the
    paired remainder (G(x+z) + G(x-z))/2 - G(x) - z^T H z / 2 against K
    over r_lo < |z| < r_hi, F(z) = z^T (D^2 G(x+z) + D^2 G(x-z) - 2 H) z:
    its form (1/2) int_0^1 (1-t) F(tz) / t^2 dt with rho = t |z| swapped
    outside (Fubini), k = M / (2 rho^2), M = kernel.zone_weight.  Radii:
    a Gauss panel on [0, r_lo], where M is linear, then ppd per decade;
    cached as radial_rule, z and w shared by the kernels of dimension n."""
    t, z, w = _radial_nodes(kernel.n, r_lo, r_hi, order, ppd, n_ang, True)
    k = kernel.zone_weight(t, half_sphere(kernel.n, n_ang)[0], r_lo, r_hi)
    return (z,) + _read_only((k / (2 * t * t)[:, None]).ravel()) + (w,)


@cache
def ray_rule(decades):
    """6 order-12 Gauss panels per decade on [1, 10^decades]: a ray
    integral over [a, 10^decades a] is this rule scaled by a.  Cached
    and read-only."""
    return _read_only(*panel_nodes(geometric_edges(1.0, 10.0 ** decades, 6),
                                   12))


def row_dot(a, w):
    """a @ w for every row of a, one BLAS dot per row.

    A batch of one then reproduces np.dot(a, w) bit for bit, which a
    matrix-vector product does not.
    """
    return (a[..., None, :] @ w)[..., 0]


def sq_norms(z):
    """|z_i|^2 for every row of an (m, n) array: one contraction, where
    np.sum(z * z, axis=1) reduces along a short axis 3-4x slower.
    For n <= 2 it adds the same squares in the same order, so
    np.sqrt(sq_norms(z)) equals np.linalg.norm(z, axis=1) bit for bit.
    """
    return np.einsum("ij,ij->i", z, z)


def periodic_tail_1d(g, period, start, kernel_ray, kernel_ray_tail):
    """Integral of g(t)*K(t) over [start, inf) for g periodic, mean zero.

    start : a scalar, or an array of starts, one per row
    g : maps the quadrature nodes of one period, shape start.shape + (24,),
        to an array that broadcasts with them: one row per integrand
        (e.g. per probe), each periodic with the given period and zero
        mean
    kernel_ray : t -> K(t) along the ray, elementwise; with per-row
        starts, t has shape start.shape + (k,) and K may depend on the row
    kernel_ray_tail : a -> integral of K over [a, inf) along the ray,
        elementwise over an array a shaped like t

    Uses the lattice sum S(xi) = sum_m K(start + xi + m*period), whose
    remainder past 48 terms is evaluated with Euler-Maclaurin; the
    single-period integral of g * S is then a 24-node Gauss rule.  S does
    not depend on g, so one call serves every row.
    Returns (value, error_estimate), each of g's leading shape.
    """
    x, w = gl_rule(24)
    xi = 0.5 * period * (x + 1.0)
    wxi = 0.5 * period * w
    m = np.arange(48)
    start = np.asarray(start, dtype=float)[..., None]
    pts = start[..., None] + xi[:, None] + period * m
    s = kernel_ray(pts.reshape(start.shape[:-1] + (-1,)))
    s = s.reshape(pts.shape).sum(axis=-1)
    # Euler-Maclaurin remainder of sum_{m >= 48} K(a + m*period)
    a = start + xi + period * 48
    dk = 1e-4 * a
    k0 = kernel_ray(a)
    k1 = (kernel_ray(a + dk) - kernel_ray(a - dk)) / (2 * dk)
    s += kernel_ray_tail(a) / period + 0.5 * k0 - period * k1 / 12.0
    gv = g(start + xi)
    value = row_dot(gv * s, wxi)
    # third-derivative EM term, estimated crudely from k1 decay
    err = period ** 3 * np.max(np.abs(k1), axis=-1) / a[..., 0] ** 2 / 720.0
    err = abs(err) * period * np.max(np.abs(gv), axis=-1)
    return value, err
