"""Low-level quadrature building blocks.

Everything here is plain numpy: Gauss-Legendre panels, geometric panel
grids for integrable power singularities, a row-by-row dot product for
batched quadrature sums, and a periodic-tail summation based on
Euler-Maclaurin for slowly decaying oscillatory tails.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss

_GL_CACHE = {}


def gl_rule(order):
    """Cached Gauss-Legendre nodes/weights on [-1, 1]."""
    rule = _GL_CACHE.get(order)
    if rule is None:
        rule = leggauss(order)
        _GL_CACHE[order] = rule
    return rule


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


def row_dot(a, w):
    """a @ w for every row of a, one BLAS dot per row.

    A batch of one then reproduces np.dot(a, w) bit for bit, which a
    matrix-vector product does not.
    """
    return (a[..., None, :] @ w)[..., 0]


def periodic_tail_1d(g, period, start, kernel_ray, kernel_ray_tail,
                     n_sum=48, order=24):
    """Integral of g(t)*K(t) over [start, inf) for g periodic, mean zero.

    g : maps the (order,) quadrature nodes of one period to an array of
        shape (..., order): one row per integrand (e.g. per probe), each
        periodic with the given period and zero mean
    kernel_ray : t -> K(t) along the ray (vectorized)
    kernel_ray_tail : a -> integral of K over [a, inf) along the ray

    Uses the lattice sum S(xi) = sum_m K(start + xi + m*period), whose
    remainder past n_sum terms is evaluated with Euler-Maclaurin; the
    single-period integral of g * S is then a smooth quadrature.  S does
    not depend on g, so one call serves every row.
    Returns (value, error_estimate), each of g's leading shape.
    """
    x, w = gl_rule(order)
    xi = 0.5 * period * (x + 1.0)
    wxi = 0.5 * period * w
    m = np.arange(n_sum)
    pts = start + xi[:, None] + period * m[None, :]
    s = kernel_ray(pts.ravel()).reshape(pts.shape).sum(axis=1)
    # Euler-Maclaurin remainder of sum_{m >= n_sum} K(a + m*period)
    a = start + xi + period * n_sum
    dk = 1e-4 * a
    k0 = kernel_ray(a)
    k1 = (kernel_ray(a + dk) - kernel_ray(a - dk)) / (2 * dk)
    s += kernel_ray_tail(a) / period + 0.5 * k0 - period * k1 / 12.0
    gv = g(start + xi)
    value = row_dot(gv * s, wxi)
    # third-derivative EM term, estimated crudely from k1 decay
    err = period ** 3 * np.max(np.abs(k1)) / a[0] ** 2 / 720.0
    err = abs(err) * period * np.max(np.abs(gv), axis=-1)
    return value, err
