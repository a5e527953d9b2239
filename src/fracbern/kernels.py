"""Jump kernels, operator families, measures on [0,1], convex nonlinearities.

A kernel here is an even density K(z) > 0 on R^n \\ {0}, comparable to the
standard power kernel of order 2s (ellipticity constants C1 <= C2 after
factoring out s(1-s)) and, for the smooth class, with first and second
derivatives controlled by the kernel itself (constant C3).

Points are numpy arrays of shape (m, n); kernel evaluation returns (m,).
"""

from functools import cache
from math import gamma

import numpy as np

from ._quad import (CHUNK, geometric_edges, gl_rule, half_sphere, radial_rule,
                    ray_rule, row_dot, sq_norms)

__all__ = [
    "normalizing_constant", "Kernel", "EllipticMatrix", "MeasureOnUnit",
    "ConvexNonlinearity", "fractional_kernel", "anisotropic_kernel",
    "stable_kernel", "custom_kernel", "make_kernel",
    "validate_kernel_class", "rescale_kernel",
    "operator_order", "positive_orders", "bellman_max", "log_sum_exp",
    "linear_nonlinearity",
]


def normalizing_constant(n, s):
    """Constant c making the power kernel c |z|^{-n-2s} have symbol |xi|^{2s}.

    c = 4^s Gamma(n/2 + s) s (1-s) / (pi^{n/2} Gamma(2-s)).  Vanishes
    linearly at s = 0 and s = 1, which is what keeps the operator family
    uniformly elliptic across orders.
    """
    if n not in (1, 2):
        raise ValueError("dimension must be 1 or 2")
    if not 0.0 < s < 1.0:
        raise ValueError("order s must lie in (0, 1)")
    return 4.0 ** s * gamma(n / 2.0 + s) * s * (1.0 - s) / (
        np.pi ** (n / 2.0) * gamma(2.0 - s))


def as_points(x, n):
    """Coerce scalars / flat arrays to an (m, n) point array."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        if n != 1:
            raise ValueError("scalar point in dimension %d" % n)
        return x.reshape(1, 1)
    if x.ndim == 1:
        if n == 1:
            return x.reshape(-1, 1)
        if x.shape[0] == n:
            return x.reshape(1, n)
        raise ValueError("cannot interpret 1d array as points in R^%d" % n)
    if x.shape[-1] != n:
        raise ValueError("point array has wrong last axis")
    return x


def sphere_directions(n, count):
    """Unit directions: {-1, +1} in 1d, uniform angles in 2d."""
    if n == 1:
        return np.array([[1.0], [-1.0]])
    th = np.linspace(0.0, 2 * np.pi, count, endpoint=False)
    return np.stack([np.cos(th), np.sin(th)], axis=1)


class EllipticMatrix:
    """Symmetric positive definite matrix with its extreme eigenvalues
    lam and Lam."""

    def __init__(self, A):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        if not np.allclose(A, A.T, atol=1e-12):
            raise ValueError("matrix must be symmetric")
        ev = np.linalg.eigvalsh(A)
        if ev.min() <= 0:
            raise ValueError("matrix must be positive definite")
        self.A = A
        self.lam = float(ev.min())
        self.Lam = float(ev.max())

    @property
    def n(self):
        return self.A.shape[0]


class Kernel:
    """Even jump kernel with order s and structural constants C1, C2, C3.

    Power-law families (fractional / anisotropic / stable) factor as
    K(z) = a(z/|z|) |z|^{-n-2s}; that structure gives exact tail masses
    and ball moments.  Custom kernels fall back to certified numeric
    radial integrals with a power-law remainder bound from C2.
    """

    def __init__(self, n, s, density, family, C1, C2, C3,
                 angular=None, grad=None, hess=None,
                 radial_tail=None, radial_moment2=None):
        self.n = int(n)
        self.s = float(s)
        self._density = density
        self.family = family
        self.C1, self.C2, self.C3 = float(C1), float(C2), float(C3)
        self._angular = angular          # a(omega) for power-law families
        self._grad = grad
        self._hess = hess
        self._radial_tail = radial_tail        # custom: int_a^inf K(t w) dt
        self._radial_moment2 = radial_moment2  # custom: int_0^r t^2 K(t w) t^{n-1} dt
        self._angular_cache = {}
        self._surface = float(half_sphere(self.n, 2)[1].sum())  # |S^{n-1}|

    # -- evaluation ---------------------------------------------------------

    def __call__(self, z):
        z = as_points(z, self.n)
        return self._density(z)

    def grad(self, z, step=1e-5):
        z = as_points(z, self.n)
        if self._grad is not None:
            return self._grad(z)
        return fd_grad(self, z, step)

    def hess(self, z, step=1e-4):
        z = as_points(z, self.n)
        if self._hess is not None:
            return self._hess(z)
        return fd_hess(self, z, step)

    # -- exact/certified radial structure ------------------------------------

    def _angular_integral(self, moment):
        """integral over the unit sphere of a(w) (moment=0) or a(w) w w^T
        (moment=1), on the 512-direction half-sphere rule (exact in 1d)."""
        def compute():
            dirs, wd = half_sphere(self.n, 512)
            aw = self._angular(dirs) * wd
            if moment == 0:
                return aw.sum()
            return np.einsum("k,ki,kj->ij", aw, dirs, dirs)
        return self._cached(("angular", moment), compute)

    def is_power_law(self):
        return self._angular is not None

    def _cached(self, key, compute):
        hit = self._angular_cache.get(key)
        if hit is None:
            hit = self._angular_cache[key] = compute()
        return hit

    def tail_mass(self, R):
        """(value, error_bound) for the kernel mass outside B_R."""
        return self._cached(("tm", float(R)),
                            lambda: self._tail_mass_uncached(R))

    def _tail_mass_uncached(self, R):
        if self.is_power_law():
            return self._angular_integral(0) * R ** (-2 * self.s) / (2 * self.s), 0.0
        if self._radial_tail is not None and self.n == 1:
            val = self._surface * self._radial_tail(R)
            return val, 1e-13 * abs(val)
        # numeric shells over 10 decades, the C2 power bound past that
        _, kz, w = radial_rule(self, R, R * 1e10, 12, 6, 64)
        rem = self.C2 * self.s * (1 - self.s) * self._surface \
            * (R * 1e10) ** (-2 * self.s) / (2 * self.s)
        return float(np.dot(kz, w)), rem

    def ray_tail(self, a, omega):
        """integral over [a, inf) of K(t*omega) dt along one ray, for a
        radius a or elementwise over an array of radii: in closed form for
        power laws, by the custom hook (called once on the array), else
        by 6 order-12 Gauss panels per decade over [a, b], b = 1e10 a,
        plus the pure-power continuation K(b omega) b / (n + 2s - 1)."""
        p = self.n + 2 * self.s
        if self.is_power_law():
            aw = self._angular(np.asarray(omega, dtype=float).reshape(1, -1))[0]
            return aw * a ** (1 - p) / (p - 1)
        if self._radial_tail is not None and self.n == 1:
            return self._radial_tail(a)
        tu, wu = ray_rule(10)
        a = np.asarray(a, dtype=float)
        t = a[..., None] * np.append(tu, 1e10)
        pts = t[..., None] * np.asarray(omega, dtype=float)
        k = self(pts.reshape(-1, self.n)).reshape(t.shape)
        return a * row_dot(k[..., :-1], wu) + k[..., -1] * t[..., -1] / (p - 1)

    def zone_weight(self, rho, dirs, r_lo, r_hi):
        """M = integral over max(r_lo, rho) < r < r_hi of (r - rho) r^{n-1}
        K(r w) dr (_quad.zone_rule) at the radii rho and unit rows w of
        dirs, shape (len(rho), len(dirs)): closed for power laws (expm1
        keeps s near 1/2 exact); else J_1 - rho J_0, J_p(a) the integral
        over (a, r_hi) of r^{n-1+p} K, summed down over order-8 Gauss
        panels cut at each max(r_lo, rho) and 6 per decade, CHUNK // 4
        points (arrays under glibc's mmap threshold) per kernel call."""
        lo = np.maximum(rho, r_lo)
        if self.is_power_law():
            s2, L, lo = 2 * self.s, np.log(r_hi / lo)[:, None], lo[:, None]
            e1 = L if s2 == 1 else np.expm1((1 - s2) * L) / (1 - s2)
            return self._angular(dirs) * lo ** -s2 * (
                lo * e1 + rho[:, None] * np.expm1(-s2 * L) / s2)
        x, wx = gl_rule(8)
        # the panels' edges (np.union1d would load numpy.ma, 1 MB; a
        # repeated edge only adds an empty panel)
        e = np.sort(np.concatenate([lo, geometric_edges(r_lo, r_hi, 6)]))
        a, step = e[:-1], max(CHUNK // (32 * len(dirs)), 1)
        P = np.empty((2, len(a), len(dirs)))   # P[:, i]: over [e_i, e_i+1]
        for i in range(0, len(a), step):
            h = 0.5 * (e[i + 1:i + step + 1] - a[i:i + step])[:, None]
            t = a[i:i + step, None] + h * (x + 1.0)
            f = self((t[..., None, None] * dirs).reshape(-1, self.n)).reshape(
                t.shape + (-1,)) * (h * t ** (self.n - 1))[..., None]
            P[0, i:i + step] = np.einsum("kqd,q->kd", f, wx)
            P[1, i:i + step] = np.einsum("kqd,q->kd", f * t[..., None], wx)
        J = np.cumsum(P[:, ::-1], axis=1)[:, ::-1][:, np.searchsorted(e, lo)]
        return J[1] - rho[:, None] * J[0]

    def second_moment_matrix(self, r):
        """(M, error) with M = integral over B_r of z z^T K(z) dz."""
        return self._cached(("m2", float(r)),
                            lambda: self._moment_uncached(2, r))

    def fourth_moment(self, r):
        """(m, error) with m = integral over |z| < r of z^4 K(z) dz, 1d."""
        if self.n != 1:
            raise NotImplementedError("the fourth moment is 1d only")
        m, err = self._cached(("m4", float(r)),
                              lambda: self._moment_uncached(4, r))
        return float(m[0, 0]), err

    def _moment_uncached(self, p, r):
        # integral over B_r of |z|^{p-2} z z^T K(z) dz: exact for power
        # laws, else panels over nine decades below r plus the C2 bound
        if self.is_power_law():
            M = self._angular_integral(1) * r ** (p - 2 * self.s) / (p - 2 * self.s)
            return np.atleast_2d(M), 0.0
        if p == 2 and self._radial_moment2 is not None and self.n == 1:
            v = self._radial_moment2(r)
            return np.array([[2 * v]]), 1e-13 * abs(v)
        lo = r * 1e-9
        z, kz, w = radial_rule(self, lo, r, 12, 6, 64)
        zz = sq_norms(z)
        M = np.einsum("k,ki,kj->ij", kz * w * zz ** (p // 2 - 1), z, z)
        return M, self.abs_moment(p, lo)

    def abs_moment(self, p, r):
        """Upper bound on integral over B_r of |z|^p K(z) dz (p > 2s), from
        K(z) <= C2 s (1 - s) |z|^{-n-2s}; r may be an array."""
        return self.C2 * self.s * (1 - self.s) * self._surface \
            * r ** (p - 2 * self.s) / (p - 2 * self.s)

    def __repr__(self):
        return "Kernel(%s, n=%d, s=%.3g)" % (self.family, self.n, self.s)


# -- family constructors ------------------------------------------------------

def fractional_kernel(n, s):
    """K(z) = c_{n,s} |z|^{-n-2s}, the kernel of the fractional Laplacian.

    One object per (n, s): every caller of an order shares its kernel,
    the moments and radial rules cached on it, and the lattice stencil
    plans keyed by it (nonlocal_ops.assemble_discrete resolves an order
    to it too)."""
    return _fractional_kernel(n, float(s))


@cache
def _fractional_kernel(n, s):
    c = normalizing_constant(n, s)
    p = n + 2 * s

    def density(z):
        r = np.sqrt(sq_norms(z))
        return c * r ** (-p)

    def grad(z):
        r = np.sqrt(sq_norms(z))[:, None]
        return -p * c * r ** (-p - 2) * z

    def hess(z):
        r = np.sqrt(sq_norms(z))
        k = c * r ** (-p)
        eye = np.eye(n)
        zz = z[:, :, None] * z[:, None, :] / (r ** 2)[:, None, None]
        return (p * k / r ** 2)[:, None, None] * ((p + 2) * zz - eye[None, :, :])

    base = c / (s * (1 - s))
    C3 = p * (p + 2)
    return Kernel(n, s, density, "fractional", base, base, C3,
                  angular=lambda w: np.full(w.shape[0], c),
                  grad=grad, hess=hess)


def anisotropic_kernel(s, A):
    """K(z) = c_{n,s} |A z|^{-n-2s} for an elliptic symmetric matrix A."""
    if not isinstance(A, EllipticMatrix):
        A = EllipticMatrix(A)
    n = A.n
    c = normalizing_constant(n, s)
    p = n + 2 * s
    A2 = A.A @ A.A

    def density(z):
        r = np.sqrt(sq_norms(z @ A.A))
        return c * r ** (-p)

    def grad(z):
        az2 = sq_norms(z @ A.A)
        return -p * c * (az2 ** (-(p + 2) / 2.0))[:, None] * (z @ A2)

    def hess(z):
        az2 = sq_norms(z @ A.A)
        w = z @ A2
        ww = w[:, :, None] * w[:, None, :]
        k = c * az2 ** (-p / 2.0)
        return (p * k / az2)[:, None, None] * (
            (p + 2) * ww / az2[:, None, None] - A2[None, :, :])

    ratio = A.Lam / A.lam
    C1 = c * A.Lam ** (-p) / (s * (1 - s))
    C2 = c * A.lam ** (-p) / (s * (1 - s))
    C3 = p * ratio + p * (p + 3) * ratio ** 2
    return Kernel(n, s, density, "anisotropic", C1, C2, C3,
                  angular=lambda w: c * np.sqrt(sq_norms(w @ A.A)) ** (-p),
                  grad=grad, hess=hess)


def stable_kernel(n, s, directional_density):
    """Symmetric stable kernel from a positive directional density.

    The density may be a callable on unit vectors or, in 2d, an array of
    values at uniformly spaced angles (interpolated by a trigonometric
    polynomial).  It is symmetrized: K(z) = (a(w) + a(-w)) / (2 |z|^{n+2s}).
    """
    if callable(directional_density):
        raw = directional_density
    else:
        vals = np.asarray(directional_density, dtype=float)
        if n == 1:
            if vals.size != 2:
                raise ValueError("1d density needs values at +1 and -1")

            def raw(w):
                return np.where(w[:, 0] > 0, vals[0], vals[1])
        else:
            coef = np.fft.rfft(vals) / vals.size
            m = vals.size

            def raw(w):
                th = np.arctan2(w[:, 1], w[:, 0])
                out = np.full(w.shape[0], coef[0].real)
                for k in range(1, coef.size):
                    fac = 2.0 if (m % 2 or k < coef.size - 1) else 1.0
                    out += fac * (coef[k].real * np.cos(k * th)
                                  - coef[k].imag * np.sin(k * th))
                return out

    def sym(w):
        w = np.atleast_2d(w)
        return 0.5 * (raw(w) + raw(-w))

    probe = sphere_directions(n, 720)
    a_probe = sym(probe)
    if a_probe.min() <= 0:
        raise ValueError("directional density must be positive")
    p = n + 2 * s

    def density(z):
        r = np.sqrt(sq_norms(z))[:, None]
        return sym(z / r) * r[:, 0] ** (-p)

    C1 = a_probe.min() / (s * (1 - s))
    C2 = a_probe.max() / (s * (1 - s))
    C3 = _fit_c3(density, n, sphere_directions(n, 64))
    return Kernel(n, s, density, "stable", C1, C2, C3,
                  angular=sym)


def custom_kernel(n, s, density, C1, C2, C3, radial_tail=None,
                  radial_moment2=None):
    """Wrap a user density with declared structural constants; a density
    that is not even raises ValueError.

    radial_tail(a): exact integral of K(t e) dt over [a, inf), optional.
    radial_moment2(r): exact integral of t^2 K(t e) dt over [0, r], optional.
    Both are for radially symmetric custom kernels (1d rays).
    """
    K = Kernel(n, s, density, "custom", C1, C2, C3,
               radial_tail=radial_tail, radial_moment2=radial_moment2)
    rng = np.random.default_rng(7)
    z = rng.normal(size=(64, n)) * np.geomspace(0.01, 10, 64)[:, None]
    if not np.allclose(K(z), K(-z), rtol=1e-9, atol=1e-300):
        raise ValueError("custom kernel density is not even")
    return K


def fd_grad(K, z, step=1e-5):
    """Centred differences of K at the rows of z, shape (m, n), with a
    step of step |z| per axis: the gradient, shape (m, n)."""
    g = np.empty_like(z)
    r = np.sqrt(sq_norms(z))
    for i in range(z.shape[1]):
        dz = np.zeros_like(z)
        dz[:, i] = step * r
        g[:, i] = (K(z + dz) - K(z - dz)) / (2 * step * r)
    return g


def fd_hess(K, z, step=1e-4):
    """The Hessian of K at the rows of z, shape (m, n, n), as fd_grad."""
    n = z.shape[1]
    H = np.empty((z.shape[0], n, n))
    r = np.sqrt(sq_norms(z))
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


def _fit_c3(density, n, dirs):
    radii = np.geomspace(0.05, 20.0, 25)
    worst = 0.0
    for r in radii:
        z = dirs * r
        k = density(z)
        g = fd_grad(density, z)
        H = fd_hess(density, z)
        hn = np.linalg.norm(H, ord=2, axis=(1, 2))
        worst = max(worst, np.max((r * np.sqrt(sq_norms(g))
                                   + r * r * hn) / k))
    return 1.05 * worst


def make_kernel(spec):
    """Build a kernel from a descriptor dict {family, n, s, params...}."""
    fam = spec["family"]
    n, s = spec["n"], spec["s"]
    if fam == "fractional":
        return fractional_kernel(n, s)
    if fam == "anisotropic":
        return anisotropic_kernel(s, np.asarray(spec["params"]["A"]))
    if fam == "stable":
        return stable_kernel(n, s, spec["params"]["density"])
    if fam == "custom":
        c = spec["constants"]
        return custom_kernel(n, s, spec["params"]["density"],
                             c[0], c[1], c[2],
                             radial_tail=spec["params"].get("radial_tail"),
                             radial_moment2=spec["params"].get("radial_moment2"))
    raise ValueError("unknown kernel family %r" % fam)


def rescale_kernel(K, R):
    """K^[R](z) = R^{n+2s} K(R z); structural constants are unchanged."""
    if R <= 0:
        raise ValueError("radius must be positive")
    if K.is_power_law():
        return K  # pure powers are exactly scale invariant
    fac = R ** (K.n + 2 * K.s)

    def density(z):
        return fac * K._density(as_points(z, K.n) * R)

    rt = None
    if K._radial_tail is not None:
        rt = lambda a: fac * K._radial_tail(a * R) / R
    rm = None
    if K._radial_moment2 is not None:
        rm = lambda r: fac * K._radial_moment2(r * R) / R ** 3
    return Kernel(K.n, K.s, density, K.family, K.C1, K.C2, K.C3,
                  radial_tail=rt, radial_moment2=rm)


def validate_kernel_class(K, radii_count=40, tol_fd=1e-3):
    """Empirical structural constants over a log-uniform probe cloud:
    radii_count radii in [1e-3, 1e3] along 16 directions in 2d.

    Checks evenness exactly, then the two-sided power comparison (tight
    max/min ratios give C1hat, C2hat) and the derivative bound, with
    tol_fd their relative slack.  Its derivatives are analytic for
    fractional and anisotropic kernels, else centered finite
    differences at relative steps 1e-4 (gradient) and 1e-3 (Hessian).
    """
    radii = np.geomspace(1e-3, 1e3, radii_count)
    dirs = sphere_directions(K.n, 16)
    pts = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, K.n)
    k = K(pts)
    if np.any(~np.isfinite(k)) or np.any(k <= 0):
        raise ValueError("kernel evaluation failed on probe set")
    sym_gap = float(np.max(np.abs(K(pts) - K(-pts)) / k))
    r = np.sqrt(sq_norms(pts))
    ratio = k * r ** (K.n + 2 * K.s) / (K.s * (1 - K.s))
    c1_hat, c2_hat = float(ratio.min()), float(ratio.max())
    g = K.grad(pts, step=1e-4)
    H = K.hess(pts, step=1e-3)
    c3_hat = float(np.max((r * np.sqrt(sq_norms(g))
                           + r * r * np.linalg.norm(H, ord=2, axis=(1, 2))) / k))
    ok = (sym_gap <= 1e-9
          and c1_hat >= K.C1 / (1 + tol_fd)
          and c2_hat <= K.C2 * (1 + tol_fd)
          and c3_hat <= K.C3 * (1 + tol_fd))
    return {"C1_hat": c1_hat, "C2_hat": c2_hat, "C3_hat": c3_hat,
            "symmetry_gap": sym_gap, "pass": bool(ok)}


# -- measures on [0, 1] -------------------------------------------------------

class MeasureOnUnit:
    """Finite atomic probability measure on [0, 1]."""

    def __init__(self, atoms):
        pairs = sorted((float(s), float(w)) for s, w in atoms)
        ss = [s for s, _ in pairs]
        if len(set(ss)) != len(ss):
            raise ValueError("atoms must be distinct")
        if any(not 0 <= s <= 1 for s in ss):
            raise ValueError("atoms must lie in [0, 1]")
        if any(w <= 0 for _, w in pairs):
            raise ValueError("weights must be positive")
        total = sum(w for _, w in pairs)
        if abs(total - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        self.atoms = pairs

    @property
    def omega0(self):
        """0 when the identity (order 0) carries no mass, else 1."""
        return 0 if all(s > 0 for s, _ in self.atoms) else 1

    def __iter__(self):
        return iter(self.atoms)

    @staticmethod
    def dirac(s):
        return MeasureOnUnit([(s, 1.0)])


def operator_order(op):
    """The order s of an operator: op.s for a Kernel, the number itself
    for an order in [0, 1], and None for a MeasureOnUnit (indefinite
    order)."""
    if isinstance(op, MeasureOnUnit):
        return None
    return float(op) if np.isscalar(op) else op.s


def positive_orders(ops):
    """The distinct positive orders of a family of operators, sorted.

    Members of order 0 (the identity, as an obstacle's constraint
    member) and measures (no definite order) add none.  The family has
    a definite order only when exactly one is returned."""
    return sorted({s for s in map(operator_order, ops) if s})


# -- convex nonlinearities ----------------------------------------------------

class ConvexNonlinearity:
    """F with a monotone subgradient selector alpha (alpha_j >= 0,
    sum alpha_j >= theta0, and the usual supporting-plane inequality)."""

    def __init__(self, J, value, subgradient, theta0, family):
        self.J = int(J)
        self._value = value
        self._subgradient = subgradient
        self.theta0 = float(theta0)
        self.family = family

    def __call__(self, p):
        return self._value(np.asarray(p, dtype=float))

    def subgradient(self, p):
        return self._subgradient(np.asarray(p, dtype=float))


def bellman_max(J):
    """F(p) = max_j p_j with first-argmax subgradient selector."""

    def value(p):
        return np.max(p, axis=-1)

    def subgradient(p):
        p = np.asarray(p, dtype=float)
        idx = np.argmax(p, axis=-1)
        a = np.zeros_like(p)
        np.put_along_axis(a, np.expand_dims(idx, -1), 1.0, axis=-1)
        return a

    return ConvexNonlinearity(J, value, subgradient, 1.0, "bellman-max")


def log_sum_exp(J, sharpness=1.0):
    """Smooth convex F(p) = (1/b) log sum exp(b p_j); softmax subgradient."""
    b = float(sharpness)

    def value(p):
        m = np.max(p, axis=-1)
        return m + np.log(np.sum(np.exp(b * (p - m[..., None])), axis=-1)) / b

    def subgradient(p):
        m = np.max(p, axis=-1, keepdims=True)
        e = np.exp(b * (p - m))
        return e / np.sum(e, axis=-1, keepdims=True)

    return ConvexNonlinearity(J, value, subgradient, 1.0, "smooth-convex")


def linear_nonlinearity(coeffs):
    coeffs = np.asarray(coeffs, dtype=float)
    if np.any(coeffs < 0) or coeffs.sum() <= 0:
        raise ValueError("coefficients must be nonnegative with positive sum")

    def value(p):
        return np.dot(p, coeffs)

    def subgradient(p):
        return np.broadcast_to(coeffs, np.shape(p)).copy()

    return ConvexNonlinearity(coeffs.size, value, subgradient,
                              float(coeffs.sum()), "smooth-convex")
