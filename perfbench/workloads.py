"""Seeded inputs, item mixes and correctness gates of the three workloads.

A workload is a list of rounds and a round is a shuffled list of items.
An item is one timed public call into fracbern (`run`, which receives
the tracer and returns the result) plus an untimed check of that result
against a reference (`check`, which returns (verdict, relative error
bound or None), the verdict being True, False or MISS).  Every round
holds the same multiset of item kinds, so the item mix, and with it the
latency distribution, is the same in every round; only the probes and
function parameters, drawn from the seed, differ.

Each workload function also returns warm-up items covering every kind,
at the smallest size that runs the same code paths: they fill the kernel
and trace-constant caches and trigger lazy imports before timing starts.
"""

import os
import tempfile

import numpy as np

from fracbern.kernels import (anisotropic_kernel, custom_kernel,
                              fractional_kernel, normalizing_constant)
from fracbern.funcspace import (constant, gaussian_bump, make_cutoff,
                                modulated_gaussian, plane_wave,
                                polynomial_gaussian, tensor_product)
from fracbern.nonlocal_ops import (Lattice, QuadratureFailure,
                                   apply_fractional, assemble_discrete,
                                   default_plan, singular_integral_batch,
                                   spectral_oracle)
from fracbern.extension import extend, trace_constant, \
    weighted_normal_derivative
from fracbern.bernstein import (SearchFailure, check_first_order_batch,
                                check_supert_identity, doubling_bisection)
from fracbern.solvers import (BellmanProblem, ObstacleProblem, solve_bellman,
                              solve_linear_dirichlet, solve_obstacle)
from fracbern.harness import run_experiment, semiconcavity_refinement

# Exceptions that mark an item as failed rather than crash the run.
FAILURES = (QuadratureFailure, ArithmeticError, SearchFailure)
# Check verdict of an identity residual above its certified budget but
# within the check's own pass verdict (10x the budget): the item failed
# to certify, yet its values are not wrong.
MISS = "miss"

ORDERS = tuple(round(0.1 * k, 1) for k in range(1, 10))
TRACE_ORDERS = (0.25, 0.5, 0.75)
VARIANTS = ("directional", "positive-part", "gradient", "incremental")
FIRST_ORDER_ORDERS = (0.25, 0.5, 0.75, 0.95)

# Criterion tolerances of the acceptance suite.
ORACLE_TOL = {1: 1e-5, 2: 1e-3}
TRACE_TOL = 1e-3
SOLVE_TOL = 1e-9
COMPLEMENTARITY_TOL = 1e-8
SINGLE_MEMBER_GAP = 1e-10

# Sizes per workload.  "tiny" runs the same code paths in a few seconds
# and exists for the benchmark's self-test only.
SIZES = {
    "full": {"orders_1d": ORDERS, "items_2d": 9, "batch_items": 3,
             "batch_probes": 64, "batch_checked": 8, "trace_items": 6,
             "fo_items": 2, "fo_probes": 128,
             "N1": 257, "N2": 49, "N2_bellman": 33, "semi_base": 64},
    "tiny": {"orders_1d": (0.3, 0.7), "items_2d": 1, "batch_items": 1,
             "batch_probes": 8, "batch_checked": 2, "trace_items": 1,
             "fo_items": 1, "fo_probes": 8,
             "N1": 33, "N2": 9, "N2_bellman": 9, "semi_base": 32},
}


class Item:
    __slots__ = ("kind", "run", "check")

    def __init__(self, kind, run, check):
        self.kind = kind
        self.run = run
        self.check = check


class Plan:
    """What one workload process runs: warm-up items, rounds of items,
    and the exact input counts reported beside the timings."""

    def __init__(self, warmup, rounds, counts):
        self.warmup = warmup
        self.rounds = rounds
        self.counts = counts


def _rel(err, value):
    return float(err) / max(abs(float(value)), 1e-300)


# -- pointwise-ops ------------------------------------------------------------

def leaves_1d(rng):
    sign = rng.choice([-1.0, 1.0])
    return [
        gaussian_bump(1, rng.uniform(-0.5, 0.5), rng.uniform(0.6, 1.3),
                      sign * rng.uniform(0.5, 1.5)),
        polynomial_gaussian(list(rng.uniform(-1.0, 1.0, 3)),
                            rng.uniform(-0.3, 0.3), rng.uniform(0.8, 1.2)),
        modulated_gaussian(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.2),
                           rng.uniform(1.0, 3.0)),
        plane_wave(rng.uniform(0.5, 2.5), rng.uniform(0.0, 2 * np.pi)),
    ]


def leaves_2d(rng):
    return [
        gaussian_bump(2, rng.uniform(-0.4, 0.4, 2), rng.uniform(0.8, 1.2)),
        tensor_product(gaussian_bump(1, rng.uniform(-0.2, 0.2),
                                     rng.uniform(0.8, 1.2)),
                       polynomial_gaussian([0.0, 1.0])),
        tensor_product(modulated_gaussian(rng.uniform(-0.2, 0.2),
                                          rng.uniform(0.8, 1.0),
                                          rng.uniform(1.5, 2.5)),
                       gaussian_bump(1, rng.uniform(-0.2, 0.2),
                                     rng.uniform(0.9, 1.2))),
    ]


class _Pair:
    """Quadrature value and oracle at one (function, order, point).  The
    second of the two items to finish compares them, so the gate costs
    no extra operator evaluation."""

    def __init__(self, tol):
        self.tol = tol
        self.got = {}

    def check(self, side, value):
        self.got[side] = float(value)
        if len(self.got) < 2:
            return True
        a, b = self.got["apply"], self.got["oracle"]
        return abs(a - b) <= self.tol * max(abs(b), 1e-9)


def _pointwise_pair(u, s, x, plan):
    pair = _Pair(ORACLE_TOL[u.n])

    def run_apply(tr):
        return tr.call("nonlocal_ops.apply_fractional", apply_fractional,
                       s, u, x, plan)

    def check_apply(ov):
        return pair.check("apply", ov.value), _rel(ov.error, ov.value)

    def run_oracle(tr):
        return tr.call("nonlocal_ops.spectral_oracle", spectral_oracle,
                       s, u, x)

    def check_oracle(val):
        return pair.check("oracle", val), None

    d = "%dd" % u.n
    return [Item("apply_fractional." + d, run_apply, check_apply),
            Item("spectral_oracle." + d, run_oracle, check_oracle)]


def _batch_item(K, s, u, xs, checked):
    def run(tr):
        return tr.call("nonlocal_ops.singular_integral_batch",
                       singular_integral_batch, K, u, xs)

    def check(res):
        vals, errs = res
        ok = True
        for i in checked:
            ref = spectral_oracle(s, u, xs[i])
            # the batch integral is -(-Delta)^s u
            ok = ok and abs(-vals[i] - ref) <= errs[i] + 1e-10 * abs(ref)
        rel = np.median(errs / np.maximum(np.abs(vals), 1e-300))
        return bool(ok), float(rel)

    return Item("singular_integral_batch.1d", run, check)


def _trace_item(u, s, x):
    def run(tr):
        E = tr.call("extension.extend", extend, u, s)
        num = tr.call("extension.weighted_normal_derivative",
                      weighted_normal_derivative, E, x)
        ds, _ = tr.call("extension.trace_constant", trace_constant, s)
        den = tr.call("nonlocal_ops.spectral_oracle", spectral_oracle,
                      s, u, x)
        return num / ds, den

    def check(res):
        ratio, den = res
        return abs(ratio - den) <= TRACE_TOL * max(abs(den), 5e-2), None

    return Item("trace_identity", run, check)


def pointwise_ops(rng, rounds, size, work_dir):
    z = SIZES[size]
    plan1, plan2 = default_plan(1), default_plan(2)
    kernels = {s: fractional_kernel(1, s) for s in ORDERS}

    # Every round draws fresh leaves, and the 2d, batch and trace items
    # cycle through their functions and orders: a run then averages its
    # cost and error over many functions, whatever the seed.
    def make_round(r):
        leaves1, leaves2 = leaves_1d(rng), leaves_2d(rng)
        trace_leaves = leaves1[:3] + [plane_wave(1.0)]
        items, probes = [], 0
        for u in leaves1:
            for s in z["orders_1d"]:
                items += _pointwise_pair(u, s, rng.uniform(-1.5, 1.5), plan1)
                probes += 1
        for k in range(z["items_2d"]):
            items += _pointwise_pair(leaves2[k % len(leaves2)],
                                     ORDERS[k % len(ORDERS)],
                                     rng.uniform(-1.0, 1.0, 2), plan2)
            probes += 1
        for k in range(z["batch_items"]):
            s = ORDERS[(r * z["batch_items"] + k) % len(ORDERS)]
            n = z["batch_probes"]
            xs = np.sort(rng.uniform(-1.5, 1.5, n)).reshape(-1, 1)
            checked = rng.choice(n, z["batch_checked"], replace=False)
            u = leaves1[k % len(leaves1)]
            items.append(_batch_item(kernels[s], s, u, xs, checked))
            probes += n
        for k in range(z["trace_items"]):
            items.append(_trace_item(trace_leaves[k % len(trace_leaves)],
                                     TRACE_ORDERS[k % len(TRACE_ORDERS)],
                                     rng.uniform(-0.6, 0.6)))
            probes += 1
        rng.shuffle(items)
        return items, probes

    built = [make_round(r) for r in range(rounds)]
    rs = [items for items, _ in built]

    warm = []
    u1, u2 = leaves_1d(rng)[0], leaves_2d(rng)[0]
    for u, x, plan in ((u1, 0.1, plan1), (u2, [0.1, 0.1], plan2)):
        for s in ORDERS:      # one kernel per (dimension, order)
            warm += _pointwise_pair(u, s, x, plan)
    warm.append(_batch_item(kernels[0.5], 0.5, u1, np.array([[-0.3], [0.4]]),
                            [0]))
    for s in TRACE_ORDERS:    # fills the trace-constant cache
        warm.append(_trace_item(u1, s, 0.1))
    return Plan(warm, rs, {"items_per_round": len(rs[0]),
                           "probes_per_round": built[0][1]})


# -- aux-checks ---------------------------------------------------------------

def log_modulated_kernel(n, s):
    """Power kernel times (2 + sin log |z|): the custom kernel of the
    identity-law acceptance criterion, with its exact radial integrals."""
    c = normalizing_constant(n, s)

    def dens(z):
        r = np.linalg.norm(z, axis=1)
        return c * r ** (-n - 2 * s) * (2.0 + np.sin(np.log(r)))

    def rt(a):
        T = np.log(a)
        return c * (2 * a ** (-2 * s) / (2 * s)
                    + np.exp(-2 * s * T) * (2 * s * np.sin(T) + np.cos(T))
                    / (4 * s * s + 1))

    def rm2(r):
        T, q = np.log(r), 2 - 2 * s
        return c * (2 * r ** q / q
                    + np.exp(q * T) * (q * np.sin(T) - np.cos(T))
                    / (q * q + 1))

    return custom_kernel(n, s, dens, C1=c / (s * (1 - s)),
                         C2=3 * c / (s * (1 - s)), C3=40.0,
                         radial_tail=rt, radial_moment2=rm2)


def aux_base(rng):
    """The identity-law composite base u = bump + offset negative bump."""
    return gaussian_bump(1, 0.0, 1.0) + gaussian_bump(
        1, rng.uniform(0.7, 0.9), rng.uniform(0.55, 0.65), -0.5)


def _supert_item(K, u, eta, variant, x):
    def run(tr):
        return tr.call("bernstein.check_supert_identity",
                       check_supert_identity, K, u, eta, 1.5, variant, x,
                       h=0.1)

    def check(r):
        scale = max(abs(r["D1"]), abs(r["D2"]))
        ok = r["residual"] <= r["error_budget"] or (MISS if r["pass"]
                                                      else False)
        return ok, _rel(r["error_budget"], scale)

    return Item("supert." + variant, run, check)


def _first_order_pairs(rng):
    """Criterion-04 shaped (function, cutoff) pairs with seeded parameters."""
    return [
        (gaussian_bump(1, rng.uniform(-0.2, 0.2), rng.uniform(0.8, 1.2)),
         make_cutoff(0.25, 0.5)),
        (gaussian_bump(1, rng.uniform(0.1, 0.4), 0.8)
         + gaussian_bump(1, rng.uniform(-0.6, -0.4), 1.1, -0.6),
         make_cutoff(0.25, 0.5)),
        (modulated_gaussian(rng.uniform(-0.2, 0.2), 1.2,
                            rng.uniform(1.0, 2.0)),
         make_cutoff(0.2, 0.45)),
        (polynomial_gaussian([1.0, rng.uniform(0.3, 0.7), -0.3]),
         make_cutoff(0.3, 0.6)),
        (plane_wave(rng.uniform(0.8, 1.2)), make_cutoff(0.25, 0.5)),
    ]


def _first_order_item(u, eta, s, probes):
    e = np.array([1.0])

    def run(tr):
        A, S, errA, errS = tr.call("bernstein.check_first_order_batch",
                                   check_first_order_batch, u, eta, e, s,
                                   probes)
        sigma0 = tr.call(
            "bernstein.doubling_bisection", doubling_bisection,
            lambda sg: np.all(A + sg * S <= errA + sg * errS))
        return sigma0, A, S, errA, errS

    def check(res):
        sigma0, A, S, errA, errS = res
        ok = True
        for mult in (1.0, 2.0, 4.0):
            sg = max(sigma0, 1e-6) * mult
            ok = ok and bool(np.all(A + sg * S <= errA + sg * errS + 1e-12))
        return ok, None

    return Item("first_order_batch", run, check)


def stratified(rng, lo, hi, count):
    """One uniform draw in each of `count` equal strata of [lo, hi], in
    seeded order, so the draws cover the interval evenly for every seed."""
    k = np.arange(count) + rng.uniform(0.0, 1.0, count)
    return rng.permutation(lo + (hi - lo) * k / count)


def aux_checks(rng, rounds, size, work_dir):
    z = SIZES[size]
    u = aux_base(rng)
    eta = make_cutoff(0.25, 0.5, n=1)
    kernels = [fractional_kernel(1, 0.5),
               anisotropic_kernel(0.5, np.array([[rng.uniform(1.1, 1.5)]])),
               log_modulated_kernel(1, 0.5)]
    pairs = _first_order_pairs(rng)
    # The cost of a check depends strongly on its probe, so each variant's
    # probes over the run are stratified across the probe interval, and
    # the first-order items cycle through the pairs and orders.
    probes = {v: stratified(rng, -1.2, 1.2, rounds * len(kernels))
              for v in VARIANTS}
    rs = []
    for r in range(rounds):
        items = [_supert_item(K, u, eta, v, probes[v][r * len(kernels) + k])
                 for k, K in enumerate(kernels) for v in VARIANTS]
        for i in range(z["fo_items"]):
            j = r * z["fo_items"] + i
            fu, feta = pairs[j % len(pairs)]
            xs = np.sort(rng.uniform(-1.2, 1.2, z["fo_probes"]))
            items.append(_first_order_item(
                fu, feta, FIRST_ORDER_ORDERS[j % len(FIRST_ORDER_ORDERS)],
                xs.reshape(-1, 1)))
        rng.shuffle(items)
        rs.append(items)

    # one warm-up per variant, cycling the kernels so each is touched
    warm = [_supert_item(kernels[i % 3], u, eta, v, 0.2)
            for i, v in enumerate(VARIANTS)]
    warm.append(_first_order_item(pairs[0][0], pairs[0][1], 0.5,
                                  np.array([[-0.5], [0.1], [0.6]])))
    return Plan(warm, rs, {"items_per_round": len(rs[0]),
                           "probes_per_round": len(kernels) * len(VARIANTS)
                           + z["fo_items"] * z["fo_probes"]})


# -- lattice-solves -----------------------------------------------------------

def _offdiag_nonpositive(A):
    off = A - np.diag(np.diag(A))
    return bool(np.all(off <= 0.0))


class _Box:
    """Holds the 2d operator between its assembly item and the
    apply_to_grid item that uses it within the same round."""
    op = None


def _assemble_item(K, lat, ext, box=None):
    def run(tr):
        D = tr.call("nonlocal_ops.assemble_discrete", assemble_discrete,
                    K, lat, ext)
        if box is not None:
            box.op = D
        return D

    def check(D):
        return _offdiag_nonpositive(D.A), None

    return Item("assemble_discrete.%dd" % lat.n, run, check)


def _apply_grid_item(box, s, g, check_nodes):
    """Grid action on the exterior function itself, so the result is the
    lattice approximation of (-Delta)^s g at every interior node."""
    def run(tr):
        D = box.op
        return D, tr.call("nonlocal_ops.apply_to_grid", D.apply_to_grid,
                          g(D.lattice.nodes), g)

    def check(res):
        D, out = res
        lat = D.lattice
        ref = D.apply(g(lat.nodes[lat.interior]))
        consistent = np.max(np.abs(out - ref)) \
            <= 1e-9 * max(1.0, float(np.max(np.abs(ref))))
        exact = np.array([spectral_oracle(s, g, lat.nodes[lat.interior[i]])
                          for i in check_nodes])
        err = np.max(np.abs(out[check_nodes] - exact))
        return bool(consistent), _rel(err, np.max(np.abs(exact)))

    return Item("apply_to_grid.2d", run, check)


def _axis_nodes(lat, count=8):
    """Interior indices of up to `count` nodes spread along the first
    axis: where the grid action is compared with the spectral oracle."""
    nodes = lat.nodes[lat.interior]
    on_axis = np.flatnonzero(np.abs(nodes[:, 1]) < 1e-12)
    pick = np.linspace(0, on_axis.size - 1, min(count, on_axis.size))
    return on_axis[pick.astype(int)]


def _linear_item(K, f, ext, lat):
    def run(tr):
        return tr.call("solvers.solve_linear_dirichlet",
                       solve_linear_dirichlet, K, f, ext, lat)

    def check(res):
        gf, info = res
        single = BellmanProblem([(K, constant(0.0, lat.n))], f, ext, 1.0)
        gb, _, _ = solve_bellman(single, lat)
        gap = float(np.max(np.abs(gb.values - gf.values)))
        return gap <= SINGLE_MEMBER_GAP, None

    return Item("solve_linear_dirichlet.1d", run, check)


def _bellman_item(prob, lat):
    def run(tr):
        return tr.call("solvers.solve_bellman", solve_bellman, prob, lat)

    def check(res):
        gf, policy, info = res
        return info["residual"] <= SOLVE_TOL, None

    return Item("solve_bellman.%dd" % lat.n, run, check)


def _obstacle_item(prob, lat):
    def run(tr):
        return tr.call("solvers.solve_obstacle", solve_obstacle, prob, lat)

    def check(res):
        gf, contact, info = res
        return (info["residual"] <= SOLVE_TOL
                and info["complementarity"] <= COMPLEMENTARITY_TOL), None

    return Item("solve_obstacle.1d", run, check)


def _semiconcavity_item(prob, base):
    def solve_at(lvl):
        lat = Lattice(1, 2.0, base * 2 ** lvl + 1, 1.0)
        return solve_obstacle(prob, lat)[0]

    def run(tr):
        return tr.call("harness.semiconcavity_refinement",
                       semiconcavity_refinement, solve_at, 3)

    def check(res):
        return res["stable"], None

    return Item("semiconcavity_refinement", run, check)


def _experiment_item(config, work_dir):
    def run(tr):
        out = tempfile.mkdtemp(dir=work_dir)
        return out, tr.call("harness.run_experiment", run_experiment,
                            config, out)

    def check(res):
        out, report = res
        names = sorted(os.listdir(out))
        for name in names:
            os.remove(os.path.join(out, name))
        os.rmdir(out)
        return (bool(report["pass"])
                and {"manifest.json", "report.json"} <= set(names)), None

    return Item("run_experiment.solve", run, check)


def bellman_problem(rng, n, s2=0.7):
    """Criterion-08 two-member instance (orders 0.5 and s2)."""
    c = rng.uniform(-0.4, 0.0, n) if n == 2 else rng.uniform(-0.4, 0.0)
    cf = rng.uniform(0.0, 0.3, n) if n == 2 else rng.uniform(0.0, 0.3)
    return BellmanProblem(
        [(fractional_kernel(n, 0.5), constant(0.0, n)),
         (fractional_kernel(n, s2), gaussian_bump(n, c, 0.45, -0.35))],
        gaussian_bump(n, cf, 0.5, 0.4), gaussian_bump(n, None, 1.5, 0.3),
        1.0)


def obstacle_problem(rng):
    """Criterion-09 obstacle instance."""
    return ObstacleProblem(
        0.5,
        gaussian_bump(1, rng.uniform(-0.1, 0.1), 0.7, rng.uniform(0.3, 0.42)),
        gaussian_bump(1, rng.uniform(-0.1, 0.1), 0.45,
                      rng.uniform(-0.28, -0.22)),
        constant(0.0, 1), 1.0)


# Each 1d kind appears this many times per round beside one of each 2d
# kind: the 2d items still take most of a round, and the round holds
# enough items for a latency tail above the median.  The two-member 1d
# Bellman solve, slower than the other 1d items and faster than the 2d
# ones, appears once more, so that over two rounds the tail (the item
# with ten beyond it) falls inside its block rather than on an edge.
ONE_D_REPEATS = 3
BELLMAN_1D_REPEATS = 4


def lattice_solves(rng, rounds, size, work_dir):
    z = SIZES[size]
    K1, K2 = fractional_kernel(1, 0.5), fractional_kernel(2, 0.5)

    def make_round(N1, N2, N2b, semi_base):
        lat1 = Lattice(1, 2.0, N1, 1.0)
        lat2 = Lattice(2, 2.0, N2, 1.0)
        ext1 = gaussian_bump(1, rng.uniform(-0.2, 0.2), 1.5,
                             rng.uniform(0.2, 0.4))
        ext2 = gaussian_bump(2, rng.uniform(-0.2, 0.2, 2), 1.5,
                             rng.uniform(0.2, 0.4))
        f1 = gaussian_bump(1, rng.uniform(-0.2, 0.2), 0.5,
                           rng.uniform(0.3, 0.5))
        box = _Box()
        asm2 = _assemble_item(K2, lat2, ext2, box)
        rest = [_bellman_item(bellman_problem(rng, 2),
                              Lattice(2, 2.0, N2b, 1.0))]
        rest += [_bellman_item(bellman_problem(rng, 1), lat1)
                 for _ in range(BELLMAN_1D_REPEATS)]
        for _ in range(ONE_D_REPEATS):
            rest += [_assemble_item(K1, lat1, ext1),
                     _linear_item(K1, f1, ext1, lat1),
                     _obstacle_item(obstacle_problem(rng), lat1),
                     _semiconcavity_item(obstacle_problem(rng), semi_base),
                     _experiment_item({"scenario": "solve",
                                       "params": {"nodes": N1},
                                       "seed": int(rng.integers(1 << 30))},
                                      work_dir)]
        rng.shuffle(rest)
        # the 2d grid action uses the operator assembled in the same round
        items = [asm2, _apply_grid_item(box, K2.s, ext2, _axis_nodes(lat2))]
        for it in rest:
            items.insert(int(rng.integers(len(items) + 1)), it)
        return items

    sz = SIZES["tiny"]
    warm = make_round(sz["N1"], sz["N2"], sz["N2_bellman"], sz["semi_base"])
    rs = [make_round(z["N1"], z["N2"], z["N2_bellman"], z["semi_base"])
          for _ in range(rounds)]
    lat2 = Lattice(2, 2.0, z["N2"], 1.0)
    return Plan(warm, rs, {"items_per_round": len(rs[0]),
                           "probes_per_round": z["N1"] + lat2.N ** 2})


# Each workload function takes (rng, rounds, size, work_dir); work_dir is
# a scratch directory inside the checkout for items that write files.
WORKLOADS = {
    "pointwise-ops": pointwise_ops,
    "aux-checks": aux_checks,
    "lattice-solves": lattice_solves,
}
