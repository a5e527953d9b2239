"""Per-layer microbenchmarks of the traced run.

Each layer is measured on fixed-size inputs drawn from the run's seed,
so every traced run reports every layer metric whatever its workload,
and the counts repeat exactly for a given seed.  `layer_metrics`
returns {name: (value, unit)}.
"""

import statistics
import tempfile
import time

import numpy as np

from fracbern.kernels import anisotropic_kernel, fractional_kernel
from fracbern.funcspace import (averaged_square, averaged_square_root,
                                directional_derivative, gaussian_bump,
                                incremental_quotient, make_cutoff)
from fracbern.nonlocal_ops import (Lattice, QuadratureFailure,
                                   apply_nonlocal, assemble_discrete,
                                   default_plan, singular_integral,
                                   singular_integral_batch, spectral_oracle)
from fracbern.extension import extend, trace_constant, \
    weighted_normal_derivative
from fracbern.bernstein import check_first_order_batch, check_supert_identity
from fracbern.solvers import solve_bellman, solve_linear_dirichlet, \
    solve_obstacle
from fracbern.harness import run_experiment, semiconcavity_refinement

import workloads as wl

# Layer-only sizes; lattice sizes and probe counts come from the
# workloads' SIZES, so layers and items measure the same problems.
SIZES = {
    "full": {"kernel_pts": 4096, "leaf_pts": 512, "composite_pts": 128,
             "pointwise_1d": (0.3, 0.5, 0.8), "pointwise_2d": (0.3, 0.7),
             "composite_probes": 4},
    "tiny": {"kernel_pts": 64, "leaf_pts": 16, "composite_pts": 8,
             "pointwise_1d": (0.5,), "pointwise_2d": (0.5,),
             "composite_probes": 1},
}


def _timed(fn, *args, **kw):
    t = time.perf_counter()
    out = fn(*args, **kw)
    return out, time.perf_counter() - t


def _ns_per_point(fn, pts, min_s=0.02):
    """Median over three batches of calls, each at least min_s long."""
    _, dt = _timed(fn, pts)
    reps = max(1, int(min_s / max(dt, 1e-9)))
    samples = []
    for _ in range(3):
        t = time.perf_counter()
        for _ in range(reps):
            fn(pts)
        samples.append((time.perf_counter() - t) / reps)
    return statistics.median(samples) / pts.shape[0] * 1e9


def _kernel_layer(rng, z, out):
    r = rng.uniform(0.01, 5.0, z["kernel_pts"]) * rng.choice(
        [-1.0, 1.0], z["kernel_pts"])
    pts1 = r.reshape(-1, 1)
    ks = [fractional_kernel(1, 0.5),
          anisotropic_kernel(0.5, np.array([[1.3]])),
          wl.log_modulated_kernel(1, 0.5)]
    out["kernels.eval_ns_per_pt.1d"] = (
        statistics.fmean(_ns_per_point(K, pts1) for K in ks), "ns")
    ang = rng.uniform(0.0, 2 * np.pi, z["kernel_pts"])
    pts2 = np.abs(r)[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    out["kernels.eval_ns_per_pt.2d"] = (
        _ns_per_point(fractional_kernel(2, 0.5), pts2), "ns")


def _composites(rng):
    """The auxiliary composites the identity check evaluates."""
    e, h, w = np.array([1.0]), 0.1, 1.5
    u = wl.aux_base(rng)
    eta = make_cutoff(0.25, 0.5, n=1)
    du = directional_derivative(u, e)
    q = incremental_quotient(u, h, e)
    return {
        "leaf": gaussian_bump(1, rng.uniform(-0.3, 0.3), 1.0),
        "du2": du * du,
        "aux_dir": (eta * eta) * (du * du) + (u * u) * w,
        "aux_inc": (eta * eta) * (q * q) + averaged_square(u, h, e) * w,
        "avg_sqrt": averaged_square_root(u, h, e),
    }


def _funcspace_layer(rng, z, out):
    comps = _composites(rng)
    for name, f in comps.items():
        m = z["leaf_pts"] if name == "leaf" else z["composite_pts"]
        pts = rng.uniform(-1.5, 1.5, (m, 1))
        for d, fn in (("value", f.value), ("gradient", f.gradient),
                      ("hessian", f.hessian), ("d3", f.d3)):
            out["funcspace.%s.%s_ns_per_pt" % (name, d)] = (
                _ns_per_point(fn, pts), "ns")
    return comps


def _nonlocal_pointwise(rng, z, out, comps):
    worst, fails = 0.0, 0
    times = {1: [], 2: []}
    cases = [(u, s) for u in wl.leaves_1d(rng) for s in z["pointwise_1d"]]
    cases += [(u, s) for u in wl.leaves_2d(rng) for s in z["pointwise_2d"]]
    oracle = {1: [], 2: []}
    for u, s in cases:
        n = u.n
        x = rng.uniform(-1.0, 1.0, n)
        plan = default_plan(n)
        K = fractional_kernel(n, s)
        t = time.perf_counter()
        try:
            ov = singular_integral(K, u, x, plan)
        except QuadratureFailure as qf:
            fails += 1
            ov = qf.partial
        times[n].append(time.perf_counter() - t)
        if hasattr(ov, "scale"):
            worst = max(worst, ov.error / (plan.rel_tol * ov.scale))
        oracle[n].append(_timed(spectral_oracle, s, u, x)[1])
    for n in (1, 2):
        out["nonlocal_ops.pointwise_ms.%dd" % n] = (
            statistics.median(times[n]) * 1e3, "ms")
        out["nonlocal_ops.oracle_ms.%dd" % n] = (
            statistics.median(oracle[n]) * 1e3, "ms")
    lenient = default_plan(1).scaled(strict=False, max_refine=2)
    K = fractional_kernel(1, 0.5)
    comp = [_timed(apply_nonlocal, K, comps["aux_dir"],
                   rng.uniform(-1.0, 1.0), lenient)[1]
            for _ in range(z["composite_probes"])]
    out["nonlocal_ops.pointwise_ms.composite"] = (
        statistics.median(comp) * 1e3, "ms")
    xs = np.sort(rng.uniform(-1.5, 1.5, z["batch_probes"])).reshape(-1, 1)
    batch = [_timed(singular_integral_batch, K, comps["leaf"], xs)[1]
             for _ in range(3)]
    out["nonlocal_ops.batch_us_per_probe.1d"] = (
        statistics.median(batch) / xs.shape[0] * 1e6, "us")
    out["nonlocal_ops.err_over_tol_max"] = (worst, "ratio")
    return fails


def _extension_layer(rng, out):
    u = gaussian_bump(1, rng.uniform(-0.3, 0.3), rng.uniform(0.8, 1.2))
    wnd = []
    for _ in range(3):
        t = time.perf_counter()
        weighted_normal_derivative(extend(u, 0.5), rng.uniform(-0.5, 0.5))
        wnd.append(time.perf_counter() - t)
    out["extension.normal_derivative_ms"] = (statistics.median(wnd) * 1e3,
                                             "ms")
    # orders no other call uses, so the constant's cache is cold
    tc = [_timed(trace_constant, float(s))[1]
          for s in rng.uniform(0.3, 0.7, 2)]
    out["extension.trace_constant_ms"] = (statistics.median(tc) * 1e3, "ms")


def _bernstein_layer(rng, z, out):
    u = wl.aux_base(rng)
    eta = make_cutoff(0.25, 0.5, n=1)
    K = fractional_kernel(1, 0.5)
    worst = 0.0
    for v in wl.VARIANTS:
        r, dt = _timed(check_supert_identity, K, u, eta, 1.5, v,
                       rng.uniform(-1.2, 1.2), h=0.1)
        out["bernstein.supert_s." + v] = (dt, "s")
        worst = max(worst, r["residual"] / max(r["error_budget"], 1e-300))
    out["bernstein.budget_ratio_max"] = (worst, "ratio")
    probes = np.sort(rng.uniform(-1.2, 1.2, z["fo_probes"])).reshape(-1, 1)
    _, dt = _timed(check_first_order_batch, u, eta, np.array([1.0]), 0.5,
                   probes)
    out["bernstein.first_order_batch_us_per_probe"] = (
        dt / probes.shape[0] * 1e6, "us")


def _lattice_layers(rng, z, out, work_dir):
    K1, K2 = fractional_kernel(1, 0.5), fractional_kernel(2, 0.5)
    lat1 = Lattice(1, 2.0, z["N1"], 1.0)
    lat2 = Lattice(2, 2.0, z["N2"], 1.0)
    ext1 = gaussian_bump(1, rng.uniform(-0.2, 0.2), 1.5, 0.3)
    ext2 = gaussian_bump(2, rng.uniform(-0.2, 0.2, 2), 1.5, 0.3)
    f1 = gaussian_bump(1, rng.uniform(-0.2, 0.2), 0.5, 0.4)
    _, dt = _timed(assemble_discrete, K1, lat1, ext1)
    out["nonlocal_ops.assemble_s.1d"] = (dt, "s")
    D2, dt = _timed(assemble_discrete, K2, lat2, ext2)
    out["nonlocal_ops.assemble_s.2d"] = (dt, "s")
    full = D2.full_values(np.zeros(lat2.n_int))
    _, dt = _timed(D2.apply_to_grid, full, ext2)
    out["nonlocal_ops.apply_to_grid_s.2d"] = (dt, "s")
    out["nonlocal_ops.stencil_offsets.2d"] = (len(D2.offsets), "count")
    out["nonlocal_ops.n_int.2d"] = (lat2.n_int, "count")
    out["solvers.dense_bytes.2d"] = (8 * lat2.n_int ** 2, "B")

    _, dt = _timed(solve_linear_dirichlet, K1, f1, ext1, lat1)
    out["solvers.linear_s.1d"] = (dt, "s")
    (_, _, i1), dt = _timed(solve_bellman, wl.bellman_problem(rng, 1), lat1)
    out["solvers.bellman_s.1d"] = (dt, "s")
    (_, _, i2), dt = _timed(solve_bellman, wl.bellman_problem(rng, 2),
                            Lattice(2, 2.0, z["N2_bellman"], 1.0))
    out["solvers.bellman_s.2d"] = (dt, "s")
    (_, _, i3), dt = _timed(solve_obstacle, wl.obstacle_problem(rng), lat1)
    out["solvers.obstacle_s.1d"] = (dt, "s")
    out["solvers.policy_iters"] = (
        i1["iterations"] + i2["iterations"] + i3["iterations"], "count")

    prob = wl.obstacle_problem(rng)
    base = z["semi_base"]

    def solve_at(lvl):
        return solve_obstacle(prob, Lattice(1, 2.0, base * 2 ** lvl + 1,
                                            1.0))[0]

    _, dt = _timed(semiconcavity_refinement, solve_at, 3)
    out["harness.semiconcavity_s"] = (dt, "s")
    with tempfile.TemporaryDirectory(dir=work_dir) as d:
        _, dt = _timed(run_experiment, {"scenario": "solve",
                                        "params": {"nodes": z["N1"]},
                                        "seed": 1}, d)
    out["harness.run_experiment_s.solve"] = (dt, "s")


def layer_metrics(rng, size, work_dir):
    """Every per-layer metric except the trace overhead and the loop's
    counts, plus the number of QuadratureFailures the strict pointwise
    calls raised."""
    z = {**wl.SIZES[size], **SIZES[size]}
    out = {}
    _kernel_layer(rng, z, out)
    comps = _funcspace_layer(rng, z, out)
    fails = _nonlocal_pointwise(rng, z, out, comps)
    _extension_layer(rng, out)
    _bernstein_layer(rng, z, out)
    _lattice_layers(rng, z, out, work_dir)
    return out, fails
