"""Experiment orchestration: measured derivative bounds against the
theorems' right-hand-side functionals, the scaled-inequality utility,
and reproducible report bundles, above the solvers, whose data
constants, measured sups and ball sampler it reads.

Empirical constants are always reported with their instance spread and
never asserted against unknowable theoretical values.
"""

import hashlib
import json
import os

import numpy as np

from . import __version__
from ._quad import sq_norms
from .kernels import fractional_kernel, positive_orders
from .funcspace import constant, gaussian_bump, make_cutoff
from .nonlocal_ops import Lattice
from .bernstein import (check_conto_traccia, check_first_order_fraclap,
                        check_supert_identity)
from .solvers import (BellmanProblem, ObstacleProblem, _ball_samples,
                      _measured_sups, grid_second_difference,
                      problem_constants, solve_bellman, solve_obstacle)

__all__ = [
    "EstimateReport", "measure_derivative_bounds", "scaled_lemma_check",
    "run_experiment", "semiconcavity_refinement",
]

REPORT_SCHEMA = "v1"


class EstimateReport:
    def __init__(self, **kw):
        self.__dict__.update(kw)


def measure_derivative_bounds(gf, problem, R, theorem="indefinite-order"):
    """Fitted constant between the measured derivative sups of a solved
    instance and the structural right-hand side of the matching bound,
    along the first axis e, with problem_constants over B_R.

    theorem: "definite-order" (single-order kernel family: the bracket
    carries R^s and R^{1+2s} weights), "indefinite-order" (measure
    superpositions: omega_0 and the 1+R^2 weights), or "obstacle"
    (unit-ball obstacle normalization).  "definite-order" takes s from
    the members' positive orders (kernels.positive_orders; order-0
    members and measures add none), the largest bracket over them when
    there are several, and raises ValueError when there is none.  Any
    other theorem name raises ValueError.
    """
    if theorem not in ("definite-order", "indefinite-order", "obstacle"):
        raise ValueError("theorem %r: expected 'definite-order', "
                         "'indefinite-order' or 'obstacle'" % (theorem,))
    sups = _measured_sups(gf, problem.exterior, R)
    c = problem_constants(problem, R=R)
    u_sup_all, u_sup_R = sups["u_all"], sups["u_R"]

    if theorem == "definite-order":
        orders = positive_orders(op for op, _ in problem.members)
        if not orders:
            raise ValueError("theorem 'definite-order' (R^s weights) needs "
                             "a member of positive definite order")
        rhs1 = max((u_sup_all + R ** s * np.sqrt(c.G0 * u_sup_R)
                    + R ** (1 + 2 * s) * c.G1) / R for s in orders)
        rhs2 = max((u_sup_all + R ** s * np.sqrt(c.G0 * u_sup_R)
                    + R ** (1 + 2 * s) * c.Ge1
                    + R ** (2 + 2 * s) * c.Ge2) / R ** 2
                   for s in orders)
    elif theorem == "obstacle":
        rhs1 = u_sup_all + c.G1
        rhs2 = u_sup_all + c.Ge1 + c.Ge2
    else:
        ball = gf.nodes()[np.sqrt(sq_norms(gf.nodes())) < R]
        fg = float(np.max(np.maximum(
            -(problem.f(ball) + problem.source(ball)), 0.0)))
        rhs1 = ((c.omega0 + 1.0 / R) * u_sup_all
                + (1 + R) / R * np.sqrt(fg * u_sup_R)
                + (1 + R ** 2) * c.gamma1)
        rhs2 = ((c.omega0 + 1.0 / R) / R * u_sup_all
                + (1 + R) / R ** 2 * np.sqrt(fg * u_sup_R)
                + (1 + R ** 2) * (c.gamma1 / R + c.gamma2))
    return EstimateReport(
        sup_grad_half=sups["grad_half"], sup_dd_quarter=sups["dd_quarter"],
        sup_dd_half=sups["dd_half"], rhs_first=float(rhs1),
        rhs_second=float(rhs2),
        fitted_C_first=sups["grad_half"] / max(rhs1, 1e-300),
        fitted_C_second=max(sups["dd_half"], 0.0) / max(rhs2, 1e-300),
        theorem=theorem, R=R, h=gf.h)


def semiconcavity_refinement(solve_at, levels=3):
    """sup of the second difference under h -> h/2 -> h/4.

    solve_at(level) returns a solved GridFunction at refinement `level`
    (0 coarsest).  Returns the sups and the successive ratios.
    """
    sups = []
    for lvl in range(levels):
        gf = solve_at(lvl)
        e = np.zeros(gf.n); e[0] = 1.0
        ddu = grid_second_difference(gf, e)
        rad = np.sqrt(sq_norms(gf.nodes()))
        mask = rad < 0.5 - 2 * gf.h
        sups.append(float(np.max(ddu[mask])))
    ratios = [sups[i + 1] / sups[i] for i in range(len(sups) - 1)]
    return {"sups": sups, "ratios": ratios,
            "stable": bool(all(0.8 <= r <= 1.25 for r in ratios))}


def scaled_lemma_check(u, m, sigma0, interior_radius=2.0):
    """The dyadic-ball absorption lemma, run with the proof's epsilon.

    Hypothesis: for x in B_2 and dyadic rho, the weighted derivative sum
    over B_rho(x) is controlled by C_eps sigma0 plus eps times the same
    sum over B_{3rho}(x).  With eps* = 1/(2(m+1)4^{m+1}) the proof bounds
    the full sum on B_{1/2} by 2^{m+3} 4^{m+1} C_{eps*} sigma0; both the
    fitted C_{eps*} and the conclusion check are returned.  The centers
    are 40 seeded samples of B_{interior_radius}, the radii 2^-1 to 2^-8.
    """
    n = u.n
    eps_star = 1.0 / (2.0 * (m + 1) * 4 ** (m + 1))
    rng = np.random.default_rng(17)
    x_samples = _ball_samples(interior_radius, n, 40, rng)
    rhos = 0.5 ** np.arange(1, 9)

    def ball_sum(pts, rho):  # the weighted derivative sum over pts
        total = np.max(np.abs(u(pts)))
        if m >= 1:
            total += rho * np.max(np.sqrt(sq_norms(u.gradient(pts))))
        if m >= 2:
            total += rho ** 2 * np.max(np.abs(np.linalg.eigvalsh(
                u.hessian(pts))).max(axis=1))
        return float(total)

    worst_C = 0.0
    for x in x_samples:
        for rho in rhos:  # over B_rho(x), then over B_{3 rho}(x)
            lhs, rhs3 = [ball_sum(x + _ball_samples(rho * fac, n, 160, rng),
                                  rho) for fac in (1.0, 3.0)]
            need = (lhs - eps_star * rhs3) / max(sigma0, 1e-300)
            worst_C = max(worst_C, need)
    if worst_C < 0:
        worst_C = 0.0
    C_conclusion = 2 ** (m + 3) * 4 ** (m + 1) * worst_C
    total_half = ball_sum(_ball_samples(0.5, n, 800, rng), 1.0)
    ok = bool(total_half <= C_conclusion * sigma0 + 1e-12)
    return {"eps_star": eps_star, "fitted_C_eps": worst_C,
            "C_conclusion": C_conclusion,
            "lhs_half": total_half,
            "rhs_half": float(C_conclusion * sigma0),
            "pass": ok, "m": m}


# -- experiment runner -----------------------------------------------------------

def _config_hash(config):
    canon = json.dumps(config, sort_keys=True).encode()
    return hashlib.sha256(canon).hexdigest()[:16]


def run_experiment(config, out_dir):
    """Run a named scenario deterministically and write a report bundle.

    config: dict with keys scenario (supert-identity | inequality-check |
    solve | obstacle-semiconcavity | open-problem-probe | none), params,
    seed.  Outputs: manifest (config hash, version), report.json, CSVs.
    Raises ValueError with the offending field path on schema errors.
    """
    if not isinstance(config, dict):
        raise ValueError("config: expected an object")
    scenario = config.get("scenario")
    if scenario is None:
        raise ValueError("config.scenario: missing")
    params = config.get("params", {})
    if not isinstance(params, dict):
        raise ValueError("config.params: expected an object")
    seed = int(config.get("seed", 0))
    if "tol" in config:
        raise ValueError("config.tol: no scenario reads a tolerance")
    os.makedirs(out_dir, exist_ok=True)
    manifest = {"schema": REPORT_SCHEMA, "version": __version__,
                "config_hash": _config_hash(config), "scenario": scenario,
                "seed": seed}
    report = {"scenario": scenario, "verdicts": []}
    csvs = {}

    if scenario == "none":
        pass
    elif scenario == "supert-identity":
        report, csvs = _run_supert(params, seed)
    elif scenario == "inequality-check":
        report, csvs = _run_first_order(params, seed)
    elif scenario == "solve":
        report, csvs = _run_solve(params, seed)
    elif scenario == "obstacle-semiconcavity":
        report, csvs = _run_obstacle_semiconcavity(params, seed)
    elif scenario == "open-problem-probe":
        report, csvs = _run_open_problem(params, seed)
    else:
        raise ValueError("config.scenario: unknown scenario %r" % scenario)

    report["scenario"] = scenario
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True, default=float)
    for name, rows in csvs.items():
        with open(os.path.join(out_dir, name), "w") as fh:
            for row in rows:
                fh.write(",".join("%.17g" % v if isinstance(v, float)
                                  else str(v) for v in row) + "\n")
    return report


def _run_supert(params, seed):
    rng = np.random.default_rng(seed)
    n = int(params.get("n", 1))
    s = float(params.get("s", 0.5))
    count = int(params.get("probes", 20))
    K = fractional_kernel(n, s)
    u = gaussian_bump(n, None, 1.0) + gaussian_bump(
        n, rng.uniform(-0.5, 0.5, n), 0.7, -0.5)
    eta = make_cutoff(0.25, 0.5, n=n)
    probes = _ball_samples(1.5, n, count, rng)
    rows = [("x", "variant", "residual", "budget", "pass")]
    worst = 0.0
    ok = True
    for x in probes:
        for variant in params.get("variants", ["directional"]):
            r = check_supert_identity(K, u, eta, 1.5, variant, x)
            rows.append((float(x[0]), variant, r["residual"],
                         r["error_budget"], r["pass"]))
            worst = max(worst, r["residual"])
            ok = ok and r["pass"]
    return ({"max_residual": worst, "verdicts": [ok], "pass": ok},
            {"supert.csv": rows})


def _run_first_order(params, seed):
    rng = np.random.default_rng(seed)
    s = float(params.get("s", 0.5))
    count = int(params.get("probes", 24))
    u = gaussian_bump(1, None, 1.0) + gaussian_bump(
        1, rng.uniform(-0.5, 0.5, 1), 0.7, -0.4)
    eta = make_cutoff(0.25, 0.5, n=1)
    probes = _ball_samples(1.2, 1, count, rng)
    sigma0, reports = check_first_order_fraclap(
        u, eta, np.array([1.0]), s, probes)
    ok = all(r.verdict for r in reports)
    rows = [("sigma", "worst_margin")]
    for r in reports:
        rows.append((r.params["sigma"], r.worst_margin))
    return ({"sigma0": sigma0, "verdicts": [ok], "pass": ok},
            {"first_order.csv": rows})


def _run_solve(params, seed):
    s = float(params.get("s", 0.5))
    N = int(params.get("nodes", 257))
    lat = Lattice(1, 2.0, N, 1.0)
    K = fractional_kernel(1, s)
    f = gaussian_bump(1, 0.0, 0.5, 0.4)
    ext = gaussian_bump(1, 0.0, 1.5, 0.2)
    prob = BellmanProblem([(K, constant(0.0, 1))], f, ext, 1.0)
    gf, policy, info = solve_bellman(prob, lat)
    rows = [("x", "u")] + [(float(x), float(v)) for x, v in
                           zip(lat.axis, gf.values)]
    return ({"residual": info["residual"], "iterations": info["iterations"],
             "verdicts": [info["residual"] <= 1e-8],
             "pass": info["residual"] <= 1e-8},
            {"solution.csv": rows})


def _run_obstacle_semiconcavity(params, seed):
    s = float(params.get("s", 0.5))
    refinements = int(params.get("refinements", 3))
    base_N = int(params.get("nodes", 129))

    def solve_at(lvl):
        N = (base_N - 1) * 2 ** lvl + 1
        lat = Lattice(1, 2.0, N, 1.0)
        prob = ObstacleProblem(
            s, constant(0.35, 1), gaussian_bump(1, 0.0, 0.5, -0.25),
            constant(0.0, 1), 1.0)
        gf, contact, info = solve_obstacle(prob, lat)
        return gf

    res = semiconcavity_refinement(solve_at, refinements)
    rows = [("level", "sup_dd")] + [(i, v) for i, v in enumerate(res["sups"])]
    return ({"sups": res["sups"], "ratios": res["ratios"],
             "verdicts": [res["stable"]], "pass": res["stable"]},
            {"stabilization.csv": rows})


def _run_open_problem(params, seed):
    rng = np.random.default_rng(seed)
    s = float(params.get("s", 0.5))
    eps = float(params.get("eps", 0.1))
    K = fractional_kernel(1, s)
    u = gaussian_bump(1, None, 1.0) + gaussian_bump(
        1, rng.uniform(-0.5, 0.5, 1), 0.8, -0.5)
    eta = make_cutoff(0.5, 1.0, n=1)
    sel, rep = check_conto_traccia(K, u, eta, eps)
    rows = [("probe", "lhs", "rhs", "residual")]
    for p, l, r, d in zip(rep.probes[:, 0], rep.lhs, rep.rhs, rep.residual):
        rows.append((float(p), float(l), float(r), float(d)))
    return ({"delta": sel.delta, "J3": sel.J3, "sigma_eps": sel.sigma_eps,
             "eps0_hold_fraction": rep.params["eps0_hold_fraction"],
             "verdicts": [rep.verdict], "pass": rep.verdict},
            {"traccia.csv": rows})
