"""Experiment orchestration: structural constants of a problem, measured
derivative bounds against the theorems' right-hand-side functionals, the
scaled-inequality utility, and reproducible report bundles.

Empirical constants are always reported with their instance spread and
never asserted against unknowable theoretical values.
"""

import hashlib
import json
import os

import numpy as np

from . import __version__
from .kernels import MeasureOnUnit, bellman_max, positive_orders
from .solvers import grid_gradient, grid_second_difference

__all__ = [
    "ProblemConstants", "problem_constants", "EstimateReport",
    "measure_derivative_bounds", "scaled_lemma_check", "run_experiment",
    "semiconcavity_refinement",
]

REPORT_SCHEMA = "v1"


class ProblemConstants:
    """Data-side constants of an instance, sampled to 1% stability."""

    def __init__(self, **kw):
        self.__dict__.update(kw)
        for k, v in kw.items():
            if isinstance(v, float) and not np.isfinite(v):
                raise ValueError("constant %s is not finite" % k)

    def to_dict(self):
        return {k: v for k, v in self.__dict__.items()
                if isinstance(v, (int, float, str, bool))}


def _ball_samples(R, n, m, rng):
    pts = rng.uniform(-R, R, size=(3 * m, n))
    pts = pts[np.linalg.norm(pts, axis=1) < R]
    return pts[:m]


def _stable_sup(fn, R, n, seed=0, start=400, tol=0.01, max_rounds=5):
    rng = np.random.default_rng(seed)
    prev = None
    m = start
    for _ in range(max_rounds):
        pts = _ball_samples(R, n, m, rng)
        cur = float(np.max(fn(pts)))
        if prev is not None and abs(cur - prev) <= tol * max(abs(cur), 1e-12):
            return cur
        prev = cur
        m *= 2
    return prev


def problem_constants(problem, e=None, R=None, want_second=True,
                      semiconcavity_guard=True):
    """Sup-type constants of the data f, g_j over the domain ball.

    Computes the negative-part / gradient / directional constants of the
    combined data, the gamma pair driving the linearized-operator
    bounds, the identity-atom flag of the measures involved, and the
    composed zero-order source -F(-g_1, ..., -g_J).
    """
    n = problem.f.n
    if R is None:
        R = problem.R_dom
    if e is None:
        e = np.zeros(n); e[0] = 1.0
    F = problem.nonlinearity or bellman_max(problem.J)
    gs = [g for _, g in problem.members]

    def fg_neg(pts):
        out = []
        for g in gs:
            out.append(np.maximum(-(problem.f(pts) + g(pts)), 0.0))
        return np.max(np.stack(out), axis=0)

    def fg_grad(pts):
        out = []
        for g in gs:
            out.append(np.linalg.norm(problem.f.gradient(pts)
                                      + g.gradient(pts), axis=1))
        return np.max(np.stack(out), axis=0)

    def fg_de(pts):
        out = []
        for g in gs:
            out.append(np.abs((problem.f.gradient(pts)
                               + g.gradient(pts)) @ e))
        return np.max(np.stack(out), axis=0)

    def fg_dee_pos(pts):
        out = []
        for g in gs:
            H = problem.f.hessian(pts) + g.hessian(pts)
            out.append(np.maximum(np.einsum("i,mij,j->m", e, H, e), 0.0))
        return np.max(np.stack(out), axis=0)

    G0 = _stable_sup(fg_neg, R, n)
    G1 = _stable_sup(fg_grad, R, n)
    Ge1 = _stable_sup(fg_de, R, n)
    Ge2 = None
    if want_second:
        if semiconcavity_guard:
            rng = np.random.default_rng(1)
            a = float(np.max(fg_dee_pos(_ball_samples(R, n, 500, rng))))
            b = float(np.max(fg_dee_pos(_ball_samples(R, n, 16000, rng))))
            if b > 2.0 * max(a, 1e-9) + 1e-6:
                raise ValueError("data fail the semiconcavity certificate: "
                                 "second-derivative sampling diverges")
        Ge2 = _stable_sup(fg_dee_pos, R, n)

    gamma1 = _stable_sup(
        lambda p: np.linalg.norm(problem.f.gradient(p), axis=1), R, n) \
        + max(_stable_sup(lambda p, g=g: np.linalg.norm(g.gradient(p), axis=1),
                          R, n) for g in gs)
    gamma2 = None
    if want_second:
        def fpp(pts):
            H = problem.f.hessian(pts)
            return np.maximum(np.max(np.linalg.eigvalsh(H), axis=1), 0.0)
        gamma2 = _stable_sup(fpp, R, n) + max(
            _stable_sup(lambda p, g=g: np.maximum(np.max(np.linalg.eigvalsh(
                g.hessian(p)), axis=1), 0.0), R, n) for g in gs)

    omega0 = 0
    for op, _ in problem.members:
        if isinstance(op, MeasureOnUnit):
            omega0 = max(omega0, op.omega0)
        elif np.isscalar(op) and float(op) == 0.0:
            omega0 = 1

    def g_composite(pts):
        stack = np.stack([-g(pts) for g in gs], axis=1)
        return -F(stack)

    return ProblemConstants(G0=G0, G1=G1, Ge1=Ge1, Ge2=Ge2,
                            H0=G0, H1=G1, gamma1=gamma1, gamma2=gamma2,
                            omega0=omega0, g_composite=g_composite, R=R)


class EstimateReport:
    def __init__(self, **kw):
        self.__dict__.update(kw)

    def to_dict(self):
        return {k: v for k, v in self.__dict__.items()
                if isinstance(v, (int, float, str, bool, list))}


def measure_derivative_bounds(gf, problem, R, e=None, constants=None,
                              theorem="indefinite-order"):
    """Fitted constant between the measured derivative sups of a solved
    instance and the structural right-hand side of the matching bound.

    theorem: "definite-order" (single-order kernel family: the bracket
    carries R^s and R^{1+2s} weights), "indefinite-order" (measure
    superpositions: omega_0 and the 1+R^2 weights), or "obstacle"
    (unit-ball obstacle normalization).  "definite-order" takes s from
    the members' positive orders (kernels.positive_orders; order-0
    members and measures add none), the largest bracket over them when
    there are several, and raises ValueError when there is none.
    """
    n = gf.n
    if e is None:
        e = np.zeros(n); e[0] = 1.0
    if constants is None:
        constants = problem_constants(problem, e=e, R=R)
    du = grid_gradient(gf, e)
    ddu = grid_second_difference(gf, e)
    nodes = gf.nodes()
    rad = np.linalg.norm(nodes, axis=1)
    half = rad < R / 2
    quarter = rad < R / 4
    inner_band = rad < R - 2 * gf.h
    sup_grad_half = float(np.max(np.abs(du[half & inner_band])))
    sup_dd_quarter = float(np.max(ddu[quarter & inner_band]))
    sup_dd_half = float(np.max(ddu[half & inner_band]))

    u_sup_all = max(float(np.max(np.abs(gf.values))), problem.exterior.sup)
    u_sup_R = float(np.max(np.abs(gf.values.ravel()[rad < R])))

    c = constants
    if theorem == "definite-order":
        orders = positive_orders(op for op, _ in problem.members)
        if not orders:
            raise ValueError("theorem 'definite-order' (R^s weights) needs "
                             "a member of positive definite order")
        rhs1 = max((u_sup_all + R ** s * np.sqrt(c.G0 * u_sup_R)
                    + R ** (1 + 2 * s) * c.G1) / R for s in orders)
        rhs2 = max((u_sup_all + R ** s * np.sqrt(c.G0 * u_sup_R)
                    + R ** (1 + 2 * s) * c.Ge1
                    + R ** (2 + 2 * s) * (c.Ge2 or 0.0)) / R ** 2
                   for s in orders)
    elif theorem == "obstacle":
        rhs1 = u_sup_all + c.G1
        rhs2 = u_sup_all + c.Ge1 + (c.Ge2 or 0.0)
    else:
        fg = float(np.max(np.maximum(
            -(problem.f(nodes[rad < R])
              + c.g_composite(nodes[rad < R])), 0.0)))
        rhs1 = ((c.omega0 + 1.0 / R) * u_sup_all
                + (1 + R) / R * np.sqrt(fg * u_sup_R)
                + (1 + R ** 2) * c.gamma1)
        rhs2 = ((c.omega0 + 1.0 / R) / R * u_sup_all
                + (1 + R) / R ** 2 * np.sqrt(fg * u_sup_R)
                + (1 + R ** 2) * (c.gamma1 / R + (c.gamma2 or 0.0)))
    return EstimateReport(
        sup_grad_half=sup_grad_half, sup_dd_quarter=sup_dd_quarter,
        sup_dd_half=sup_dd_half, rhs_first=float(rhs1),
        rhs_second=float(rhs2),
        fitted_C_first=sup_grad_half / max(rhs1, 1e-300),
        fitted_C_second=max(sup_dd_half, 0.0) / max(rhs2, 1e-300),
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
        rad = np.linalg.norm(gf.nodes(), axis=1)
        mask = rad < 0.5 - 2 * gf.h
        sups.append(float(np.max(ddu[mask])))
    ratios = [sups[i + 1] / sups[i] for i in range(len(sups) - 1)]
    return {"sups": sups, "ratios": ratios,
            "stable": bool(all(0.8 <= r <= 1.25 for r in ratios))}


def scaled_lemma_check(u, m, sigma0, x_samples=None, rho_levels=8,
                       interior_radius=2.0):
    """The dyadic-ball absorption lemma, run with the proof's epsilon.

    Hypothesis: for x in B_2 and dyadic rho, the weighted derivative sum
    over B_rho(x) is controlled by C_eps sigma0 plus eps times the same
    sum over B_{3rho}(x).  With eps* = 1/(2(m+1)4^{m+1}) the proof bounds
    the full sum on B_{1/2} by 2^{m+3} 4^{m+1} C_{eps*} sigma0; both the
    fitted C_{eps*} and the conclusion check are returned.
    """
    n = u.n
    eps_star = 1.0 / (2.0 * (m + 1) * 4 ** (m + 1))
    rng = np.random.default_rng(17)
    if x_samples is None:
        x_samples = _ball_samples(interior_radius, n, 40, rng)
    rhos = 0.5 ** np.arange(1, rho_levels + 1)

    def dsum(center, rho, fac=1.0):
        pts = center[None, :] + _ball_samples(rho * fac, n, 160, rng)
        total = np.max(np.abs(u(pts)))
        if m >= 1:
            total += rho * np.max(np.linalg.norm(u.gradient(pts), axis=1))
        if m >= 2:
            total += rho ** 2 * np.max(np.abs(np.linalg.eigvalsh(
                u.hessian(pts))).max(axis=1))
        return float(total)

    worst_C = 0.0
    for x in x_samples:
        for rho in rhos:
            lhs = dsum(x, rho)
            rhs3 = dsum(x, rho, fac=3.0)
            need = (lhs - eps_star * rhs3) / max(sigma0, 1e-300)
            worst_C = max(worst_C, need)
    if worst_C < 0:
        worst_C = 0.0
    C_conclusion = 2 ** (m + 3) * 4 ** (m + 1) * worst_C
    pts_half = _ball_samples(0.5, n, 800, rng)
    total_half = np.max(np.abs(u(pts_half)))
    if m >= 1:
        total_half += np.max(np.linalg.norm(u.gradient(pts_half), axis=1))
    if m >= 2:
        total_half += np.max(np.abs(np.linalg.eigvalsh(
            u.hessian(pts_half))).max(axis=1))
    ok = bool(total_half <= C_conclusion * sigma0 + 1e-12)
    return {"eps_star": eps_star, "fitted_C_eps": worst_C,
            "C_conclusion": C_conclusion,
            "lhs_half": float(total_half),
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


def _probe_cloud(rng, n, count, radius):
    pts = rng.uniform(-radius, radius, size=(3 * count + 16, n))
    pts = pts[np.linalg.norm(pts, axis=1) < radius]
    return pts[:count]


def _run_supert(params, seed):
    from .kernels import fractional_kernel
    from .funcspace import gaussian_bump, make_cutoff
    from .bernstein import check_supert_identity
    rng = np.random.default_rng(seed)
    n = int(params.get("n", 1))
    s = float(params.get("s", 0.5))
    count = int(params.get("probes", 20))
    K = fractional_kernel(n, s)
    u = gaussian_bump(n, None, 1.0) + gaussian_bump(
        n, rng.uniform(-0.5, 0.5, n), 0.7, -0.5)
    eta = make_cutoff(0.25, 0.5, n=n)
    probes = _probe_cloud(rng, n, count, 1.5)
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
    from .funcspace import gaussian_bump, make_cutoff
    from .bernstein import check_first_order_fraclap
    rng = np.random.default_rng(seed)
    s = float(params.get("s", 0.5))
    count = int(params.get("probes", 24))
    u = gaussian_bump(1, None, 1.0) + gaussian_bump(
        1, rng.uniform(-0.5, 0.5, 1), 0.7, -0.4)
    eta = make_cutoff(0.25, 0.5, n=1)
    probes = _probe_cloud(rng, 1, count, 1.2)
    sigma0, reports = check_first_order_fraclap(
        u, eta, np.array([1.0]), s, probes)
    ok = all(r.verdict for r in reports)
    rows = [("sigma", "worst_margin")]
    for r in reports:
        rows.append((r.params["sigma"], r.worst_margin))
    return ({"sigma0": sigma0, "verdicts": [ok], "pass": ok},
            {"first_order.csv": rows})


def _run_solve(params, seed):
    from .kernels import fractional_kernel
    from .funcspace import gaussian_bump, constant
    from .nonlocal_ops import Lattice
    from .solvers import BellmanProblem, solve_bellman
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
    from .funcspace import gaussian_bump, constant
    from .nonlocal_ops import Lattice
    from .solvers import ObstacleProblem, solve_obstacle
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
    from .kernels import fractional_kernel
    from .funcspace import gaussian_bump, make_cutoff
    from .bernstein import check_conto_traccia
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
