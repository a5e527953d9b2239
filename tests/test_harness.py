"""Problem constants, estimate reports, the scaled lemma, experiment runs."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from fracbern.kernels import fractional_kernel, MeasureOnUnit, bellman_max
from fracbern.funcspace import (gaussian_bump, constant, make_cutoff,
                                SmoothFunction, Tail)
from fracbern.nonlocal_ops import Lattice
from fracbern.solvers import BellmanProblem, solve_bellman
from fracbern.harness import (problem_constants, measure_derivative_bounds,
                              scaled_lemma_check, run_experiment,
                              semiconcavity_refinement)

K05 = fractional_kernel(1, 0.5)


def quad_half():
    """f(x) = |x|^2 / 2 with exact derivatives, clipped metadata."""

    def val(x):
        return 0.5 * np.sum(x * x, axis=1)

    def grad(x):
        return x.copy()

    def hess(x):
        return np.broadcast_to(np.eye(x.shape[1]), (len(x),) + (x.shape[1],) * 2).copy()

    return SmoothFunction(1, val, grad, hess, sup=50.0, grad_sup=10.0,
                          hess_sup=1.0, tail=Tail.bounded(50.0))


def test_constants_zero_data():
    prob = BellmanProblem([(MeasureOnUnit.dirac(0.5), constant(0.0, 1))],
                          constant(0.0, 1), constant(0.0, 1), 1.0)
    c = problem_constants(prob)
    assert c.G0 == 0 and c.G1 == 0 and c.Ge1 == 0 and c.Ge2 == 0
    assert c.gamma1 == 0 and c.gamma2 == 0
    assert c.omega0 == 0
    prob0 = BellmanProblem([(MeasureOnUnit([(0.0, 0.5), (0.5, 0.5)]),
                             constant(0.0, 1))],
                           constant(0.0, 1), constant(0.0, 1), 1.0)
    assert problem_constants(prob0).omega0 == 1


def test_constants_quadratic_data():
    prob = BellmanProblem([(K05, constant(0.0, 1))], quad_half(),
                          constant(0.0, 1), 1.0)
    c = problem_constants(prob)
    assert c.G1 == pytest.approx(1.0, rel=0.02)   # sup |grad f| on B_1
    assert c.Ge2 == pytest.approx(1.0, rel=0.02)  # dd_e f = 1


def test_constants_bellman_two_sources():
    g1 = gaussian_bump(1, 0.2, 0.8, 0.5)
    g2 = gaussian_bump(1, -0.4, 0.6, 0.3)
    prob = BellmanProblem([(K05, g1), (K05, g2)], constant(0.0, 1),
                          constant(0.0, 1), 1.0, nonlinearity=bellman_max(2))
    c = problem_constants(prob)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, size=(4000, 1))
    pts = pts[np.abs(pts[:, 0]) < 1.0]
    want = max(np.max(np.abs(g1.gradient(pts))),
               np.max(np.abs(g2.gradient(pts))))
    assert c.gamma1 == pytest.approx(want, rel=0.05)


def test_constants_semiconcavity_guard():
    # |x|^{3/2} is Lipschitz with unbounded upward curvature at 0: the
    # one-sided second-derivative constant must be refused
    def val(x):
        return np.abs(x[:, 0]) ** 1.5

    def grad(x):
        return (1.5 * np.sign(x[:, 0]) * np.abs(x[:, 0]) ** 0.5)[:, None]

    def hess(x):
        return (0.75 / np.maximum(np.abs(x[:, 0]), 1e-12) ** 0.5)[:, None, None]

    cusp = SmoothFunction(1, val, grad, hess, sup=3.0, grad_sup=2.0,
                          hess_sup=np.inf, tail=Tail.bounded(3.0))
    prob = BellmanProblem([(K05, constant(0.0, 1))], cusp,
                          constant(0.0, 1), 1.0)
    with pytest.raises(ValueError):
        problem_constants(prob)


def _solved_instance(N=129, ops=(K05, fractional_kernel(1, 0.7))):
    lattice = Lattice(1, 2.0, N, 1.0)
    f = gaussian_bump(1, 0.0, 0.6, 0.4)
    g2 = gaussian_bump(1, -0.3, 0.5, -0.3)
    ext = gaussian_bump(1, 0.0, 1.4, 0.3)
    prob = BellmanProblem([(ops[0], constant(0.0, 1)), (ops[1], g2)],
                          f, ext, 1.0)
    gf, policy, info = solve_bellman(prob, lattice)
    return prob, gf, info


@pytest.mark.parametrize("ops", [(K05, fractional_kernel(1, 0.7)),
                                 (0.5, 0.7)], ids=["kernel", "order"])
def test_estimate_report_fields(ops):
    # an order is a member of definite order, as its kernel is
    prob, gf, info = _solved_instance(ops=ops)
    rep = measure_derivative_bounds(gf, prob, 1.0, theorem="definite-order")
    assert rep.fitted_C_first > 0 and np.isfinite(rep.fitted_C_first)
    assert rep.rhs_first > 0


def test_fitted_constant_scale_invariance():
    # u -> lam u, f -> lam f, g -> lam g leaves the fitted constant put
    lattice = Lattice(1, 2.0, 129, 1.0)
    fits = []
    for lam in [0.5, 1.0, 2.0]:
        f = gaussian_bump(1, 0.0, 0.6, 0.4 * lam)
        g2 = gaussian_bump(1, -0.3, 0.5, -0.3 * lam)
        ext = gaussian_bump(1, 0.0, 1.4, 0.3 * lam)
        prob = BellmanProblem([(K05, constant(0.0, 1)),
                               (fractional_kernel(1, 0.7), g2)], f, ext, 1.0)
        gf, policy, info = solve_bellman(prob, lattice)
        rep = measure_derivative_bounds(gf, prob, 1.0,
                                        theorem="definite-order")
        fits.append(rep.fitted_C_first)
    fits = np.asarray(fits)
    assert fits.max() / fits.min() <= 1.01


def test_scaled_lemma_zero_function():
    z = constant(0.0, 1)
    rep = scaled_lemma_check(z, m=0, sigma0=1.0)
    assert rep["pass"]
    assert rep["lhs_half"] == 0.0


def test_scaled_lemma_engineered_bump():
    for m in [0, 1]:
        u = gaussian_bump(1, 0.0, 1.5, 0.7)
        rep = scaled_lemma_check(u, m=m, sigma0=0.7)
        assert rep["eps_star"] == pytest.approx(
            1.0 / (2 * (m + 1) * 4 ** (m + 1)))
        assert rep["pass"], rep
        assert np.isfinite(rep["fitted_C_eps"])


def test_scaled_lemma_hypothesis_constant_is_bounded():
    # for u = sigma0 * bump the hypothesis holds with an eps-free constant
    u = gaussian_bump(1, 0.0, 1.5)
    rep = scaled_lemma_check(u, m=1, sigma0=1.0)
    # C_eps <= sum of derivative sups of the bump (rho, eps terms help)
    assert rep["fitted_C_eps"] <= u.sup + u.grad_sup + 1e-6


def test_run_experiment_deterministic(tmp_path):
    cfg = {"scenario": "supert-identity", "seed": 3,
           "params": {"probes": 3, "variants": ["directional"]}}
    r1 = run_experiment(cfg, str(tmp_path / "a"))
    r2 = run_experiment(cfg, str(tmp_path / "b"))
    h1 = hashlib.sha256((tmp_path / "a" / "supert.csv").read_bytes()).hexdigest()
    h2 = hashlib.sha256((tmp_path / "b" / "supert.csv").read_bytes()).hexdigest()
    assert h1 == h2
    assert r1["pass"]
    man = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert man["schema"] == "v1"
    assert man["config_hash"] == json.loads(
        (tmp_path / "b" / "manifest.json").read_text())["config_hash"]


def test_run_experiment_empty_bundle(tmp_path):
    rep = run_experiment({"scenario": "none"}, str(tmp_path / "e"))
    assert (tmp_path / "e" / "manifest.json").exists()
    assert (tmp_path / "e" / "report.json").exists()
    assert rep["verdicts"] == []


def test_run_experiment_schema_errors(tmp_path):
    with pytest.raises(ValueError, match="scenario"):
        run_experiment({}, str(tmp_path / "x"))
    with pytest.raises(ValueError, match="params"):
        run_experiment({"scenario": "solve", "params": 3},
                       str(tmp_path / "y"))
    with pytest.raises(ValueError, match="config.tol"):
        run_experiment({"scenario": "none", "tol": 1e-9},
                       str(tmp_path / "z"))


def _cli(args):
    return subprocess.run([sys.executable, "-m", "fracbern.cli"] + args,
                          capture_output=True, text=True)


def test_cli_exit_codes(tmp_path):
    spec = tmp_path / "k.json"
    spec.write_text(json.dumps({"family": "fractional", "n": 1, "s": 0.5}))
    assert _cli(["verify-kernels", str(spec)]).returncode == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"family": "nope", "n": 1, "s": 0.5}))
    assert _cli(["verify-kernels", str(bad)]).returncode == 3
    cfg = tmp_path / "solve.json"
    cfg.write_text(json.dumps({"scenario": "solve", "params": {"nodes": 65}}))
    out = tmp_path / "run"
    r = _cli(["--out", str(out), "solve", str(cfg)])
    assert r.returncode == 0
    assert _cli(["report", str(out)]).returncode == 0
    assert _cli(["report", str(tmp_path / "missing")]).returncode == 3
    # a failed threshold search is a hypothesis error
    probe = tmp_path / "probe.json"
    probe.write_text(json.dumps({"scenario": "open-problem-probe",
                                 "params": {"eps": 1e-9}}))
    r = _cli(["--out", str(tmp_path / "p"), "check-inequality", str(probe)])
    assert r.returncode == 3
    assert len(r.stderr.strip().splitlines()) == 1
    # no scenario reads a tolerance, so setting one is a config error
    tol = tmp_path / "tol.json"
    tol.write_text(json.dumps({"scenario": "inequality-check", "tol": 1e-12}))
    r = _cli(["--out", str(tmp_path / "t"), "check-inequality", str(tol)])
    assert r.returncode == 3 and "config.tol" in r.stderr
    r = _cli(["--tol", "1e-12", "--out", str(tmp_path / "t"),
              "check-inequality", str(tol)])
    assert r.returncode == 3 and "--tol" in r.stderr
    # only check-inequality reads a probe count
    r = _cli(["--probes", "8", "--out", str(tmp_path / "q"), "solve",
              str(cfg)])
    assert r.returncode == 3 and "--probes" in r.stderr
    # every scenario command records the seed it was given
    none = tmp_path / "none.json"
    none.write_text(json.dumps({"scenario": "none"}))
    _cli(["--seed", "5", "--out", str(tmp_path / "e"), "estimate", str(none)])
    manifest = json.loads((tmp_path / "e" / "manifest.json").read_text())
    assert manifest["seed"] == 5


def test_semiconcavity_refinement_driver():
    from fracbern.solvers import ObstacleProblem, solve_obstacle

    def solve_at(lvl):
        N = 64 * 2 ** lvl + 1
        lattice = Lattice(1, 2.0, N, 1.0)
        prob = ObstacleProblem(0.5, constant(0.3, 1),
                               gaussian_bump(1, 0.0, 0.4, -0.25),
                               constant(0.0, 1), 1.0)
        gf, contact, info = solve_obstacle(prob, lattice)
        return gf

    res = semiconcavity_refinement(solve_at, levels=3)
    assert len(res["sups"]) == 3
    assert res["stable"], res


def test_definite_order_theorem_needs_an_order():
    # a measure alone has no positive definite order: the R^s weights
    # of the definite-order bracket are refused, not raised on as None
    prob, gf, info = _solved_instance(
        N=65, ops=(MeasureOnUnit([(0.3, 0.5), (0.7, 0.5)]), 0.0))
    with pytest.raises(ValueError, match="definite-order"):
        measure_derivative_bounds(gf, prob, 1.0, theorem="definite-order")
    rep = measure_derivative_bounds(gf, prob, 1.0)
    assert np.isfinite(rep.fitted_C_first)
