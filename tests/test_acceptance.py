"""Acceptance criteria, one test per criterion, one pass/fail line each.

Everything here is property-based at desk scale (n in {1, 2}); the
printed line per criterion makes the suite's outcome readable from the
pytest -s output.
"""

import numpy as np
import pytest

from fracbern.kernels import (fractional_kernel, anisotropic_kernel,
                              custom_kernel, normalizing_constant,
                              MeasureOnUnit, EllipticMatrix)
from fracbern.funcspace import (gaussian_bump, polynomial_gaussian,
                                modulated_gaussian, plane_wave, tensor_product,
                                constant, make_cutoff, harmonic_polynomial)
from fracbern.nonlocal_ops import (apply_fractional, spectral_oracle,
                                   spectral_oracle_batch, Lattice,
                                   default_plan)
from fracbern.extension import extend, weighted_normal_derivative, \
    trace_constant
from fracbern.bernstein import (check_supert_identity, check_first_order_batch,
                                sigma_affinity, check_conto_traccia,
                                taper_moment, check_kernel_radial_identity,
                                check_downstairs_sharmonic,
                                check_incremental_classical,
                                doubling_bisection, _lenient)
from fracbern.solvers import (barrier_check, solve_linear_dirichlet,
                              BellmanProblem, solve_bellman, value_iteration,
                              ObstacleProblem, solve_obstacle, linearize,
                              max_principle_estimate, grid_second_difference,
                              unified_derivative_bound)
from fracbern.harness import (problem_constants, measure_derivative_bounds,
                              scaled_lemma_check, semiconcavity_refinement)


def _line(num, name, ok, detail=""):
    print("criterion %2d %-28s %s  %s" % (num, name,
                                          "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d (%s): %s" % (num, name, detail)


def _log_modulated(n, s):
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
                    + np.exp(q * T) * (q * np.sin(T) - np.cos(T)) / (q * q + 1))

    return custom_kernel(n, s, dens, C1=c / (s * (1 - s)),
                         C2=3 * c / (s * (1 - s)), C3=40.0,
                         radial_tail=rt, radial_moment2=rm2)


def test_criterion_01_oracle_agreement():
    """Quadrature vs spectral oracle over the catalog and order sweep."""
    cat_1d = [gaussian_bump(1, 0.0, 1.0),
              gaussian_bump(1, 0.7, 0.6),
              gaussian_bump(1, -0.4, 1.3, -0.8),
              polynomial_gaussian([0.0, 1.0]),
              polynomial_gaussian([1.0, 0.0, 0.5]),
              modulated_gaussian(0.3, 0.8, 3.0),
              modulated_gaussian(-0.5, 1.2, 1.5),
              plane_wave(2.0, 0.7)]
    cat_2d = [gaussian_bump(2, None, 1.2),
              gaussian_bump(2, [0.4, -0.3], 0.8),
              tensor_product(gaussian_bump(1, 0.0, 1.0),
                             polynomial_gaussian([0.0, 1.0])),
              tensor_product(modulated_gaussian(0.1, 0.9, 2.0),
                             gaussian_bump(1, 0.2, 1.1))]
    rng = np.random.default_rng(42)
    orders = np.round(np.arange(0.1, 0.91, 0.1), 2)
    worst1 = 0.0
    for u in cat_1d:
        xs = rng.uniform(-1.5, 1.5, 20)
        for s in orders:
            for x, b in zip(xs, spectral_oracle_batch(s, u, xs)):
                a = apply_fractional(s, u, x)
                worst1 = max(worst1, abs(a.value - b) / max(abs(b), 1e-9))
    worst2 = 0.0
    plan2 = default_plan(2)
    for u in cat_2d:
        xs = rng.uniform(-1.0, 1.0, size=(20, 2))
        for s in orders:
            for x, b in zip(xs, spectral_oracle_batch(s, u, xs)):
                a = apply_fractional(s, u, x, plan2)
                worst2 = max(worst2, abs(a.value - b) / max(abs(b), 1e-9))
    ok = worst1 <= 1e-5 and worst2 <= 1e-3
    _line(1, "oracle-agreement", ok,
          "max rel 1d %.2e (tol 1e-5), 2d %.2e (tol 1e-3)" % (worst1, worst2))


def test_criterion_02_trace_identity():
    """Weighted normal derivative over d_s against the oracle."""
    cat = [gaussian_bump(1, 0.0, 1.0), modulated_gaussian(0.2, 1.1, 1.0),
           polynomial_gaussian([1.0, 0.3]), plane_wave(1.0)]
    worst = 0.0
    for s in [0.25, 0.5, 0.75]:
        ds, spread = trace_constant(s)
        for u in cat:
            E = extend(u, s)
            for x in [-0.6, 0.0, 0.45]:
                den = spectral_oracle(s, u, x)
                if abs(den) < 5e-2:
                    continue
                num = weighted_normal_derivative(E, x) / ds
                worst = max(worst, abs(num - den) / abs(den))
    # closed-form extension of the unit wave at s = 1/2
    E = extend(plane_wave(1.0), 0.5)
    xs = np.linspace(0, 3, 6)
    ys = np.linspace(0.05, 3, 6)
    X, Y = np.meshgrid(xs, ys)
    gap = np.max(np.abs(E.value(X.ravel(), Y.ravel())
                        - np.exp(-Y.ravel()) * np.cos(X.ravel())))
    ok = worst <= 1e-3 and gap <= 1e-6
    _line(2, "trace-identity", ok,
          "ratio err %.2e (tol 1e-3), closed form %.2e (tol 1e-6)"
          % (worst, gap))


def test_criterion_03_identity_law():
    """|D1 - D2| inside the error budget: variants x kernels x probes."""
    kernels = [fractional_kernel(1, 0.5),
               anisotropic_kernel(0.5, np.array([[1.3]])),
               _log_modulated(1, 0.5)]
    u = gaussian_bump(1, 0.0, 1.0) + gaussian_bump(1, 0.8, 0.6, -0.5)
    eta = make_cutoff(0.25, 0.5, n=1)
    rng = np.random.default_rng(7)
    probes = rng.uniform(-1.2, 1.2, 20)
    failures = 0
    worst_ratio = 0.0
    for K in kernels:
        for variant in ["directional", "positive-part", "gradient",
                        "incremental"]:
            for x in probes[:20]:
                r = check_supert_identity(K, u, eta, 1.5, variant, x, h=0.1)
                ratio = r["residual"] / max(r["error_budget"], 1e-300)
                worst_ratio = max(worst_ratio, ratio)
                if r["residual"] > r["error_budget"]:
                    failures += 1
    ok = failures == 0
    _line(3, "identity-law", ok,
          "failures %d / 240, worst resid/budget %.3f" % (failures, worst_ratio))


def test_criterion_04_key_inequality():
    """Finite weight threshold, verified at 1, 2, 4 times, affine law."""
    pairs = [(gaussian_bump(1, 0.0, 1.0), make_cutoff(0.25, 0.5, n=1)),
             (gaussian_bump(1, 0.3, 0.8) + gaussian_bump(1, -0.5, 1.1, -0.6),
              make_cutoff(0.25, 0.5, n=1)),
             (modulated_gaussian(0.0, 1.2, 1.5), make_cutoff(0.2, 0.45, n=1)),
             (polynomial_gaussian([1.0, 0.5, -0.3]),
              make_cutoff(0.3, 0.6, n=1)),
             (plane_wave(1.0), make_cutoff(0.25, 0.5, n=1))]
    e = np.array([1.0])
    rng = np.random.default_rng(11)
    probes = np.sort(rng.uniform(-1.2, 1.2, 1000)).reshape(-1, 1)
    ok = True
    detail = []
    for i, (u, eta) in enumerate(pairs):
        for s in [0.25, 0.5, 0.75, 0.95]:
            A, S, errA, errS = check_first_order_batch(u, eta, e, s, probes)
            try:
                sigma0 = doubling_bisection(
                    lambda sg: np.all(A + sg * S <= errA + sg * errS))
            except Exception as exc:
                ok = False
                detail.append("pair %d s %.2f: %s" % (i, s, exc))
                continue
            for mult in (1.0, 2.0, 4.0):
                sg = max(sigma0, 1e-6) * mult
                resid = A + sg * S
                if not np.all(resid <= errA + sg * errS + 1e-12):
                    ok = False
                    detail.append("pair %d s %.2f mult %g" % (i, s, mult))
    # affine residual law with full quadrature at a sampled configuration
    u, eta = pairs[1]
    res, coll, slope_fit, slope_direct = sigma_affinity(
        u, eta, e, 0.5, 0.3, (2.0, 4.0, 8.0))
    law_ok = coll <= 1e-8 and slope_direct <= 0 \
        and abs(slope_fit - slope_direct) <= 1e-4 * abs(slope_direct)
    ok = ok and law_ok
    _line(4, "key-inequality", ok,
          "collinearity %.1e, slope gap %.1e %s"
          % (coll, abs(slope_fit - slope_direct), "; ".join(detail[:3])))


def test_criterion_05_remainder_inequality():
    """Taper selection and certified weight for three general kernels."""
    kernels = [fractional_kernel(1, 0.5),
               anisotropic_kernel(0.45, np.array([[1.25]])),
               _log_modulated(1, 0.5)]
    u = gaussian_bump(1, 0.0, 1.0) + gaussian_bump(1, 0.8, 0.6, -0.5)
    eta = make_cutoff(0.5, 1.0, n=1)
    ok = True
    details = []
    for K in kernels:
        sweep = [taper_moment(K, d) for d in 0.5 ** np.arange(1, 7)]
        decreasing = all(a > b for a, b in zip(sweep, sweep[1:]))
        ok = ok and decreasing
        for eps in [0.1, 0.05]:
            sel, rep = check_conto_traccia(K, u, eta, eps)
            ok = ok and rep.verdict and abs(sel.J3) <= eps * eps
            details.append("%s eps=%g: delta=%g sigma=%.3g eps0=%.2f"
                           % (K.family, eps, sel.delta, sel.sigma_eps,
                              rep.params["eps0_hold_fraction"]))
    _line(5, "remainder-inequality", ok, " | ".join(details[:2]))


def test_criterion_06_barriers():
    """Positive margins with the declared radius scaling."""
    ok = True
    details = []
    for op, tag in [(fractional_kernel(1, 0.5), "s=0.5"),
                    (fractional_kernel(1, 0.25), "s=0.25"),
                    (anisotropic_kernel(0.6, np.array([[1.4]])), "aniso"),
                    (_log_modulated(1, 0.5), "custom")]:
        rep = barrier_check(op, R=1.0)
        ok = ok and rep["margin"] > 0 and rep["scaling_stable"]
        details.append("%s margin %.3g" % (tag, rep["margin"]))
    for mu, tag in [(MeasureOnUnit([(0.6, 0.4), (0.65, 0.6)]), "mix"),
                    (MeasureOnUnit.dirac(0.62), "atom")]:
        rep = barrier_check(mu, R=1.0)
        ok = ok and rep["margin"] > 0 and rep["scaling_stable"]
        details.append("%s margin %.3g" % (tag, rep["margin"]))
    _line(6, "barriers", ok, "; ".join(details))


def test_criterion_07_max_principle_estimate():
    """Exact zero-defect case and the fitted constant's radius power."""
    from fracbern.solvers import barrier
    rng = np.random.default_rng(23)
    ops = [fractional_kernel(1, 0.5), fractional_kernel(1, 0.7)]
    violations = 0
    for _ in range(10):
        a, b = rng.uniform(0.5, 3.0, 2)
        phi = barrier(1.0, 1) * b + (a + 2 * b)
        rep = max_principle_estimate(ops, phi, 1.0)
        if not rep["pass"] or rep["gamma0"] != 0.0:
            violations += 1
    stable = {}
    s = 0.6
    for fam, mem in [("kernel", [fractional_kernel(1, s)]),
                     ("measure", [MeasureOnUnit([(0.6, 0.4), (0.65, 0.6)])])]:
        fitted = []
        for R in [0.5, 1.0, 2.0, 4.0]:
            phi = gaussian_bump(1, 0.0, R / 3.0)
            rep = max_principle_estimate(mem, phi, R)
            power = R ** (2 * s) if fam == "kernel" else 1 + R ** 2
            fitted.append(rep["fitted_C"] / power)
        fitted = np.asarray(fitted)
        center = 0.5 * (fitted.max() + fitted.min())
        stable[fam] = bool(fitted.max() <= 1.5 * center
                           and fitted.min() >= 0.5 * center)
    ok = violations == 0 and all(stable.values())
    _line(7, "max-principle-estimate", ok,
          "violations %d/10, scaling %s" % (violations, stable))


def _bellman_instance(lattice, seed=0, s2=0.7):
    rng = np.random.default_rng(seed)
    K1 = fractional_kernel(1, 0.5)
    K2 = fractional_kernel(1, s2)
    g2 = gaussian_bump(1, rng.uniform(-0.4, 0.0), 0.45, -0.35)
    f = gaussian_bump(1, rng.uniform(0.0, 0.3), 0.5, 0.4)
    ext = gaussian_bump(1, 0.0, 1.5, 0.3)
    return BellmanProblem([(K1, constant(0.0, 1)), (K2, g2)], f, ext, 1.0)


def test_criterion_08_solvers():
    """Solver identities: linearity, oracle match, complementarity,
    the negative-part bound, and the comparison principle."""
    lattice = Lattice(1, 2.0, 129, 1.0)
    K = fractional_kernel(1, 0.5)
    f = gaussian_bump(1, 0.0, 0.5, 0.4)
    ext = gaussian_bump(1, 0.0, 1.5, 0.3)
    prob1 = BellmanProblem([(K, constant(0.0, 1))], f, ext, 1.0)
    gf1, _, _ = solve_bellman(prob1, lattice)
    lin, _ = solve_linear_dirichlet(K, f, ext, lattice)
    gap_single = float(np.max(np.abs(gf1.values - lin.values)))

    prob2 = _bellman_instance(lattice)
    gf2, policy, info2 = solve_bellman(prob2, lattice)
    u_vi, iters = value_iteration(prob2, lattice, tol=1e-11)
    gap_vi = float(np.max(np.abs(gf2.values[lattice.interior] - u_vi)))

    comp_worst = 0.0
    neg_ok = True
    for seed in range(3):
        rng = np.random.default_rng(seed + 100)
        prob = ObstacleProblem(
            0.5, constant(rng.uniform(0.2, 0.4), 1),
            gaussian_bump(1, rng.uniform(-0.2, 0.2), 0.4, -0.25),
            constant(0.0, 1), 1.0)
        gfo, contact, oinfo = solve_obstacle(prob, lattice)
        comp_worst = max(comp_worst, oinfo["complementarity"])
        nodes = lattice.nodes[lattice.interior]
        neg = np.max(np.maximum(-(prob.f(nodes) + prob.g(nodes)), 0.0))
        neg_ok = neg_ok and neg <= np.max(np.abs(gfo.values[lattice.interior])) + 1e-9

    # comparison principle under this package's operator sign (the
    # positive-definite form): the solution is monotone increasing in
    # both the source and the exterior data
    comparison_ok = True
    rng = np.random.default_rng(31)
    for _ in range(10):
        w = rng.uniform(0.4, 1.0)
        ext1 = gaussian_bump(1, rng.uniform(-0.4, 0.4), w, 0.3)
        ext2 = ext1 + rng.uniform(0.05, 0.3)
        f1 = gaussian_bump(1, rng.uniform(-0.4, 0.4), 0.6, 0.2)
        f2 = f1 + rng.uniform(0.05, 0.2)
        u1, _ = solve_linear_dirichlet(K, f1, ext1, lattice)
        u2, _ = solve_linear_dirichlet(K, f2, ext2, lattice)
        comparison_ok = comparison_ok and bool(
            np.all(u1.values <= u2.values + 1e-10))

    ok = (gap_single <= 1e-10 and gap_vi <= 1e-7 and comp_worst <= 1e-8
          and neg_ok and comparison_ok)
    _line(8, "solvers", ok,
          "single %.1e, value-iter %.1e (%d it), compl %.1e, comparison %s"
          % (gap_single, gap_vi, iters, comp_worst, comparison_ok))


def test_criterion_09_semiconcavity():
    """Stabilization under refinement and fitted-constant spread."""
    def obstacle_at(seed):
        rng = np.random.default_rng(seed)
        return ObstacleProblem(
            0.5,
            gaussian_bump(1, rng.uniform(-0.1, 0.1), 0.7,
                          rng.uniform(0.3, 0.42)),
            gaussian_bump(1, rng.uniform(-0.1, 0.1), 0.45,
                          rng.uniform(-0.28, -0.22)),
            constant(0.0, 1), 1.0)

    all_stable = True
    fits = []
    for seed in range(5):
        prob = obstacle_at(seed)

        def solve_at(lvl, prob=prob):
            N = 64 * 2 ** lvl + 1
            lattice = Lattice(1, 2.0, N, 1.0)
            gf, contact, info = solve_obstacle(prob, lattice)
            return gf

        res = semiconcavity_refinement(solve_at, levels=3)
        all_stable = all_stable and res["stable"]
        lattice = Lattice(1, 2.0, 257, 1.0)
        gf, contact, info = solve_obstacle(prob, lattice)
        bprob = prob.as_bellman()
        bprob.f, bprob.members = prob.f, [(prob.s, constant(0.0, 1)),
                                          (0.0, prob.g)]
        rep = measure_derivative_bounds(gf, bprob, 1.0, theorem="obstacle")
        fits.append(max(rep.fitted_C_second, 1e-6))
    fits = np.asarray(fits)
    spread_obstacle = fits.max() / fits.min()

    sfits = []
    for s2 in [0.6, 0.8, 0.95]:
        lattice = Lattice(1, 2.0, 257, 1.0)
        members = [(anisotropic_kernel(s2, np.array([[1.0]])),
                    constant(0.0, 1)),
                   (anisotropic_kernel(s2, np.array([[1.3]])),
                    gaussian_bump(1, -0.2, 0.6, -0.3))]
        f = gaussian_bump(1, 0.1, 0.6, 0.35)
        ext = gaussian_bump(1, 0.0, 1.4, 0.3)
        prob = BellmanProblem(members, f, ext, 1.0)
        gf, policy, info = solve_bellman(prob, lattice)
        rep = measure_derivative_bounds(gf, prob, 1.0,
                                        theorem="definite-order")
        sfits.append(max(rep.fitted_C_second, 1e-9))
    sfits = np.asarray(sfits)
    spread_s = sfits.max() / max(sfits.min(), 1e-12)
    ok = all_stable and spread_obstacle <= 4.0 and spread_s <= 4.0
    _line(9, "semiconcavity", ok,
          "stable %s, obstacle spread %.2f (<=4), s-sweep spread %.2f (<=4)"
          % (all_stable, spread_obstacle, spread_s))


def test_criterion_10_linearized_operator():
    """Subsolution and derivative bounds for the frozen linearization."""
    ok = True
    worst = []
    for seed in range(5):
        lattice = Lattice(1, 2.0, 257, 1.0)
        prob = _bellman_instance(lattice, seed=seed, s2=0.6 + 0.07 * seed)
        gf, policy, info = solve_bellman(prob, lattice)
        L, rep = linearize(prob, gf, info)
        ok = ok and rep["subsolution_ok"] and rep["grad_bound_ok"] \
            and rep["second_bound_ok"]
        worst.append(round(rep["grad_bound_worst"], 4))
    _line(10, "linearized-operator", ok, "grad-bound worst %s" % worst)


def test_criterion_11_radial_identity_and_downstairs():
    """Exact power-kernel identity; identity route at annihilated points."""
    resid_frac = max(check_kernel_radial_identity(s, fd=False)
                     for s in [0.25, 0.5, 0.75])
    KA = anisotropic_kernel(0.5, np.array([[1.6, 0.2], [0.2, 0.8]]))
    resid_aniso = check_kernel_radial_identity(0.5, n=2, kernel=KA, fd=False)

    sigmas = []
    ok_down = True
    for seed in range(3):
        rng = np.random.default_rng(seed + 5)
        amp = rng.uniform(0.7, 1.3)
        ext = gaussian_bump(1, 1.6, 0.3, amp) \
            + gaussian_bump(1, -1.6, 0.3, -amp)
        lattice = Lattice(1, 2.0, 257, 1.0)
        gf, _ = solve_linear_dirichlet(0.5, constant(0.0, 1), ext, lattice)
        rep = check_downstairs_sharmonic(gf.promote(), 0.5)
        ok_down = ok_down and rep["pass"] and np.isfinite(rep["sigma0"])
        sigmas.append(round(rep["sigma0"], 3))
    ok = resid_frac <= 1e-10 and resid_aniso > 1e-2 and ok_down
    _line(11, "radial-identity+downstairs", ok,
          "frac resid %.1e, aniso resid %.2f, sigma0 %s"
          % (resid_frac, resid_aniso, sigmas))


def test_criterion_12_incremental_classical():
    """No violations across the step sweep at one uniform weight."""
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.49, 0.49, size=(1600, 2))
    probes = pts[np.linalg.norm(pts, axis=1) < 0.49][:200]
    eta = make_cutoff(0.25, 0.45, n=2)
    e = np.array([1.0, 0.0])
    hs = [0.4, 0.2, 0.1, 0.05]
    ok = True
    sig_ratio = []
    for kind in ["re_z2", "im_z2", "re_z3"]:
        u = harmonic_polynomial(2, kind)
        sigma_star = max(check_incremental_classical(u, eta, h, e, probes)[0]
                         for h in hs)
        sig_ratio.append(round(sigma_star / eta.c2_norm ** 2, 4))
        for h in hs:
            _, rep = check_incremental_classical(u, eta, h, e, probes,
                                                 sigma=sigma_star)
            ok = ok and rep.verdict
    _line(12, "incremental-classical", ok,
          "sigma / ||eta||_C2^2 = %s (one value per function, all h)"
          % sig_ratio)


def test_criterion_13_scaled_lemma_and_pipeline():
    """Dyadic absorption lemma and the end-to-end reabsorption run."""
    ok = True
    details = []
    for m in [0, 1]:
        u = gaussian_bump(1, 0.0, 1.5, 0.7)
        rep = scaled_lemma_check(u, m=m, sigma0=0.7)
        ok = ok and rep["pass"]
        details.append("m=%d C=%.3g" % (m, rep["C_conclusion"]))

    # end-to-end: solved instance -> scaled first-derivative data ->
    # absorption with the proof's epsilon -> finite fitted constant
    lattice = Lattice(1, 10.0, 513, 5.0)
    prob = _bellman_instance_large(lattice)
    gf, policy, info = solve_bellman(prob, lattice)
    c = problem_constants(prob, R=5.0, want_second=False)
    nodes = lattice.nodes[lattice.interior]
    u_sup_all = max(float(np.max(np.abs(gf.values))), prob.exterior.sup)
    fg = float(np.max(np.maximum(-(prob.f(nodes) + c.g_composite(nodes)), 0.0)))
    sigma0 = u_sup_all + c.gamma1 + np.sqrt(fg * u_sup_all)
    prom = gf.promote()
    rep = scaled_lemma_check(prom, m=1, sigma0=sigma0, interior_radius=2.0)
    ok = ok and rep["pass"] and np.isfinite(rep["fitted_C_eps"])
    details.append("pipeline C_eps=%.3g" % rep["fitted_C_eps"])
    _line(13, "scaled-lemma+pipeline", ok, "; ".join(details))


def _bellman_instance_large(lattice):
    K1 = fractional_kernel(1, 0.5)
    K2 = fractional_kernel(1, 0.7)
    g2 = gaussian_bump(1, -0.5, 0.8, -0.3)
    f = gaussian_bump(1, 0.4, 0.9, 0.35)
    ext = gaussian_bump(1, 0.0, 2.2, 0.3)
    return BellmanProblem([(K1, constant(0.0, 1)), (K2, g2)], f, ext, 5.0)
