"""Operator evaluation, the spectral oracle, and discrete assembly."""

import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import gamma

from fracbern.kernels import (fractional_kernel, anisotropic_kernel,
                              MeasureOnUnit, normalizing_constant,
                              sphere_directions)
from fracbern.funcspace import (gaussian_bump, plane_wave, modulated_gaussian,
                                polynomial_gaussian, constant, tensor_product,
                                affine_precompose, translate, make_cutoff,
                                directional_derivative, positive_part_square,
                                averaged_square, SmoothFunction, Tail)
from fracbern._quad import (geometric_edges, geometric_panels, half_sphere,
                           jacobi_rule, panel_nodes, periodic_tail_1d,
                           radial_rule)
from fracbern.nonlocal_ops import (apply_nonlocal, apply_fractional,
                                   apply_batch,
                                   spectral_oracle, spectral_oracle_batch,
                                   singular_integral, singular_integral_batch,
                                   assemble_discrete, Lattice, default_plan,
                                   QuadratureFailure, OperatorValue,
                                   _far_data_integral, _oracle_nodes,
                                   _stencil, _tail, _both_signs, _PLANS,
                                   N_ANGULAR)
from fracbern import nonlocal_ops
from fracbern.solvers import (barrier, _quotient_closure, BellmanProblem,
                              ObstacleProblem, solve_bellman, solve_obstacle)


def test_constant_maps_to_zero():
    u = constant(7.0, 1)
    for s in [0.2, 0.8]:
        assert apply_fractional(s, u, 0.4).value == pytest.approx(0.0, abs=1e-12)


def test_cos_symbol_value():
    # (-Delta)^{1/2} cos = cos, symbol |1|^{2s} = 1
    u = plane_wave(1.0)
    for x in [0.0, 0.7, -2.2]:
        v = apply_fractional(0.5, u, x)
        assert v.value == pytest.approx(np.cos(x), rel=1e-6)


def test_barrier_strictly_negative():
    # the explicit barrier is a strict supersolution on the unit ball
    b = barrier(1.0, 1)
    v = apply_fractional(0.5, b, 0.0)
    assert v.value < -1.0


def test_identity_and_laplacian_endpoints():
    g = gaussian_bump(1, 0.0, 1.0)
    assert apply_fractional(0.0, g, 0.3).value == pytest.approx(
        float(g(np.array([[0.3]]))[0]))
    # -(d^2/dx^2) e^{-x^2/2} at 0 is +1
    assert apply_fractional(1.0, g, 0.0).value == pytest.approx(1.0)


def test_gaussian_closed_form_center():
    # (-Delta)^s e^{-x^2/2}(0) = 2^s Gamma(s + 1/2) / sqrt(pi)
    g = gaussian_bump(1, 0.0, 1.0)
    for s in [0.25, 0.5, 0.75]:
        want = 2 ** s * gamma(s + 0.5) / np.sqrt(np.pi)
        assert apply_fractional(s, g, 0.0).value == pytest.approx(want, rel=1e-9)
        assert spectral_oracle(s, g, 0.0) == pytest.approx(want, rel=1e-10)


def test_sweep_to_classical_order():
    # frequency-2 wave has symbol 2^{2s} -> 4 with O(1-s) drift
    u = plane_wave(2.0)
    x = 0.3
    drift = []
    for s in [0.9, 0.95, 0.99]:
        v = apply_fractional(s, u, x)
        assert v.value == pytest.approx(2 ** (2 * s) * np.cos(2 * x), rel=1e-7)
        drift.append(abs(v.value - 4 * np.cos(2 * x)))
    assert drift[0] > drift[1] > drift[2]
    # frequency-1 wave is a fixed point of every order
    c = plane_wave(1.0)
    for s in [0.9, 0.99]:
        assert apply_fractional(s, c, x).value == pytest.approx(np.cos(x),
                                                                rel=1e-7)


def test_superposition_atoms():
    g = gaussian_bump(1, 0.0, 1.0)
    mu = MeasureOnUnit.dirac(0.5)
    (a,), _ = apply_batch(mu, g, np.array([[0.3]]))
    b = apply_fractional(0.5, g, 0.3)
    assert a == pytest.approx(b.value, rel=1e-12)
    # half identity, half Laplacian on cos at 0: 1/2 + 1/2 = 1
    mu2 = MeasureOnUnit([(0.0, 0.5), (1.0, 0.5)])
    c = plane_wave(1.0)
    assert apply_batch(mu2, c, np.array([[0.0]]))[0][0] == pytest.approx(1.0)


def test_superposition_identity_on_barrier():
    mu = MeasureOnUnit.dirac(0.0)
    b = barrier(1.0, 1)
    pts = np.linspace(-0.9, 0.9, 7)
    for x in pts:
        (v,), _ = apply_batch(mu, b, np.array([[x]]))
        assert v <= -1.0 + 1e-12
        assert v == pytest.approx(x * x - 2.0)


def test_oracle_exact_symbols():
    assert spectral_oracle(0.5, plane_wave(1.0), 0.4) == pytest.approx(
        np.cos(0.4), rel=1e-14)
    for s in [0.2, 0.7]:
        want = 2 ** (2 * s) * np.cos(2 * 0.4)
        assert spectral_oracle(s, plane_wave(2.0), 0.4) == pytest.approx(
            want, rel=1e-14)


def test_oracle_unsupported():
    from fracbern.funcspace import SmoothFunction, Tail
    mystery = SmoothFunction(1, lambda x: np.tanh(x[:, 0]),
                             lambda x: np.ones((len(x), 1)),
                             lambda x: np.zeros((len(x), 1, 1)),
                             sup=1.0, tail=Tail.bounded(1.0))
    with pytest.raises(ValueError):
        spectral_oracle(0.5, mystery, 0.0)


def test_oracle_quadrature_agreement_catalog():
    cat = [gaussian_bump(1, 0.0, 1.0), gaussian_bump(1, 0.7, 0.6),
           polynomial_gaussian([0.0, 1.0]), modulated_gaussian(0.3, 0.8, 3.0)]
    rng = np.random.default_rng(0)
    xs = rng.uniform(-1.5, 1.5, 6)
    worst = 0.0
    for u in cat:
        for s in [0.15, 0.5, 0.85]:
            for x in xs:
                a = apply_fractional(s, u, x)
                b = spectral_oracle(s, u, x)
                worst = max(worst, abs(a.value - b) / max(abs(b), 1e-10))
    assert worst < 1e-7


# -- the adaptive angular rule against the fixed rule it replaced ---------------

def _fixed_rule_oracle(s, u, xs, dirs=96):
    """The 2d oracle at the probe rows of xs with one trapezoid rule of
    dirs directions at every radial node, complex phases and the full
    circle: the reference for the adaptive angular rule."""
    Xi = u.fourier_radius

    def eval_with(ppd, order):
        t, wt = panel_nodes(geometric_edges(Xi * 1e-12, Xi, ppd), order)
        xi = (t[:, None, None] * sphere_directions(2, dirs)).reshape(-1, 2)
        ft = u.fourier(xi)
        out = []
        for x in xs:
            vals = np.real(ft * np.exp(1j * (xi @ x)))
            vals = vals.reshape(t.size, dirs).sum(axis=1) * (2 * np.pi / dirs)
            out.append(np.dot(wt * t ** (1 + 2 * s), vals) / (2 * np.pi) ** 2)
        return np.array(out)

    fine, coarse = eval_with(8, 24), eval_with(5, 12)
    redo = np.abs(fine - coarse) > 1e-9 * np.maximum(np.abs(fine), 1e-14)
    return np.where(redo, eval_with(12, 32) if redo.any() else fine, fine)


ORACLE_2D = {
    "bump": gaussian_bump(2, None, 1.2),
    "bump-off": gaussian_bump(2, [0.4, -0.3], 0.8),
    "tensor-odd": tensor_product(gaussian_bump(1, 0.0, 1.0),
                                 polynomial_gaussian([0.0, 1.0])),
    "tensor-mod": tensor_product(modulated_gaussian(0.1, 0.9, 2.0),
                                 gaussian_bump(1, 0.2, 1.1)),
    "narrow": gaussian_bump(2, [1.5, -1.0], 0.3),
    "narrow-mod": tensor_product(modulated_gaussian(0.1, 0.6, 4.0),
                                 gaussian_bump(1, 0.2, 0.5)),
}


@pytest.mark.parametrize("name", list(ORACLE_2D))
def test_oracle_matches_fixed_rule(name):
    # the criterion-01 2d catalog and two narrow functions, whose angular
    # bandwidth reaches the 96 directions of the fixed rule
    u = ORACLE_2D[name]
    xs = np.random.default_rng(11).uniform(-1.0, 1.0, size=(5, 2))
    for s in np.round(np.arange(0.1, 0.91, 0.1), 2):
        for x, ref in zip(xs, _fixed_rule_oracle(s, u, xs)):
            assert abs(spectral_oracle(s, u, x) - ref) \
                <= 1e-11 * max(abs(ref), 1e-9)


def test_oracle_doubles_past_96_directions():
    # 3.9 away from a width-0.3 bump the angular integrand needs more
    # than 96 directions: the fixed rule is off there, the adaptive one
    # matches the fixed rule at 384
    u = ORACLE_2D["narrow"]
    x = np.array([-1.5, 1.5])
    for s in (0.3, 0.5, 0.8):
        ref = _fixed_rule_oracle(s, u, [x], dirs=384)[0]
        assert abs(_fixed_rule_oracle(s, u, [x])[0] - ref) > 1e-8 * abs(ref)
        assert abs(spectral_oracle(s, u, x) - ref) <= 1e-11 * abs(ref)
    # at the 384-direction cap the last doubling gap stays in the error,
    # so the call raises rather than return a value it cannot certify
    # (at s = 0.3 the fine and finer radial rules agree to 1e-8 relative)
    far = gaussian_bump(2, [4.0, 0.0], 0.1)
    for s in (0.3, 0.5):
        with pytest.raises(QuadratureFailure) as exc:
            spectral_oracle(s, far, [0.0, 0.0])
        assert exc.value.partial.error > 1e-8 * abs(exc.value.partial.value)


def test_oracle_zero_value_converges():
    # odd in the second coordinate, so 0 on the first axis: the error
    # floor is the round-off of the sum, not a fixed absolute number
    u = ORACLE_2D["tensor-odd"]
    for s in (0.3, 0.5, 0.8):
        assert abs(spectral_oracle(s, u, [0.3, 0.0])) < 1e-15


@pytest.mark.parametrize("u", [
    ORACLE_2D["bump"], ORACLE_2D["narrow-mod"],
    tensor_product(gaussian_bump(1, 1.5, 0.3), gaussian_bump(1, -1.0, 0.3)),
    gaussian_bump(1, 0.7, 0.6), modulated_gaussian(0.3, 0.8, 3.0),
    plane_wave(2.0, 0.7)],
    ids=["bump", "narrow-mod", "narrow", "bump1", "modulated", "wave"])
def test_oracle_batch_equals_scalar_loop(u):
    # each probe keeps its own angular levels and rules inside a batch,
    # and these transforms are elementwise (no multi-term matrix
    # products), so the batch repeats the scalar arithmetic exactly
    xs = np.random.default_rng(4).uniform(-1.5, 1.5, size=(12, u.n))
    for s in (0.0, 0.3, 0.8):
        loop = [spectral_oracle(s, u, x) for x in xs]
        np.testing.assert_array_equal(spectral_oracle_batch(s, u, xs), loop)


def test_oracle_fourier_points_per_call():
    # at most a third of the 96 x (2304 + 720) points of the fixed rule
    u = gaussian_bump(2, None, 1.2)
    transform, count = u.fourier, []
    u.fourier = lambda xi: count.append(len(xi)) or transform(xi)
    for s, x in ((0.1, [0.9, 0.0]), (0.5, [-0.7, 0.6]), (0.9, [0.2, -1.0])):
        count.clear()
        spectral_oracle(s, u, x)
        assert sum(count) <= 290304 // 3


def test_linearity_within_errors():
    u = gaussian_bump(1, 0.0, 1.0)
    v = modulated_gaussian(0.4, 0.9, 2.0)
    w = u * 2.0 + v * (-0.7)
    x = 0.3
    a = apply_fractional(0.6, w, x)
    b = apply_fractional(0.6, u, x)
    c = apply_fractional(0.6, v, x)
    assert abs(a.value - (2 * b.value - 0.7 * c.value)) \
        <= a.error + 2 * b.error + 0.7 * c.error + 1e-10


def test_translation_covariance():
    u = gaussian_bump(1, 0.2, 0.8)
    a = np.array([0.45])
    x = 0.1
    lhs = apply_fractional(0.4, translate(u, a), x)
    rhs = apply_fractional(0.4, u, x + a[0])
    assert lhs.value == pytest.approx(rhs.value, rel=1e-9)


def test_anisotropic_change_of_variables():
    # L_A u(x) * det A = (-Delta)^s u_A(A x) with u_A = u o A^{-1}
    A = np.array([[1.4, 0.3], [0.3, 0.8]])
    s = 0.5
    K = anisotropic_kernel(s, A)
    u = gaussian_bump(2, [0.1, -0.2], 1.0)
    uA = affine_precompose(u, np.linalg.inv(A))
    x = np.array([0.2, 0.3])
    lhs = apply_nonlocal(K, u, x).value * np.linalg.det(A)
    rhs = apply_fractional(s, uA, A @ x).value
    assert lhs == pytest.approx(rhs, rel=1e-4)


def test_order_continuity_sweep():
    g = gaussian_bump(1, 0.0, 1.0)
    x = 0.6
    ss = np.linspace(0.05, 0.995, 24)
    vals = [apply_fractional(s, g, x).value for s in ss]
    vals = np.array([apply_fractional(0.0, g, x).value] + vals
                    + [apply_fractional(1.0, g, x).value])
    assert np.max(np.abs(np.diff(vals))) < 0.25  # no blow-up toward s = 1


def test_geometric_panels_equal_geometric_edges_per_row():
    # the extension's side panels: [4y, T], T = max(24, 8y, 2|x|)
    rng = np.random.default_rng(0)
    y = np.append(rng.uniform(1e-3, 2.0, 200), [0.6, 0.06, 1e-3, 2.0])
    x = np.append(rng.uniform(-30.0, 30.0, 200), [0.0, 0.0, 15.0, -12.1])
    T = np.maximum(np.maximum(24.0, 8.0 * y), 2.0 * np.abs(x))
    n, left, right = geometric_panels(4.0 * y, T, 6)
    first = np.append(0, np.cumsum(n))
    for i in range(y.size):
        edges = geometric_edges(4.0 * y[i], T[i], 6)
        assert np.array_equal(left[first[i]:first[i + 1]], edges[:-1])
        assert np.array_equal(right[first[i]:first[i + 1]], edges[1:])


def test_periodic_tail_per_row_starts_equal_scalar_calls():
    # rows differ in start, kernel constant and phase of the periodic g
    s, period = 0.3, 2 * np.pi
    starts = np.array([24.0, 30.0, 24.0 + 48.0 * np.pi])
    c = np.array([1.0, 0.5, 2.0])
    phase = np.array([0.0, 0.4, -1.3])

    def tail(start, c, phase):
        return periodic_tail_1d(
            lambda t: np.cos(t + phase), period, start,
            lambda t: c * np.abs(t) ** (-1 - 2 * s),
            lambda a: c * a ** (-2 * s) / (2 * s))

    val, err = tail(starts, c[:, None], phase[:, None])
    each = [tail(*row) for row in zip(starts, c, phase)]
    assert np.array_equal(val, [v for v, _ in each])
    assert np.array_equal(err, [e for _, e in each])


def test_quadrature_failure_carries_partial():
    u = gaussian_bump(1, 0.0, 1.0)
    plan = default_plan(1).scaled(rel_tol=1e-30, max_refine=0,
                                  order=4, panels_per_decade=1)
    with pytest.raises(QuadratureFailure) as exc:
        singular_integral(fractional_kernel(1, 0.5), u, 0.3, plan)
    assert np.isfinite(exc.value.partial.value)


def test_batch_matches_scalar():
    u = gaussian_bump(1, 0.0, 1.0) + gaussian_bump(1, 0.5, 0.7, -0.4)
    K = fractional_kernel(1, 0.6)
    xs = np.linspace(-1.0, 1.0, 9).reshape(-1, 1)
    vals, errs = singular_integral_batch(K, u, xs)
    for i, x in enumerate(xs):
        ref = singular_integral(K, u, x)
        assert vals[i] == pytest.approx(ref.value, abs=5 * errs[i] + 1e-12)


@pytest.mark.parametrize("s", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("u", [gaussian_bump(1, 0.3, 0.8),
                               polynomial_gaussian([1.0, -0.5, 0.25]),
                               modulated_gaussian(0.2, 1.1, 2.0),
                               plane_wave(1.5, 0.4)],
                         ids=["bump", "polygauss", "modulated", "wave"])
def test_batch_errors_cover_oracle(u, s):
    # every probe's own error covers its gap to the symbol calculus
    xs = np.linspace(-2.0, 2.0, 32).reshape(-1, 1)
    vals, errs = singular_integral_batch(fractional_kernel(1, s), u, xs)
    for v, e, x in zip(vals, errs, xs):
        ref = spectral_oracle(s, u, x)
        # the batch integral is -(-Delta)^s u
        assert abs(-v - ref) <= e + 1e-10 * abs(ref)


def test_batch_matches_scalar_refined_composite():
    # a smooth composite whose probes reach past the scalar's outer
    # radius, so the batch integrates every probe out to a larger R
    u = gaussian_bump(1, 0.0, 1.0) + gaussian_bump(1, 0.8, 0.6, -0.5)
    eta = make_cutoff(0.25, 0.5, n=1)
    du = directional_derivative(u, np.array([1.0]))
    G = (eta * eta) * (du * du) + u * u * 3.0
    K = fractional_kernel(1, 0.5)
    plan = default_plan(1).scaled(strict=False, max_refine=2)
    once = plan.scaled(max_refine=0)
    xs = np.linspace(-3.0, 3.0, 13).reshape(-1, 1)
    vals, errs = singular_integral_batch(K, G, xs, plan)
    refined = 0
    for v, e, x in zip(vals, errs, xs):
        first = singular_integral(K, G, x, once)
        refined += first.error > once.rel_tol * first.scale
        ref = singular_integral(K, G, x, plan)
        assert abs(v - ref.value) <= e + ref.error
    assert refined >= 3


def test_strict_batch_failure_carries_partial():
    u = gaussian_bump(1, 0.0, 1.0)
    plan = default_plan(1).scaled(rel_tol=1e-30, max_refine=0,
                                  order=4, panels_per_decade=1)
    xs = np.linspace(-1.0, 1.0, 5).reshape(-1, 1)
    with pytest.raises(QuadratureFailure) as exc:
        singular_integral_batch(fractional_kernel(1, 0.5), u, xs, plan)
    vals, errs = exc.value.partial
    assert vals.shape == errs.shape == (5,)
    assert np.all(np.isfinite(vals)) and np.all(np.isfinite(errs))


def _tuple_functions(n):
    """Integrands that share subtrees, with an inexact one (positive
    part) and an averaged square, whose shift sum a BLAS product forms."""
    e = np.eye(n)[0]
    u = gaussian_bump(n, [0.0] * n, 1.0) + gaussian_bump(n, [0.6] * n, 0.7,
                                                         -0.5)
    du = directional_derivative(u, e)
    eta = make_cutoff(0.25, 0.5, n=n)
    return ((eta * eta) * (du * du) + (u * u) * 1.5, u, du,
            positive_part_square(du), averaged_square(u, 0.1, e))


@pytest.mark.parametrize("n, op", [
    (1, fractional_kernel(1, 0.35)), (1, 0.6), (1, 0.0), (1, 1.0),
    (1, MeasureOnUnit([(0.0, 0.2), (0.5, 0.5), (1.0, 0.3)])),
    (2, anisotropic_kernel(0.4, np.array([[1.5, 0.3], [0.3, 0.8]]))),
    (2, 0.5), (2, 1.0)],
    ids=["kernel", "order", "s=0", "s=1", "measure", "2d-kernel",
         "2d-order", "2d-s=1"])
def test_tuple_batch_is_each_function_alone(n, op):
    # one call integrates a tuple on shared passes: every function's
    # values and errors are bit for bit what a call with it alone gives,
    # on a lenient plan and on a strict one, whose failure carries one
    # (values, errors) pair per function
    fs = _tuple_functions(n)
    xs = np.random.default_rng(n).uniform(-1.0, 1.0, (5, n))
    lenient = default_plan(n).scaled(strict=False, max_refine=1)
    strict = default_plan(n).scaled(rel_tol=1e-9, max_refine=1)
    for plan in (lenient, strict):
        try:
            got, raised = apply_batch(op, fs, xs, plan), False
        except QuadratureFailure as exc:
            got, raised = exc.partial, True
        assert isinstance(got, tuple) and len(got) == len(fs)
        missed = False
        for f, (vals, errs) in zip(fs, got):
            try:
                ref = apply_batch(op, f, xs, plan)
            except QuadratureFailure as exc:
                ref, missed = exc.partial, True
            assert np.array_equal(vals, ref[0])
            assert np.array_equal(errs, ref[1])
        assert raised == missed
    # the strict plan misses for a kernel, so the failure path is checked
    assert raised or np.isscalar(op) and op in (0.0, 1.0)


def _scalar_reference(op, u, x):
    """L u(x) and its error from the scalar entry points alone."""
    if isinstance(op, MeasureOnUnit):
        parts = [(w, _scalar_reference(s, u, x)) for s, w in op]
        return (sum(w * v for w, (v, _) in parts),
                sum(w * e for w, (_, e) in parts))
    if np.isscalar(op):
        if op == 0.0:
            return float(u(x.reshape(1, -1))[0]), 0.0
        if op == 1.0:
            return -float(np.trace(u.hessian(x.reshape(1, -1))[0])), 0.0
        ov = apply_fractional(op, u, x)
    else:
        ov = apply_nonlocal(op, u, x)
    return ov.value, ov.error


@pytest.mark.parametrize("op", [
    fractional_kernel(1, 0.35), anisotropic_kernel(0.6, np.array([[1.4]])),
    0.0, 0.45, 1.0, MeasureOnUnit([(0.0, 0.2), (0.5, 0.5), (1.0, 0.3)])],
    ids=["fractional", "anisotropic", "s=0", "s=0.45", "s=1", "measure"])
@pytest.mark.parametrize("u", [gaussian_bump(1, 0.3, 0.8),
                               modulated_gaussian(0.2, 1.1, 2.0),
                               plane_wave(1.5, 0.4)],
                         ids=["bump", "modulated", "wave"])
def test_apply_batch_matches_scalar_entry_points(op, u):
    xs = np.linspace(-1.5, 1.5, 7).reshape(-1, 1)
    vals, errs = apply_batch(op, u, xs)
    assert vals.shape == errs.shape == (7,)
    for v, e, x in zip(vals, errs, xs):
        ref, ref_err = _scalar_reference(op, u, x)
        assert abs(v - ref) <= e + ref_err


def test_apply_nonlocal_strict_failure_is_the_operator_value():
    # the partial is L u = -(the singular integral), with its error and
    # breakdown (pieces negated, radii kept), through apply_nonlocal and
    # apply_fractional alike
    u = gaussian_bump(1, 0.0, 1.0)
    plan = default_plan(1).scaled(rel_tol=1e-30, max_refine=0,
                                  order=4, panels_per_decade=1)
    K = fractional_kernel(1, 0.5)
    with pytest.raises(QuadratureFailure) as si:
        singular_integral(K, u, 0.3, plan)
    for apply in (lambda: apply_nonlocal(K, u, 0.3, plan),
                  lambda: apply_fractional(0.5, u, 0.3, plan)):
        with pytest.raises(QuadratureFailure) as an:
            apply()
        part, ref = an.value.partial, si.value.partial
        assert part.value == -ref.value and part.error == ref.error
        assert part.breakdown == {
            key: v if key.startswith("r_") else -v
            for key, v in ref.breakdown.items()}


def test_apply_batch_strict_failure_is_the_operator_value():
    # the partial is L u = -(the singular integral), atoms weighted
    u = gaussian_bump(1, 0.0, 1.0)
    plan = default_plan(1).scaled(rel_tol=1e-30, max_refine=0,
                                  order=4, panels_per_decade=1)
    xs = np.linspace(-1.0, 1.0, 5).reshape(-1, 1)
    with pytest.raises(QuadratureFailure) as si:
        singular_integral_batch(fractional_kernel(1, 0.5), u, xs, plan)
    with pytest.raises(QuadratureFailure) as ab:
        apply_batch(0.5, u, xs, plan)
    assert np.array_equal(ab.value.partial[0], -si.value.partial[0])
    assert np.array_equal(ab.value.partial[1], si.value.partial[1])
    mu = MeasureOnUnit([(0.0, 0.5), (0.5, 0.5)])
    with pytest.raises(QuadratureFailure) as am:
        apply_batch(mu, u, xs, plan)
    vals, errs = am.value.partial
    assert np.allclose(vals, 0.5 * u(xs) - 0.5 * si.value.partial[0],
                       rtol=1e-15, atol=0.0)
    assert np.allclose(errs, 0.5 * si.value.partial[1], rtol=1e-15, atol=0.0)
    with pytest.raises(ValueError):
        apply_batch(1.5, u, xs)


FAILING = default_plan(1).scaled(rel_tol=1e-30, max_refine=0, order=4,
                                 panels_per_decade=1)


@pytest.mark.parametrize("call", [
    lambda u, xs, plan: singular_integral(fractional_kernel(1, 0.5), u,
                                          xs[0], plan),
    lambda u, xs, plan: singular_integral_batch(fractional_kernel(1, 0.5),
                                                u, xs, plan),
    lambda u, xs, plan: apply_nonlocal(fractional_kernel(1, 0.5), u, xs[0],
                                       plan),
    lambda u, xs, plan: apply_fractional(0.5, u, xs[0], plan),
    lambda u, xs, plan: apply_batch(fractional_kernel(1, 0.5), u, xs, plan),
    lambda u, xs, plan: apply_batch(0.5, u, xs, plan),
    lambda u, xs, plan: apply_batch(MeasureOnUnit([(0.0, 0.5), (0.5, 0.5)]),
                                    u, xs, plan)],
    ids=["singular_integral", "singular_integral_batch", "apply_nonlocal",
         "apply_fractional", "apply_batch-kernel", "apply_batch-order",
         "apply_batch-measure"])
def test_partial_is_the_lenient_return(call):
    # on a plan no probe can meet, the strict call's .partial is, bit for
    # bit, what the same call returns with strict=False, and the message
    # names the missed probes and the worst error over tolerance
    u = gaussian_bump(1, 0.0, 1.0)
    xs = np.linspace(-1.0, 1.0, 5).reshape(-1, 1)
    with pytest.raises(QuadratureFailure) as exc:
        call(u, xs, FAILING)
    part = exc.value.partial
    lenient = call(u, xs, FAILING.scaled(strict=False))
    m = re.search(r"at (\d+) of (\d+) probes, worst error/tolerance (\S+)",
                  str(exc.value))
    assert m is not None
    if isinstance(lenient, tuple):
        assert all(np.array_equal(p, q) for p, q in zip(part, lenient))
        assert m.group(1) == m.group(2) == "5"
    else:
        assert (part.value, part.error, part.breakdown, part.scale) == (
            lenient.value, lenient.error, lenient.breakdown, lenient.scale)
        assert m.group(1) == m.group(2) == "1"
        assert m.group(3) == "%.3g" % (
            part.error / (FAILING.rel_tol * part.scale))
    assert float(m.group(3)) > 30


def test_breakdown_pieces_sum_to_the_operator_value():
    # the pieces are signed as L u, like the value they sum to
    K = fractional_kernel(1, 0.4)
    for u in (gaussian_bump(1, 0.0, 1.0), plane_wave(1.5, 0.4),
              modulated_gaussian(0.2, 1.1, 2.0)):
        for v in (apply_fractional(0.5, u, 0.3), apply_nonlocal(K, u, -0.7),
                  singular_integral(K, u, -0.7)):
            pieces = sum(v.breakdown[key] for key in
                         ("inner", "quartic", "zone", "annulus", "tail"))
            assert abs(pieces - v.value) <= v.error
    assert apply_fractional(0.5, gaussian_bump(1), 0.3).breakdown[
        "annulus"] > 0


def test_scalar_quadrature_values_carry_their_scale():
    u = gaussian_bump(1, 0.0, 1.0) + gaussian_bump(1, 0.5, 0.7, -0.4)
    K = fractional_kernel(1, 0.6)
    ref = singular_integral(K, u, 0.2)
    assert apply_nonlocal(K, u, 0.2).scale == ref.scale
    assert apply_fractional(0.6, u, 0.2).scale == ref.scale


def test_spectral_oracle_keeps_its_error():
    for s, u, x in ((0.5, gaussian_bump(1, 0.0, 1.0), 0.3),
                    (0.3, gaussian_bump(2, [0.1, 0.0], 1.0), [0.2, -0.1]),
                    (0.5, plane_wave(1.0), 0.4)):
        v = spectral_oracle(s, u, x)
        assert isinstance(v, OperatorValue)
        assert v.value == spectral_oracle_batch(s, u, np.atleast_2d(x))[0]
        assert 0.0 <= v.error <= 1e-8 * abs(v.value) + 1e-15
        assert np.array([v, v]).dtype == np.float64


def test_operator_value_prints_as_its_float():
    for v in (apply_fractional(0.4, gaussian_bump(1), 0.3),
              spectral_oracle(0.4, gaussian_bump(1), 0.3)):
        assert str(v) == "%s" % v == f"{v}" == repr(v.value)
        assert repr(v).startswith("OperatorValue(")


# -- the oracle's Gauss-Jacobi head panel ---------------------------------------

@pytest.mark.parametrize("q", [12, 24, 32])
@pytest.mark.parametrize("beta", [0.002, 0.2, 1.0, 1.5, 2.8])
def test_jacobi_rule_moments(q, beta):
    # integral over [0, 1] of t^beta t^k = 1 / (beta + k + 1), exact for
    # k < 2q; on [0, 1] the rule's nodes are (x + 1) / 2, weights scaled
    # by 2^-(beta + 1)
    x, w = jacobi_rule(q, beta)
    t, c = (x + 1) / 2, w / 2 ** (beta + 1)
    assert np.all(np.diff(x) > 0) and x[0] > -1 and x[-1] < 1 and np.all(w > 0)
    for k in range(2 * q):
        assert np.dot(c, t ** k) == pytest.approx(1 / (beta + k + 1),
                                                  rel=1e-13), k


def test_oracle_fine_rule_node_count():
    # one Jacobi panel on [0, 1e-2] and ppd order-q panels per decade on
    # the two decades above it
    for beta in (0.2, 1.0, 2.8):
        assert [_oracle_nodes(ppd, q, beta)[0].size
                for ppd, q in ((8, 24), (5, 12), (12, 32))] == [408, 132, 800]
    t, c = _oracle_nodes(8, 24, 0.6)
    assert t[0] > 0 and t[-1] < 1 and np.all(np.diff(t) > 0)
    # the rule integrates t^beta t^2 over [0, 1]
    assert np.dot(c, t ** 2) == pytest.approx(1 / 3.6, rel=1e-14)


def _gaussian_closed_form(n, s, r):
    """(-Delta)^s exp(-|x|^2 / 2) at |x| = r in dimension n, to 30 digits:
    2^s Gamma(n/2 + s) / Gamma(n/2) 1F1(n/2 + s; n/2; -r^2/2)."""
    with mpmath.workdps(30):
        h, s = mpmath.mpf(n) / 2, mpmath.mpf(s)
        return float(2 ** s * mpmath.gamma(h + s) / mpmath.gamma(h)
                     * mpmath.hyp1f1(h + s, h, -mpmath.mpf(r) ** 2 / 2))


@pytest.mark.parametrize("n, xs", [
    (1, [[0.0], [0.7], [-2.3]]),
    (2, [[0.0, 0.0], [0.7, -0.4], [1.5, 1.8]])])
def test_oracle_errors_cover_gaussian_closed_form(n, xs):
    # near s = 0 the 1d weight t^{2s} hardly falls at t = 0, so any head
    # [0, a] the rule leaves out costs about a: the error must cover it
    u = gaussian_bump(n)
    for s in (0.001, 0.01, 0.1, 0.5, 0.9):
        for x in xs:
            v = spectral_oracle(s, u, x)
            gap = v.value - _gaussian_closed_form(n, s, np.linalg.norm(x))
            assert abs(gap) <= v.error, (s, x)


def test_oracle_errors_carry_roundoff_floor():
    # fine and coarse rules often agree bit for bit, yet the sum rounds:
    # every quadrature value carries at least 8 eps |value|
    rng = np.random.default_rng(1)
    for u in (gaussian_bump(1, 0.3, 0.7), modulated_gaussian(0.2, 0.9, 2.0),
              gaussian_bump(2, [0.4, -0.3], 0.8)):
        for s in (0.1, 0.5, 0.9):
            for x in rng.uniform(-1.5, 1.5, size=(4, u.n)):
                v = spectral_oracle(s, u, x)
                assert v.error >= 8 * np.finfo(float).eps * abs(v.value) > 0


# -- discrete assembly ----------------------------------------------------------

@pytest.fixture(scope="module")
def lat129():
    return Lattice(1, 2.0, 129, 1.0)


def test_assembly_row_sums_annihilate_constants(lat129):
    K = fractional_kernel(1, 0.5)
    disc = assemble_discrete(K, lat129, constant(1.0, 1))
    ones = np.ones(lat129.nodes.shape[0])
    out = disc.apply_to_grid(ones, constant(1.0, 1))
    assert np.max(np.abs(out)) < 1e-12
    # matrix route: u = 1 inside, exterior = 1
    assert np.max(np.abs(disc.apply(np.ones(lat129.n_int)))) < 1e-12


def test_assembly_monotone_structure(lat129):
    K = fractional_kernel(1, 0.3)
    disc = assemble_discrete(K, lat129, constant(0.0, 1))
    off = disc.A - np.diag(np.diag(disc.A))
    assert off.max() <= 0.0
    assert np.diag(disc.A).min() > 0.0


def test_assembly_consistency_order(lat129):
    # matrix-applied values approach the quadrature reference at >= first order
    K = fractional_kernel(1, 0.5)
    u = gaussian_bump(1, 0.2, 0.9)
    x_probe = 0.25
    ref = apply_nonlocal(K, u, x_probe).value
    errs = []
    for N in [65, 129, 257]:
        lat = Lattice(1, 2.0, N, 1.0)
        disc = assemble_discrete(K, lat, u)
        vals = u(lat.nodes)
        lv = disc.apply(vals[lat.interior])
        idx = np.argmin(np.abs(lat.nodes[lat.interior][:, 0] - x_probe))
        errs.append(abs(lv[idx] - ref))
    rate = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
    assert min(rate) >= 0.9


@pytest.mark.parametrize("s", [0.3, 0.5, 0.8])
def test_1d_grid_action_is_second_order(s):
    # the stencil carries the kernel's whole second moment, so the grid
    # action's gap to the oracle falls at order 2 for every s, not 2 - 2s
    u = gaussian_bump(1, [0.1], 0.8, 0.7)
    gaps = []
    for N in (129, 257, 513):
        lat = Lattice(1, 2.0, N, 1.0)
        grid = assemble_discrete(s, lat, u).apply_to_grid(u(lat.nodes), u)
        ref = spectral_oracle_batch(s, u, lat.nodes[lat.interior])
        gaps.append(np.max(np.abs(grid - ref)) / np.max(np.abs(ref)))
    assert min(np.log2(gaps[0] / gaps[1]), np.log2(gaps[1] / gaps[2])) >= 1.9


def test_assembly_spike_sign_structure(lat129):
    K = fractional_kernel(1, 0.5)
    disc = assemble_discrete(K, lat129, constant(0.0, 1))
    spike = np.zeros(lat129.n_int)
    mid = lat129.n_int // 2
    spike[mid] = 1.0
    out = disc.apply(spike)
    assert out[mid] > 0
    others = np.delete(out, mid)
    assert np.max(others) <= 0.0


def test_assembly_2d_small():
    K = fractional_kernel(2, 0.5)
    lat = Lattice(2, 1.5, 25, 1.0)
    u = gaussian_bump(2, [0.1, 0.0], 0.8)
    disc = assemble_discrete(K, lat, u)
    # constants annihilated
    out = disc.apply_to_grid(np.ones(lat.nodes.shape[0]), constant(1.0, 2))
    assert np.max(np.abs(out)) < 1e-12
    # consistency at the center within discretization error
    vals = u(lat.nodes)
    lv = disc.apply(vals[lat.interior])
    center = np.argmin(np.linalg.norm(lat.nodes[lat.interior], axis=1))
    ref = apply_nonlocal(K, u, lat.nodes[lat.interior][center]).value
    assert abs(lv[center] - ref) < 0.05 * max(abs(ref), 1.0)


# -- the stencil against the per-offset loop it replaced -------------------------

def _signed_offsets(disc):
    for off, w in zip(disc.offsets, disc.masses):
        for sgn in (1, -1):
            yield sgn * off, w


def _shift(lat, o):
    """Flat lattice index of every interior node shifted by offset o, and
    whether it stays inside the box."""
    i = np.stack(np.unravel_index(lat.interior, (lat.N,) * lat.n), axis=1) + o
    ok = np.all((i >= 0) & (i < lat.N), axis=1)
    return np.ravel_multi_index(np.clip(i, 0, lat.N - 1).T, (lat.N,) * lat.n), ok


def _loop_reference(disc, values_full, closure):
    """(A, b, apply_to_grid(values_full, closure)) by one Python loop over
    the signed offsets, as the lattice scheme was first written; a
    small-N reference for the gathered stencil.  The diagonal is the
    exactly rounded sum of the tail mass and the weights: the loop's
    running sum drifts by up to 2.3e-14 relative at 2d N = 25."""
    lat, ext = disc.lattice, disc.exterior
    nodes_int = lat.nodes[lat.interior]
    idx_of = np.full(lat.nodes.shape[0], -1)
    idx_of[lat.interior] = np.arange(lat.n_int)
    rows = np.arange(lat.n_int)
    A = np.zeros((lat.n_int, lat.n_int))
    b = np.zeros(lat.n_int)
    v = values_full[lat.interior]
    out = disc.tail_mass_far * v
    for o, w in _signed_offsets(disc):
        j, ok = _shift(lat, o)
        j_int = np.where(ok, idx_of[j], -1)
        inside = j_int >= 0
        A[rows[inside], j_int[inside]] -= w
        data = np.zeros(lat.n_int)
        data[ok] = ext(lat.nodes[j[ok]])
        neigh = np.where(ok, values_full[j], 0.0)
        if not ok.all():
            data[~ok] = ext(nodes_int[~ok] + o * lat.h)
            neigh[~ok] = closure(nodes_int[~ok] + o * lat.h)
        b[~inside] -= w * data[~inside]
        out += w * (v - neigh)
    A[rows, rows] = math.fsum([disc.tail_mass_far]
                              + 2 * list(disc.masses))
    for i, x in enumerate(nodes_int):
        for c, K in disc.far:
            b[i] -= c * _far_data_integral(K, ext, x[None], disc.R_eff)[0]
            out[i] -= c * _far_data_integral(K, closure, x[None],
                                             disc.R_eff)[0]
    return A, b, out


@pytest.mark.parametrize("K, lat, ext", [
    (fractional_kernel(1, 0.3), Lattice(1, 2.0, 65, 1.0),
     gaussian_bump(1, 0.1, 1.5, 0.3)),
    (fractional_kernel(1, 0.9), Lattice(1, 2.0, 65, 1.0),
     gaussian_bump(1, 0.1, 1.5, 0.3)),
    (fractional_kernel(1, 0.6), Lattice(1, 2.0, 65, 1.0),
     plane_wave(1.3, 0.2)),
    (fractional_kernel(2, 0.5), Lattice(2, 1.5, 25, 1.0),
     gaussian_bump(2, [0.1, 0.0], 0.8)),
    (anisotropic_kernel(0.6, np.array([[1.4, 0.3], [0.3, 0.8]])),
     Lattice(2, 1.5, 25, 1.0), gaussian_bump(2, [0.1, 0.0], 0.8))],
    ids=["1d-s0.3", "1d-s0.9", "1d-wave", "2d", "2d-anisotropic"])
def test_stencil_matches_offset_loop(K, lat, ext):
    disc = assemble_discrete(K, lat, ext)
    g = gaussian_bump(lat.n, [0.2] * lat.n, 0.6, -0.7) + ext
    A, b, out = _loop_reference(disc, g(lat.nodes), g)
    off = ~np.eye(lat.n_int, dtype=bool)
    assert np.array_equal(disc.A[off], A[off])
    diag = np.diag(A)
    assert np.max(np.abs(np.diag(disc.A) - diag) / diag) <= 1e-14
    assert np.max(np.abs(disc.b - b)) <= 1e-13 * diag.max() * ext.sup
    assert np.max(np.abs(disc.apply_to_grid(g(lat.nodes), g) - out)) \
        <= 1e-13 * diag.max() * np.max(np.abs(g(lat.nodes)))


@pytest.mark.parametrize("K, N", [
    (fractional_kernel(2, 0.3), 9), (fractional_kernel(2, 0.8), 49),
    (anisotropic_kernel(0.5, np.array([[1.4, 0.3], [0.3, 0.8]])), 49),
    (fractional_kernel(2, 0.5), 97)],
    ids=["s0.3-N9", "s0.8-N49", "anisotropic-N49", "s0.5-N97"])
def test_half_disc_offsets_and_block_masses(K, N):
    """The 2d half stencil, built row by row with its cell masses a block
    of offsets at a time, is the filter of the full square of candidate
    offsets, with every mass from one kernel call, bit for bit; only the
    four nearest cells gain the singular fold."""
    lat = Lattice(2, 2.0, N, 1.0)
    W, _, _, offsets, masses = _stencil(K, lat)
    kmax, h = W.shape[0] // 2, lat.h
    ks = np.arange(-kmax, kmax + 1)
    cells = np.stack(np.meshgrid(ks, ks, indexing="ij"), -1).reshape(-1, 2)
    cells = cells[np.sum(cells ** 2, axis=1) <= (kmax + 0.5) ** 2]
    ref = cells[(cells[:, 0] > 0) | ((cells[:, 0] == 0) & (cells[:, 1] > 0))]
    assert np.array_equal(offsets, ref)
    x, w = np.polynomial.legendre.leggauss(4)
    sub = np.stack(np.meshgrid(x, x, indexing="ij"), -1).reshape(-1, 2)
    pts = (ref[:, None, :] * h + sub * 0.5 * h).reshape(-1, 2)
    cell = K(pts).reshape(len(ref), -1) @ (np.outer(w, w).ravel()
                                           * (0.25 * h * h))
    near = np.abs(ref).max(axis=1) == 1
    assert np.array_equal(masses[~near], cell[~near])
    assert np.all(masses[near] >= cell[near])
    assert np.sum(masses[near] - cell[near]) > 0


MEASURES = [MeasureOnUnit([(0.0, 0.2), (0.5, 0.5), (1.0, 0.3)]),
            MeasureOnUnit([(0.3, 0.5), (0.7, 0.5)]),
            MeasureOnUnit([(0.0, 0.4), (1.0, 0.6)])]


def _gather_reference(disc, values_full, closure):
    """apply_to_grid by the windowed gather that the FFT action replaced,
    built from the lattice and W alone: the band of lattice indices
    within W's half-width of the interior holds the lattice values inside
    the box and the closure outside it, and the window of W's shape
    around every interior node is summed in differences u_i - u_{i+k},
    16 rows at a time."""
    lat, W = disc.lattice, disc.W
    k, w = W.shape[0] // 2, W.ravel()
    idx = np.stack(np.unravel_index(lat.interior, (lat.N,) * lat.n), axis=1)
    band = np.stack(np.meshgrid(*[np.arange(a - k, b + k + 1) for a, b in
                                  zip(idx.min(axis=0), idx.max(axis=0))],
                                indexing="ij"), axis=-1)
    in_box = np.all((band >= 0) & (band < lat.N), axis=-1)
    G = np.empty(in_box.shape)
    G[in_box] = values_full[np.ravel_multi_index(band[in_box].T,
                                                 (lat.N,) * lat.n)]
    G[~in_box] = closure(lat.axis[0] + band[~in_box] * lat.h)
    windows = np.lib.stride_tricks.sliding_window_view(G, W.shape)
    starts = idx - idx.min(axis=0)
    v = values_full[lat.interior]
    out = disc.tail_mass_far * v
    for a in range(0, v.size, 16):
        d = windows[tuple(starts[a:a + 16].T)].reshape(-1, w.size)
        out[a:a + 16] += (v[a:a + 16, None] - d) @ w
    for c, K in disc.far:
        out -= c * _far_data_integral(K, closure, lat.nodes[lat.interior],
                                      disc.R_eff)
    return out


@pytest.mark.parametrize("op, N", [
    (fractional_kernel(2, 0.3), 49), (fractional_kernel(2, 0.8), 49),
    (anisotropic_kernel(0.3, np.array([[1.4, 0.3], [0.3, 0.8]])), 49),
    (anisotropic_kernel(0.8, np.array([[1.4, 0.3], [0.3, 0.8]])), 49),
    (fractional_kernel(1, 0.5), 513), (MEASURES[0], 49)],
    ids=["2d-s0.3", "2d-s0.8", "2d-aniso-s0.3", "2d-aniso-s0.8", "1d-N513",
         "2d-measure"])
def test_fft_action_matches_gather(op, N):
    """At the benchmark's lattice sizes, b and the grid action from the
    FFT convolution agree with the windowed gather up to round-off."""
    n = 2 if N == 49 else 1
    lat = Lattice(n, 2.0, N, 1.0)
    ext = gaussian_bump(n, [0.1] * n, 0.8, 0.7)
    disc = assemble_discrete(op, lat, ext)
    diag = np.diag(disc.A).max()
    data = ext(lat.nodes)
    data[lat.interior] = 0.0
    b = _gather_reference(disc, data, ext)
    assert np.max(np.abs(disc.b - b)) <= 1e-13 * diag * ext.sup
    g = gaussian_bump(n, [0.2] * n, 0.6, -0.7) + ext
    vals = g(lat.nodes)
    assert np.max(np.abs(disc.apply_to_grid(vals, g)
                         - _gather_reference(disc, vals, g))) \
        <= 1e-13 * diag * np.max(np.abs(vals))


@pytest.mark.parametrize("n, N, op", [
    (n, N, op) for n, N in ((1, 257), (1, 513), (2, 49))
    for op in (0.05, 0.5, 0.95, fractional_kernel(n, 0.7))]
    + [(2, 49, anisotropic_kernel(0.6, np.array([[1.4, 0.3], [0.3, 0.8]])))])
def test_constant_grid_function_maps_to_exact_zero(n, N, op):
    """A constant grid function leaves every difference from the
    reference value exactly 0, so its stencil action is exactly 0.0, not
    round-off."""
    lat, c = Lattice(n, 2.0, N, 1.0), constant(3.7, n)
    disc = assemble_discrete(op, lat, c)
    out = disc.apply_to_grid(np.full(lat.nodes.shape[0], 3.7), c)
    assert np.all(out == 0.0)


@pytest.mark.parametrize("n, N", [(1, 257), (2, 49)], ids=["1d", "2d"])
@pytest.mark.parametrize("mu", [
    MeasureOnUnit([(0.3, 0.5), (0.7, 0.5)]),
    MeasureOnUnit([(0.2, 0.3), (0.5, 0.3), (0.8, 0.4)]),
    MeasureOnUnit([(0.3, 0.5), (1.0, 0.5)])],
    ids=["two-kernels", "three-kernels", "kernel-and-laplacian"])
def test_constant_under_a_measure(mu, n, N):
    """With one kernel atom a measure annihilates constants exactly, as a
    kernel does; with two or more, t u_i sums their tail masses while
    the far field subtracts each atom's share apart, and a constant
    leaves a few ulps of t |c|."""
    lat, c = Lattice(n, 2.0, N, 1.0), -3.7
    disc = assemble_discrete(mu, lat, constant(c, n))
    out = disc.apply_to_grid(np.full(lat.nodes.shape[0], c), constant(c, n))
    if sum(0.0 < s < 1.0 for s, _ in mu) < 2:
        assert np.all(out == 0.0)
    else:
        assert np.max(np.abs(out)) <= 4 * EPS * disc.tail_mass_far * abs(c)


def test_2d_assembly_peak_memory_is_under_twice_A():
    """A is gathered by row blocks, and the band and the cell masses are
    built by per-axis slices and blocks: the traced peak of a 2d N = 97
    assembly stays within 2 A.nbytes (a full n_int^2 gather index alone
    is as large as A)."""
    lat = Lattice(2, 2.0, 97, 1.0)
    ext = gaussian_bump(2, [0.1, 0.1], 0.8, 0.7)
    _PLANS.clear()  # a cold build, plan and b
    tracemalloc.start()
    try:
        disc = assemble_discrete(fractional_kernel(2, 0.5), lat, ext)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * disc.A.nbytes


# -- stencil plans ------------------------------------------------------------

ANISO = anisotropic_kernel(0.6, np.array([[1.4, 0.3], [0.3, 0.8]]))


@pytest.mark.parametrize("n, op", [
    (1, fractional_kernel(1, 0.5)), (1, 0.3), (1, 0.0), (1, 1.0),
    (1, MEASURES[0]), (2, fractional_kernel(2, 0.5)), (2, ANISO), (2, 0.0),
    (2, 1.0), (2, MEASURES[1])],
    ids=["1d-kernel", "1d-order", "1d-order0", "1d-order1", "1d-measure",
         "2d-kernel", "2d-anisotropic", "2d-order0", "2d-order1",
         "2d-measure"])
def test_warm_plan_assembles_as_a_cold_build(n, op):
    """A plan built under one exterior and lattice object, reused for
    another exterior on an equal lattice, gives A, b, W and the grid
    action of a cold build bit for bit."""
    N = 129 if n == 1 else 33
    ext = gaussian_bump(n, [0.1] * n, 0.8, 0.7)
    g = gaussian_bump(n, [0.2] * n, 0.6, -0.7) + ext
    _PLANS.clear()
    first = assemble_discrete(op, Lattice(n, 2.0, N, 1.0),
                              gaussian_bump(n, [-0.3] * n, 1.1, 0.4))
    lat = Lattice(n, 2.0, N, 1.0)
    warm = assemble_discrete(op, lat, ext)
    _PLANS.clear()
    cold = assemble_discrete(op, lat, ext)
    assert warm.plan is first.plan and cold.plan is not first.plan
    assert warm.lattice is lat and warm.exterior is ext
    for name in ("A", "b", "W"):
        assert np.array_equal(getattr(warm, name), getattr(cold, name))
    vals = g(lat.nodes)
    assert np.array_equal(warm.apply_to_grid(vals, g),
                          cold.apply_to_grid(vals, g))


def _plan_problems(n):
    K2 = ANISO if n == 2 else fractional_kernel(1, 0.7)
    bell = BellmanProblem(
        [(fractional_kernel(n, 0.5), constant(0.0, n)),
         (K2, gaussian_bump(n, [-0.2] * n, 0.45, -0.35))],
        gaussian_bump(n, [0.1] * n, 0.5, 0.4),
        gaussian_bump(n, None, 1.5, 0.3), 1.0)
    obst = ObstacleProblem(0.5, gaussian_bump(n, [0.05] * n, 0.7, 0.35),
                           gaussian_bump(n, [0.0] * n, 0.45, -0.25),
                           constant(0.0, n), 1.0)
    return bell, obst


@pytest.mark.parametrize("n", [1, 2])
def test_warm_plans_solve_as_cold_builds(n):
    """solve_bellman and solve_obstacle on plans kept from a solve with
    other data return what they return on cold builds, bit for bit."""
    lat = Lattice(n, 2.0, 129 if n == 1 else 25, 1.0)
    bell, obst = _plan_problems(n)
    other = BellmanProblem(bell.members, bell.f,
                           gaussian_bump(n, [0.3] * n, 0.9, -0.2), 1.0)

    def outputs():
        gf, policy, info = solve_bellman(bell, lat)
        go, contact, oinfo = solve_obstacle(obst, lat)
        return [gf.values, policy, info["history"], go.values, contact,
                oinfo["history"], oinfo["complementarity"]]

    _PLANS.clear()
    cold = outputs()
    _PLANS.clear()
    solve_bellman(other, Lattice(n, 2.0, lat.N, 1.0))
    kept = len(_PLANS)
    warm = outputs()
    # the obstacle's order 0.5 is member 0's kernel: one more plan, order 0
    assert kept == 2 and len(_PLANS) == 3
    for a, b in zip(cold, warm):
        assert np.array_equal(a, b)


def test_plans_are_shared_and_read_only():
    """Equal lattice geometries share one plan and one A; an order in
    (0, 1) and its fractional kernel hit the same plan; no plan array
    can be written."""
    ext = gaussian_bump(1, 0.1, 0.8, 0.7)
    a = assemble_discrete(0.5, Lattice(1, 2.0, 65, 1.0), ext)
    b = assemble_discrete(fractional_kernel(1, 0.5), Lattice(1, 2.0, 65, 1.0),
                          constant(0.3, 1))
    assert b.plan is a.plan and b.A is a.A and b.lattice is not a.lattice
    assert fractional_kernel(1, 0.5) is fractional_kernel(1, np.float64(0.5))
    assert assemble_discrete(0.5, Lattice(1, 2.0, 65, 0.9), ext).plan \
        is not a.plan
    plan = a.plan
    arrays = [plan.A, plan.W, plan.offsets, plan.masses, plan._W_hat,
              plan._beyond, plan._beyond_pts, *plan._reads]
    lat = plan.lattice
    assert plan.nbytes == sum(x.nbytes for x in arrays) + lat.axis.nbytes \
        + lat.nodes.nbytes + lat.interior.nbytes
    for x in arrays:
        with pytest.raises(ValueError, match="read-only"):
            x.flat[0] = 1
    assert b.b.flags.writeable


def test_plan_cache_stays_within_its_budget(monkeypatch):
    """The kept plans never hold more than PLAN_BYTES: after the 2d N =
    49, 97 and 129 assemblies the N = 97 plan is kept, and N = 129 (its
    A alone 82 MB) is built for its call and not kept.  The least
    recently used plan goes first."""
    K, ext = fractional_kernel(2, 0.5), gaussian_bump(2, [0.1, 0.1], 0.8, 0.7)
    _PLANS.clear()
    plans = {}
    for N in (49, 97, 129):
        plans[N] = assemble_discrete(K, Lattice(2, 2.0, N, 1.0), ext).plan
        assert sum(p.nbytes for p in _PLANS.values()) \
            <= nonlocal_ops.PLAN_BYTES
    assert plans[129].nbytes > nonlocal_ops.PLAN_BYTES
    assert list(_PLANS.values())[-1] is plans[97]
    assert all(p is not plans[129] for p in _PLANS.values())
    # room for two equal-sized plans: a hit on the first makes the
    # second the least recently used, and the third evicts it
    lat = Lattice(2, 2.0, 33, 1.0)
    _PLANS.clear()
    first = assemble_discrete(K, lat, ext).plan
    monkeypatch.setattr(nonlocal_ops, "PLAN_BYTES", 2 * first.nbytes)
    second = assemble_discrete(fractional_kernel(2, 0.3), lat, ext).plan
    assert assemble_discrete(K, lat, ext).plan is first
    third = assemble_discrete(fractional_kernel(2, 0.7), lat, ext).plan
    assert second.nbytes == third.nbytes == first.nbytes
    assert list(_PLANS.values()) == [first, third]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("m", [1, 42])
def test_both_signs_builds_the_concatenated_points(n, m):
    """_both_signs builds its points one coordinate at a time: bit for
    bit the broadcast and concatenated form.  (The 2d cell masses, built
    the same way, are checked against the broadcast form in
    test_half_disc_offsets_and_block_masses.)"""
    rng = np.random.default_rng(10 * n + m)
    xs, z = rng.normal(size=(m, n)), rng.normal(size=(437, n))
    p, q = _both_signs(lambda pts: pts, xs, z)
    ref = np.concatenate([xs[:, None] + z, xs[:, None] - z], axis=1)
    assert np.array_equal(np.concatenate([p, q], axis=1), ref)


@pytest.mark.parametrize("mu", MEASURES, ids=["0-0.5-1", "0.3-0.7", "0-1"])
@pytest.mark.parametrize("lat, ext", [
    (Lattice(1, 2.0, 65, 1.0), gaussian_bump(1, 0.1, 1.5, 0.3)),
    (Lattice(2, 1.5, 25, 1.0), gaussian_bump(2, [0.1, 0.0], 0.8))],
    ids=["1d", "2d"])
def test_measure_stencil_matches_atom_sum(mu, lat, ext):
    """A measure is one stencil: its A, b and grid action equal the
    weighted sum of its atoms' discretizations up to round-off, and it
    stays monotone and maps constants to its order-0 mass alone."""
    disc = assemble_discrete(mu, lat, ext)
    g = gaussian_bump(lat.n, [0.2] * lat.n, 0.6, -0.7) + ext
    atoms = [(w, assemble_discrete(s, lat, ext)) for s, w in mu]
    ref = [sum(w * d.A for w, d in atoms), sum(w * d.b for w, d in atoms),
           sum(w * d.apply_to_grid(g(lat.nodes), g) for w, d in atoms)]
    got = [disc.A, disc.b, disc.apply_to_grid(g(lat.nodes), g)]
    tol = 1e-14 * np.max(np.diag(ref[0]))
    for a, b in zip(got, ref):
        assert np.max(np.abs(a - b)) <= tol
    assert np.max(disc.A - np.diag(np.diag(disc.A))) <= 0.0
    one = constant(1.0, lat.n)
    out = disc.apply_to_grid(np.ones(lat.nodes.shape[0]), one)
    mass0 = sum(w for s, w in mu if s == 0.0)
    assert np.max(np.abs(out - mass0)) < 1e-12


@given(st.floats(0.05, 0.95), st.sampled_from([33, 65, 129, 257]))
@example(0.95, 257)
@settings(max_examples=12, deadline=None)
def test_stencil_symmetric_monotone_annihilates_constants(s, N):
    lat = Lattice(1, 2.0, N, 1.0)
    disc = assemble_discrete(fractional_kernel(1, s), lat, constant(1.0, 1))
    assert np.array_equal(disc.A, disc.A.T)
    assert np.max(disc.A - np.diag(np.diag(disc.A))) <= 0.0
    out = disc.apply_to_grid(np.ones(lat.nodes.shape[0]), constant(1.0, 1))
    assert np.max(np.abs(out)) < 1e-12


# -- the half-sphere rule ------------------------------------------------------

def test_half_sphere_is_the_full_trapezoid_on_even_functions():
    # one direction of each +-pair, weights 4 pi / count: on an even
    # function, the full count-direction trapezoid rule
    f = lambda d: np.exp(d[:, 0] * d[:, 1]) + d[:, 0] ** 4
    for count in (2, 6, 16, 48, 64, 512):
        dirs, w = half_sphere(2, count)
        full = sphere_directions(2, count)
        assert np.array_equal(dirs, full[:count // 2])
        assert np.dot(f(dirs), w) == pytest.approx(
            2 * np.pi / count * f(full).sum(), rel=1e-14)
        assert not (dirs.flags.writeable or w.flags.writeable)
    # the oracle's doubling directions, the odd angles of each level
    for count in range(6, 513, 2):
        assert np.array_equal(half_sphere(2, count)[0][1::2],
                              sphere_directions(2, count)[1:count // 2:2])
    dirs, w = half_sphere(1, 2)
    assert np.array_equal(dirs, [[1.0]]) and np.array_equal(w, [2.0])
    assert half_sphere(2, 2)[1].sum() == 2 * np.pi
    with pytest.raises(ValueError):
        half_sphere(2, 7)


def test_radial_rule_is_panels_times_half_sphere():
    # 1d: the half-line panels with doubled weights, bit for bit; 2d: the
    # full 48-direction rule on an even integrand, up to round-off
    t, wt = panel_nodes(geometric_edges(1e-2, 8.0, 6), 16)
    z, kz, w = radial_rule(fractional_kernel(1, 0.3), 1e-2, 8.0, 16, 6,
                           N_ANGULAR)
    assert np.array_equal(z[:, 0], t) and np.array_equal(w, 2.0 * wt)
    K = anisotropic_kernel(0.4, [[1.5, 0.3], [0.3, 0.8]])
    z, kz, w = radial_rule(K, 1e-2, 8.0, 12, 5, N_ANGULAR)
    F = lambda z: np.exp(-np.sum(z * z, axis=1)) * (1.0 + z[:, 0] * z[:, 1])
    t, wt = panel_nodes(geometric_edges(1e-2, 8.0, 5), 12)
    full = (t[:, None, None] * sphere_directions(2, N_ANGULAR)).reshape(-1, 2)
    ref = np.dot(F(full) * K(full),
                 np.repeat(wt * t * (2 * np.pi / N_ANGULAR), N_ANGULAR))
    assert np.dot(F(z) * kz, w) == pytest.approx(ref, rel=1e-13)


def test_radial_rule_cache_holds_a_sweep_over_orders():
    """A sweep of pointwise values and oracle values over nine orders in
    1d and 2d fits the radial-rule cache: a second identical sweep builds
    no rule again."""
    orders = [round(0.1 * k, 1) for k in range(1, 10)]

    def sweep():
        for n in (1, 2):
            u = gaussian_bump(n, [0.1] * n, 0.7)
            for s in orders:
                apply_fractional(s, u, [0.2] * n)
                spectral_oracle(s, u, [0.2] * n)

    sweep()
    misses = radial_rule.cache_info().misses
    sweep()
    assert radial_rule.cache_info().misses == misses


def test_radial_rule_shares_nodes_across_kernels():
    """Two kernels of one dimension get the same z and w objects from
    radial_rule, their K(z) is the kernel at z bit for bit, and all three
    arrays are read-only."""
    args = (1e-2, 8.0, 12, 6, N_ANGULAR)
    for K1, K2 in ((fractional_kernel(1, 0.3), fractional_kernel(1, 0.7)),
                   (fractional_kernel(2, 0.4),
                    anisotropic_kernel(0.4, [[1.5, 0.3], [0.3, 0.8]]))):
        z, k1, w = radial_rule(K1, *args)
        z2, k2, w2 = radial_rule(K2, *args)
        assert z2 is z and w2 is w
        for K, kz in ((K1, k1), (K2, k2)):
            assert np.array_equal(kz, K(z))
            assert not any(a.flags.writeable for a in (z, kz, w))


# -- the far field's radial cut against the full rule -----------------------------

EPS = np.finfo(float).eps


def _far_full(K, ext, xs, R):
    """The far field on all 15 panels of the radial rule out to 1e5 R,
    probe by probe: a reference for the cut rule."""
    val, _ = _tail(K, ext, xs, np.zeros(len(xs)), R)
    z, kz, w = radial_rule(K, R, 1e5 * R, 8, 3, N_ANGULAR)
    for i, x in enumerate(xs):
        if ext.tail.resid(max(R - np.linalg.norm(x), 0.0)) > 0:
            g = 0.5 * (ext(x + z) + ext(x - z)) - ext.tail.limit
            val[i] += np.dot(g * kz, w)
    return val


@pytest.mark.parametrize("n, s, ext", [
    (1, 0.1, gaussian_bump(1, 0.1, 1.5, 0.3)),
    (1, 0.5, gaussian_bump(1, 0.1, 1.5, 0.3)),
    (1, 0.9, gaussian_bump(1, 0.1, 1.5, 0.3)),
    (2, 0.1, gaussian_bump(2, [0.1, -0.1], 1.5, 0.3)),
    (2, 0.5, gaussian_bump(2, [0.1, -0.1], 1.5, 0.3)),
    (2, 0.9, gaussian_bump(2, [0.1, -0.1], 1.5, 0.3)),
    (2, 0.5, gaussian_bump(2, [0.2, 0.0], 3.0, -0.4)),
    (1, 0.7, polynomial_gaussian([0.2, 1.0, 0.5], 0.1, 1.2)),
    (1, 0.4, _quotient_closure(gaussian_bump(1, 0.1, 1.5), [1.0], 1 / 32, 1)),
    (2, 0.6, barrier(1.0, 2))],
    ids=["1d-s0.1", "1d-s0.5", "1d-s0.9", "2d-s0.1", "2d-s0.5", "2d-s0.9",
         "2d-width3", "polynomial-gaussian", "quotient-closure", "barrier"])
def test_far_field_cut_matches_full_rule(n, s, ext):
    """The cut drops at most eps times the smallest certified far-field
    bound resid(R - |x|) tail_mass(R) of the probes, plus round-off."""
    K = fractional_kernel(n, s)
    R = 8.0625
    xs = np.random.default_rng(5).uniform(-0.7, 0.7, (12, n))
    cut = _far_data_integral(K, ext, xs, R)
    full = _far_full(K, ext, xs, R)
    bound = min(ext.tail.resid(R - np.linalg.norm(x)) for x in xs) \
        * K.tail_mass(R)[0]
    assert np.all(np.abs(cut - full) <= EPS * bound + 4 * EPS * np.abs(full))


def _counting(f, tail):
    """A closure leaf with f's values and the given tail metadata that
    counts the points it is evaluated at."""
    seen = [0]

    def value(x):
        seen[0] += len(x)
        return f(x)

    return SmoothFunction(f.n, value, f.gradient, f.hessian, sup=f.sup,
                          tail=tail), seen


def test_far_field_cut_keeps_one_panel_for_gaussian_data():
    """2d N = 49 with a benchmark-shaped exterior: the far field of every
    interior node reads at most 2 of the 15 radial panels (paired +-z)."""
    g = gaussian_bump(2, [0.1, -0.1], 1.5, 0.3)
    ext, seen = _counting(g, g.tail)
    K, lat = fractional_kernel(2, 0.5), Lattice(2, 2.0, 49, 1.0)
    R = assemble_discrete(K, lat, g).R_eff
    xs = lat.nodes[lat.interior]
    _far_data_integral(K, ext, xs, R)
    assert seen[0] <= 2 * (2 * 8 * N_ANGULAR) * len(xs)


@pytest.mark.parametrize("n", [1, 2])
def test_far_field_cut_keeps_slow_residual(n):
    """A residual bound decaying like 1/(1 + r) never falls to round-off
    before 1e5 R, so all 15 panels are evaluated."""
    f = SmoothFunction(n, lambda x: 1.0 / (1.0 + np.sum(x * x, axis=1)),
                       None, None, sup=1.0)
    ext, seen = _counting(f, Tail(0.0, lambda r: 1.0 / (1.0 + r)))
    xs = np.array([[0.0] * n, [0.5] * n, [-0.3] * n])
    for s in (0.1, 0.9):
        seen[0] = 0
        _far_data_integral(fractional_kernel(n, s), ext, xs, 8.0625)
        per_panel = 8 * len(half_sphere(n, N_ANGULAR)[0])
        assert seen[0] == 2 * 15 * per_panel * len(xs)


# -- the quartic cut of the correction zone -----------------------------------

def _full_zone(monkeypatch):
    # an infinite bound at the cut (the sixth absolute moment in 1d, the
    # fourth in 2d) leaves every probe its full zone
    cls = type(fractional_kernel(1, 0.5))
    moment = cls.abs_moment
    monkeypatch.setattr(cls, "abs_moment", lambda self, p, r: (
        moment(self, p, r) if p < 4 else np.full(np.shape(r), np.inf)))


def _criterion_03_integrands():
    """The operator-route integrands of check_supert_identity for the
    criterion-03 u and eta, weight 1.5: aux and zeroth per variant."""
    from fracbern.funcspace import (averaged_square, averaged_square_root,
                                    incremental_quotient)
    u = gaussian_bump(1, 0.0, 1.0) + gaussian_bump(1, 0.8, 0.6, -0.5)
    eta = make_cutoff(0.25, 0.5, n=1)
    du = directional_derivative(u, np.array([1.0]))
    q = incremental_quotient(u, 0.1, np.array([1.0]))
    return [(eta * eta) * (du * du) + (u * u) * 1.5, u, du,
            (eta * eta) * (q * q) + averaged_square(u, 0.1, np.array([1.0]))
            * 1.5, q, averaged_square_root(u, 0.1, np.array([1.0]))]


def test_zone_cut_matches_full_zone(monkeypatch):
    # the cut zone agrees with the full one within the summed errors on
    # the criterion-04 integrands and orders (24 of its probes) and the
    # criterion-03 integrands, kernels and probes
    from test_kernels import _log_modulated
    from test_funcspace import _criterion_04_composites, _criterion_04_probes
    from fracbern.nonlocal_ops import _integrate
    plan = default_plan(1).scaled(strict=False, max_refine=2)
    xs4 = _criterion_04_probes(24)
    xs3 = np.random.default_rng(7).uniform(-1.2, 1.2, 20).reshape(-1, 1)
    cases = [(fractional_kernel(1, s), G, xs4) for s in (0.25, 0.5, 0.75, 0.95)
             for G in _criterion_04_composites()]
    cases += [(K, G, xs3) for K in (fractional_kernel(1, 0.5),
                                    anisotropic_kernel(0.5, np.array([[1.3]])),
                                    _log_modulated(1, 0.5))
              for G in _criterion_03_integrands()]
    cut = [_integrate(K, G, xs, plan) for K, G, xs in cases]
    _full_zone(monkeypatch)
    full = [_integrate(K, G, xs, plan) for K, G, xs in cases]
    for a, b in zip(cut, full):
        assert np.all(b["r_zone"] == 1e-10) and not b["quartic"].any()
        assert np.all(np.abs(a["value"] - b["value"])
                      <= a["error"] + b["error"])
    # nearly every probe is cut, over a third skip the zone, and the
    # sextic bound costs the certificate little: it is within 0.1 of
    # the other errors
    r_zone = np.concatenate([a["r_zone"] for a in cut])
    assert np.mean(r_zone > 1e-10) >= 0.9
    assert np.mean(r_zone == 1e-2) >= 0.35
    ratio = np.concatenate([a["error"] / b["error"] for a, b in zip(cut, full)])
    assert np.quantile(ratio, 0.9) <= 1.1
    # every pass re-cuts against its own errors, so no refined probe
    # keeps a first-pass quartic bound as most of its error
    assert ratio.max() <= 1.15


def test_zone_uncut_without_exact_jets():
    K = fractional_kernel(1, 0.5)
    du = directional_derivative(gaussian_bump(1, 0.0, 1.0), np.array([1.0]))
    for G in (positive_part_square(du), barrier(1.0, 1)):
        assert singular_integral(K, G, 0.3).breakdown["r_zone"] == 1e-10
    assert singular_integral(K, du, 0.3).breakdown["r_zone"] > 1e-10


def test_zone_reruns_uncut_where_it_holds_the_error(monkeypatch):
    # a narrow bump: the first pass cuts the zone at 1e-6, and the zone's
    # error then holds over half the tolerance, so the refinement reruns
    # it uncut from eps without the quartic term, and the value lands
    # within the summed errors of the oracle
    zone_cuts, first = nonlocal_ops._zone_cuts, []

    def spy(*args):
        out = zone_cuts(*args)
        first.append(out[0])
        return out

    monkeypatch.setattr(nonlocal_ops, "_zone_cuts", spy)
    u = gaussian_bump(1, 0.0025, 0.0005)
    v = apply_fractional(0.5, u, 0.0, default_plan(1).scaled(strict=False))
    assert first[0][0] == 1e-6
    assert v.breakdown["r_zone"] == 1e-10 and v.breakdown["quartic"] == 0
    o = spectral_oracle(0.5, u, 0.0)
    assert abs(v.value - o.value) <= v.error + o.error


# -- the correction zone's radial rule ----------------------------------------

def test_narrow_bumps_within_errors_of_oracle():
    # the zone's fine/coarse pair sees its one discretization (the
    # t-integral is the kernel's weight M), so narrow bumps land within
    # their certified errors of the oracle: a sweep of 13 widths in
    # [5e-4, 2e-2], 12 centres in [0, 0.012] and s = 0.3, 0.5, 0.8 at
    # x = 0, the bump of width 0.0007 whose value is -127.84 at s = 1/2,
    # and a bump of width 0.005 at x = 0.01
    cases = [(s, gaussian_bump(1, c, w), 0.0) for s in (0.3, 0.5, 0.8)
             for w in np.geomspace(5e-4, 2e-2, 13)
             for c in np.linspace(0.0, 0.012, 12)]
    cases += [(0.5, gaussian_bump(1, 0.0025, 0.0007), 0.0)]
    cases += [(s, gaussian_bump(1, 0.0, 0.005), 0.01) for s in (0.5, 0.8)]
    for s, u, x in cases:
        v, o = apply_fractional(s, u, x), spectral_oracle(s, u, x)
        assert abs(v.value - o.value) <= v.error + o.error, (s, u, x)


@pytest.mark.parametrize("s", [0.3, 0.5, 0.8])
def test_dilation_relation_narrow_bump(s):
    # L_s[u(./lam)](x) = lam^{-2s} (L_s u)(x / lam), no oracle needed:
    # the bump of width lam = 0.0007 against the unit-width one
    lam = 0.0007
    lhs = apply_fractional(s, gaussian_bump(1, 0.0025, lam), 0.0)
    rhs = apply_fractional(s, gaussian_bump(1, 0.0025 / lam, 1.0), 0.0)
    c = lam ** (-2 * s)
    assert abs(lhs.value - c * rhs.value) <= lhs.error + c * rhs.error \
        + 64 * np.finfo(float).eps * abs(lhs.value)


def test_roundoff_floor_covers_oracle_gap():
    # near s = 1 the sum of the pieces rounds above the Richardson and
    # moment errors
    u = gaussian_bump(1)
    v = apply_fractional(0.9, u, 0.0)
    assert abs(v.value - spectral_oracle(0.9, u, 0.0)) <= v.error


def test_batch_errors_cover_gaussian_closed_form():
    # (-Delta)^s exp(-x^2/2) = 2^s Gamma(1/2 + s) / Gamma(1/2)
    # 1F1(1/2 + s; 1/2; -x^2/2), with no slack beyond the reported error
    from scipy.special import hyp1f1
    u = gaussian_bump(1)
    xs = np.linspace(-2.0, 2.0, 41).reshape(-1, 1)
    for s in (0.1, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 0.99):
        vals, errs = apply_batch(s, u, xs)
        ref = (2 ** s * gamma(0.5 + s) / gamma(0.5)
               * hyp1f1(0.5 + s, 0.5, -xs[:, 0] ** 2 / 2))
        assert np.all(np.abs(vals - ref) <= errs), s
