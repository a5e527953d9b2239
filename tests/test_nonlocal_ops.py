"""Operator evaluation, the spectral oracle, and discrete assembly."""

import math

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
                                SmoothFunction, Tail)
from fracbern._quad import geometric_edges, panel_nodes
from fracbern.nonlocal_ops import (apply_nonlocal, apply_fractional,
                                   apply_batch, apply_superposition,
                                   spectral_oracle, spectral_oracle_batch,
                                   singular_integral, singular_integral_batch,
                                   assemble_discrete, Lattice, default_plan,
                                   QuadratureFailure, _far_data_integral,
                                   _radial_nodes, _tail, N_ANGULAR)
from fracbern.solvers import barrier, _quotient_closure


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
    a = apply_superposition(mu, g, 0.3)
    b = apply_fractional(0.5, g, 0.3)
    assert a.value == pytest.approx(b.value, rel=1e-12)
    # half identity, half Laplacian on cos at 0: 1/2 + 1/2 = 1
    mu2 = MeasureOnUnit([(0.0, 0.5), (1.0, 0.5)])
    c = plane_wave(1.0)
    assert apply_superposition(mu2, c, 0.0).value == pytest.approx(1.0)


def test_superposition_identity_on_barrier():
    mu = MeasureOnUnit.dirac(0.0)
    b = barrier(1.0, 1)
    pts = np.linspace(-0.9, 0.9, 7)
    for x in pts:
        v = apply_superposition(mu, b, x)
        assert v.value <= -1.0 + 1e-12
        assert v.value == pytest.approx(x * x - 2.0)


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


MEASURES = [MeasureOnUnit([(0.0, 0.2), (0.5, 0.5), (1.0, 0.3)]),
            MeasureOnUnit([(0.3, 0.5), (0.7, 0.5)]),
            MeasureOnUnit([(0.0, 0.4), (1.0, 0.6)])]


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


# -- the far field's radial cut against the full rule -----------------------------

EPS = np.finfo(float).eps


def _far_full(K, ext, xs, R):
    """The far field on all 15 panels of the radial rule out to 1e5 R,
    probe by probe: a reference for the cut rule."""
    val, _ = _tail(K, ext, xs, np.zeros(len(xs)), R)
    z, kz, w = _radial_nodes(K, R, 1e5 * R, 8, 3)
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
        per_panel = 8 * (1 if n == 1 else N_ANGULAR)
        assert seen[0] == 2 * 15 * per_panel * len(xs)


# -- the quartic cut of the correction zone -----------------------------------

def _full_zone(monkeypatch):
    # an infinite quartic bound leaves every probe its full zone
    monkeypatch.setattr(type(fractional_kernel(1, 0.5)), "fourth_abs_moment",
                        lambda self, r: np.full(np.shape(r), np.inf))


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
        assert np.all(b["r_zone"] == 1e-10)
        assert np.all(np.abs(a["value"] - b["value"])
                      <= a["error"] + b["error"])
    # nearly every probe is cut, and the quartic bound costs the
    # certificate little: it is within 0.1 of the other errors
    r_zone = np.concatenate([a["r_zone"] for a in cut])
    assert np.mean(r_zone > 1e-10) >= 0.9
    ratio = np.concatenate([a["error"] / b["error"] for a, b in zip(cut, full)])
    assert np.quantile(ratio, 0.9) <= 1.1


def test_zone_uncut_without_exact_jets():
    K = fractional_kernel(1, 0.5)
    du = directional_derivative(gaussian_bump(1, 0.0, 1.0), np.array([1.0]))
    for G in (positive_part_square(du), barrier(1.0, 1)):
        assert singular_integral(K, G, 0.3).breakdown["r_zone"] == 1e-10
    assert singular_integral(K, du, 0.3).breakdown["r_zone"] > 1e-10


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
