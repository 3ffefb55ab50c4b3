"""Property tests on random step-2 groups: the group law and its
coordinate-major layout, the dilations, the gauge distance, the one chart
of I_{r,s}, the check map and the rescaled fields, the exact operator words and the batched finite-difference stencil,
the exact scale derivatives of the model kernel, the gauge box, the pruned
convolution, and the grid cut to a density's support box."""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from nilharmonics.calculus import (
    OperatorWord, central_difference, integrate_by_parts_residual,
    multi_indices_upto,
)
from nilharmonics.group_core import HomogeneousNorm, abelian, heisenberg, \
    random_step2
from nilharmonics.kernels import KernelSpec, dilated_field, scale_derivative
from nilharmonics.polynomials import Polynomial, SmoothField, \
    poly_bump_profile
from nilharmonics.quadrature import Grid, _chunks, _grading_for, \
    _irs_doublings, box_grid, check_map, convolve

PROPERTY = settings(max_examples=20, deadline=None)


@st.composite
def step2_specs(draw):
    """random_step2(n1, n2, seed) with n = n1 + n2 <= 5."""
    n1 = draw(st.integers(1, 4))
    n2 = draw(st.integers(0, 5 - n1))
    return random_step2(n1, n2, seed=draw(st.integers(0, 2 ** 16)))


def points(spec, seed, count=16, scale=2.0):
    return np.random.default_rng(seed).normal(scale=scale,
                                              size=(count, spec.n))


def model_kernel(spec, Gamma):
    return KernelSpec(spec, HomogeneousNorm(spec), "model_power",
                      Gamma=Gamma)


def log_scale_fd(kernel, k, a, pts, h=1e-3):
    """Reference (a d/da)^k P_a: 4th-order central differences of the
    dilated kernel in s = log a."""
    return central_difference(
        lambda m: dilated_field(kernel, a * np.exp(m * h)).eval(pts), h, k)


@PROPERTY
@given(step2_specs(), st.integers(0, 2 ** 16))
def test_associativity(spec, seed):
    x, y, z = (points(spec, seed + i) for i in range(3))
    assert_allclose(spec.multiply(spec.multiply(x, y), z),
                    spec.multiply(x, spec.multiply(y, z)), atol=1e-12)


def multiply_summed(spec, eta, xi):
    """eta + xi plus each structure term, in the canonical order, with no
    layout chosen: the reference values of GroupSpec.multiply."""
    out = eta + xi
    for (k, alpha, beta), c in spec.structure:
        term = float(c)
        for x, pows in ((eta, alpha), (xi, beta)):
            for j, p in enumerate(pows):
                if p:
                    term = term * (x[..., j] if p == 1 else x[..., j] ** p)
        out[..., k] += term
    return out


@PROPERTY
@given(st.one_of(step2_specs(), st.just(heisenberg())),
       st.integers(0, 2 ** 16))
def test_multiply_is_coordinate_major_and_exact(spec, seed):
    n = spec.n
    rng = np.random.default_rng(seed)
    for eta_shape, xi_shape in [((n,), (n,)), ((4, 1, n), (1, 7, n)),
                                ((7, n), (n,)), ((n,), (7, n))]:
        eta = rng.normal(scale=2.0, size=eta_shape)
        xi = rng.normal(scale=2.0, size=xi_shape)
        kept = eta.copy(), xi.copy()
        out = spec.multiply(eta, xi)
        assert out.shape == np.broadcast_shapes(eta_shape, xi_shape)
        assert_array_equal(out, multiply_summed(spec, *kept))
        # the weight-1 coordinates, on which convolve prunes, add exactly
        assert_array_equal(out[..., spec.layer1],
                           eta[..., spec.layer1] + xi[..., spec.layer1])
        assert all(out[..., k].flags.c_contiguous for k in range(n))
        assert_array_equal(eta, kept[0])
        assert_array_equal(xi, kept[1])
        assert not np.shares_memory(out, eta) and \
            not np.shares_memory(out, xi)
    with pytest.raises(ValueError):
        spec.multiply(np.zeros(n + 1), np.zeros(n))
    with pytest.raises(ValueError):
        spec.multiply(np.zeros((3, n)), np.zeros((3, n + 1)))


def gauges():
    """The even-power gauge of a random step-2 group, or either gauge of
    the Heisenberg group."""
    return st.one_of(step2_specs().map(HomogeneousNorm), st.sampled_from(
        ["even-power", "koranyi"]).map(
            lambda variant: HomogeneousNorm(heisenberg(), variant)))


@PROPERTY
@given(gauges(), st.integers(0, 2 ** 16))
def test_distance_is_symmetric_and_left_invariant(norm, seed):
    spec = norm.spec
    x, y, g = (points(spec, seed + i) for i in range(3))
    d = norm.distance(x, y)
    assert_array_equal(d, norm(spec.multiply(spec.inverse(x), y)))
    # x^{-1} x rounds to about 1e-15 |x|^2 on a weight-2 coordinate, which
    # the gauge reads as its square root
    assert np.all(norm.distance(x, x)
                  <= np.sqrt(1e-13 * (1.0 + np.sum(x * x, axis=-1))))
    assert_allclose(norm.distance(y, x), d, rtol=1e-12)
    assert_allclose(norm.distance(spec.multiply(g, x), spec.multiply(g, y)),
                    d, rtol=1e-10)
    # batched like multiply
    table = norm.distance(x[:4, None], y[None, :7])
    assert table.shape == (4, 7)
    assert_allclose(table, [[norm.distance(p, q) for q in y[:7]]
                            for p in x[:4]], rtol=1e-14)


def two_chart_irs(norm, r, s, eta, count, max_doublings):
    """(I_{r,s}(eta), converged) with the doubling rule of _irs_doublings,
    but each half in its own chart: the half cut by w at xi = 0, the half
    cut by 1 - w at xi = eta zeta."""
    spec = norm.spec

    def half(radius, grading, second):
        grid = box_grid(spec, radius, count, grading=grading)
        zeta = grid.flat_points
        xi = spec.multiply(eta[None, :], zeta) if second else zeta
        n0 = norm(xi)
        neta = norm(spec.multiply(-xi, eta[None, :]))
        d0, de = n0 ** (2 * norm.M), neta ** (2 * norm.M)
        tot = d0 + de
        cut = np.where(tot > 0, (d0 if second else de)
                       / np.where(tot > 0, tot, 1.0), 0.5)
        vals = cut * (1.0 + n0) ** r * (1.0 + neta) ** s
        return float(vals @ grid.flat_weights)

    radius, prev = 4.0 + 2.0 * float(norm(eta)), None
    for _ in range(max_doublings):
        g = _grading_for(spec, radius, count, center_spacing=5.0 / count)
        total = half(radius, g, False) + half(radius, g, True)
        if prev is not None and abs(total - prev) <= 1e-4 * abs(total):
            return total, True
        prev = total
        radius *= 2.0
    return prev, False


@PROPERTY
@given(st.sampled_from(["R1", "even-power", "koranyi", "step2"]),
       st.floats(-6.0, 1.0), st.floats(0.5, 3.0), st.floats(0.0, 4.0),
       st.integers(0, 2 ** 16), st.booleans())
def test_one_chart_serves_both_halves_of_I_rs(group, r, excess, t, seed,
                                             ray):
    # the half cut by 1 - w is the first half at (s, r, eta^{-1})
    norm = {"R1": lambda: HomogeneousNorm(abelian(1)),
            "step2": lambda: HomogeneousNorm(random_step2(2, 1, 0))}.get(
        group, lambda: HomogeneousNorm(heisenberg(), group))()
    spec = norm.spec
    s = -float(spec.Q) - r - excess
    # eta on the ray delta_t e_1 that irs_bound_check sweeps, or in a
    # random direction.  Off the ray the structure constant 7/20 of
    # random_step2(2, 1, 0) rounds c x y and c y x apart, so the
    # reference's (eta zeta)^{-1} eta misses the identity at zeta = 0 by
    # about 1e-17, which the gauge reads as about 1e-9; with the constants
    # +-1/2 of the Heisenberg law it meets it exactly.
    u = np.eye(spec.n)[0] if ray or group == "step2" \
        else points(spec, seed, count=1)[0]
    eta = spec.dilate(t / norm(u), u) if t > 0 else np.zeros(spec.n)
    got = _irs_doublings(norm, r, s, eta, 11, max_doublings=4)
    want = two_chart_irs(norm, r, s, eta, 11, 4)
    assert got[1] == want[1]
    assert_allclose(got[0], want[0], rtol=1e-14)


@PROPERTY
@given(step2_specs(), st.integers(0, 2 ** 16), st.floats(0.1, 10.0))
def test_dilation_is_an_automorphism(spec, seed, a):
    x, y = points(spec, seed), points(spec, seed + 1)
    lhs = spec.dilate(a, spec.multiply(x, y))
    rhs = spec.multiply(spec.dilate(a, x), spec.dilate(a, y))
    assert_allclose(lhs, rhs, rtol=1e-13, atol=1e-12)


@PROPERTY
@given(step2_specs(), st.integers(0, 2 ** 16), st.data())
def test_negate_coords_is_the_check_map(spec, seed, data):
    # the kernel is even; its partial derivatives have odd coefficients
    field = model_kernel(spec, 1.0).field
    field = field.diff(data.draw(st.integers(0, spec.n - 1)))
    eta = points(spec, seed)
    assert_array_equal(field.negate_coords()(eta),
                       check_map(spec, field)(eta))


@PROPERTY
@given(step2_specs(), st.integers(0, 2 ** 16), st.floats(0.1, 10.0),
       st.data())
def test_rescale_by_the_dilation_is_precomposition(spec, seed, a, data):
    # with s = delta_a (1, ..., 1), rescale(s) is f o delta_a
    field = model_kernel(spec, 1.0).field
    field = field.diff(data.draw(st.integers(0, spec.n - 1)))
    eta = points(spec, seed, scale=1.0)
    want = field(spec.dilate(a, eta))
    assert_allclose(field.rescale(spec.dilate(a, np.ones(spec.n)))(eta),
                    want, rtol=1e-13, atol=1e-13 * np.max(np.abs(want)))


@PROPERTY
@given(step2_specs(), st.integers(0, 2 ** 16), st.data())
def test_symbolic_words_equal_finite_difference_words(spec, seed, data):
    # a plain callable takes the nested 4th-order difference chain
    kind = data.draw(st.sampled_from(["X", "Xt", "Y", "Yt"]))
    word = OperatorWord(spec, kind, data.draw(
        st.sampled_from(multi_indices_upto(spec.n, 2))))
    monomials = multi_indices_upto(spec.n, 3)
    coeffs = np.random.default_rng(seed).integers(-3, 4, len(monomials))
    poly = Polynomial(spec.n, {gamma: int(c)
                               for gamma, c in zip(monomials, coeffs)})
    pts = points(spec, seed, scale=1.0)
    for f in (poly, model_kernel(spec, 1.0).field):
        exact = word.apply_symbolic(f).eval(pts)
        fd = word.as_callable(f.eval)(pts)
        # rounding of the nested differences over h^|alpha|
        assert_allclose(fd, exact, atol=1e-7 * max(1.0, np.max(
            np.abs(exact))))


def per_offset_word(word, f):
    """The word by nested differences with one call of the operand per
    nonzero coefficient k and offset m, at eta + m (h e_k): the reference
    for the stencil that calls it once."""
    for field in reversed(word.fields):
        f = per_offset_field(field, f)
    return f


def per_offset_field(field, f):
    def out(eta):
        h = 1e-3 * (1.0 + np.sqrt(np.sum(eta ** 2, axis=-1)))
        total = np.zeros(eta.shape[:-1])
        for k, p in enumerate(field.coeffs):
            if not p.is_zero():
                step = h[..., None] * np.eye(field.spec.n)[k]
                d = central_difference(lambda m: f(eta + m * step), h, 1)
                total = total + p.eval(eta) * d
        return total
    return out


@PROPERTY
@given(st.one_of(step2_specs(), st.just(heisenberg())),
       st.integers(0, 2 ** 16), st.data())
def test_batched_stencil_equals_the_per_offset_calls(spec, seed, data):
    n = spec.n
    kind = data.draw(st.sampled_from(["X", "Xt", "Y", "Yt"]))
    word = OperatorWord(spec, kind, data.draw(
        st.sampled_from(multi_indices_upto(n, 2))))
    c = np.random.default_rng(seed).normal(size=n)

    def f(p):  # pointwise: no reduction whose order could follow the shape
        lin = sum(c[k] * p[..., k] for k in range(n))
        return np.sin(lin) * np.exp(-0.1 * lin * lin) + p[..., -1] ** 3

    shape = data.draw(st.one_of(
        st.just(()), st.tuples(st.integers(1, 5)),
        st.tuples(st.integers(1, 3), st.integers(1, 3))))
    eta = points(spec, seed, count=int(np.prod(shape)), scale=1.0)
    eta = eta.reshape(shape + (n,))
    assert_array_equal(word.as_callable(f)(eta),
                       per_offset_word(word, f)(eta))


@PROPERTY
@given(step2_specs(), st.integers(0, 2 ** 16), st.floats(0.25, 4.0),
       st.sampled_from([0.5, 1.0, 2.0]))
def test_scale_derivative_matches_log_scale_fd(spec, seed, a, Gamma):
    kernel = model_kernel(spec, Gamma)
    pts = points(spec, seed, scale=1.0)
    for k in (1, 2):
        exact = scale_derivative(kernel, k, a).eval(pts)
        ref = log_scale_fd(kernel, k, a, pts)
        # rounding of the k-th difference over h^k, plus O(h^4)
        assert_allclose(exact, ref, atol=1e-7 * max(1.0, np.max(
            np.abs(exact))))


@PROPERTY
@given(step2_specs(), st.floats(0.01, 100.0))
def test_box_reaches_the_sphere_on_each_axis(spec, r):
    # row k is box(r)[k] e_k, the far end of the box on axis k
    norm = HomogeneousNorm(spec)
    assert_allclose(norm(np.diag(norm.box(r))), r, rtol=1e-12)


def capped_density(spec, rng):
    """(1 - sum_k c_k (theta_k - s_k)^2 / r^2)^6 with a random shift s,
    radius r and anisotropic diagonal c, expanded into monomials."""
    n = spec.n
    s = rng.uniform(-1.0, 1.0, n)
    c = rng.uniform(0.5, 2.0, n) / rng.uniform(0.3, 1.5) ** 2
    coeffs = {(0,) * n: float(np.sum(c * s * s))}
    for k in range(n):
        coeffs[tuple(2 * (j == k) for j in range(n))] = c[k]
        coeffs[tuple(int(j == k) for j in range(n))] = -2.0 * c[k] * s[k]
    return SmoothField(Polynomial(n, coeffs), poly_bump_profile(1.0, 6))


def random_grid(rng, n, graded):
    return Grid(rng.uniform(-0.3, 0.3, n), rng.uniform(1.0, 2.0, n),
                rng.integers(4, 8 if n <= 3 else 6, n),
                grading=rng.uniform(0.5, 3.0, n) if graded else None)


class Spy:
    """A factor that counts its nonzero values off the fixed-factor call,
    which reads grid.points or a sub-box of it: the moving factor reads
    fresh group products."""

    def __init__(self, f, grid):
        self.f, self.grid, self.nonzero = f, grid, 0

    def __call__(self, p):
        vals = self.f(p)
        if not np.shares_memory(p, self.grid.points):
            self.nonzero += int(np.count_nonzero(vals))
        return vals


@PROPERTY
@given(st.one_of(step2_specs(), st.just(heisenberg())),
       st.integers(0, 2 ** 16), st.booleans())
def test_pruned_convolve_equals_the_full_pair_sum(spec, seed, graded):
    rng = np.random.default_rng(seed)
    n = spec.n
    f = capped_density(spec, rng)
    shift = rng.uniform(-0.5, 0.5, n)
    g = lambda p: np.exp(-np.sum((p - shift) ** 2, axis=-1))
    grid = random_grid(rng, n, graded)
    etas = rng.uniform(-1.5, 1.5, (9, n))
    fs, gs = Spy(f, grid), Spy(g, grid)
    xi = grid.flat_points
    nonzero = 0
    for form in ("first", "second"):
        out = convolve(spec, fs, gs, etas, grid, form,
                       support=f.support_box())
        fixed, moving = (f, g) if form == "first" else (g, f)
        args = spec.multiply(-xi, etas[:, None]) if form == "first" \
            else spec.multiply(etas[:, None], -xi)
        w = fixed(xi) * grid.flat_weights
        vals = moving(args)
        assert_allclose(out, vals @ w, rtol=1e-13, atol=0)
        nonzero += int(np.count_nonzero(vals[:, w != 0]))
    assert fs.nonzero + gs.nonzero == nonzero


def uncut_first_form(spec, f, g, etas, grid):
    """The first form over the whole grid: f on every node, the nodes of
    nonzero folded weight kept in grid order, the pairs in _chunks."""
    w = f(grid.points) * grid.weights
    keep = w != 0
    xi, wk = grid.points[keep], w[keep]
    out = np.zeros(len(etas))
    for blk in _chunks(len(etas), (spec.n + 1) * len(xi)):
        out[blk] = g(spec.multiply(-xi[None], etas[blk, None])) @ wk
    return out


@PROPERTY
@given(st.one_of(step2_specs(), st.just(heisenberg())),
       st.integers(0, 2 ** 16), st.booleans())
def test_first_form_cuts_the_grid_to_the_density_box(spec, seed, graded):
    # f is read on the nodes of its support box alone, and the pair sum
    # keeps the nodes and the order of the whole grid
    rng = np.random.default_rng(seed)
    n = spec.n
    f = capped_density(spec, rng)
    shift = rng.uniform(-0.5, 0.5, n)
    g = lambda p: np.exp(-np.sum((p - shift) ** 2, axis=-1))
    grid = random_grid(rng, n, graded)
    etas = rng.uniform(-1.5, 1.5, (9, n))
    read = []
    field_eval = SmoothField.eval

    def spy(self, theta):
        read.append(np.array(theta).reshape(-1, n))
        return field_eval(self, theta)

    with patch.object(SmoothField, "eval", spy):
        out = convolve(spec, f, g, etas, grid)
    lo, hi = f.support_box()
    inside = np.all((grid.flat_points >= lo) & (grid.flat_points <= hi),
                    axis=1)
    (pts,) = read
    assert len(pts) == np.count_nonzero(inside)
    assert np.all((pts >= lo) & (pts <= hi))
    assert_array_equal(out, uncut_first_form(spec, f, g, etas, grid))


@PROPERTY
@given(st.one_of(step2_specs(), st.just(heisenberg())),
       st.integers(0, 2 ** 16), st.booleans(), st.data())
def test_by_parts_over_the_box_is_the_full_grid_sum(spec, seed, graded,
                                                    data):
    # both integrands vanish off f's box, so the sums differ only in order
    rng = np.random.default_rng(seed)
    n = spec.n
    f, g = capped_density(spec, rng), capped_density(spec, rng)
    grid = random_grid(rng, n, graded)
    kind = data.draw(st.sampled_from(["X", "Xt", "Y", "Yt"]))
    alpha = data.draw(st.sampled_from(multi_indices_upto(n, 2)))
    dual = {"X": "Xt", "Xt": "X", "Y": "Yt", "Yt": "Y"}[kind]
    pts = grid.points
    lhs = OperatorWord(spec, kind, alpha).apply(f, pts) * g(pts) \
        * grid.weights
    rhs = (-1) ** sum(alpha) * f(pts) \
        * OperatorWord(spec, dual, alpha).apply(g, pts) * grid.weights
    full = abs(np.sum(lhs) - np.sum(rhs))
    got = integrate_by_parts_residual(spec, kind, alpha, f, g, grid)
    assert abs(got - full) <= 1e-15 * (np.sum(np.abs(lhs))
                                       + np.sum(np.abs(rhs)))
