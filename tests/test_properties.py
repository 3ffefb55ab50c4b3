"""Property tests on random step-2 groups: the group law and its
coordinate-major layout, the dilations, the check map, the exact operator
words and the batched finite-difference stencil, the exact scale derivatives
of the model kernel, the gauge box, and the pruned convolution."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from nilharmonics.calculus import (
    OperatorWord, central_difference, multi_indices_upto,
)
from nilharmonics.group_core import HomogeneousNorm, heisenberg, random_step2
from nilharmonics.kernels import KernelSpec, dilated_field, scale_derivative
from nilharmonics.polynomials import Polynomial, SmoothField, \
    poly_bump_profile
from nilharmonics.quadrature import Grid, check_map, convolve

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


class Spy:
    """A factor that counts its nonzero values off the fixed-factor call
    on grid.points."""

    def __init__(self, f, grid):
        self.f, self.grid, self.nonzero = f, grid, 0

    def __call__(self, p):
        vals = self.f(p)
        if p is not self.grid.points:
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
    grid = Grid(rng.uniform(-0.3, 0.3, n), rng.uniform(1.0, 2.0, n),
                rng.integers(4, 8 if n <= 3 else 6, n),
                grading=rng.uniform(0.5, 3.0, n) if graded else None)
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
