"""Polynomial and SmoothField evaluation: powers are chains of products
in a fixed order, constant term polynomials are applied as floats,
uncapped profiles broadcast a constant derivative, and piecewise profiles
run each branch only where its condition is the first to hold."""

from fractions import Fraction

import numpy as np
import pytest
import sympy
from numpy.testing import assert_array_equal
from sympy.utilities.lambdify import implemented_function

from nilharmonics.distributions import flat_top_profile
from nilharmonics.group_core import (
    HomogeneousNorm, abelian, heisenberg, weight_field,
)
from nilharmonics.polynomials import (
    Polynomial, Profile, SmoothField, gaussian_profile,
    poly_bump_profile,
)

N3 = 3
BASE = sum((Polynomial.coordinate(N3, k) * Polynomial.coordinate(N3, k)
            for k in range(N3)), Polynomial.zero(N3))
THETA = np.random.default_rng(3).normal(size=(4, 5, N3))


def explicit_sum(field, theta):
    """sum_k P_k(theta) g^(k)(N(theta)), every term polynomial evaluated."""
    u = field.base.eval(theta)
    acc = np.zeros(theta.shape[:-1])
    for k, poly in field.terms.items():
        acc = acc + poly.eval(theta) * field.profile.eval_deriv(k, u)
    return acc


@pytest.mark.parametrize("terms", [
    {0: Polynomial.constant(N3, 2.5),
     1: Polynomial.coordinate(N3, 0) * Polynomial.coordinate(N3, 2) + 1},
    None,  # the default {0: 1}
    {0: Polynomial.zero(N3), 2: Polynomial.zero(N3)},
], ids=["constant-and-cubic", "default", "all-zero"])
def test_field_eval_equals_the_explicit_sum(terms):
    field = SmoothField(BASE, gaussian_profile(width=1.3), terms)
    got = field.eval(THETA)
    assert got.shape == THETA.shape[:-1]
    assert_array_equal(got, explicit_sum(field, THETA))
    assert field.eval(THETA[0, 0]).shape == ()


@pytest.mark.parametrize("expr, k", [
    (lambda u: 3 * u + sympy.exp(-u), 0),  # a varying derivative
    (lambda u: 3 * u, 1),  # a constant derivative, broadcast
    (lambda u: u, 0),  # the derivative is u itself
])
def test_uncapped_eval_deriv_is_a_fresh_array_of_u(expr, k):
    prof = Profile(expr)
    u = np.linspace(-2.0, 3.0, 12).reshape(3, 4)
    kept = u.copy()
    got = prof.eval_deriv(k, u)
    want = np.asarray(prof.deriv_fn(k)(kept), dtype=float) * np.ones_like(u)
    assert got.shape == u.shape and got.dtype == float
    assert got.flags.writeable and not np.shares_memory(got, u)
    assert_array_equal(got, want)
    got += 1.0
    assert_array_equal(u, kept)


def test_poly_eval_is_the_product_of_repeated_powers():
    # x^4 + 2.5 x^2 y + y^3 + 1: each power is a chain of products, a
    # coefficient 1 adds the power itself, and the terms add in order
    x, y = (Polynomial.coordinate(2, k) for k in range(2))
    poly = x * x * x * x + Fraction(5, 2) * (x * x * y) + y * y * y + 1
    theta = np.random.default_rng(5).uniform(-3.0, 3.0, (7, 2))
    a, b = theta[..., 0], theta[..., 1]
    want = np.zeros(7)
    for term in (((a * a) * a) * a, 2.5 * ((a * a) * b), (b * b) * b, 1.0):
        want += term
    assert_array_equal(poly.eval(theta), want)


def test_each_branch_sees_only_its_own_points():
    seen = []
    g = implemented_function(
        "g", lambda x: seen.append(np.size(x)) or np.full(np.shape(x), 3.0))
    u = sympy.Symbol("u")
    grid = np.linspace(0.0, 2.0, 9)
    piecewise = Profile(sympy.Piecewise((2, u <= 0.5), (g(u), u < 1),
                                        (0, True)))
    assert_array_equal(piecewise.eval_deriv(0, grid),
                       [2, 2, 2, 3, 0, 0, 0, 0, 0])
    capped = Profile(g(u), support_cap=1.0)
    assert_array_equal(capped.eval_deriv(0, grid),
                       [3, 3, 3, 3, 0, 0, 0, 0, 0])
    assert seen == [1, 4]


@pytest.mark.parametrize("spec", [abelian(1), heisenberg()],
                         ids=["R1", "heisenberg"])
@pytest.mark.parametrize("mu", [5, -5.5])
def test_weight_equals_the_whole_expression_lambdify(spec, mu):
    norm = HomogeneousNorm(spec)
    prof = weight_field(norm, mu).profile
    rng = np.random.default_rng(7)
    u = np.concatenate([[0.0, 1.0, 2.0 ** (2 * norm.M)],
                        rng.uniform(0.0, 2.0 ** (2 * norm.M + 1), 4096),
                        rng.uniform(0.0, 1e6, 64)])
    for k in range(3):
        whole = sympy.lambdify(prof.u, sympy.diff(prof.expr, prof.u, k),
                               modules="numpy")
        with np.errstate(divide="ignore", invalid="ignore"):
            want = np.asarray(whole(u), dtype=float)
        assert_array_equal(prof.eval_deriv(k, u), want)


def flat_top_below_its_cap(u):
    v = u - 1
    return sympy.Piecewise((1, u <= 1),
                           (1 - (10 * v ** 3 - 15 * v ** 4 + 6 * v ** 5),
                            u < 2))


@pytest.mark.parametrize("prof, g, cap", [
    (Profile(lambda u: 1.5 * sympy.exp(1 + 1 / (u - 1)), support_cap=1.0),
     lambda u: 1.5 * sympy.exp(1 + 1 / (u - 1)), 1.0),
    (poly_bump_profile(2.0, 6), lambda u: 2.0 * (1 - u) ** 6, 1.0),
    (flat_top_profile(), flat_top_below_its_cap, 2.0),
], ids=["bump", "poly_bump", "flat_top"])
def test_capped_profiles_equal_the_masked_reference(prof, g, cap):
    # the reference evaluates g where u < cap - 1e-12 and is 0 elsewhere;
    # the branches agree with it off [cap - 1e-12, cap)
    u = np.concatenate([[0.0, 1.0, 2.0, cap, cap - 1e-11, cap + 1e-12],
                        np.linspace(-0.5, 3.0, 1001)])
    u = u[(u < cap - 1e-12) | (u >= cap)]
    mask = u < cap - 1e-12
    for k in range(3):
        d = sympy.lambdify(prof.u, sympy.diff(g(prof.u), prof.u, k),
                           modules="numpy")
        want = np.zeros_like(u)
        want[mask] = d(u[mask])
        assert_array_equal(prof.eval_deriv(k, u), want)


def shifted_ball(radius, shift, profile):
    """profile(|theta - shift|^2 / radius^2), expanded into monomials."""
    coeffs = {(0,) * N3: float(np.dot(shift, shift))}
    for k in range(N3):
        coeffs[tuple(2 * (j == k) for j in range(N3))] = 1.0
        coeffs[tuple(int(j == k) for j in range(N3))] = -2.0 * shift[k]
    return SmoothField(Polynomial(N3, coeffs) * (1.0 / radius ** 2), profile)


def face_points(center, half, k, t):
    """center moved by -t * half[k] and by +t * half[k] along axis k."""
    out = np.tile(center, (2, 1))
    out[:, k] += np.array([-1.0, 1.0]) * t * half[k]
    return out


@pytest.mark.parametrize("field, center, half", [
    (shifted_ball(1.2, [0.3, 0.2, -0.1], poly_bump_profile(1.0, 6)),
     np.array([0.3, 0.2, -0.1]), np.full(N3, 1.2)),
    (SmoothField(BASE, flat_top_profile()), np.zeros(N3),
     np.full(N3, np.sqrt(2.0))),
], ids=["heis_bump", "flat_top"])
def test_support_box_is_tight(field, center, half):
    lo, hi = field.support_box()
    np.testing.assert_allclose(lo, center - half, rtol=0, atol=1e-8)
    np.testing.assert_allclose(hi, center + half, rtol=0, atol=1e-8)
    for k in range(N3):
        assert np.all(field(face_points(center, half, k, 1 - 1e-6)) > 0)
    # every derivative term carries a derivative of the capped profile, so
    # it vanishes on and beyond the box's faces too (on the exact face
    # |theta - s|^2 = R the rounding of N can still leave g > 0)
    for f in (field, field.diff(0), field.diff(2).diff(1)):
        assert_array_equal(f.support_box(), (lo, hi))
        for k in range(N3):
            for t in (1.0, 1.01):
                pts = face_points(center, (hi - lo) / 2, k, t)
                assert_array_equal(f(pts), 0.0)
    inside = (center + np.random.default_rng(0).uniform(-1.5, 1.5, (4000, N3))
              * half)
    vals = field(inside)
    outside = np.any((inside < lo) | (inside > hi), axis=-1)
    assert np.all(vals[outside] == 0) and np.any(vals[~outside] > 0)


@pytest.mark.parametrize("field", [
    SmoothField(BASE + Polynomial(N3, {(1, 1, 0): 0.5}), poly_bump_profile()),
    SmoothField(BASE, gaussian_profile()),
    SmoothField(BASE - 2 * Polynomial(N3, {(0, 0, 2): 1}),
                poly_bump_profile()),
    SmoothField(BASE - Polynomial(N3, {(0, 0, 2): 1})
                + Polynomial.coordinate(N3, 2), poly_bump_profile()),
    SmoothField(BASE * BASE, poly_bump_profile()),
], ids=["cross_term", "uncapped", "negative_diagonal", "zero_diagonal",
        "quartic"])
def test_support_box_unknown(field):
    assert field.support_box() is None
