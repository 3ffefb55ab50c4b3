"""Polynomial and SmoothField evaluation: polynomials are nested Horner
in a fixed order, constant term polynomials are applied as floats,
profiles run each branch only where its condition is the first to hold,
and every profile derivative from a jet matches sympy's at 30 digits."""

import functools
import gc
import math
import weakref
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_array_equal

from nilharmonics.distributions import flat_top_profile
from nilharmonics.group_core import (
    GroupSpec, HomogeneousNorm, abelian, heisenberg, weight_field,
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
        acc = acc + poly.eval(theta) * field.profile.eval_deriv(k, u)[k]
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


@pytest.mark.parametrize("g, k", [
    (lambda u: 3 * u + (u * -1).exp(), 0),  # a varying derivative
    (lambda u: 3 * u, 1),  # a constant derivative, broadcast
    (lambda u: u, 0),  # the derivative is u itself
])
def test_uncapped_eval_deriv_is_a_fresh_array_of_u(g, k):
    prof = Profile(g)
    u = np.linspace(-2.0, 3.0, 12).reshape(3, 4)
    kept = u.copy()
    derivs = prof.eval_deriv(k, u)
    got = derivs[k]
    want = np.asarray(prof.deriv_fn(k)(kept)[k], dtype=float) \
        * np.ones_like(u)
    for d in derivs:
        assert d.shape == u.shape and d.dtype == float
        assert d.flags.writeable and not np.shares_memory(d, u)
    assert_array_equal(got, want)
    got += 1.0
    assert_array_equal(u, kept)


def test_poly_eval_is_nested_horner():
    # x^4 + 2.5 x^2 y + y^3 + 1 is Horner in x over the coefficients
    # 1, 2.5 y and y^3 + 1, which are Horner in y themselves
    x, y = (Polynomial.coordinate(2, k) for k in range(2))
    poly = x * x * x * x + Fraction(5, 2) * (x * x * y) + y * y * y + 1
    theta = np.random.default_rng(5).uniform(-3.0, 3.0, (7, 2))
    a, b = theta[..., 0], theta[..., 1]
    want = (((a * a + 2.5 * b) * a) * a) + ((b * b) * b + 1.0)
    assert_array_equal(poly.eval(theta), want)


def test_eval_keeps_no_reference_to_the_points():
    # each evaluation frees its points as soon as its caller drops them,
    # without waiting for the cycle collector: a batch of points can be
    # megabytes, and convolve evaluates one batch after another
    field = SmoothField(BASE, gaussian_profile(width=1.3),
                        {0: Polynomial.constant(N3, 2.5),
                         1: Polynomial.coordinate(N3, 0) + 1})
    gc.disable()
    try:
        for f in (BASE.eval, field.eval):
            theta = THETA.copy()
            ref = weakref.ref(theta)
            f(theta)
            del theta
            assert ref() is None
    finally:
        gc.enable()


@st.composite
def float_polynomials(draw):
    """A sparse polynomial with float coefficients in n <= 6 variables, of
    total degree <= 6: at most 8 monomials, and the zero polynomial and
    the constants among them."""
    n = draw(st.integers(1, 6))
    monomial = st.lists(st.integers(0, n - 1), max_size=6).map(
        lambda ks: tuple(ks.count(k) for k in range(n)))
    coeffs = draw(st.dictionaries(monomial, st.floats(
        -8.0, 8.0, allow_nan=False, allow_subnormal=False), max_size=8))
    return Polynomial(n, coeffs)


@settings(max_examples=60, deadline=None)
@given(float_polynomials(), st.sampled_from([(), (7,), (4, 1)]),
       st.booleans(), st.integers(0, 2 ** 16))
def test_poly_eval_is_within_the_horner_bound(poly, batch, coordinate_major,
                                              seed):
    # against exact Fraction evaluation at the float points: nested Horner
    # rounds each term at most 2 deg + n times, within 4 deg eps sum |c
    # theta^e| (Higham, Accuracy and Stability of Numerical Algorithms,
    # 2nd ed., SIAM 2002, sec. 5.1)
    n = poly.n
    coords = np.random.default_rng(seed).normal(scale=2.0, size=(n, *batch))
    theta = np.moveaxis(coords, 0, -1) if coordinate_major \
        else np.ascontiguousarray(np.moveaxis(coords, 0, -1))
    kept = theta.copy()
    got = poly.eval(theta)
    assert got.shape == batch and got.dtype == float
    assert_array_equal(theta, kept)
    deg = max((sum(e) for e in poly.coeffs), default=0)
    for idx in np.ndindex(batch):
        point = [Fraction(float(t)) for t in theta[idx]]
        terms = [Fraction(c) * math.prod(t ** p for t, p in zip(point, e))
                 for e, c in poly.coeffs.items()]
        bound = 4 * deg * np.finfo(float).eps * float(sum(map(abs, terms)))
        # a product that underflows errs by up to one subnormal unit more,
        # which later products by theta scale (Higham, sec. 2.1)
        bound += (2 * deg + n) * len(poly.coeffs) \
            * np.finfo(float).smallest_subnormal \
            * max(1.0, float(np.max(np.abs(theta[idx]), initial=0.0))) ** deg
        assert abs(Fraction(float(got[idx])) - sum(terms)) <= bound


@pytest.mark.parametrize("terms", [
    {0: Polynomial.constant(N3, 2.5)},
    {0: Polynomial.constant(N3, 2.5),
     1: Polynomial.coordinate(N3, 0) * Polynomial.coordinate(N3, 2) + 1,
     2: Polynomial.coordinate(N3, 1)},
], ids=["constant-only", "several-terms"])
@pytest.mark.parametrize("theta", [THETA[0, 0], THETA[0, :1]],
                         ids=["0-d", "one-point"])
def test_field_eval_is_a_fresh_array_of_the_batch(terms, theta):
    field = SmoothField(BASE, gaussian_profile(width=1.3), terms)
    kept = theta.copy()
    got = field.eval(theta)
    assert isinstance(got, np.ndarray) and got.dtype == float
    assert got.shape == theta.shape[:-1]
    assert got.flags.writeable and not np.shares_memory(got, theta)
    assert_array_equal(got, explicit_sum(field, kept))
    got += 1.0
    assert_array_equal(theta, kept)


def test_each_branch_sees_only_its_own_points():
    seen = []

    def g(u):
        seen.append(np.size(u.c[0]))
        return 3.0

    grid = np.linspace(0.0, 2.0, 9)
    piecewise = Profile([(lambda u: 2.0, lambda u: u <= 0.5),
                         (g, lambda u: u < 1)])
    assert_array_equal(piecewise.eval_deriv(0, grid)[0],
                       [2, 2, 2, 3, 0, 0, 0, 0, 0])
    capped = Profile(g, support_cap=1.0)
    assert_array_equal(capped.eval_deriv(0, grid)[0],
                       [3, 3, 3, 3, 0, 0, 0, 0, 0])
    assert seen == [1, 4]


def bump(u):
    """The jet of 1.5 exp(1 + 1/(u - 1)), written with the base 1 - u > 0
    below the cap."""
    return 1.5 * (1 - (1 - u) ** -1).exp()


@pytest.mark.parametrize("prof, uncapped, cap", [
    (Profile(bump, support_cap=1.0), Profile(bump), 1.0),
    (poly_bump_profile(2.0, 6), Profile(lambda u: 2.0 * (1 - u) ** 6), 1.0),
    (flat_top_profile(), Profile(list(flat_top_profile().expr)), 2.0),
], ids=["bump", "poly_bump", "flat_top"])
def test_capped_profiles_equal_the_masked_reference(prof, uncapped, cap):
    # the reference evaluates the uncapped branches where u < cap and is 0
    # elsewhere
    u = np.concatenate([[0.0, 1.0, 2.0, cap, cap - 1e-11, cap + 1e-12],
                        np.linspace(-0.5, 3.0, 1001)])
    mask = u < cap
    inside = uncapped.eval_deriv(2, u[mask])
    for got, below in zip(prof.eval_deriv(2, u), inside):
        want = np.zeros_like(u)
        want[mask] = below
        assert_array_equal(got, want)


# -- the jets against sympy --------------------------------------------------

U = sympy.Symbol("u")
ORDER = 6  # g^(k) for k <= ORDER
NORMS = {1: HomogeneousNorm(abelian(1)), 2: HomogeneousNorm(heisenberg()),
         3: HomogeneousNorm(GroupSpec(name="weights_1_3", weights=(1, 3)))}
SCALE = st.floats(0.1, 10.0)
# a subnormal exponent makes every g^(k) subnormal, where no float has
# 12 digits
EXPONENT = st.floats(-8.0, 8.0, allow_subnormal=False)


def omega_family(M):
    """omega_mu on a gauge with exponent 2M, in the closed form of
    group_core.weight_field."""
    mu = sympy.Symbol("mu")
    x = U ** sympy.Rational(1, 2 * M)
    # expanded in powers of x, which keeps the derivatives small
    bridge = sympy.expand(1 + 6 * (x - 1) ** 3 - 8 * (x - 1) ** 4
                          + 3 * (x - 1) ** 5)
    return ({"mu": EXPONENT},
            lambda mu: weight_field(NORMS[M], mu).profile,
            [(2 ** mu, lambda u: u <= 1),
             ((1 + bridge) ** mu, lambda u: u < 2 ** (2 * M)),
             ((1 + x) ** mu, lambda u: True)],
            None, [1.0, 2.0 ** (2 * M)], 2.0 ** (2 * M + 1))


def families():
    """name -> (parameter strategies, profile builder, sympy branches
    (expression, first-match condition), support cap, branch points, the
    top of the u range)."""
    c, p, s, w, q = sympy.symbols("c p s w q")
    v = U - 1
    return {
        "power": ({"c": SCALE, "p": EXPONENT},
                  lambda c, p: Profile(lambda u: c * (1 + u) ** p),
                  [(c * (1 + U) ** p, lambda u: True)], None, [], 50.0),
        "gaussian": ({"s": SCALE, "w": st.floats(0.2, 5.0)},
                     lambda s, w: gaussian_profile(s, w),
                     [(s * sympy.exp(-U / (2 * w ** 2)), lambda u: True)],
                     None, [], 20.0),
        "capped_power": ({"s": SCALE, "q": st.floats(0.05, 8.0)},
                         lambda s, q: poly_bump_profile(s, q),
                         [(s * (1 - U) ** q, lambda u: True)], 1.0, [1.0],
                         1.5),
        "flat_top": ({}, flat_top_profile,
                     [(sympy.Integer(1), lambda u: u <= 1),
                      (1 - (10 * v ** 3 - 15 * v ** 4 + 6 * v ** 5),
                       lambda u: True)], 2.0, [1.0, 2.0], 3.0),
        "omega_M1": omega_family(1),
        "omega_M2": omega_family(2),
        "omega_M3": omega_family(3),
        "bump": ({"s": SCALE},
                 lambda s: Profile(lambda u: s * (1 - (1 - u) ** -1).exp(),
                                   support_cap=1.0),
                 [(s * sympy.exp(1 + 1 / (U - 1)), lambda u: True)], 1.0,
                 [1.0], 1.5),
    }


FAMILIES = families()


@functools.cache
def oracle(name):
    """Per branch, g^(k) for k <= ORDER as mpmath functions of u and the
    family's parameters, in the order of their strategies.

    Each g^(k) is differentiated from g itself: sympy then keeps the common
    factor of c (1 +- u)^p in front of a polynomial in p, an exact 0 at an
    integer p < k.  Repeated differentiation expands that polynomial into
    terms of size |1 +- u|^(p - k), which cancel only to 30 digits."""
    strategies, _, branches, *_ = FAMILIES[name]
    params = sympy.symbols(list(strategies))
    out = []
    for expr, _ in branches:
        derivs = [sympy.diff(expr, U, k) for k in range(ORDER + 1)]
        out.append(sympy.lambdify((U, *params), derivs, modules="mpmath",
                                  cse=True))
    return out


def points(joins, top):
    """Each branch point and the points 1e-12 and 1e-9 away on both of its
    sides, 9 even points of [0, top], so that the largest |g^(k)| of a draw
    is the profile's own scale, and up to 8 random points of [0, top]."""
    near = [b + d for b in joins for d in (-1e-9, -1e-12, 0.0, 1e-12, 1e-9)]
    return st.lists(st.floats(0.0, top), max_size=8).map(
        lambda drawn: np.array(near + list(np.linspace(0.0, top, 9))
                               + drawn))


@pytest.mark.parametrize("name", list(FAMILIES))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_jet_derivatives_match_sympy(name, data):
    # each branch's derivative at 30 digits on the points where it is the
    # first to hold, and 0 at or past the cap; the error of g^(k) is at most
    # 1e-12 of the largest |g^(k)| of the draw
    strategies, build, branches, cap, joins, top = FAMILIES[name]
    params = {key: data.draw(strat, label=key)
              for key, strat in strategies.items()}
    u = data.draw(points(joins, top), label="u")
    want = np.zeros((ORDER + 1, u.size))
    with mpmath.workdps(30):
        for i, point in enumerate(u):
            if cap is not None and point >= cap:
                continue
            derivs = oracle(name)[next(b for b, (_, holds) in enumerate(
                branches) if holds(point))]
            want[:, i] = [float(d) for d in derivs(*map(
                mpmath.mpf, (point, *params.values())))]
    got = build(**params).eval_deriv(ORDER, u)
    for k in range(ORDER + 1):
        assert np.max(np.abs(got[k] - want[k])) \
            <= 1e-12 * np.max(np.abs(want[k]))


@pytest.mark.parametrize("spec", [abelian(1), heisenberg()],
                         ids=["R1", "heisenberg"])
@pytest.mark.parametrize("mu", [5, -5.5])
def test_weight_equals_the_whole_expression_lambdify(spec, mu):
    # omega's branch-wise jets against one sympy Piecewise of its closed
    # form, differentiated whole and evaluated at 30 digits; 0 where the
    # Piecewise's derivative is 0
    norm = HomogeneousNorm(spec)
    M = norm.M
    _, _, branches, *_ = omega_family(M)
    value = {sympy.Symbol("mu"): sympy.nsimplify(mu)}
    whole = sympy.Piecewise(*zip((e.subs(value) for e, _ in branches),
                                 (U <= 1, U < 2 ** (2 * M), True)))
    rng = np.random.default_rng(7)
    u = np.concatenate([[0.0, 1.0, 2.0 ** (2 * M)],
                        rng.uniform(0.0, 2.0 ** (2 * M + 1), 4096),
                        rng.uniform(0.0, 1e6, 64)])
    got = weight_field(norm, mu).profile.eval_deriv(2, u)
    for k in range(3):
        deriv = sympy.lambdify(U, sympy.diff(whole, U, k), modules="mpmath")
        with mpmath.workdps(30):
            want = np.array([float(deriv(mpmath.mpf(p))) for p in u])
        np.testing.assert_allclose(got[k], want, rtol=1e-11, atol=0.0)


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
