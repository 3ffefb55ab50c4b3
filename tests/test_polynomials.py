"""Polynomial and SmoothField evaluation: powers are chains of products
in a fixed order, constant term polynomials are applied as floats, and
uncapped profiles broadcast a constant derivative."""

from fractions import Fraction

import numpy as np
import pytest
import sympy
from numpy.testing import assert_array_equal

from nilharmonics.polynomials import (
    Polynomial, Profile, SmoothField, gaussian_profile,
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
