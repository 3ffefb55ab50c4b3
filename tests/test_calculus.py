import numpy as np
import pytest
from fractions import Fraction
from numpy.testing import assert_allclose

from nilharmonics import calculus
from nilharmonics.calculus import (
    OperatorWord, build_conversion, build_field, central_difference,
    conversion_residual, convolution_identity_residuals, euclidean_expansion,
    fundlink_residual, integrate_by_parts_residual, leibniz_tilde_coeff,
    multi_indices_upto,
)
from nilharmonics.group_core import GroupSpec, abelian, heisenberg, \
    random_step2
from nilharmonics.polynomials import (
    Polynomial, Profile, SmoothField, gaussian_profile, poly_bump_profile,
)
from nilharmonics.quadrature import Grid, convolve


def mono(n, exps):
    return Polynomial(n, {tuple(exps): 1})


def heis_bump(shift=(0.0, 0.0, 0.0), radius=2.0, profile=None):
    """Smooth compactly supported bump on the Heisenberg group, support in
    the euclidean ball of the given radius around shift."""
    n = 3
    base = Polynomial.zero(n)
    for k in range(n):
        sq = Polynomial(n, {tuple(2 * int(j == k) for j in range(n)): 1})
        lin = Polynomial(n, {tuple(int(j == k) for j in range(n)):
                             Fraction(-2 * shift[k]).limit_denominator(10 ** 6)})
        base = base + sq + lin
    base = base + Polynomial.constant(
        n, Fraction(sum(s * s for s in shift)).limit_denominator(10 ** 6))
    scaled = Polynomial(n, {e: c / Fraction(radius) ** 2
                            for e, c in base.coeffs.items()})
    # exp(1 + 1/(u - 1)), with the base 1 - u > 0 below the cap
    return SmoothField(scaled, profile or Profile(
        lambda u: (1 - (1 - u) ** -1).exp(), support_cap=1.0, name="bump"))


class TestFields:
    def test_abelian_fields_are_partials(self):
        G = abelian(3)
        for j in range(3):
            X = build_field(G, "left", j)
            for k in range(3):
                want = 1 if k == j else 0
                assert X.coeffs[k].constant_term() == want
                assert X.coeffs[k].is_constant()

    @pytest.mark.parametrize("G", [abelian(2), heisenberg()],
                             ids=["abelian", "heisenberg"])
    def test_unknown_side_rejected(self, G):
        # refused before the structure terms are read, so also on a group
        # that has none
        with pytest.raises(ValueError, match="unknown side"):
            calculus.InvariantField(G, "bogus", 0)

    def test_heisenberg_left_fields(self):
        # X1 = dx - (y/2) dt, X2 = dy + (x/2) dt, X3 = dt
        G = heisenberg()
        X1, X2, X3 = (build_field(G, "left", j) for j in range(3))
        pts = np.random.default_rng(0).uniform(-2, 2, (5, 3))
        assert_allclose(X1.coeffs[2].eval(pts), -pts[:, 1] / 2)
        assert_allclose(X2.coeffs[2].eval(pts), pts[:, 0] / 2)
        assert X3.coeffs[2].is_constant() and X3.coeffs[0].is_zero()

    def test_left_right_agree_at_identity(self):
        G = random_step2(3, 2, seed=1)
        zero = np.zeros(G.n)
        for j in range(G.n):
            L = build_field(G, "left", j)
            R = build_field(G, "right", j)
            for k in range(G.n):
                assert_allclose(L.coeffs[k].eval(zero),
                                R.coeffs[k].eval(zero))

    def test_graded_coefficients(self):
        G = random_step2(3, 2, seed=2)
        for side in ("left", "right"):
            for j in range(G.n):
                F = build_field(G, side, j)
                for k, p in enumerate(F.coeffs):
                    if p.is_zero():
                        continue
                    assert G.weights[k] >= G.weights[j]
                    if k != j:
                        assert G.weights[k] > G.weights[j]
                        assert p.is_homogeneous(
                            G.weights, G.weights[k] - G.weights[j])


class TestWords:
    def test_empty_word_is_identity(self):
        G = heisenberg()
        f = mono(3, (1, 1, 0))
        w = OperatorWord(G, "X", (0, 0, 0))
        pts = np.random.default_rng(1).uniform(-1, 1, (4, 3))
        assert_allclose(w.apply(f, pts), f.eval(pts))

    def test_x1_on_t(self):
        # X1 t = -(y/2), so at (0, 1, 0) the value is -1/2
        G = heisenberg()
        w = OperatorWord(G, "X", (1, 0, 0))
        assert_allclose(w.apply(mono(3, (0, 0, 1)), [0.0, 1.0, 0.0]), -0.5)

    @pytest.mark.parametrize("kind", ["X", "Xt", "Y", "Yt"])
    @pytest.mark.parametrize("alpha", [(1, 0, 0), (1, 1, 0), (2, 0, 1)])
    def test_symbolic_vs_fd_on_polynomials(self, kind, alpha):
        G = heisenberg()
        rng = np.random.default_rng(3)
        f = Polynomial(3, {(2, 1, 0): 1.5, (0, 0, 2): -2.0, (1, 1, 1): 0.5})
        w = OperatorWord(G, kind, alpha)
        pts = rng.uniform(-2, 2, (6, 3))
        exact = w.apply_symbolic(f).eval(pts)
        fd = w.as_callable(lambda p: f.eval(p))(pts)
        assert_allclose(fd, exact, atol=2e-6 * (1 + np.abs(exact).max()))

    @pytest.mark.parametrize("kind", ["X", "Xt", "Y", "Yt"])
    def test_nested_stencil_calls_its_operand_once(self, kind):
        # X1 and Y1 have two nonzero coefficients on the Heisenberg group:
        # every stencil point of the length-2 word comes in one call
        shapes = []

        def f(p):
            shapes.append(p.shape)
            return np.cos(p[..., 0]) * p[..., 2]

        word = OperatorWord(heisenberg(), kind, (1, 1, 0))
        word.as_callable(f)(np.zeros((5, 3)))
        assert shapes == [(2, 4, 2, 4, 5, 3)]
        word.as_callable(f)(np.zeros(3))
        assert shapes[1:] == [(2, 4, 2, 4, 3)]

    @pytest.mark.parametrize("kind", ["X", "Xt", "Y", "Yt"])
    def test_as_callable_is_exact_on_smooth_fields(self, kind):
        w = OperatorWord(heisenberg(), kind, (1, 0, 1))
        f = heis_bump()
        pts = np.random.default_rng(8).uniform(-1, 1, (7, 3))
        assert np.array_equal(w.as_callable(f)(pts),
                              w.apply_symbolic(f).eval(pts))

    def test_left_invariance(self):
        G = heisenberg()
        rng = np.random.default_rng(4)
        zeta = rng.uniform(-1, 1, 3)
        f = heis_bump()
        w = OperatorWord(G, "X", (1, 1, 0))
        pts = rng.uniform(-0.6, 0.6, (5, 3))
        lhs = w.apply(lambda p: f.eval(p), G.multiply(zeta, pts))
        rhs = w.apply(lambda p: f.eval(G.multiply(zeta, p)), pts)
        assert_allclose(lhs, rhs, atol=1e-6)

    def test_right_invariance(self):
        G = heisenberg()
        rng = np.random.default_rng(5)
        zeta = rng.uniform(-1, 1, 3)
        f = heis_bump()
        w = OperatorWord(G, "Y", (0, 1, 0))
        pts = rng.uniform(-0.6, 0.6, (5, 3))
        lhs = w.apply(lambda p: f.eval(p), G.multiply(pts, zeta))
        rhs = w.apply(lambda p: f.eval(G.multiply(p, zeta)), pts)
        assert_allclose(lhs, rhs, atol=1e-6)

    def test_leibniz_recursive(self):
        # product rule under a word, expanded one field at a time; exact on
        # polynomial pairs
        G = heisenberg()
        phi = Polynomial(3, {(1, 0, 0): 1, (0, 0, 1): Fraction(1, 2)})
        psi = Polynomial(3, {(0, 2, 0): 1, (1, 0, 0): -1})
        w = OperatorWord(G, "X", (1, 1, 1))
        pairs = [(phi, psi)]
        for field in reversed(w.fields):
            pairs = [q for a, b in pairs
                     for q in ((field.apply_symbolic(a), b),
                               (a, field.apply_symbolic(b)))]
        lhs = w.apply_symbolic(phi * psi)
        rhs = None
        for a, b in pairs:
            rhs = a * b if rhs is None else rhs + a * b
        assert (lhs - rhs).is_zero()

    def test_tilde_leibniz_coefficients(self):
        assert leibniz_tilde_coeff((2, 1, 0), (1, 0, 0)) == 2
        assert leibniz_tilde_coeff((2, 1, 0), (1, 1, 0)) == 2
        assert leibniz_tilde_coeff((1, 0, 0), (0, 1, 0)) == 0
        # block structure: sum over iota <= beta of the coefficients is
        # 2^{|beta|}, the subset count
        beta = (2, 1, 1)
        total = sum(leibniz_tilde_coeff(beta, i)
                    for i in multi_indices_upto(3, sum(beta))
                    if all(a <= b for a, b in zip(i, beta)))
        assert total == 2 ** sum(beta)


class TestConversion:
    def test_abelian_trivial(self):
        G = abelian(3)
        for alpha in [(1, 0, 0), (1, 1, 0), (0, 2, 1)]:
            table = build_conversion(G, alpha).table
            assert set(table) == {alpha}
            assert table[alpha].is_constant()
            assert table[alpha].constant_term() == 1

    def test_heisenberg_first_order(self):
        # tilde-Y1 = X1 + y X3
        G = heisenberg()
        table = build_conversion(G, (1, 0, 0)).table
        assert set(table) == {(1, 0, 0), (0, 0, 1)}
        assert table[(1, 0, 0)].constant_term() == 1
        assert table[(0, 0, 1)].coeffs == {(0, 1, 0): 1}

    @pytest.mark.parametrize("alpha", [(1, 0, 0), (0, 1, 0), (1, 1, 0),
                                       (2, 0, 0), (1, 1, 1), (0, 0, 2)])
    def test_monomial_oracle_heisenberg(self, alpha):
        assert conversion_residual(heisenberg(), alpha) == 0.0

    def test_monomial_oracle_step2(self):
        G = random_step2(2, 1, seed=7)
        for alpha in [(1, 0, 0), (1, 1, 0), (0, 1, 1)]:
            assert conversion_residual(G, alpha) == 0.0

    def test_homogeneity(self):
        G = heisenberg()
        for alpha in [(1, 0, 0), (1, 1, 0), (2, 1, 0)]:
            ct = build_conversion(G, alpha)
            for beta, q in ct.table.items():
                assert sum(beta) <= sum(alpha)
                assert G.mdeg(beta) >= G.mdeg(alpha)
                assert q.is_homogeneous(G.weights,
                                        G.mdeg(beta) - G.mdeg(alpha))

    def test_smooth_operand(self):
        G = heisenberg()
        f = heis_bump()
        ct = build_conversion(G, (1, 1, 0))
        pts = np.random.default_rng(6).uniform(-0.8, 0.8, (6, 3))
        lhs = OperatorWord(G, "Yt", (1, 1, 0)).apply_symbolic(f).eval(pts)
        rhs = ct.apply_symbolic(f).eval(pts)
        assert_allclose(rhs, lhs, atol=1e-6 * (1 + np.abs(lhs).max()))

    def test_max_order_guard(self):
        with pytest.raises(ValueError):
            build_conversion(heisenberg(), (2, 2, 0))

    def test_max_order_guard_after_cached_call(self):
        # a table of order 4 in the cache is still refused
        G = heisenberg()
        calculus._conversion_table(G, (2, 2, 0))
        with pytest.raises(ValueError):
            build_conversion(G, (2, 2, 0))


@pytest.mark.parametrize("alpha", [(0.5, 0, 0), (0.7, 0, 0), (-1, 0, 0),
                                   (1, 0), (1, 0, 0, 0), ("1", 0, 0),
                                   (float("nan"), 0, 0)],
                         ids=["half", "fractional", "negative", "short",
                              "long", "string", "nan"])
def test_words_and_conversions_refuse_a_bad_multi_index(alpha):
    # a fractional entry was truncated: the word of (0.5, 0, 0) was the
    # empty word, and the table of (0.7, 0, 0) the identity
    with pytest.raises(ValueError, match="bad multi-index"):
        OperatorWord(heisenberg(), "X", alpha)
    with pytest.raises(ValueError, match="bad multi-index"):
        build_conversion(heisenberg(), alpha)


class TestCaches:
    def test_equal_specs_share_fields_and_tables(self):
        assert build_field(heisenberg(), "left", 0) \
            is build_field(heisenberg(), "left", 0)
        assert build_conversion(heisenberg(), (1, 0, 0)) \
            is build_conversion(heisenberg(), [1, 0, 0])

    def test_cache_is_keyed_by_value_not_name(self):
        e1, e2 = (1, 0, 0), (0, 1, 0)
        other = GroupSpec(name="heisenberg", weights=(1, 1, 2),
                          structure=[((2, e1, e2), Fraction(1)),
                                     ((2, e2, e1), Fraction(-1))])
        mine = build_field(other, "left", 0)
        theirs = build_field(heisenberg(), "left", 0)
        assert mine is not theirs
        assert mine.coeffs[2].coeffs == {e2: Fraction(-1)}
        assert theirs.coeffs[2].coeffs == {e2: Fraction(-1, 2)}


class TestCentralDifference:
    @pytest.mark.parametrize("order, degree", [(1, 4), (2, 5)])
    def test_exact_on_polynomials(self, order, degree):
        # the error term is h^4 times the derivative of order `order + 4`,
        # which vanishes on polynomials of degree order + 3
        p = np.polynomial.Polynomial([0.7, -1.3, 2.1, 0.4, -0.9,
                                      0.6][:degree + 1])
        x0, h = 0.37, 0.125
        got = central_difference(lambda m: p(x0 + m * h), h, order)
        assert_allclose(got, p.deriv(order)(x0), rtol=1e-12)

    def test_other_orders_refused(self):
        with pytest.raises(ValueError):
            central_difference(lambda m: 0.0, 0.1, 3)


def _smooth(x):
    """A plain callable, rational in the coordinates, so that every value
    is a fixed sequence of correctly rounded operations."""
    r2 = sum(x[..., k] * x[..., k] for k in range(x.shape[-1]))
    return (x[..., 0] - 0.5 * x[..., 1] * x[..., -1]) / (1.0 + r2)


def _counting(F):
    calls = []

    def spy(x):
        calls.append(np.shape(x))
        return F(x)

    return spy, calls


class TestSharedStencils:
    @pytest.mark.parametrize("G, alphas", [
        (heisenberg(), [a for a in multi_indices_upto(3, 2) if sum(a)]),
        (random_step2(3, 2, 11), [(1, 0, 1, 0, 0), (0, 1, 0, 0, 1)]),
    ], ids=["heisenberg", "random_step2"])
    def test_each_word_as_if_applied_alone(self, G, alphas):
        # F is read once, and every word gets the values its own stencil
        # would have read, bit for bit
        etas = np.random.default_rng(3).uniform(-1.0, 1.0, (2, G.n))
        for alpha in alphas:
            words = [OperatorWord(G, kind, alpha)
                     for kind in ("X", "Xt", "Y", "Yt")]
            spy, calls = _counting(_smooth)
            got = calculus._fd_words(words, spy, etas)
            assert len(calls) == 1
            for word, value in zip(words, got):
                assert np.array_equal(value,
                                      word.as_callable(_smooth)(etas))

    def test_partial_overlap(self):
        # X_1 moves along d1 and d3, Y_2 along d2 and d3: the 4 points of
        # the d3 stencil are shared, so 16 stencil points are 12 distinct
        G = heisenberg()
        words = [OperatorWord(G, "X", (1, 0, 0)),
                 OperatorWord(G, "Y", (0, 1, 0))]
        etas = np.array([0.3, -0.2, 0.1])
        spy, calls = _counting(_smooth)
        got = calculus._fd_words(words, spy, etas)
        assert calls == [(12, 3)]
        for word, value in zip(words, got):
            assert np.array_equal(value, word.as_callable(_smooth)(etas))

    def test_zero_word_reads_F_at_etas(self):
        G = heisenberg()
        etas = np.array([[0.3, -0.2, 0.1], [0.0, 0.5, -0.4]])
        spy, calls = _counting(_smooth)
        zero, x1 = calculus._fd_words([OperatorWord(G, "X", (0, 0, 0)),
                                       OperatorWord(G, "X", (1, 0, 0))],
                                      spy, etas)
        assert calls == [(18, 3)]
        assert np.array_equal(zero, _smooth(etas))
        assert np.array_equal(
            x1, OperatorWord(G, "X", (1, 0, 0)).as_callable(_smooth)(etas))


class TestFundlink:
    def test_abelian_collapse(self):
        G = abelian(2)
        f = Polynomial(2, {(3, 1): 1, (0, 2): -2})
        pts = np.random.default_rng(7).uniform(-2, 2, (5, 2))
        assert fundlink_residual(G, (1, 1), [f], pts) == 0.0

    @pytest.mark.parametrize("alpha", [(1, 0, 0), (0, 1, 0), (1, 1, 0),
                                       (0, 0, 1), (2, 1, 0)])
    def test_heisenberg_polynomials(self, alpha):
        G = heisenberg()
        tests = [Polynomial(3, {g: 1})
                 for g in multi_indices_upto(3, 4)]
        pts = np.random.default_rng(8).uniform(-1.5, 1.5, (4, 3))
        assert fundlink_residual(G, alpha, tests, pts) < 1e-10

    def test_heisenberg_smooth(self):
        G = heisenberg()
        f = heis_bump()
        pts = np.random.default_rng(9).uniform(-0.7, 0.7, (5, 3))
        assert fundlink_residual(G, (1, 1, 0), [f], pts) < 1e-6


class TestIntegralIdentities:
    def test_by_parts_zero_word(self):
        G = abelian(1)
        grid = Grid([0.0], [8.0], 201)
        f = SmoothField(mono(1, (2,)), gaussian_profile(1.0, 1.0))
        assert integrate_by_parts_residual(G, "X", (0,), f, f, grid) == 0.0

    def test_by_parts_abelian_gaussians(self):
        G = abelian(1)
        grid = Grid([0.0], [8.0], 201)
        f = SmoothField(mono(1, (2,)), gaussian_profile(1.0, 1.0))
        g = SmoothField(mono(1, (2,)),
                        gaussian_profile(1.0, 1.2))
        assert integrate_by_parts_residual(G, "X", (1,), f, g, grid) < 1e-8

    @pytest.mark.parametrize("kind", ["X", "Y"])
    def test_by_parts_heisenberg(self, kind):
        G = heisenberg()
        grid = Grid([0.0] * 3, 2.1, 61)
        f = heis_bump(shift=(0.2, 0.0, -0.1), radius=1.6,
                      profile=poly_bump_profile())
        g = heis_bump(shift=(-0.1, 0.15, 0.0), radius=1.6,
                      profile=poly_bump_profile())
        res = integrate_by_parts_residual(G, kind, (1, 1, 0), f, g, grid)
        assert res < 1e-5

    def test_convolution_identities_zero_word(self):
        G = abelian(1)
        grid = Grid([0.0], [8.0], 201)
        f = SmoothField(mono(1, (2,)), gaussian_profile(1.0, 1.0))
        res = convolution_identity_residuals(G, (0,), f, f, grid,
                                             [[0.3], [-0.5]])
        assert all(v == 0.0 for v in res.values())

    def test_convolution_identities_abelian(self):
        G = abelian(1)
        grid = Grid([0.0], [9.0], 301)
        f = SmoothField(mono(1, (2,)), gaussian_profile(1.0, 1.0))
        g = SmoothField(mono(1, (2,)), gaussian_profile(1.0, 1.2))
        res = convolution_identity_residuals(G, (1,), f, g, grid,
                                             [[0.4], [-0.8]])
        assert max(res.values()) < 1e-6

    def test_convolution_identities_convolve_once_per_side(self,
                                                           monkeypatch):
        # each side of each identity is one convolve call, over every
        # stencil point of a finite-difference word at once, and the two
        # words over f*g share one call on the distinct points of both
        calls = []

        def spy(*args, **kwargs):
            calls.append(np.shape(args[3]))
            return convolve(*args, **kwargs)

        monkeypatch.setattr(calculus, "convolve", spy)
        res = convolution_identity_residuals(
            heisenberg(), (2, 0, 0), heis_bump((0.1, 0.0, 0.0), 1.5),
            heis_bump((0.0, -0.1, 0.1), 1.5), Grid([0.0] * 3, 2.1, 13),
            [[0.2, 0.1, -0.1]])
        assert len(calls) == 7
        assert sorted(calls) == [(1, 3)] * 6 + [(64, 3)]
        assert all(np.isfinite(v) for v in res.values())

    def test_convolution_identities_heisenberg(self):
        G = heisenberg()
        grid = Grid([0.0] * 3, 2.1, 41)
        f = heis_bump(shift=(0.1, 0.0, 0.0), radius=1.5,
                      profile=poly_bump_profile())
        g = heis_bump(shift=(0.0, -0.1, 0.1), radius=1.5,
                      profile=poly_bump_profile())
        res = convolution_identity_residuals(G, (0, 1, 0), f, g, grid,
                                             [[0.2, 0.1, -0.1]])
        assert max(res.values()) < 1e-4


class TestEuclideanExpansion:
    def test_x1x2_has_drift_term(self):
        # composing X1 X2 on the Heisenberg group produces the lower-order
        # term (1/2) dt from X1 differentiating the coefficient x/2 of X2
        G = heisenberg()
        op = euclidean_expansion(OperatorWord(G, "X", (1, 1, 0)))
        drift = op[(0, 0, 1)]
        assert drift.coeffs.get((0, 0, 0)) == Fraction(1, 2)
        rev = euclidean_expansion(OperatorWord(G, "Xt", (1, 1, 0)))
        assert rev[(0, 0, 1)].coeffs.get((0, 0, 0)) == Fraction(-1, 2)
