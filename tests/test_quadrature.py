import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from nilharmonics.group_core import HomogeneousNorm, abelian, heisenberg
from nilharmonics.quadrature import (
    Grid, I_rs, approximate_identity, box_grid, check_map,
    convolve, haar_integrate, irs_bound_check, irs_majorant, polar_integrate,
)


def gauss1d(sigma):
    return lambda x: np.exp(-x[..., 0] ** 2 / (2 * sigma ** 2)) \
        / (sigma * np.sqrt(2 * np.pi))


class TestGrid:
    def test_constant_integrates_to_volume(self):
        g = Grid([0.0, 0.0], [2.0, 3.0], 21)
        assert_allclose(np.sum(g.weights), 4.0 * 6.0, rtol=1e-12)

    def test_simpson_exact_on_cubics(self):
        g = Grid([0.5], [1.5], 11)
        vals = g.points[..., 0] ** 3 - 2 * g.points[..., 0]
        # [DERIVED] antiderivative x^4/4 - x^2 on [-1, 2]
        assert_allclose(np.sum(vals * g.weights), 15.0 / 4.0 - 3.0,
                        rtol=1e-12)

    def test_graded_axis_still_integrates(self):
        g = Grid([0.0], [10.0], 81, grading=3.0)
        vals = 1.0 / (1.0 + g.points[..., 0] ** 2)
        assert_allclose(np.sum(vals * g.weights),
                        2.0 * np.arctan(10.0), rtol=1e-6)

    def test_nan_rejected(self):
        g = Grid([0.0], [1.0], 11)
        with pytest.raises(ValueError):
            haar_integrate(lambda p: p[..., 0] / p[..., 0], g)


class TestHaar:
    def test_ball_volumes_calibrated(self):
        G = heisenberg()
        N = HomogeneousNorm(G, "koranyi")
        cal = N.calibration()
        g1 = box_grid(G, 1.0, 121, rule="midpoint")
        vol1 = haar_integrate(lambda p: (N(p) <= 1.0).astype(float), g1, cal)
        assert_allclose(vol1, 1.0, rtol=1e-2)
        g2 = box_grid(G, 2.0, 121, rule="midpoint")
        vol2 = haar_integrate(lambda p: (N(p) <= 2.0).astype(float), g2, cal)
        assert_allclose(vol2, 2.0 ** 4, rtol=1e-2)

    def test_bi_invariance(self):
        G = heisenberg()
        f = lambda p: np.exp(-2.0 * np.sum(p ** 2, axis=-1))
        grid = Grid([0.0] * 3, 4.0, 81)
        base = haar_integrate(f, grid)
        rng = np.random.default_rng(0)
        zeta = rng.uniform(-0.5, 0.5, 3)
        left = haar_integrate(lambda p: f(G.multiply(zeta, p)), grid)
        right = haar_integrate(lambda p: f(G.multiply(p, zeta)), grid)
        assert_allclose(left, base, rtol=1e-3)
        assert_allclose(right, base, rtol=1e-3)


class TestConvolve:
    def test_gaussian_semigroup_r1(self):
        G = abelian(1)
        grid = Grid([0.0], [12.0], 801)
        xs = np.linspace(-3, 3, 25)[:, None]
        got = convolve(G, gauss1d(1.0), gauss1d(1.5), xs, grid)
        # [DERIVED] N(0,1) * N(0,2.25) = N(0,3.25)
        want = gauss1d(np.sqrt(3.25))(xs)
        assert np.max(np.abs(got - want)) < 1e-6

    def test_two_forms_agree(self):
        G = heisenberg()
        f = lambda p: np.exp(-2.0 * np.sum(p ** 2, axis=-1))
        g = lambda p: np.exp(-2.0 * np.sum((p - 0.2) ** 2, axis=-1))
        grid = Grid([0.0] * 3, 3.5, 81)
        eta = np.array([0.3, -0.2, 0.1])
        a, b = (convolve(G, f, g, eta, grid, form=form)
                for form in ("first", "second"))
        assert_allclose(a, b, rtol=1e-4)

    def test_unknown_form_raises_on_an_empty_batch(self):
        # the form is checked before any (eta, xi) pair is evaluated
        G = heisenberg()
        f = lambda p: np.ones(p.shape[:-1])
        with pytest.raises(ValueError):
            convolve(G, f, f, np.empty((0, 3)), Grid([0.0] * 3, 1.0, 5),
                     form="bogus")

    @pytest.mark.parametrize("form", ["first", "second"])
    def test_chunk_boundaries(self, form):
        # 25^3 = 15625 grid points do not divide the 2^16-pair chunk, and
        # 11 etas take three chunks (4 + 4 + 3 etas); a batched call must
        # equal the eta-by-eta calls
        G = heisenberg()
        f = lambda p: np.exp(-np.sum(p ** 2, axis=-1)) * (1.0 + p[..., 2])
        g = lambda p: np.exp(-2.0 * np.sum((p - 0.1) ** 2, axis=-1))
        grid = Grid([0.0] * 3, 3.0, 25)
        assert 2 ** 16 % len(grid.flat_points) != 0
        etas = np.random.default_rng(8).uniform(-1, 1, (11, 3))
        batched = convolve(G, f, g, etas, grid, form=form)
        single = np.array([convolve(G, f, g, eta, grid, form=form)
                           for eta in etas])
        assert_allclose(batched, single, rtol=1e-13, atol=0)

    def test_check_identity(self):
        # f*g = (g-check * f-check)-check, two independent quadrature paths
        G = heisenberg()
        f = lambda p: np.exp(-2.0 * np.sum(p ** 2, axis=-1))
        g = lambda p: (1.0 + p[..., 0]) * np.exp(-2.0 * np.sum(p ** 2,
                                                               axis=-1))
        grid = Grid([0.0] * 3, 3.5, 81)
        eta = np.array([0.4, 0.1, -0.2])
        lhs = convolve(G, f, g, eta, grid)
        rhs = convolve(G, check_map(G, g), check_map(G, f), G.inverse(eta),
                       grid)
        assert_allclose(lhs, rhs, rtol=1e-4)

    def test_associativity_r1(self):
        G = abelian(1)
        grid = Grid([0.0], [14.0], 401)
        f, g, h = gauss1d(1.0), gauss1d(0.8), gauss1d(1.2)
        eta = np.array([[0.7]])
        fg = lambda p: convolve(G, f, g, p, grid)
        gh = lambda p: convolve(G, g, h, p, grid)
        lhs = convolve(G, fg, h, eta, grid)
        rhs = convolve(G, f, gh, eta, grid)
        assert np.max(np.abs(lhs - rhs)) < 1e-4


class TestApproximateIdentity:
    def setup_method(self):
        self.G = abelian(1)
        self.grid = Grid([0.0], [1.5], 401)
        self.h = lambda p: np.clip(1.0 - p[..., 0] ** 2, 0.0, None) ** 2
        self.mass = haar_integrate(self.h, self.grid)

    def test_mass_16_15(self):
        # [DERIVED] int (1-x^2)^2 dx over [-1,1] = 16/15
        assert_allclose(self.mass, 16.0 / 15.0, rtol=1e-5)

    @pytest.mark.parametrize("a", [1.0, 0.25, 0.0625])
    def test_unit_mass_all_scales(self, a):
        ha = approximate_identity(self.G, self.h, a, mass=self.mass)
        grid = Grid([0.0], [1.5 * a], 401)
        assert_allclose(haar_integrate(ha, grid), 1.0, rtol=1e-6)

    def test_nonpositive_scale(self):
        with pytest.raises(ValueError):
            approximate_identity(self.G, self.h, 0.0)

    def test_uniform_convergence_lipschitz(self):
        f = lambda p: np.clip(1.0 - np.abs(p[..., 0]), 0.0, None)
        xs = np.linspace(-1.5, 1.5, 31)[:, None]
        errs = []
        for a in [0.4, 0.2, 0.1]:
            ha = approximate_identity(self.G, self.h, a, mass=self.mass)
            grid = Grid([0.0], [a], 201)
            got = convolve(self.G, ha, f, xs, grid)
            errs.append(np.max(np.abs(got - f(xs))))
        assert errs[1] < 0.75 * errs[0] and errs[2] < 0.75 * errs[1]


class TestPolar:
    def setup_method(self):
        self.N = HomogeneousNorm(heisenberg(), "koranyi")

    def test_unit_ball(self):
        # with |B(0,1)| = 1 the sphere mass sigma(S) must be Q, which holds
        # iff int_0^1 sigma(S) r^{Q-1} dr = 1
        one = lambda p: np.ones(p.shape[:-1])
        assert_allclose(polar_integrate(one, self.N, 1.0), 1.0,
                        rtol=1e-2)

    def test_zero(self):
        z = lambda p: np.zeros(p.shape[:-1])
        assert polar_integrate(z, self.N, 2.0) == 0.0

    @pytest.mark.parametrize("s", [1.0, 2.0])
    def test_radial_power_two_paths(self, s):
        # [DERIVED] polar closed form: int_{|eta|<=R} |eta|^s = Q R^{Q+s}/(Q+s)
        f = lambda p: self.N(p) ** s
        got = polar_integrate(f, self.N, 2.0)
        want = 4.0 * 2.0 ** (4.0 + s) / (4.0 + s)
        assert 0.99 < got / want < 1.01
        grid = box_grid(self.N.spec, 2.0, 101, rule="midpoint")
        cart = haar_integrate(
            lambda p: np.where(self.N(p) <= 2.0, f(p), 0.0), grid,
            self.N.calibration())
        assert 0.99 < got / cart < 1.02


class TestIrs:
    def test_r1_origin_oracle(self):
        N = HomogeneousNorm(abelian(1))
        # [DERIVED] int (1+|x|)^{-4} dx = 2/3
        assert_allclose(I_rs(N, -2.0, -2.0, [0.0], count=81), 2.0 / 3.0,
                        rtol=2e-3)

    def test_r1_offset_against_quad(self):
        N = HomogeneousNorm(abelian(1))
        eta = 3.0
        want, _ = quad(lambda x: (1 + abs(x)) ** -2 * (1 + abs(eta - x)) ** -2,
                       -200.0, 200.0, points=[0.0, eta], limit=200)
        # truncation tail < 1e-7, far below the comparison tolerance
        assert_allclose(I_rs(N, -2.0, -2.0, [eta], count=81), want, rtol=2e-3)

    def test_symmetric_at_origin(self):
        N = HomogeneousNorm(heisenberg(), "koranyi")
        z = np.zeros(3)
        a = I_rs(N, -3.0, -2.5, z, count=25)
        b = I_rs(N, -2.5, -3.0, z, count=25)
        assert_allclose(a, b, rtol=1e-6)

    def test_divergent_regime_rejected(self):
        N = HomogeneousNorm(abelian(1))
        with pytest.raises(ValueError):
            I_rs(N, -0.25, -0.25, [0.0])

    def test_heisenberg_regime_one_bounded(self):
        N = HomogeneousNorm(heisenberg(), "koranyi")
        report = irs_bound_check(N, -2.0, -3.0, [0.0, 1.0, 5.0, 20.0, 50.0],
                                 count=21)
        ratios = [row[3] for row in report["rows"]]
        assert report["bounded"]
        assert max(ratios) < 3.0 * ratios[0] + 10.0

    def test_bound_check_misses_a_log(self):
        # r is 1e-9 above -Q, so the majorant has no log while the integral
        # has one: the sup ratio still grows by 15% when eta_max doubles
        N = HomogeneousNorm(heisenberg(), "koranyi")
        report = irs_bound_check(N, -4.0 + 1e-9, -1.5,
                                 np.geomspace(0.25, 64.0, 9), count=21)
        assert np.isfinite(report["sup_ratio"])
        assert not report["bounded"]

    def test_log_regime_needs_log(self):
        # r + Q = 0 regime on the line (with s + Q > 0 so both peaks
        # contribute at the same power): ratio against the bare power grows,
        # against power * log it stays bounded
        N = HomogeneousNorm(abelian(1))
        r, s = -1.0, -0.5
        ts = [1.0, 10.0, 100.0, 1000.0]
        with_log, without_log = [], []
        for t in ts:
            val = I_rs(N, r, s, [t], count=81, max_doublings=26)
            with_log.append(val / irs_majorant(N, r, s, t))
            without_log.append(val * (1.0 + t) ** -max(r, s))
        assert without_log[-1] > 2.0 * without_log[0]
        assert max(with_log) < 2.0 * with_log[0] + 1.0
