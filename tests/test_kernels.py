import math

import numpy as np
import pytest
import scipy.integrate as si
import sympy
from numpy.testing import assert_allclose

from nilharmonics.group_core import HomogeneousNorm, abelian, heisenberg
from nilharmonics.kernels import (
    KernelSpec, _sweep_points, certify_RGamma, dilated_field,
    harmonicity_residual, scale_derivative,
)
from nilharmonics.polynomials import Profile, SmoothField
from nilharmonics.quadrature import Grid, approximate_identity, convolve, \
    haar_integrate


def classical(n=1):
    G = abelian(n)
    return KernelSpec(G, HomogeneousNorm(G), "classical_abelian")


def heis_kernel(Gamma=1.0):
    G = heisenberg()
    return KernelSpec(G, HomogeneousNorm(G), "model_power", Gamma=Gamma)


class TestEval:
    def test_r1_at_zero(self):
        # unit mass forces P(0) = 1/pi
        assert_allclose(classical()(np.zeros(1)), 1.0 / np.pi)

    def test_r1_unit_mass(self):
        P = classical()
        # truncation tail is 2/(pi R), so R must dominate the tolerance
        grid = Grid([0.0], [1e6], 4001, grading=14.0)
        assert_allclose(haar_integrate(P, grid), 1.0, atol=1e-4)

    def test_model_power_at_zero(self):
        assert_allclose(heis_kernel()(np.zeros(3)), 1.0)

    def test_positivity(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-50, 50, (200, 3))
        assert np.all(heis_kernel()(pts) > 0)
        assert np.all(classical(1)(rng.uniform(-50, 50, (200, 1))) > 0)

    @pytest.mark.parametrize("kernel,QG", [("r1", 2.0), ("heis", 5.0)])
    def test_comparability_constant(self, kernel, QG):
        k = classical() if kernel == "r1" else heis_kernel()
        w = k.weight()
        pts = np.concatenate([
            np.zeros((1, k.spec.n)),
            np.random.default_rng(1).uniform(-100, 100, (500, k.spec.n))])
        ratio = k(pts) / w(pts)
        C = 4.0 ** QG
        assert np.all(ratio <= C) and np.all(ratio >= 1.0 / C)

    def test_family_validation(self):
        G = heisenberg()
        with pytest.raises(ValueError):
            KernelSpec(G, HomogeneousNorm(G), "classical_abelian")
        with pytest.raises(ValueError):
            KernelSpec(G, HomogeneousNorm(G), "model_power", Gamma=-1.0)


class TestMass:
    """The closed-form mass against scipy integrals of the kernel, reduced
    by hand to one or two dimensions."""

    def test_model_power_r1(self):
        # (1 + x^2)^{-1} on the line
        G = abelian(1)
        P = KernelSpec(G, HomogeneousNorm(G), "model_power", Gamma=1.0)
        want, _ = si.quad(lambda x: P(np.array([x])), -np.inf, np.inf,
                          epsabs=0.0, epsrel=1e-13)
        assert_allclose(want, math.pi, rtol=1e-12)
        assert_allclose(P.mass, math.pi, rtol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_classical_unit_mass(self, n):
        # radial integral over the sphere of area 2 pi^{n/2} / Gamma(n/2)
        P = classical(n)
        e1 = np.eye(n)[0]
        radial, _ = si.quad(lambda r: r ** (n - 1) * P(r * e1), 0.0,
                            np.inf, epsabs=0.0, epsrel=1e-13)
        area = 2.0 * math.pi ** (n / 2) / math.gamma(n / 2)
        assert_allclose(area * radial, 1.0, rtol=1e-10)
        assert_allclose(P.mass, 1.0, rtol=1e-12)

    def test_heisenberg_even_power(self):
        # integrating out t: int (A + t^2)^{-5/4} dt = B(1/2, 3/4) A^{-3/4}
        # with A = 1 + x^4 + y^4; four equal quadrants remain
        P = heis_kernel()
        b = math.gamma(0.5) * math.gamma(0.75) / math.gamma(1.25)
        quadrant, _ = si.dblquad(lambda y, x: (1 + x ** 4 + y ** 4) ** -0.75,
                                 0.0, np.inf, 0.0, np.inf, epsabs=0.0,
                                 epsrel=1e-13)
        assert_allclose(4.0 * b * quadrant, P.mass, rtol=1e-10)
        assert_allclose(P.mass, 23.29898954166744, rtol=1e-12)

    def test_koranyi(self):
        # int (A + 16 t^2)^{-5/4} dt = B(1/2, 3/4) A^{-3/4} / 4 with
        # A = 1 + rho^4, then polar coordinates in (x, y)
        G = heisenberg()
        P = KernelSpec(G, HomogeneousNorm(G, "koranyi"), "model_power")
        b = math.gamma(0.5) * math.gamma(0.75) / math.gamma(1.25)
        radial, _ = si.quad(lambda r: r * (1 + r ** 4) ** -0.75, 0.0,
                            np.inf, epsabs=0.0, epsrel=1e-13)
        assert_allclose(2.0 * math.pi * b / 4.0 * radial, math.pi ** 2 / 2,
                        rtol=1e-10)
        assert_allclose(P.mass, math.pi ** 2 / 2, rtol=1e-12)


class TestDilate:
    def test_identity_scale(self):
        P = classical()
        x = np.linspace(-3, 3, 11)[:, None]
        assert_allclose(dilated_field(P, 1.0)(x), P(x))

    def test_r1_closed_form(self):
        # [DERIVED] a^{-1} P(x/a) = a / (pi (a^2 + x^2))
        P = classical()
        x = np.linspace(-5, 5, 21)[:, None]
        for a in [0.5, 2.0]:
            want = a / (np.pi * (a ** 2 + x[:, 0] ** 2))
            assert_allclose(dilated_field(P, a)(x), want, rtol=1e-12)

    @pytest.mark.parametrize("a", [0.25, 1.0, 4.0])
    def test_mass_preserved(self, a):
        P = classical()
        grid = Grid([0.0], [1e6], 8001, grading=14.0)
        m1 = haar_integrate(dilated_field(P, a), grid)
        assert_allclose(m1, 1.0, atol=1e-5)

    def test_homogeneity_exact(self):
        # P_{ab}(delta_a eta) = a^{-Q} P_b(eta)
        P = heis_kernel()
        G = P.spec
        rng = np.random.default_rng(2)
        eta = rng.uniform(-2, 2, (8, 3))
        for a, b in [(2.0, 1.0), (0.5, 3.0)]:
            lhs = dilated_field(P, a * b)(G.dilate(a, eta))
            rhs = a ** -4.0 * dilated_field(P, b)(eta)
            assert_allclose(lhs, rhs, rtol=1e-13)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            dilated_field(classical(), 0.0)

    def test_dilated_field_matches(self):
        P = heis_kernel()
        rng = np.random.default_rng(3)
        eta = rng.uniform(-3, 3, (6, 3))
        f = dilated_field(P, 0.7)
        # against a^{-Q} P(delta_{1/a} eta), evaluated numerically
        want = approximate_identity(P.spec, P, 0.7)(eta)
        assert_allclose(f.eval(eta), want, rtol=1e-12)


class TestScaleDerivative:
    def test_r1_oracle(self):
        # [DERIVED] a d/da of a/(pi(a^2+x^2)) is a(x^2-a^2)/(pi(a^2+x^2)^2)
        P = classical()
        x = np.linspace(-4, 4, 17)[:, None]
        for a in [0.5, 1.0, 3.0]:
            got = scale_derivative(P, 1, a).eval(x)
            want = a * (x[:, 0] ** 2 - a ** 2) \
                / (np.pi * (a ** 2 + x[:, 0] ** 2) ** 2)
            assert_allclose(got, want, atol=1e-9)

    def test_order_limit(self):
        with pytest.raises(ValueError):
            scale_derivative(classical(), 3, 1.0)


class TestCertify:
    def test_r1_passes(self):
        rep = certify_RGamma(classical(), radius=200.0)
        assert rep["passed"], rep

    def test_r1_first_derivative_oracle(self):
        # |P'| = 2|x|/(pi (1+x^2)^2) against (1+Phi(|x|))^{-3}
        P = classical()
        from nilharmonics.calculus import OperatorWord
        d = OperatorWord(P.spec, "X", (1,)).apply_symbolic(P.field)
        x = np.linspace(-50, 50, 501)[:, None]
        oracle = 2 * np.abs(x[:, 0]) / (np.pi * (1 + x[:, 0] ** 2) ** 2)
        assert_allclose(d.eval(x), -np.sign(x[:, 0]) * oracle, atol=1e-12)
        ratio = oracle / P.weight(extra=1.0)(x)
        assert np.max(ratio) < 20.0

    def test_heisenberg_model_power_passes(self):
        rep = certify_RGamma(heis_kernel(), radius=2000.0, n_dirs=16,
                             n_radii=30)
        assert rep["passed"], rep
        assert "derivative_X_(0, 0, 1)" in rep["estimates"]
        for name, est in rep["estimates"].items():
            assert np.isfinite(est["sup_ratio"]), name

    def test_gamma_two(self):
        rep = certify_RGamma(heis_kernel(Gamma=2.0), radius=1e5,
                             n_dirs=16, n_radii=25)
        assert rep["passed"], rep

    def test_heisenberg_estimate_list(self):
        # one row set per estimate, in the order the report lists them
        words = ["(1, 0, 0)", "(0, 1, 0)", "(0, 0, 1)", "(2, 0, 0)",
                 "(1, 1, 0)", "(0, 2, 0)"]
        rep = certify_RGamma(heis_kernel(), n_dirs=4, n_radii=8)
        assert list(rep["estimates"]) == (
            ["comparability_upper", "comparability_lower"]
            + [f"derivative_X_{w}" for w in words]
            + ["scale_derivative_1", "scale_derivative_2"]
            + [f"dilated_derivative_X_{w}" for w in words]
            + [f"derivative_Yt_{w}" for w in words])

    @pytest.mark.parametrize("variant", ["even-power", "koranyi"])
    def test_sweep_directions_are_dilated_onto_the_sphere(self, variant):
        # each ring of the sweep is delta_r of directions of gauge 1, so the
        # first ring lies on the sphere of radius 1e-2 and the sweep to R
        # reaches gauge R exactly (dividing a direction by its gauge is a
        # euclidean scaling, off the sphere on Heisenberg)
        norm = HomogeneousNorm(heisenberg(), variant)
        for R in (100.0, 200.0):
            pts = _sweep_points(norm, R, 24, 40)
            assert np.all(pts[0] == 0.0)
            rings = norm(pts[1:]).reshape(-1, 24)
            assert_allclose(rings / rings[:, :1], 1.0, rtol=1e-12)
            assert_allclose(rings[0], 1e-2, rtol=1e-12)
            assert_allclose(np.max(rings), R, rtol=1e-12)

    @pytest.mark.parametrize("kernel,exponent,unstable", [
        (classical, sympy.Rational(-1, 2), "comparability_upper"),
        (classical, sympy.Rational(-3, 2), "comparability_lower"),
        (heis_kernel, sympy.Integer(-1), "comparability_upper"),
        (heis_kernel, sympy.Rational(-3, 2), "comparability_lower")],
        ids=["R1-slow", "R1-fast", "heisenberg-slow", "heisenberg-fast"])
    def test_wrong_profile_exponent_fails(self, kernel, exponent, unstable):
        # a profile decaying slower (faster) than omega_{-Q-Gamma} breaks
        # the upper (lower) comparability first, the estimate that
        # `kernel certify` names
        P = kernel()
        u = sympy.Symbol("u")
        P.field = SmoothField(P.field.base, Profile(
            P.c * (1 + u) ** exponent, name="perturbed"))
        rep = certify_RGamma(P)
        assert not rep["passed"]
        assert next(name for name, est in rep["estimates"].items()
                    if not est["stable"]) == unstable


class TestHarmonicity:
    def test_r1_at_origin(self):
        res = harmonicity_residual(classical(), np.zeros((1, 1)),
                                   np.array([1.0]))
        assert res <= 1e-13

    def test_r2_random(self):
        # the points and scales of acceptance 06
        rng = np.random.default_rng(4)
        pts = rng.uniform(-3, 3, (20, 2))
        res = harmonicity_residual(classical(2), pts,
                                   np.array([0.5, 1.0, 2.0]))
        assert res <= 1e-13

    @pytest.mark.parametrize("n", [1, 2])
    def test_wrong_profile_exponent_fails(self, n):
        # (1+|x|^2)^{-n/2} in place of the harmonic -(n+1)/2
        P = classical(n)
        u = sympy.Symbol("u")
        P.field = SmoothField(P.field.base, Profile(
            P.c * (1 + u) ** sympy.Rational(-n, 2), name="perturbed"))
        rng = np.random.default_rng(4)
        pts = np.vstack([np.zeros((1, n)), rng.uniform(-3, 3, (20, n))])
        res = harmonicity_residual(P, pts, np.array([0.5, 1.0, 2.0]))
        assert res > 0.1

    def test_model_power_refused(self):
        with pytest.raises(ValueError):
            harmonicity_residual(heis_kernel(), np.zeros((1, 3)),
                                 np.array([1.0]))

    def test_boundary_grid_rejected(self):
        with pytest.raises(ValueError):
            harmonicity_residual(classical(), np.zeros((1, 1)),
                                 np.array([0.0, 1.0]))


class TestSemigroup:
    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (0.5, 0.5), (1.0, 2.0)])
    def test_poisson_semigroup(self, a, b):
        P = classical()
        G = P.spec
        grid = Grid([0.0], [500.0], 2001, grading=5.0)
        xs = np.linspace(-4, 4, 17)[:, None]
        got = convolve(G, dilated_field(P, a),
                       dilated_field(P, b), xs, grid)
        want = dilated_field(P, a + b)(xs)
        assert np.max(np.abs(got - want)) < 1e-3
