import json
import math

import numpy as np
import pytest
from fractions import Fraction
from numpy.testing import assert_allclose
from scipy.linalg import expm, logm

from nilharmonics.group_core import (
    GroupSpec, HomogeneousNorm, abelian, heisenberg, peetre_factor,
    random_step2, weight_field,
)
from nilharmonics.io import load_group
from nilharmonics.quadrature import Grid, haar_integrate


def heis_matrix_product(p, q):
    """Oracle: multiply via 3x3 upper-triangular matrix exponentials.

    exp coordinates (x, y, t) correspond to exp(x A + y B + t C) with the
    strictly-upper-triangular basis A = E12, B = E23, C = E13, [A, B] = C."""
    def to_mat(v):
        x, y, t = v
        m = np.zeros((3, 3))
        m[0, 1], m[1, 2], m[0, 2] = x, y, t
        return expm(m)

    w = logm(to_mat(p) @ to_mat(q)).real
    return np.array([w[0, 1], w[1, 2], w[0, 2]])


class TestGroupLaw:
    def test_heisenberg_basic_product(self):
        G = heisenberg()
        # [DERIVED] matrix-exponential oracle gives (1, 1, 1/2)
        got = G.multiply([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        assert_allclose(got, [1.0, 1.0, 0.5], atol=1e-14)
        assert_allclose(got, heis_matrix_product([1, 0, 0], [0, 1, 0]),
                        atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_heisenberg_matches_matrix_oracle(self, seed):
        G = heisenberg()
        rng = np.random.default_rng(seed)
        p, q = rng.uniform(-2, 2, (2, 3))
        assert_allclose(G.multiply(p, q), heis_matrix_product(p, q),
                        atol=1e-10)

    @pytest.mark.parametrize("G", [abelian(2), heisenberg(),
                                   random_step2(3, 2, seed=11)])
    def test_group_axioms(self, G):
        rng = np.random.default_rng(3)
        p, q, r = rng.uniform(-1.5, 1.5, (3, G.n))
        e = G.identity()
        assert_allclose(G.multiply(p, e), p, atol=1e-14)
        assert_allclose(G.multiply(e, p), p, atol=1e-14)
        assert_allclose(G.multiply(p, G.inverse(p)), e, atol=1e-13)
        assert_allclose(G.multiply(G.multiply(p, q), r),
                        G.multiply(p, G.multiply(q, r)), atol=1e-12)

    def test_dilations_are_automorphisms(self):
        G = heisenberg()
        rng = np.random.default_rng(5)
        p, q = rng.uniform(-2, 2, (2, 3))
        for a in [0.25, 1.0, 3.0]:
            assert_allclose(G.dilate(a, G.multiply(p, q)),
                            G.multiply(G.dilate(a, p), G.dilate(a, q)),
                            atol=1e-12)
        with pytest.raises(ValueError):
            G.dilate(0.0, p)

    def test_batched_multiply(self):
        G = heisenberg()
        rng = np.random.default_rng(9)
        P = rng.uniform(-1, 1, (4, 5, 3))
        Q = rng.uniform(-1, 1, (4, 5, 3))
        batch = G.multiply(P, Q)
        assert batch.shape == (4, 5, 3)
        assert_allclose(batch[2, 3], G.multiply(P[2, 3], Q[2, 3]), atol=1e-14)

    def test_structure_validation(self):
        with pytest.raises(ValueError):
            GroupSpec(name="bad", weights=(1, 1, 2),
                      structure=[((2, (1, 0, 0), (0, 0, 1)), Fraction(1))])

    @pytest.mark.parametrize("structure", [
        # multiplies exactly like heisenberg(), but index -1 is not a
        # coordinate: the covering lattice would read no term for it
        [((-1, (1, 0, 0), (0, 1, 0)), Fraction(1, 2)),
         ((-1, (0, 1, 0), (1, 0, 0)), Fraction(-1, 2))],
        [((5, (1, 0, 0), (0, 1, 0)), Fraction(1))],
        [((2, (2, -1, 0), (1, 0, 0)), Fraction(1))],
        [((2, (0.5, 0.5, 0), (1, 0, 0)), Fraction(1))],
    ], ids=["k=-1", "k=5", "negative-exponent", "fractional-exponent"])
    def test_structure_terms_are_validated(self, structure):
        with pytest.raises(ValueError):
            GroupSpec(name="bad", weights=(1, 1, 2), structure=structure)

    def test_json_roundtrip(self, tmp_path):
        G = random_step2(2, 1, seed=4)
        path = tmp_path / "g.json"
        path.write_text(json.dumps(G.to_json()))
        H = load_group(str(path))
        assert H.weights == G.weights
        assert H.structure == G.structure

    @pytest.mark.parametrize("G", [
        heisenberg(),
        random_step2(3, 2, seed=11),
        # a p > 1 power in the law; two forms of one law are compared, so
        # it need not be associative
        GroupSpec("square", (1, 1, 3), [((2, (2, 0, 0), (0, 1, 0)), 2)]),
    ], ids=lambda G: G.name)
    def test_symbolic_law_matches_numeric(self, G):
        # the law written out from its exact structure constants
        rng = np.random.default_rng(2)
        p, q = rng.uniform(-1, 1, (2, G.n))
        p0, q0 = p.copy(), q.copy()
        num = G.multiply(p, q)
        assert np.array_equal(p, p0) and np.array_equal(q, q0)
        want = p + q
        for (k, alpha, beta), c in G.structure:
            want[k] += float(c) * np.prod(p ** np.array(alpha)) \
                * np.prod(q ** np.array(beta))
        assert_allclose(num, want, atol=1e-14)


class TestNorms:
    def test_homogeneity(self):
        G = heisenberg()
        for variant in ["even-power", "koranyi"]:
            N = HomogeneousNorm(G, variant)
            rng = np.random.default_rng(1)
            p = rng.uniform(-2, 2, (10, 3))
            for a in [0.3, 2.5]:
                assert_allclose(N(G.dilate(a, p)), a * N(p), rtol=1e-12)

    def test_koranyi_values(self):
        N = HomogeneousNorm(heisenberg(), "koranyi")
        # [TRIVIAL] ((1+0)^2 + 0)^(1/4) = 1 and (16 t^2)^(1/4) = 2 sqrt(t)
        assert_allclose(N([1.0, 0.0, 0.0]), 1.0)
        assert_allclose(N([0.0, 0.0, 4.0]), 2.0 * 2.0)

    def test_koranyi_gamma_is_one(self):
        N = HomogeneousNorm(heisenberg(), "koranyi")
        assert N.measured_gamma() <= 1.0 + 1e-9

    def test_even_power_gamma_finite(self):
        N = HomogeneousNorm(heisenberg(), "even-power")
        g = N.measured_gamma()
        assert 1.0 <= g < 3.0

    def test_gauge_polynomial_consistent(self):
        # the gauge against its formula written out, on each kind of group
        cases = [
            (abelian(1), "even-power", lambda x: np.abs(x[..., 0])),
            (heisenberg(), "even-power",
             lambda x: (x[..., 0] ** 4 + x[..., 1] ** 4 + x[..., 2] ** 2)
             ** 0.25),
            (heisenberg(), "koranyi",
             lambda x: ((x[..., 0] ** 2 + x[..., 1] ** 2) ** 2
                        + 16 * x[..., 2] ** 2) ** 0.25),
            # M = 3, powers (6, 6, 2)
            (GroupSpec("weights113", (1, 1, 3)), "even-power",
             lambda x: (x[..., 0] ** 6 + x[..., 1] ** 6 + x[..., 2] ** 2)
             ** (1 / 6)),
            # weights (1, 1, 2, 2): M = 2, powers (4, 4, 2, 2)
            (random_step2(2, 2, seed=3), "even-power",
             lambda x: (x[..., 0] ** 4 + x[..., 1] ** 4 + x[..., 2] ** 2
                        + x[..., 3] ** 2) ** 0.25),
        ]
        for G, variant, formula in cases:
            N = HomogeneousNorm(G, variant)
            p = np.random.default_rng(4).uniform(-2, 2, (50, G.n))
            assert_allclose(N(p), formula(p), rtol=1e-14)
            # one stored polynomial, not a fresh one per call
            assert N.gauge_polynomial() is N.gauge_polynomial()

    def test_ball_volume_abelian(self):
        # [DERIVED] Leb(B(0,1)) = 2 on (R, |x|), so kappa = 1/2
        N = HomogeneousNorm(abelian(1))
        assert_allclose(N.calibration(), 0.5, rtol=2e-3)
        grid = Grid([0.0], [3.3], [3301], rule="trapezoid")
        ball = lambda p: (N(p) <= 3.0).astype(float)
        assert_allclose(haar_integrate(ball, grid, N.calibration()), 3.0,
                        rtol=2e-3)
        assert_allclose(haar_integrate(ball, grid), 6.0, rtol=2e-3)

    @pytest.mark.parametrize("G, variant, want", [
        (abelian(1), "even-power", 0.5),
        (abelian(2), "even-power", 1.0 / math.pi),
        # [DERIVED] powers (4, 4, 2): |B| = 8 Gamma(5/4)^2 Gamma(3/2) / 1!
        (heisenberg(), "even-power",
         1.0 / (4.0 * math.sqrt(math.pi) * math.gamma(1.25) ** 2)),
        # [DERIVED] |B| = pi int_0^1 r sqrt(1 - r^4) dr = pi^2/8
        (heisenberg(), "koranyi", 8.0 / math.pi ** 2),
        # M = 3, powers (6, 6, 2)
        (GroupSpec("weights113", (1, 1, 3)), "even-power", None),
        (random_step2(2, 2, seed=3), "even-power", None),
    ], ids=["R1", "R2", "heisenberg", "koranyi", "weights113", "step2"])
    def test_calibration_closed_form(self, G, variant, want):
        N = HomogeneousNorm(G, variant)
        kappa = N.calibration()
        if want is not None:
            assert_allclose(kappa, want, rtol=1e-15)
        # independent check: Monte-Carlo count of the unit ball in its
        # bounding box agrees with 1/kappa within 4 sigma
        ext = N.box(1.0)
        rng = np.random.default_rng(5)
        samples = 400_000
        inside = N(rng.uniform(-1.0, 1.0, (samples, G.n)) * ext) <= 1.0
        frac = float(np.mean(inside))
        box = float(np.prod(2.0 * ext))
        sigma = box * math.sqrt(frac * (1.0 - frac) / samples)
        assert abs(box * frac - 1.0 / kappa) <= 4.0 * sigma

    @pytest.mark.parametrize("G, variant", [
        (heisenberg(), "even-power"),
        (heisenberg(), "koranyi"),
        (GroupSpec("weights113", (1, 1, 3)), "even-power"),
        (random_step2(2, 2, seed=3), "even-power"),
    ], ids=["heisenberg", "koranyi", "weights113", "step2"])
    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    def test_box_reaches_the_sphere_on_each_axis(self, G, variant, r):
        N = HomogeneousNorm(G, variant)
        for k, h in enumerate(N.box(r)):
            assert_allclose(N(h * np.eye(G.n)[k]), r, rtol=1e-12)

    def test_peetre_inequality(self):
        G = heisenberg()
        N = HomogeneousNorm(G, "koranyi")
        rng = np.random.default_rng(8)
        eta = rng.uniform(-3, 3, (5000, 3))
        xi = rng.uniform(-3, 3, (5000, 3))
        for r in [-2.5, -1.0, 0.0, 1.0, 3.0]:
            lhs, rhs = peetre_factor(N, eta, xi, r)
            assert np.all(lhs <= rhs * (1 + 1e-12))


def bridge(x):
    """Phi = omega_1 - 1 along the R^1 line, where the gauge is |x|."""
    line = abelian(1)
    w = weight_field(HomogeneousNorm(line), 1.0)
    return w(np.abs(np.asarray(x, dtype=float))[..., None]) - 1.0


class TestWeights:
    def test_bridge_values_and_smoothness(self):
        # [DERIVED] unique monotone quintic with C^2 contact at both ends
        assert_allclose(bridge(np.array([0.5, 1.0, 2.0, 5.0])),
                        [1.0, 1.0, 2.0, 5.0])
        assert_allclose(bridge(1.5), 1.0 + 6 / 8 - 8 / 16 + 3 / 32)
        x = np.linspace(0.5, 3.0, 2001)
        d2 = np.diff(bridge(x), 2) / (x[1] - x[0]) ** 2
        # a jump in Phi'' would put an O(1) spike in diff(d2); the smooth
        # bridge only contributes Phi''' * h <= 36 h ~ 0.045
        assert np.max(np.abs(np.diff(d2))) < 0.1
        assert np.all(np.diff(bridge(x)) >= -1e-15)

    def test_omega_plateau_and_tail(self):
        N = HomogeneousNorm(heisenberg(), "koranyi")
        for mu in [-3.0, 0.5, 2.0]:
            w = weight_field(N, mu)
            assert_allclose(w([0.5, 0.0, 0.0]), 2.0 ** mu, rtol=1e-14)
            far = np.array([5.0, 0.0, 0.0])
            assert_allclose(w(far), (1.0 + N(far)) ** mu, rtol=1e-14)
            assert_allclose(w(far) * weight_field(N, -mu)(far), 1.0,
                            rtol=1e-14)
