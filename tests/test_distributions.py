"""Weighted distributions, pairings, and Poisson extensions."""

import numpy as np
import pytest
import scipy.integrate as si
from numpy.testing import assert_allclose, assert_array_equal

from nilharmonics.calculus import OperatorWord, central_difference, \
    leibniz_tilde_coeff
from nilharmonics.distributions import (
    DistributionRep, TestFunction, boundary_convergence,
    extension_weighted_norm, flat_top_profile, pair, poisson_extend,
    poisson_extend_scaled, sconvolvability_witness, sub_multi_indices,
    weight_field, _convolve_terms)
from nilharmonics.group_core import HomogeneousNorm, abelian, heisenberg, \
    random_step2
from nilharmonics.kernels import KernelSpec, dilated_field, scale_derivative
from nilharmonics.polynomials import (Jet, Polynomial, SmoothField,
                                      gaussian_profile, poly_bump_profile)
from nilharmonics.quadrature import Grid, check_map, convolve, haar_integrate


LINE = abelian(1)
LNORM = HomogeneousNorm(LINE, "even-power")
HEIS = heisenberg()
HNORM = HomogeneousNorm(HEIS, "even-power")


def line_gaussian(width=1.0, shift=0.0):
    base = Polynomial(1, {(2,): 1.0, (1,): -2.0 * shift, (0,): shift ** 2})
    return SmoothField(base, gaussian_profile(1.0, width))


def heis_bump(radius=1.5, shift=(0.0, 0.0, 0.0)):
    """(1 - |theta - shift|^2 / radius^2)^6 on n = len(shift) coordinates."""
    n = len(shift)
    coeffs = {}
    for k in range(n):
        e2 = tuple(2 * (j == k) for j in range(n))
        e1 = tuple(1 * (j == k) for j in range(n))
        coeffs[e2] = coeffs.get(e2, 0) + 1.0
        coeffs[e1] = coeffs.get(e1, 0) - 2.0 * shift[k]
    coeffs[(0,) * n] = sum(s * s for s in shift)
    base = Polynomial(n, coeffs)
    return SmoothField(base * (1.0 / radius ** 2), poly_bump_profile(1.0, 6))


# ---------------------------------------------------------------- weight


def test_weight_field_matches_closed_form():
    w = weight_field(LNORM, 2.0)
    x = np.array([[0.3], [0.9], [5.0], [40.0]])
    # plateau 2^mu inside the unit ball, (1 + |x|)^mu past the bridge
    assert_allclose(w.eval(x[:2]), [4.0, 4.0], rtol=1e-14)
    assert_allclose(w.eval(x[2:]), [(1 + 5.0) ** 2, 41.0 ** 2], rtol=1e-14)


def numeric_weight(norm, mu):
    """Reference omega_mu = (1 + Phi(|eta|))^mu from the gauge itself, with
    the bridge Phi(1 + v) = 1 + 6v^3 - 8v^4 + 3v^5 between radii 1 and 2."""
    def w(eta):
        r = norm(eta)
        v = np.clip(r - 1.0, 0.0, 1.0)
        bridge = 1.0 + v ** 3 * (6.0 + v * (-8.0 + 3.0 * v))
        phi = np.where(r <= 1.0, 1.0, np.where(r >= 2.0, r, bridge))
        return (1.0 + phi) ** mu
    return w


def test_weight_field_agrees_with_group_core_weight():
    for mu in (-3.0, 0.5, 2.0):
        w = weight_field(HNORM, mu)
        ref = numeric_weight(HNORM, mu)
        pts = np.random.default_rng(3).normal(scale=2.0, size=(50, 3))
        assert_allclose(w.eval(pts), ref(pts), rtol=1e-12)


def test_weight_field_derivative_vanishes_on_plateau():
    w = weight_field(LNORM, 2.0)
    d = OperatorWord(LINE, "Xt", (1,)).apply_symbolic(w)
    x = np.array([[0.0], [0.5], [-0.9]])
    assert_allclose(d.eval(x), 0.0, atol=1e-15)


def test_weight_field_derivative_in_tail():
    # d/dx (1+x)^2 = 2(1+x) for x > 2
    w = weight_field(LNORM, 2.0)
    d = OperatorWord(LINE, "Xt", (1,)).apply_symbolic(w)
    x = np.array([[3.0], [10.0]])
    assert_allclose(d.eval(x), 2 * (1 + x[:, 0]), rtol=1e-12)


def test_weight_zero_is_identically_one():
    w = weight_field(HNORM, 0.0)
    pts = np.random.default_rng(0).normal(scale=3.0, size=(20, 3))
    assert_allclose(w.eval(pts), 1.0, rtol=1e-15)
    d = OperatorWord(HEIS, "Xt", (0, 1, 0)).apply_symbolic(w)
    assert_allclose(d.eval(pts), 0.0, atol=1e-15)


# ----------------------------------------------------- representation


def test_sub_multi_indices_count():
    assert len(sub_multi_indices((2, 1, 0))) == 6
    assert sub_multi_indices((1,)) == [(0,), (1,)]


def test_order_cap_enforced():
    with pytest.raises(ValueError):
        DistributionRep(LINE, LNORM, 1.0, [((4,), line_gaussian())])


@pytest.mark.parametrize("alpha", [(-1,), (0.5,), (0, 0), (), ("1",),
                                   (float("nan"),), (float("inf"),), 1],
                         ids=["negative", "fractional", "long", "empty",
                              "string", "nan", "inf", "scalar"])
def test_multi_index_refused(alpha):
    # a negative entry would give an empty normal form and a fractional one
    # would be truncated; both are refused like a wrong length
    with pytest.raises(ValueError):
        DistributionRep(LINE, LNORM, 1.0, [(alpha, line_gaussian())])


def test_integral_multi_index_accepted():
    T = DistributionRep(HEIS, HNORM, 1.0,
                        [([np.int64(1), 0.0, 2], heis_bump())])
    assert T.terms[0][0] == (1, 0, 2)


def test_density_l1_norm_gaussian():
    # int exp(-x^2/2) = sqrt(2 pi)
    T = DistributionRep(LINE, LNORM, 1.0, [((0,), line_gaussian())])
    (alpha, f), = T.terms
    norm = haar_integrate(lambda p: np.abs(f(p)), Grid([0.0], [12.0], [401]))
    assert_allclose(norm, np.sqrt(2 * np.pi), rtol=1e-10)


def test_normal_form_mu_zero_is_trivial():
    g = line_gaussian()
    T = DistributionRep(LINE, LNORM, 1.0, [((1,), g)], mu=0.0)
    # the weight is 1, stored as None, so the lower-order correction has
    # no piece and no key
    assert T.normal_form == {(1,): [(1, None, g)]}


def test_normal_form_moves_the_weight_inside():
    # omega X g = X (omega g) - (Xt omega) g on the line
    g = line_gaussian()
    T = DistributionRep(LINE, LNORM, 1.0, [((1,), g)])
    (c0, wd0, f0), = T.normal_form[(0,)]
    (c1, wd1, f1), = T.normal_form[(1,)]
    assert (c0, c1) == (-1, 1) and f0 is f1 is g
    x = np.linspace(-4.0, 4.0, 17)[:, None]
    w = weight_field(LNORM, 2.0)
    assert_allclose(wd1.eval(x), w.eval(x), rtol=1e-15)
    # finite differences across the C^2 seam at |x| = 1 err by ~2e-7
    assert_allclose(wd0.eval(x), OperatorWord(LINE, "Xt", (1,)).apply(
        w.eval, x), rtol=1e-6, atol=1e-6)


def test_pair_of_derivative_is_minus_int_g_phi_prime():
    g = line_gaussian()
    phi = TestFunction(LINE, line_gaussian(2.0, 1.0), "schwartz-like")
    T = DistributionRep(LINE, LNORM, 1.0, [((1,), g)], mu=0.0)
    grid = Grid([0.0], [14.0], [601])
    got = pair(T, phi, grid)
    ref = -si.quad(
        lambda t: np.exp(-t * t / 2)
        * (-(t - 1) / 4) * np.exp(-(t - 1) ** 2 / 8), -14, 14)[0]
    assert_allclose(got, ref, rtol=1e-10)


def test_pair_weighted_derivative_against_quad():
    # <omega_2 X g, phi> = int g'(x) omega_2(x) phi(x) dx, with the left
    # side going through the normal-form Leibniz rearrangement
    g = line_gaussian()
    phi_field = line_gaussian(2.0, 1.0)
    phi = TestFunction(LINE, phi_field, "schwartz-like")
    T = DistributionRep(LINE, LNORM, 1.0, [((1,), g)])
    got = pair(T, phi, Grid([0.0], [16.0], [1201]))
    w = numeric_weight(LNORM, 2.0)
    ref = si.quad(
        lambda t: -t * np.exp(-t * t / 2) * w(np.array([[t]]))[0]
        * phi_field.eval(np.array([[t]]))[0], -16, 16, limit=200)[0]
    # the weight is only C^2 at the bridge seams, which costs Simpson two
    # orders locally
    assert_allclose(got, ref, rtol=2e-5)


def test_pair_narrow_mass_recovers_phi_at_origin():
    # a mass-1 spike pairs (unweighted) to phi(0) up to O(width^2)
    phi = TestFunction(LINE, line_gaussian(2.0, 0.5), "schwartz-like")
    vals = []
    for width in (0.2, 0.1, 0.05):
        base = Polynomial(1, {(2,): 1.0 / width ** 2})
        spike = SmoothField(
            base, gaussian_profile(1.0 / (width * np.sqrt(2 * np.pi))))
        T = DistributionRep(LINE, LNORM, 1.0, [((0,), spike)], mu=0.0)
        vals.append(pair(T, phi, Grid([0.0], [4.0], [2001])))
    target = phi(np.array([[0.0]]))[0]
    errs = np.abs(np.array(vals) - target)
    assert errs[-1] < 1e-3
    assert errs[2] < errs[1] < errs[0]


# ----------------------------------------------------- test functions


def test_certify_schwartz_gaussian():
    phi = TestFunction(LINE, line_gaussian(), "Bdot")
    rep = phi.certify(LNORM, radius=8.0)
    assert rep["ok"]


def test_certify_constant_is_B_not_Bdot():
    one = TestFunction(LINE, lambda p: np.ones(p.shape[:-1]), "B")
    assert one.certify(LNORM)["ok"]
    one_dot = TestFunction(LINE, lambda p: np.ones(p.shape[:-1]), "Bdot")
    assert not one_dot.certify(LNORM)["ok"]


def test_certify_rejects_growth():
    lin = TestFunction(LINE, lambda p: p[..., 0], "B")
    assert not lin.certify(LNORM)["ok"]


def test_unknown_tag_rejected():
    with pytest.raises(ValueError):
        TestFunction(LINE, line_gaussian(), "compact")


# ------------------------------------------------------- extension


def test_poisson_extend_gaussian_line():
    """Plain gaussian density against direct adaptive quadrature of the
    Poisson integral."""
    g = line_gaussian()
    T = DistributionRep(LINE, LNORM, 1.0, [((0,), g)], mu=0.0)
    ker = KernelSpec(LINE, LNORM, "classical_abelian")
    eta = np.array([[0.0], [0.7], [-2.0]])
    got = poisson_extend(T, ker, 0.5, eta,
                         Grid([0.0], [300.0], [2001], grading=8.0))
    ref = [si.quad(lambda t, e=e: np.exp(-t * t / 2) * 0.5 / np.pi
                   / (0.25 + (e - t) ** 2), -np.inf, np.inf)[0]
           for e in eta[:, 0]]
    assert_allclose(got, ref, rtol=1e-8)


def test_poisson_extend_commutes_with_derivative_of_density():
    # extension of X g versus the euclidean derivative of the extension
    # of g: two independent paths to d/dx (g * P_a)
    g = line_gaussian()
    ker = KernelSpec(LINE, LNORM, "classical_abelian")
    grid = Grid([0.0], [300.0], [2001], grading=8.0)
    dg = OperatorWord(LINE, "X", (1,)).apply_symbolic(g)
    T1 = DistributionRep(LINE, LNORM, 1.0, [((0,), dg)], mu=0.0)
    eta = np.linspace(-2, 2, 9)[:, None]
    lhs = poisson_extend(T1, ker, 0.5, eta, grid)
    T0 = DistributionRep(LINE, LNORM, 1.0, [((0,), g)], mu=0.0)
    h = 1e-3
    rhs = (poisson_extend(T0, ker, 0.5, eta + h, grid)
           - poisson_extend(T0, ker, 0.5, eta - h, grid)) / (2 * h)
    assert np.max(np.abs(lhs - rhs)) < 1e-4


def test_poisson_extend_iota_matches_fd():
    g = line_gaussian()
    ker = KernelSpec(LINE, LNORM, "classical_abelian")
    grid = Grid([0.0], [300.0], [2001], grading=8.0)
    T = DistributionRep(LINE, LNORM, 1.0, [((1,), g)])
    eta = np.linspace(-1.5, 1.5, 7)[:, None]
    got = poisson_extend(T, ker, 0.8, eta, grid, iota=(1,))
    h = 1e-3
    fd = (poisson_extend(T, ker, 0.8, eta + h, grid)
          - poisson_extend(T, ker, 0.8, eta - h, grid)) / (2 * h)
    assert np.max(np.abs(got - fd)) < 1e-5


def test_poisson_extend_iota_matches_fd_heisenberg():
    # the word under the integral is the left-invariant X^iota in eta; on
    # Heisenberg the right-invariant Y^iota differs by about 30-60% here
    g = heis_bump(1.2, (0.3, 0.2, -0.1))
    T = DistributionRep(HEIS, HNORM, 1.0, [((1, 0, 0), g)])
    ker = KernelSpec(HEIS, HNORM, "model_power", Gamma=1.0)
    grid = Grid([0.3, 0.2, -0.1], [1.3] * 3, [21] * 3)
    eta = np.array([[0.2, 0.9, 0.1], [-0.4, -0.7, 0.3]])
    for iota in ((1, 0, 0), (0, 1, 0)):
        got = poisson_extend(T, ker, 0.8, eta, grid, iota=iota)
        fd = OperatorWord(HEIS, "X", iota).as_callable(
            lambda p: poisson_extend(T, ker, 0.8, p, grid))(eta)
        assert_allclose(got, fd, rtol=1e-7)


def test_poisson_extend_rejects_nan_density():
    ker = KernelSpec(LINE, LNORM, "classical_abelian")
    nan = lambda p: np.where(np.abs(p[..., 0]) < 1.0, np.nan, 0.0)
    T = DistributionRep(LINE, LNORM, 1.0, [((0,), nan)], mu=0.0)
    with pytest.raises(ValueError):
        poisson_extend(T, ker, 0.5, np.zeros((1, 1)), Grid([0.], [5.], [51]))


def test_gamma_mismatch_and_bad_scale_rejected():
    T = DistributionRep(LINE, LNORM, 2.0, [((0,), line_gaussian())])
    ker = KernelSpec(LINE, LNORM, "classical_abelian")
    with pytest.raises(ValueError):
        poisson_extend(T, ker, 0.5, np.zeros((1, 1)), Grid([0.], [5.], [51]))
    T1 = DistributionRep(LINE, LNORM, 1.0, [((0,), line_gaussian())])
    with pytest.raises(ValueError):
        poisson_extend(T1, ker, -1.0, np.zeros((1, 1)), Grid([0.], [5.], [51]))


def test_pairing_through_extension_two_paths_line():
    """<T * P_a, phi> by outer quadrature equals <T, phi * P_a-check>
    evaluated from the representation — the identity that defines the
    extension of a weighted distribution."""
    g = line_gaussian()
    phi_field = line_gaussian(2.0, 1.0)
    phi = TestFunction(LINE, phi_field, "schwartz-like")
    T = DistributionRep(LINE, LNORM, 1.0, [((1,), g)])
    ker = KernelSpec(LINE, LNORM, "classical_abelian")
    a = 0.5
    igrid = Grid([0.0], [60.0], [1201], grading=4.0)
    ogrid = Grid([0.0], [60.0], [1201], grading=4.0)
    ext = poisson_extend(T, ker, a, ogrid.points, igrid)
    lhs = float(np.sum(ext * phi(ogrid.points) * ogrid.weights))

    pkc = check_map(LINE, lambda p: dilated_field(ker, a).eval(p))
    cphi = lambda p: convolve(LINE, lambda q: phi(q), pkc, p, igrid)
    w = weight_field(LNORM, 2.0)
    dprod = OperatorWord(LINE, "Xt", (1,)).as_callable(
        lambda p: w.eval(p) * cphi(p))
    rhs = -float(np.sum(g.eval(igrid.points) * dprod(igrid.points)
                        * igrid.weights))
    assert abs(lhs - rhs) / abs(rhs) < 1e-4


def test_scale_derivative_two_paths():
    """(a d/da)(T * P_a) = T * ((a d/da) P_a) for a weighted derivative
    term, with the left side a log-scale difference quotient and the
    right side the exact scale-derivative field."""
    g = line_gaussian()
    T = DistributionRep(LINE, LNORM, 1.0, [((1,), g)])
    ker = KernelSpec(LINE, LNORM, "classical_abelian")
    a = 0.75
    grid = Grid([0.0], [300.0], [2001], grading=8.0)
    eta = np.linspace(-2, 2, 7)[:, None]
    hs = 1e-3
    lhs = (poisson_extend(T, ker, a * np.exp(hs), eta, grid)
           - poisson_extend(T, ker, a * np.exp(-hs), eta, grid)) / (2 * hs)
    sdf = scale_derivative(ker, 1, a)
    rhs = _convolve_terms(T, sdf, eta, grid)
    assert np.max(np.abs(lhs - rhs)) < 1e-4


def log_scale_fd(kernel, k, a, pts, h=1e-3):
    """Reference (a d/da)^k P_a: 4th-order central differences of the
    dilated kernel in s = log a."""
    return central_difference(
        lambda m: dilated_field(kernel, a * np.exp(m * h)).eval(pts), h, k)


def test_scale_derivative_field_matches_fd_kernel():
    ker = KernelSpec(HEIS, HNORM, "model_power", Gamma=1.0)
    pts = np.random.default_rng(7).normal(size=(10, 3))
    exact = scale_derivative(ker, 1, 0.6).eval(pts)
    assert_allclose(exact, log_scale_fd(ker, 1, 0.6, pts), atol=1e-8)
    # the second difference divides rounding by h^2 = 1e-6: about 2e-9
    # here, plus an O(h^4) truncation error
    exact = scale_derivative(ker, 2, 0.6).eval(pts)
    assert_allclose(exact, log_scale_fd(ker, 2, 0.6, pts), atol=1e-7)


def test_pairing_two_paths_heisenberg():
    """<T * P_a, phi> by outer pairing of the extension versus
    <T, phi * P_a-check> from the representation, on grids with different
    node sets so the two quadratures are independent."""
    g = heis_bump(1.2, (0.3, 0.2, -0.1))
    phi_field = heis_bump(2.0)
    alpha = (0, 1, 0)
    T = DistributionRep(HEIS, HNORM, 1.0, [(alpha, g)], mu=0.0)
    ker = KernelSpec(HEIS, HNORM, "model_power", Gamma=1.0)
    a = 1.0
    ogrid = Grid([0.0] * 3, [2.1] * 3, [21] * 3)
    igrid = Grid([0.3, 0.2, -0.1], [1.3] * 3, [21] * 3)
    ext = poisson_extend(T, ker, a, ogrid.flat_points, igrid)
    lhs = float(np.sum(ext * phi_field.eval(ogrid.flat_points)
                       * ogrid.flat_weights))

    kd = OperatorWord(HEIS, "Xt", alpha).apply_symbolic(
        dilated_field(ker, a).negate_coords())
    cgrid = Grid([0.0] * 3, [2.1] * 3, [23] * 3)
    fgrid = Grid([0.3, 0.2, -0.1], [1.3] * 3, [23] * 3)
    psi = convolve(HEIS, lambda q: phi_field.eval(q),
                   lambda p: kd.eval(p), fgrid.flat_points, cgrid)
    rhs = -float(np.sum(g.eval(fgrid.flat_points) * psi
                        * fgrid.flat_weights))
    assert abs(lhs - rhs) / abs(rhs) < 1e-4


def test_extension_assembly_matches_written_out_formula():
    # poisson_extend's Leibniz assembly against the same expansion written
    # out by hand on identical grids: signs and coefficients must agree
    # exactly
    g = heis_bump(1.2, (0.3, 0.2, -0.1))
    phi_field = heis_bump(2.0)
    alpha = (0, 1, 0)
    T = DistributionRep(HEIS, HNORM, 1.0, [(alpha, g)])
    ker = KernelSpec(HEIS, HNORM, "model_power", Gamma=1.0)
    a = 0.8
    ogrid = Grid([0.0] * 3, [2.1] * 3, [13] * 3)
    igrid = Grid([0.3, 0.2, -0.1], [1.3] * 3, [13] * 3)
    ext = poisson_extend(T, ker, a, ogrid.flat_points, igrid)
    lhs = float(np.sum(ext * phi_field.eval(ogrid.flat_points)
                       * ogrid.flat_weights))

    pk = dilated_field(ker, a).negate_coords()
    w5 = weight_field(HNORM, 5.0)
    wd = OperatorWord(HEIS, "Xt", alpha).apply_symbolic(w5)
    kd = OperatorWord(HEIS, "Xt", alpha).apply_symbolic(pk)
    xi = igrid.flat_points
    c0 = convolve(HEIS, lambda q: phi_field.eval(q),
                  lambda p: pk.eval(p), xi, ogrid)
    c1 = convolve(HEIS, lambda q: phi_field.eval(q),
                  lambda p: kd.eval(p), xi, ogrid)
    rhs = -float(np.sum(g.eval(xi) * (wd.eval(xi) * c0 + w5.eval(xi) * c1)
                        * igrid.flat_weights))
    assert_allclose(lhs, rhs, rtol=1e-12)


@pytest.mark.parametrize("mu", [None, 0.0])
def test_scaled_chart_matches_direct(mu):
    # mu = 0.0 takes the constant-weight branch of both paths
    g = heis_bump(1.2, (0.3, 0.2, -0.1))
    ker = KernelSpec(HEIS, HNORM, "model_power", Gamma=1.0)
    T = DistributionRep(HEIS, HNORM, 1.0, [((1, 0, 0), g)], mu=mu)
    etas = np.array([[0.1, 0.0, 0.0], [0.5, -0.4, 0.3], [1.2, 0.8, -0.5]])
    direct = poisson_extend(T, ker, 0.4, etas,
                            Grid([0.3, 0.2, -0.1], [1.4] * 3, [33] * 3))
    scaled = poisson_extend_scaled(T, ker, 0.4, etas, span=4.0, count=31)
    assert np.max(np.abs(direct - scaled) / np.abs(direct)) < 2e-2


@pytest.mark.parametrize("mu", [0.0, None])
def test_scaled_chart_evaluates_the_density_near_its_support(monkeypatch,
                                                             mu):
    # acceptance 09's order-1 Heisenberg triple at a small resolution: the
    # second form reads the density on a quarter of the nominal pairs at
    # most, for mu = 0 and for mu = Q + Gamma (u = f Xt omega)
    f = heis_bump(1.2, (0.3, 0.2, -0.1))
    T = DistributionRep(HEIS, HNORM, 1.0, [((1, 0, 0), f)], mu=mu)
    ker = KernelSpec(HEIS, HNORM, "model_power", Gamma=1.0)
    etas = Grid([0.0] * 3, [2.1] * 3, [9] * 3).flat_points
    read = []
    field_eval = SmoothField.eval

    def spy(self, theta):
        if self is f:
            read.append(np.size(theta) // 3)
        return field_eval(self, theta)

    monkeypatch.setattr(SmoothField, "eval", spy)
    terms = sum(len(pieces) for pieces in T.normal_form.values())
    for a in (1.0, 0.125):
        read.clear()
        poisson_extend_scaled(T, ker, a, etas, span=4.0, count=13)
        assert 0 < sum(read) <= 0.25 * len(etas) * 13 ** 3 * terms


def heis_three_terms():
    """Weighted Heisenberg terms of orders 1, 2 and 3 on shifted bumps."""
    alphas = [(1, 0, 0), (0, 1, 1), (2, 1, 0)]
    shifts = [(0.3, 0.2, -0.1), (-0.2, 0.1, 0.2), (0.1, -0.3, 0.0)]
    return [(alpha, heis_bump(1.2, shift))
            for alpha, shift in zip(alphas, shifts)]


def test_multi_term_distribution_is_the_sum_of_its_terms():
    # T = T1 + T2 + T3 with weighted terms of orders 1, 2 and 3: the normal
    # form of T regroups the pieces of all three by beta, so its
    # extensions and pairing differ from the sums over the Ti by summation
    # order only
    terms = heis_three_terms()
    T = DistributionRep(HEIS, HNORM, 1.0, terms)
    parts = [DistributionRep(HEIS, HNORM, 1.0, [term]) for term in terms]
    assert T.mu == 5.0
    assert sum(len(pieces) for pieces in T.normal_form.values()) == 12
    ker = KernelSpec(HEIS, HNORM, "model_power", Gamma=1.0)
    grid = Grid([0.0] * 3, [1.5] * 3, [11] * 3)
    etas = np.array([[0.1, 0.0, 0.0], [0.5, -0.4, 0.3], [1.2, 0.8, -0.5]])
    phi = TestFunction(HEIS, heis_bump(2.0), "schwartz-like")

    def agree(value_of):
        whole = value_of(T)
        total = sum(value_of(S) for S in parts)
        assert np.max(np.abs(whole - total)) \
            <= 1e-13 * np.max(np.abs(total))

    agree(lambda S: poisson_extend(S, ker, 0.5, etas, grid))
    agree(lambda S: poisson_extend(S, ker, 0.5, etas, grid,
                                   iota=(1, 0, 0)))
    agree(lambda S: poisson_extend_scaled(S, ker, 0.5, etas, span=4.0,
                                          count=13))
    agree(lambda S: pair(S, phi, grid))


def written_out_pairing(T, phi_field, grid):
    """<T, phi> as the Leibniz sum written out from T's terms: over each
    term (alpha, f) and beta <= alpha, (-1)^{|beta|} c times the grid sum
    of (Xt^{alpha-beta} omega) f Xt^beta phi, with
    c = (-1)^{|alpha|-|beta|} lambda(alpha, beta)."""
    w = weight_field(T.norm, T.mu)
    pts = grid.points
    total = 0.0
    for alpha, f in T.terms:
        for beta in sub_multi_indices(alpha):
            diff = tuple(a - b for a, b in zip(alpha, beta))
            wd = OperatorWord(T.spec, "Xt", diff).apply_symbolic(w)
            dphi = OperatorWord(T.spec, "Xt", beta).apply_symbolic(phi_field)
            c = (-1) ** sum(diff) * leibniz_tilde_coeff(alpha, beta)
            total += (-1) ** sum(beta) * c * float(np.sum(
                wd.eval(pts) * f.eval(pts) * dphi.eval(pts) * grid.weights))
    return total


@pytest.mark.parametrize("case", ["line", "heisenberg"])
def test_pair_is_the_written_out_leibniz_sum(case):
    # pair is the S'-convolution at the identity; on identical grids it
    # differs from the sum written out term by term in summation order only
    if case == "line":
        terms = [((1,), line_gaussian()), ((2,), line_gaussian(0.8, -0.3))]
        T = DistributionRep(LINE, LNORM, 1.0, terms)
        phi_field = line_gaussian(2.0, 1.0)
        grid = Grid([0.0], [16.0], [1201])
    else:
        T = DistributionRep(HEIS, HNORM, 1.0, heis_three_terms())
        phi_field = heis_bump(2.0)
        grid = Grid([0.0] * 3, [1.5] * 3, [11] * 3)
    got = pair(T, TestFunction(T.spec, phi_field, "schwartz-like"), grid)
    assert_allclose(got, written_out_pairing(T, phi_field, grid),
                    rtol=1e-13)


def written_out_convolution(T, psi, eta, grid, iota=None, form="first"):
    """(T * psi)(eta) by the check-map formula: over the pieces (c, wd, f)
    of T's normal form, in its order, (-1)^{|beta|} c times the group
    convolution of (Xt^{alpha-beta} omega) f with (Xt^beta psi-check)-check,
    X^iota taken of the latter."""
    out = np.zeros(np.shape(eta)[:-1])
    for beta, pieces in T.normal_form.items():
        g = OperatorWord(T.spec, "Xt", beta).apply_symbolic(
            psi.negate_coords()).negate_coords()
        if iota is not None:
            g = OperatorWord(T.spec, "X", iota).apply_symbolic(g)
        for c, wd, f in pieces:
            u = f if wd is None else \
                (lambda p, wd=wd, f=f: f.eval(p) * wd.eval(p))
            box = f.support_box() if form == "second" else None
            out = out + (-1) ** sum(beta) * c * convolve(
                T.spec, u, g, eta, grid, form=form, support=box)
    return out


@pytest.mark.parametrize("a", [0.5, 0.3])
@pytest.mark.parametrize("iota", [False, True])
@pytest.mark.parametrize("form", ["first", "second"])
@pytest.mark.parametrize("case", ["heisenberg", "random_step2"])
def test_convolve_terms_is_the_check_map_formula(case, form, iota, a):
    # (X^beta g) * psi = g * Yt^beta psi, and Yt^beta psi is
    # (-1)^{|beta|} (Xt^beta psi-check)-check: exactly at a dyadic a, whose
    # P_a has exact coefficients, and by rounding only elsewhere
    if case == "heisenberg":
        T = DistributionRep(HEIS, HNORM, 1.0, heis_three_terms())
        grid = Grid([0.0] * 3, [1.5] * 3, [11] * 3)
    else:
        spec = random_step2(3, 2, 11)
        norm = HomogeneousNorm(spec, "even-power")
        T = DistributionRep(spec, norm, 1.0, [(
            (1, 0, 0, 1, 0), heis_bump(1.2, 0.1 * np.arange(5)))])
        grid = Grid([0.0] * 5, [1.4] * 5, [7] * 5)
    spec = T.spec
    psi = dilated_field(KernelSpec(spec, T.norm, "model_power",
                                   Gamma=1.0), a)
    word = (0, 1) + (0,) * (spec.n - 2) if iota else None
    eta = np.random.default_rng(4).uniform(-1.0, 1.0, (3, spec.n))
    got = _convolve_terms(T, psi, eta, grid, iota=word, form=form)
    want = written_out_convolution(T, psi, eta, grid, iota=word, form=form)
    if a == 0.5:
        assert_array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("mu", [0.0, None])
def test_pair_reads_the_test_function_at_weighted_nodes_only(monkeypatch,
                                                             mu):
    # acceptance 09's order-1 Heisenberg triple: each word Xt^beta phi is
    # evaluated only where its piece's density times the grid weight is
    # nonzero, for mu = 0 and for mu = Q + Gamma
    f = heis_bump(1.2, (0.3, 0.2, -0.1))
    T = DistributionRep(HEIS, HNORM, 1.0, [((1, 0, 0), f)], mu=mu)
    phi = TestFunction(HEIS, heis_bump(2.0), "schwartz-like")
    grid = Grid([0.3, 0.2, -0.1], [1.3] * 3, [21] * 3)
    weights = [wd for pieces in T.normal_form.values()
               for _, wd, _ in pieces]
    weighted = sum(np.count_nonzero(
        f.eval(grid.points) * (1.0 if wd is None else wd.eval(grid.points))
        * grid.weights) for wd in weights)
    assert 0 < weighted < 0.5 * len(weights) * grid.weights.size
    densities = {id(f)} | {id(wd) for wd in weights}
    read = []
    field_eval = SmoothField.eval

    def spy(self, theta):
        if id(self) not in densities:
            read.append(np.size(theta) // 3)
        return field_eval(self, theta)

    monkeypatch.setattr(SmoothField, "eval", spy)
    pair(T, phi, grid)
    assert sum(read) == weighted


def test_first_form_evaluates_the_kernel_at_weighted_nodes_only():
    f = heis_bump(1.2, (0.3, 0.2, -0.1))
    kernel = dilated_field(KernelSpec(HEIS, HNORM, "model_power",
                                      Gamma=1.0), 0.5).negate_coords()
    grid = Grid([0.3, 0.2, -0.1], [1.3] * 3, [13] * 3)
    etas = np.array([[0.0, 0.0, 0.0], [0.5, -0.4, 0.3]])
    read = []

    def spy(p):
        read.append(np.size(p) // 3)
        return kernel.eval(p)

    convolve(HEIS, f, spy, etas, grid)
    weighted = np.count_nonzero(f(grid.points) * grid.weights)
    assert weighted < 0.5 * grid.weights.size
    assert sum(read) == len(etas) * weighted


def test_scaled_chart_pointwise_limit():
    # u_a -> mass * omega_mu * g pointwise as a -> 0, down to a = 1/64
    g = heis_bump(1.2, (0.3, 0.2, -0.1))
    ker = KernelSpec(HEIS, HNORM, "model_power", Gamma=1.0)
    S = DistributionRep(HEIS, HNORM, 1.0, [((0, 0, 0), g)])
    etas = np.array([[0.1, 0.0, 0.0], [0.5, -0.4, 0.3]])
    target = ker.mass * weight_field(HNORM, 5.0).eval(etas) * g.eval(etas)
    errs = [np.max(np.abs(poisson_extend_scaled(S, ker, a, etas,
                                                span=4.0, count=31)
                          - target))
            for a in (1.0, 1 / 4, 1 / 16, 1 / 64)]
    assert errs[0] > errs[1] > errs[2] > errs[3]
    assert errs[3] < 0.05 * np.max(np.abs(target))


# ------------------------------------------------ harmonic / boundary


def test_extension_is_harmonic_line():
    # u(x, a) = (g * P_a)(x) solves the upper half-plane Laplace equation
    g = line_gaussian()
    T = DistributionRep(LINE, LNORM, 1.0, [((0,), g)], mu=0.0)
    ker = KernelSpec(LINE, LNORM, "classical_abelian")
    grid = Grid([0.0], [300.0], [2001], grading=8.0)
    h = 1e-3

    def u(x, a):
        return poisson_extend(T, ker, a, np.atleast_2d(x).T, grid)

    for x0, a0 in [(0.0, 1.0), (0.7, 0.5), (-1.2, 2.0)]:
        uxx = (u(x0 + h, a0) - 2 * u(x0, a0) + u(x0 - h, a0)) / h ** 2
        uaa = (u(x0, a0 + h) - 2 * u(x0, a0) + u(x0, a0 - h)) / h ** 2
        assert abs((uxx + uaa)[0]) < 1e-5


def test_boundary_convergence_slope_line():
    # smooth density: the Poisson error is O(a), fitted slope near 1
    g = line_gaussian()
    T = DistributionRep(LINE, LNORM, 1.0, [((0,), g)], mu=0.0)
    ker = KernelSpec(LINE, LNORM, "classical_abelian")
    phi = TestFunction(LINE, line_gaussian(2.0, 0.5), "schwartz-like")
    out = boundary_convergence(
        T, ker, phi, [1 / 2, 1 / 4, 1 / 8, 1 / 16],
        Grid([0.0], [40.0], [801], grading=3.0),
        Grid([0.0], [300.0], [2001], grading=8.0))
    assert out["monotone"]
    assert abs(out["slope"] - 1.0) < 0.2


def test_boundary_convergence_heisenberg_monotone():
    # non-unit-mass model kernel: the limit is ker.mass * <omega_{-mu} T,
    # phi>; the scaled chart keeps the quadrature resolved at every a
    ker = KernelSpec(HEIS, HNORM, "model_power", Gamma=1.0)
    T = DistributionRep(HEIS, HNORM, 1.0,
                        [((1, 0, 0), heis_bump(1.2, (0.3, 0.2, -0.1)))])
    phi = TestFunction(HEIS, heis_bump(2.0), "schwartz-like")
    out = boundary_convergence(
        T, ker, phi, [1.0, 1 / 2, 1 / 4, 1 / 8],
        Grid([0.0] * 3, [2.1] * 3, [11] * 3),
        Grid([0.3, 0.2, -0.1], [1.3] * 3, [21] * 3),
        method="scaled", span=4.0, count=29)
    errs = [r[3] for r in out["rows"]]
    assert out["monotone"]
    assert errs[-1] < 0.25 * errs[0]


def euclid_gaussian(n, width):
    """exp(-|theta|^2 / (2 width^2)): no zero on a bounded grid."""
    base = Polynomial(n, {tuple(2 * (j == k) for j in range(n)): 1.0
                          for k in range(n)})
    return SmoothField(base, gaussian_profile(1.0, width))


@pytest.mark.parametrize("method", ["direct", "scaled"])
def test_boundary_convergence_extends_only_where_phi_lives(monkeypatch,
                                                            method):
    # acceptance 09's Heisenberg outer grid: each extension receives the
    # outer nodes with omega_{-mu} phi w != 0, and no other
    outer = Grid([0.0] * 3, [2.1] * 3, [17] * 3)
    T = DistributionRep(HEIS, HNORM, 1.0,
                        [((1, 0, 0), heis_bump(1.2, (0.3, 0.2, -0.1)))],
                        mu=0.0)
    ker = KernelSpec(HEIS, HNORM, "model_power", Gamma=1.0)
    phi = TestFunction(HEIS, heis_bump(2.0), "schwartz-like")
    received = []

    def spy(T, kernel, a, eta, *args, **kwargs):
        received.append(np.array(eta))
        return np.zeros(len(eta))

    name = "poisson_extend_scaled" if method == "scaled" \
        else "poisson_extend"
    monkeypatch.setattr("nilharmonics.distributions." + name, spy)
    out = boundary_convergence(
        T, ker, phi, [1.0, 0.5], outer,
        Grid([0.3, 0.2, -0.1], [1.3] * 3, [9] * 3), method=method)
    q = weight_field(HNORM, -T.mu).eval(outer.flat_points) \
        * phi(outer.flat_points)
    live = q * outer.flat_weights != 0
    assert out["outer_nodes"] == [1863, 4913] == [live.sum(), live.size]
    assert len(received) == 2
    for eta in received:
        assert_array_equal(eta, outer.flat_points[live])


def _full_grid_rows(T, ker, phi, a_list, outer, inner, method):
    """The row values summed over every outer node, zeros included."""
    wm_phi = weight_field(ker.norm, -T.mu).eval(outer.points) \
        * phi(outer.points)
    vals = []
    for a in a_list:
        ext = poisson_extend_scaled(T, ker, a, outer.points, count=11) \
            if method == "scaled" \
            else poisson_extend(T, ker, a, outer.points, inner)
        vals.append(float(np.sum(ext * wm_phi * outer.weights)))
    return vals


_LINE_CASE = (LINE, LNORM, "classical_abelian", (1,), (0.3,),
              Grid([0.0], [6.0], [61]), Grid([0.3], [3.0], [121]))
_HEIS_CASE = (HEIS, HNORM, "model_power", (1, 0, 0), (0.3, 0.2, -0.1),
              Grid([0.0] * 3, [2.1] * 3, [9] * 3),
              Grid([0.3, 0.2, -0.1], [1.3] * 3, [9] * 3))


@pytest.mark.parametrize("case", [_LINE_CASE, _HEIS_CASE],
                         ids=["line", "heis"])
@pytest.mark.parametrize("weighted", [False, True], ids=["mu0", "muQG"])
@pytest.mark.parametrize("method", ["direct", "scaled"])
@pytest.mark.parametrize("phi_kind", ["bump", "gaussian"])
def test_boundary_convergence_rows_match_full_grid(case, weighted, method,
                                                   phi_kind):
    # the skipped terms are exact zeros: the rows move only in summation
    # order, and not at all when phi has no zero on the outer grid
    spec, norm, family, alpha, shift, outer, inner = case
    T = DistributionRep(spec, norm, 1.0, [(alpha, heis_bump(1.2, shift))],
                        mu=None if weighted else 0.0)
    ker = KernelSpec(spec, norm, family, Gamma=1.0)
    phi = TestFunction(spec, heis_bump(1.5, (0.0,) * spec.n)
                       if phi_kind == "bump" else euclid_gaussian(spec.n, 1.0))
    a_list = [1.0, 0.5]
    out = boundary_convergence(T, ker, phi, a_list, outer, inner,
                               method=method, count=11)
    got = [r[1] for r in out["rows"]]
    want = _full_grid_rows(T, ker, phi, a_list, outer, inner, method)
    assert all(v != 0 for v in want)
    evaluated, total = out["outer_nodes"]
    if phi_kind == "gaussian":
        assert evaluated == total
        assert got == want
    else:
        assert evaluated < total
        assert_allclose(got, want, rtol=1e-15, atol=0)


def test_boundary_convergence_phi_off_the_outer_grid():
    # no outer node carries weight: every row is 0.0, and nothing raises;
    # an error that stays 0.0 does not fall, so the rows are not monotone
    ker = KernelSpec(HEIS, HNORM, "model_power", Gamma=1.0)
    T = DistributionRep(HEIS, HNORM, 1.0, [((0, 0, 0), heis_bump(1.2))],
                        mu=0.0)
    phi = TestFunction(HEIS, heis_bump(0.5, (9.0, 0.0, 0.0)))
    for method in ("direct", "scaled"):
        out = boundary_convergence(
            T, ker, phi, [1.0, 0.5], Grid([0.0] * 3, [2.1] * 3, [9] * 3),
            Grid([0.0] * 3, [1.3] * 3, [9] * 3), method=method, count=11)
        assert [r[1] for r in out["rows"]] == [0.0, 0.0]
        assert out["outer_nodes"] == [0, 729]
        assert out["monotone"] is False


def test_boundary_convergence_refuses_a_repeated_scale():
    T = DistributionRep(LINE, LNORM, 1.0, [((0,), line_gaussian())], mu=0.0)
    ker = KernelSpec(LINE, LNORM, "classical_abelian")
    phi = TestFunction(LINE, line_gaussian(2.0))
    with pytest.raises(ValueError, match="repeated"):
        boundary_convergence(T, ker, phi, [0.5, 0.25, 0.5],
                             Grid([0.0], [8.0], [41]),
                             Grid([0.0], [8.0], [41]))


# -------------------------------------------------- witnesses / norms


def test_flat_top_profile_is_c2():
    # value, slope and curvature of adjacent pieces agree exactly at the
    # joins u = 1 and u = 2
    (one, _), (glide, _) = flat_top_profile().expr

    def taylor(piece, u):
        """g(u), g'(u) and g''(u) / 2 of a piece"""
        jet = piece(Jet([u, 1.0, 0.0]))
        return jet.c if isinstance(jet, Jet) else [jet, 0.0, 0.0]

    assert taylor(one, 1.0) == taylor(glide, 1.0)
    assert taylor(glide, 2.0) == [0.0, 0.0, 0.0]  # the cap's zero piece


def test_sconvolvability_witness_flat_top():
    ker = KernelSpec(LINE, LNORM, "classical_abelian")
    phi_field = SmoothField(LNORM.gauge_polynomial(), flat_top_profile())
    rep = sconvolvability_witness(
        ker, lambda p: phi_field.eval(p), Grid([0.0], [2.0], [201]),
        radius=30.0, n_dirs=2, n_radii=12)
    assert rep["ok_a"] and rep["ok_b"] and rep["ok"]
    assert rep["lower_bound_ratios"][0] > 0


def test_sconvolvability_witness_fails_without_mass():
    ker = KernelSpec(LINE, LNORM, "classical_abelian")
    rep = sconvolvability_witness(
        ker, lambda p: np.zeros(p.shape[:-1]), Grid([0.0], [2.0], [101]),
        radius=30.0, n_dirs=2, n_radii=10)
    assert not rep["ok_b"]


def test_extension_weighted_norm_finite_and_stable():
    g = line_gaussian()
    T = DistributionRep(LINE, LNORM, 1.0, [((1,), g)])
    ker = KernelSpec(LINE, LNORM, "classical_abelian")
    inner = Grid([0.0], [60.0], [801], grading=4.0)
    v1 = extension_weighted_norm(T, ker, 0.5, (1,),
                                 Grid([0.0], [80.0], [401], grading=4.0),
                                 inner)
    v2 = extension_weighted_norm(T, ker, 0.5, (1,),
                                 Grid([0.0], [160.0], [801], grading=4.0),
                                 inner)
    assert np.isfinite(v1) and v1 > 0
    # doubling the outer domain changes the value only through the tail
    assert abs(v2 - v1) / v1 < 0.05


def test_extension_weighted_norm_order_cap():
    T = DistributionRep(LINE, LNORM, 1.0, [((0,), line_gaussian())])
    ker = KernelSpec(LINE, LNORM, "classical_abelian")
    with pytest.raises(ValueError):
        extension_weighted_norm(T, ker, 0.5, (3,), Grid([0.], [5.], [51]),
                                Grid([0.], [5.], [51]))


def test_power_decay_density_family():
    # g = omega_{-Q-eps} is integrable and extends: value finite and
    # positive at the origin for each scale
    eps = 0.5
    g = weight_field(LNORM, -float(LINE.Q) - eps)
    T = DistributionRep(LINE, LNORM, 1.0, [((0,), g)], mu=0.0)
    nrm = haar_integrate(g, Grid([0.0], [2000.0], [2001], grading=10.0))
    assert np.isfinite(nrm)
    ker = KernelSpec(LINE, LNORM, "classical_abelian")
    grid = Grid([0.0], [2000.0], [3001], grading=10.0)
    for a in (0.5, 1.0, 2.0):
        v = poisson_extend(T, ker, a, np.zeros((1, 1)), grid)
        assert np.isfinite(v[0]) and v[0] > 0
