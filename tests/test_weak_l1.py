import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate as si
from numpy.testing import assert_allclose

from nilharmonics.group_core import GroupSpec, abelian, heisenberg, \
    random_step2, HomogeneousNorm
from nilharmonics.kernels import KernelSpec
from nilharmonics.io import load_measure
from nilharmonics.weak_l1 import (
    AtomicMeasure, CoveringCertificate, Window, DyadicPiece,
    U_nu, _ball_samples, _count_within, _forbid_radius, _lattice_coords,
    _lattice_scales, _reach,
    build_covering, measure_poisson, mu_poisson_bounds, phi_gamma,
    superlevel_measure, u_piece, verify_covering, weak_l1_constant,
)

LINE = abelian(1)
LNORM = HomogeneousNorm(LINE)
HEIS = heisenberg()
HNORM = HomogeneousNorm(HEIS)


def closed_form_constant(Q, Gamma):
    # alpha * |{Phi_Gamma / a > alpha}| for the calibrated Haar measure
    val, _ = si.quad(lambda t: (t ** ((Gamma - 1.0) / (Q + Gamma)) - t) ** Q,
                     0.0, 1.0)
    return val


# -- profile and atomic measures --------------------------------------------

def test_phi_gamma_at_origin_is_a_to_minus_Q():
    for norm in (LNORM, HNORM):
        Q = float(norm.spec.Q)
        e = np.zeros((1, norm.n))
        for a in (0.5, 1.0, 2.0):
            assert_allclose(phi_gamma(norm, 1.0, e, a), a ** -Q, rtol=1e-12)


def test_phi_gamma_line_value():
    assert_allclose(phi_gamma(LNORM, 1.0, np.array([[1.0]]), 1.0),
                    0.25, rtol=1e-12)


def test_phi_gamma_scale_covariance():
    rng = np.random.default_rng(3)
    eta = rng.normal(size=(20, 3))
    for r in (0.5, 2.0, 4.0):
        lhs = phi_gamma(HNORM, 1.0, HEIS.dilate(r, eta), r * 1.3)
        rhs = r ** -float(HEIS.Q) * phi_gamma(HNORM, 1.0, eta, 1.3)
        assert_allclose(lhs, rhs, rtol=1e-12)


def test_phi_gamma_rejects_nonpositive_height():
    with pytest.raises(ValueError):
        phi_gamma(LNORM, 1.0, np.array([[1.0]]), 0.0)


def test_atomic_measure_mass_moment_and_json():
    nu = AtomicMeasure([[0.0, 0.0, 0.0], [1.0, -1.0, 0.5]], [2.0, 3.0])
    assert nu.total_mass == 5.0
    assert 0 < nu.moment(HNORM, 1.0) < 5.0
    back = AtomicMeasure.from_json(nu.to_json())
    assert_allclose(back.xi, nu.xi)
    assert_allclose(back.w, nu.w)
    with pytest.raises(ValueError):
        AtomicMeasure([[0.0]], [-1.0])


def test_empty_measure_needs_its_dimension(tmp_path):
    empty = AtomicMeasure(np.empty((0, 3)), [])
    assert empty.xi.shape == (0, 3) and empty.total_mass == 0.0
    for build in (lambda: AtomicMeasure([], []),
                  lambda: AtomicMeasure.from_json({"atoms": []})):
        with pytest.raises(ValueError, match="dimension n"):
            build()
    back = AtomicMeasure.from_json({"atoms": []}, n=3)
    assert back.xi.shape == (0, 3) and back.w.shape == (0,)
    path = tmp_path / "empty.json"
    path.write_text('{"atoms": []}')
    assert load_measure(str(path), 2).xi.shape == (0, 2)


def test_atomic_measure_translation_moves_atoms():
    nu = AtomicMeasure([[0.3, -0.2, 0.1]], [1.0])
    eta0 = np.array([0.5, 0.4, -0.1])
    moved = nu.translate(HEIS, eta0)
    assert_allclose(moved.xi[0], HEIS.multiply(eta0, nu.xi[0]))
    assert_allclose(moved.w, nu.w)


def test_U_nu_single_atom_matches_profile():
    nu = AtomicMeasure([[0.0, 0.0, 0.0]], [1.0])
    rng = np.random.default_rng(5)
    eta = rng.normal(size=(15, 3))
    for a in (0.3, 1.0):
        assert_allclose(U_nu(HEIS, HNORM, nu, 1.0, eta, a),
                        phi_gamma(HNORM, 1.0, eta, a) / a, rtol=1e-12)


def test_U_nu_line_value_and_symmetry():
    nu = AtomicMeasure([[0.0]], [1.0])
    assert_allclose(U_nu(LINE, LNORM, nu, 1.0, np.array([[1.0]]), 1.0),
                    0.25, rtol=1e-12)
    two = AtomicMeasure([[0.4], [-0.7]], [1.0, 1.0])
    swapped = AtomicMeasure([[-0.7], [0.4]], [1.0, 1.0])
    pts = np.linspace(-2, 2, 9)[:, None]
    assert_allclose(U_nu(LINE, LNORM, two, 1.0, pts, 0.8),
                    U_nu(LINE, LNORM, swapped, 1.0, pts, 0.8), rtol=1e-12)
    with pytest.raises(ValueError):
        U_nu(LINE, LNORM, nu, 1.0, pts, -1.0)


# -- superlevel measures and weak constants ----------------------------------

THREE_ATOMS = AtomicMeasure([[0.0, 0.0, 0.0], [2.5, 0.0, 0.3],
                             [-1.0, 0.5, 0.2]], [1.0, 0.7, 2.0])
# more atoms than the 8-wide block of numpy's pairwise sum
TWELVE_ATOMS = AtomicMeasure(np.random.default_rng(8).uniform(-2, 2, (12, 3)),
                             np.linspace(0.5, 2.0, 12))


# (6, 3) meets superlevel_measure's (h, 1) height column and (2, 4, 9, 3)
# _hit_test's (4, 1) column against (c, 4, 9, n) points
@pytest.mark.parametrize("shape", [(3,), (4, 3), (4, 2, 3), (6, 3),
                                   (2, 4, 9, 3)])
@pytest.mark.parametrize("a", [0.7, "array", "column"])
def test_U_nu_is_the_sum_of_single_atoms(shape, a):
    eta = np.random.default_rng(4).uniform(-2, 2, shape)
    if a == "array":
        a = np.linspace(0.3, 2.0, math.prod(shape[:-1])).reshape(shape[:-1])
    elif a == "column":
        a = np.linspace(0.3, 2.0, 4)[:, None]
    for nu in (THREE_ATOMS, TWELVE_ATOMS):
        singles = sum(U_nu(HEIS, HNORM, AtomicMeasure([x], [w]), 1.5, eta, a)
                      for x, w in zip(nu.xi, nu.w))
        got = U_nu(HEIS, HNORM, nu, 1.5, eta, a)
        assert np.shape(got) == np.broadcast_shapes(np.shape(a), shape[:-1])
        assert_allclose(got, singles, rtol=1e-14)
    empty = AtomicMeasure(np.empty((0, 3)), [])
    assert np.all(U_nu(HEIS, HNORM, empty, 1.5, eta, a) == 0.0)


def test_measure_poisson_scalar_height_matches_per_point_heights():
    ker = KernelSpec(HEIS, HNORM, "model_power", Gamma=1.0)
    eta = np.random.default_rng(5).uniform(-2, 2, (50, 3))
    want = measure_poisson(HEIS, THREE_ATOMS, ker, 0.7, eta)
    got = measure_poisson(HEIS, THREE_ATOMS, ker, np.full(50, 0.7), eta)
    assert want.shape == (50,)
    assert_allclose(got, want, rtol=1e-13)


def test_u_piece_batch_matches_single_probes():
    piece = DyadicPiece(2, 0, np.array([0.1, -0.2, 0.05]), 0.25, 0.5, 1.0)
    probes = np.random.default_rng(6).uniform(-1, 1, (5, 3))
    got = u_piece(HEIS, HNORM, piece, 1.5, probes)
    singles = [u_piece(HEIS, HNORM, piece, 1.5, p)[0] for p in probes]
    assert np.array_equal(got, singles)


def _per_height_grid(F, alpha, window, res, na, calibration):
    """The grid estimator of superlevel_measure, one height at a time."""
    n = window.n
    c, hw = np.array(window.center), np.array(window.half_widths)
    vals = []
    for shift in (0.0, 0.5):
        axes, cell = [], 1.0
        for k in range(n):
            step = 2 * hw[k] / res
            axes.append(c[k] - hw[k] + (np.arange(res) + 0.5 + shift) * step)
            cell *= step
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, n)
        edges = np.linspace(window.a_lo, window.a_hi, na + 1)
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            am = 0.5 * (lo + hi)
            total += float(np.sum(F(pts, am) > alpha)) * cell * (hi - lo)
        vals.append(total * calibration)
    return 0.5 * (vals[0] + vals[1]), abs(vals[0] - vals[1])


@pytest.mark.parametrize("case", ["U_nu", "phi_gamma", "line", "no_height"])
def test_superlevel_blocks_match_per_height_loop(case):
    # enough points and heights that the points come in several blocks
    win = Window((0.5, 0.1, 0.1), (2.0, 1.5, 1.5), 0.05, 2.0)
    res, na, alpha = 21, 61, 0.3
    if case == "U_nu":
        F = lambda e, a: U_nu(HEIS, HNORM, THREE_ATOMS, 1.5, e, a)
    elif case == "phi_gamma":
        F = lambda e, a: phi_gamma(HNORM, 1.0, e, a) / a
    elif case == "line":
        F = lambda e, a: phi_gamma(LNORM, 1.0, e, a) / a
        win, res, na, alpha = Window((0.0,), (1.5,), 0.0, 1.2), 400, 1500, 1.0
    else:
        F, alpha = lambda e, a: HNORM(e), 1.0
    cal = HNORM.calibration()
    got = superlevel_measure(F, alpha, win, resolution=res, a_resolution=na,
                             calibration=cal)
    want = _per_height_grid(F, alpha, win, res, na, cal)
    assert want[0] > 0
    assert got == want


def test_superlevel_calls_F_on_point_blocks_with_every_height():
    # every call gets all na heights as one column; the point blocks of
    # each shift, several here, cover the grid exactly once
    win = Window((0.5, 0.1, 0.1), (2.0, 1.5, 1.5), 0.05, 2.0)
    res, na = 21, 61
    seen = []

    def F(e, a):
        seen.append((e.copy(), a.shape))
        return U_nu(HEIS, HNORM, THREE_ATOMS, 1.5, e, a)

    superlevel_measure(F, 0.3, win, resolution=res, a_resolution=na)
    assert len(seen) > 2
    assert all(shape == (na, 1) for _, shape in seen)
    pts = np.concatenate([e for e, _ in seen])
    assert len(pts) == 2 * res ** 3
    assert len(np.unique(pts, axis=0)) == 2 * res ** 3


def test_superlevel_zero_function_and_large_alpha():
    win = Window((0.0,), (2.0,), 0.0, 2.0)
    m, _ = superlevel_measure(lambda e, a: 0.0 * e[..., 0], 0.5, win)
    assert m == 0.0
    F = lambda e, a: phi_gamma(LNORM, 1.0, e, a) / a
    m, _ = superlevel_measure(F, 1e9, win, calibration=LNORM.calibration())
    assert m == 0.0


@pytest.mark.parametrize("Gamma", [1.0, 2.0])
def test_superlevel_closed_form_line(Gamma):
    # alpha * measure = int_0^1 (t^{(Gamma-1)/(Q+Gamma)} - t)^Q dt
    oracle = closed_form_constant(1, Gamma)
    F = lambda e, a: phi_gamma(LNORM, Gamma, e, a) / a
    for alpha in (0.1, 1.0, 10.0):
        top = alpha ** (-1.0 / 2)
        win = Window((0.0,), (1.2 * top,), 0.0, 1.05 * top)
        m, _ = superlevel_measure(F, alpha, win, resolution=400,
                                  a_resolution=400,
                                  calibration=LNORM.calibration())
        assert abs(alpha * m - oracle) < 0.03 * oracle


def test_superlevel_closed_form_heisenberg_monte_carlo():
    # (Q, Gamma) = (4, 1): oracle int_0^1 (1-t)^4 dt = 1/5
    oracle = closed_form_constant(4, 1.0)
    assert_allclose(oracle, 0.2, rtol=1e-10)
    F = lambda e, a: phi_gamma(HNORM, 1.0, e, a) / a
    for alpha in (0.5, 5.0):
        R = 1.05 * alpha ** (-1.0 / 5)
        win = Window((0, 0, 0), (1.1 * R, 1.1 * R, 1.2 * R * R), 0.0, R)
        m, _ = superlevel_measure(F, alpha, win, resolution=41,
                                  a_resolution=41,
                                  calibration=HNORM.calibration())
        assert abs(alpha * m - oracle) < 0.05 * oracle


def test_weak_constant_line_with_stability():
    F = lambda e, a: phi_gamma(LNORM, 1.0, e, a) / a
    win = Window((0.0,), (4.0,), 0.0, 3.4)
    rep = weak_l1_constant(F, (0.1, 1.0, 10.0), win, resolution=300,
                           a_resolution=300,
                           calibration=LNORM.calibration())
    assert abs(rep["constant"] - 0.5) < 0.03 * 0.5
    assert rep["stable"]


def _spy_superlevel(monkeypatch):
    """Records (window, resolution, a_resolution) of each grid call."""
    import nilharmonics.weak_l1 as wl
    calls, real = [], wl.superlevel_measure

    def spy(F, alpha, window, **kw):
        calls.append((window, np.asarray(kw["resolution"]),
                      kw["a_resolution"]))
        return real(F, alpha, window, **kw)

    monkeypatch.setattr(wl, "superlevel_measure", spy)
    return calls


@pytest.mark.parametrize("n, kwargs", [
    (1, {}),  # the default resolution
    (2, {"resolution": np.array([5, 9]), "a_resolution": 4}),
])
def test_weak_constant_doubles_resolution_with_window(monkeypatch, n,
                                                       kwargs):
    # the doubled window is re-measured with cells of the original size
    calls = _spy_superlevel(monkeypatch)
    F = lambda e, a: np.zeros(len(e))
    win = Window((0.0,) * n, (1.0, 3.0)[:n], 0.0, 2.0)
    weak_l1_constant(F, (0.5, 1.0), win, **kwargs)
    assert len(calls) == 4
    (w0, res0, ares0), (w1, res1, ares1) = calls[0], calls[-1]
    assert w1.half_widths == tuple(2 * h for h in w0.half_widths)
    assert_allclose(np.asarray(w1.half_widths) / res1,
                    np.asarray(w0.half_widths) / res0)
    if ares0 is None:  # the height count follows the first axis
        assert ares1 is None
    else:
        assert (w1.a_hi - w1.a_lo) / ares1 == (w0.a_hi - w0.a_lo) / ares0


def test_da_over_a_measure_fails_weak_bound():
    # against dlambda da/a the products alpha * measure blow up
    F = lambda e, a: phi_gamma(LNORM, 1.0, e, a) / a
    prods = []
    for alpha in (0.01, 0.1, 1.0, 10.0, 100.0):
        top = alpha ** (-0.5)
        win = Window((0.0,), (1.1 * top,), 1e-5, 1.05 * top)
        m, _ = superlevel_measure(F, alpha, win, resolution=500,
                                  a_resolution=1200, a_power=-1,
                                  calibration=LNORM.calibration())
        prods.append(alpha * m)
    assert all(b > a for a, b in zip(prods, prods[1:]))
    assert prods[-1] > 10.0 * prods[0]


def one(e, a):
    return np.ones(np.broadcast_shapes(np.shape(a), e.shape[:-1]))


@pytest.mark.parametrize("a_power", [-1, -1.5])
def test_height_power_not_integrable_at_zero_rejected(a_power):
    # int_0 a^p da diverges for p <= -1: no window from a = 0 measures it
    with pytest.raises(ValueError):
        superlevel_measure(one, 0.5, Window((0.0,), (1.0,), 0.0, 1.0),
                           a_power=a_power)


def test_integrable_height_power_from_zero_is_exact():
    # |{1 > 1/2}| against da / sqrt(a) on [-1, 1] x (0, 1] is 2 * 2 = 4;
    # each height cell's weight is its exact integral, down to a = 0
    m, bar = superlevel_measure(one, 0.5, Window((0.0,), (1.0,), 0.0, 1.0),
                                resolution=11, a_power=-0.5)
    assert_allclose(m, 4.0, rtol=1e-12)
    assert bar == 0.0


# -- global bounds for measure Poisson integrals -----------------------------

CERT_OK = {"passed": True, "note": "precomputed certification"}


def test_mu_poisson_weak_and_sup_bounds():
    ker = KernelSpec(LINE, LNORM, "classical_abelian")
    mu = AtomicMeasure([[0.0]], [1.0])
    win = Window((0.0,), (3.0,), 0.0, 3.0)
    rep = mu_poisson_bounds(mu, ker, win, a0=1.0, certificate=CERT_OK,
                            resolution=121)
    assert np.isfinite(rep["weak"]["constant"])
    assert rep["weak"]["stable"]
    sups = rep["sup_infinity"]
    assert all(np.isfinite(s) for s in sups)
    assert rep["sup_nonincreasing"]


def test_mu_poisson_sup_takes_every_height_at_once(monkeypatch):
    # acceptance 12's inputs: part (a) multiplies 12 times over 4,356
    # points, and part (b) once per a0 over the 121 points x 2 atoms, not
    # once per height (which made 87 calls over 22,506 points)
    ker = KernelSpec(LINE, LNORM, "classical_abelian")
    mu = AtomicMeasure([[0.0], [1.5]], [1.0, 0.5])
    win = Window((0.0,), (3.0,), 0.0, 3.0)
    seen = []
    multiply = GroupSpec.multiply

    def counted(self, eta, xi):
        out = multiply(self, eta, xi)
        seen.append(out[..., 0].size)
        return out

    monkeypatch.setattr(GroupSpec, "multiply", counted)
    rep = mu_poisson_bounds(mu, ker, win, a0=1.0, certificate=CERT_OK,
                            resolution=121)
    monkeypatch.undo()
    assert (len(seen), sum(seen)) == (15, 5082)
    # the per-height loop it replaces
    pts = np.linspace(-3.0, 3.0, 121)[:, None]
    Q, Gamma = 1.0, ker.Gamma
    assert rep["sup_infinity"] == [
        max(0.0, *(float(np.max(
            measure_poisson(LINE, mu, ker, float(a), pts) * a ** -Gamma
            / (1.0 + a + LNORM(pts)) ** (Q + Gamma)))
            for a in np.geomspace(lo, max(3.0, 4 * lo), 25)))
        for lo in (1.0, 2.0, 4.0)]


def test_mu_poisson_refuses_uncertified_kernel():
    ker = KernelSpec(LINE, LNORM, "classical_abelian")
    mu = AtomicMeasure([[0.0]], [1.0])
    win = Window((0.0,), (2.0,), 0.0, 2.0)
    with pytest.raises(ValueError):
        mu_poisson_bounds(mu, ker, win, a0=1.0,
                          certificate={"passed": False})


# -- the dyadic covering -----------------------------------------------------

NU_LINE = AtomicMeasure([[0.0]], [1.0])
NU_HEIS = AtomicMeasure([[0.0, 0.0, 0.0], [2.5, 0.0, 0.3]], [1.0, 1.0])


@pytest.fixture(scope="module")
def line_cover():
    cert = build_covering(LINE, LNORM, NU_LINE, 1.0, 0.1, 2, 6)
    rep = verify_covering(cert, LINE, LNORM, NU_LINE, resolution=161)
    return cert, rep


@pytest.fixture(scope="module")
def heis_cover():
    cert = build_covering(HEIS, HNORM, NU_HEIS, 1.0, 20.0, 2, 4)
    rep = verify_covering(cert, HEIS, HNORM, NU_HEIS, resolution=35)
    return cert, rep


@pytest.mark.parametrize("Gamma", [0.3, 0.5, 1.0, 2.0])
def test_reach_bounds_the_superlevel_set_on_the_band(Gamma):
    # U_nu > alpha at a height of [a_lo, a_hi] only nearer to an atom than
    # the reach, and only at heights below it; for Gamma < 1, a^{Gamma-1}
    # is largest at a_lo
    nu = AtomicMeasure([[0.0], [1.5]], [1.0, 0.5])
    a_lo, a_hi, alpha = 0.5, 2.0, 0.3
    reach = _reach(nu, 1.0, Gamma, alpha, a_lo, a_hi)
    eta = np.linspace(-6.0, 8.0, 1401)[:, None]
    a = np.linspace(a_lo, a_hi, 61)[:, None]
    hit = U_nu(LINE, LNORM, nu, Gamma, eta, a) > alpha
    assert hit.any()
    near = np.min(np.abs(eta - nu.xi[:, 0]), axis=1)
    assert np.all(near[hit.any(axis=0)] < reach)
    assert np.all(a[hit.any(axis=1), 0] < reach)


def test_covering_meets_the_set_at_low_heights_when_Gamma_below_1():
    # U_nu(0, a) = a^{-2} > 0.2 for a < 5^{1/2}, so the set meets the
    # heights [2, 4] of scale 0, where a^{Gamma-1} peaks at a = 2
    nu = AtomicMeasure([[0.0]], [1.0])
    assert U_nu(LINE, LNORM, nu, 0.5, [0.0], 2.0) > 0.2
    cert = build_covering(LINE, LNORM, nu, 0.5, 0.2, 2, 3)
    assert 0 in {p.i for p in cert.authorized}


def test_empty_measure_gives_empty_covering():
    nu = AtomicMeasure(np.zeros((0, 1)), np.zeros(0))
    cert = build_covering(LINE, LNORM, nu, 1.0, 0.5, 2, 4)
    assert len(cert.authorized) == 0
    rep = verify_covering(cert, LINE, LNORM, nu)
    assert rep["C_i"] == 0.0 and rep["C_iii"] == 0.0


def test_covering_depth_underflow_rejected():
    with pytest.raises(ValueError):
        build_covering(LINE, LNORM, NU_LINE, 1.0, 0.1, 0, 40)


def _heisenberg_with(name, c):
    e1, e2 = (1, 0, 0), (0, 1, 0)
    return GroupSpec(name, (1, 1, 2), [((2, e1, e2), c), ((2, e2, e1), -c)])


@pytest.mark.parametrize("spec", [
    heisenberg(),
    # named like the builtin, with another bracket constant
    _heisenberg_with("heisenberg", Fraction(1, 4)),
    random_step2(3, 2, seed=11),
], ids=["heisenberg", "quarter-bracket", "step2"])
def test_covering_lattice_is_a_subgroup(spec):
    rng = np.random.default_rng(6)
    d = np.array([float(w) for w in spec.weights])
    for s in (1.0, 0.5):
        m1, m2 = rng.integers(-6, 7, (2, 50, spec.n))
        prod = spec.multiply(_lattice_coords(spec, s, m1),
                             _lattice_coords(spec, s, m2))
        ints = prod / (_lattice_scales(spec) * s ** d)
        assert np.max(np.abs(ints - np.round(ints))) < 1e-9


def test_covering_lattice_ignores_group_name():
    renamed = _heisenberg_with("heis_renamed", Fraction(1, 2))
    assert np.array_equal(_lattice_scales(renamed),
                          _lattice_scales(heisenberg()))
    assert np.array_equal(_lattice_scales(heisenberg()), [1.0, 1.0, 0.5])


def test_covering_line_properties(line_cover):
    cert, rep = line_cover
    assert len(cert.authorized) >= 1
    assert np.isfinite(rep["C_i"]) and rep["C_i"] > 0
    assert np.isfinite(rep["C_ii"]) and np.isfinite(rep["C_iii"])
    assert rep["chain_holds"]
    assert rep["disjoint"]
    assert rep["forbidden_ratio_measured"] <= rep["forbidden_ratio_analytic"]


def test_covering_line_depth_stable(line_cover):
    cert, rep = line_cover
    cert2 = build_covering(LINE, LNORM, NU_LINE, 1.0, 0.1, 2, 8)
    rep2 = verify_covering(cert2, LINE, LNORM, NU_LINE, resolution=161)
    for key in ("C_i", "C_ii", "C_iii"):
        assert abs(rep2[key] - rep[key]) <= 0.10 * abs(rep[key])


@pytest.mark.parametrize("spec", [HEIS, random_step2(2, 2, seed=3)],
                         ids=["heisenberg", "step2"])
def test_ball_samples_fill_their_balls_uniformly(spec):
    norm = HomogeneousNorm(spec)
    rng = np.random.default_rng(8)
    r = 0.7
    centers = rng.uniform(-2, 2, (5, 4, spec.n))
    pts = _ball_samples(spec, norm, centers, r, 50, rng)
    assert pts.shape == (5, 4, 50, spec.n)
    # each sample in its own translated ball, up to the rounding of the
    # translation
    d = norm(spec.multiply(-centers[..., None, :], pts))
    assert np.all(d <= r * (1 + 1e-12))
    # |B(0, r/2)| / |B(0, r)| = 2^-Q for a uniform sampler
    count = 40000
    share = np.mean(norm(_ball_samples(spec, norm, np.zeros(spec.n), r,
                                       count, rng)) <= r / 2)
    p = 2.0 ** -float(spec.Q)
    assert abs(share - p) <= 4 * math.sqrt(p * (1 - p) / count)


@pytest.mark.parametrize("norm", [HNORM, HomogeneousNorm(HEIS, "koranyi"),
                                  HomogeneousNorm(random_step2(3, 2, 4))],
                         ids=["heisenberg", "koranyi", "step2"])
def test_count_within_gauges_only_the_layer1_box(monkeypatch, norm):
    spec, r = norm.spec, 0.5
    rng = np.random.default_rng(5)
    # dyadic centers, so that c . (r e_k) is at distance r exactly
    centers = rng.integers(-8, 9, (300, spec.n)) / 4.0
    near = _ball_samples(spec, norm, centers[::30], r, 20, rng)
    # and points on the spheres |c^{-1} x| = r: along the axes of weight
    # 1, which reach the layer-1 box's faces, and elsewhere up to rounding
    axes = r * np.eye(spec.n)[spec.layer1]
    axes = np.concatenate([axes, -axes])
    z = rng.normal(size=(len(near), 20, spec.n))
    on = np.stack([spec.dilate(r / norm(p), p) for p in
                   z.reshape(-1, spec.n)]).reshape(z.shape)
    pts = np.concatenate([
        near.reshape(-1, spec.n),
        spec.multiply(centers[::30, None, :], on).reshape(-1, spec.n),
        spec.multiply(centers[::30, None, :], axes).reshape(-1, spec.n),
        rng.uniform(-2, 2, (200, spec.n))])
    want = np.sum(norm(spec.multiply(-centers, pts[:, None, :])) <= r, 1)
    gauged = []
    gauge = HomogeneousNorm.__call__

    def counted(self, eta):
        gauged.append(np.size(eta) // spec.n)
        return gauge(self, eta)

    monkeypatch.setattr(HomogeneousNorm, "__call__", counted)
    np.testing.assert_array_equal(
        _count_within(spec, norm, pts, centers, r), want)
    assert sum(gauged) < 0.2 * len(pts) * len(centers)


def _check_covering_invariants(cert, spec, norm):
    pieces = cert.authorized
    assert [(p.i, p.j) for p in pieces] == sorted((p.i, p.j) for p in pieces)
    assert set(cert.forbidden_volume) <= {p.key for p in pieces}
    Q = float(spec.Q)
    for m, q in enumerate(pieces):
        for p in pieces[:m]:
            d_eta = max(norm(spec.multiply(-p.center, q.center))
                        - p.radius - q.radius, 0.0)
            d_a = max(p.a_lo - q.a_hi, 0.0)
            assert max(d_eta, d_a) >= _forbid_radius(cert.i0, p.i, q.i, Q,
                                                     cert.Gamma)


def test_covering_line_invariants(line_cover):
    _check_covering_invariants(line_cover[0], LINE, LNORM)


def test_covering_heisenberg_invariants(heis_cover):
    _check_covering_invariants(heis_cover[0], HEIS, HNORM)


def test_covering_gauge_calls_are_batched(monkeypatch):
    calls = []
    gauge = HomogeneousNorm.__call__

    def counted(self, eta):
        calls.append(1)
        return gauge(self, eta)

    monkeypatch.setattr(HomogeneousNorm, "__call__", counted)
    cert = build_covering(HEIS, HNORM, NU_HEIS, 1.0, 20.0, 2, 4)
    verify_covering(cert, HEIS, HNORM, NU_HEIS, resolution=35)
    # one gauge call per candidate, as a loop would make, is over 10,000
    assert len(calls) < 2000


def test_covering_heisenberg_properties(heis_cover):
    cert, rep = heis_cover
    assert len(cert.authorized) == 2  # one piece per separated atom
    assert np.isfinite(rep["C_i"]) and rep["chain_holds"] and rep["disjoint"]
    assert rep["forbidden_ratio_measured"] <= rep["forbidden_ratio_analytic"]
    assert cert.kappa_measured <= len(NU_HEIS.w) * cert.kappa_design


def test_covering_heisenberg_depth_stable(heis_cover):
    cert, rep = heis_cover
    cert2 = build_covering(HEIS, HNORM, NU_HEIS, 1.0, 20.0, 2, 6)
    rep2 = verify_covering(cert2, HEIS, HNORM, NU_HEIS, resolution=35)
    for key in ("C_i", "C_ii", "C_iii"):
        assert abs(rep2[key] - rep[key]) <= 0.10 * abs(rep[key])


def test_covering_translation_covariance(heis_cover):
    cert, rep = heis_cover
    eta0 = np.array([0.4, -0.3, 0.1])
    moved = NU_HEIS.translate(HEIS, eta0)
    cert2 = build_covering(HEIS, HNORM, moved, 1.0, 20.0, 2, 4)
    rep2 = verify_covering(cert2, HEIS, HNORM, moved, resolution=35)
    assert len(cert2.authorized) == len(cert.authorized)
    for key in ("C_ii", "C_iii"):
        assert abs(rep2[key] - rep[key]) <= 0.10 * abs(rep[key])
    assert abs(rep2["C_i"] - rep["C_i"]) <= 0.10 * rep["C_i"]


def test_covering_concentrates_near_single_atom():
    nu = AtomicMeasure([[0.5]], [1.0])
    cert = build_covering(LINE, LNORM, nu, 1.0, 2.0, 1, 5)
    assert len(cert.authorized) >= 1
    for p in cert.authorized:
        assert LNORM(LINE.multiply(-p.center, nu.xi[0])) <= 2 * 2.0 ** 1
