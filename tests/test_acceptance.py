"""Acceptance suite: one test per acceptance criterion, each printing a
single pass/fail line with its runtime against the stated budget."""

import time
from fractions import Fraction

import numpy as np
import scipy.integrate as si
from numpy.testing import assert_allclose

from nilharmonics.calculus import (
    OperatorWord, conversion_residual, convolution_identity_residuals,
    fundlink_residual, integrate_by_parts_residual, multi_indices_upto)
from nilharmonics.distributions import (
    DistributionRep, TestFunction, boundary_convergence,
    extension_weighted_norm, poisson_extend, weight_field)
from nilharmonics.group_core import (
    HomogeneousNorm, abelian, heisenberg, peetre_factor, random_step2)
from nilharmonics.kernels import (
    KernelSpec, certify_RGamma, dilated_field,
    harmonicity_residual)
from nilharmonics.polynomials import (
    Polynomial, SmoothField, gaussian_profile, poly_bump_profile)
from nilharmonics.quadrature import (
    Grid, I_rs, convolve, check_map, haar_integrate, irs_bound_check,
    polar_integrate)
from nilharmonics.weak_l1 import (
    AtomicMeasure, Window, build_covering, mu_poisson_bounds, phi_gamma,
    superlevel_measure, verify_covering)

LINE = abelian(1)
LNORM = HomogeneousNorm(LINE, "even-power")
HEIS = heisenberg()
HNORM = HomogeneousNorm(HEIS, "even-power")


def _verdict(num, label, checks, elapsed, budget):
    checks = dict(checks)
    checks["within_budget"] = elapsed < budget
    ok = all(checks.values())
    print(f"acceptance {num:02d} {label}: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, {k: v for k, v in checks.items() if not v}


def line_gaussian(width=1.0, shift=0.0):
    base = Polynomial(1, {(2,): 1.0, (1,): -2.0 * shift, (0,): shift ** 2})
    return SmoothField(base, gaussian_profile(1.0, width))


def heis_bump(radius=1.5, shift=(0.0, 0.0, 0.0)):
    coeffs = {}
    for k in range(3):
        e2 = tuple(2 * (j == k) for j in range(3))
        e1 = tuple(1 * (j == k) for j in range(3))
        coeffs[e2] = coeffs.get(e2, 0) + 1.0
        coeffs[e1] = coeffs.get(e1, 0) - 2.0 * shift[k]
    coeffs[(0, 0, 0)] = sum(s * s for s in shift)
    base = Polynomial(3, coeffs)
    return SmoothField(base * (1.0 / radius ** 2), poly_bump_profile(1.0, 6))


# The six shipped (T, kernel, phi) triples used by criteria 7-9: three on
# the line (orders 0, 1, 2) and three on the Heisenberg group (orders
# 0, 1, 1 along different layers).
LINE_ALPHAS = [(0,), (1,), (2,)]
HEIS_ALPHAS = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]


def line_triple(alpha):
    T = DistributionRep(LINE, LNORM, 1.0, [(alpha, line_gaussian())])
    ker = KernelSpec(LINE, LNORM, "classical_abelian")
    phi = TestFunction(LINE, line_gaussian(2.0, 1.0), "schwartz-like")
    return T, ker, phi


def heis_triple(alpha):
    g = heis_bump(1.2, (0.3, 0.2, -0.1))
    T = DistributionRep(HEIS, HNORM, 1.0, [(alpha, g)], mu=0.0)
    ker = KernelSpec(HEIS, HNORM, "model_power", Gamma=1.0)
    phi = TestFunction(HEIS, heis_bump(2.0), "schwartz-like")
    return T, ker, phi


def test_acceptance_01_group_axioms():
    t0 = time.time()
    checks = {}
    for G in (abelian(2), HEIS, random_step2(2, 1, seed=0)):
        rng = np.random.default_rng(0)
        x, y, z = (rng.uniform(-3, 3, (1000, G.n)) for _ in range(3))
        assoc = np.max(np.abs(G.multiply(G.multiply(x, y), z)
                              - G.multiply(x, G.multiply(y, z))))
        ident = np.max(np.abs(G.multiply(x, G.identity()) - x))
        inv = np.max(np.abs(G.multiply(x, G.inverse(x))))
        checks[G.name] = max(assoc, ident, inv) < 1e-10
    _verdict(1, "group axioms", checks, time.time() - t0, 5.0)


def test_acceptance_02_norm_laws():
    t0 = time.time()
    checks = {}
    rng = np.random.default_rng(1)
    for G in (LINE, HEIS):
        for variant in ("even-power", "koranyi") if G is HEIS \
                else ("even-power",):
            N = HomogeneousNorm(G, variant)
            p = rng.uniform(-3, 3, (2000, G.n))
            hom = max(np.max(np.abs(N(G.dilate(a, p)) - a * N(p)))
                      for a in (0.3, 1.7, 4.0))
            sym = np.max(np.abs(N(G.inverse(p)) - N(p)))
            checks[f"{G.name}-{variant}"] = max(hom, sym) < 1e-12
    NK = HomogeneousNorm(HEIS, "koranyi")
    checks["koranyi_gamma"] = NK.measured_gamma() <= 1.01
    eta = rng.uniform(-3, 3, (100000, 3))
    xi = rng.uniform(-3, 3, (100000, 3))
    for r in (-3.0, -1.0, 1.0, 3.0):
        lhs, rhs = peetre_factor(NK, eta, xi, r)
        checks[f"peetre_r={r}"] = bool(np.all(lhs <= rhs * (1 + 1e-12)))
    _verdict(2, "norm laws", checks, time.time() - t0, 10.0)


def test_acceptance_03_haar_calibration():
    t0 = time.time()
    checks = {}
    # unit balls have measure 1 by calibration; doubled balls scale by 2^Q
    u1 = haar_integrate(lambda p: (LNORM(p) <= 1.0).astype(float),
                        Grid([0.0], [1.1], [801]), LNORM.calibration())
    checks["unit_ball_line"] = 0.99 < u1 < 1.01
    u4 = haar_integrate(lambda p: (HNORM(p) <= 1.0).astype(float),
                        Grid([0.0] * 3, 1.1 * HNORM.box(1.0), [101] * 3),
                        HNORM.calibration())
    checks["unit_ball_heis"] = 0.99 < u4 < 1.01
    grid1 = Grid([0.0], [2.2], [801])
    v1 = haar_integrate(lambda p: (LNORM(p) <= 2.0).astype(float), grid1,
                        LNORM.calibration())
    checks["doubled_ball_line"] = 0.99 < v1 / 2.0 < 1.01
    ext = 1.1 * HNORM.box(2.0)
    grid4 = Grid([0.0] * 3, ext, [101] * 3)
    v4 = haar_integrate(lambda p: (HNORM(p) <= 2.0).astype(float), grid4,
                        HNORM.calibration())
    checks["doubled_ball_heis"] = 0.99 < v4 / 16.0 < 1.01
    # polar versus Cartesian on a radial integrand
    f1 = lambda p: np.exp(-LNORM(p) ** 2)
    pol1 = polar_integrate(f1, LNORM, 6.0, n_r=401, resolution=641)
    car1 = haar_integrate(f1, Grid([0.0], [6.0], [801]),
                          LNORM.calibration())
    checks["polar_line"] = abs(pol1 / car1 - 1.0) < 0.01
    f4 = lambda p: np.exp(-HNORM(p) ** 2)
    pol4 = polar_integrate(f4, HNORM, 5.0)
    car4 = haar_integrate(f4, Grid([0.0] * 3, [3.0, 3.0, 9.0], [61] * 3),
                          HNORM.calibration())
    checks["polar_heis"] = abs(pol4 / car4 - 1.0) < 0.01
    _verdict(3, "Haar calibration", checks, time.time() - t0, 30.0)


def test_acceptance_04_calculus_identities():
    t0 = time.time()
    checks = {}
    # exact-zero identities on polynomial inputs
    for G in (abelian(2), HEIS):
        alphas = [a for a in multi_indices_upto(G.n, 3) if sum(a)]
        checks[f"conversion_{G.name}"] = all(
            conversion_residual(G, a) == 0.0 for a in alphas)
    polys = [Polynomial(3, {g: 1}) for g in multi_indices_upto(3, 4)]
    pts = np.random.default_rng(9).uniform(-1.0, 1.0, (4, 3))
    h_alphas = [a for a in multi_indices_upto(3, 3) if sum(a)]
    checks["deriv_poly"] = all(
        fundlink_residual(HEIS, a, polys, pts) < 1e-10 for a in h_alphas)
    # recursive product rule under a full word, exact on polynomials
    phi = Polynomial(3, {(1, 0, 0): 1, (0, 0, 1): Fraction(1, 2)})
    psi = Polynomial(3, {(0, 2, 0): 1, (1, 0, 0): -1})
    w = OperatorWord(HEIS, "X", (1, 1, 1))
    pairs = [(phi, psi)]
    for field in reversed(w.fields):
        pairs = [q for a, b in pairs
                 for q in ((field.apply_symbolic(a), b),
                           (a, field.apply_symbolic(b)))]
    rhs = None
    for a, b in pairs:
        rhs = a * b if rhs is None else rhs + a * b
    checks["leibniz"] = (w.apply_symbolic(phi * psi) - rhs).is_zero()
    # smooth bumps: by-parts, the four convolution identities, derivative
    # link, all orders up to 3 on both groups
    fl = line_gaussian()
    gl = line_gaussian(1.2)
    lgrid = Grid([0.0], [9.0], [301])
    worst = 0.0
    for a in [(1,), (2,), (3,)]:
        worst = max(worst,
                    integrate_by_parts_residual(LINE, "X", a, fl, gl, lgrid),
                    max(convolution_identity_residuals(
                        LINE, a, fl, gl, lgrid, [[0.4], [-0.8]]).values()))
    checks["smooth_line"] = worst < 1e-4
    fh = heis_bump(1.6, (0.2, 0.0, -0.1))
    gh = heis_bump(1.6, (-0.1, 0.15, 0.0))
    hgrid = Grid([0.0] * 3, 2.1, 41)
    bump = heis_bump(1.6, (0.1, 0.0, 0.0))
    worst = 0.0
    for a in h_alphas:
        worst = max(worst,
                    integrate_by_parts_residual(HEIS, "X", a, fh, gh, hgrid),
                    max(convolution_identity_residuals(
                        HEIS, a, fh, gh, hgrid, [[0.2, 0.1, -0.1]]).values()),
                    fundlink_residual(HEIS, a, [bump],
                                      pts * 0.7))
    checks["smooth_heis"] = worst < 1e-4
    _verdict(4, "calculus identities", checks, time.time() - t0, 120.0)


def test_acceptance_05_convolution_power_bounds():
    t0 = time.time()
    checks = {}
    NK = HomogeneousNorm(HEIS, "koranyi")
    # one case per regime and Q: both-powers-integrable, log-critical,
    # single-dominant
    cases = [(LNORM, -0.75, -0.75, 81, 1024.0, 13),
             (LNORM, -1.0, -0.5, 81, 64.0, 9),
             (LNORM, -2.0, -2.0, 81, 64.0, 9),
             (NK, -2.0, -3.0, 21, 64.0, 9),
             (NK, -4.0, -1.5, 21, 64.0, 9),
             (NK, -5.0, -2.0, 21, 64.0, 9)]
    for N, r, s, count, top, n in cases:
        base = irs_bound_check(N, r, s, np.geomspace(0.25, top, n),
                               count=count)
        dbl = irs_bound_check(N, r, s, np.geomspace(0.25, 2 * top, n + 1),
                              count=count)
        growth = dbl["sup_ratio"] / base["sup_ratio"] - 1.0
        checks[f"Q{N.spec.Q}_r{r}_s{s}"] = base["bounded"] and growth < 0.05
    # exact value at the origin: int (1+|x|)^{-4} dx = 2/3 on the line
    val = I_rs(LNORM, -2.0, -2.0, [0.0], count=161)
    checks["origin_exact"] = abs(val - 2.0 / 3.0) < 1e-4
    _verdict(5, "convolution power bounds", checks, time.time() - t0, 120.0)


def test_acceptance_06_kernel_certification():
    t0 = time.time()
    checks = {}
    cl = KernelSpec(LINE, LNORM, "classical_abelian")
    kh1 = KernelSpec(HEIS, HNORM, "model_power", Gamma=1.0)
    kh2 = KernelSpec(HEIS, HNORM, "model_power", Gamma=2.0)
    checks["classical"] = certify_RGamma(cl, radius=200.0)["passed"]
    checks["heis_gamma1"] = certify_RGamma(
        kh1, radius=2000.0, n_dirs=16, n_radii=30)["passed"]
    checks["heis_gamma2"] = certify_RGamma(
        kh2, radius=1e5, n_dirs=16, n_radii=25)["passed"]
    # the classical family is a convolution semigroup across scales
    grid = Grid([0.0], [500.0], 2001, grading=5.0)
    xs = np.linspace(-4, 4, 17)[:, None]
    sup = 0.0
    for a, b in [(1.0, 1.0), (0.5, 0.5), (1.0, 2.0)]:
        got = convolve(LINE, dilated_field(cl, a), dilated_field(cl, b), xs,
                       grid)
        sup = max(sup, float(np.max(np.abs(got - dilated_field(
            cl, a + b)(xs)))))
    checks["semigroup"] = sup < 1e-3
    pts = np.random.default_rng(4).uniform(-3, 3, (20, 2))
    res = harmonicity_residual(KernelSpec(abelian(2),
                                          HomogeneousNorm(abelian(2)),
                                          "classical_abelian"),
                               pts, np.array([0.5, 1.0, 2.0]))
    checks["harmonicity"] = res < 1e-4
    _verdict(6, "kernel certification", checks, time.time() - t0, 180.0)


def test_acceptance_07_pairing_two_paths():
    t0 = time.time()
    checks = {}
    a = 0.5
    igrid = Grid([0.0], [60.0], [1201], grading=4.0)
    ogrid = Grid([0.0], [60.0], [1201], grading=4.0)
    for alpha in LINE_ALPHAS:
        T, ker, phi = line_triple(alpha)
        g = T.terms[0][1]
        ext = poisson_extend(T, ker, a, ogrid.points, igrid)
        lhs = float(np.sum(ext * phi(ogrid.points) * ogrid.weights))
        pkc = check_map(LINE, lambda p: dilated_field(ker, a).eval(p))
        cphi = lambda p: convolve(LINE, lambda q: phi(q), pkc, p, igrid)
        w = weight_field(LNORM, 2.0)
        h = lambda p: w.eval(p) * cphi(p)
        dprod = OperatorWord(LINE, "Xt", alpha).as_callable(h) \
            if sum(alpha) else h
        rhs = (-1.0) ** sum(alpha) * float(np.sum(
            g.eval(igrid.points) * dprod(igrid.points) * igrid.weights))
        checks[f"line_{alpha}"] = abs(lhs - rhs) / abs(rhs) < 1e-4
    ah = 1.0
    ogrid = Grid([0.0] * 3, [2.1] * 3, [21] * 3)
    igrid = Grid([0.3, 0.2, -0.1], [1.3] * 3, [21] * 3)
    cgrid = Grid([0.0] * 3, [2.1] * 3, [23] * 3)
    fgrid = Grid([0.3, 0.2, -0.1], [1.3] * 3, [23] * 3)
    for alpha in HEIS_ALPHAS:
        T, ker, phi = heis_triple(alpha)
        g = T.terms[0][1]
        ext = poisson_extend(T, ker, ah, ogrid.flat_points, igrid)
        lhs = float(np.sum(ext * phi(ogrid.flat_points)
                           * ogrid.flat_weights))
        pk = dilated_field(ker, ah).negate_coords()
        kd = OperatorWord(HEIS, "Xt", alpha).apply_symbolic(pk) \
            if sum(alpha) else pk
        psi = convolve(HEIS, lambda q: phi(q), lambda p: kd.eval(p),
                       fgrid.flat_points, cgrid)
        rhs = (-1.0) ** sum(alpha) * float(np.sum(
            g.eval(fgrid.flat_points) * psi * fgrid.flat_weights))
        checks[f"heis_{alpha}"] = abs(lhs - rhs) / abs(rhs) < 1e-4
    _verdict(7, "pairing two paths", checks, time.time() - t0, 300.0)


def test_acceptance_08_extension_weighted_norms():
    t0 = time.time()
    checks = {}
    inner = Grid([0.0], [60.0], [801], grading=4.0)
    for alpha in LINE_ALPHAS:
        T, ker, _ = line_triple(alpha)
        v1 = extension_weighted_norm(
            T, ker, 0.5, (1,), Grid([0.0], [80.0], [401], grading=4.0),
            inner)
        v2 = extension_weighted_norm(
            T, ker, 0.5, (1,), Grid([0.0], [160.0], [801], grading=4.0),
            inner)
        checks[f"line_{alpha}"] = (np.isfinite(v1) and v1 > 0
                                   and abs(v2 - v1) / v1 < 0.05)
    inner = Grid([0.3, 0.2, -0.1], [1.3] * 3, [17] * 3)
    for alpha in HEIS_ALPHAS:
        T, ker, _ = heis_triple(alpha)
        # doubled domain at fixed cell size so only the tail can move
        v1 = extension_weighted_norm(
            T, ker, 0.5, (0, 0, 0),
            Grid([0.0] * 3, [3.0, 3.0, 6.0], [13] * 3), inner)
        v2 = extension_weighted_norm(
            T, ker, 0.5, (0, 0, 0),
            Grid([0.0] * 3, [6.0, 6.0, 12.0], [25] * 3), inner)
        checks[f"heis_{alpha}"] = (np.isfinite(v1) and v1 > 0
                                   and abs(v2 - v1) / v1 < 0.05)
    _verdict(8, "extension weighted norms", checks, time.time() - t0, 180.0)


def test_acceptance_09_boundary_convergence():
    t0 = time.time()
    checks = {}
    a_list = [2.0 ** -k for k in range(7)]
    for alpha in LINE_ALPHAS:
        T, ker, phi = line_triple(alpha)
        kwargs = dict(method="scaled", span=8.0, count=1001) \
            if sum(alpha) == 2 else {}
        out = boundary_convergence(
            T, ker, phi, a_list,
            Grid([0.0], [40.0], [801], grading=3.0),
            Grid([0.0], [300.0], [4001], grading=8.0), **kwargs)
        errs = [r[3] for r in out["rows"]]
        strict = all(b < a for a, b in zip(errs, errs[1:]))
        checks[f"line_{alpha}"] = strict and errs[-1] < 0.10 * errs[0]
        if sum(alpha) <= 1:  # smooth data: error is O(a), slope near 1
            checks[f"line_{alpha}_slope"] = 0.8 <= out["slope"] <= 1.2
    # the limit carries the kernel's closed-form mass, ker.mass
    ker = KernelSpec(HEIS, HNORM, "model_power", Gamma=1.0)
    for alpha in HEIS_ALPHAS:
        T, _, phi = heis_triple(alpha)
        out = boundary_convergence(
            T, ker, phi, a_list,
            Grid([0.0] * 3, [2.1] * 3, [17] * 3),
            Grid([0.3, 0.2, -0.1], [1.3] * 3, [21] * 3),
            method="scaled", span=4.0, count=29)
        errs = [r[3] for r in out["rows"]]
        strict = all(b < a for a, b in zip(errs, errs[1:]))
        checks[f"heis_{alpha}"] = strict and errs[-1] < 0.10 * errs[0]
    _verdict(9, "boundary convergence", checks, time.time() - t0, 300.0)


def test_acceptance_10_weak_l1_closed_form():
    t0 = time.time()
    checks = {}
    alphas = (0.01, 0.1, 1.0, 10.0, 100.0)

    def oracle(Q, Gamma):
        v, _ = si.quad(lambda u: (u ** ((Gamma - 1.0) / (Q + Gamma))
                                  - u) ** Q, 0.0, 1.0)
        return v

    for Gamma in (1.0, 2.0):
        want = oracle(1, Gamma)
        F = lambda e, a: phi_gamma(LNORM, Gamma, e, a) / a
        worst = 0.0
        for alpha in alphas:
            top = alpha ** -0.5
            win = Window((0.0,), (1.2 * top,), 0.0, 1.05 * top)
            m, _ = superlevel_measure(F, alpha, win, resolution=400,
                                      a_resolution=400,
                                      calibration=LNORM.calibration())
            worst = max(worst, abs(alpha * m - want) / want)
        checks[f"grid_Q1_G{Gamma}"] = worst < 0.03
    want = oracle(4, 1.0)
    F = lambda e, a: phi_gamma(HNORM, 1.0, e, a) / a
    worst = 0.0
    for alpha in alphas:
        R = 1.05 * alpha ** -0.2
        win = Window((0, 0, 0), (1.1 * R, 1.1 * R, 1.2 * R * R), 0.0, R)
        m, _ = superlevel_measure(F, alpha, win, resolution=41,
                                  a_resolution=41,
                                  calibration=HNORM.calibration())
        worst = max(worst, abs(alpha * m - want) / want)
    checks["grid_Q4_G1"] = worst < 0.05
    # against the scale-invariant height measure the products blow up
    F = lambda e, a: phi_gamma(LNORM, 1.0, e, a) / a
    prods = []
    for alpha in alphas:
        top = alpha ** -0.5
        win = Window((0.0,), (1.1 * top,), 1e-5, 1.05 * top)
        m, _ = superlevel_measure(F, alpha, win, resolution=500,
                                  a_resolution=1200, a_power=-1,
                                  calibration=LNORM.calibration())
        prods.append(alpha * m)
    checks["scale_invariant_negative"] = (
        all(b > a for a, b in zip(prods, prods[1:]))
        and prods[-1] > 10.0 * prods[0])
    _verdict(10, "weak-type closed form", checks, time.time() - t0, 300.0)


def test_acceptance_11_covering_certificate():
    t0 = time.time()
    checks = {}
    nu_line = AtomicMeasure([[0.0]], [1.0])
    nu_heis = AtomicMeasure([[0.0, 0.0, 0.0], [2.5, 0.0, 0.3]], [1.0, 1.0])

    def run(spec, norm, nu, alpha, i0, depth, resolution):
        cert = build_covering(spec, norm, nu, 1.0, alpha, i0, depth)
        rep = verify_covering(cert, spec, norm, nu, resolution=resolution)
        return cert, rep

    def props_ok(cert, rep):
        return (len(cert.authorized) >= 1
                and np.isfinite(rep["C_i"]) and rep["C_i"] > 0
                and np.isfinite(rep["C_ii"]) and np.isfinite(rep["C_iii"])
                and rep["forbidden_ratio_measured"]
                <= rep["forbidden_ratio_analytic"]
                and rep["chain_holds"] and rep["disjoint"])

    for alpha in (0.05, 0.1, 0.5):
        cert, rep = run(LINE, LNORM, nu_line, alpha, 2, 6, 161)
        checks[f"line_a{alpha}"] = props_ok(cert, rep)
    for alpha in (10.0, 20.0, 40.0):
        cert, rep = run(HEIS, HNORM, nu_heis, alpha, 2, 4, 35)
        checks[f"heis_a{alpha}"] = props_ok(cert, rep)

    def drift_ok(rep, rep2):
        return all(abs(rep2[k] - rep[k]) <= 0.10 * abs(rep[k])
                   for k in ("C_i", "C_ii", "C_iii"))

    _, rl = run(LINE, LNORM, nu_line, 0.1, 2, 6, 161)
    _, rl2 = run(LINE, LNORM, nu_line, 0.1, 2, 8, 161)
    checks["line_depth_stable"] = drift_ok(rl, rl2)
    ch, rh = run(HEIS, HNORM, nu_heis, 20.0, 2, 4, 35)
    _, rh2 = run(HEIS, HNORM, nu_heis, 20.0, 2, 6, 35)
    checks["heis_depth_stable"] = drift_ok(rh, rh2)
    moved = nu_heis.translate(HEIS, np.array([0.4, -0.3, 0.1]))
    cm, rm = run(HEIS, HNORM, moved, 20.0, 2, 4, 35)
    checks["heis_translation_stable"] = (
        len(cm.authorized) == len(ch.authorized) and drift_ok(rh, rm))
    _verdict(11, "covering certificate", checks, time.time() - t0, 600.0)


def test_acceptance_12_measure_poisson_report():
    t0 = time.time()
    ker = KernelSpec(LINE, LNORM, "classical_abelian")
    cert = certify_RGamma(ker, radius=200.0)
    mu = AtomicMeasure([[0.0], [1.5]], [1.0, 0.5])
    win = Window((0.0,), (3.0,), 0.0, 3.0)
    rep = mu_poisson_bounds(mu, ker, win, a0=1.0, certificate=cert,
                            resolution=121)
    sups = rep["sup_infinity"]
    checks = {
        "weak_constant_finite": np.isfinite(rep["weak"]["constant"]),
        "weak_constant_stable": rep["weak"]["stable"],
        "sup_finite": all(np.isfinite(s) for s in sups),
        "sup_nonincreasing": rep["sup_nonincreasing"],
    }
    _verdict(12, "measure Poisson bounds", checks, time.time() - t0, 300.0)
