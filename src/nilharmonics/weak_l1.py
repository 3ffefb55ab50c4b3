"""Weak-L1 machinery on the solvable extension N x (0, inf).

Provides the comparison profile Phi_Gamma, atomic measures with the
(1+|xi|)^{-(Q+Gamma)} moment, superlevel-set measure estimators with error
bars, weak-type constants for measure Poisson integrals, and an executable
dyadic covering of the superlevel set {U_nu > alpha} together with a
verification report for its measured constants.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .group_core import GroupSpec, HomogeneousNorm, tensor_grid
from .kernels import KernelSpec, certify_RGamma


# -- upper half space points and windows ------------------------------------

@dataclass(frozen=True)
class UpperHalfPoint:
    eta: tuple
    a: float

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("height a must be positive")


@dataclass(frozen=True)
class Window:
    """Box |eta_k - center_k| <= half_widths[k] times a in [a_lo, a_hi]."""
    center: tuple
    half_widths: tuple
    a_lo: float
    a_hi: float

    def __post_init__(self):
        if self.a_hi <= self.a_lo or self.a_lo < 0:
            raise ValueError("need 0 <= a_lo < a_hi")

    @property
    def n(self):
        return len(self.half_widths)

    def scaled(self, factor):
        return Window(self.center, tuple(factor * h for h in
                                         self.half_widths),
                      self.a_lo, factor * self.a_hi)


# -- the comparison profile --------------------------------------------------

def phi_gamma(norm: HomogeneousNorm, Gamma, eta, a):
    """a^Gamma / (a + |eta|)^{Q+Gamma}, vectorized over eta and a."""
    a = np.asarray(a, dtype=float)
    if np.any(a <= 0):
        raise ValueError("height a must be positive")
    Q = float(norm.spec.Q)
    return a ** Gamma / (a + norm(eta)) ** (Q + Gamma)


# -- atomic measures ---------------------------------------------------------

@dataclass
class AtomicMeasure:
    """Finite positive combination of point masses sum w_i delta_{xi_i}."""
    xi: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        self.xi = np.atleast_2d(np.asarray(self.xi, dtype=float))
        self.w = np.atleast_1d(np.asarray(self.w, dtype=float))
        if len(self.w) != len(self.xi):
            raise ValueError("one weight per atom")
        if np.any(self.w <= 0):
            raise ValueError("atom weights must be positive")

    @property
    def total_mass(self):
        return float(np.sum(self.w))

    def moment(self, norm, Gamma):
        """sum w_i (1 + |xi_i|)^{-(Q+Gamma)}, the membership moment."""
        Q = float(norm.spec.Q)
        return float(np.sum(self.w * (1.0 + norm(self.xi))
                            ** (-(Q + Gamma))))

    def translate(self, spec: GroupSpec, eta0):
        """Left translate: atoms move to eta0 . xi_i, weights unchanged."""
        eta0 = np.asarray(eta0, dtype=float)
        return AtomicMeasure(spec.multiply(eta0, self.xi), self.w.copy())

    def to_json(self):
        return {"atoms": [{"xi": list(map(float, x)), "w": float(ww)}
                          for x, ww in zip(self.xi, self.w)]}

    @classmethod
    def from_json(cls, data):
        atoms = data["atoms"]
        return cls(np.array([a["xi"] for a in atoms], dtype=float),
                   np.array([a["w"] for a in atoms], dtype=float))


def U_nu(spec: GroupSpec, norm: HomogeneousNorm, nu: AtomicMeasure, Gamma,
         eta, a):
    """sum_i w_i a^{Gamma-1} / (a + |eta^{-1} xi_i|)^{Q+Gamma}."""
    eta = np.asarray(eta, dtype=float)
    a = np.asarray(a, dtype=float)
    if np.any(a <= 0):
        raise ValueError("height a must be positive")
    Q = float(norm.spec.Q)
    # atoms on a new last axis of eta and of a, summed away
    d = norm(spec.multiply(-eta[..., None, :], nu.xi))
    acc = np.sum(nu.w / (a[..., None] + d) ** (Q + Gamma), axis=-1)
    return a ** (Gamma - 1.0) * acc


# -- superlevel-set measure estimators ---------------------------------------

def _a_cell_weights(edges, a_power):
    """Exact integral of a^p over each cell [edges[i], edges[i+1]]."""
    lo, hi = edges[:-1], edges[1:]
    if a_power == -1:
        return np.log(hi / lo)
    p = a_power + 1.0
    return (hi ** p - lo ** p) / p


def superlevel_measure(F, alpha, window: Window, estimator="grid",
                       resolution=101, a_resolution=None, n_samples=200000,
                       seed=0, calibration=1.0, a_power=0):
    """Measure of {(eta, a) in window : F(eta, a) > alpha} with respect to
    calibration * d(eta) a^{a_power} da.  Returns (value, error_bar): the
    grid estimator reports the shift between two half-cell-offset grids,
    the Monte-Carlo estimator a 3-sigma binomial bar.
    """
    n = window.n
    c = np.asarray(window.center, dtype=float)
    hw = np.asarray(window.half_widths, dtype=float)
    if estimator == "grid":
        res = ([resolution] * n if np.isscalar(resolution)
               else list(resolution))
        na = a_resolution or res[0]
        vals = []
        for shift in (0.0, 0.5):
            axes, cell = [], 1.0
            for k in range(n):
                step = 2 * hw[k] / res[k]
                axes.append(c[k] - hw[k] + (np.arange(res[k]) + 0.5
                                            + shift) * step)
                cell *= step
            pts = tensor_grid(axes).reshape(-1, n)
            a_edges = np.linspace(window.a_lo, window.a_hi, na + 1)
            if a_power < 0 and a_edges[0] == 0.0:
                a_edges[0] = a_edges[1] / 1e6
            a_w = _a_cell_weights(a_edges, a_power)
            a_mid = 0.5 * (a_edges[:-1] + a_edges[1:])
            total = 0.0
            for am, aw in zip(a_mid, a_w):
                total += float(np.sum(F(pts, am) > alpha)) * cell * aw
            vals.append(total * calibration)
        return 0.5 * (vals[0] + vals[1]), abs(vals[0] - vals[1])
    if estimator == "monte-carlo":
        rng = np.random.default_rng(seed)
        pts = c + rng.uniform(-1, 1, size=(n_samples, n)) * hw
        a_s = rng.uniform(window.a_lo, window.a_hi, size=n_samples)
        a_s = np.maximum(a_s, 1e-12)
        contrib = (F(pts, a_s) > alpha) * a_s ** float(a_power)
        vol = float(np.prod(2 * hw)) * (window.a_hi - window.a_lo)
        value = calibration * vol * float(np.mean(contrib))
        bar = calibration * vol * 3.0 * float(np.std(contrib)) \
            / math.sqrt(n_samples)
        return value, bar
    raise ValueError(f"unknown estimator {estimator!r}")


def weak_l1_constant(F, alpha_list, window: Window, estimator="grid",
                     calibration=1.0, a_power=0, **kwargs):
    """sup over alpha of alpha * |{F > alpha} cap window|, with a
    stability flag from re-measuring on the doubled window."""
    products, bars = [], []
    for alpha in alpha_list:
        m, b = superlevel_measure(F, alpha, window, estimator=estimator,
                                  calibration=calibration, a_power=a_power,
                                  **kwargs)
        products.append(alpha * m)
        bars.append(alpha * b)
    constant = max(products)
    report = {"alphas": list(alpha_list), "products": products,
              "error_bars": bars, "constant": constant}
    kw2 = dict(kwargs)
    for key in ("resolution", "a_resolution"):
        if np.isscalar(kw2.get(key)):
            kw2[key] = 2 * kw2[key]  # keep the cell size fixed
    doubled = [alpha * superlevel_measure(
        F, alpha, window.scaled(2.0), estimator=estimator,
        calibration=calibration, a_power=a_power, **kw2)[0]
        for alpha in alpha_list]
    drift = max(abs(d - p) for d, p in zip(doubled, products))
    report["doubled_products"] = doubled
    report["stable"] = bool(drift <= 0.05 * constant + max(bars) + 1e-12)
    return report


# -- global bounds for measure Poisson integrals -----------------------------

def _poisson_terms(spec: GroupSpec, mu: AtomicMeasure, kernel: KernelSpec,
                   a, eta):
    """w_i a^{-Q} P(delta_{1/a}(xi_i^{-1} eta)), atoms on a new last axis;
    a is one height or one per point of eta."""
    eta = np.asarray(eta, dtype=float)[..., None, :]
    a = np.asarray(a, dtype=float)[..., None]
    scale = np.stack([a ** float(d) for d in spec.weights], axis=-1)
    arg = spec.multiply(-mu.xi, eta) / scale
    return mu.w * kernel(arg) * a ** (-float(spec.Q))


def measure_poisson(spec: GroupSpec, mu: AtomicMeasure, kernel: KernelSpec,
                    a, eta):
    """(mu * P_a)(eta) = sum_i w_i P_a(xi_i^{-1} eta), exact for atoms."""
    return np.sum(_poisson_terms(spec, mu, kernel, a, eta), axis=-1)


def mu_poisson_bounds(mu: AtomicMeasure, kernel: KernelSpec, window: Window,
                      a0, certificate=None, resolution=61):
    """Measured global estimates for mu * P_a.

    (a) weak-L1 constant of (1/a)(1+a+|eta|)^{-Q-Gamma} mu * P_a over the
    window; (b) sup of (1+a+|eta|)^{-Q-Gamma} a^{-Gamma} mu * P_a on
    {a > a0}, re-measured as a0 doubles; plus the near/middle/far split of
    the convolution at |xi| <= |eta|/2, |eta|/2 <= |xi| <= 2|eta|,
    |xi| >= 2|eta|.  Refuses kernels without a passed certificate.
    """
    if certificate is None:
        certificate = certify_RGamma(kernel)
    if not certificate.get("passed", False):
        raise ValueError("kernel is not certified; refusing to report "
                         "global bounds")
    spec, norm, Gamma = kernel.spec, kernel.norm, kernel.Gamma
    Q = float(spec.Q)

    def F_weak(eta, a):
        neta = norm(eta)
        return measure_poisson(spec, mu, kernel, a, eta) \
            / (a * (1.0 + a + neta) ** (Q + Gamma))

    weak = weak_l1_constant(F_weak, (0.1, 1.0, 10.0), window,
                            calibration=norm.calibration(),
                            resolution=resolution, a_resolution=resolution)

    # (b): sup on {a > a0} over the window box, for a0, 2 a0, 4 a0, ...
    c = np.asarray(window.center, dtype=float)
    hw = np.asarray(window.half_widths, dtype=float)
    axes = [np.linspace(c[k] - hw[k], c[k] + hw[k], resolution)
            for k in range(window.n)]
    pts = tensor_grid(axes).reshape(-1, window.n)
    sups = []
    for m in range(3):
        lo = a0 * 2 ** m
        sup = 0.0
        for a in np.geomspace(lo, max(window.a_hi, 4 * lo), 25):
            vals = measure_poisson(spec, mu, kernel, float(a), pts) \
                * a ** (-Gamma) / (1.0 + a + norm(pts)) ** (Q + Gamma)
            sup = max(sup, float(np.max(vals)))
        sups.append(sup)

    # near / middle / far split of the integrand of mu * P_a: a (points x
    # atoms) array of terms, summed under one mask per piece
    sub = pts[:: max(1, len(pts) // 500)]
    contrib = _poisson_terms(spec, mu, kernel,
                             np.sqrt(window.a_lo * window.a_hi) or 1.0, sub)
    xin = norm(mu.xi)
    ne = norm(sub)[:, None]
    masks = {"near": xin <= ne / 2,
             "middle": (xin >= ne / 2) & (xin <= 2 * ne),
             "far": xin >= 2 * ne}
    pieces = {k: float(np.max(np.sum(contrib * m, axis=1)))
              for k, m in masks.items()}
    return {"weak": weak, "a0_values": [a0 * 2 ** m for m in range(3)],
            "sup_infinity": sups,
            "sup_nonincreasing": bool(all(sups[m + 1] <= sups[m] + 1e-12
                                          for m in range(len(sups) - 1))),
            "pieces": pieces, "certified": True}


# -- dyadic covering of {U_nu > alpha} ---------------------------------------

@dataclass
class DyadicPiece:
    """B(center, 2^{i0-i-3}) x [2^{i0-i-1}, 2^{i0-i}]."""
    i: int
    j: int
    center: np.ndarray
    radius: float
    a_lo: float
    a_hi: float
    key: tuple = ()


@dataclass
class CoveringCertificate:
    alpha: float
    Gamma: float
    i0: int
    depth: int
    authorized: list
    forbidden_volume: dict
    kappa_measured: int
    kappa_design: int
    covering_radius: float
    tail_measure: float
    enumerated: int
    skipped_scales: list
    counts: dict = field(default_factory=dict)


def _lattice_scales(spec: GroupSpec):
    """Per-axis multipliers c_k so that {theta_k = m_k c_k s^{d_k}} is a
    subgroup lattice of the group (scaled integer lattice).

    Layer by layer, c_k is 1 over the lcm of the denominators of
    coef * prod_j c_j^{alpha_j + beta_j} across the structure terms of
    coordinate k (1 when there are none).  Each term then sends a pair of
    lattice points to an integer multiple of c_k, so the product of two
    lattice points is a lattice point; rational structure constants always
    admit such a lattice (Malcev)."""
    scales = [Fraction(1)] * spec.n
    # a term of coordinate k involves only strictly lower layers, whose
    # indices are below k because the weights are nondecreasing
    for k in range(spec.n):
        dens = [(c * math.prod(scales[j] ** (a + b) for j, (a, b)
                               in enumerate(zip(alpha, beta)))).denominator
                for (kk, alpha, beta), c in spec.structure if kk == k]
        scales[k] = Fraction(1, math.lcm(*dens))
    return np.array([float(c) for c in scales])


def _lattice_coords(spec, s, ints):
    scales = _lattice_scales(spec)
    d = np.array([float(w) for w in spec.weights])
    return np.asarray(ints, dtype=float) * scales * s ** d


def _covering_radius(spec: GroupSpec, norm: HomogeneousNorm):
    """Max over the unit cell (9 samples per axis) of the gauge distance to
    the nearest lattice point, at lattice scale s = 1."""
    scales = _lattice_scales(spec)
    axes = [np.linspace(0, scales[k], 9, endpoint=False)
            for k in range(spec.n)]
    pts = tensor_grid(axes).reshape(-1, spec.n)
    offs = tensor_grid([np.arange(-2, 3)] * spec.n).reshape(-1, spec.n)
    lat = _lattice_coords(spec, 1.0, offs)
    best = np.full(len(pts), np.inf)
    for q in lat:
        best = np.minimum(best, norm(spec.multiply(-q, pts)))
    # sampled sup under-estimates the true covering radius; pad it
    return 1.1 * float(np.max(best))


def _design_kappa(spec, norm, c0):
    """Lattice design constant: most balls of radius r (spacing r / c0)
    that cover one point, measured at unit scale."""
    s = 1.0 / c0
    offs = tensor_grid([np.arange(-4, 5)] * spec.n).reshape(-1, spec.n)
    lat = _lattice_coords(spec, s, offs)
    rng = np.random.default_rng(0)
    probes = rng.uniform(-0.5, 0.5, size=(200, spec.n))
    counts = np.zeros(len(probes))
    for q in lat:
        counts += norm(spec.multiply(-q, probes)) <= 1.0
    return int(np.max(counts))


def _lattice_points_near(spec, norm, s, xi, R):
    """Atom-translated lattice: centers xi . lambda for lattice points
    lambda with |lambda| <= R, as (ints, coords)."""
    scales = _lattice_scales(spec)
    d = np.array([float(w) for w in spec.weights])
    step = scales * s ** d
    hi = np.ceil(norm.box(R) / step).astype(int)
    if np.prod(2.0 * hi + 1.0) > 4e6:
        raise ValueError("covering lattice enumeration too large; "
                         "reduce depth or raise alpha")
    axes = [np.arange(-hi[k], hi[k] + 1) for k in range(spec.n)]
    ints = tensor_grid(axes).reshape(-1, spec.n)
    lam = ints * step
    keep = norm(lam) <= R
    return ints[keep], spec.multiply(np.asarray(xi, dtype=float), lam[keep])


def _ball_samples(spec, norm, center, r, count, rng):
    """count points of B(center, r) (left-translated gauge ball)."""
    ext = norm.box(r)
    out = np.empty((0, spec.n))
    while len(out) < count:
        b = rng.uniform(-1, 1, size=(4 * count, spec.n)) * ext
        b = b[norm(b) <= r]
        out = np.vstack([out, b])
    return spec.multiply(np.asarray(center, dtype=float), out[:count])


def _forbid_radius(i0, i, l, Q, Gamma):
    return 2.0 ** (i0 - i + (l - i) / (Q + Gamma) + 1)


def build_covering(spec: GroupSpec, norm: HomogeneousNorm,
                   nu: AtomicMeasure, Gamma, alpha, i0, depth, seed=0):
    """Dyadic covering of {U_nu > alpha} inside K0 = B(0, 2^{i0}) x
    (0, 2^{i0}].

    Sweeps scales i = 0..depth in lexicographic order (scales ascending,
    lattice index row-major).  A piece is authorized when at least one of
    32 stratified samples (8 per height) exceeds alpha and no earlier
    authorized piece forbids it; an earlier piece (ip, jp) forbids
    everything within D_inf distance 2^{i0-ip+(i-ip)/(Q+Gamma)+1}.  Whole
    lattice neighborhoods provably inside a forbidden region are skipped
    en bloc with their volume attributed to the forbidding piece.
    """
    Q = float(spec.Q)
    rng = np.random.default_rng(seed)
    if 2.0 ** (i0 - depth - 3) < 1e-9:
        raise ValueError("depth underflows the piece width")
    cal = norm.calibration()
    c0 = _covering_radius(spec, norm)
    K0 = 2.0 ** i0
    if len(nu.w) == 0:
        return CoveringCertificate(
            alpha=alpha, Gamma=Gamma, i0=i0, depth=depth, authorized=[],
            forbidden_volume={}, kappa_measured=0,
            kappa_design=_design_kappa(spec, norm, c0), covering_radius=c0,
            tail_measure=0.0, enumerated=0, skipped_scales=[],
            counts={"authorized": 0})
    gamma_tri = 1.05  # quasi-triangle slack for conservative set distances
    authorized, forb_vol = [], {}
    skipped, enumerated = [], 0
    scale_centers = (1.0, [])
    for i in range(depth + 1):
        r_i = 2.0 ** (i0 - i - 3)
        a_lo, a_hi = 2.0 ** (i0 - i - 1), 2.0 ** (i0 - i)
        s_i = r_i / c0
        a_pow = max(a_lo, a_hi) ** (Gamma - 1.0)
        # largest |eta^{-1} xi| still compatible with U_nu > alpha
        reach = (len(nu.w) * np.max(nu.w) * a_pow / alpha) \
            ** (1.0 / (Q + Gamma))
        if np.max(nu.w) * a_pow / a_lo ** (Q + Gamma) * len(nu.w) <= alpha:
            skipped.append((i, "empty"))
            continue
        seen, cand = set(), []
        for ai, x in enumerate(nu.xi):
            R_a = reach + 2 * r_i
            covered = False
            for p in authorized:
                rf = _forbid_radius(i0, p.i, i, Q, Gamma)
                d_eta = gamma_tri * (norm(spec.multiply(-p.center, x))
                                     + R_a)
                d_a = max(p.a_lo - a_hi, 0.0)
                if max(d_eta, d_a) < rf:
                    covered = True
                    forb_vol[p.key] = forb_vol.get(p.key, 0.0) \
                        + min(R_a, 2 * K0) ** Q * (a_hi - a_lo)
                    break
            if covered:
                skipped.append((i, "forbidden-en-bloc"))
                continue
            ints, coords = _lattice_points_near(spec, norm, s_i, x, R_a)
            inside = norm(coords) <= K0
            for t, cc in zip(ints[inside], coords[inside]):
                key = (ai,) + tuple(int(v) for v in t)
                if key not in seen:
                    seen.add(key)
                    cand.append((key, cc))
        cand.sort(key=lambda kc: kc[0])
        if len(cand) > len(scale_centers[1]):
            scale_centers = (r_i, [cc for _, cc in cand[:2000]])
        for j, (key, cc) in enumerate(cand):
            enumerated += 1
            owner = None
            for p in authorized:
                rf = _forbid_radius(i0, p.i, i, Q, Gamma)
                d_eta = max(norm(spec.multiply(-p.center, cc))
                            - p.radius - r_i, 0.0)
                d_a = max(p.a_lo - a_hi, 0.0)
                if max(d_eta, d_a) < rf:
                    owner = p
                    break
            if owner is not None:
                forb_vol[owner.key] = forb_vol.get(owner.key, 0.0) \
                    + r_i ** Q * (a_hi - a_lo)
                continue
            # deterministic extras: the center and any atoms inside
            d_at = norm(spec.multiply(-cc, nu.xi))
            extras = np.vstack([[cc], nu.xi[d_at <= r_i]])
            for a_s in np.linspace(a_lo, a_hi, 4):
                pts = np.vstack([_ball_samples(spec, norm, cc, r_i, 8, rng),
                                 extras])
                if np.any(U_nu(spec, norm, nu, Gamma, pts, float(a_s))
                          > alpha):
                    authorized.append(DyadicPiece(i, j, cc, r_i, a_lo, a_hi,
                                                  key=(i,) + key))
                    break
    # overlap measured on the densest enumerated scale
    kappa = 0
    if scale_centers[1]:
        r_m, centers = scale_centers
        centers = np.array(centers)
        for p in centers[:: max(1, len(centers) // 100)]:
            probes = _ball_samples(spec, norm, p, r_m, 8, rng)
            # centers x probes; one centre's 8 probes at a time keeps the
            # array small
            d = norm(spec.multiply(-centers[:, None, :], probes))
            kappa = max(kappa, int(np.max(np.sum(d <= r_m, axis=0))))
    tail_win = Window(tuple(nu.xi[0]), tuple(norm.box(max(1e-6, 2.0 ** i0))),
                      0.0, 2.0 ** (i0 - depth - 1))
    tail, _ = superlevel_measure(
        lambda e, a: U_nu(spec, norm, nu, Gamma, e, a), alpha, tail_win,
        resolution=21, a_resolution=21, calibration=cal)
    return CoveringCertificate(
        alpha=alpha, Gamma=Gamma, i0=i0, depth=depth, authorized=authorized,
        forbidden_volume=forb_vol, kappa_measured=kappa,
        kappa_design=_design_kappa(spec, norm, c0),
        covering_radius=c0, tail_measure=tail, enumerated=enumerated,
        skipped_scales=skipped,
        counts={"authorized": len(authorized)})


def _piece_quadrature(spec, norm, piece):
    """Midpoint nodes (5 per axis, 3 heights) and calibrated weights for
    B(c, r) x [a_lo, a_hi]."""
    n = spec.n
    ext = norm.box(piece.radius)
    axes = [(-ext[k] + (np.arange(5) + 0.5) * 2 * ext[k] / 5)
            for k in range(n)]
    b = tensor_grid(axes).reshape(-1, n)
    keep = norm(b) <= piece.radius
    b = b[keep]
    # equal weights summing to the exact calibrated ball volume r^Q, so
    # that piece integrals match the calibrated piece measure
    exact = piece.radius ** float(spec.Q)
    w_eta = np.full(len(b), exact / len(b))
    pts = spec.multiply(np.asarray(piece.center, dtype=float), b)
    da = (piece.a_hi - piece.a_lo) / 3
    a_nodes = piece.a_lo + (np.arange(3) + 0.5) * da
    return pts, w_eta, a_nodes, da


def u_piece(spec, norm, piece, Gamma, eta):
    """integral over the piece of a^{Gamma-1}/(a+|eta^{-1} xi|)^{Q+Gamma}."""
    eta = np.atleast_2d(np.asarray(eta, dtype=float))
    pts, w_eta, a_nodes, da = _piece_quadrature(spec, norm, piece)
    Q = float(spec.Q)
    # axes (eta, a-node, quadrature point); the sum over points comes
    # first, then the a-nodes are added in order
    d = norm(spec.multiply(-eta[:, None, :], pts))[:, None, :]
    a = a_nodes[:, None]
    per_a = np.sum(w_eta * a ** (Gamma - 1.0) / (a + d) ** (Q + Gamma),
                   axis=-1)
    return np.sum(per_a * da, axis=-1)


def U_i_profile(cert: CoveringCertificate, spec, norm, eta):
    """U_i(eta) for each scale i = 0..depth (integral over the authorized
    pieces of that scale)."""
    Gamma = cert.Gamma
    out = np.zeros(cert.depth + 1)
    for p in cert.authorized:
        out[p.i] += u_piece(spec, norm, p, Gamma, eta)[0]
    return out


def verify_covering(cert: CoveringCertificate, spec, norm,
                    nu: AtomicMeasure, resolution=41, seed=0):
    """Measured constants for the three covering properties, the forbidden
    volume bound per authorized piece, and the weak-type chain."""
    Gamma, alpha = cert.Gamma, cert.alpha
    Q = float(spec.Q)
    cal = norm.calibration()
    rng = np.random.default_rng(seed)
    F = lambda e, a: U_nu(spec, norm, nu, Gamma, e, a)

    if len(nu.w) == 0:
        return {"superlevel_measure": 0.0, "measure_error_bar": 0.0,
                "S_volume": 0.0, "tail_measure": 0.0, "C_i": 0.0,
                "C_ii": 0.0, "C_iii": 0.0, "min_U_on_pieces": np.inf,
                "forbidden_ratio_measured": 0.0,
                "forbidden_ratio_analytic": 0.0, "C": 1.0, "chain_lhs": 0.0,
                "chain_rhs": np.inf, "chain_holds": True, "disjoint": True}
    reach = (len(nu.w) * np.max(nu.w) * (2.0 ** cert.i0)
             ** max(Gamma - 1.0, 0.0) / alpha) ** (1.0 / (Q + Gamma))
    lo = np.min(nu.xi, axis=0)
    hi = np.max(nu.xi, axis=0)
    ext = norm.box(min(reach, 2.0 ** (cert.i0 + 1)))
    # fixed height floor so the measured set does not move with depth
    window = Window(tuple((lo + hi) / 2), tuple((hi - lo) / 2 + ext),
                    2.0 ** (cert.i0 - 12), 2.0 ** cert.i0)
    measure, bar = superlevel_measure(F, alpha, window,
                                      resolution=resolution,
                                      a_resolution=resolution,
                                      calibration=cal)
    # |A_{i,j}| under the calibrated Haar normalization
    owns = [p.radius ** Q * (p.a_hi - p.a_lo) for p in cert.authorized]
    S_vol = sum(owns)
    report = {"superlevel_measure": measure, "measure_error_bar": bar,
              "S_volume": S_vol, "tail_measure": cert.tail_measure}
    report["C_i"] = measure / S_vol if S_vol else \
        (np.inf if measure > bar else 0.0)

    # (ii) min of U_nu over the authorized pieces
    min_u = np.inf
    for p in cert.authorized:
        for a_s in np.linspace(p.a_lo, p.a_hi, 4):
            pts = _ball_samples(spec, norm, p.center, p.radius, 8, rng)
            min_u = min(min_u, float(np.min(F(pts, float(a_s)))))
    report["min_U_on_pieces"] = min_u
    report["C_ii"] = alpha / min_u if np.isfinite(min_u) and min_u > 0 \
        else (0.0 if not cert.authorized else np.inf)

    # (iii) max of U_S over adversarial probes
    probes = [p.center for p in cert.authorized] + list(nu.xi)
    probes += [spec.dilate(4.0, p.center) for p in cert.authorized]
    probes.append(spec.dilate(4.0 * 2.0 ** cert.i0,
                              np.eye(spec.n)[0]))
    probes = np.atleast_2d(np.array(probes)) if probes else \
        np.zeros((1, spec.n))
    u_s = np.zeros(len(probes))
    for p in cert.authorized:
        u_s += u_piece(spec, norm, p, Gamma, probes)
    report["C_iii"] = float(np.max(u_s)) if cert.authorized else 0.0

    # forbidden-volume bound per authorized piece, measured and analytic
    ratios, analytic = [], []
    for p, own in zip(cert.authorized, owns):
        ratios.append(cert.forbidden_volume.get(p.key, 0.0) / own)
        tot = 0.0
        for l in range(p.i + 1, p.i + 60):
            rf = _forbid_radius(cert.i0, p.i, l, Q, Gamma)
            r_l = 2.0 ** (cert.i0 - l - 3)
            tot += (rf + 2 * r_l) ** Q * 2.0 ** (cert.i0 - l - 1)
        analytic.append(tot / own)
    report["forbidden_ratio_measured"] = max(ratios) if ratios else 0.0
    report["forbidden_ratio_analytic"] = max(analytic) if analytic else 0.0

    C = max(report["C_i"], report["C_ii"], report["C_iii"], 1.0)
    chain_rhs = C ** 3 * nu.total_mass / alpha
    report["C"] = C
    report["chain_lhs"] = measure
    report["chain_rhs"] = chain_rhs
    report["chain_holds"] = bool(measure <= chain_rhs + bar)

    # authorized pieces pairwise disjoint (sampled)
    disjoint = True
    for m, p in enumerate(cert.authorized):
        for q in cert.authorized[m + 1:]:
            if not (p.a_lo < q.a_hi and q.a_lo < p.a_hi):
                continue
            d = norm(spec.multiply(-np.asarray(p.center), q.center))
            if d > 1.05 * (p.radius + q.radius):
                continue
            pts = _ball_samples(spec, norm, p.center, p.radius, 64, rng)
            if np.any(norm(spec.multiply(-np.asarray(q.center), pts))
                      <= q.radius):
                disjoint = False
    report["disjoint"] = disjoint
    return report
