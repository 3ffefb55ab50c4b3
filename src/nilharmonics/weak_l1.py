"""Weak-L1 machinery on the solvable extension N x (0, inf).

Provides the comparison profile Phi_Gamma, atomic measures with the
(1+|xi|)^{-(Q+Gamma)} moment, a grid estimator of superlevel-set measures
with an error bar, weak-type constants for measure Poisson integrals, and
an executable dyadic covering of the superlevel set {U_nu > alpha}
together with a verification report for its measured constants.
"""

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .group_core import GroupSpec, HomogeneousNorm, tensor_grid
from .kernels import KernelSpec, certify_RGamma
from .quadrature import _chunks


# -- windows ----------------------------------------------------------------

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
        if self.xi.shape[1] == 0:
            raise ValueError("atoms have no dimension n; give an empty "
                             "measure as xi of shape (0, n)")
        if len(self.w) != len(self.xi):
            raise ValueError("one weight per atom")
        if not np.isfinite(self.xi).all() or not np.isfinite(self.w).all():
            raise ValueError("atom coordinates and weights must be finite")
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
    def from_json(cls, data, n=None):
        """The measure of to_json; an empty atom list needs the dimension."""
        atoms = data["atoms"]
        xi = [a["xi"] for a in atoms] if atoms or n is None \
            else np.empty((0, n))
        return cls(xi, [a["w"] for a in atoms])


def U_nu(spec: GroupSpec, norm: HomogeneousNorm, nu: AtomicMeasure, Gamma,
         eta, a):
    """sum_i w_i a^{Gamma-1} / (a + |eta^{-1} xi_i|)^{Q+Gamma}."""
    eta = np.asarray(eta, dtype=float)
    a = np.asarray(a, dtype=float)
    if np.any(a <= 0):
        raise ValueError("height a must be positive")
    Q = float(norm.spec.Q)
    # terms on (atoms, *broadcast(a, batch)), formed in place: one gauge
    # distance per point and atom, then the atom slabs summed in order
    lead = (-1,) + (1,) * max(a.ndim, eta.ndim - 1)
    terms = a + norm.distance(eta, nu.xi.reshape(lead + (spec.n,)))
    np.power(terms, Q + Gamma, out=terms)
    np.divide(nu.w.reshape(lead), terms, out=terms)
    acc = np.sum(terms, axis=0)
    acc *= a ** (Gamma - 1.0)
    return acc


# -- superlevel-set measures -------------------------------------------------

def superlevel_measure(F, alpha, window: Window, resolution=101,
                       a_resolution=None, calibration=1.0, a_power=0):
    """Measure of {(eta, a) in window : F(eta, a) > alpha} with respect to
    calibration * d(eta) a^{a_power} da, on a grid of cell midpoints.
    Returns (value, error_bar), the bar the shift between two
    half-cell-offset grids.

    F is called on a block of points eta of shape (P, n) with every height
    at once, as an (na, 1) column, and F(eta, a) must broadcast to (na, P),
    row k at height a[k]; an F that ignores a may return (P,).  A window
    from a_lo = 0 needs a_power > -1, where a^{a_power} is integrable at 0.
    """
    if a_power <= -1 and window.a_lo == 0:
        raise ValueError("a^a_power is not integrable at a = 0; "
                         "need a_power > -1 or a_lo > 0")
    n = window.n
    c = np.asarray(window.center, dtype=float)
    hw = np.asarray(window.half_widths, dtype=float)
    res = np.broadcast_to(resolution, (n,))
    na = a_resolution or res[0]
    step = 2 * hw / res
    cell = math.prod(step)
    a_edges = np.linspace(window.a_lo, window.a_hi, na + 1)
    lo, hi, p = a_edges[:-1], a_edges[1:], a_power + 1.0
    # exact integral of a^{a_power} over each height cell
    a_w = np.log(hi / lo) if a_power == -1 else (hi ** p - lo ** p) / p
    a_mid = 0.5 * (lo + hi)[:, None]
    vals = []
    for shift in (0.0, 0.5):
        pts = tensor_grid([c[k] - hw[k] + (np.arange(res[k]) + 0.5 + shift)
                           * step[k] for k in range(n)]).reshape(-1, n)
        counts = np.zeros(na, dtype=int)
        for blk in _chunks(len(pts), na):
            hits = F(pts[blk], a_mid) > alpha
            counts += np.broadcast_to(hits, (na, len(pts[blk]))).sum(axis=1)
        # the counts are exact; cumsum adds them weighted, in height order
        vals.append(float(np.cumsum(counts * cell * a_w)[-1]) * calibration)
    return 0.5 * (vals[0] + vals[1]), abs(vals[0] - vals[1])


def weak_l1_constant(F, alpha_list, window: Window, calibration=1.0,
                     resolution=101, a_resolution=None):
    """sup over alpha of alpha * |{F > alpha} cap window| on the grid
    estimator, with a stability flag from re-measuring on the doubled
    window."""
    kw = dict(resolution=resolution, a_resolution=a_resolution,
              calibration=calibration)
    measured = [superlevel_measure(F, alpha, window, **kw)
                for alpha in alpha_list]
    products = [alpha * m for alpha, (m, _) in zip(alpha_list, measured)]
    bars = [alpha * b for alpha, (_, b) in zip(alpha_list, measured)]
    constant = max(products)
    # twice the resolution on the doubled window keeps the cell size fixed
    # (a_resolution None follows the doubled first axis)
    wide = Window(window.center, tuple(2 * h for h in window.half_widths),
                  window.a_lo, 2 * window.a_hi)
    kw.update(resolution=2 * np.asarray(resolution),
              a_resolution=a_resolution and 2 * a_resolution)
    doubled = [alpha * superlevel_measure(F, alpha, wide, **kw)[0]
               for alpha in alpha_list]
    drift = max(abs(d - p) for d, p in zip(doubled, products))
    return {"alphas": list(alpha_list), "products": products,
            "error_bars": bars, "constant": constant,
            "doubled_products": doubled,
            "stable": bool(drift <= 0.05 * constant + max(bars) + 1e-12)}


# -- global bounds for measure Poisson integrals -----------------------------

def measure_poisson(spec: GroupSpec, mu: AtomicMeasure, kernel: KernelSpec,
                    a, eta):
    """(mu * P_a)(eta) = sum_i w_i a^{-Q} P(delta_{1/a}(xi_i^{-1} eta)),
    exact for atoms; a is one height or one per point of eta."""
    eta = np.asarray(eta, dtype=float)[..., None, :]
    a = np.asarray(a, dtype=float)[..., None]
    arg = spec.dilate(1.0 / a, spec.multiply(spec.inverse(mu.xi), eta))
    return np.sum(mu.w * kernel(arg) * a ** (-float(spec.Q)), axis=-1)


def mu_poisson_bounds(mu: AtomicMeasure, kernel: KernelSpec, window: Window,
                      a0, certificate=None, resolution=61):
    """Measured global estimates for mu * P_a.

    (a) weak-L1 constant of (1/a)(1+a+|eta|)^{-Q-Gamma} mu * P_a over the
    window; (b) sup of (1+a+|eta|)^{-Q-Gamma} a^{-Gamma} mu * P_a on
    {a > a0}, re-measured as a0 doubles.  Refuses kernels without a
    passed certificate.
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
    pts = tensor_grid([np.linspace(c[k] - hw[k], c[k] + hw[k], resolution)
                       for k in range(window.n)]).reshape(-1, window.n)
    npts = norm(pts)
    sups = []
    for lo in (a0, 2 * a0, 4 * a0):
        # every height at once, as a column: the products xi_i^{-1} eta do
        # not depend on it
        a = np.geomspace(lo, max(window.a_hi, 4 * lo), 25)[:, None]
        sups.append(max(0.0, *(float(np.max(
            measure_poisson(spec, mu, kernel, a, pts[blk]) * a ** -Gamma
            / (1.0 + a + npts[blk]) ** (Q + Gamma)))
            for blk in _chunks(len(pts), len(a)))))

    return {"weak": weak, "a0_values": [a0 * 2 ** m for m in range(3)],
            "sup_infinity": sups,
            "sup_nonincreasing": bool(all(sups[m + 1] <= sups[m] + 1e-12
                                          for m in range(len(sups) - 1))),
            "certified": True}


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
    """The lattice points of integer indices ints at lattice scale s."""
    return spec.dilate(s, np.asarray(ints, dtype=float)
                       * _lattice_scales(spec))


def _distances(spec, norm, pts, centers, reduce=lambda d: d):
    """|c^{-1} x| for each point x (rows) and center c (columns), built a
    chunk of points at a time and passed through reduce per chunk."""
    centers = np.asarray(centers, dtype=float).reshape(-1, spec.n)
    return np.concatenate([
        reduce(norm.distance(centers, pts[blk, None, :]))
        for blk in _chunks(len(pts), len(centers) * spec.n)])


def _count_within(spec, norm, pts, centers, r):
    """Number of centers c with |c^{-1} x| <= r, for each point x.  Only
    the pairs in the layer-1 box are gauged: on a coordinate k of weight 1,
    (c^{-1} x)_k = x_k - c_k, which |c^{-1} x| <= r bounds by
    norm.box(r)_k (padded here against the gauge's rounding)."""
    centers = np.asarray(centers, dtype=float).reshape(-1, spec.n)
    layer1 = spec.layer1
    reach = norm.box(r)[layer1] * (1.0 + 1e-9)
    counts = np.zeros(len(pts), dtype=int)
    for blk in _chunks(len(pts), len(centers) * len(layer1)):
        near = np.all(np.abs(pts[blk, None, layer1] - centers[:, layer1])
                      <= reach, axis=-1)
        i, j = np.nonzero(near)
        d = norm.distance(centers[j], pts[blk][i])
        counts[blk] = np.bincount(i[d <= r], minlength=len(near))
    return counts


def _covering_radius(spec: GroupSpec, norm: HomogeneousNorm):
    """Max over the unit cell (9 samples per axis) of the gauge distance to
    the nearest lattice point, at lattice scale s = 1."""
    scales = _lattice_scales(spec)
    axes = [np.linspace(0, scales[k], 9, endpoint=False)
            for k in range(spec.n)]
    pts = tensor_grid(axes).reshape(-1, spec.n)
    offs = tensor_grid([np.arange(-2, 3)] * spec.n).reshape(-1, spec.n)
    best = _distances(spec, norm, pts, _lattice_coords(spec, 1.0, offs),
                      lambda d: np.min(d, axis=1))
    # sampled sup under-estimates the true covering radius; pad it
    return 1.1 * float(np.max(best))


def _design_kappa(spec, norm, c0):
    """Lattice design constant: most balls of radius r (spacing r / c0)
    that cover one point, measured at unit scale."""
    offs = tensor_grid([np.arange(-4, 5)] * spec.n).reshape(-1, spec.n)
    probes = np.random.default_rng(0).uniform(-0.5, 0.5, size=(200, spec.n))
    counts = _count_within(spec, norm, probes,
                           _lattice_coords(spec, 1.0 / c0, offs), 1.0)
    return int(np.max(counts))


def _lattice_points_near(spec, norm, s, xi, R, K0):
    """Atom-translated lattice: centers xi . lambda in B(0, K0) for lattice
    points lambda with |lambda| <= R, as (ints, coords)."""
    step = _lattice_coords(spec, s, 1)
    hi = np.ceil(norm.box(R) / step).astype(int)
    if np.prod(2.0 * hi + 1.0) > 4e6:
        raise ValueError("covering lattice enumeration too large; "
                         "reduce depth or raise alpha")
    axes = [np.arange(-hi[k], hi[k] + 1) for k in range(spec.n)]
    ints = tensor_grid(axes).reshape(-1, spec.n)
    lam = ints * step
    keep = norm(lam) <= R
    coords = spec.multiply(np.asarray(xi, dtype=float), lam[keep])
    inside = norm(coords) <= K0
    return ints[keep][inside], coords[inside]


def _ball_samples(spec, norm, centers, r, count, rng):
    """count uniform points of each ball B(center, r), for centers of shape
    (..., n) and radii r broadcast to (...), as an array (..., count, n).

    Every ball is a dilated left translate of B(0, 1): one pool of box
    samples is kept inside B(0, 1), topped up until every row is full,
    then dilated by r and translated."""
    centers = np.asarray(centers, dtype=float)
    shape = centers.shape[:-1] + (count, spec.n)
    need = math.prod(shape[:-1])
    ext = norm.box(1.0)
    share = 1.0 / (norm.calibration() * np.prod(2 * ext))  # ball / box
    pool = np.empty((0, spec.n))
    while len(pool) < need:
        b = rng.uniform(-ext, ext, (int(1.1 * (need - len(pool)) / share)
                                    + 16, spec.n))
        pool = np.concatenate([pool, b[norm(b) <= 1.0]])
    return spec.multiply(centers[..., None, :], spec.dilate(
        np.asarray(r, dtype=float)[..., None], pool[:need].reshape(shape)))


def _forbid_radius(i0, i, l, Q, Gamma):
    return 2.0 ** (i0 - i + (l - i) / (Q + Gamma) + 1)


def _reach(nu, Q, Gamma, alpha, a_lo, a_hi):
    """Bound on a and on the gauge distance d to the nearest atom where
    U_nu > alpha for a in [a_lo, a_hi]: U_nu <= m a^{Gamma-1} / max(a,
    d)^{Q+Gamma} for m = len(w) max(w), and a^{Gamma-1} peaks at an end."""
    mass = len(nu.w) * np.max(nu.w, initial=0.0)
    a_pow = max(a_lo ** (Gamma - 1.0), a_hi ** (Gamma - 1.0))
    return (mass * a_pow / alpha) ** (1.0 / (Q + Gamma))


def _hit_test(spec, norm, nu, Gamma, alpha, cand, r, a_lo, a_hi, rng):
    """Per candidate center: does U_nu exceed alpha at one of 4 heights in
    [a_lo, a_hi], on 8 samples of B(center, r) per height, on the center or
    on an atom inside the ball?"""
    a = np.linspace(a_lo, a_hi, 4)[:, None]
    atom_hit = np.any(U_nu(spec, norm, nu, Gamma, nu.xi, a) > alpha, axis=0)
    out = np.empty(len(cand), dtype=bool)
    # a candidate spans 4 heights x 9 points x atoms x coordinates
    for blk in _chunks(len(cand), 36 * len(nu.w) * spec.n):
        cc = cand[blk]
        pts = np.concatenate([_ball_samples(
            spec, norm, cc, r, 32, rng).reshape(-1, 4, 8, spec.n),
            np.broadcast_to(cc[:, None, None], (len(cc), 4, 1, spec.n))], 2)
        inside = norm.distance(cc[:, None, :], nu.xi) <= r
        out[blk] = np.any(U_nu(spec, norm, nu, Gamma, pts, a) > alpha,
                          axis=(1, 2)) | np.any(inside & atom_hit, axis=1)
    return out


def build_covering(spec: GroupSpec, norm: HomogeneousNorm,
                   nu: AtomicMeasure, Gamma, alpha, i0, depth, seed=0):
    """Dyadic covering of {U_nu > alpha} inside K0 = B(0, 2^{i0}) x
    (0, 2^{i0}].

    Sweeps scales i = 0..depth in lexicographic order (scales ascending,
    then atom and lattice index row-major).  A piece is authorized when
    U_nu exceeds alpha at one of 32 samples of its ball (8 at each of 4
    heights), at its center or at an atom inside it, and no earlier
    authorized piece forbids it; an earlier piece (ip, jp) forbids
    everything within D_inf distance 2^{i0-ip+(i-ip)/(Q+Gamma)+1}.  Whole
    lattice neighborhoods provably inside a forbidden region are skipped
    en bloc with their volume attributed to the forbidding piece.

    Each scale is batched: one distance matrix drops the candidates that
    earlier scales forbid; the rest draw their samples from one pooled
    _ball_samples call per chunk and are hit-tested in one broadcast; only
    the hits are walked in order against this scale's pieces; a last masked
    matrix gives every other forbidden candidate's volume to its first
    forbidding piece in sweep order.
    """
    Q = float(spec.Q)
    rng = np.random.default_rng(seed)
    if alpha <= 0 or Gamma <= 0 or depth < 0:
        raise ValueError("alpha and Gamma must be positive, depth >= 0")
    if 2.0 ** (i0 - depth - 3) < 1e-9:
        raise ValueError("depth underflows the piece width")
    cal = norm.calibration()
    c0 = _covering_radius(spec, norm)
    K0 = 2.0 ** i0
    gamma_tri = 1.05  # quasi-triangle slack for conservative set distances
    authorized, forb_vol = [], defaultdict(float)
    enumerated = 0
    scale_centers = (1.0, np.empty((0, spec.n)))

    def forbidden(pieces, pts, pad):
        """(points, pieces) mask: p forbids a set of the current scale i at
        D_inf eta-distance pad(|p.center^{-1} x|, p.radius) from it."""
        d = _distances(spec, norm, pts, [p.center for p in pieces])
        d_a = np.maximum(np.array([p.a_lo for p in pieces]) - a_hi, 0.0)
        rf = np.array([_forbid_radius(i0, p.i, i, Q, Gamma) for p in pieces])
        return np.maximum(pad(d, np.array([p.radius for p in pieces])),
                          d_a) < rf

    def give(mask, pieces, vol):
        """vol per forbidden row to its first forbidder; returns free rows."""
        owned = mask.any(axis=1)
        for row in mask[owned]:
            forb_vol[pieces[row.argmax()].key] += vol
        return ~owned

    for i in range(depth + 1):
        r_i = 2.0 ** (i0 - i - 3)
        a_lo, a_hi = 2.0 ** (i0 - i - 1), 2.0 ** (i0 - i)
        s_i = r_i / c0
        reach = _reach(nu, Q, Gamma, alpha, a_lo, a_hi)
        if reach <= a_lo:
            continue  # no piece of this scale can exceed alpha
        R_a = reach + 2 * r_i
        earlier = list(authorized)
        free = give(forbidden(earlier, nu.xi,
                              lambda d, rad: gamma_tri * (d + R_a)),
                    earlier, min(R_a, 2 * K0) ** Q * (a_hi - a_lo))
        near = [(ai, *_lattice_points_near(spec, norm, s_i, nu.xi[ai], R_a,
                                           K0)) for ai in np.flatnonzero(free)]
        # tensor_grid lists the lattice row-major, so the candidates come
        # in (atom, lattice index) order
        keys = np.concatenate([np.empty((0, 1 + spec.n), dtype=int)] + [
            np.column_stack([np.full(len(t), ai), t]) for ai, t, _ in near])
        cand = np.concatenate([np.empty((0, spec.n))] + [c for *_, c in near])
        if len(cand) > len(scale_centers[1]):
            scale_centers = (r_i, cand[:2000])
        enumerated += len(cand)
        vol = r_i ** Q * (a_hi - a_lo)
        ball = lambda d, rad: np.maximum(d - rad - r_i, 0.0)
        live = np.flatnonzero(give(forbidden(earlier, cand, ball), earlier,
                                   vol))
        hits = live[_hit_test(spec, norm, nu, Gamma, alpha, cand[live], r_i,
                              a_lo, a_hi, rng)]
        alive = np.ones(len(hits), dtype=bool)
        for k, j in enumerate(hits):
            if alive[k]:
                authorized.append(DyadicPiece(
                    i, int(j), cand[j], r_i, a_lo, a_hi,
                    key=(i,) + tuple(int(v) for v in keys[j])))
                alive[k + 1:] &= ~forbidden(authorized[-1:],
                                            cand[hits[k + 1:]], ball)[:, 0]
        # each other live candidate: the first piece of this scale that
        # was authorized before it and forbids it
        new = authorized[len(earlier):]
        rest = np.setdiff1d(live, [p.j for p in new])
        give(forbidden(new, cand[rest], ball)
             & (np.array([p.j for p in new]) < rest[:, None]), new, vol)
    # overlap measured on the densest enumerated scale
    r_m, centers = scale_centers
    probes = _ball_samples(spec, norm, centers[:: max(1, len(centers) // 100)],
                           r_m, 8, rng).reshape(-1, spec.n)
    kappa = int(np.max(_count_within(spec, norm, probes, centers, r_m),
                       initial=0))
    tail_win = Window(tuple(nu.xi[0] if len(nu.w) else np.zeros(spec.n)),
                      tuple(norm.box(max(1e-6, 2.0 ** i0))), 0.0,
                      2.0 ** (i0 - depth - 1))
    tail, _ = superlevel_measure(
        lambda e, a: U_nu(spec, norm, nu, Gamma, e, a), alpha, tail_win,
        resolution=21, a_resolution=21, calibration=cal)
    return CoveringCertificate(
        alpha=alpha, Gamma=Gamma, i0=i0, depth=depth, authorized=authorized,
        forbidden_volume=dict(forb_vol), kappa_measured=kappa,
        kappa_design=_design_kappa(spec, norm, c0),
        covering_radius=c0, tail_measure=tail, enumerated=enumerated)


def u_piece(spec, norm, piece, Gamma, eta):
    """integral over the piece of a^{Gamma-1}/(a+|eta^{-1} xi|)^{Q+Gamma},
    by the midpoint rule: U_nu of 5 nodes per axis in the ball, 3 heights."""
    b = tensor_grid([(-e + (np.arange(5) + 0.5) * 2 * e / 5)
                     for e in norm.box(piece.radius)]).reshape(-1, spec.n)
    b = b[norm(b) <= piece.radius]
    # equal weights summing to the exact calibrated ball volume r^Q, so
    # that piece integrals match the calibrated piece measure
    w = piece.radius ** float(spec.Q) / len(b)
    mid = AtomicMeasure(spec.multiply(piece.center, b), np.full(len(b), w))
    da = (piece.a_hi - piece.a_lo) / 3
    a = (piece.a_lo + (np.arange(3) + 0.5) * da)[:, None]
    return np.sum(U_nu(spec, norm, mid, Gamma, eta, a) * da, axis=0)


def verify_covering(cert: CoveringCertificate, spec, norm,
                    nu: AtomicMeasure, resolution=41, seed=0):
    """Measured constants for the three covering properties, the forbidden
    volume bound per authorized piece, and the weak-type chain."""
    Gamma, alpha = cert.Gamma, cert.alpha
    Q = float(spec.Q)
    cal = norm.calibration()
    rng = np.random.default_rng(seed)
    F = lambda e, a: U_nu(spec, norm, nu, Gamma, e, a)

    # fixed height floor so the measured set does not move with depth
    band = 2.0 ** (cert.i0 - 12), 2.0 ** cert.i0
    reach = _reach(nu, Q, Gamma, alpha, *band)
    # the atoms' coordinate box; a point for an empty measure
    xi = nu.xi if len(nu.w) else np.zeros((1, spec.n))
    lo, hi = np.min(xi, axis=0), np.max(xi, axis=0)
    ext = norm.box(min(reach, 2.0 ** (cert.i0 + 1)))
    window = Window(tuple((lo + hi) / 2), tuple((hi - lo) / 2 + ext), *band)
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

    # (ii) min of U_nu over the authorized pieces: 8 samples of each ball
    # at each of 4 heights, from one pooled draw
    cen = np.array([p.center for p in cert.authorized]).reshape(-1, spec.n)
    rad, a_lo, a_hi = np.array([(p.radius, p.a_lo, p.a_hi)
                                for p in cert.authorized]).reshape(-1, 3).T
    pts = _ball_samples(spec, norm, cen, rad, 32, rng)
    min_u = float(np.min(F(pts.reshape(-1, 4, 8, spec.n), np.linspace(
        a_lo, a_hi, 4, axis=-1)[..., None]), initial=np.inf))
    report["min_U_on_pieces"] = min_u
    report["C_ii"] = alpha / min_u if np.isfinite(min_u) and min_u > 0 \
        else (0.0 if not cert.authorized else np.inf)

    # (iii) max of U_S over adversarial probes
    probes = np.array([*cen, *nu.xi, *spec.dilate(4.0, cen), spec.dilate(
        4.0 * 2.0 ** cert.i0, np.eye(spec.n)[0])])
    u_s = np.zeros(len(probes))
    for p in cert.authorized:
        u_s += u_piece(spec, norm, p, Gamma, probes)
    report["C_iii"] = float(np.max(u_s)) if cert.authorized else 0.0

    # forbidden-volume bound per authorized piece, measured and analytic
    ratios = [cert.forbidden_volume.get(p.key, 0.0) / own
              for p, own in zip(cert.authorized, owns)]
    analytic = [sum((_forbid_radius(cert.i0, p.i, l, Q, Gamma)
                     + 2 * 2.0 ** (cert.i0 - l - 3)) ** Q
                    * 2.0 ** (cert.i0 - l - 1)
                    for l in range(p.i + 1, p.i + 60)) / own
                for p, own in zip(cert.authorized, owns)]
    report["forbidden_ratio_measured"] = max(ratios, default=0.0)
    report["forbidden_ratio_analytic"] = max(analytic, default=0.0)

    C = max(report["C_i"], report["C_ii"], report["C_iii"], 1.0)
    chain_rhs = C ** 3 * nu.total_mass / alpha
    report.update(C=C, chain_lhs=measure, chain_rhs=chain_rhs,
                  chain_holds=bool(measure <= chain_rhs + bar))

    # authorized pieces pairwise disjoint (sampled): 64 points of the
    # earlier piece p of each close pair (p, q) tested against q
    q, p = np.nonzero(np.tril(
        (a_lo[:, None] < a_hi) & (a_lo < a_hi[:, None])
        & (_distances(spec, norm, cen, cen) <= 1.05 * (rad[:, None] + rad)),
        -1))
    pts = _ball_samples(spec, norm, cen[p], rad[p], 64, rng)
    report["disjoint"] = not np.any(
        norm.distance(cen[q, None, :], pts) <= rad[q, None])
    return report
