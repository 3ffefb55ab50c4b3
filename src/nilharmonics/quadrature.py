"""Haar integration, group convolution, polar decomposition, and the
two-weight integrals I_{r,s}.

Haar measure is Lebesgue measure in exponential coordinates.  Integrals are
tensor-product composite quadratures (Simpson by default, the closed
trapezoid rule for rough integrands) over a coordinate box; an optional
sinh grading concentrates nodes near the box center for peaked power-law
integrands.  The calibrated normalization multiplies Lebesgue measure by
the constant making the unit ball of a chosen gauge have measure one;
plain Lebesgue is the default.
"""

from __future__ import annotations

import numpy as np

from .group_core import GroupSpec, HomogeneousNorm, tensor_grid
from .polynomials import SmoothField

# most float64 elements that one batched step builds at once (2 MB per
# temporary): a chunk of (eta, xi) or (r, node) pairs, a block of heights
# on a grid, a chunk of covering candidates or of probes
_BATCH = 2 ** 18


def _chunks(total, per_item):
    """Consecutive slices that cover range(total), at least one, of at most
    _BATCH elements when each item spans per_item elements."""
    step = max(1, _BATCH // max(1, per_item))
    return [slice(s, s + step) for s in range(0, max(total, 1), step)]


def _axis_nodes(center, half_width, count, rule, grading):
    """Nodes and quadrature weights on one axis.

    With grading g > 0 the uniform reference variable u in [-1, 1] is mapped
    through x = center + half_width * sinh(g u)/sinh(g), and the Jacobian is
    folded into the weights, so the composite rule still integrates dx.
    """
    if count < 2:
        raise ValueError("need at least two nodes per axis")
    if rule == "simpson" and count % 2 == 0:
        count += 1
    u = np.linspace(-1.0, 1.0, count)
    du = u[1] - u[0]
    if rule == "simpson":
        w = np.ones(count)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        w *= du / 3.0
    elif rule == "trapezoid":
        # end nodes at half weight: robust for rough integrands, any count
        w = np.full(count, du)
        w[0] = w[-1] = du / 2.0
    else:
        raise ValueError(f"unknown rule {rule!r}")
    if grading:
        g = float(grading)
        x = center + half_width * np.sinh(g * u) / np.sinh(g)
        w = w * half_width * g * np.cosh(g * u) / np.sinh(g)
    else:
        x = center + half_width * u
        w = w * half_width
    return x, w


class Grid:
    """Tensor-product quadrature box.

    Parameters
    ----------
    centers, half_widths : array_like, shape (n,)
    counts : int or array_like
        Nodes per axis (Simpson bumps even counts to odd).
    rule : {'simpson', 'trapezoid'} (the closed trapezoid rule)
    grading : None, float, or array_like
        sinh grading strength per axis; None for uniform spacing.
    """

    def __init__(self, centers, half_widths, counts, rule="simpson",
                 grading=None):
        centers = np.atleast_1d(np.asarray(centers, dtype=float))
        n = len(centers)
        half_widths = np.broadcast_to(np.asarray(half_widths, dtype=float),
                                      (n,))
        counts = np.broadcast_to(np.asarray(counts, dtype=int), (n,))
        gradings = (np.zeros(n) if grading is None else
                    np.broadcast_to(np.asarray(grading, dtype=float), (n,)))
        self.axes, axis_w = [], []
        for k in range(n):
            x, w = _axis_nodes(centers[k], half_widths[k], int(counts[k]),
                               rule, gradings[k])
            self.axes.append(x)
            axis_w.append(w)
        self.points = tensor_grid(self.axes)
        self.weights = np.prod(tensor_grid(axis_w), axis=-1)
        self.flat_points = self.points.reshape(-1, n)
        self.flat_weights = self.weights.reshape(-1)

    def box_index(self, lo, hi):
        """One slice per axis keeping the nodes with lo <= node <= hi:
        points[index] is the tensor sub-box of the nodes inside the
        coordinate box (lo, hi), a view in the grid's order."""
        return tuple(slice(np.searchsorted(x, a, "left"),
                           np.searchsorted(x, b, "right"))
                     for x, a, b in zip(self.axes, lo, hi))


def box_grid(spec: GroupSpec, radius, count, rule="simpson", grading=None):
    """Box whose axis k extends radius**d_k: the unit cube dilated by
    radius."""
    return Grid(np.zeros(spec.n), spec.dilate(radius, np.ones(spec.n)),
                count, rule=rule, grading=grading)


def _evaluate(f, pts):
    """Values of a callable (a Polynomial, a SmoothField or a plain function
    of (..., n) arrays) at pts, refusing non-finite values."""
    vals = np.asarray(f(np.asarray(pts, dtype=float)), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("non-finite integrand values on the grid")
    return vals


def haar_integrate(f, grid: Grid, calibration=1.0):
    """Integrate f against Haar measure = calibration * Lebesgue."""
    vals = _evaluate(f, grid.points)
    return float(calibration) * float(np.sum(vals * grid.weights))


def _sub_boxes(spec: GroupSpec, etas, grid: Grid, support):
    """Groups (rows, index) of the eta that keep the same sub-box of the
    tensor grid, grid.points[index], in the second form against a factor
    that vanishes off the box support = (lo, hi).  On a coordinate k of
    weight 1, (eta xi^{-1})_k = eta_k - xi_k, so only the xi_k in
    [eta_k - hi_k, eta_k - lo_k] can pair with a nonzero value."""
    lo, hi = (np.asarray(b, dtype=float) for b in support)
    layer1 = spec.layer1
    ends = np.array([np.searchsorted(grid.axes[k], etas[:, k] - bound, side)
                     for k in layer1 for bound, side in ((hi[k], "left"),
                                                         (lo[k], "right"))]
                    ).T
    keys, group = np.unique(ends, axis=0, return_inverse=True)
    group = group.reshape(-1)
    for i, key in enumerate(keys):
        index = [slice(None)] * spec.n
        for j, k in enumerate(layer1):
            index[k] = slice(key[2 * j], key[2 * j + 1])
        yield np.flatnonzero(group == i), tuple(index)


def convolve(spec: GroupSpec, f, g, eta, grid: Grid, form="first", *,
             support=None):
    """Group convolution (f * g)(eta).

    form='first' evaluates  int f(xi) g(xi^{-1} eta) dlambda(xi),
    form='second' the equal int f(eta xi^{-1}) g(xi) dlambda(xi).  The
    factor that lives on the grid alone is evaluated once and folded into
    the weights.  support = (lo, hi) is a coordinate box off which f
    vanishes, in both forms; it defaults to f.support_box() when f is a
    SmoothField.  Each block of eta builds GroupSpec.inverse(xi) once,
    one contiguous array per coordinate.  A pair spans its n product
    coordinates and one value, and the pairs go in _chunks of that size.

    Pairs whose term is exactly 0 are skipped, which changes the sum only
    in its order:
    - in every form, the grid nodes whose folded weight is exactly 0;
    - in the first form, every node outside the box: f is evaluated on
      the box's tensor sub-box of the grid alone, so the kept nodes and
      their order are those of the whole grid;
    - in the second form, every xi with eta xi^{-1} outside the box on a
      coordinate of weight 1.  There the group law is plain addition
      (GroupSpec.layer1), so (eta xi^{-1})_k = eta_k - xi_k exactly, and
      each eta keeps a sub-box of the tensor grid.
    """
    if form not in ("first", "second"):
        raise ValueError(f"unknown form {form!r}")
    if support is None and isinstance(f, SmoothField):
        support = f.support_box()
    eta = np.asarray(eta, dtype=float)
    etas = eta.reshape(-1, spec.n)
    fixed, moving = (f, g) if form == "first" else (g, f)
    box = () if support is None or form == "second" \
        else grid.box_index(*support)
    nodes = grid.points[box]
    w = _evaluate(fixed, nodes) * grid.weights[box]
    blocks = _sub_boxes(spec, etas, grid, support) if support is not None \
        and form == "second" else [(np.arange(len(etas)), ())]
    out = np.zeros(len(etas))
    for rows, index in blocks:
        keep = w[index] != 0
        wk = w[index][keep]
        if not len(wk):
            continue  # every pair of these eta is 0
        pts = nodes[index]
        xi_inv = spec.inverse(
            np.array([pts[..., k][keep] for k in range(spec.n)]).T)
        for blk in _chunks(len(rows), (spec.n + 1) * len(wk)):
            e = etas[rows[blk], None, :]
            arg = spec.multiply(xi_inv[None], e) if form == "first" \
                else spec.multiply(e, xi_inv[None])
            out[rows[blk]] = _evaluate(moving, arg) @ wk
    return out[0] if eta.ndim == 1 else out.reshape(eta.shape[:-1])


def check_map(spec: GroupSpec, f):
    """The involution f-check(eta) = f(eta^{-1})."""
    return lambda eta: _evaluate(f, spec.inverse(np.asarray(eta, float)))


# -- polar decomposition ----------------------------------------------------

def polar_integrate(f, norm: HomogeneousNorm, r_max, n_r=201, resolution=81):
    """int_0^{r_max} int_S f(delta_r xi) r^{Q-1} dsigma(xi) dr under the
    calibrated normalization (so the constant 1 on the unit ball gives 1).

    The rule on the gauge unit sphere S is the pushforward of a Cartesian
    trapezoid rule over the shell 1 <= |eta| <= 1.2: each shell point eta
    at rho = |eta| projects to delta_{1/rho} eta, carrying its Lebesgue
    weight divided by rho^{Q-1} and by the shell's radial extent 0.2.  The
    radial rule is Simpson's on [0, r_max]; delta_0 is not a dilation, so
    its node r = 0 is the identity.  The (r, node) pairs go in _chunks,
    each spanning its n coordinates and one value."""
    spec, Q = norm.spec, float(norm.spec.Q)
    grid = box_grid(spec, 1.2, resolution, rule="trapezoid")
    rho = norm(grid.flat_points)
    keep = (rho >= 1.0) & (rho <= 1.2)
    rho = rho[keep]
    nodes = spec.dilate(1.0 / rho, grid.flat_points[keep])
    sigma = grid.flat_weights[keep] * norm.calibration() \
        / rho ** (Q - 1.0) / 0.2
    r, wr = _axis_nodes(r_max / 2, r_max / 2, n_r, "simpson", None)
    shell = np.concatenate([  # the first node, r = 0, is the identity
        [_evaluate(f, spec.identity()) * np.sum(sigma)],
        *(_evaluate(f, spec.dilate(r[1:][blk, None], nodes)) @ sigma
          for blk in _chunks(len(r) - 1, (spec.n + 1) * len(nodes)))])
    return float(np.sum(shell * r ** (Q - 1.0) * wr))


# -- the integrals I_{r,s} --------------------------------------------------

def _grading_for(spec: GroupSpec, radius, count, center_spacing):
    """Per-axis sinh strengths so that the node spacing at the box center
    stays near `center_spacing` (resolving the unit-scale peaks of the
    integrand) however large the box is.  Axis k of box_grid(spec, radius)
    extends h_k = radius**d_k, so its strength solves
    h_k * g/sinh(g) * du = center_spacing."""
    du = 2.0 / (count - 1)
    out = []
    for h in spec.dilate(radius, np.ones(spec.n)):
        target = min(center_spacing / (h * du), 0.999)
        g = 1.0
        for _ in range(100):  # fixed point of g = asinh(g / target)
            g_new = np.arcsinh(g / target)
            if abs(g_new - g) < 1e-12:
                break
            g = g_new
        out.append(float(max(g, 1e-3)))
    return np.array(out)


def _irs_piece(norm, r, s, eta, radius, count, grading):
    """The half of I_{r,s}(eta) cut by w = |xi^{-1} eta|^{2M} / (|xi|^{2M}
    + |xi^{-1} eta|^{2M}), peaked at xi = 0, on a sinh-graded box of gauge
    radius `radius` centered there.  The half cut by 1 - w is this one at
    (s, r, eta^{-1}): substitute xi = eta zeta (unit Jacobian) and use
    |g^{-1}| = |g|, which holds for both gauges."""
    grid = box_grid(norm.spec, radius, count, grading=grading)
    n0 = norm(grid.flat_points)
    neta = norm.distance(grid.flat_points, eta)
    d0, de = n0 ** (2 * norm.M), neta ** (2 * norm.M)
    tot = d0 + de
    cut = np.where(tot > 0, de / np.where(tot > 0, tot, 1.0), 0.5)
    vals = cut * (1.0 + n0) ** r * (1.0 + neta) ** s
    return float(vals @ grid.flat_weights)


def _irs_doublings(norm: HomogeneousNorm, r, s, eta, count,
                   max_doublings=12):
    """(I_{r,s}(eta), converged): the domain doubles until two successive
    values agree to a relative 1e-4 (converged) or max_doublings run out
    (the last value, not converged)."""
    spec = norm.spec
    if r + s + float(spec.Q) >= 0:
        raise ValueError("integral diverges unless r + s + Q < 0")
    eta = np.asarray(eta, dtype=float)
    radius = 4.0 + 2.0 * float(norm(eta))
    prev = None
    for _ in range(max_doublings):
        g = _grading_for(spec, radius, count, center_spacing=5.0 / count)
        total = (_irs_piece(norm, r, s, eta, radius, count, g)
                 + _irs_piece(norm, s, r, spec.inverse(eta), radius, count, g))
        if prev is not None and abs(total - prev) <= 1e-4 * abs(total):
            return total, True
        prev = total
        radius *= 2.0
    return prev, False


def I_rs(norm: HomogeneousNorm, r, s, eta, count=25, max_doublings=12):
    """I_{r,s}(eta) = int (1+|xi|)^r (1+|xi^{-1} eta|)^s dlambda(xi)
    (plain Lebesgue), by adaptive domain doubling until two successive
    values agree to a relative 1e-4; after max_doublings the last value.

    Raises ValueError in the divergent regime r + s + Q >= 0.
    """
    return _irs_doublings(norm, r, s, eta, count, max_doublings)[0]


def irs_majorant(norm: HomogeneousNorm, r, s, eta_norm):
    """The regime-appropriate comparison function for I_{r,s}:
    three regimes split on the signs of r+Q and s+Q."""
    Q = float(norm.spec.Q)
    t = np.asarray(eta_norm, dtype=float)
    rq, sq = r + Q, s + Q
    if rq > 0 and sq > 0:
        return (1.0 + t) ** (r + s + Q)
    if abs(rq) < 1e-12 or abs(sq) < 1e-12:
        return (1.0 + t) ** max(r, s) * np.log(2.0 + t)
    return (1.0 + t) ** max(r, s)


def irs_bound_check(norm: HomogeneousNorm, r, s, eta_values, count=25):
    """Sweep I_{r,s} along a ray and report the ratio to the majorant.

    eta_values: array of finite, nonnegative gauge radii (any other is
    refused); the sweep walks eta = delta_t e_1.
    'bounded' is acceptance 05's rule: the sup ratio grows by less than 5%
    when a point at twice the largest radius joins the sweep.  A sweep that
    ends too early for that gets up to two more doublings.  'converged'
    says, per row, whether I_{r,s} met its stop rule; it does not enter
    the verdict.
    """
    spec = norm.spec
    e1 = np.eye(spec.n)[0]
    e1 = e1 / norm(e1)

    def ratio_row(t):
        eta = spec.dilate(t, e1) if t > 0 else np.zeros(spec.n)
        val, converged = _irs_doublings(norm, r, s, eta, count)
        maj = float(irs_majorant(norm, r, s, t))
        return (t, val, maj, val / maj), converged

    ts = np.asarray(eta_values, dtype=float)
    if not np.all(np.isfinite(ts) & (ts >= 0)):
        raise ValueError("gauge radii must be finite and nonnegative")
    rows, converged = zip(*(ratio_row(t) for t in ts))
    sup_ratio = grown = max(row[3] for row in rows)
    for t in 2.0 ** np.arange(1, 4) * ts.max():
        sup, grown = grown, max(ratio_row(t)[0][3], grown)  # nan: not bounded
        if grown < 1.05 * sup:
            break
    return {"rows": list(rows), "converged": list(converged),
            "sup_ratio": sup_ratio, "bounded": bool(grown < 1.05 * sup)}
