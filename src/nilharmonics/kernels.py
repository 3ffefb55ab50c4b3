"""Poisson-type kernels with certified decay estimates.

A kernel here is a smooth positive function P comparable to the weight
omega_{-Q-Gamma}, whose invariant derivatives gain one weight order per
derivative weight and whose dilates P_a = a^{-Q} P(delta_{1/a} .) satisfy
the matching scale-uniform bounds.  Both built-in families are
c (1 + N(eta))^{-(Q+Gamma)/(2M)} over the gauge polynomial N, with mass c m
in closed form:

* ``classical_abelian``: abelian, unit weights, Gamma = 1, c = 1/m;
  on R^1 the upper-half-plane Poisson kernel, P_a harmonic in (x, a).
* ``model_power``: any homogeneous group and Gamma, c = 1 so P(0) = 1.

Every kernel quantity is an exact SmoothField: the dilates P_a, the scale
derivatives (a d/da)^k P_a and the comparison weights omega_mu, so the
harmonicity residual of the classical family is computed without a grid.
Certification is one estimate table: each estimate is a list of rows
(a, lhs, majorant, p) of exact fields, its ratio the measured sup of
|lhs| / (a^{-p} majorant(delta_{1/a} .)) over one gauge sweep, accepted
only when stable on the sweep of doubled radius.  A new kernel family
needs no certificate code.
"""

from __future__ import annotations

from math import gamma as gamma_fn

import numpy as np

from .calculus import OperatorWord, build_conversion, words_upto_weight
from .group_core import GroupSpec, HomogeneousNorm, weight_field
from .polynomials import Polynomial, Profile, SmoothField

FAMILIES = ("classical_abelian", "model_power")  # what KernelSpec accepts


class KernelSpec:
    """A kernel family bound to a group and a gauge, exposing exact
    symbolic derivatives through its SmoothField representation."""

    def __init__(self, spec: GroupSpec, norm: HomogeneousNorm, family,
                 Gamma=1.0):
        if Gamma <= 0:
            raise ValueError("Gamma must be positive")
        if family not in FAMILIES:
            raise ValueError(f"unknown kernel family {family!r}")
        self.spec, self.norm, self.family = spec, norm, family
        self.Gamma = float(Gamma)
        if family == "classical_abelian":
            if any(d != 1 for d in spec.weights) or spec.structure:
                raise ValueError("classical_abelian requires an abelian "
                                 "group with unit weights")
            if Gamma != 1.0:
                raise ValueError("classical_abelian has Gamma = 1")
        # polar coordinates (Leb B(0, r) = r^Q / kappa), s = |eta|^{2M}:
        # m = (q / kappa) B(q, g) with q = Q/2M and g = Gamma/2M
        q, g = float(spec.Q) / (2 * norm.M), self.Gamma / (2 * norm.M)
        m = q * gamma_fn(q) * gamma_fn(g) / gamma_fn(q + g) \
            / norm.calibration()
        self.c = 1.0 / m if family == "classical_abelian" else 1.0
        self.mass = self.c * m
        expo = -(self.Gamma + float(spec.Q)) / (2 * norm.M)
        self.field = SmoothField(norm.gauge_polynomial(), Profile(
            lambda u: self.c * (1 + u) ** expo, name=family))

    def __call__(self, eta):
        return self.field.eval(eta)

    def weight(self, extra=0.0):
        """The comparison weight omega_{-Q-Gamma-extra}."""
        return weight_field(self.norm,
                            -(float(self.spec.Q) + self.Gamma + extra))


def dilated_field(kernel: KernelSpec, a):
    """P_a as a SmoothField (exact symbolic derivatives in eta)."""
    return scale_derivative(kernel, 0, a)


def scale_derivative(kernel: KernelSpec, k, a):
    """(a d/da)^k P_a as an exact SmoothField, k = 0, 1, 2.

    Differentiating a^{-Q} P(delta_{1/a} eta) in log a gives the dilate of
    E P = -Q P - sum_j d_j theta_j (d_j P), so (a d/da)^k P_a is
    a^{-Q} (E^k P)(delta_{1/a} eta)."""
    if k not in (0, 1, 2):
        raise ValueError("scale derivatives are available for k = 0, 1, 2")
    if a <= 0:
        raise ValueError("scale parameter must be positive")
    spec = kernel.spec
    f = kernel.field
    for _ in range(k):
        Ef = f * -float(spec.Q)
        for j, d in enumerate(spec.weights):
            Ef = Ef + f.diff(j) * (Polynomial.coordinate(spec.n, j) * -d)
        f = Ef
    return f.rescale(spec.dilate(1.0 / a, np.ones(spec.n))) \
        * float(a) ** -float(spec.Q)


def _sweep_points(norm: HomogeneousNorm, radius, n_dirs, n_radii, seed=0):
    """Gauge-logarithmic sweep: the identity, then random directions
    dilated onto the unit sphere of the gauge (delta_{1/|eta|} eta) and
    from there to radii log-spaced in [1e-2, radius], radius by radius."""
    rng = np.random.default_rng(seed)
    spec = norm.spec
    dirs = rng.standard_normal((n_dirs, spec.n))
    dirs = spec.dilate(1.0 / norm(dirs), dirs)
    # constant density per decade (n_radii points when radius = 100), so a
    # doubled sweep samples the new outer octave as finely as the old one
    n_pts = max(8, int(round(n_radii * np.log10(radius * 100.0) / 4.0)))
    radii = np.geomspace(1e-2, radius, n_pts)
    return np.concatenate([np.zeros((1, spec.n)), spec.dilate(
        radii[:, None], dirs).reshape(-1, spec.n)])


def certify_RGamma(kernel: KernelSpec, radius=100.0, n_dirs=24, n_radii=40,
                   seed=0):
    """Certify the kernel's class from one estimate table.

    Each estimate is a list of rows (a, lhs, majorant, p) of exact fields,
    and its ratio is the sup over its rows and over a gauge sweep of
    |lhs| / (a^{-p} majorant(delta_{1/a} .)).  The table holds the
    two-sided comparability with omega_{-Q-Gamma}, the left-invariant
    words X^alpha P of weight d(alpha) <= 2 against omega_{-Q-Gamma-d},
    the scale derivatives (a d/da)^k P_a, k = 1, 2, and the dilated words
    X^alpha P_a, both at a = 1/4, 1, 4, and the reversed right words
    tilde-Y^alpha P through their conversion tables.  Every row is measured
    on one sweep to `radius` and one to 2 radius; an estimate is stable,
    and the certificate passes only if all are, when the ratio is finite
    and grows by at most 5% on the doubled sweep.  The report also carries the
    kernel's closed-form mass.
    """
    spec, P = kernel.spec, kernel.field
    Q, w0 = float(spec.Q), kernel.weight()
    words = [(alpha, float(spec.mdeg(alpha)))
             for alpha in words_upto_weight(spec, 2) if sum(alpha)]
    omega = {d: kernel.weight(d) for _, d in words}
    scales = (0.25, 1.0, 4.0)
    table = {"comparability_upper": [(1.0, P, w0, 0.0)],
             "comparability_lower": [(1.0, w0, P, 0.0)]}
    for alpha, d in words:
        table[f"derivative_X_{alpha}"] = [(1.0, OperatorWord(
            spec, "X", alpha).apply_symbolic(P), omega[d], 0.0)]
    for k in (1, 2):
        table[f"scale_derivative_{k}"] = [
            (a, scale_derivative(kernel, k, a), w0, Q) for a in scales]
    for alpha, d in words:
        table[f"dilated_derivative_X_{alpha}"] = [
            (a, OperatorWord(spec, "X", alpha).apply_symbolic(
                dilated_field(kernel, a)), omega[d], Q + d) for a in scales]
    for alpha, d in words:
        table[f"derivative_Yt_{alpha}"] = [(1.0, build_conversion(
            spec, alpha).apply_symbolic(P), omega[d], 0.0)]

    sweeps = [_sweep_points(kernel.norm, r, n_dirs, n_radii, seed)
              for r in (radius, 2 * radius)]
    report = {"family": kernel.family, "Gamma": kernel.Gamma,
              "mass": kernel.mass, "estimates": {}, "passed": True}
    for name, rows in table.items():
        r1, r2 = (float(np.max([
            np.max(np.abs(lhs.eval(pts))
                   / (a ** -p * majorant(spec.dilate(1.0 / a, pts))))
            for a, lhs, majorant, p in rows])) for pts in sweeps)
        ok = np.isfinite(r1) and np.isfinite(r2) and r2 <= 1.05 * r1
        report["estimates"][name] = {"sup_ratio": r1,
                                     "doubled_sup_ratio": r2, "stable": ok}
        report["passed"] = report["passed"] and ok
    return report


def harmonicity_residual(kernel: KernelSpec, x_points, a_points):
    """Max over the (x, a) grid of a^2 |Delta_{x,a} P_a(x)|, exact.

    With E = a d/da, a^2 d^2/da^2 = E^2 - E, so the residual is
    |a^2 sum_k d_k^2 P_a + (E^2 - E) P_a| from exact fields.  Only the
    classical family solves the upper-half-space Laplace equation; any
    other family is refused.
    """
    if kernel.family != "classical_abelian":
        raise ValueError("harmonicity is only claimed for the "
                         "classical_abelian family")
    a_points = np.asarray(a_points, dtype=float)
    if np.any(a_points <= 0):
        raise ValueError("the half-space boundary a = 0 must be excluded")
    x_points = np.asarray(x_points, dtype=float)
    worst = 0.0
    for a in a_points:
        Pa = dilated_field(kernel, a)
        lap = sum(Pa.diff(k).diff(k).eval(x_points)
                  for k in range(kernel.spec.n))
        res = a ** 2 * lap + scale_derivative(kernel, 2, a).eval(x_points) \
            - scale_derivative(kernel, 1, a).eval(x_points)
        worst = max(worst, float(np.max(np.abs(res))))
    return worst
