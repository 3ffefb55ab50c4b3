"""Weighted summable distributions and their Poisson extensions.

A distribution here is stored in the representation

    T = omega_mu * sum_alpha X^alpha f_alpha,        f_alpha in L^1,

with mu = Q + Gamma matching the kernel family in use.  Everything the
extension theory needs — the normal form T = sum_beta X^beta g_beta with
the weight moved inside the derivatives, the S'-convolution T * psi =
sum_beta g_beta * Yt^beta psi (the Poisson extension T * P_a, and the
pairing <T, phi> = (T * phi-check)(e)), weighted norms of its invariant
derivatives, and boundary convergence tables — reduces to integrals of the
sampled densities against exact symbolic derivatives of the weight and of
the convolved field.  _convolve_terms is the one reader of the normal form.
"""

from __future__ import annotations

import numpy as np

from .calculus import OperatorWord, _multi_index, leibniz_tilde_coeff, \
    sub_multi_indices, words_upto_weight
from .group_core import GroupSpec, HomogeneousNorm, weight_field
from .kernels import KernelSpec, _sweep_points, dilated_field
from .polynomials import Profile, SmoothField
from .quadrature import Grid, _evaluate, _grading_for, box_grid, convolve

METHODS = ("direct", "scaled")  # the extensions of boundary_convergence


def flat_top_profile():
    """C^2 profile equal to 1 for u <= 1 and s(2 - u) on [1, 2], with s the
    smoothstep quintic w^3 (10 - 15w + 6w^2) (flat at w = 0 and 1, and not
    below 0 next to the cap, as it would round in u - 1); paired with the
    gauge polynomial it gives a test function equal to 1 on the unit ball.
    (The weight's bridge is another quintic: it meets slope 1, not 0.)"""
    def glide(u):
        w = 2 - u
        return w * w * w * (10 + w * (6 * w - 15))

    return Profile([(lambda u: 1.0, lambda u: u <= 1), (glide, None)],
                   support_cap=2.0, name="flat_top")


class TestFunction:
    """Smooth test function with a decay-class tag:
    'schwartz-like', 'B' (bounded with bounded derivatives), or 'Bdot'
    (additionally vanishing at infinity).  Tag claims are certified by
    sampling, with stability under doubling the sample radius."""

    __test__ = False  # keep pytest from collecting this as a test class

    def __init__(self, spec: GroupSpec, func, tag="schwartz-like"):
        if tag not in ("schwartz-like", "B", "Bdot"):
            raise ValueError(f"unknown tag {tag!r}")
        self.spec, self.func, self.tag = spec, func, tag

    def eval(self, eta):
        return _evaluate(self.func, eta)

    __call__ = eval

    def certify(self, norm: HomogeneousNorm, radius=100.0):
        """Sampled sup of |X^alpha phi|, d(alpha) <= 2, on three nested
        gauge annuli; B requires finite sups stable under doubling, Bdot
        additionally a decreasing outer profile of |phi| itself."""
        report = {"tag": self.tag, "ok": True, "sups": {}}
        shells = [radius / 4, radius, 4 * radius]
        sweeps = [_sweep_points(norm, rad, 16, 25) for rad in shells]
        for alpha in words_upto_weight(self.spec, 2):
            f = OperatorWord(self.spec, "X", alpha).as_callable(self.func)
            sups = [float(np.max(np.abs(f(pts)))) for pts in sweeps]
            report["sups"][alpha] = sups
            finite = all(np.isfinite(s) for s in sups)
            stable = finite and sups[2] <= 1.05 * max(sups[0], sups[1])
            report["ok"] = report["ok"] and stable
        if self.tag == "Bdot":
            outer = []
            for rad in shells:
                pts = _sweep_points(norm, 2 * rad, 16, 25)
                far = norm(pts) >= rad
                outer.append(float(np.max(np.abs(self.eval(pts[far])))))
            report["outer_sup"] = outer
            decayed = outer[0] > outer[1] > outer[2]
            report["ok"] = report["ok"] and decayed
        return report


class DistributionRep:
    """T = omega_mu * sum X^alpha f_alpha with sampled densities f_alpha.

    normal_form holds the same distribution as sum_beta X^beta g_beta, the
    weight moved inside by the Leibniz rule:  omega X^alpha f =
    sum_{beta<=alpha} (-1)^{|alpha|-|beta|} lambda(alpha,beta)
    X^beta [ (Xt^{alpha-beta} omega) f ].
    It maps each beta <= alpha that keeps a piece to the pieces
    (c, Xt^{alpha-beta} omega, f) of g_beta, c = (-1)^{|alpha|-|beta|}
    lambda(alpha, beta); each g_beta is omega-bounded times the f's, hence
    has finite L^1(omega_{-mu}) norm when f in L^1.  With mu = 0 the weight
    is 1, stored as None, and only beta = alpha keeps a piece."""

    def __init__(self, spec: GroupSpec, norm: HomogeneousNorm, Gamma,
                 terms, mu=None):
        self.spec, self.norm = spec, norm
        self.Gamma = float(Gamma)
        self.mu = float(spec.Q) + self.Gamma if mu is None else float(mu)
        self.terms = [(_multi_index(spec, alpha), f) for alpha, f in terms]
        weight = weight_field(norm, self.mu)
        self.normal_form = {}
        for alpha, f in self.terms:
            if sum(alpha) > 3:
                raise ValueError("density derivative order capped at 3")
            for beta in sub_multi_indices(alpha):
                diff = tuple(a - b for a, b in zip(alpha, beta))
                if self.mu == 0.0 and sum(diff) > 0:
                    continue  # Xt^{alpha-beta} 1 = 0
                wd = None if self.mu == 0.0 else OperatorWord(
                    spec, "Xt", diff).apply_symbolic(weight)
                self.normal_form.setdefault(beta, []).append(
                    ((-1) ** sum(diff) * leibniz_tilde_coeff(alpha, beta),
                     wd, f))


def _weighted(wd, f):
    """The density (Xt^{alpha-beta} omega) f of a normal-form piece: f
    alone when the weight is 1."""
    return f if wd is None else (lambda p: _evaluate(f, p) * wd.eval(p))


def _convolve_terms(T: DistributionRep, psi: SmoothField, eta, grid: Grid,
                    iota=None, form="first"):
    """(T * psi)(eta) = sum_beta (g_beta * Yt^beta psi)(eta) over T's
    normal form, as (X^beta g) * psi = g * Yt^beta psi: Yt^beta psi is
    built once per beta, X^iota of it with iota set (X^iota (u * G) =
    u * X^iota G), and each piece of g_beta is one group convolution,
    bounded in either form by the support box of its density f."""
    spec = T.spec
    out = np.zeros(np.shape(eta)[:-1])
    for beta, pieces in T.normal_form.items():
        g = OperatorWord(spec, "Yt", beta).apply_symbolic(psi)
        if iota is not None and sum(iota) > 0:
            g = OperatorWord(spec, "X", iota).apply_symbolic(g)
        for c, wd, f in pieces:
            box = f.support_box() if isinstance(f, SmoothField) else None
            out = out + c * convolve(spec, _weighted(wd, f), g, eta, grid,
                                     form=form, support=box)
    return out


def pair(T: DistributionRep, phi: TestFunction, grid: Grid):
    """<T, phi> = (T * phi-check)(e): the first form of _convolve_terms on
    the density grid at the identity, where (Yt^beta phi-check)(xi^{-1})
    is (-1)^{|beta|} Xt^beta phi(xi).  The words of phi are exact, so
    phi.func must be a SmoothField."""
    return float(_convolve_terms(T, phi.func.negate_coords(),
                                 T.spec.identity(), grid))


def _p_a(T: DistributionRep, kernel: KernelSpec, a):
    """P_a for an extension of T; a kernel with another Gamma is refused."""
    if abs(T.Gamma - kernel.Gamma) > 1e-12:
        raise ValueError("distribution and kernel carry different Gamma")
    return dilated_field(kernel, a)


def poisson_extend(T: DistributionRep, kernel: KernelSpec, a, eta,
                   grid: Grid, iota=None):
    """The function (T * P_a)(eta), in the first form over the density
    grid; with iota, X^iota(T * P_a)(eta) with the derivative taken under
    the integral."""
    return _convolve_terms(T, _p_a(T, kernel, a), eta, grid, iota=iota)


def poisson_extend_scaled(T: DistributionRep, kernel: KernelSpec, a, eta,
                          span=4.0, count=31):
    """(T * P_a)(eta) in the second form int u(eta xi^{-1}) g(xi) dxi over
    a kernel-centered grid: its nodes are xi = delta_a zeta for a graded
    zeta-box of half-widths (span/a)^{d_k}, so one zeta resolution serves
    every scale a, and the box covers any density supported in a euclidean
    box of size ~span around eta."""
    pa = _p_a(T, kernel, a)
    grid = box_grid(T.spec, span, count, grading=_grading_for(
        T.spec, span / a, count, center_spacing=6.0 / count))
    return _convolve_terms(T, pa, eta, grid, form="second")


def sconvolvability_witness(kernel: KernelSpec, phi, grid: Grid, radius=50.0,
                            n_dirs=8, n_radii=15):
    """Two numerical witnesses for S'-convolvability with P_a, a = 1.

    (a) (phi * P_a-check) omega_{Q+Gamma} has bounded invariant derivatives
        up to weight 2 over a doubling-stable sweep (membership in the
        bounded smooth class used against the representation);
    (b) for phi >= 0 with phi = 1 on the unit ball,
        phi * P_a-check >= c omega_{-Q-Gamma}: the measured ratio is
        bounded away from 0, stably.
    """
    spec, norm = kernel.spec, kernel.norm
    w_plus = weight_field(norm, float(spec.Q) + kernel.Gamma)
    w_minus = kernel.weight()
    pk_check = dilated_field(kernel, 1.0).negate_coords()

    def conv_phi(p):
        return convolve(spec, phi, pk_check, p, grid)

    def weighted(p):
        return conv_phi(p) * w_plus.eval(p)

    # the weight's bridge region holds the interior sup; sample it
    # identically at both radii so the doubling comparison only probes
    # the tail
    core = _sweep_points(norm, 4.0, n_dirs, 2 * n_radii)
    tails = [_sweep_points(norm, rad, n_dirs, n_radii)
             for rad in (radius, 2 * radius)]
    report = {"bounded_derivatives": {}, "ok_a": True, "ok_b": True}
    for alpha in words_upto_weight(spec, 2):
        word = OperatorWord(spec, "X", alpha)
        sups = [float(np.max(np.abs(word.apply(weighted, np.vstack(
            [core, pts]))))) for pts in tails]
        stable = all(np.isfinite(s) for s in sups) \
            and sups[1] <= 1.10 * sups[0]
        report["bounded_derivatives"][alpha] = {"sups": sups,
                                                "stable": stable}
        report["ok_a"] = report["ok_a"] and stable

    ratios = [float(np.min(conv_phi(pts) / w_minus.eval(pts)))
              for pts in tails]
    report["lower_bound_ratios"] = ratios
    report["ok_b"] = bool(ratios[0] > 1e-12 and
                          ratios[1] > 0.5 * ratios[0])
    report["ok"] = report["ok_a"] and report["ok_b"]
    return report


def extension_weighted_norm(T: DistributionRep, kernel: KernelSpec, a, iota,
                            outer_grid: Grid, inner_grid: Grid):
    """int |X^iota (T * P_a)| omega_{-Q-Gamma} dlambda over the outer grid,
    the derivative taken under the integral."""
    if sum(iota) > 2:
        raise ValueError("derivative weight capped at |iota| <= 2")
    w_minus = kernel.weight()
    vals = poisson_extend(T, kernel, a, outer_grid.points, inner_grid,
                          iota=iota)
    dens = np.abs(vals) * w_minus.eval(outer_grid.points)
    return float(np.sum(dens * outer_grid.weights))


def boundary_convergence(T: DistributionRep, kernel: KernelSpec,
                         phi: TestFunction, a_list, outer_grid: Grid,
                         inner_grid: Grid, kernel_mass=None, method="direct",
                         span=4.0, count=31):
    """Rows (a, <omega_{-mu}(T*P_a), phi>, <omega_{-mu}T, phi>, error);
    the limit is the pairing of T's mu = 0 representation, where the weight
    cancels exactly, the extension pairing by outer quadrature over the
    outer nodes where omega_{-mu} phi times the weight is nonzero: T * P_a
    is evaluated there alone (outer_nodes = [evaluated, total]), as every
    other term is an exact 0.  Reports the fitted slope of log error
    against log a and whether the error falls strictly as a shrinks
    (monotone); a repeated a is refused.  T * P_a tends to
    (int P) T: the limit takes kernel.mass unless kernel_mass is given."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    a_arr = np.array(a_list, dtype=float)
    if len(np.unique(a_arr)) < len(a_arr):
        raise ValueError(f"repeated scale in a_list {list(a_list)}")
    pts, w = outer_grid.flat_points, outer_grid.flat_weights
    q = weight_field(kernel.norm, -T.mu).eval(pts) * phi(pts)
    live = q * w != 0
    pts, q, w = pts[live], q[live], w[live]
    limit = (kernel.mass if kernel_mass is None else kernel_mass) \
        * pair(DistributionRep(T.spec, T.norm, T.Gamma, T.terms, mu=0.0),
               phi, inner_grid)
    rows = []
    for a in a_list:
        if method == "scaled":
            # kernel-centered chart: one graded zeta-grid resolves every a
            ext = poisson_extend_scaled(T, kernel, a, pts, span=span,
                                        count=count)
        else:
            ext = poisson_extend(T, kernel, a, pts, inner_grid)
        val = float(np.sum(ext * q * w))
        rows.append((float(a), val, limit, abs(val - limit)))
    errs = np.array([r[3] for r in rows])
    keep = errs > 0
    slope = float(np.polyfit(np.log(a_arr[keep]), np.log(errs[keep]), 1)[0]) \
        if keep.sum() >= 2 else float("nan")
    return {"rows": rows, "slope": slope,
            "monotone": bool(np.all(np.diff(errs[np.argsort(a_arr)]) > 0)),
            "outer_nodes": [int(live.sum()), int(live.size)]}
