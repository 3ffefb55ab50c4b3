"""Invariant vector fields and their compositions.

Left-invariant fields X_j and right-invariant fields Y_j are first-order
operators with exact polynomial coefficients read off the group law.  Words
compose them in two canonical orders,

    X^alpha = X_1^{a_1} ... X_n^{a_n},   tilde = full reversal,

and likewise for Y.  Words act exactly on Polynomial / SmoothField operands
and by nested 4th-order central finite differences on plain callables.

The module also builds the conversion tables rewriting a reversed right
word in the left basis, tilde-Y^alpha = sum_beta Q_{alpha,beta} X^beta with
homogeneous polynomial coefficients, and evaluates the reconstruction
identity expressing tilde-X^alpha through the table's Taylor data at the
identity.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from .group_core import GroupSpec
from .polynomials import Polynomial, SmoothField
from .quadrature import _evaluate, convolve


def central_difference(g, h, order):
    """4th-order central difference at 0 of the derivative of the given
    order (1 or 2), where g(m) is the value at offset m * h."""
    if order == 1:
        return (-g(2) + 8 * g(1) - 8 * g(-1) + g(-2)) / (12 * h)
    if order == 2:
        return (-g(2) + 16 * g(1) - 30 * g(0) + 16 * g(-1)
                - g(-2)) / (12 * h ** 2)
    raise ValueError("the 4th-order stencil has derivative order 1 or 2")


class InvariantField:
    """First-order operator sum_k p_k(theta) d/dtheta_k, where p_k is read
    off the group law: left fields differentiate theta -> theta . s e_j at
    s = 0, right fields theta -> s e_j . theta."""

    def __init__(self, spec: GroupSpec, side, j):
        if not 0 <= j < spec.n:
            raise ValueError("field index out of range")
        self.spec = spec
        n = spec.n
        coeffs = [Polynomial.zero(n) for _ in range(n)]
        coeffs[j] = Polynomial.constant(n, 1)
        ej = tuple(int(m == j) for m in range(n))
        for (k, alpha, beta), c in spec.structure:
            if side == "left" and beta == ej:
                coeffs[k] = coeffs[k] + Polynomial(n, {alpha: c})
            elif side == "right" and alpha == ej:
                coeffs[k] = coeffs[k] + Polynomial(n, {beta: c})
            elif side not in ("left", "right"):
                raise ValueError(f"unknown side {side!r}")
        self.coeffs = coeffs

    def apply_symbolic(self, f):
        """Exact application to a Polynomial or SmoothField."""
        out = None
        for k, p in enumerate(self.coeffs):
            if p.is_zero():
                continue
            term = f.diff(k) * p
            out = term if out is None else out + term
        return f * 0 if out is None else out

    def apply_fd(self, f):
        """Wrap a callable on (..., n) arrays into its derivative under the
        field, via 4th-order central differences with step
        h = 1e-3 (1 + euclidean |eta|).

        f is called once per evaluation, on the stencil points of all K
        nonzero coefficients together: an array of shape
        (K, 4, ...eta.shape[:-1], n), so it must accept (..., n) arrays.
        Nested words thus call their innermost operand once."""
        coeffs = [(k, p) for k, p in enumerate(self.coeffs) if not p.is_zero()]
        units = np.eye(self.spec.n)[[k for k, _ in coeffs]]
        offsets = (2, 1, -1, -2)

        def out(eta):
            eta = np.asarray(eta, dtype=float)
            h = 1e-3 * (1.0 + np.sqrt(np.sum(eta ** 2, axis=-1)))
            batch = (1,) * (eta.ndim - 1)
            steps = h[..., None] * units.reshape((-1,) + batch
                                                 + (self.spec.n,))
            ms = np.reshape(offsets, (1, 4) + batch + (1,))
            vals = f(eta + ms * steps[:, None])
            d = central_difference(lambda m: vals[:, offsets.index(m)], h, 1)
            total = np.zeros(eta.shape[:-1])
            for (_, p), d_k in zip(coeffs, d):
                total = total + p.eval(eta) * d_k
            if not np.all(np.isfinite(total)):
                raise ValueError("non-finite values in derivative stencil")
            return total

        return out


@lru_cache(maxsize=1024)
def build_field(spec: GroupSpec, side, j):
    """The field, shared by every spec equal to this one."""
    return InvariantField(spec, side, j)


class OperatorWord:
    """Ordered composition of invariant fields for a multi-index alpha.

    kind: 'X' (left, ascending), 'Xt' (left, descending), 'Y' (right,
    ascending), 'Yt' (right, descending).  Applying [F1, F2, ...] means
    F1(F2(... f)).
    """

    def __init__(self, spec: GroupSpec, kind, alpha):
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != spec.n or any(a < 0 for a in alpha):
            raise ValueError("invalid multi-index")
        side = "left" if kind in ("X", "Xt") else "right"
        if kind not in ("X", "Xt", "Y", "Yt"):
            raise ValueError(f"unknown word kind {kind!r}")
        order = range(spec.n) if kind in ("X", "Y") else \
            range(spec.n - 1, -1, -1)
        self.spec, self.kind, self.alpha = spec, kind, alpha
        self.fields = [build_field(spec, side, j)
                       for j in order for _ in range(alpha[j])]

    def apply_symbolic(self, f):
        for field in reversed(self.fields):
            f = field.apply_symbolic(f)
        return f

    def as_callable(self, f):
        """The word applied to f as a callable: exact when f is a
        Polynomial or a SmoothField, nested finite differences otherwise."""
        if isinstance(f, (Polynomial, SmoothField)):
            return self.apply_symbolic(f)
        for field in reversed(self.fields):
            f = field.apply_fd(f)
        return f

    def apply(self, f, eta):
        """Evaluate (word f)(eta)."""
        return self.as_callable(f)(np.asarray(eta, dtype=float))


def leibniz_tilde_coeff(beta, iota):
    """Coefficient of (word on beta-iota) x (word on iota) in the expansion
    of a descending-order word applied to a product.  Because the word
    lists all copies of each generator adjacently, the split inside each
    block is a classical binomial even though distinct generators do not
    commute."""
    c = 1
    for b, i in zip(beta, iota):
        if i > b:
            return 0
        c *= comb(b, i)
    return c


def multi_indices_upto(n, max_len):
    """All alpha with |alpha| <= max_len."""
    out = [(0,) * n]
    frontier = [(0,) * n]
    for _ in range(max_len):
        nxt = []
        for a in frontier:
            for j in range(n):
                b = tuple(v + int(m == j) for m, v in enumerate(a))
                if b not in nxt:
                    nxt.append(b)
        out.extend(b for b in nxt if b not in out)
        frontier = nxt
    return out


def words_upto_weight(spec: GroupSpec, w):
    """All alpha with homogeneous weight d(alpha) <= w, in the order of
    multi_indices_upto; every dilation weight is >= 1, so |alpha| <= w."""
    return [a for a in multi_indices_upto(spec.n, int(w))
            if spec.mdeg(a) <= w]


def sub_multi_indices(alpha):
    """All beta <= alpha componentwise, in the order of multi_indices_upto."""
    return [b for b in multi_indices_upto(len(alpha), sum(alpha))
            if all(x <= a for x, a in zip(b, alpha))]


# -- Euclidean-operator expansion and conversion tables ---------------------

def euclidean_expansion(w: OperatorWord):
    """The word as sum_gamma q_gamma(theta) d^gamma with polynomial
    coefficients; gamma are Euclidean derivative multi-indices."""
    n = w.spec.n
    op = {(0,) * n: Polynomial.constant(n, 1)}
    for field in w.fields[::-1]:
        new = {}

        def add(gamma, poly):
            if gamma in new:
                new[gamma] = new[gamma] + poly
            else:
                new[gamma] = poly

        for gamma, q in op.items():
            for k, p in enumerate(field.coeffs):
                if p.is_zero():
                    continue
                dq = q.diff(k)
                if not dq.is_zero():
                    add(gamma, p * dq)
                up = tuple(v + int(m == k) for m, v in enumerate(gamma))
                add(up, p * q)
        op = {g: q for g, q in new.items() if not q.is_zero()}
    return op


class ConversionTable:
    """Rewrite of tilde-Y^alpha in the left basis:
    tilde-Y^alpha = sum_{beta in I_alpha} Q[beta] X^beta, where
    I_alpha = {beta : |beta| <= |alpha|, d(beta) >= d(alpha)} and Q[beta]
    is homogeneous of homogeneous degree d(beta) - d(alpha)."""

    def __init__(self, spec, table):
        self.spec, self.table = spec, table

    def apply_symbolic(self, f):
        out = None
        for beta, q in self.table.items():
            term = OperatorWord(self.spec, "X", beta).apply_symbolic(f) * q
            out = term if out is None else out + term
        return out


def build_conversion(spec: GroupSpec, alpha):
    """The conversion table of tilde-Y^alpha, |alpha| <= 3, shared by every
    spec equal to this one."""
    alpha = tuple(int(a) for a in alpha)
    if sum(alpha) > 3:
        raise ValueError("conversion tables are built for |alpha| <= 3")
    return _conversion_table(spec, alpha)


@lru_cache(maxsize=256)
def _conversion_table(spec, alpha):
    """Triangular elimination of the Euclidean expansion of tilde-Y^alpha
    against the expansions of the X^beta, in the order (weight ascending,
    length descending): subtracting q_gamma X^gamma only reintroduces terms
    strictly later in that order, so the sweep terminates.  Every table is
    checked against the class docstring: beta in I_alpha, Q[beta]
    homogeneous of degree d(beta) - d(alpha)."""
    remainder = euclidean_expansion(OperatorWord(spec, "Yt", alpha))
    table = {}
    guard = 0
    while remainder:
        gamma = min(remainder,
                    key=lambda g: (spec.mdeg(g), -sum(g), g))
        q = remainder[gamma]
        table[gamma] = table.get(gamma, Polynomial.zero(spec.n)) + q
        x_exp = euclidean_expansion(OperatorWord(spec, "X", gamma))
        for g2, q2 in x_exp.items():
            cur = remainder.get(g2, Polynomial.zero(spec.n)) - q * q2
            if cur.is_zero():
                remainder.pop(g2, None)
            else:
                remainder[g2] = cur
        guard += 1
        if guard > 10000:
            raise RuntimeError("basis rewriting failed to terminate")
    d_alpha, l_alpha = spec.mdeg(alpha), sum(alpha)
    for beta, q in table.items():
        if sum(beta) > l_alpha or spec.mdeg(beta) < d_alpha:
            raise RuntimeError("conversion left the expected index set")
        if not q.is_homogeneous(spec.weights, spec.mdeg(beta) - d_alpha):
            raise RuntimeError("conversion coefficient is not homogeneous")
    return ConversionTable(spec, table)


# -- identity residuals -----------------------------------------------------

def conversion_residual(spec, alpha):
    """Max coefficient residual of (tilde-Y^alpha - sum Q X^beta) applied to
    all monomials of length <= d(alpha) + 2 (exact rational arithmetic)."""
    table = build_conversion(spec, alpha)
    worst = Fraction(0)
    for gamma in multi_indices_upto(spec.n, sum(alpha) + 2):
        mono = Polynomial(spec.n, {gamma: 1})
        lhs = OperatorWord(spec, "Yt", alpha).apply_symbolic(mono)
        rhs = table.apply_symbolic(mono)
        diff = lhs - rhs
        for c in diff.coeffs.values():
            worst = max(worst, abs(Fraction(c)))
    return float(worst)


def fundlink_constants(spec, alpha):
    """For each beta in the conversion index set and iota <= beta, the
    constant  lambda(beta, iota) * (tilde-X^{beta-iota} Q[beta])(0); these
    reconstruct tilde-X^alpha from the words tilde-X^iota."""
    table = build_conversion(spec, alpha)
    out = {}
    for beta, q in table.table.items():
        for iota in sub_multi_indices(beta):
            lam = leibniz_tilde_coeff(beta, iota)
            if lam == 0:
                continue
            diff = tuple(b - i for b, i in zip(beta, iota))
            val = OperatorWord(spec, "Xt", diff).apply_symbolic(q)
            c0 = val.constant_term()
            if c0 == 0:
                continue
            sign = (-1) ** sum(beta)
            out[(beta, iota)] = sign * lam * Fraction(c0)
    return out


def fundlink_residual(spec, alpha, test_functions, etas):
    """Max residual of
    tilde-X^alpha f = (-1)^{|alpha|} sum_{beta,iota} (+-) lambda
    (tilde-X^{beta-iota} Q[beta])(0) tilde-X^iota f over the supplied test
    functions at the points etas (exact on polynomials)."""
    consts = fundlink_constants(spec, alpha)
    sign_a = (-1) ** sum(alpha)
    etas = np.asarray(etas, dtype=float)
    worst = 0.0
    for f in test_functions:
        lhs = OperatorWord(spec, "Xt", alpha).apply(f, etas)
        rhs = np.zeros(np.shape(lhs))
        by_iota = {}
        for (beta, iota), c in consts.items():
            by_iota[iota] = by_iota.get(iota, Fraction(0)) + c
        for iota, c in by_iota.items():
            if c == 0:
                continue
            rhs = rhs + float(c) * OperatorWord(spec, "Xt", iota).apply(f,
                                                                        etas)
        worst = max(worst, float(np.max(np.abs(lhs - sign_a * rhs))))
    return worst


def integrate_by_parts_residual(spec, kind, alpha, f, g, grid):
    """|int (W^alpha f) g - (-1)^{|alpha|} int f (W-tilde^alpha g)| for the
    dual pairs (X, Xt) and (Y, Yt); f, g supported inside the grid."""
    pairs = {"X": "Xt", "Xt": "X", "Y": "Yt", "Yt": "Y"}
    wf = OperatorWord(spec, kind, alpha)
    wg = OperatorWord(spec, pairs[kind], alpha)
    sgn = (-1) ** sum(alpha)
    lhs = np.sum(wf.apply(f, grid.points) * _evaluate(g, grid.points)
                 * grid.weights)
    rhs = sgn * np.sum(_evaluate(f, grid.points) * wg.apply(g, grid.points)
                       * grid.weights)
    return float(abs(lhs - rhs))


def convolution_identity_residuals(spec, alpha, f, g, grid, etas):
    """Residuals of the four derivative-of-convolution identities
        X^a (f*g) = f * (X^a g),      Y^a (f*g) = (Y^a f) * g,
        (X^a f) * g = f * (Yt^a g),   (Xt^a f) * g = f * (Y^a g),
    evaluated at the points etas."""
    etas = np.asarray(etas, dtype=float)

    def conv(a, b):
        return lambda e: convolve(spec, a, b, e, grid)

    def word_of(kind, h):
        return OperatorWord(spec, kind, alpha).as_callable(h)

    fg = conv(f, g)
    res = {}
    res["X(f*g)=f*Xg"] = np.max(np.abs(
        OperatorWord(spec, "X", alpha).as_callable(fg)(etas)
        - conv(f, word_of("X", g))(etas)))
    res["Y(f*g)=Yf*g"] = np.max(np.abs(
        OperatorWord(spec, "Y", alpha).as_callable(fg)(etas)
        - conv(word_of("Y", f), g)(etas)))
    res["Xf*g=f*Ytg"] = np.max(np.abs(
        conv(word_of("X", f), g)(etas) - conv(f, word_of("Yt", g))(etas)))
    res["Xtf*g=f*Yg"] = np.max(np.abs(
        conv(word_of("Xt", f), g)(etas) - conv(f, word_of("Y", g))(etas)))
    return {k: float(v) for k, v in res.items()}
