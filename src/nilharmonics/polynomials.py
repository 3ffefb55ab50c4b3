"""Sparse multivariate polynomials and smooth profiles of polynomials.

Polynomials are stored as a map ``exponent multi-index -> coefficient`` over
the group coordinates.  Coefficients are kept as :class:`fractions.Fraction`
whenever possible so that all symbolic manipulations downstream (invariant
vector fields, basis conversions, kernel derivatives) stay exact; evaluation
converts to float and is vectorized over numpy arrays of points.

``SmoothField`` represents functions of the form ``sum_k P_k(theta) *
g^(k)(N(theta))`` with ``N`` a polynomial and ``g`` a smooth scalar profile.
This class is closed under polynomial-coefficient first-order differential
operators, which is what makes exact derivatives of kernels, gaussians and
bump functions available everywhere.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import sympy


def _as_coeff(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    return float(c)


class Polynomial:
    """Sparse polynomial in n variables, exact coefficient arithmetic."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs=None):
        self.n = n
        self.coeffs = {}
        if coeffs:
            for exps, c in coeffs.items():
                c = _as_coeff(c)
                if c != 0:
                    self.coeffs[tuple(exps)] = c

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def constant(cls, n, c):
        return cls(n, {(0,) * n: c})

    @classmethod
    def coordinate(cls, n, k):
        exps = [0] * n
        exps[k] = 1
        return cls(n, {tuple(exps): 1})

    def is_zero(self):
        return not self.coeffs

    def is_constant(self):
        return all(sum(e) == 0 for e in self.coeffs)

    def constant_term(self):
        return self.coeffs.get((0,) * self.n, Fraction(0))

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.n, other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return Polynomial(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.n, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, Polynomial)
                       else Polynomial.constant(self.n, -_as_coeff(other)))

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            other = _as_coeff(other)
            return Polynomial(self.n, {e: c * other for e, c in self.coeffs.items()})
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Polynomial(self.n, out)

    __rmul__ = __mul__

    def diff(self, k):
        out = {}
        for e, c in self.coeffs.items():
            if e[k] > 0:
                e2 = list(e)
                e2[k] -= 1
                out[tuple(e2)] = out.get(tuple(e2), 0) + c * e[k]
        return Polynomial(self.n, out)

    def eval(self, theta):
        """Evaluate at points; theta has shape (..., n)."""
        theta = np.asarray(theta, dtype=float)
        out = np.zeros(theta.shape[:-1])
        if not self.coeffs:
            return out
        # per-variable powers by repeated products (much cheaper than
        # generic ** on large arrays), shared across monomials; only the
        # powers some monomial uses are kept alive
        pows = {}
        for k, used in enumerate(map(set, zip(*self.coeffs))):
            x = theta[..., k]
            for p in range(1, max(used) + 1):
                power = x if p == 1 else power * x
                if p in used:
                    pows[k, p] = power
        for e, c in self.coeffs.items():
            term = None
            for k, p in enumerate(e):
                if p:
                    term = pows[k, p] if term is None else term * pows[k, p]
            out += float(c) if term is None else \
                term if c == 1 else float(c) * term
        return out

    def __call__(self, theta):
        return self.eval(theta)

    def dilate(self, a, weights):
        """Precompose with the dilation theta_k -> a^{d_k} theta_k."""
        out = {}
        for e, c in self.coeffs.items():
            w = sum(p * float(d) for p, d in zip(e, weights))
            out[e] = c * a ** w if w else c
        return Polynomial(self.n, out)

    def negate_coords(self):
        """Precompose with coordinate negation theta -> -theta."""
        out = {}
        for e, c in self.coeffs.items():
            out[e] = -c if sum(e) % 2 else c
        return Polynomial(self.n, out)

    def homogeneous_degrees(self, weights):
        """Set of homogeneous degrees d(alpha) present in the polynomial."""
        return {sum(Fraction(d) * p for d, p in zip(weights, e))
                for e in self.coeffs}

    def is_homogeneous(self, weights, degree):
        degs = self.homogeneous_degrees(weights)
        return degs <= {Fraction(degree)} or not degs

    def __repr__(self):
        if not self.coeffs:
            return "Polynomial(0)"
        parts = []
        for e, c in sorted(self.coeffs.items()):
            mono = "*".join(f"t{k}^{p}" for k, p in enumerate(e) if p)
            parts.append(f"{c}{'*' + mono if mono else ''}")
        return "Polynomial(" + " + ".join(parts) + ")"


class Profile:
    """Scalar profile g(u) with exact derivatives via sympy.

    A profile may be piecewise in u: each branch is evaluated only where
    its condition is the first to hold.  ``support_cap=c`` is shorthand
    for the branches (g, u < c), (0, True), which is how compactly
    supported bump profiles avoid overflow.
    """

    def __init__(self, expr, support_cap=None, name="profile"):
        u = sympy.Symbol("u")
        if callable(expr) and not isinstance(expr, sympy.Expr):
            expr = expr(u)
        self.u = u
        self.expr = sympy.sympify(expr)
        if support_cap is not None:
            self.expr = sympy.piecewise_fold(
                sympy.Piecewise((self.expr, u < support_cap), (0, True)))
        self.support_cap = support_cap
        self.name = name
        self._derivs = {}

    def deriv_fn(self, k):
        """The k-th derivative as a callable: a fresh float array of u's
        shape, 0 on points left to trailing zero branches."""
        if k not in self._derivs:
            pieces = [(sympy.diff(val, self.u, k), cond) for val, cond in (
                self.expr.args if isinstance(self.expr, sympy.Piecewise)
                else [(self.expr, sympy.true)])]
            while pieces and pieces[-1][0] == 0:
                pieces.pop()
            whole = len(pieces) == 1 and pieces[0][1] is sympy.true
            branches = [(None if val == 0 else
                         sympy.lambdify(self.u, val, modules="numpy"),
                         sympy.lambdify(self.u, cond, modules="numpy"))
                        for val, cond in pieces]

            def evaluate(u):
                u = np.asarray(u, dtype=float)
                if whole:
                    vals = np.asarray(branches[0][0](u), dtype=float)
                    return vals if vals.shape == u.shape and vals is not u \
                        else np.broadcast_to(vals, u.shape).copy()
                out, rest = np.zeros(u.shape), None
                for i, (val, cond) in enumerate(branches):
                    m = cond(u) if rest is None else rest & cond(u)
                    if val is not None:
                        out[m] = val(u[m])
                    if i + 1 < len(branches):
                        rest = ~m if rest is None else rest & ~m
                return out

            self._derivs[k] = evaluate
        return self._derivs[k]

    def eval_deriv(self, k, u):
        return self.deriv_fn(k)(u)


def gaussian_profile(scale=1.0, width=1.0):
    """g(u) = scale * exp(-u / (2 width^2)); pair with N = sum theta_k^2."""
    return Profile(lambda u: scale * sympy.exp(-u / (2 * width ** 2)),
                   name="gaussian")


def poly_bump_profile(scale=1.0, power=6):
    """g(u) = scale * (1-u)^power for u < 1, else 0.  Only C^{power-1} at
    the support edge, but without the steep boundary layer of the smooth
    bump exp(1/(u-1)) -- much friendlier to fixed-order quadrature."""
    return Profile(lambda u: scale * (1 - u) ** power, support_cap=1.0,
                   name=f"poly_bump({power})")


class SmoothField:
    """Function sum_k P_k(theta) * g^(k)(N(theta)), closed under fields."""

    __slots__ = ("base", "profile", "terms")

    def __init__(self, base: Polynomial, profile: Profile, terms=None):
        self.base = base
        self.profile = profile
        if terms is None:
            terms = {0: Polynomial.constant(base.n, 1)}
        self.terms = {k: p for k, p in terms.items() if not p.is_zero()}

    @property
    def n(self):
        return self.base.n

    def eval(self, theta):
        theta = np.asarray(theta, dtype=float)
        u = self.base.eval(theta)
        out = np.zeros(theta.shape[:-1])
        for k, poly in self.terms.items():
            out += (float(poly.constant_term()) if poly.is_constant()
                    else poly.eval(theta)) * self.profile.eval_deriv(k, u)
        return out

    def __call__(self, theta):
        return self.eval(theta)

    def support_box(self):
        """(lo, hi) arrays with the field 0 outside the coordinate box
        lo <= theta <= hi, or None when no box is known.

        Known for a capped profile over a base sum_k c_k theta_k^2 +
        b_k theta_k + d with every c_k > 0 and no cross term: every term
        P_k g^(k)(N) vanishes where N >= support_cap, and {N < cap} is the
        ellipsoid sum_k c_k (theta_k - s_k)^2 < R with s_k = -b_k / 2c_k.
        R is widened by 1e-9 of the size of the base's terms there, far
        above the rounding of N, so a point that evaluates nonzero in
        floating point never falls outside."""
        cap = self.profile.support_cap
        if cap is None:
            return None
        quad, lin, const = np.zeros(self.n), np.zeros(self.n), 0.0
        for e, c in self.base.coeffs.items():
            used = [k for k, p in enumerate(e) if p]
            if not used:
                const = float(c)
            elif len(used) > 1 or e[used[0]] > 2:
                return None
            else:
                (quad if e[used[0]] == 2 else lin)[used[0]] = float(c)
        if np.any(quad <= 0):
            return None
        center = -lin / (2 * quad)
        completed = float(np.sum(lin ** 2 / (4 * quad)))
        cap = float(cap)
        radius2 = cap - const + completed \
            + 1e-9 * (abs(cap) + abs(const) + completed)
        half = np.sqrt(max(radius2, 0.0) / quad)
        return center - half, center + half

    def diff(self, j):
        """Euclidean partial derivative d/dtheta_j, exact."""
        dN = self.base.diff(j)
        out = {}
        for k, poly in self.terms.items():
            dp = poly.diff(j)
            if not dp.is_zero():
                out[k] = out.get(k, Polynomial.zero(self.n)) + dp
            chain = poly * dN
            if not chain.is_zero():
                out[k + 1] = out.get(k + 1, Polynomial.zero(self.n)) + chain
        return SmoothField(self.base, self.profile, out)

    def __add__(self, other):
        if not (other.base.coeffs == self.base.coeffs
                and other.profile is self.profile):
            raise ValueError("can only add fields sharing base and profile")
        out = dict(self.terms)
        for k, p in other.terms.items():
            out[k] = out.get(k, Polynomial.zero(self.n)) + p
        return SmoothField(self.base, self.profile, out)

    def __mul__(self, other):
        """The field times a Polynomial or a scalar."""
        return SmoothField(self.base, self.profile,
                           {k: other * p for k, p in self.terms.items()})

    def negate_coords(self):
        """The check map: f -> f(-theta) (group inverse in exp coordinates)."""
        return SmoothField(self.base.negate_coords(), self.profile,
                           {k: p.negate_coords() for k, p in self.terms.items()})

    def dilate_arg(self, a, weights):
        """Precompose with delta_a: returns theta -> f(delta_a theta)."""
        return SmoothField(self.base.dilate(a, weights), self.profile,
                           {k: p.dilate(a, weights) for k, p in self.terms.items()})
