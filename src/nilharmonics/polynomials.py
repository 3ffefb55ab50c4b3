"""Sparse multivariate polynomials and smooth profiles of polynomials.

Polynomials are stored as a map ``exponent multi-index -> coefficient`` over
the group coordinates.  Coefficients are kept as :class:`fractions.Fraction`
whenever possible so that all symbolic manipulations downstream (invariant
vector fields, basis conversions, kernel derivatives) stay exact; evaluation
converts them to float and is nested Horner over numpy arrays of points,
one coordinate at a time.

``SmoothField`` represents functions of the form ``sum_k P_k(theta) *
g^(k)(N(theta))`` with ``N`` a polynomial and ``g`` a smooth scalar profile.
This class is closed under polynomial-coefficient first-order differential
operators, which is what makes exact derivatives of kernels, gaussians and
bump functions available everywhere.  The derivatives g^(k) come from one
truncated Taylor series (``Jet``) of g per evaluation.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


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
            return Polynomial(self.n, {e: c * other
                                       for e, c in self.coeffs.items()})
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
        """Evaluate at points; theta has shape (..., n): nested Horner."""
        theta = np.asarray(theta, dtype=float)
        val = _horner({e: float(c) for e, c in self.coeffs.items()},
                      [theta[..., k] for k in range(self.n)])
        return np.full(theta.shape[:-1], val) if np.ndim(val) == 0 else val

    def __call__(self, theta):
        return self.eval(theta)

    def rescale(self, s):
        """Precompose with theta_k -> s_k theta_k (delta_a for s_k = a^{d_k},
        the check map for s = -1), exactly where every s_k is an integer."""
        s = [int(v) if float(v).is_integer() else float(v)
             for v in np.broadcast_to(s, self.n)]
        return Polynomial(self.n, {e: c * math.prod(map(pow, s, e))
                                   for e, c in self.coeffs.items()})

    def is_homogeneous(self, weights, degree):
        """Every monomial theta^e has homogeneous degree d(e) = degree."""
        return all(sum(Fraction(d) * p for d, p in zip(weights, e))
                   == Fraction(degree) for e in self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "Polynomial(0)"
        parts = []
        for e, c in sorted(self.coeffs.items()):
            mono = "*".join(f"t{k}^{p}" for k, p in enumerate(e) if p)
            parts.append(f"{c}{'*' + mono if mono else ''}")
        return "Polynomial(" + " + ".join(parts) + ")"


def _horner(coeffs, xs):
    """sum of c x_0^e_0 x_1^e_1 ... over the items (e, c) of coeffs:
    Horner in x_0 over coefficients nested the same way in x_1, ...; a
    float where constant, else an array of its own, updated in place."""
    if not any(map(any, coeffs)):
        return sum(coeffs.values(), 0.0)
    rows = {}
    for e, c in coeffs.items():
        rows.setdefault(e[0], {})[e[1:]] = c
    acc = _horner(rows[max(rows)], xs[1:])
    for p in range(max(rows) - 1, -1, -1):
        acc = np.multiply(acc, xs[0], out=acc if isinstance(
            acc, np.ndarray) else None)
        if p in rows:
            acc += _horner(rows[p], xs[1:])
    return acc


def _zero(a):
    """A float zero: a coefficient that products skip."""
    return not isinstance(a, np.ndarray) and a == 0


def _series(terms):
    """Sum of the products a * b over the (a, b) terms in order, skipping
    every term with a float zero factor; 0.0 when no term is left."""
    total = None
    for a, b in terms:
        if not (_zero(a) or _zero(b)):
            if total is None:
                total = a * b
            else:
                total += a * b  # total is a fresh product: no operand
    return 0.0 if total is None else total


class Jet:
    """Truncated Taylor series of g at the points u: coefficient j is
    g^(j)(u) / j!, an array of u's shape or a float where it is constant.

    Closed under +, -, * and exp, and under real powers through
    n f_0 h_n = sum_j (pj - (n - j)) f_j h_{n-j} (Griewank and Walther,
    Evaluating Derivatives, 2nd ed., SIAM 2008, ch. 13), which divides by
    f_0: a real power acts only where the base stays away from 0."""

    __slots__ = ("c",)

    def __init__(self, coeffs):
        self.c = list(coeffs)

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(a + b for a, b in zip(self.c, other.c))
        return Jet([self.c[0] + other, *self.c[1:]])

    __radd__ = __add__

    def __sub__(self, other):
        return self + other * -1

    def __rsub__(self, other):
        return Jet([other - self.c[0], *(-a for a in self.c[1:])])

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return self if other == 1 else Jet(a * other for a in self.c)
        f, g = self.c, other.c
        return Jet(_series((f[j], g[n - j]) for j in range(n + 1))
                   for n in range(len(f)))

    __rmul__ = __mul__

    def exp(self):
        f, h = self.c, [np.exp(self.c[0])]
        for n in range(1, len(f)):
            h.append(_series((j / n * f[j], h[n - j])
                             for j in range(1, n + 1)))
        return Jet(h)

    def __pow__(self, p):
        f = self.c
        if len(f) == 1:
            return Jet([f[0] ** p])
        # q[m] = h_m / f_0: h_1 = p f_1 f_0^(p-1) needs no division, and
        # h_0 = q_0 f_0 is formed last, in the array of q_0
        q, h = [f[0] ** (p - 1)], [None]
        for n in range(1, len(f)):
            h.append(_series(((p * j - (n - j)) / n * f[j], q[n - j])
                             for j in range(1, n + 1)))
            if n + 1 < len(f):
                q.append(h[n] if _zero(h[n]) else h[n] / f[0])
        q[0] *= f[0]
        h[0] = q[0]
        return Jet(h)


class Profile:
    """Scalar profile g(u) with exact derivatives from one jet.

    ``branches`` is a function of the jet of u, or a list of (function,
    condition) pairs: each function runs only on the points where its
    condition, a boolean function of u (None: every point left), is the
    first to hold, and the profile is 0 where none holds.  ``support_cap=c``
    makes the profile 0 at u >= c, where no branch runs.  ``expr`` is the
    branch tuple."""

    def __init__(self, branches, support_cap=None, name="profile"):
        self.expr = tuple(branches) if isinstance(branches, list) \
            else ((branches, None),)
        self.support_cap = support_cap
        self.name = name

    def deriv_fn(self, k):
        """u -> [g(u), g'(u), ..., g^(k)(u)], all from one jet of order k:
        fresh float arrays of u's shape."""
        def evaluate(u):
            u = np.asarray(u, dtype=float)
            out = [None] * (k + 1)
            # ... indexes every point, as a view
            rest = ... if self.support_cap is None else u < self.support_cap
            for fn, cond in self.expr:
                m = rest if cond is None else cond(u) if rest is ... \
                    else rest & cond(u)
                jet = fn(Jet([u[m], 1.0, *[0.0] * k][:k + 1]))
                for j, c in enumerate(jet.c if isinstance(jet, Jet)
                                      else [jet]):
                    if _zero(c):
                        continue
                    c = c * math.factorial(j) if j > 1 else c
                    if m is ... and isinstance(c, np.ndarray) \
                            and c.base is None:  # a fresh array of u's shape
                        out[j] = c
                        continue
                    if out[j] is None:
                        out[j] = np.zeros(u.shape)
                    out[j][m] = c
                if cond is None:
                    break
                rest = ~m if rest is ... else rest & ~m
            return [np.zeros(u.shape) if d is None else d for d in out]

        return evaluate

    def eval_deriv(self, k, u):
        return self.deriv_fn(k)(u)


def gaussian_profile(scale=1.0, width=1.0):
    """g(u) = scale * exp(-u / (2 width^2)); pair with N = sum theta_k^2."""
    return Profile(lambda u: scale * (u * (-0.5 / width ** 2)).exp(),
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
        derivs = self.profile.eval_deriv(max(self.terms, default=0), u)
        out = None  # the first product is fresh: the sum owns it
        for k, poly in self.terms.items():
            term = (float(poly.constant_term()) if poly.is_constant()
                    else poly.eval(theta)) * derivs[k]
            if out is None:
                out = term
            else:
                out += term
        return np.zeros(theta.shape[:-1]) if out is None else np.asarray(out)

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

    def rescale(self, s):
        """theta -> f(s_1 theta_1, ..., s_n theta_n), as Polynomial.rescale."""
        return SmoothField(self.base.rescale(s), self.profile,
                           {k: p.rescale(s) for k, p in self.terms.items()})

    def negate_coords(self):
        """The check map: f -> f(-theta) (group inverse in exp coordinates)."""
        return self.rescale(-1)
