"""Homogeneous Lie groups in exponential coordinates of the first kind.

A group is described by its dilation weights and the structure constants of
its polynomial group law; elements are plain numpy coordinate vectors (an
array of shape ``(..., n)`` is a batch of elements; products come back
coordinate-major).  Coordinates are exponential, so eta^{-1} = -eta in
``GroupSpec.inverse``, which every inverse and distance |x^{-1} y| goes
through; dilations scale coordinate ``k`` by ``a**d_k``.

The module also provides homogeneous norms (a default even-power gauge for
any group, the Koranyi gauge on the Heisenberg group) and the smooth weights
``omega_mu``, exact SmoothFields over the gauge polynomial whose profile is
glued from 2^mu and (1 + |eta|)^mu by a fixed quintic bridge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .polynomials import Polynomial, Profile, SmoothField


def tensor_grid(axes):
    """All points of the tensor product of 1-D axes, shape (*lens, n),
    coordinate-major like products (each [..., k] contiguous)."""
    return np.moveaxis(np.array(np.meshgrid(*axes, indexing="ij")), 0, -1)


@dataclass(frozen=True)
class GroupSpec:
    """Dilation weights plus structure constants of the group law.

    ``structure`` maps ``(k, alpha, beta)`` (k a 0-based coordinate index,
    alpha/beta nonzero exponent multi-indices) to the coefficient of
    ``theta^alpha(eta) * theta^beta(xi)`` in coordinate k of the product.
    """

    name: str
    weights: tuple  # of Fraction, nondecreasing, weights[0] == 1
    structure: tuple = ()  # ((k, alpha, beta), Fraction) pairs, sorted

    def __post_init__(self):
        w = tuple(Fraction(d) for d in self.weights)
        object.__setattr__(self, "weights", w)
        if not w or w[0] != 1:
            raise ValueError("smallest dilation weight must be 1")
        if any(a > b for a, b in zip(w, w[1:])):
            raise ValueError("weights must be nondecreasing")
        struct = []
        for (k, alpha, beta), c in (self.structure.items()
                                    if isinstance(self.structure, dict)
                                    else self.structure):
            alpha, beta = tuple(alpha), tuple(beta)
            if not (float(k).is_integer() and 0 <= k < self.n):
                raise ValueError(f"no coordinate {k} in dimension {self.n}")
            k = int(k)
            if len(alpha) != self.n or len(beta) != self.n:
                raise ValueError("multi-index length mismatch")
            if any(p < 0 or not float(p).is_integer() for p in alpha + beta):
                raise ValueError("exponents must be nonnegative integers")
            if sum(alpha) == 0 or sum(beta) == 0:
                raise ValueError("structure multi-indices must be nonzero")
            da, db = self.mdeg(alpha), self.mdeg(beta)
            if da + db != w[k]:
                raise ValueError(
                    f"structure constant at level {k} violates homogeneity: "
                    f"d(alpha)+d(beta)={da + db} != d_k={w[k]}")
            for j in range(self.n):
                if (alpha[j] or beta[j]) and w[j] >= w[k]:
                    raise ValueError("group law at level k may only involve "
                                     "strictly lower layers")
            struct.append(((k, alpha, beta), Fraction(c)))
        struct.sort(key=lambda item: (w[item[0][0]], item[0]))
        object.__setattr__(self, "structure", tuple(struct))
        # the law compiled once for multiply: float coefficient and the
        # nonzero (coordinate, power) factors of eta and of xi; not a
        # field, so eq, hash, repr and to_json see only the exact form
        object.__setattr__(self, "_law", tuple(
            (k, float(c), tuple((j, p) for j, p in enumerate(alpha) if p),
             tuple((j, p) for j, p in enumerate(beta) if p))
            for (k, alpha, beta), c in struct))
        # homogeneous dimension, exact; also not a field
        object.__setattr__(self, "Q", sum(w, Fraction(0)))
        # the weights as floats, the exponents of every dilation
        object.__setattr__(self, "_d", np.array([float(d) for d in w]))

    @property
    def n(self):
        return len(self.weights)

    @property
    def layer1(self):
        """Indices of the weight-1 coordinates, where the product is plain
        addition: a structure term there would need two multi-indices of
        weight >= 1 summing to 1."""
        return [k for k, d in enumerate(self.weights) if d == 1]

    def mdeg(self, alpha):
        """Homogeneous weight d(alpha) of a multi-index."""
        return sum(Fraction(d) * a for d, a in zip(self.weights, alpha))

    # -- group operations ---------------------------------------------------

    def multiply(self, eta, xi):
        """eta . xi, fresh, coordinate-major (each out[..., k] contiguous)."""
        eta = np.asarray(eta, dtype=float)
        xi = np.asarray(xi, dtype=float)
        if eta.shape[-1] != self.n or xi.shape[-1] != self.n:
            raise ValueError(f"expected coordinate vectors of length {self.n}")
        out = np.moveaxis(np.empty((self.n,) + np.broadcast_shapes(
            eta.shape[:-1], xi.shape[:-1])), 0, -1)
        for k in range(self.n):  # the in-place adds never reach eta, xi
            np.add(eta[..., k], xi[..., k], out=out[..., k])
        for k, term, eta_pows, xi_pows in self._law:
            # alpha and beta are both nonzero, so term spans the batch
            # shape of out
            for x, pows in ((eta, eta_pows), (xi, xi_pows)):
                for j, p in pows:
                    term = term * (x[..., j] if p == 1 else x[..., j] ** p)
            out[..., k] += term
        return out

    def inverse(self, eta):
        """eta^{-1} = -eta in exponential coordinates."""
        eta = np.asarray(eta, dtype=float)
        if eta.shape[-1] != self.n:
            raise ValueError(f"expected coordinate vectors of length {self.n}")
        return -eta

    def dilate(self, a, eta):
        """delta_a eta, coordinate k scaled by a**d_k: a is one scale, or
        one scale per point broadcast against the batch shape of eta."""
        a = np.asarray(a, dtype=float)
        if np.any(a <= 0):
            raise ValueError("dilation parameter must be positive")
        return np.asarray(eta, dtype=float) * a[..., None] ** self._d

    def identity(self):
        return np.zeros(self.n)

    # -- serialization ------------------------------------------------------

    def to_json(self):
        return {
            "name": self.name,
            "n": self.n,
            "weights": [str(d) for d in self.weights],
            "structure": [{"k": k, "alpha": list(a), "beta": list(b),
                           "c": str(c)}
                          for (k, a, b), c in self.structure],
        }

    @classmethod
    def from_json(cls, data):
        if not isinstance(data["weights"], list) or data.get(
                "n", len(data["weights"])) != len(data["weights"]):
            raise ValueError("weights must be a list of n fraction strings")
        weights = tuple(Fraction(w) for w in data["weights"])
        structure = [((float(s["k"]), tuple(s["alpha"]), tuple(s["beta"])),
                      Fraction(s["c"])) for s in data.get("structure", [])]
        return cls(name=data.get("name", "unnamed"), weights=weights,
                   structure=structure)


# -- builders ---------------------------------------------------------------

def abelian(n):
    return GroupSpec(name=f"abelian_R{n}", weights=(Fraction(1),) * n)


def heisenberg():
    """The 3-dimensional Heisenberg group, weights (1, 1, 2), bracket
    normalized so that theta_3(eta.xi) picks up (x y' - y x')/2."""
    e1, e2 = (1, 0, 0), (0, 1, 0)
    structure = [((2, e1, e2), Fraction(1, 2)), ((2, e2, e1), Fraction(-1, 2))]
    return GroupSpec(name="heisenberg", weights=(1, 1, 2), structure=structure)


def random_step2(n1, n2, seed):
    """Random step-2 group: n1 weight-1 coordinates, n2 weight-2 coordinates,
    antisymmetric rational structure constants in [-1, 1]."""
    rng = np.random.default_rng(seed)
    n = n1 + n2
    weights = (1,) * n1 + (2,) * n2
    structure = []
    for k in range(n1, n):
        for i in range(n1):
            for j in range(i + 1, n1):
                c = Fraction(int(rng.integers(-100, 101)), 100)
                if c == 0:
                    continue
                ei = tuple(1 if m == i else 0 for m in range(n))
                ej = tuple(1 if m == j else 0 for m in range(n))
                structure.append(((k, ei, ej), c / 2))
                structure.append(((k, ej, ei), -c / 2))
    return GroupSpec(name=f"step2_{n1}_{n2}_seed{seed}",
                     weights=weights, structure=structure)


# -- homogeneous norms ------------------------------------------------------

class HomogeneousNorm:
    """Homogeneous gauge |eta| = N(eta)^(1/2M), N one stored polynomial.

    The default 'even-power' variant has N = sum_k theta_k^(2M/d_k) with
    M cleared so every exponent is an even integer; 'koranyi' is the
    classical gauge on the Heisenberg group, N = (x^2+y^2)^2 + 16 t^2.
    """

    def __init__(self, spec: GroupSpec, variant="even-power"):
        self.spec = spec
        n = spec.n
        if variant == "koranyi":
            if tuple(spec.weights) != (1, 1, 2):
                raise ValueError("koranyi variant requires Heisenberg weights")
            self.M = 2
            x, y, t = (Polynomial.coordinate(3, k) for k in range(3))
            self._N = (x * x + y * y) * (x * x + y * y) + 16 * (t * t)
            self._kappa = 8.0 / math.pi ** 2
        elif variant == "even-power":
            # choose M so that 2M/d_k is an even integer for every k
            self.M = math.lcm(*(d.numerator for d in spec.weights))
            powers = [Fraction(2 * self.M) / d for d in spec.weights]
            assert all(p.denominator == 1 and p.numerator % 2 == 0
                       for p in powers)
            self._N = Polynomial(n, {
                tuple(p.numerator * int(j == k) for j in range(n)): 1
                for k, p in enumerate(powers)})
            vol = 2.0 ** n / math.gamma(1.0 + float(spec.Q / (2 * self.M)))
            for p in powers:
                vol *= math.gamma(1.0 + 1.0 / p.numerator)
            self._kappa = 1.0 / vol
        else:
            raise ValueError(f"unknown norm variant {variant!r}")
        # (|e_k|, d_k) per axis, for box
        self._axes = tuple((float(u), float(d)) for u, d in
                           zip(self(np.eye(n)), spec.weights))

    @property
    def n(self):
        return self.spec.n

    def gauge_polynomial(self):
        """The polynomial N with |eta| = N(eta)^(1/2M), built once and
        shared: callers must not mutate it."""
        return self._N

    def __call__(self, eta):
        return self._N.eval(eta) ** (1.0 / (2 * self.M))

    def distance(self, x, y):
        """|x^{-1} y|, left-invariant, batched like GroupSpec.multiply."""
        return self(self.spec.multiply(self.spec.inverse(x), y))

    def measured_gamma(self):
        """sup |eta xi| / (|eta| + |xi|) over 10^5 random pairs in
        [-10, 10]^n (seed 0)."""
        rng = np.random.default_rng(0)
        eta = rng.uniform(-10.0, 10.0, size=(10 ** 5, self.n))
        xi = rng.uniform(-10.0, 10.0, size=(10 ** 5, self.n))
        num = self(self.spec.multiply(eta, xi))
        den = self(eta) + self(xi)
        return float(np.max(num / den))

    def box(self, r):
        """Half-widths (r / |e_k|)^{d_k} of the coordinate box that holds
        B(0, r); both gauges grow with each |theta_k|, so the ball reaches
        farthest along coordinate k on the axis itself."""
        # Python float powers: np.power may round the last bit differently
        return np.array([(float(r) / u) ** d for u, d in self._axes])

    def calibration(self):
        """Constant kappa with kappa * Leb(B(0,1)) = 1, in closed form.

        The Koranyi ball has volume pi^2/8.  The even-power ball
        {sum theta_k^{p_k} <= 1} has Dirichlet's volume
        2^n prod Gamma(1 + 1/p_k) / Gamma(1 + Q/2M)."""
        return self._kappa


def peetre_factor(norm: HomogeneousNorm, eta, xi, r):
    """Both sides of the Peetre inequality
    (1+|eta xi|)^r <= (1+|eta|)^{|r|} (1+|xi|)^r."""
    lhs = (1.0 + norm(norm.spec.multiply(eta, xi))) ** r
    rhs = (1.0 + norm(eta)) ** abs(r) * (1.0 + norm(xi)) ** r
    return lhs, rhs


# -- weight functions omega_mu ---------------------------------------------

def weight_field(norm: HomogeneousNorm, mu):
    """omega_mu = (1 + Phi(|eta|))^mu as a SmoothField over the gauge
    polynomial u = N(eta), a smooth stand-in for (1 + |eta|)^mu: 2^mu on
    the unit ball, (1 + |eta|)^mu outside radius 2, and in between the
    unique monotone quintic with C^2 contact, Phi(1 + v) =
    1 + 6v^3 - 8v^4 + 3v^5.  Invariant derivatives of the weight are
    exact."""
    x = 1 / (2 * norm.M)  # u ** x = |eta|, away from 0 past the unit ball

    def bridged(u):
        v = u ** x - 1
        return (2 + v * v * v * (6 + v * (3 * v - 8))) ** mu

    prof = Profile([(lambda u: 2.0 ** mu, lambda u: u <= 1),
                    (bridged, lambda u: u < 2.0 ** (2 * norm.M)),
                    (lambda u: (1 + u ** x) ** mu, None)],
                   name=f"omega({mu})")
    return SmoothField(norm.gauge_polynomial(), prof)
