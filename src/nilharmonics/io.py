"""JSON and CSV plumbing for the batch front-end: group/distribution/
measure loaders, tables with 17-significant-digit numbers, and run
metadata blocks."""

import csv
import hashlib
import json
import os

import numpy as np

from . import __version__
from .group_core import GroupSpec, abelian, heisenberg
from .polynomials import Polynomial, SmoothField, gaussian_profile, \
    poly_bump_profile
from .weak_l1 import AtomicMeasure


class InputError(Exception):
    """Bad input file or option; maps to exit status 1."""


BUILTIN_GROUPS = {
    "heisenberg": heisenberg,
    "abelian_R1": lambda: abelian(1),
    "abelian_R2": lambda: abelian(2),
    "abelian_R3": lambda: abelian(3),
}


def load_json(path):
    if not os.path.exists(path):
        raise InputError(f"no such file: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"malformed JSON in {path}: line {exc.lineno} "
                             f"column {exc.colno}: {exc.msg}") from exc


def load_group(ref):
    """A group spec from a JSON file, or one of the builtin names."""
    if os.path.exists(ref):
        try:
            return GroupSpec.from_json(load_json(ref))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad group spec {ref}: {exc}") from exc
    if ref in BUILTIN_GROUPS:
        return BUILTIN_GROUPS[ref]()
    raise InputError(f"no such file or builtin group: {ref}")


# density kind -> the params key of its size
DENSITY_SIZE = {"gaussian": "width", "poly_bump": "radius"}


def density_from_json(n, data):
    """A smooth density from {kind, params}: a gaussian or poly_bump
    profile of sum_k (theta_k - shift_k)^2, divided by radius^2 for
    poly_bump.  params takes shift, scale and the kind's size (width or
    radius), and power for poly_bump; any other key is refused."""
    kind = data.get("kind")
    params = data.get("params", {})
    if kind not in DENSITY_SIZE:
        raise InputError(f"unknown density kind {kind!r}")
    known = {"shift", "scale", DENSITY_SIZE[kind]} \
        | ({"power"} if kind == "poly_bump" else set())
    for key in params:
        if key not in known:
            raise InputError(f"unknown {kind} density parameter {key!r}")
    shift = np.asarray(params.get("shift", [0.0] * n), dtype=float)
    if len(shift) != n:
        raise InputError(f"density shift needs {n} coordinates")
    size = params.get(DENSITY_SIZE[kind], 1.0)
    if not 0 < size < np.inf:  # an infinite size is no L^1 density
        raise InputError(f"density {DENSITY_SIZE[kind]} must be positive "
                         "and finite")
    base = Polynomial.zero(n)
    for k in range(n):
        e = tuple(int(m == k) for m in range(n))
        base = base + Polynomial(n, {tuple(2 * m for m in e): 1,
                                     e: -2 * shift[k],
                                     (0,) * n: shift[k] ** 2})
    scale = params.get("scale", 1.0)
    if kind == "gaussian":
        return SmoothField(base, gaussian_profile(scale, size))
    power = params.get("power", 6)
    if not power > 0:  # (1 - u)^power is not integrable at u = 1
        raise InputError("poly_bump power must be positive")
    return SmoothField(base * (1.0 / float(size) ** 2),
                       poly_bump_profile(scale, power))


def load_distribution(path, spec, norm, Gamma):
    """A DistributionRep from {mu, terms: [{alpha, density}]}."""
    from .distributions import DistributionRep
    data = load_json(path)
    try:
        terms = [(tuple(int(v) for v in t["alpha"]),
                  density_from_json(spec.n, t["density"]))
                 for t in data.get("terms", [])]
        if any(len(alpha) != spec.n for alpha, _ in terms):
            raise InputError(f"alpha needs {spec.n} entries")
        if not terms:
            raise InputError("distribution needs at least one term")
        return DistributionRep(spec, norm, Gamma, terms, mu=data.get("mu"))
    except (KeyError, TypeError, AttributeError) as exc:
        raise InputError(f"bad distribution {path}: {exc}") from exc


def load_measure(path, n):
    """An AtomicMeasure on an n-dimensional group; an empty atom list
    loads as a (0, n) measure."""
    data = load_json(path)
    try:
        return AtomicMeasure.from_json(data, n)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad measure {path}: {exc}") from exc


# -- tables ------------------------------------------------------------------

def fmt_number(x):
    return format(float(x), ".17g")


def _cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return fmt_number(v)
    return str(v)


def emit_table(rows, fmt, path):
    """Rows of identical dicts as RFC-4180 CSV or a strict JSON array of
    objects (a non-finite number becomes null); numbers carry 17
    significant digits."""
    keys = list(rows[0].keys()) if rows else []
    for row in rows:
        if list(row.keys()) != keys:
            raise InputError("table rows must share one schema")
    if fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(keys)
            for row in rows:
                writer.writerow([_cell(v) for v in row.values()])
        return
    if fmt == "json":
        write_json(rows, path)
        return
    raise InputError(f"unknown table format {fmt!r}")


def parse_table(path):
    """Read back an emitted table; numeric cells become floats."""
    def conv(s):
        for kind in (int, float):
            try:
                return kind(s)
            except (TypeError, ValueError):
                pass
        return {"true": True, "false": False}.get(s, s)
    if path.endswith(".json"):
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        return [{k: conv(v) for k, v in row.items()} for row in reader]


def jsonable(obj):
    """Recursively convert numpy scalars/arrays for json.dump; a non-finite
    float becomes None (JSON null), which strict JSON can carry."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return float(fmt_number(obj)) if np.isfinite(obj) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(jsonable(obj), fh, indent=2, ensure_ascii=False,
                  allow_nan=False)
        fh.write("\n")


def metadata(seed, config):
    canon = json.dumps(jsonable(config), sort_keys=True)
    return {"version": __version__, "seed": int(seed),
            "config-hash": hashlib.sha256(canon.encode()).hexdigest(),
            "null": "non-finite number"}
