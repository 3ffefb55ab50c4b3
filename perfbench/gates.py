"""Correctness gates on the program's outputs, one per workload.

``check(workload, outputs, variant)`` returns ``[(check name, passed)]``.
``PERTURB[workload]`` maps every check name to a perturbation of a good
output that must make that check fail; ``gate_can_fail`` applies them, so a
check that cannot fail is itself a failure.
"""

from __future__ import annotations

import copy
import json
import math
import os

# extend_heis rows must match the stored reference to this float64 relative
# tolerance (relative to the limit pairing), fixed before any run
REFERENCE_RTOL = 1e-9
# the direct and kernel-centred extensions at a = 1 are two quadratures of
# one number; they must agree to this share of the limit pairing
CROSS_PATH_RTOL = 2e-3
# acceptance 04 bound on every calculus identity residual
IDENTITY_TOL = 1e-4

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference", "extend_heis.json")


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)["variants"]


def _extend(out, variant):
    rows, direct = out["rows"], out["direct_row"]
    errs = [r[3] for r in rows]
    limit = abs(rows[0][2])
    ref = load_reference()[str(variant)]
    got = [x for r in rows for x in r] + list(direct)
    want = [x for r in ref["rows"] for x in r] + list(ref["direct_row"])
    return [
        ("finite", all(math.isfinite(x) for x in got)),
        ("error_decreasing", all(b < a for a, b in zip(errs, errs[1:]))),
        ("direct_matches_scaled",
         abs(direct[1] - rows[0][1]) <= CROSS_PATH_RTOL * limit),
        ("reference_rows", len(got) == len(want) and all(
            abs(g - w) <= REFERENCE_RTOL * limit for g, w in zip(got, want))),
    ]


def _identities(out, variant):
    return [(name, value < IDENTITY_TOL)
            for name, value in out["residuals"].items()]


def _covering(out, variant):
    return [("exit_status", out["exit_status"] == 0),
            ("chain_holds", out["chain_holds"] is True),
            ("disjoint", out["disjoint"] is True),
            ("authorized", out["authorized"] >= 1)]


CHECKS = {"extend_heis": _extend, "identities_heis": _identities,
          "covering_heis": _covering}


def check(workload, outputs, variant):
    return CHECKS[workload](outputs, variant)


def _set(path, fn):
    """A perturbation: replace outputs[path] by fn(outputs[path])."""
    def apply(out):
        out = copy.deepcopy(out)
        node = out
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = fn(node[path[-1]])
        return out
    return apply


PERTURB = {
    "extend_heis": {
        "finite": _set(("rows", 1, 1), lambda v: float("nan")),
        "error_decreasing": _set(("rows", 3, 3), lambda v: 1e3 * v),
        "direct_matches_scaled": _set(("direct_row", 1), lambda v: v + 1.0),
        "reference_rows": _set(("rows", 2, 1), lambda v: v * (1 + 1e-6)),
    },
    "covering_heis": {
        "exit_status": _set(("exit_status",), lambda v: 2),
        "chain_holds": _set(("chain_holds",), lambda v: False),
        "disjoint": _set(("disjoint",), lambda v: False),
        "authorized": _set(("authorized",), lambda v: 0),
    },
}


def perturbations(workload, outputs):
    """{check name: perturbation that must fail it} for these outputs."""
    if workload == "identities_heis":
        return {name: _set(("residuals", name), lambda v: 10 * IDENTITY_TOL)
                for name in outputs["residuals"]}
    return PERTURB[workload]


def gate_can_fail(workload, outputs, variant):
    """Names of checks that still pass on their perturbed output."""
    stuck = []
    for name, perturb in perturbations(workload, outputs).items():
        verdict = dict(check(workload, perturb(outputs), variant))
        if verdict.get(name, True):
            stuck.append(name)
    return stuck
