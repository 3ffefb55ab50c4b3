"""Batch front-end.

Subcommands: group check | calculus identities | quad irs | kernel certify
| extend run | weakl1 run | covering demo.  Every subcommand accepts
--dry-run and --seed, and writes a machine-readable summary JSON
next to its main artifact.  Exit status: 0 all checks pass, 1 input error,
2 check failure.
"""

import argparse
import json
import sys

import numpy as np

from .calculus import conversion_residual
from .distributions import METHODS, TestFunction, boundary_convergence
from .group_core import HomogeneousNorm
from .io import DENSITY_SIZE, InputError, density_from_json, emit_table, \
    load_group, load_distribution, load_measure, metadata, write_json
from .kernels import FAMILIES, KernelSpec, certify_RGamma
from .quadrature import Grid, irs_bound_check
from .weak_l1 import AtomicMeasure, build_covering, verify_covering


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors are input errors (exit 1)
        raise InputError(message)


def _finite_float(text):
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _csv_floats(text):
    return [_finite_float(v) for v in text.split(",") if v.strip()]


def _csv_alphas(text):
    return [tuple(int(v) for v in part.split(","))
            for part in text.split(";") if part.strip()]


# -- command bodies: (plan, spec) -> (artifact, summary, failed checks) ------

def _group_check(plan, spec):
    rng = np.random.default_rng(plan["seed"])
    n = plan["params"]["triples"]
    x, y, z = (rng.uniform(-3, 3, size=(n, spec.n)) for _ in range(3))
    rows = []
    assoc = np.max(np.abs(spec.multiply(spec.multiply(x, y), z)
                          - spec.multiply(x, spec.multiply(y, z))))
    rows.append({"check": "associativity", "max_residual": float(assoc)})
    ident = np.max(np.abs(spec.multiply(x, spec.identity()) - x))
    rows.append({"check": "identity", "max_residual": float(ident)})
    inv = np.max(np.abs(spec.multiply(x, spec.inverse(x))))
    rows.append({"check": "inverse", "max_residual": float(inv)})
    dil = np.max(np.abs(spec.dilate(1.7, spec.multiply(x, y))
                        - spec.multiply(spec.dilate(1.7, x),
                                        spec.dilate(1.7, y))))
    rows.append({"check": "dilation-morphism", "max_residual": float(dil)})
    for row in rows:
        row["pass"] = row["max_residual"] < 1e-10
    bad = [r["check"] for r in rows if not r["pass"]]
    return rows, {"checks": rows}, bad


def _calculus_identities(plan, spec):
    rows = []
    for alpha in plan["params"]["alphas"]:
        res = conversion_residual(spec, alpha)
        rows.append({"alpha": ";".join(map(str, alpha)),
                     "residual": res, "pass": res == 0.0})
    bad = [r["alpha"] for r in rows if not r["pass"]]
    return rows, {"identities": rows}, bad


def _quad_irs(plan, spec):
    eta_max = plan["params"]["eta_max"]
    if not 0 < eta_max < np.inf:  # the sweep is geometric from 0.25
        raise InputError(f"--eta-max: the radius must be finite and "
                         f"positive, not {eta_max}")
    check = irs_bound_check(HomogeneousNorm(spec), plan["params"]["r"],
                            plan["params"]["s"],
                            np.geomspace(0.25, eta_max, 9))
    rows = [{"eta_norm": float(t), "I_rs": val, "majorant": maj,
             "ratio": ratio, "converged": converged}
            for (t, val, maj, ratio), converged
            in zip(check["rows"], check["converged"])]
    bad = ([] if all(np.isfinite(row["ratio"]) for row in rows)
           else ["finite-ratio"]) + ([] if check["bounded"] else ["bounded"])
    return rows, {"rows": rows, "bounded": check["bounded"]}, bad


def _kernel_certify(plan, spec):
    kernel = KernelSpec(spec, HomogeneousNorm(spec), plan["params"]["family"],
                        Gamma=plan["params"]["gamma"])
    report = certify_RGamma(kernel, seed=plan["seed"])
    bad = [] if report["passed"] else [
        next((k for k, v in report["estimates"].items()
              if not v["stable"]), "certification")]
    return report, {"passed": report["passed"]}, bad


def _extend_run(plan, spec):
    norm = HomogeneousNorm(spec)
    Gamma = plan["params"]["gamma"]
    kernel = KernelSpec(spec, norm, plan["params"]["kernel"], Gamma=Gamma)
    T = load_distribution(plan["inputs"]["dist"], spec, norm, Gamma)
    kind = plan["params"]["phi"]
    phi = TestFunction(spec, density_from_json(
        spec.n, {"kind": kind, "params": {DENSITY_SIZE[kind]: 2.0}}), "Bdot")
    radius = 4.0
    count = plan["params"]["resolution"]
    if spec.n == 1:
        grid = Grid([0.0], [8.0 * radius], [32 * count + 1], grading=6.0)
    else:
        grid = Grid([0.0] * spec.n, [radius] * spec.n, [count] * spec.n)
    result = boundary_convergence(
        T, kernel, phi, plan["params"]["a_list"], grid, grid,
        method=plan["params"]["method"], count=count)
    rows = [{"a": a, "value": v, "limit": lim, "error": err}
            for a, v, lim, err in result["rows"]]
    bad = [] if all(np.isfinite(row["value"]) for row in rows) \
        else ["finite-extension"]
    if len(rows) < 2 or not result["monotone"]:  # the error must fall
        bad.append("boundary-convergence")
    return rows, {"rows": rows, "slope": result["slope"],
                  "monotone": result["monotone"],
                  "outer_nodes": result["outer_nodes"]}, bad


def _covering(plan, spec, nu, Gamma):
    """Build and verify the dyadic covering of nu; returns the certificate,
    the verification report and the failed checks."""
    norm = HomogeneousNorm(spec)
    cert = build_covering(spec, norm, nu, Gamma, plan["params"]["alpha"],
                          plan["params"]["i0"], plan["params"]["depth"],
                          seed=plan["seed"])
    report = verify_covering(cert, spec, norm, nu, seed=plan["seed"])
    bad = [check for check, held in (
        ("weak-type-chain", report["chain_holds"]),
        ("disjoint-authorized-pieces", report["disjoint"])) if not held]
    return cert, report, bad


def _weakl1_run(plan, spec):
    cert, report, bad = _covering(
        plan, spec, load_measure(plan["inputs"]["measure"], spec.n),
        plan["params"]["gamma"])
    payload = {
        "certificate": {
            "alpha": cert.alpha, "Gamma": cert.Gamma, "i0": cert.i0,
            "depth": cert.depth, "kappa_measured": cert.kappa_measured,
            "kappa_design": cert.kappa_design,
            "covering_radius": cert.covering_radius,
            "tail_measure": cert.tail_measure,
            "enumerated": cert.enumerated,
            "authorized": [{"i": p.i, "j": p.j,
                            "center": list(map(float, p.center)),
                            "radius": p.radius, "a_lo": p.a_lo,
                            "a_hi": p.a_hi} for p in cert.authorized]},
        "report": report}
    return payload, {"authorized": len(cert.authorized),
                     "chain_holds": report["chain_holds"],
                     "disjoint": report["disjoint"]}, bad


def _covering_demo(plan, spec):
    nu = AtomicMeasure(np.zeros((1, spec.n)), np.ones(1))  # unit atom at 0
    cert, report, bad = _covering(plan, spec, nu, 1.0)
    payload = {"authorized": len(cert.authorized), "report": report}
    return payload, payload, bad


# -- the command table -------------------------------------------------------
# "group sub" -> (body, artifact is a table, [(flag, argparse kwargs)]).
# The dests spec, dist and measure are inputs, out is the artifact, and
# every other dest is a parameter of the run plan, in flag order.

_REQ = {"required": True}
_FLOAT = {"type": _finite_float, "required": True}
_INT = {"type": int, "required": True}
_INPUTS = ("spec", "dist", "measure")

_COMMANDS = {
    "group check": (_group_check, True, [
        ("--spec", _REQ), ("--triples", {"type": int, "default": 1000}),
        ("--out", {})]),
    "calculus identities": (_calculus_identities, True, [
        ("--spec", _REQ),
        ("--alpha", {"dest": "alphas", "type": _csv_alphas, **_REQ,
                     "help": "semicolon-separated multi-indices, "
                             "e.g. 1,0;0,2"}),
        ("--report", {"dest": "out", **_REQ})]),
    "quad irs": (_quad_irs, True, [
        ("--spec", _REQ), ("--r", _FLOAT), ("--s", _FLOAT),
        ("--eta-max", _FLOAT), ("--out", _REQ)]),
    "kernel certify": (_kernel_certify, False, [
        ("--spec", _REQ), ("--family", {"choices": FAMILIES, **_REQ}),
        ("--gamma", _FLOAT), ("--out", _REQ)]),
    "extend run": (_extend_run, True, [
        ("--spec", _REQ), ("--kernel", {"choices": FAMILIES, **_REQ}),
        ("--gamma", _FLOAT), ("--dist", _REQ),
        ("--phi", {"default": "poly_bump", "choices": sorted(DENSITY_SIZE)}),
        ("--a-list", {"type": _csv_floats, **_REQ}),
        ("--method", {"default": "direct", "choices": METHODS}),
        ("--resolution", {"type": int, "default": 21}), ("--out", _REQ)]),
    "weakl1 run": (_weakl1_run, False, [
        ("--spec", _REQ), ("--gamma", _FLOAT), ("--measure", _REQ),
        ("--alpha", _FLOAT), ("--i0", _INT), ("--depth", _INT),
        ("--out", _REQ)]),
    "covering demo": (_covering_demo, False, [
        ("--spec", {"default": "abelian_R1"}),
        ("--alpha", {"type": _finite_float, "default": 0.1}),
        ("--i0", {"type": int, "default": 2}),
        ("--depth", {"type": int, "default": 6}), ("--out", {})]),
}


def run(plan, dry_run=False):
    """Dispatch a run plan; returns the exit status."""
    if dry_run:
        json.dump(plan, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0
    meta = metadata(plan["seed"], plan)
    out = plan["out"]
    summary_path = (out or plan["command"].replace(" ", "-")) \
        + ".summary.json"
    body, is_table, _ = _COMMANDS[plan["command"]]
    try:
        result, summary, bad = body(plan, load_group(plan["inputs"]["spec"]))
    except InputError:
        raise
    except ValueError as exc:  # bad parameter combinations from the library
        raise InputError(str(exc)) from exc
    status = 2 if bad else 0
    artifacts = []
    if out:
        if is_table:
            emit_table(result, plan["format"], out)
        else:
            write_json({**result, "metadata": meta}, out)
        artifacts.append(out)
    write_json({"command": plan["command"], "exit_code": status,
                "failed_checks": bad, "summary": summary,
                "artifacts": artifacts, "metadata": meta}, summary_path)
    if bad:
        sys.stdout.write(f"check failed: {bad[0]}\n")
    return status


def build_parser():
    parser = _Parser(prog="nilharmonics", description=__doc__)
    groups = parser.add_subparsers(dest="group_cmd", required=True)
    nested = {}  # top-level command -> its subcommand action
    for command, (_, _, flags) in _COMMANDS.items():
        top, name = command.split()
        if top not in nested:
            nested[top] = groups.add_parser(top).add_subparsers(
                dest="sub_cmd", required=True)
        q = nested[top].add_parser(name)
        q.add_argument("--dry-run", action="store_true")
        q.add_argument("--seed", type=int, default=0)
        for flag, kwargs in flags:
            q.add_argument(flag, **kwargs)
    return parser


def config_from_args(args):
    """The run plan of parsed arguments, which --dry-run prints."""
    command = f"{args.group_cmd} {args.sub_cmd}"
    inputs, params = {}, {}
    for flag, kwargs in _COMMANDS[command][2]:
        dest = kwargs.get("dest", flag[2:].replace("-", "_"))
        if dest != "out":
            plan = inputs if dest in _INPUTS else params
            plan[dest] = getattr(args, dest)
    fmt = "json" if args.out is not None and args.out.endswith(".json") \
        else "csv"
    return {"command": command, "inputs": inputs, "params": params,
            "out": args.out, "format": fmt, "seed": args.seed}


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return run(config_from_args(args), dry_run=args.dry_run)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
