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
from dataclasses import dataclass, field

import numpy as np

from .calculus import conversion_residual
from .distributions import TestFunction, boundary_convergence
from .group_core import HomogeneousNorm
from .io import InputError, density_from_json, emit_table, load_group, \
    load_distribution, load_measure, metadata, write_json
from .kernels import KernelSpec, certify_RGamma
from .quadrature import Grid, irs_bound_check
from .weak_l1 import AtomicMeasure, build_covering, verify_covering


@dataclass
class ExperimentConfig:
    command: str
    inputs: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    out: str = None
    fmt: str = "csv"
    seed: int = 0

    def plan(self):
        return {"command": self.command, "inputs": self.inputs,
                "params": self.params, "out": self.out, "format": self.fmt,
                "seed": self.seed}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors are input errors (exit 1)
        raise InputError(message)


def _csv_floats(text):
    return [float(v) for v in text.split(",") if v.strip()]


def _csv_alphas(text):
    return [tuple(int(v) for v in part.split(","))
            for part in text.split(";") if part.strip()]


def _fmt_of(path):
    return "json" if path is not None and path.endswith(".json") else "csv"


# -- command bodies ----------------------------------------------------------

def _cmd_group_check(cfg):
    spec = load_group(cfg.inputs["spec"])
    rng = np.random.default_rng(cfg.seed)
    n = cfg.params["triples"]
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


def _cmd_calculus_identities(cfg):
    spec = load_group(cfg.inputs["spec"])
    rows = []
    for alpha in cfg.params["alphas"]:
        if len(alpha) != spec.n:
            raise InputError(f"alpha needs {spec.n} entries")
        res = conversion_residual(spec, alpha)
        rows.append({"alpha": ";".join(map(str, alpha)),
                     "residual": res, "pass": res == 0.0})
    bad = [r["alpha"] for r in rows if not r["pass"]]
    return rows, {"identities": rows}, bad


def _cmd_quad_irs(cfg):
    spec = load_group(cfg.inputs["spec"])
    norm = HomogeneousNorm(spec)
    check = irs_bound_check(norm, cfg.params["r"], cfg.params["s"],
                            np.geomspace(0.25, cfg.params["eta_max"], 9))
    rows = [{"eta_norm": float(t), "I_rs": val, "majorant": maj,
             "ratio": ratio} for t, val, maj, ratio in check["rows"]]
    bad = ([] if all(np.isfinite(row["ratio"]) for row in rows)
           else ["finite-ratio"]) + ([] if check["bounded"] else ["bounded"])
    return rows, {"rows": rows, "bounded": check["bounded"]}, bad


def _cmd_kernel_certify(cfg):
    spec = load_group(cfg.inputs["spec"])
    norm = HomogeneousNorm(spec)
    kernel = KernelSpec(spec, norm, cfg.params["family"],
                        Gamma=cfg.params["gamma"])
    report = certify_RGamma(kernel, seed=cfg.seed)
    bad = [] if report["passed"] else [
        next((k for k, v in report["estimates"].items()
              if not v["stable"]), "certification")]
    return report, {"passed": report["passed"]}, bad


def _cmd_extend_run(cfg):
    spec = load_group(cfg.inputs["spec"])
    norm = HomogeneousNorm(spec)
    Gamma = cfg.params["gamma"]
    kernel = KernelSpec(spec, norm, cfg.params["kernel"], Gamma=Gamma)
    T = load_distribution(cfg.inputs["dist"], spec, norm, Gamma)
    phi = TestFunction(spec, density_from_json(
        spec.n, {"kind": cfg.params["phi"], "params": {"radius": 2.0}}),
        "Bdot")
    radius = 4.0
    count = cfg.params["resolution"]
    if spec.n == 1:
        grid = Grid([0.0], [8.0 * radius], [32 * count + 1], grading=6.0)
    else:
        grid = Grid([0.0] * spec.n, [radius] * spec.n, [count] * spec.n)
    result = boundary_convergence(
        T, kernel, phi, cfg.params["a_list"], grid, grid,
        kernel_mass=cfg.params["kernel_mass"],
        method=cfg.params["method"], count=count)
    rows = [{"a": a, "value": v, "limit": lim, "error": err}
            for a, v, lim, err in result["rows"]]
    bad = [] if all(np.isfinite(row["value"]) for row in rows) \
        else ["finite-extension"]
    if not result["monotone"]:  # the error must fall as a shrinks
        bad.append("boundary-convergence")
    return rows, {"rows": rows, "slope": result["slope"],
                  "monotone": result["monotone"]}, bad


def _cmd_weakl1_run(cfg):
    spec = load_group(cfg.inputs["spec"])
    norm = HomogeneousNorm(spec)
    nu = load_measure(cfg.inputs["measure"], spec.n)
    cert = build_covering(spec, norm, nu, cfg.params["gamma"],
                          cfg.params["alpha"], cfg.params["i0"],
                          cfg.params["depth"], seed=cfg.seed)
    report = verify_covering(cert, spec, norm, nu, seed=cfg.seed)
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
    bad = []
    if not report["chain_holds"]:
        bad.append("weak-type-chain")
    if not report["disjoint"]:
        bad.append("disjoint-authorized-pieces")
    return payload, {"authorized": len(cert.authorized),
                     "chain_holds": report["chain_holds"],
                     "disjoint": report["disjoint"]}, bad


def _cmd_covering_demo(cfg):
    spec = load_group(cfg.inputs["spec"])
    norm = HomogeneousNorm(spec)
    nu = AtomicMeasure(np.zeros((1, spec.n)), np.ones(1))
    cfg.inputs["measure"] = "<unit atom at the origin>"
    cert = build_covering(spec, norm, nu, 1.0, cfg.params["alpha"],
                          cfg.params["i0"], cfg.params["depth"],
                          seed=cfg.seed)
    report = verify_covering(cert, spec, norm, nu, seed=cfg.seed)
    payload = {"authorized": len(cert.authorized), "report": report}
    bad = [] if report["chain_holds"] and report["disjoint"] \
        else ["weak-type-chain"]
    return payload, payload, bad


_TABLE_COMMANDS = {"group check", "calculus identities", "quad irs",
                   "extend run"}
_BODIES = {"group check": _cmd_group_check,
           "calculus identities": _cmd_calculus_identities,
           "quad irs": _cmd_quad_irs,
           "kernel certify": _cmd_kernel_certify,
           "extend run": _cmd_extend_run,
           "weakl1 run": _cmd_weakl1_run,
           "covering demo": _cmd_covering_demo}


def run(cfg: ExperimentConfig, dry_run=False, stream=None):
    """Dispatch a config; returns the exit status."""
    stream = stream or sys.stdout
    if dry_run:
        json.dump(cfg.plan(), stream, indent=2)
        stream.write("\n")
        return 0
    meta = metadata(cfg.seed, cfg.plan())
    summary_path = (cfg.out or cfg.command.replace(" ", "-")) \
        + ".summary.json"
    try:
        result, summary, bad = _BODIES[cfg.command](cfg)
    except InputError:
        raise
    except ValueError as exc:  # bad parameter combinations from the library
        raise InputError(str(exc)) from exc
    status = 2 if bad else 0
    artifacts = []
    if cfg.out:
        if cfg.command in _TABLE_COMMANDS:
            emit_table(result, cfg.fmt, cfg.out)
        else:
            write_json({**result, "metadata": meta}, cfg.out)
        artifacts.append(cfg.out)
    write_json({"command": cfg.command, "exit_code": status,
                "failed_checks": bad, "summary": summary,
                "artifacts": artifacts, "metadata": meta}, summary_path)
    if bad:
        stream.write(f"check failed: {bad[0]}\n")
    return status


def build_parser():
    parser = _Parser(prog="nilharmonics", description=__doc__)
    sub = parser.add_subparsers(dest="group_cmd", required=True)

    nested = {}  # top-level command -> its subcommand action

    def leaf(top, name):
        if top not in nested:
            nested[top] = sub.add_parser(top).add_subparsers(
                dest="sub_cmd", required=True)
        q = nested[top].add_parser(name)
        q.add_argument("--dry-run", action="store_true")
        q.add_argument("--seed", type=int, default=0)
        return q

    q = leaf("group", "check")
    q.add_argument("--spec", required=True)
    q.add_argument("--triples", type=int, default=1000)
    q.add_argument("--out")

    q = leaf("calculus", "identities")
    q.add_argument("--spec", required=True)
    q.add_argument("--alpha", required=True,
                   help="semicolon-separated multi-indices, e.g. 1,0;0,2")
    q.add_argument("--report", required=True)

    q = leaf("quad", "irs")
    q.add_argument("--spec", required=True)
    q.add_argument("--r", type=float, required=True)
    q.add_argument("--s", type=float, required=True)
    q.add_argument("--eta-max", type=float, required=True)
    q.add_argument("--out", required=True)

    q = leaf("kernel", "certify")
    q.add_argument("--spec", required=True)
    q.add_argument("--family", required=True)
    q.add_argument("--gamma", type=float, required=True)
    q.add_argument("--out", required=True)

    q = leaf("extend", "run")
    q.add_argument("--spec", required=True)
    q.add_argument("--kernel", required=True)
    q.add_argument("--gamma", type=float, required=True)
    q.add_argument("--dist", required=True)
    q.add_argument("--phi", default="poly_bump")
    q.add_argument("--a-list", required=True)
    q.add_argument("--method", default="direct")
    q.add_argument("--kernel-mass", type=float, default=1.0)
    q.add_argument("--resolution", type=int, default=21)
    q.add_argument("--out", required=True)

    q = leaf("weakl1", "run")
    q.add_argument("--spec", required=True)
    q.add_argument("--gamma", type=float, required=True)
    q.add_argument("--measure", required=True)
    q.add_argument("--alpha", type=float, required=True)
    q.add_argument("--i0", type=int, required=True)
    q.add_argument("--depth", type=int, required=True)
    q.add_argument("--out", required=True)

    q = leaf("covering", "demo")
    q.add_argument("--spec", default="abelian_R1")
    q.add_argument("--alpha", type=float, default=0.1)
    q.add_argument("--i0", type=int, default=2)
    q.add_argument("--depth", type=int, default=6)
    q.add_argument("--out")
    return parser


def config_from_args(args):
    command = f"{args.group_cmd} {args.sub_cmd}"
    inputs, params = {}, {}
    if command == "group check":
        inputs["spec"] = args.spec
        params["triples"] = args.triples
        out = args.out
    elif command == "calculus identities":
        inputs["spec"] = args.spec
        params["alphas"] = _csv_alphas(args.alpha)
        out = args.report
    elif command == "quad irs":
        inputs["spec"] = args.spec
        params.update(r=args.r, s=args.s, eta_max=args.eta_max)
        out = args.out
    elif command == "kernel certify":
        inputs["spec"] = args.spec
        params.update(family=args.family, gamma=args.gamma)
        out = args.out
    elif command == "extend run":
        inputs.update(spec=args.spec, dist=args.dist)
        params.update(kernel=args.kernel, gamma=args.gamma, phi=args.phi,
                      a_list=_csv_floats(args.a_list), method=args.method,
                      kernel_mass=args.kernel_mass,
                      resolution=args.resolution)
        out = args.out
    elif command == "weakl1 run":
        inputs.update(spec=args.spec, measure=args.measure)
        params.update(gamma=args.gamma, alpha=args.alpha, i0=args.i0,
                      depth=args.depth)
        out = args.out
    elif command == "covering demo":
        inputs["spec"] = args.spec
        params.update(alpha=args.alpha, i0=args.i0, depth=args.depth)
        out = args.out
    else:  # pragma: no cover - argparse enforces the tree
        raise InputError(f"unknown command {command}")
    return ExperimentConfig(command=command, inputs=inputs, params=params,
                            out=out, fmt=_fmt_of(out), seed=args.seed)


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        cfg = config_from_args(args)
        return run(cfg, dry_run=args.dry_run)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
