"""The three benchmark workloads, built from a seed.

Each workload is a function ``build(variant, workdir, size)`` that builds
every input (group, gauge, kernel, fields, grids, input files) and returns
a zero-argument ``jobs`` callable.  ``jobs()`` runs the workload's fixed job
list through the library's public functions and returns the program's
outputs as a JSON-ready dict; the harness checks them (see ``gates.py``).

The benchmark seed selects one of ``params.VARIANTS`` input variants.
Variant 0 reproduces the inputs of the acceptance suite.  Any other variant
moves the density shifts, the second atom's placement on a fixed gauge
sphere and the CLI ``--seed``, and keeps every input size.
"""

from __future__ import annotations

import json
import os

import numpy as np

from nilharmonics import cli
from nilharmonics.calculus import (convolution_identity_residuals,
                                   fundlink_residual,
                                   integrate_by_parts_residual,
                                   multi_indices_upto)
from nilharmonics.distributions import (DistributionRep, TestFunction,
                                        boundary_convergence)
from nilharmonics.group_core import HomogeneousNorm, heisenberg
from nilharmonics.kernels import KernelSpec
from nilharmonics.polynomials import Polynomial, SmoothField, \
    poly_bump_profile
from nilharmonics.quadrature import Grid, haar_integrate
from params import COVERING_ATOMS, EXTEND_A_LIST, SHIFT_JITTER, SIZES


def heis_bump(radius, shift):
    """(1 - |theta - shift|^2 / radius^2)^6 on the Heisenberg coordinates."""
    coeffs = {(0, 0, 0): float(np.dot(shift, shift))}
    for k in range(3):
        coeffs[tuple(2 * (j == k) for j in range(3))] = 1.0
        coeffs[tuple(int(j == k) for j in range(3))] = -2.0 * shift[k]
    return SmoothField(Polynomial(3, coeffs) * (1.0 / radius ** 2),
                       poly_bump_profile(1.0, 6))


def _shifts(variant, centres):
    """The acceptance centres, each moved by at most SHIFT_JITTER per axis
    unless variant is 0."""
    centres = np.asarray(centres, dtype=float)
    if variant == 0:
        return centres
    rng = np.random.default_rng([variant, 1])
    return centres + rng.uniform(-SHIFT_JITTER, SHIFT_JITTER, centres.shape)


def second_atom(variant, norm):
    """The second atom of acceptance 11, moved for variant != 0 by up to
    SHIFT_JITTER per axis and dilated back onto its gauge sphere.  A small
    move keeps the covering's work the same; a placement elsewhere on the
    sphere changes the order-dependent forbidding pass, and with it the
    number of gauge calls, by up to 40%."""
    base = np.array(COVERING_ATOMS[1])
    (moved,) = _shifts(variant, [base])
    return list(norm.spec.dilate(float(norm(base) / norm(moved)), moved))


def extend_heis(variant, workdir, size="full"):
    size = SIZES[size]
    spec = heisenberg()
    norm = HomogeneousNorm(spec, "even-power")
    kernel = KernelSpec(spec, norm, "model_power", Gamma=1.0)
    mass = haar_integrate(
        lambda p: kernel.field.eval(p),
        Grid([0.0] * 3, [200.0, 200.0, 200.0 ** 2], [61] * 3,
             grading=[9.0, 9.0, 12.0]))
    (shift,) = _shifts(variant, [[0.3, 0.2, -0.1]])
    T = DistributionRep(spec, norm, 1.0, [((1, 0, 0), heis_bump(1.2, shift))],
                        mu=0.0)
    phi = TestFunction(spec, heis_bump(2.0, np.zeros(3)), "schwartz-like")
    outer = Grid([0.0] * 3, [2.1] * 3, [size["outer"]] * 3)
    inner = Grid(shift, [1.3] * 3, [size["inner"]] * 3)

    def jobs():
        scaled = boundary_convergence(T, kernel, phi, EXTEND_A_LIST, outer,
                                      inner, kernel_mass=mass,
                                      method="scaled", span=4.0,
                                      count=size["zeta"])
        direct = boundary_convergence(T, kernel, phi, [1.0], outer, inner,
                                      kernel_mass=mass, method="direct")
        return {"rows": [list(r) for r in scaled["rows"]],
                "direct_row": list(direct["rows"][0])}

    return jobs


def identities_heis(variant, workdir, size="full"):
    size = SIZES[size]
    spec = heisenberg()
    fc, gc, bc = _shifts(variant, [[0.2, 0.0, -0.1], [-0.1, 0.15, 0.0],
                                [0.1, 0.0, 0.0]])
    f, g, bump = heis_bump(1.6, fc), heis_bump(1.6, gc), heis_bump(1.6, bc)
    grid = Grid([0.0] * 3, 2.1, size["identities_grid"])
    pts = np.random.default_rng(9).uniform(-1.0, 1.0, (4, 3)) * 0.7
    alphas = [a for a in multi_indices_upto(3, size["max_order"])
              if sum(a)]

    def jobs():
        residuals = {}
        for a in alphas:
            tag = "".join(map(str, a))
            residuals[f"by_parts_{tag}"] = integrate_by_parts_residual(
                spec, "X", a, f, g, grid)
            conv = convolution_identity_residuals(spec, a, f, g, grid,
                                                  [[0.2, 0.1, -0.1]])
            for name, value in conv.items():
                residuals[f"{name}_{tag}"] = value
            residuals[f"fundlink_{tag}"] = fundlink_residual(spec, a, [bump],
                                                             pts)
        return {"residuals": residuals}

    return jobs


def covering_heis(variant, workdir, size="full"):
    size = SIZES[size]
    norm = HomogeneousNorm(heisenberg(), "even-power")
    atoms = [COVERING_ATOMS[0], second_atom(variant, norm)]
    measure = os.path.join(workdir, "measure.json")
    with open(measure, "w", encoding="utf-8") as fh:
        json.dump({"atoms": [{"xi": x, "w": 1.0} for x in atoms]}, fh)
    out = os.path.join(workdir, "covering.json")
    argv = ["weakl1", "run", "--spec", "heisenberg", "--gamma", "1",
            "--measure", measure, "--alpha", "20", "--i0", "2",
            "--depth", str(size["depth"]), "--out", out,
            "--seed", str(variant)]

    def jobs():
        status = cli.main(argv)
        with open(out + ".summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)["summary"]
        with open(out, encoding="utf-8") as fh:
            cert = json.load(fh)["certificate"]
        return {"exit_status": status,
                "chain_holds": summary["chain_holds"],
                "disjoint": summary["disjoint"],
                "enumerated": cert["enumerated"],
                "authorized": len(cert["authorized"])}

    return jobs


# keyed by params.WORKLOADS
WORKLOADS = {"extend_heis": extend_heis,
             "identities_heis": identities_heis,
             "covering_heis": covering_heis}
