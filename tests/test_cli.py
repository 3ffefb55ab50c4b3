"""End-to-end tests of the batch front-end: exit statuses, artifact
formats, summaries, and determinism."""

import json
import os

import numpy as np
import pytest

from nilharmonics import cli
from nilharmonics.cli import main
from nilharmonics.io import InputError, emit_table, parse_table


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.fixture
def measure_file(tmp_path):
    path = tmp_path / "nu.json"
    path.write_text(json.dumps({"atoms": [{"xi": [0.0], "w": 1.0}]}))
    return str(path)


@pytest.fixture
def dist_file(tmp_path):
    path = tmp_path / "dist.json"
    path.write_text(json.dumps({
        "mu": 0.0,
        "terms": [{"alpha": [0],
                   "density": {"kind": "gaussian",
                               "params": {"width": 1.0}}}]}))
    return str(path)


# -- group check -------------------------------------------------------------

def test_group_check_pass(tmp_path):
    out = str(tmp_path / "checks.csv")
    status = main(["group", "check", "--spec", "heisenberg", "--out", out])
    assert status == 0
    rows = parse_table(out)
    assert [r["check"] for r in rows] == [
        "associativity", "identity", "inverse", "dilation-morphism"]
    assert all(r["pass"] is True for r in rows)
    assert all(r["max_residual"] < 1e-10 for r in rows)
    summary = read_json(out + ".summary.json")
    assert summary["exit_code"] == 0
    assert summary["failed_checks"] == []
    assert summary["artifacts"] == [out]
    meta = summary["metadata"]
    assert set(meta) == {"version", "seed", "config-hash", "null"}
    assert meta["null"] == "non-finite number"
    assert len(meta["config-hash"]) == 64


def test_group_check_detects_non_group(tmp_path):
    # a symmetric structure term passes grading validation but breaks the
    # inverse law: theta_3(eta . (-eta)) = -eta_1^2 != 0
    spec = {"name": "bad", "n": 3, "weights": ["1", "1", "2"],
            "structure": [{"k": 2, "alpha": [1, 0, 0],
                           "beta": [1, 0, 0], "c": "1"}]}
    path = tmp_path / "bad_group.json"
    path.write_text(json.dumps(spec))
    out = str(tmp_path / "checks.csv")
    status = main(["group", "check", "--spec", str(path), "--out", out])
    assert status == 2
    rows = {r["check"]: r for r in parse_table(out)}
    assert rows["inverse"]["pass"] is False
    assert rows["associativity"]["pass"] is True
    summary = read_json(out + ".summary.json")
    assert summary["exit_code"] == 2
    assert "inverse" in summary["failed_checks"]


def test_missing_file_is_input_error(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    status = main(["group", "check", "--spec",
                   str(tmp_path / "absent.json"), "--out", out])
    assert status == 1
    assert not os.path.exists(out)
    assert "input error" in capsys.readouterr().err


def test_malformed_json_reports_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 1,\n  "weights": [}\n')
    status = main(["group", "check", "--spec", str(path), "--out",
                   str(tmp_path / "x.csv")])
    assert status == 1
    err = capsys.readouterr().err
    assert "line 2" in err and "column" in err


def _heis_terms(*terms):
    """A group on the Heisenberg weights with the given (k, alpha, beta, c)
    structure terms."""
    return {"name": "g", "n": 3, "weights": ["1", "1", "2"],
            "structure": [{"k": k, "alpha": alpha, "beta": beta, "c": c}
                          for k, alpha, beta, c in terms]}


@pytest.mark.parametrize("spec", [
    # a string is not a list of weights, though it iterates like one
    {"name": "g", "n": 2, "weights": "12", "structure": []},
    {"name": "g", "n": 3, "weights": ["1", "1"], "structure": []},
    _heis_terms((-1, [1, 0, 0], [0, 1, 0], "1/2"),
                (-1, [0, 1, 0], [1, 0, 0], "-1/2")),
    _heis_terms((5, [1, 0, 0], [0, 1, 0], "1")),
    _heis_terms((2, [2, -1, 0], [1, 0, 0], "1")),
    _heis_terms((2, [0.5, 0.5, 0], [1, 0, 0], "1")),
    # int() would read coordinate 2, the Heisenberg bracket
    _heis_terms((2.7, [1, 0, 0], [0, 1, 0], "1/2"),
                (2.7, [0, 1, 0], [1, 0, 0], "-1/2")),
], ids=["string-weights", "n-mismatch", "k=-1", "k=5", "negative-exponent",
        "fractional-exponent", "fractional-k"])
def test_malformed_group_is_input_error(tmp_path, capsys, spec):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(spec))
    status = main(["group", "check", "--spec", str(path), "--out",
                   str(tmp_path / "x.csv")])
    assert status == 1
    err = capsys.readouterr().err
    assert "input error" in err and "Traceback" not in err


def test_usage_error_is_exit_1(capsys):
    assert main(["group", "check"]) == 1  # --spec is required
    assert "input error" in capsys.readouterr().err


_IRS = ["quad", "irs", "--spec", "abelian_R1", "--r", "-2", "--s", "-2"]
_CERTIFY = ["kernel", "certify", "--spec", "heisenberg", "--family",
            "model_power"]
_EXTEND = ["extend", "run", "--spec", "abelian_R1", "--kernel",
           "classical_abelian", "--gamma", "1", "--resolution", "12"]


@pytest.mark.parametrize("argv", [
    _CERTIFY + ["--gamma", "inf"], _CERTIFY + ["--gamma", "nan"],
    _IRS + ["--eta-max", "nan"], _IRS + ["--eta-max", "-4"],
    _IRS + ["--eta-max", "0"],
    ["covering", "demo", "--alpha", "nan"],
    _EXTEND + ["--a-list", "1,inf"],
], ids=["gamma-inf", "gamma-nan", "eta-max-nan", "eta-max-negative",
        "eta-max-zero", "alpha-nan", "a-list-inf"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_or_negative_float_is_input_error(tmp_path, dist_file,
                                                     capsys, argv):
    if argv[0] == "extend":
        argv = argv + ["--dist", dist_file]
    out = str(tmp_path / "out.json")
    assert main(argv + ["--out", out]) == 1
    err = capsys.readouterr().err
    assert "input error" in err and "finite" in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


_GAUSS = {"kind": "gaussian", "params": {"width": 1.0}}
_MALFORMED_DISTS = {
    "radius-0": {"terms": [{"alpha": [0], "density": {
        "kind": "poly_bump", "params": {"radius": 0}}}]},
    "width-0": {"terms": [{"alpha": [0], "density": {
        "kind": "gaussian", "params": {"width": 0}}}]},
    # an infinite size makes the density 1 everywhere, which is not L^1
    "radius-inf": {"terms": [{"alpha": [0], "density": {
        "kind": "poly_bump", "params": {"radius": float("inf")}}}]},
    "width-inf": {"terms": [{"alpha": [0], "density": {
        "kind": "gaussian", "params": {"width": float("inf")}}}]},
    "no-alpha": {"terms": [{"density": _GAUSS}]},
    "no-density": {"terms": [{"alpha": [0]}]},
    "alpha-5": {"terms": [{"alpha": 5, "density": _GAUSS}]},
    # refused, not read as an empty normal form or truncated to order 0
    "alpha-negative": {"terms": [{"alpha": [-1], "density": _GAUSS}]},
    "alpha-fractional": {"terms": [{"alpha": [0.5], "density": _GAUSS}]},
    # (1 - u)^power is not integrable at the support edge for power <= 0
    "power--1": {"terms": [{"alpha": [0], "density": {
        "kind": "poly_bump", "params": {"power": -1}}}]},
    "power-0": {"terms": [{"alpha": [0], "density": {
        "kind": "poly_bump", "params": {"power": 0}}}]},
    "top-level-list": [{"alpha": [0], "density": _GAUSS}],
}


@pytest.mark.parametrize("case", [*_MALFORMED_DISTS, "a-list", "alpha",
                                  "phi"])
def test_malformed_input_is_input_error(tmp_path, dist_file, capsys, case):
    extend = ["extend", "run", "--spec", "abelian_R1",
              "--kernel", "classical_abelian", "--gamma", "1",
              "--resolution", "12", "--out", str(tmp_path / "ext.csv")]
    if case == "a-list":
        argv = extend + ["--dist", dist_file, "--a-list", "1,x"]
    elif case == "phi":
        argv = extend + ["--dist", dist_file, "--a-list", "1,0.5",
                         "--phi", "box"]
    elif case == "alpha":
        argv = ["calculus", "identities", "--spec", "abelian_R2",
                "--alpha", "1,a", "--report", str(tmp_path / "r.json")]
    else:
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(_MALFORMED_DISTS[case]))
        argv = extend + ["--dist", str(path), "--a-list", "1,0.5"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "input error" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    _EXTEND + ["--a-list", "1", "--method", "bogus"],
    ["extend", "run", "--spec", "abelian_R1", "--kernel", "bogus",
     "--gamma", "1", "--a-list", "1"],
    ["kernel", "certify", "--spec", "abelian_R1", "--family", "bogus",
     "--gamma", "1"],
], ids=["method", "kernel", "family"])
@pytest.mark.parametrize("dry_run", [False, True], ids=["run", "dry-run"])
def test_unknown_name_is_input_error(tmp_path, dist_file, capsys, argv,
                                     dry_run):
    # the names come from the library (distributions.METHODS,
    # kernels.FAMILIES), so a dry run refuses what a run would refuse
    if argv[0] == "extend":
        argv = argv + ["--dist", dist_file]
    out = str(tmp_path / "out.json")
    assert main(argv + ["--out", out] + ["--dry-run"] * dry_run) == 1
    captured = capsys.readouterr()
    assert "input error" in captured.err and "bogus" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not os.path.exists(out)


# -- dry runs and metadata ---------------------------------------------------

def test_dry_run_prints_plan_writes_nothing(tmp_path, capsys):
    out = str(tmp_path / "plan_target.csv")
    status = main(["group", "check", "--spec", "heisenberg", "--out", out,
                   "--dry-run"])
    assert status == 0
    plan = json.loads(capsys.readouterr().out)
    assert plan["command"] == "group check"
    assert plan["inputs"] == {"spec": "heisenberg"}
    assert plan["params"]["triples"] == 1000
    assert list(tmp_path.iterdir()) == []


# the README invocation of each subcommand and its exact run plan
_README_PLANS = [
    (["group", "check", "--spec", "heisenberg", "--out", "checks.csv"],
     {"spec": "heisenberg"}, {"triples": 1000}),
    (["calculus", "identities", "--spec", "heisenberg",
      "--alpha", "1,0,0;0,1,0;0,0,1", "--report", "identities.json"],
     {"spec": "heisenberg"},
     {"alphas": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}),
    (["quad", "irs", "--spec", "abelian_R1", "--r", "-2", "--s", "-2",
      "--eta-max", "64", "--out", "irs.csv"],
     {"spec": "abelian_R1"}, {"r": -2.0, "s": -2.0, "eta_max": 64.0}),
    (["kernel", "certify", "--spec", "heisenberg", "--family",
      "model_power", "--gamma", "1", "--out", "cert.json"],
     {"spec": "heisenberg"}, {"family": "model_power", "gamma": 1.0}),
    (["extend", "run", "--spec", "abelian_R1", "--kernel",
      "classical_abelian", "--gamma", "1", "--dist", "dist.json",
      "--a-list", "1,0.5,0.25", "--out", "ext.csv"],
     {"spec": "abelian_R1", "dist": "dist.json"},
     {"kernel": "classical_abelian", "gamma": 1.0, "phi": "poly_bump",
      "a_list": [1.0, 0.5, 0.25], "method": "direct", "resolution": 21}),
    (["weakl1", "run", "--spec", "abelian_R1", "--gamma", "1",
      "--measure", "nu.json", "--alpha", "0.1", "--i0", "2", "--depth",
      "6", "--out", "covering.json"],
     {"spec": "abelian_R1", "measure": "nu.json"},
     {"gamma": 1.0, "alpha": 0.1, "i0": 2, "depth": 6}),
    (["covering", "demo", "--out", "demo.json"],
     {"spec": "abelian_R1"}, {"alpha": 0.1, "i0": 2, "depth": 6}),
]


@pytest.mark.parametrize("argv, inputs, params", _README_PLANS,
                         ids=[" ".join(p[0][:2]) for p in _README_PLANS])
def test_dry_run_plan_schema(capsys, argv, inputs, params):
    assert main(argv + ["--dry-run"]) == 0
    plan = json.loads(capsys.readouterr().out)
    assert plan == {"command": " ".join(argv[:2]), "inputs": inputs,
                    "params": params, "out": argv[-1],
                    "format": "json" if argv[-1].endswith(".json")
                    else "csv", "seed": 0}
    assert list(plan["inputs"]) == list(inputs)  # flag order
    assert list(plan["params"]) == list(params)


def test_seed_changes_config_hash(tmp_path):
    outs = [str(tmp_path / f"c{k}.csv") for k in range(2)]
    for k, seed in enumerate(["0", "1"]):
        main(["group", "check", "--spec", "abelian_R1", "--seed", seed,
              "--triples", "10", "--out", outs[k]])
    hashes = [read_json(o + ".summary.json")["metadata"]["config-hash"]
              for o in outs]
    assert hashes[0] != hashes[1]


# -- other subcommands -------------------------------------------------------

def test_calculus_identities_json_report(tmp_path):
    out = str(tmp_path / "report.json")
    status = main(["calculus", "identities", "--spec", "heisenberg",
                   "--alpha", "1,0,0;0,1,0;0,0,1", "--report", out])
    assert status == 0
    rows = parse_table(out)
    assert len(rows) == 3
    assert all(r["residual"] == 0.0 and r["pass"] is True for r in rows)


def test_calculus_identities_bad_alpha_length(tmp_path, capsys):
    status = main(["calculus", "identities", "--spec", "heisenberg",
                   "--alpha", "1,0", "--report", str(tmp_path / "r.json")])
    assert status == 1
    assert "bad multi-index" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["0,-1,0", "1,0,0,0"])
def test_calculus_identities_bad_alpha_is_an_input_error(tmp_path, capsys,
                                                        alpha):
    # the library's multi-index check is the CLI's
    status = main(["calculus", "identities", "--spec", "heisenberg",
                   "--alpha", alpha, "--report", str(tmp_path / "r.json")])
    assert status == 1
    assert "bad multi-index" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_quad_irs_table(tmp_path):
    out = str(tmp_path / "irs.csv")
    status = main(["quad", "irs", "--spec", "abelian_R1", "--r", "-2",
                   "--s", "-2", "--eta-max", "4", "--out", out])
    assert status == 0
    rows = parse_table(out)
    assert len(rows) == 9
    assert all(np.isfinite(r["ratio"]) and r["ratio"] > 0 for r in rows)
    # the first abscissa of the geometric sweep
    assert rows[0]["eta_norm"] == pytest.approx(0.25)


def test_quad_irs_reports_an_unmet_stop_rule(tmp_path):
    # r + s + Q = -0.1: the tail decays too slowly for two doublings to
    # agree within the budget (I_rs(0) is 11.88 against the exact 20)
    out = str(tmp_path / "irs.json")
    main(["quad", "irs", "--spec", "abelian_R1", "--r", "-0.5",
          "--s", "-0.6", "--eta-max", "4", "--out", out])
    rows = parse_table(out)
    assert len(rows) == 9
    assert any(row["converged"] is False for row in rows)
    summary = read_json(out + ".summary.json")
    assert [row["converged"] for row in summary["summary"]["rows"]] == \
        [row["converged"] for row in rows]
    # the flag is per row: this sweep meets the rule at eta = 2^{-3/2}
    main(["quad", "irs", "--spec", "abelian_R1", "--r", "-3", "--s", "-3",
          "--eta-max", "4", "--out", out])
    assert [row["converged"] for row in parse_table(out)][:2] == \
        [False, True]


def test_quad_irs_fails_without_the_log(tmp_path, capsys):
    # r = -Q exactly takes the log majorant; 1e-9 above it does not, and
    # the ratio keeps growing past eta_max
    common = ["quad", "irs", "--spec", "heisenberg", "--s", "-1.5",
              "--eta-max", "64", "--out", str(tmp_path / "irs.csv")]
    assert main(common + ["--r", "-4"]) == 0
    assert main(common + ["--r", "-3.999999999"]) == 2
    assert "check failed: bounded" in capsys.readouterr().out


def test_kernel_certify_pass(tmp_path):
    out = str(tmp_path / "cert.json")
    status = main(["kernel", "certify", "--spec", "abelian_R1",
                   "--family", "classical_abelian", "--gamma", "1",
                   "--out", out])
    assert status == 0
    report = read_json(out)
    assert report["passed"] is True
    assert all(v["stable"] for v in report["estimates"].values())


def test_kernel_certify_rejects_wrong_gamma(tmp_path, capsys):
    status = main(["kernel", "certify", "--spec", "abelian_R1",
                   "--family", "classical_abelian", "--gamma", "2",
                   "--out", str(tmp_path / "cert.json")])
    assert status == 1
    assert "Gamma" in capsys.readouterr().err


def test_extend_run_converges(tmp_path, dist_file):
    out = str(tmp_path / "ext.csv")
    status = main(["extend", "run", "--spec", "abelian_R1",
                   "--kernel", "classical_abelian", "--gamma", "1",
                   "--dist", dist_file, "--a-list", "1,0.5,0.25",
                   "--resolution", "12", "--out", out])
    assert status == 0
    rows = parse_table(out)
    assert [r["a"] for r in rows] == [1.0, 0.5, 0.25]
    errs = [r["error"] for r in rows]
    assert errs[-1] < errs[0]
    assert all(np.isfinite(r["value"]) for r in rows)


def test_extend_run_gaussian_phi_has_width_2(tmp_path, dist_file):
    # the limit <T, phi> = int exp(-x^2/2) exp(-x^2/8) dx = sqrt(8 pi / 5)
    # holds for phi of width 2, the size extend run gives every kind
    out = str(tmp_path / "ext.csv")
    status = main(["extend", "run", "--spec", "abelian_R1",
                   "--kernel", "classical_abelian", "--gamma", "1",
                   "--dist", dist_file, "--phi", "gaussian",
                   "--a-list", "1,0.5,0.25", "--resolution", "12",
                   "--out", out])
    assert status == 0
    limits = {r["limit"] for r in parse_table(out)}
    assert len(limits) == 1
    assert abs(limits.pop() / np.sqrt(8 * np.pi / 5) - 1) < 1e-6


def test_unknown_density_parameter_is_named(tmp_path, capsys):
    # a misspelt or foreign key would otherwise load with its default
    path = tmp_path / "dist.json"
    path.write_text(json.dumps({"terms": [{"alpha": [0, 0, 0], "density": {
        "kind": "gaussian", "params": {"center": [1, 0, 0]}}}]}))
    status = main(["extend", "run", "--spec", "heisenberg",
                   "--kernel", "model_power", "--gamma", "1",
                   "--dist", str(path), "--a-list", "1,0.5",
                   "--out", str(tmp_path / "ext.csv")])
    assert status == 1
    assert "'center'" in capsys.readouterr().err


def test_extend_run_wrong_kernel_mass_fails(tmp_path, dist_file,
                                           monkeypatch):
    # the limit taken with half the kernel's mass is never approached, so
    # the error grows as a shrinks and the convergence verdict fails
    class HalfMass(cli.KernelSpec):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.mass /= 2

    monkeypatch.setattr(cli, "KernelSpec", HalfMass)
    out = str(tmp_path / "ext.csv")
    status = main(["extend", "run", "--spec", "abelian_R1",
                   "--kernel", "classical_abelian", "--gamma", "1",
                   "--dist", dist_file, "--a-list", "1,0.5,0.25",
                   "--resolution", "12", "--out", out])
    assert status == 2
    errs = [r["error"] for r in parse_table(out)]
    assert errs[0] < errs[1] < errs[2]
    summary = read_json(out + ".summary.json")
    assert summary["failed_checks"] == ["boundary-convergence"]
    assert summary["summary"]["monotone"] is False


def test_extend_run_heisenberg_model_power_converges(tmp_path):
    # the model kernel's mass is not 1; the limit uses its closed form
    dist = tmp_path / "heis.json"
    dist.write_text(json.dumps({
        "mu": 0.0,
        "terms": [{"alpha": [0, 0, 0],
                   "density": {"kind": "gaussian",
                               "params": {"width": 1.0}}}]}))
    out = str(tmp_path / "ext.csv")
    status = main(["extend", "run", "--spec", "heisenberg",
                   "--kernel", "model_power", "--gamma", "1",
                   "--dist", str(dist), "--method", "scaled",
                   "--resolution", "15", "--a-list", "1,0.5,0.25",
                   "--out", out])
    assert status == 0
    errs = [r["error"] for r in parse_table(out)]
    assert errs[0] > errs[1] > errs[2]


def test_weakl1_run_and_determinism(tmp_path, measure_file, monkeypatch):
    outs = []
    for k in range(2):
        workdir = tmp_path / f"run{k}"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        status = main(["weakl1", "run", "--spec", "abelian_R1",
                       "--gamma", "1", "--measure", measure_file,
                       "--alpha", "0.1", "--i0", "2", "--depth", "5",
                       "--seed", "3", "--out", "w.json"])
        assert status == 0
        outs.append(str(workdir / "w.json"))
    payload = read_json(outs[0])
    assert len(payload["certificate"]["authorized"]) >= 1
    assert payload["report"]["chain_holds"] is True
    assert payload["report"]["disjoint"] is True
    # identical config and seed => byte-identical artifacts
    blobs = [open(o, "rb").read() for o in outs]
    assert blobs[0] == blobs[1]


def test_weakl1_run_vacuous_level(tmp_path, measure_file):
    out = str(tmp_path / "w.json")
    status = main(["weakl1", "run", "--spec", "abelian_R1", "--gamma", "1",
                   "--measure", measure_file, "--alpha", "1e9",
                   "--i0", "2", "--depth", "4", "--out", out])
    assert status == 0
    payload = read_json(out)
    assert payload["certificate"]["authorized"] == []
    assert payload["report"]["chain_holds"] is True
    # strict JSON: no piece, so min U over the pieces is +inf, written null
    for path in (out, out + ".summary.json"):
        with open(path, encoding="utf-8") as fh:
            json.load(fh, parse_constant=_refuse_constant)
    assert payload["report"]["min_U_on_pieces"] is None


@pytest.mark.parametrize("argv", [
    ["--gamma", "-1"], ["--depth", "-1"], ["--alpha", "0"], ["--alpha", "-5"],
    ["covering", "demo", "--alpha", "-1"],
], ids=["gamma-negative", "depth-negative", "alpha-zero", "alpha-negative",
        "demo-alpha-negative"])
def test_covering_parameter_out_of_range_is_input_error(tmp_path, capsys,
                                                        argv):
    # no piece is authorized at a negative Gamma or depth, a zero alpha
    # divides by zero, and a negative one fails the chain: none of them is
    # a measured check
    measure = tmp_path / "nu.json"
    measure.write_text(json.dumps({"atoms": [{"xi": [0.0, 0.0, 0.0],
                                              "w": 1.0}]}))
    if argv[0] != "covering":
        argv = ["weakl1", "run", "--spec", "heisenberg", "--gamma", "1",
                "--measure", str(measure), "--alpha", "1", "--i0", "2",
                "--depth", "3"] + argv
    out = str(tmp_path / "w.json")
    assert main(argv + ["--out", out]) == 1
    err = capsys.readouterr().err
    assert "input error" in err and "Traceback" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("atom", [
    {"xi": [0.0], "w": float("inf")}, {"xi": [0.0], "w": float("nan")},
    {"xi": [float("nan")], "w": 1.0}, {"xi": [float("inf")], "w": 1.0},
], ids=["w-inf", "w-nan", "xi-nan", "xi-inf"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_measure_is_input_error(tmp_path, capsys, atom):
    measure = tmp_path / "nu.json"
    measure.write_text(json.dumps({"atoms": [atom]}))
    out = str(tmp_path / "w.json")
    assert main(["weakl1", "run", "--spec", "abelian_R1", "--gamma", "1",
                 "--measure", str(measure), "--alpha", "0.1", "--i0", "2",
                 "--depth", "3", "--out", out]) == 1
    err = capsys.readouterr().err
    assert "input error" in err and "finite" in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


def test_covering_demo_defaults(tmp_path):
    out = str(tmp_path / "demo.json")
    status = main(["covering", "demo", "--depth", "5", "--out", out])
    assert status == 0
    payload = read_json(out)
    assert payload["authorized"] >= 1
    assert payload["report"]["chain_holds"] is True


def test_covering_demo_names_failed_disjointness(tmp_path, monkeypatch):
    real = cli.verify_covering

    def overlapping(*args, **kwargs):
        return {**real(*args, **kwargs), "disjoint": False}

    monkeypatch.setattr(cli, "verify_covering", overlapping)
    out = str(tmp_path / "demo.json")
    assert main(["covering", "demo", "--depth", "4", "--out", out]) == 2
    summary = read_json(out + ".summary.json")
    assert summary["failed_checks"] == ["disjoint-authorized-pieces"]


# -- table round trips -------------------------------------------------------

def test_emit_table_csv_roundtrip(tmp_path):
    rows = [{"label": "π-cell", "x": 1.0 / 3.0, "k": 7, "ok": True},
            {"label": "plain", "x": 2.0 ** -52, "k": -1, "ok": False}]
    path = str(tmp_path / "t.csv")
    emit_table(rows, "csv", path)
    back = parse_table(path)
    assert back[0]["label"] == "π-cell"
    assert back[0]["x"] == rows[0]["x"]  # 17 significant digits round-trip
    assert back[1]["x"] == rows[1]["x"]
    assert back[0]["k"] == 7 and back[1]["k"] == -1
    assert back[0]["ok"] is True and back[1]["ok"] is False


def test_emit_table_json_roundtrip(tmp_path):
    rows = [{"x": 0.1 + 0.2, "name": "α"}]
    path = str(tmp_path / "t.json")
    emit_table(rows, "json", path)
    back = parse_table(path)
    assert back[0]["x"] == rows[0]["x"]
    assert back[0]["name"] == "α"


def test_emit_table_empty_and_schema(tmp_path):
    path = str(tmp_path / "e.csv")
    emit_table([], "csv", path)
    assert parse_table(path) == []
    with pytest.raises(InputError):
        emit_table([{"a": 1}, {"b": 2}], "csv", str(tmp_path / "x.csv"))


def test_emit_table_json_is_strict(tmp_path):
    path = str(tmp_path / "t.json")
    emit_table([{"x": float("inf"), "y": float("nan"), "z": 1.5}], "json",
               path)
    with open(path, encoding="utf-8") as fh:
        back = json.load(fh, parse_constant=_refuse_constant)
    assert back == [{"x": None, "y": None, "z": 1.5}]


def test_weakl1_run_empty_measure(tmp_path):
    measure = tmp_path / "empty.json"
    measure.write_text(json.dumps({"atoms": []}))
    out = str(tmp_path / "w.json")
    status = main(["weakl1", "run", "--spec", "heisenberg", "--gamma", "1",
                   "--measure", str(measure), "--alpha", "1", "--i0", "2",
                   "--depth", "3", "--out", out])
    assert status == 0
    for path in (out, out + ".summary.json"):
        with open(path, encoding="utf-8") as fh:
            json.load(fh, parse_constant=_refuse_constant)
    assert read_json(out)["certificate"]["authorized"] == []
    assert read_json(out + ".summary.json")["summary"]["authorized"] == 0
