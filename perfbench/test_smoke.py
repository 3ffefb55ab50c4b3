"""Smoke tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs at the tiny size (its numbers are not gated), every
metric must print with its unit, and every gate check must fail on a
perturbed output.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import gates
import params
import run
import spans

HERE = os.path.dirname(os.path.abspath(__file__))


def _bench(*args, cwd=run.ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", params.WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "1", "--seconds", "0",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    want = run.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == dict(want)
    text = "\n".join(lines[:-1])
    for name, unit in want:
        assert f"{workload}  {name}  " in text and f"  {unit}" in text
    assert f"{workload}  fail_ratio  " in text
    assert not os.path.exists(run.WORK)


def _good_outputs():
    ref = gates.load_reference()["0"]
    residuals = {f"by_parts_{a}": 1e-8 for a in ("100", "010", "001")}
    return {
        "extend_heis": (ref, 0),
        "identities_heis": ({"residuals": residuals}, 0),
        "covering_heis": ({"exit_status": 0, "chain_holds": True,
                           "disjoint": True, "enumerated": 10834,
                           "authorized": 2}, 0),
    }


@pytest.mark.parametrize("workload", params.WORKLOADS)
def test_gate_passes_good_and_fails_every_perturbed_output(workload):
    outputs, variant = _good_outputs()[workload]
    assert all(ok for _, ok in gates.check(workload, outputs, variant))
    names = {name for name, _ in gates.check(workload, outputs, variant)}
    assert set(gates.perturbations(workload, outputs)) == names
    assert gates.gate_can_fail(workload, outputs, variant) == []


def test_reference_covers_every_variant():
    assert set(gates.load_reference()) == {str(v)
                                           for v in range(params.VARIANTS)}


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "extend_heis", "--seed", "0", "--seconds",
                  "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()
    child = tracer.wrap("child", lambda: time.sleep(0.02))

    def body():
        time.sleep(0.01)
        child()

    tracer.wrap("parent", body)()
    parent, kid = tracer.stat("parent"), tracer.stat("child")
    assert parent.calls == kid.calls == 1
    assert parent.total_s >= kid.total_s + 0.01
    assert 0.01 <= parent.self_s < kid.total_s
