"""Time-to-verdict benchmark of nilharmonics.

    python3 perfbench/run.py --workload extend_heis --seed 0 --seconds 25 \\
        --trace 0

runs the workload's fixed job list in fresh worker processes, one after
another, until --seconds have passed (at least once), checks every output
against the workload's gate, and prints each metric by name and unit.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` (correctness checks) and ``metrics``:

* ``--trace 0``: the end-to-end metrics ``verdict_s``, ``setup_s`` and
  ``peak_rss_mb`` (medians over the worker processes);
* ``--trace 1``: the per-layer metrics of PER_LAYER, from workers whose
  layers are wrapped by ``spans.Tracer``, alternated with untraced workers
  so that ``trace.overhead_s`` compares the two.

``--workload all`` runs the three workloads in turn and ends with one JSON
object per workload.  See README.md in this directory for the workloads and
the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

import gates
import params

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# BLAS and OpenMP pools of the worker processes are pinned to one thread
BLAS_ENV = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                             "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                             "NUMEXPR_NUM_THREADS")}
# set-up is sampled this many times per run in set-up-only workers, on top
# of the set-up of every job worker
SETUP_ONLY_SAMPLES = 4
# one worker may not run longer; a run never starts a worker after LAST_START
WORKER_TIMEOUT_S = 170
LAST_START_S = 120

END_TO_END = [("verdict_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

# (span name, per-layer fields); see FIELD_UNITS for what each field means
LAYERS = [
    ("group_core.multiply", ("calls", "points", "self_s", "ns_per_point")),
    ("group_core.norm", ("calls", "points", "self_s", "ns_per_point")),
    ("group_core.calibration", ("self_s",)),
    ("polynomials.poly_eval", ("calls", "points", "self_s", "ns_per_point")),
    ("polynomials.field_eval", ("calls", "points", "self_s")),
    ("polynomials.profile_eval", ("calls", "points", "self_s",
                                  "live_ratio")),
    ("polynomials.lambdify", ("calls", "self_s")),
    ("calculus.apply_symbolic", ("calls", "self_s", "repeat_ratio")),
    ("calculus.fd_eval", ("calls", "self_s")),
    ("quadrature.convolve", ("calls", "pairs", "self_s", "ns_per_pair")),
    ("quadrature.grid", ("calls", "points", "self_s")),
    ("kernels.dilated_field", ("calls", "self_s")),
    ("distributions.extend_scaled", ("calls", "pairs", "self_s",
                                     "ns_per_pair")),
    ("distributions.extend_direct", ("calls", "pairs", "self_s",
                                     "ns_per_pair")),
    ("weak_l1.build_covering", ("self_s", "pieces_enumerated",
                                "pieces_authorized", "authorized_ratio",
                                "us_per_piece")),
    ("weak_l1.U_nu", ("calls", "points", "self_s")),
    ("weak_l1.verify_covering", ("self_s",)),
    ("weak_l1.superlevel_measure", ("calls", "self_s")),
    ("io.write_json", ("calls", "bytes", "self_s")),
    ("cli.run", ("self_s",)),
]
# field -> (unit, numerator, denominator, scale): the value is
# scale * span[numerator] / span[denominator] (0 when the denominator is
# 0); a field without a denominator is the span's own count or time.
# ns_per_* and us_per_* use the span's total time, which for a leaf span
# equals its self time.
FIELD_UNITS = {
    "calls": ("count", "calls", None, 1),
    "points": ("count", "points", None, 1),
    "pairs": ("count", "pairs", None, 1),
    "bytes": ("B", "bytes", None, 1),
    "pieces_enumerated": ("count", "pieces_enumerated", None, 1),
    "pieces_authorized": ("count", "pieces_authorized", None, 1),
    "self_s": ("s", "self_s", None, 1),
    "ns_per_point": ("ns/point", "total_s", "points", 1e9),
    "ns_per_pair": ("ns/pair", "total_s", "pairs", 1e9),
    "us_per_piece": ("us/piece", "total_s", "pieces_enumerated", 1e6),
    "live_ratio": ("ratio", "live", "points", 1),
    "repeat_ratio": ("ratio", "repeats", "calls", 1),
    "authorized_ratio": ("ratio", "pieces_authorized", "pieces_enumerated",
                         1),
}
TRACE_METRICS = [("trace.overhead_s", "s"), ("trace.bookkeeping_s", "s"),
                 ("trace.attributed_ratio", "ratio")]
PER_LAYER = [(f"{span}.{f}", FIELD_UNITS[f][0])
             for span, fields in LAYERS for f in fields] + TRACE_METRICS


class BenchError(RuntimeError):
    """The benchmark could not measure (missing program, worker crash)."""


def _worker_env():
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = SRC
    return env


def spawn(workload, variant, mode, workdir, size):
    """Run one worker process to completion; returns its report."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload,
           str(variant), mode, workdir, size]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(),
                              capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker ran past {WORKER_TIMEOUT_S} s") \
            from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker failed with status "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def layer_metrics(report):
    """The per-layer metrics of one traced worker."""
    spans = report["spans"]
    out = {}
    for span, fields in LAYERS:
        rec = spans.get(span, {})
        for f in fields:
            _, num, den, scale = FIELD_UNITS[f]
            if den is None:
                out[f"{span}.{f}"] = rec.get(num, 0)
            else:
                d = rec.get(den, 0)
                out[f"{span}.{f}"] = scale * rec.get(num, 0) / d if d else 0.0
    out["trace.bookkeeping_s"] = report["bookkeeping_s"]
    # the tracer's bookkeeping is in the traced verdict but in no span
    out["trace.attributed_ratio"] = report["attributed_s"] \
        / (report["verdict_s"] - report["bookkeeping_s"])
    return out


def measure(workload, seed, seconds, trace, size="full"):
    """Run one workload for `seconds`; returns (result, workers started)."""
    if not os.path.isdir(os.path.join(SRC, "nilharmonics")):
        raise BenchError(f"no program source under {SRC}")
    variant = seed % params.VARIANTS
    workdir = os.path.join(WORK, f"{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        start = time.perf_counter()
        plain, traced, setups = [], [], []
        if not trace:
            for _ in range(SETUP_ONLY_SAMPLES):
                setups.append(spawn(workload, variant, "setup", workdir,
                                    size)["setup_s"])
        while not plain or (time.perf_counter() - start < seconds
                            and time.perf_counter() - start < LAST_START_S):
            plain.append(spawn(workload, variant, "jobs", workdir, size))
            if trace:
                traced.append(spawn(workload, variant, "traced", workdir,
                                    size))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)

    reports = plain + traced
    attempted = failed = 0
    for rep in reports:
        verdicts = gates.check(workload, rep["outputs"], variant)
        # every worker of a run must give the first worker's outputs:
        # tracing and repetition may not change a result
        verdicts.append(("repeatable",
                         rep["outputs"] == reports[0]["outputs"]))
        attempted += len(verdicts)
        failed += sum(not ok for _, ok in verdicts)
    stuck = gates.gate_can_fail(workload, reports[0]["outputs"], variant)
    for name in stuck:
        print(f"gate check {name!r} passes on a perturbed output",
              file=sys.stderr)
    missing = sorted({m for rep in traced for m in rep["missing_spans"]})
    if missing:
        print(f"spans not installed: {', '.join(missing)}", file=sys.stderr)

    if trace:
        per_rep = [layer_metrics(rep) for rep in traced]
        values = {name: statistics.median(r[name] for r in per_rep)
                  for name, _ in PER_LAYER if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (
            statistics.median(r["verdict_s"] for r in traced)
            - statistics.median(r["verdict_s"] for r in plain))
        units = PER_LAYER
    else:
        values = {
            "verdict_s": statistics.median(r["verdict_s"] for r in plain),
            "setup_s": statistics.median(
                setups + [r["setup_s"] for r in plain]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        units = END_TO_END
    result = {
        "correct": failed == 0 and not stuck,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units},
    }
    return result, len(reports) + len(setups)


def run_metadata():
    """Commit, versions, cores, BLAS settings and src/ size of this run."""
    files = sorted(os.path.join(d, f) for d, _, fs in os.walk(SRC)
                   for f in fs if f.endswith(".py"))
    digest, lines = hashlib.sha256(), 0
    for path in files:
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(os.path.relpath(path, SRC).encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "src_lines": lines, "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"), "nproc": os.cpu_count(),
            "blas_env": BLAS_ENV}


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(workload, result, workers):
    for name, m in result["metrics"].items():
        print(f"{workload}  {name}  {_fmt(m['value'])}  {m['unit']}")
    ratio = result["failed"] / result["attempted"]
    print(f"{workload}  fail_ratio  {_fmt(ratio)}  ratio  "
          f"({result['failed']} of {result['attempted']} checks, "
          f"{workers} workers)")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(params.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(params.SIZES),
                        default="full",
                        help="'tiny' exercises the harness only")
    args = parser.parse_args(argv)
    names = list(params.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    try:
        print("metadata " + json.dumps(run_metadata()))
        results = {}
        for name in names:
            result, workers = measure(name, args.seed, args.seconds,
                                      bool(args.trace), args.size)
            report(name, result, workers)
            results[name] = result
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
