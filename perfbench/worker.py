"""One workload in one fresh process: set up, run the job list, report.

    python3 perfbench/worker.py WORKLOAD VARIANT MODE WORKDIR SIZE

MODE is ``setup`` (set up only), ``jobs`` (set up, then run the job list)
or ``traced`` (the same with every layer wrapped by ``spans.Tracer``);
SIZE is a key of ``workloads.SIZES``.
Prints one JSON object: set-up and verdict seconds, peak resident memory,
the program's outputs and, when traced, the per-layer span aggregates.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main(name, variant, mode, workdir, size):
    import workloads

    tracer = None
    if mode == "traced":
        import spans
        tracer = spans.Tracer().install()
    jobs = workloads.WORKLOADS[name](variant, workdir, size)
    report = {"setup_s": time.perf_counter() - START}
    if mode != "setup":
        if tracer:
            tracer.phase = "verdict"
        t0 = time.perf_counter()
        outputs = jobs()
        report["verdict_s"] = time.perf_counter() - t0
        report["outputs"] = outputs
        if tracer:
            tracer.phase = "done"
            report["spans"] = tracer.summary()
            report["bookkeeping_s"] = tracer.bookkeeping_s
            report["attributed_s"] = tracer.self_total("verdict")
            report["missing_spans"] = tracer.missing
    report["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))


if __name__ == "__main__":
    if len(sys.argv) != 6 or sys.argv[3] not in ("setup", "jobs", "traced"):
        sys.exit(__doc__)
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4],
         sys.argv[5])
