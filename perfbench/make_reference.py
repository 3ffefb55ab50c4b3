"""Regenerate reference/extend_heis.json, the stored extend_heis outputs.

    PYTHONPATH=src python3 perfbench/make_reference.py

runs the full-size extend_heis job list once per input variant (two worker
processes) and stores its rows.  The gate compares every later run with
these rows (gates.REFERENCE_RTOL), so regenerate them only when a change of
the numbers is intended, and say so in that change.
"""

import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import gates
import params
from run import BLAS_ENV


def _rows(variant):
    import workloads
    return variant, workloads.extend_heis(variant, workdir=None)()


def main():
    os.environ.update(BLAS_ENV)
    with ProcessPoolExecutor(max_workers=2,
                             mp_context=get_context("spawn")) as pool:
        variants = dict(pool.map(_rows, range(params.VARIANTS)))
    os.makedirs(os.path.dirname(gates.REFERENCE_PATH), exist_ok=True)
    with open(gates.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump({"variants": {str(v): out for v, out in variants.items()}},
                  fh, indent=1)
        fh.write("\n")
    for v, out in variants.items():
        bad = [name for name, ok in gates.check("extend_heis", out, v)
               if not ok]
        if bad:
            print(f"variant {v} fails {bad}", file=sys.stderr)


if __name__ == "__main__":
    main()
