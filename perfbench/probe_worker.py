"""The ``probe`` workload's client: one interpreter, imported once, many API calls.

Run by ``run.py`` with the program's ``src`` on PYTHONPATH::

    python perfbench/probe_worker.py --seed 3 --seconds 25 [--setup-only] [--tiny]

It imports the library, makes one untimed warm-up call, prints a ``ready``
line stamped with ``time.perf_counter()`` (the end of the set-up time the
parent measures), then runs whole ladder rounds until ``--seconds`` have
passed, printing one JSON record per call with the call's wall time.
Checking happens in the parent.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
import traceback

import workloads


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    from seiffert_bounds import auxiliary, sharp

    sharp.verify_blend_bounds(10_000, seed=0)
    print(json.dumps({"ready_at": time.perf_counter(), "module": sharp.__file__}), flush=True)
    if args.setup_only:
        return 0

    sizes = workloads.TINY_SIZES if args.tiny else workloads.SIZES
    rng = random.Random(args.seed)
    deadline = time.perf_counter() + args.seconds
    i = 0
    while True:
        for call in workloads.probe_round(rng, sizes):
            t0 = time.perf_counter()
            try:
                rec = workloads.run_probe_call(sharp, auxiliary, call)
            except Exception:  # report the crash as a failed operation, keep probing
                rec = {"error": traceback.format_exc(limit=3)}
            rec["wall_s"] = time.perf_counter() - t0
            rec.update(i=i, call=call)
            print(json.dumps(rec), flush=True)
            i += 1
        if time.perf_counter() >= deadline:
            return 0


if __name__ == "__main__":
    sys.exit(main())
