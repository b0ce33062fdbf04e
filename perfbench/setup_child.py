"""Set-up probe, run in a fresh interpreter by run.py.

Imports dpcover from the checkout, makes one warm-up call and writes the
workload's seeded input documents into --out, then prints the seconds this
took as JSON, with reference-task samples taken right after, outside the
timed part.  Interpreter start-up itself is not counted.
"""
from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import checkout
import inputs
import reference

REFERENCE_SAMPLES = 15


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--out", required=True)
    parser.add_argument("--cpu", type=int, default=None, help="CPU to run on")
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    t0 = time.perf_counter()
    checkout.warm_up(checkout.load_dpcover())
    inputs.write_documents(inputs.documents(args.workload, args.seed, args.size), Path(args.out))
    setup_s = time.perf_counter() - t0
    samples = [reference.sample() for _ in range(REFERENCE_SAMPLES)]
    print(json.dumps({"setup_s": setup_s, "reference_s": samples}))


if __name__ == "__main__":
    main()
