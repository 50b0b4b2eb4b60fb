"""Benchmark entry point.

    python3 perfbench/run.py --workload dax-hit --seed 1 --seconds 24 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics from a separate traced round (see README.md).  The
run exits non-zero without a result if the simulator's sources are
missing, or if a simulated metric or per-layer count differs between
two rounds with identical inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import ROOT  # noqa: E402


def _fail(message: str, code: int) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        return _fail("--seconds must be at least 1", 2)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        return _fail(f"simulator sources not found under {ROOT}/src", 2)
    sys.path.insert(0, os.path.join(ROOT, "src"))

    from perfbench import bench, summary, workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        return _fail(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}", 2)
    try:
        if args.trace:
            result = bench.trace(workload, args.seed, args.seconds)
        else:
            result = bench.measure(workload, args.seed, args.seconds)
    except summary.DeterminismError as exc:
        return _fail(f"determinism gate failed: {exc}", 1)
    bench.write_record(
        f"run-{workload.name}-{args.seed}-trace{args.trace}.json", result)
    print("noise: " + json.dumps(result["diagnostics"], sort_keys=True,
                                 default=str))
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
