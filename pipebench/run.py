#!/usr/bin/env python3
"""zooadapt pipeline benchmark.

Runs the CLI stages build, estimate, select, adapt and eval in-process on
one workload, checks every output, and prints each metric with its unit
and sample count, then one JSON result line:

    python3 pipebench/run.py --workload reference --seed 42 --seconds 45 --trace 0

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics from a separate traced pass. Run it from the repository root. Details
(every sample, the environment) go to .pipebench_out/, spans of a traced run
to .pipebench_out/<workload>-seed<seed>-trace1.spans.jsonl.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="pipebench")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="length of the timed loop of pipeline passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One BLAS thread, set before numpy loads: the stages then run on one
    # thread, and the process's CPU time is the time the stages computed.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "zooadapt" / "__init__.py").is_file():
        print(f"pipebench: no zooadapt sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness

    known = {**harness.WORKLOADS, **harness.DROPPED}
    if args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(known)}")
    detail = harness.run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), ROOT)
    for failure in detail["failures"]:
        print(f"FAILED {failure}")
    for name, m in detail["metrics"].items():
        print(f"{name:42s} {m['value']:>14.6g} {m['unit']:6s} n={m['samples']}")
    print(json.dumps({
        "correct": detail["correct"], "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in detail["metrics"].items()},
    }))
    return 0 if detail["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
