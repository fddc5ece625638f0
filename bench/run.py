"""deepdict benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload paper-scale --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports ``deepdict`` from its
``src`` directory. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; ``--trace 1`` gives the per-layer ones
and writes the spans to ``.bench_runs/spans-<workload>-s<seed>.jsonl``. A
failed output check prints the reason and exits 1.
"""

import os

# One BLAS thread per process, set before NumPy loads: the caller's shell then
# cannot change the figures, and ``--workers 2`` runs exactly two threads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "deepdict", "__init__.py")):
        print(f"error: no deepdict sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import bench_checks
    import bench_workloads

    if args.workload not in bench_workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r};"
                     f" choose from {', '.join(bench_workloads.WORKLOADS)}")
    try:
        result = bench_workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    except bench_checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    for name, (value, unit) in result["metrics"].items():
        print(f"{args.workload} {name} = {value!r} {unit}", file=sys.stderr)
    print(f"{args.workload} attempted={result['attempted']} failed={result['failed']}",
          file=sys.stderr)
    print("info " + json.dumps(result["info"]), file=sys.stderr)
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
