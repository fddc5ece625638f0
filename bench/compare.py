"""Collect sets of benchmark runs and compare them.

Collect: run every workload once per seed, appending one JSON line per run
to each output file in turn, so that two sets are made alternately:

    python3 bench/compare.py collect --seeds 1-10 --out a.jsonl --out b.jsonl

Compare: per workload and end-to-end metric, print each set's median and
quartiles and the spread (Q3 - Q1) / median, and check the bounds of
``BENCHMARK.json``: every spread within its bound, the second median no
worse than the first by more than the bound, and the same share of failed
operations in both sets. The accuracies of the timed operations, which the
seed fixes, are compared seed by seed against the accuracy bounds.

    python3 bench/compare.py compare a.jsonl b.jsonl

Exits 1 when a bound does not hold. Spans: the self-time breakdown of a
traced run's span file, per span name, as a share of the run's wall time.

    python3 bench/compare.py spans .bench_runs/spans-paper-scale-s1.jsonl
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "bench", "run.py")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def collect(args) -> int:
    spec = _spec()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    for seed in _seeds(args.seeds):
        for name in workloads:
            for path in args.out:
                cmd = [sys.executable, RUN, "--workload", name, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if lines else None
                info = [json.loads(line[5:]) for line in proc.stderr.splitlines()
                        if line.startswith("info ")]
                record = {"workload": name, "seed": seed, "exit": proc.returncode,
                          "result": result, "info": info[0] if info else None}
                with open(path, "a") as fh:
                    fh.write(json.dumps(record) + "\n")
                print(f"{path}: {name} seed {seed} exit {proc.returncode}", file=sys.stderr)
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr)
    return 0


def _load(path: str) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    with open(path) as fh:
        for line in fh:
            record = json.loads(line)
            by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(args) -> int:
    spec = _spec()
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    sets = [_load(path) for path in args.files]
    ok = True
    for workload in sorted(set().union(*sets)):
        print(f"== {workload}")
        shares = []
        for runs in sets:
            runs = runs.get(workload, [])
            bad = [r for r in runs if r["exit"] != 0 or not (r["result"] or {}).get("correct")]
            if bad:
                print(f"   {len(bad)} run(s) failed or were incorrect")
                ok = False
            good = [r["result"] for r in runs if r not in bad]
            attempted = sum(r["attempted"] for r in good)
            shares.append(sum(r["failed"] for r in good) / attempted if attempted else None)
        print(f"   failed share per set: {shares}")
        if len(set(shares)) > 1:
            print("   FAIL: failed shares differ")
            ok = False
        table = []
        for name, m in metrics.items():
            row = []
            for runs in sets:
                values = [r["result"]["metrics"][name]["value"]
                          for r in runs.get(workload, []) if r["result"] and r["result"]["correct"]]
                if not values:
                    row.append(None)
                    continue
                q1, q2, q3 = _quartiles(values)
                row.append((q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf"), len(values)))
            table.append((name, m, row))
        for name, m, row in table:
            cells = []
            for stats in row:
                if stats is None:
                    cells.append("no runs")
                    continue
                q1, q2, q3, spread, n = stats
                flag = ""
                if spread > m["bound"]:
                    flag = " SPREAD>BOUND"
                    ok = False
                cells.append(f"median {q2:.6g} [{q1:.6g}, {q3:.6g}] spread {spread:.3f}"
                             f" n={n}{flag}")
            verdict = ""
            if len(row) == 2 and row[0] and row[1]:
                first, second = row[0][1], row[1][1]
                worse = (second - first) / first if m["better"] == "lower" else (first - second) / first
                verdict = f" | 2nd worse by {worse:+.3f} (bound {m['bound']})"
                if worse > m["bound"]:
                    verdict += " FAIL"
                    ok = False
            print(f"   {name:24s} " + " || ".join(cells) + verdict)
        if len(sets) == 2 and not _compare_seeded(sets, workload, metrics):
            ok = False
    print("bounds hold" if ok else "bounds DO NOT hold")
    return 0 if ok else 1


def _compare_seeded(sets, workload: str, metrics: dict) -> bool:
    """Seed by seed: how much worse set 2's accuracy on the timed operations
    is than set 1's; within the accuracy metric's bound?"""
    firsts = {r["seed"]: r["info"]["seeded_accuracy"] for r in sets[0].get(workload, [])
              if r["info"] and "seeded_accuracy" in r["info"]}
    ok = True
    for method in ("ddlic", "ddl"):
        bound = metrics[f"{method}.accuracy"]["bound"]
        drops = [(firsts[r["seed"]][method] - r["info"]["seeded_accuracy"][method])
                 / firsts[r["seed"]][method]
                 for r in sets[1].get(workload, [])
                 if r["info"] and r["seed"] in firsts and "seeded_accuracy" in r["info"]]
        if not drops:
            continue
        worst = max(drops)
        flag = " FAIL" if worst > bound else ""
        ok = ok and not flag
        print(f"   {method}.accuracy seed by seed (timed data): {len(drops)} seeds,"
              f" 2nd worse by at most {worst:+.4f} (bound {bound}){flag}")
    return ok


def self_times(spans: list[dict]) -> dict[str, tuple[int, float, float]]:
    """Per span name: (count, inclusive seconds, self seconds).

    Self time is the span's duration minus the part of it that its child
    spans cover; children running in parallel worker processes are merged
    as intervals, so overlapping children are not subtracted twice.
    """
    children: dict[str, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out: dict[str, list] = {}
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        entry = out.setdefault(s["name"], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += s["end"] - s["start"]
        entry[2] += s["end"] - s["start"] - covered
    return {name: tuple(v) for name, v in out.items()}


def spans(args) -> int:
    with open(args.file) as fh:
        records = [json.loads(line) for line in fh]
    wall = max(r["end"] for r in records) - min(r["start"] for r in records)
    stats = sorted(self_times(records).items(), key=lambda kv: -kv[1][2])
    print(f"{'span':40s} {'calls':>7s} {'inclusive s':>12s} {'self s':>9s} {'self/wall':>9s}")
    for name, (count, inclusive, own) in stats:
        print(f"{name:40s} {count:7d} {inclusive:12.3f} {own:9.3f} {own / wall:9.1%}")
    print(f"wall {wall:.3f} s from the first span's start to the last span's end")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("collect", help="run workloads over seeds, one JSON line per run")
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,7")
    p.add_argument("--out", action="append", required=True, help="output file; repeat for sets")
    p.add_argument("--workload", action="append", help="default: every workload")
    p.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.set_defaults(handler=collect)
    p = sub.add_parser("compare", help="medians, quartiles and bounds of one or two sets")
    p.add_argument("files", nargs="+")
    p.set_defaults(handler=compare)
    p = sub.add_parser("spans", help="self-time breakdown of a span file")
    p.add_argument("file")
    p.set_defaults(handler=spans)
    args = parser.parse_args()
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
