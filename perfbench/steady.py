#!/usr/bin/env python3
"""Steadiness tool: run the benchmark over several seeds and compare run sets.

    # one set of runs: per seed, one run of every listed workload
    python3 perfbench/steady.py run --workload analyst_script --seeds 1-10 --out a.jsonl
    # spread of one set, or spread of two sets plus the shift between them
    python3 perfbench/steady.py compare a.jsonl [b.jsonl]

For every end-to-end metric of BENCHMARK.json and every workload, `compare`
prints the median, the quartiles (statistics.quantiles(values, n=4)) and the
spread (q3 - q1) / median of each set. A set passes when every spread, that
of setup_s too, is within the metric's bound; "tight" marks a spread below a
third of it. With two sets it also checks that the two medians agree: the
second may differ from the first by at most the bound, either way. Exit code
1 when a check fails. Runs are end-to-end runs (--trace 0): the per-layer set
has no bounds to compare against.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = BENCH_DIR.parent / "BENCHMARK.json"


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_sets(args, spec):
    # Seed by seed through the workloads, so a slow spell of the host spreads
    # over every workload instead of landing on one.
    with open(args.out, "a", encoding="utf-8") as out:
        for seed in parse_seeds(args.seeds):
            for workload in args.workload:
                command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                           "--trace", "0"]
                proc = subprocess.run(command, capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    sys.stderr.write(proc.stderr[-2000:])
                    print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                    return 1
                result = json.loads(lines[-1])
                out.write(json.dumps({"workload": workload, "seed": seed, "result": result}) + "\n")
                out.flush()
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", flush=True)
    return 0


def load(path):
    by_workload = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                row = json.loads(line)
                by_workload.setdefault(row["workload"], []).append(row["result"])
    return by_workload


def summary(results, name):
    values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
    if len(values) < 2:
        return None
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("inf")
    return {"n": len(values), "median": med, "q1": q1, "q3": q3, "spread": spread}


def compare(args, spec):
    sets = [load(path) for path in args.sets]
    ok = True
    for workload in sorted(set().union(*sets)):
        print(f"== {workload}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [summary(s.get(workload, []), name) for s in sets]
            if any(st is None for st in stats):
                print(f"  {name:20s} missing")
                ok = False
                continue
            cells = []
            for st in stats:
                verdict = ("tight" if st["spread"] < bound / 3 else
                           "ok" if st["spread"] <= bound else "WIDE")
                ok &= verdict != "WIDE"
                cells.append(f"med {st['median']:.6g} [{st['q1']:.6g}, {st['q3']:.6g}] "
                             f"spread {100 * st['spread']:5.1f}% {verdict}")
            line = f"  {name:20s} bound {100 * bound:4.1f}% | " + " | ".join(cells)
            if len(stats) == 2:
                a, b = stats[0]["median"], stats[1]["median"]
                shift = (b - a) / a
                verdict = "ok" if abs(shift) <= bound else "APART"
                ok &= verdict == "ok"
                line += f" | shift {100 * shift:+5.1f}% {verdict}"
            print(line)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run seeds and append results to a file")
    run.add_argument("--workload", action="append", required=True)
    run.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,3,5")
    run.add_argument("--out", required=True)
    cmp = sub.add_parser("compare", help="spread of one set, or two sets and their shift")
    cmp.add_argument("sets", nargs="+", help="one or two files written by `run`")
    args = parser.parse_args()
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    if args.command == "run":
        return run_sets(args, spec)
    if len(args.sets) > 2:
        parser.error("compare takes one or two sets")
    return compare(args, spec)


if __name__ == "__main__":
    sys.exit(main())
