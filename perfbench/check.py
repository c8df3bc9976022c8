#!/usr/bin/env python3
"""Checks on the benchmark itself, run from the repository root.

  python3 perfbench/check.py spread [--workload W] [--seeds N] [--first-seed S]
      Runs each workload on N seeds (trace 0) and prints, for every
      end-to-end metric, the median and the quartile spread
      (Q3 - Q1) / median next to a third of the metric's bound.

  python3 perfbench/check.py determinism [--workload W] [--seed S] [--other-seed T]
      Runs each workload twice on seed S and checks that every model-clock
      metric is bitwise equal, then once on seed T and checks that it runs
      clean (correct, no failed operation).

Both take the command, workloads, run length and bounds from
BENCHMARK.json and exit non-zero when a check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run(spec, workload, seed, trace=0):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", str(trace),
    ]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    clocks = next(json.loads(l)["clocks"] for l in lines if l.startswith('{"clocks"'))
    return json.loads(lines[-1]), clocks


def workloads(spec, only):
    names = [w["name"] for w in spec["workloads"]]
    return [only] if only else names


def spread(spec, args):
    ok = True
    for w in workloads(spec, args.workload):
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, _ = run(spec, w, seed)
            if not result["correct"] or result["failed"]:
                print(f"{w} seed {seed}: correct={result['correct']} failed={result['failed']}")
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{w}:")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            v = values[name]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            share = (q3 - q1) / med if med else float("inf")
            limit = metric["bound"] / 3
            verdict = "ok" if share <= limit or name == "setup_s" else "WIDE"
            if verdict != "ok":
                ok = False
            print(f"  {name:24} median {med:<14.6g} spread {share:8.4f}  (limit {limit:.4f}) {verdict}")
            if verdict != "ok":
                print("    values: " + " ".join(f"{x:.6g}" for x in v))
    return ok


def determinism(spec, args):
    ok = True
    for w in workloads(spec, args.workload):
        first, clocks = run(spec, w, args.seed)
        second, _ = run(spec, w, args.seed)
        model = [n for n, c in clocks.items() if c == "model"]
        diff = [n for n in model
                if first["metrics"][n]["value"] != second["metrics"][n]["value"]]
        other, _ = run(spec, w, args.other_seed)
        clean = other["correct"] and other["failed"] == 0
        print(f"{w}: model-clock metrics equal on seed {args.seed}: {not diff} "
              f"({len(model)} compared{', differ: ' + ', '.join(diff) if diff else ''}); "
              f"seed {args.other_seed} clean: {clean}")
        ok = ok and not diff and clean
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="check", required=True)
    s = sub.add_parser("spread")
    s.add_argument("--workload")
    s.add_argument("--seeds", type=int, default=10)
    s.add_argument("--first-seed", type=int, default=1)
    d = sub.add_parser("determinism")
    d.add_argument("--workload")
    d.add_argument("--seed", type=int, default=1)
    d.add_argument("--other-seed", type=int, default=1009)
    args = p.parse_args()
    spec = load_spec()
    ok = spread(spec, args) if args.check == "spread" else determinism(spec, args)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
