#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance check
computes it: for each metric, the distance between the first and third
quartiles of its values over several seeds, as a share of their median.

    python3 perfbench/spread.py --workload mixed --seeds 1-5 [--seconds S]

Prints one row per metric (median, spread, bound from BENCHMARK.json,
and whether the spread is under a third of the bound); metrics the run
reports but does not gate are marked "not gated".
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5", help="first-last, inclusive")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    first, last = (int(x) for x in args.seeds.split("-"))
    values = {}
    for seed in range(first, last + 1):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], capture_output=True, text=True, check=True)
        lines = out.stdout.strip().split("\n")
        result = json.loads(lines[-1])
        if not result["correct"]:
            print("seed %d: incorrect result" % seed, file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        info = lines[lines.index("-- reported, not gated:") + 1:
                     lines.index("-- gated:")]
        for line in info:
            name, value = line.split()[:2]
            values.setdefault(name, []).append(float(value))
        steal = [l.split()[1] for l in lines if l.startswith("host_cpu_steal_share")]
        print("seed %d done, cpu steal share %s" % (seed, steal[0] if steal else "?"),
              file=sys.stderr)
    for name, vals in sorted(values.items()):
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4)
        spread = (q[2] - q[0]) / med if med else float("inf")
        bound = bounds.get(name, 0)
        if name not in bounds:
            verdict = "not gated"
        else:
            verdict = "ok" if spread < bound / 3 else ("within" if spread <= bound else "WIDE")
        print("%-22s median %14.6g spread %.4f bound %.2f %-9s %s" %
              (name, med, spread, bound, verdict,
               " ".join("%.4g" % v for v in vals)))


if __name__ == "__main__":
    main()
