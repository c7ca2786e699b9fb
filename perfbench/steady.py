#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steady.py [--runs 10] [--seed0 1] [--workloads a,b]
                                [--against FILE]

Runs each workload --runs times with seeds seed0, seed0+1, ... (untraced)
and prints, per metric, the median, the quartiles and the spread: the
distance between the first and third quartile as a share of the median,
as statistics.quantiles(values, n=4) gives them. A metric is steady when
its spread is below a third of its bound in BENCHMARK.json. The values
are saved to .perfbench/steady-<workload>.json; --against compares this
set's medians with a saved set's.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        sys.exit("%s seed %d exited %d: %s" % (workload, seed, p.returncode, p.stderr[-1000:]))
    return json.loads(p.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--against", default="")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    for wl in names:
        results = [run_once(bench, wl, args.seed0 + i) for i in range(args.runs)]
        incorrect = sum(1 for r in results if not r["correct"])
        failed = sum(r["failed"] for r in results)
        print("== %s: %d runs, %d not correct, %d failed operations"
              % (wl, len(results), incorrect, failed))
        values = {m["name"]: [r["metrics"][m["name"]]["value"] for r in results]
                  for m in bench["end_to_end"]}
        saved = os.path.join(ROOT, ".perfbench", "steady-%s.json" % wl)
        with open(saved, "w") as f:
            json.dump(values, f)
        prior = {}
        if args.against:
            with open(args.against.replace("{workload}", wl)) as f:
                prior = json.load(f)
        for m in bench["end_to_end"]:
            vs = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            verdict = "steady" if spread < m["bound"] / 3 else "NOT STEADY"
            line = "  %-15s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f bound %.2f %s" % (
                m["name"], med, q1, q3, spread, m["bound"], verdict)
            if m["name"] in prior:
                pmed = statistics.median(prior[m["name"]])
                worse = (med - pmed) / pmed if m["better"] == "lower" else (pmed - med) / pmed
                line += "  vs prior %+.4f %s" % (worse, "ok" if worse <= m["bound"] else "WORSE")
            print(line)


if __name__ == "__main__":
    main()
