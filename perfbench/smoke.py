#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at a tiny
size (--smoke), untraced and traced, through the benchmark's own command.
Asserts that the last line of output is the result object with exactly
the declared metrics and units, that every correctness check passed, and
that the end-to-end metrics are positive. Exits 1 on the first failed
assertion.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(msg):
    print("smoke: FAIL: " + msg)
    sys.exit(1)


def run(bench, workload, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", str(trace), "--smoke",
    ]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if p.returncode != 0:
        fail("%s trace=%d exited %d:\n%s" % (workload, trace, p.returncode, p.stderr[-2000:]))
    lines = p.stdout.strip().splitlines()
    if not lines:
        fail("%s trace=%d printed nothing" % (workload, trace))
    return json.loads(lines[-1]), p.stdout


def check(bench, workload, trace):
    declared = bench["end_to_end"] if trace == 0 else bench["per_layer"]
    result, out = run(bench, workload, trace)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys %s" % (workload, sorted(result)))
    if result["correct"] is not True:
        fail("%s trace=%d: a correctness check failed:\n%s" % (workload, trace, out))
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        fail("%s: attempted %r" % (workload, result["attempted"]))
    if not isinstance(result["failed"], int):
        fail("%s: failed %r" % (workload, result["failed"]))
    metrics = result["metrics"]
    names = [m["name"] for m in declared]
    if sorted(metrics) != sorted(names):
        missing = set(names) - set(metrics)
        extra = set(metrics) - set(names)
        fail("%s trace=%d: missing %s, undeclared %s" % (workload, trace, missing, extra))
    for m in declared:
        got = metrics[m["name"]]
        if got["unit"] != m["unit"]:
            fail("%s: %s unit %r, declared %r" % (workload, m["name"], got["unit"], m["unit"]))
        v = got["value"]
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            fail("%s: %s value %r" % (workload, m["name"], v))
        if trace == 0 and v <= 0:
            fail("%s: end-to-end metric %s is %r" % (workload, m["name"], v))
    print("smoke: ok %-18s trace=%d (%d metrics)" % (workload, trace, len(metrics)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for m in bench["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            fail("bound of %s is %r" % (m["name"], m["bound"]))
    for name in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            check(bench, name, trace)


if __name__ == "__main__":
    main()
