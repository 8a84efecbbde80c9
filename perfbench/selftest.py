#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. A short run of every workload, untraced and traced, reports exactly the
   metrics BENCHMARK.json names, each with its unit, and no op fails.
2. Setting one expected fact wrong (the reach state count) turns every
   reach op into a counted failure.
3. Seeds outside 32 bits, and negative ones, are accepted.

Exits 0 when every check passes, 1 otherwise.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace, *extra, seed=1):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in (x["name"] for x in spec["workloads"]):
        for trace in (0, 1):
            r = run(w, trace)
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            where = f"{w} --trace {trace}"
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(k for k in got.keys() & expected[trace].keys()
                               if got[k] != expected[trace][k])
                problems.append(f"{where}: missing {missing}, extra {extra}, "
                                f"wrong unit {wrong}")
            bad = [k for k, v in r["metrics"].items()
                   if not isinstance(v["value"], (int, float))]
            if bad:
                problems.append(f"{where}: non-numeric values {bad}")
            if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                problems.append(f"{where}: correct={r['correct']} "
                                f"attempted={r['attempted']} "
                                f"failed={r['failed']}")
            print(f"{where}: {len(got)} metrics, "
                  f"{r['attempted']} ops, {r['failed']} failed")

    r = run("reach_v5fix", 0, "--expect", "reach.states=19742")
    if r["correct"] or r["failed"] != r["attempted"] or r["attempted"] < 1:
        problems.append(f"corrupted reach.states: correct={r['correct']} "
                        f"attempted={r['attempted']} failed={r['failed']} "
                        "(want every op failed)")
    print(f"corrupted fact: {r['failed']}/{r['attempted']} ops failed")

    for seed in (2**64 - 1, -3):
        r = run("sim_sweep", 0, seed=seed)
        if not r["correct"] or r["failed"] != 0:
            problems.append(f"sim_sweep --seed {seed}: correct="
                            f"{r['correct']} failed={r['failed']}")
        print(f"sim_sweep --seed {seed}: {r['attempted']} ops, "
              f"{r['failed']} failed")

    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
