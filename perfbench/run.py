#!/usr/bin/env python3
"""Builds and runs one workload of the ccsql benchmark (see README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout: the repository root is the parent of
this script's directory.  The benchmark binary is built from the checkout's
sources into the build directory ($CARGO_TARGET_DIR, relative to the root,
else .bench_build), incrementally on later runs.  The binary's stdout is
passed through; its last line is the result object.  Extra arguments after
the four above (for example --expect, used by selftest.py) go to the binary
unchanged.
"""

import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if os.path.isabs(base) or os.path.normpath(base).startswith(".."):
        base = ".bench_build"  # never write outside the checkout
    return os.path.join(ROOT, base, "perfbench")


def build(out_dir):
    """Configures once, then builds the binary incrementally."""
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "ccsql_perf",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                fail(f"build timed out; see {log_path}")
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build failed ({' '.join(cmd[:2])}); see {log_path}")
    return os.path.join(out_dir, "ccsql_perf")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the library and benchmark sources (the checkout need not
    be a git repository, so this identifies the code measured)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def arg_value(args, flag):
    if flag in args:
        i = args.index(flag)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def main(argv):
    args = argv[1:]
    for flag in ("--workload", "--seed", "--seconds", "--trace"):
        if arg_value(args, flag) is None:
            print(__doc__, file=sys.stderr)
            fail(f"missing {flag}")
    if not os.path.exists(os.path.join(ROOT, "src", "core", "flow.hpp")):
        fail(f"no ccsql sources under {ROOT}/src; run from a full checkout")

    out_dir = build_dir()
    binary = build(out_dir)
    cmd = [binary, *args, "--git-sha", git_sha(),
           "--source-digest", source_digest()]
    if arg_value(args, "--trace") == "1":
        trace_dir = os.path.join(out_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        name = "{}-seed{}.jsonl".format(arg_value(args, "--workload"),
                                        arg_value(args, "--seed"))
        cmd += ["--trace-out", os.path.join(trace_dir, name)]
    # The program runs in its default configuration: no tracer, no engine
    # switches, no job-count override from the environment.
    env = {k: v for k, v in os.environ.items() if not k.startswith("CCSQL_")}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail(f"benchmark exited with {proc.returncode}")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("benchmark printed no result line")
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
