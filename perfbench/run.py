#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload batch|stream|serve|certify \
        --seed N [--holdout-seed H] --seconds S --trace 0|1

Run from the root of a checkout.  The program is built with dune in the
release profile (the benchmark refuses a dev build) into the checkout's
own _build directory, with dune's shared cache off so nothing is written
outside the checkout.  Build output goes to stderr; the last line of
stdout is the benchmark's JSON result.

The serve workload runs pinned to one CPU: its client and its forked
server then share that CPU, which keeps the saturation rate steady from
run to run (on two CPUs it swung by a third).
"""

import os
import subprocess
import sys

TARGET = "./perfbench/main.exe"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def main():
    args = sys.argv[1:]
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "dune-project")):
        fail("run from the root of a checkout (no dune-project here)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release", TARGET],
        cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        fail(f"build failed with code {build.returncode}")
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    commit = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        rev = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=root,
                             capture_output=True, text=True)
        if rev.returncode == 0:
            commit = rev.stdout.strip()
    workload = args[args.index("--workload") + 1] if "--workload" in args[:-1] else None
    if workload == "serve":
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.stdout.flush()
    os.execv(exe, [exe, *args, "--commit", commit])


if __name__ == "__main__":
    main()
