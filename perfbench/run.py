#!/usr/bin/env python3
"""Build dsvc and the benchmark from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload checkout_cold --seed 1 --seconds 10 --trace 0

The arguments are passed to perfbench.exe unchanged (see
perfbench/WORKLOADS.md). Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. Exits non-zero without a
result when the build fails, e.g. outside a full checkout.
"""
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
DSVC = os.path.join("_build", "default", "bin", "dsvc.exe")


def main():
    if not os.path.isfile("dune-project"):
        sys.exit("perfbench: run from the repository root (no dune-project here)")
    # --cache=disabled keeps every build write inside the checkout.
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "--cache=disabled", "./perfbench/perfbench.exe", "./bin/dsvc.exe"],
        stdout=sys.stderr, stdin=subprocess.DEVNULL)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    os.execv(EXE, [EXE, "--dsvc", DSVC] + sys.argv[1:])


if __name__ == "__main__":
    main()
