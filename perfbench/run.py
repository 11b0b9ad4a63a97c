#!/usr/bin/env python3
"""Build the checked-run benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload torus-cascade --seed 1 --seconds 10 --trace 0

All arguments go to perfbench/bench.exe (see README.md).  The build's
own output goes to stderr, so the last stdout line stays the
benchmark's JSON result.  Exits non-zero, printing no result, when the
build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")


def main():
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
            cwd=ROOT,
            stdout=sys.stderr,
            timeout=850,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: cannot build: {err}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
