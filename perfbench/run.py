#!/usr/bin/env python3
"""Build and run the titancc benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload nests --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test

Builds perfbench/main.exe with dune inside the checkout (build output
goes to stderr, the shared dune cache stays off), then
runs it with the same arguments from the checkout root.  The last line of
stdout is the result as JSON; see perfbench/main.ml for what is measured.
Outside a titancc checkout it exits with status 2 without a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    for need in ("dune-project", "lib", "bench/workloads.ml"):
        if not os.path.exists(os.path.join(ROOT, need)):
            print("perfbench: %s is not a titancc checkout (no %s)" % (ROOT, need),
                  file=sys.stderr)
            return 2
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--cache=disabled", "-j", "2",
         "./perfbench/main.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
