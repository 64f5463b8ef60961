#!/usr/bin/env python3
"""Builds and runs the aqudd benchmark.

    python3 perfbench/run.py --workload grover|gse|serve --seed N --seconds S --trace 0|1

Run from the repository root. Builds the harness and the `aq-served`
binary from source in release mode (into $CARGO_TARGET_DIR, default
perfbench/target), then runs the harness. Its last output line is the
result; spans and untraced end-to-end values are written to perfbench/out/.
Exits non-zero, without a result line, when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for extra in ([], ["-p", "aq-serve", "--bin", "aq-served"]):
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest, *extra],
            env=env,
            stdout=sys.stderr,
        )
        if build.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 2
    bindir = os.path.join(target, "release")
    harness = [
        os.path.join(bindir, "perfbench"),
        *sys.argv[1:],
        "--out",
        os.path.join(HERE, "out"),
        "--server",
        os.path.join(bindir, "aq-served"),
    ]
    return subprocess.run(harness).returncode


if __name__ == "__main__":
    sys.exit(main())
