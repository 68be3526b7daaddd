#!/usr/bin/env python3
"""Build the benchmark binary from source, then run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pc-diabetes --seed 1 --seconds 30 --trace 0

The build goes to $CARGO_TARGET_DIR (default: .bench_build). Build output goes
to stderr; the last line of stdout is the binary's JSON result. Exits non-zero
without a result if the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(os.path.abspath(target), "release", "perfbench")
    return subprocess.run([binary, *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
