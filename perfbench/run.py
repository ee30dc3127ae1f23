#!/usr/bin/env python3
"""Builds the release `flexflow` binary and the benchmark, then runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of the repository. Build output goes to
`$CARGO_TARGET_DIR` (default `.bench_build`), scratch files to
`.bench_work`. The last line of standard output is the result JSON; a
failed build or run exits non-zero without printing one.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def build(cmd, target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    build(cargo + ["-p", "flexflow", "--bin", "flexflow"], target_dir)
    build(cargo + ["--manifest-path", os.path.join("perfbench", "Cargo.toml")], target_dir)
    release = os.path.join(target_dir, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--flexflow",
        os.path.join(release, "flexflow"),
        "--work-dir",
        ".bench_work",
    ]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    finally:
        try:
            os.rmdir(".bench_work")
        except OSError:
            pass
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
