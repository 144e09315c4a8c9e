#!/usr/bin/env python3
"""Builds and runs one workload of the CoolAir benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds the benchmark package
(perfbench/Cargo.toml, release profile) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs the binary with the same
arguments in a child process and passes its exit code through. Cargo's
output goes to standard error, so the last line of standard output is the
benchmark's JSON result.

The child runs pinned to one CPU, the highest-numbered one this process
may use. served_episodes' learner, monitor and event-loop threads then
hand off on one vCPU instead of waking each other across two; on a shared
2-vCPU VM that halved its round time and kept it steady where unpinned
runs swung 2x from run to run (perfbench/README.md, "Thread placement").
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build():
    """Builds the binary and returns its path; exits on a failed build."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        status = subprocess.run(cmd, env=env, stdout=sys.stderr, check=False).returncode
    except OSError as err:
        print(f"run.py: cannot start cargo: {err}", file=sys.stderr)
        sys.exit(2)
    if status != 0:
        print(f"run.py: build failed ({status})", file=sys.stderr)
        sys.exit(status if status > 0 else 2)
    return os.path.join(target, "release", "coolair-perfbench")


def pin_to_one_cpu():
    """Restricts the calling process to one of the CPUs it may use."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main():
    args = sys.argv[1:]
    binary = build()
    child = subprocess.Popen([binary] + args, preexec_fn=pin_to_one_cpu)
    try:
        sys.exit(child.wait())
    except KeyboardInterrupt:
        child.terminate()
        child.wait()
        sys.exit(130)


if __name__ == "__main__":
    main()
