#!/usr/bin/env python3
"""Build and run the repository benchmark.

usage (from the repository root):

    python3 perfbench/run.py --workload batch-paper|serve-ingest|serve-mixed \
        --seed N --seconds S --trace 0|1

Builds, in release mode and into $CARGO_TARGET_DIR (default
`.bench_build`), the `perfbench` binary against the workspace crates and
the workspace's own `serve` binary, which the serve workloads drive; then
runs `perfbench` and passes its exit code through. The binary's last
stdout line is the JSON result; see perfbench/README.md for the
workloads and metrics.
"""

import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840  # both builds together
RUN_TIMEOUT_S = 170


def git_rev():
    """The commit being measured, or "unknown" outside a git checkout."""
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if len(top) == 2 and os.path.realpath(top[0]) == os.path.realpath(ROOT):
        return top[1]
    return "unknown"


def main():
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates"))):
        sys.stderr.write("perfbench: no tempstream workspace beside perfbench/\n")
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "tempstream-serve", "--bin", "serve"],
    ]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for build_args in builds:
        try:
            build = subprocess.run(
                ["cargo", "build", "--release", "--offline", "--quiet"]
                + build_args,
                cwd=ROOT, env=env, stdout=sys.stderr,
                timeout=max(1.0, deadline - time.monotonic()),
            )
        except (OSError, subprocess.TimeoutExpired) as e:
            sys.stderr.write(f"perfbench: build failed: {e}\n")
            return 2
        if build.returncode != 0:
            return build.returncode

    tmp = os.path.join(target, "perfbench-tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update(
        TMPDIR=tmp,
        PERFBENCH_CLK_TCK=str(os.sysconf("SC_CLK_TCK")),
        PERFBENCH_GIT_REV=git_rev(),
        PERFBENCH_RESULTS_DIR=os.path.join(target, "perfbench-results"),
    )
    exe = os.path.join(target, "release", "perfbench")
    # A session of its own, so a timeout also stops the server
    # processes the benchmark starts.
    proc = subprocess.Popen([exe] + sys.argv[1:], cwd=ROOT, env=env,
                            start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: run exceeded {RUN_TIMEOUT_S} s\n")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 3


if __name__ == "__main__":
    sys.exit(main())
