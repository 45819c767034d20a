#!/usr/bin/env python3
"""End-to-end benchmark of `certa serve`: build, then run one workload.

    python3 perfbench/run.py --workload explain_cold --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The first call builds the
libraries, the `certa` CLI and the `perfbench` load generator into
$CARGO_TARGET_DIR/perfbench (default `.bench_build/perfbench`); later
calls rebuild incrementally. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. See perfbench/README.md.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("explain_cold", "explain_warm_fleet", "stream_mixed")
# A run must end within 180 s; stop a wedged one before that.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no certa source tree at {ROOT}; run from a full checkout")
    steps = [["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
              "--target", "perfbench", "certa_cli"]]
    # Configure once; the build step re-runs CMake when a CMakeLists.txt
    # changes.
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                         "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    build(build_dir)
    binary = os.path.join(build_dir, "perfbench")
    command = [
        binary,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--certa", os.path.join(build_dir, "certa", "tools", "certa"),
        "--work", os.path.join(ROOT, ".bench_run"),
    ]
    # Own session, so a wedged run's servers die with it.
    child = subprocess.Popen(command, cwd=ROOT, start_new_session=True)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
