#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ with CMake into .bench_build/perfbench
(incremental after the first run; build output goes to stderr), then runs
the benchmark. Its last line of stdout is the JSON result. The exit code
is non-zero, with no result printed, when the build or the run fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def run_bounded(cmd, timeout, stdout):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, stderr=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: timed out after {timeout} s: {cmd[0]}",
              file=sys.stderr)
        return 124
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def configured_source():
    """Source directory the build tree was configured for, or None."""
    try:
        cache = (BUILD / "CMakeCache.txt").read_text()
    except OSError:
        return None
    for line in cache.splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:"):
            return line.split("=", 1)[1]
    return None


def build():
    source = ROOT / "perfbench"
    configured = configured_source()
    if configured is not None and Path(configured) != source:
        # A build tree configured for another source location: start over.
        shutil.rmtree(BUILD)
        configured = None
    steps = []
    if configured is None:
        steps.append(["cmake", "-S", str(source), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    return all(run_bounded(cmd, BUILD_TIMEOUT_S, sys.stderr) == 0
               for cmd in steps)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["bulk_snapshot", "field_batch", "archive_query"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    if args.trace == "1":
        trace_out = ROOT / ".bench_build" / (
            f"perfbench-trace-{args.workload}-{args.seed}.json")
        cmd += ["--trace-out", str(trace_out)]
    sys.stdout.flush()
    return run_bounded(cmd, RUN_TIMEOUT_S, None)


if __name__ == "__main__":
    sys.exit(main())
