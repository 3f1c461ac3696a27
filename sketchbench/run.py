#!/usr/bin/env python3
"""Builds and runs the time-to-sketch benchmark.

Run from the repository root:

  python3 sketchbench/run.py --workload table1 --seed 2015 --seconds 35 --trace 0
  python3 sketchbench/run.py --test

The first form configures and builds sketchbench/ (which compiles ../src)
with CMake into .bench_build/sketchbench, then runs the benchmark binary
with the given arguments. The binary prints its result object as the last
line of stdout; this script checks that the object names exactly the
metrics BENCHMARK.json declares for the mode, passes the output through and
exits with the binary's code. A failed build exits non-zero before any
result is printed. `--test` builds and runs the benchmark's own unit tests.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "sketchbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, timeout, capture=False):
    """Runs cmd in its own process group; kills the whole group on timeout.

    Returns (exit code, captured stdout or None). Build chatter goes to stderr
    so the result object stays the last line of stdout.
    """
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        stdout=subprocess.PIPE if capture else sys.stderr,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"error: {cmd[0]} timed out after {timeout}s", file=sys.stderr)
        return 1, None
    except BaseException:  # interrupted or terminated: take the children along
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("error: the Gist sources (src/) are missing", file=sys.stderr)
        return False
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        code, _ = run(configure, BUILD_TIMEOUT_S)
        if code != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    code, _ = run(["cmake", "--build", str(BUILD_DIR), "--target", target, "-j", jobs],
                  BUILD_TIMEOUT_S)
    return code == 0


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv):
    if argv == ["--test"]:
        if not build("sketchbench_test"):
            return 1
        code, _ = run([str(BUILD_DIR / "sketchbench_test")], RUN_TIMEOUT_S)
        return code

    if not build("sketchbench"):
        return 1
    binary = str(BUILD_DIR / "sketchbench")
    code, out = run([binary, *argv], RUN_TIMEOUT_S, capture=True)
    lines = (out or "").rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(out or "")
        print("error: the benchmark printed no result object", file=sys.stderr)
        return code or 1

    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--trace", default="0")
    trace = parser.parse_known_args(argv)[0].trace != "0"
    declared = declared_metrics(trace)
    if declared is not None and set(result["metrics"]) != declared:
        print("error: reported metrics differ from BENCHMARK.json: "
              f"{sorted(set(result['metrics']) ^ declared)}", file=sys.stderr)
        result["correct"] = False
        lines[-1] = json.dumps(result)
        code = code or 1
    sys.stdout.write("\n".join(lines) + "\n")
    return code


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main(sys.argv[1:]))
