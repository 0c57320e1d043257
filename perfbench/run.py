#!/usr/bin/env python3
"""Builds and runs one run of the end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload hot_3t --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. It configures and builds perfbench/ as
its own CMake project (Release) in .bench_build/perfbench, runs the program
in a fresh working directory under .bench_build that it deletes on exit,
failure included, and passes the program's report through: the last line
of standard output is the run's JSON result. Every DQMO_* environment
variable is removed before building and running, so no engine knob leaks in.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")

_child = None


def _on_signal(signum, _frame):
    raise SystemExit(128 + signum)


def _run(cmd, env, **kwargs):
    """Runs a child to completion; a signal to us stops it first."""
    global _child
    _child = subprocess.Popen(cmd, env=env, **kwargs)
    try:
        return _child.wait()
    finally:
        if _child.poll() is None:
            _child.terminate()
            try:
                _child.wait(timeout=10)
            except subprocess.TimeoutExpired:
                _child.kill()
                _child.wait()
        _child = None


def _commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def _build(env):
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            if ("CMAKE_HOME_DIRECTORY:INTERNAL=" + HERE) not in f.read():
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
    if not os.path.isfile(cache):
        rc = _run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"], env, stdout=sys.stderr)
        if rc != 0:
            return rc
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return _run(["cmake", "--build", BUILD_DIR, "-j", jobs,
                 "--target", "perfbench"], env, stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no src/ next to perfbench/; run from a full "
              "checkout", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if not k.startswith("DQMO_")}
    rc = _build(env)
    if rc != 0:
        print("perfbench: build failed", file=sys.stderr)
        return rc or 1

    workdir = os.path.join(ROOT, ".bench_build", "run-%d" % os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.flush()
    try:
        return _run([BINARY, "--workload", args.workload,
                     "--seed", str(args.seed),
                     "--seconds", repr(args.seconds),
                     "--trace", args.trace,
                     "--workdir", workdir,
                     "--commit", _commit()], env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
