#!/usr/bin/env python3
"""Builds the PerfDojo tuning benchmark from the checkout's sources and runs it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload edges_walk --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR (default .bench_build) and is reused by
later runs. serve_tune's cache directories live under <build>/scratch. The
last line of standard output is the benchmark's JSON result; the exit code is
the benchmark's (non-zero when a check failed or the build did not succeed).
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run must end within 180 s; the benchmark itself stops measuring long
# before this, so hitting it means something hangs.
RUN_TIMEOUT_S = 170


def build(build_dir, targets):
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        jobs = str(min(os.cpu_count() or 1, 4))
        steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target"] + targets)
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % " ".join(cmd))
                return False
    return True


def main(argv):
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    self_test = "--self-test" in argv
    if not build(build_dir, ["perfbench_tests"] if self_test else ["perfbench"]):
        return 1
    if self_test:
        cmd = [os.path.join(build_dir, "perfbench_tests")]
    else:
        scratch = os.path.join(build_dir, "scratch")
        os.makedirs(scratch, exist_ok=True)
        cmd = [os.path.join(build_dir, "perfbench")] + argv + [
            "--root", os.getcwd(), "--scratch", scratch]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
