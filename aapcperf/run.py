#!/usr/bin/env python3
"""Repository benchmark: one workload per invocation.

Builds aapc_perf and aapc_netd (Release) from the sources next to this
directory, runs the requested workload for --seconds, and passes the
program's output through. The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics; --trace 1 reports the
per-layer metrics of the traced replay instead of the end-to-end ones.

    python3 aapcperf/run.py --workload simulate --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR (relative paths resolve against the
repository root), else .bench_build; result records and span dumps go
to its results/ directory. Workloads are described in WORKLOADS.md.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["serve_hot", "serve_large", "compile_cold", "simulate",
             "serve_churn"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def source_digest():
    """sha256 over every source file the binaries are built from."""
    files = []
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, _, names in os.walk(top):
            files += [os.path.join(dirpath, n) for n in names]
    files += [os.path.join(ROOT, "examples", n)
              for n in ("aapc_netd.cpp", "workload.hpp")]
    digest = hashlib.sha256()
    for path in sorted(files):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def revision():
    """The git commit when there is one, plus the source digest."""
    commit = "none"
    try:
        # Never look above the checkout for a repository.
        env = dict(os.environ,
                   GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "git:%s src:%s" % (commit, source_digest())


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir,
                      "-j%d" % (os.cpu_count() or 1),
                      "--target", "aapc_perf", "aapc_netd"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              timeout=BUILD_TIMEOUT_S).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("error: the aapc sources (src/) are not next to "
                         "this benchmark; run it from a repository checkout\n")
        return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    if not build(build_dir):
        sys.stderr.write("error: build failed\n")
        return 1

    command = [os.path.join(build_dir, "aapc_perf"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--netd", os.path.join(build_dir, "aapc_netd"),
               "--out", os.path.join(build_dir, "results"),
               "--commit", revision()]
    sys.stdout.flush()
    proc = subprocess.Popen(command, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("error: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
