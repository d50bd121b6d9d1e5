#!/usr/bin/env python3
"""Builds and runs the BSN1 benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload ingest|read|mixed --seed N \
        --seconds S --trace 0|1

Configures perfbench/ with CMake into $CARGO_TARGET_DIR (default
.bench_build), builds bsn1_bench and bsn1_selftest, runs the self-test,
then one run of the workload. Build and self-test output goes to stderr;
stdout carries the run's report, whose last line is the JSON result.
Every file it writes stays under the build directory.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    jobs = str(min(os.cpu_count() or 1, 4))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs,
         "--target", "bsn1_bench", "bsn1_selftest"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def source_id():
    """Git commit when the checkout has one, else a digest of src/."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-sha1:" + h.hexdigest()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["ingest", "read", "mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("engine sources not found next to perfbench/", file=sys.stderr)
        return 2
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    try:
        build(build_dir)
        subprocess.run([os.path.join(build_dir, "bsn1_selftest")], check=True,
                       stdout=sys.stderr, stderr=sys.stderr, timeout=60)
    except (OSError, subprocess.SubprocessError) as e:
        print("build or self-test failed: %s" % e, file=sys.stderr)
        return 1

    work_dir = os.path.join(build_dir, "run-%d" % os.getpid())
    span_dir = os.path.join(build_dir, "spans")
    os.makedirs(span_dir, exist_ok=True)
    # Pin the engine to its coded defaults: BACKSORT_* variables would
    # change shards, flush workers, cache size or compaction tuning.
    env = {k: v for k, v in os.environ.items() if not k.startswith("BACKSORT_")}
    cmd = [os.path.join(build_dir, "bsn1_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--span-dir", span_dir,
           "--source", source_id()]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        print("benchmark run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        print("benchmark run failed (exit %d)" % proc.returncode, file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
