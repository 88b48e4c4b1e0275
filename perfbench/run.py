#!/usr/bin/env python3
"""Build and run the SLaDe serving benchmark for one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload stream-repeat --seed 1 --seconds 35 --trace 0

It checks the pinned weights against perfbench/manifest.json, builds the
benchmark binary slade_bench (perfbench/CMakeLists.txt, which builds the
library from ../src) into $CARGO_TARGET_DIR or .bench_build, runs it, and
passes its output through. The last line of stdout is slade_bench's result object. With
--trace 1 the traced run's spans are also written as Chrome trace JSON
under the build directory.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# A run must end within 180 s; stop slade_bench a little before that.
RUN_TIMEOUT_S = 170


def fail(message):
    print("error: " + message, file=sys.stderr)
    sys.exit(2)


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_weights(manifest):
    weights_dir = os.path.join(BENCH_DIR, "weights")
    for name, want in sorted(manifest["weights"].items()):
        path = os.path.join(weights_dir, name)
        if not os.path.isfile(path):
            fail("pinned weight file missing: " + path)
        got = sha256(path)
        if got != want:
            fail("weight file %s has sha256 %s, pinned %s" % (path, got, want))
    return weights_dir


def build(build_root):
    build_dir = os.path.join(build_root, "slade_bench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "slade_bench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "slade_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(BENCH_DIR, "manifest.json")) as f:
        manifest = json.load(f)
    if args.workload not in manifest["inputs"]:
        fail("unknown workload " + args.workload)
    weights_dir = check_weights(manifest)

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                 or os.path.join(ROOT, ".bench_build"))
    binary = build(build_root)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--weights", weights_dir,
           "--expect-inputs", manifest["inputs"][args.workload]]
    if args.trace:
        traces = os.path.join(build_root, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    with subprocess.Popen(cmd, cwd=ROOT) as proc:
        def stop(signum, _frame):
            proc.kill()
            proc.wait()
            sys.exit(128 + signum)
        signal.signal(signal.SIGTERM, stop)
        signal.signal(signal.SIGINT, stop)
        try:
            code = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail("slade_bench exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
