#!/usr/bin/env python3
"""Build and run the mscp benchmark.

    python3 mscpbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 mscpbench/run.py --selftest

Run from the root of a checkout. The simulator is built from the
checkout's own sources (Release) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; the build is incremental, so only
the first run pays for it. The last line of standard output is the
result object {"correct", "attempted", "failed", "metrics"}. Traced
runs (--trace 1) also write their spans as a Chrome trace under the
build directory's traces/ folder.

--selftest builds the harness tests, runs them, and checks that
BENCHMARK.json lists exactly the metrics the binary reports.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print("mscpbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def run_quiet(cmd, log_path, timeout):
    """Run a build step, keeping its output out of our stdout."""
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(build_root(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log_path, "ab") as log:
        try:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=timeout, env=env)
        except subprocess.TimeoutExpired:
            fail("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        with open(log_path, "rb") as log:
            tail = log.read()[-4000:].decode(errors="replace")
        print(tail, file=sys.stderr)
        fail("failed: " + " ".join(cmd))


def build(name, extra_args=(), target=None):
    """Configure (once) and build into <build root>/<name>."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources at " + os.path.join(ROOT, "src"))
    out = os.path.join(build_root(), name)
    os.makedirs(out, exist_ok=True)
    log = os.path.join(out, "build.log")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release", *extra_args],
                  log, BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", out, "-j", jobs]
    if target:
        cmd += ["--target", target]
    run_quiet(cmd, log, BUILD_TIMEOUT_S)
    return out


def source_identity():
    """Git commit when the checkout is a repository, plus a digest of
    the simulator and benchmark sources either way."""
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    digest = hashlib.sha256()
    for top in ("src", "mscpbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for f in sorted(filenames):
                path = os.path.join(dirpath, f)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return commit or "none", digest.hexdigest()[:16]


def run_benchmark(args):
    out = build("release", target="mscpbench")
    commit, digest = source_identity()
    env = dict(os.environ, MSCPBENCH_GIT_COMMIT=commit,
               MSCPBENCH_SOURCE_DIGEST=digest)
    cmd = [os.path.join(out, "mscpbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode


def selftest():
    out = build("selftest", extra_args=["-DMSCPBENCH_TESTS=ON"])
    listed = subprocess.run([os.path.join(out, "mscpbench"),
                             "--list-metrics"], capture_output=True,
                            text=True, check=True).stdout.split("\n")
    reported = {"end_to_end": [], "per_layer": []}
    for line in filter(None, listed):
        kind, name, unit = line.split()
        reported[kind].append((name, unit))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ok = True
    for kind in ("end_to_end", "per_layer"):
        declared = [(m["name"], m["unit"]) for m in spec[kind]]
        if declared != reported[kind]:
            print("BENCHMARK.json %s differs from the binary's list" % kind,
                  file=sys.stderr)
            ok = False
    tests = subprocess.run([os.path.join(out, "mscpbench_tests")])
    return 0 if ok and tests.returncode == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
