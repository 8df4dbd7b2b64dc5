#!/usr/bin/env python3
"""hashkit's benchmark: build from source, run one workload, print its result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload embedded|server|durable \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles ../src) into .bench_build/perfbench,
runs the hashkit_perfbench binary, and prints two JSON lines: the full
report with provenance (seed, machine, compiler, build type, source
version, sample counts, checks), then the result, whose "metrics" are
BENCHMARK.json's end_to_end metrics (--trace 0) or its per_layer metrics
(--trace 1; 0 for a layer the workload does not run).  Exits 0 only when
every operation and check passed.  Reads and writes only inside the
checkout.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "hashkit_perfbench")
RUN_TIMEOUT_S = 160  # for the workload itself; a run takes well under a minute


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no hashkit sources (src/) next to perfbench/; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "hashkit_perfbench", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def source_version():
    """The git sha when the checkout is a repository, and always a digest of
    the sources the benchmark builds."""
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        sha = out.stdout.strip() or None
    digest = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return sha, digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    build()

    scratch = os.path.join(ROOT, ".bench_build", "tmp", f"{args.workload}-{os.getpid()}")
    traces = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(scratch, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", scratch]
    if args.trace:
        command += ["--trace-out", os.path.join(traces, f"{args.workload}.csv")]
    # Library temp files (spill files, the paper-guard tables) stay inside
    # the checkout too.
    env = dict(os.environ, TMPDIR=scratch)
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload timed out")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail(f"workload printed nothing (exit {run.returncode})")
    report = json.loads(lines[-1])

    measured = report["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for metric in spec["per_layer" if args.trace else "end_to_end"]:
        name = metric["name"]
        if name in measured:
            if measured[name]["unit"] != metric["unit"]:
                fail(f"{name}: unit {measured[name]['unit']} is not {metric['unit']}")
            value = measured[name]["value"]
        elif args.trace:
            value = 0.0  # the layer does no work in this workload
        else:
            fail(f"workload did not measure {name}")
        metrics[name] = {"value": value, "unit": metric["unit"]}

    sha, digest = source_version()
    report["provenance"] = {
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": report.pop("compiler"),
        "build_type": report.pop("build_type"),
        "git_sha": sha,
        "source_digest": digest,
    }
    print(json.dumps(report))
    correct = bool(report["correct"]) and run.returncode == 0
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
