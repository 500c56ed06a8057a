#!/usr/bin/env python3
"""Builds the engine from source and runs one end-to-end benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The first run configures and builds
perfbench/ (the engine library, opcqa_cli and the benchmark driver, in the
repository's stock Release configuration) into .bench_build/; later runs
only rebuild what changed. The driver then generates the workload's inputs
from the seed, measures for the given seconds, checks every answer, and
prints one report line per metric (value, unit, sample count). This script
adds the run's context (core count, load average before and after, build
type, commit) and writes the whole record to .bench_build/results/. The
last stdout line is the JSON result. A wrong answer, a failed build or a
build with OPCQA_TRACING / OPCQA_FAILPOINTS on exits non-zero without a
result line.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("serve_mixed", "cli_cold", "cli_warm", "approx_sample")
DRIVER_TIMEOUT_S = 160


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def cmake_cache():
    entries = {}
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
            for line in cache:
                key, sep, value = line.strip().partition("=")
                if sep and not key.startswith(("#", "//")):
                    entries[key.split(":")[0]] = value
    except OSError:
        pass
    return entries


def build():
    """Configures and builds the benchmark; returns the CMake cache."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target",
         "perfbench_driver", "perfbench_test", "opcqa_cli"],
    ]
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr)
        except OSError as error:
            fail("cannot run cmake: %s" % error)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    cache = cmake_cache()
    for option in ("OPCQA_TRACING", "OPCQA_FAILPOINTS", "OPCQA_SANITIZE",
                   "OPCQA_SANITIZE_THREAD"):
        if cache.get(option, "OFF").upper() in ("ON", "1", "TRUE", "YES"):
            fail("refusing to measure a build with %s on" % option, 2)
    return cache


def source_digest():
    """SHA-256 over the engine and benchmark sources, for checkouts that
    are not git repositories."""
    digest = hashlib.sha256()
    roots = ["CMakeLists.txt", "src", "examples", "perfbench"]
    for top in roots:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if "__pycache__" not in d)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def commit():
    try:
        if not os.path.isdir(os.path.join(ROOT, ".git")):
            return "unknown (not a git checkout)"
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_driver(workload, seed, seconds, trace, inject=None):
    """Runs the driver; returns (exit code, stdout lines)."""
    work_dir = os.path.join(BUILD, "work", workload)
    command = [
        os.path.join(BUILD, "perfbench_driver"),
        "--workload=" + workload, "--seed=%d" % seed,
        "--seconds=%s" % seconds, "--trace=%d" % trace,
        "--cli=" + os.path.join(BUILD, "opcqa", "examples", "opcqa_cli"),
        "--work-dir=" + work_dir,
    ]
    if inject:
        command.append("--inject=" + inject)
    # Own process group, so a timeout also stops the opcqa_cli children.
    driver = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, start_new_session=True)
    try:
        out, _ = driver.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(driver.pid, signal.SIGKILL)
        driver.wait()
        fail("driver exceeded %d s" % DRIVER_TIMEOUT_S)
    return driver.returncode, out.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    cache = build()
    load_before = os.getloadavg()
    code, lines = run_driver(args.workload, args.seed, args.seconds,
                             args.trace)
    load_after = os.getloadavg()
    if code != 0 or not lines or not lines[-1].startswith("{"):
        for line in lines:
            print(line, file=sys.stderr)
        fail("driver exited with status %d" % code, code or 1)

    context = {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": "%.2f %.2f %.2f" % load_before,
        "loadavg_after": "%.2f %.2f %.2f" % load_after,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "commit": commit(),
        "source_digest": source_digest(),
    }
    samples = {}
    for line in lines[:-1]:
        print(line)
        fields = line.split()
        if len(fields) == 4 and fields[3].startswith("n="):
            samples[fields[0]] = {"value": float(fields[1]), "unit": fields[2],
                                  "samples": int(fields[3][2:])}
    for key, value in context.items():
        print("# %s: %s" % (key, value))
    result = json.loads(lines[-1])
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "context": context, "report": samples, "result": result}
    results_dir = os.path.join(BUILD, "results")
    os.makedirs(results_dir, exist_ok=True)
    record_path = os.path.join(results_dir, "%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace))
    with open(record_path, "w") as handle:
        json.dump(record, handle, indent=1)
    print(lines[-1])


if __name__ == "__main__":
    main()
