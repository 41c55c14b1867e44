#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --smoke

Run from the repository root. The first run configures and builds the
benchmark (e2ebench/CMakeLists.txt, Release) into .bench_build/e2e; later
runs only check that the build is up to date. Each run works in its own
scratch directory under .bench_build and removes it when done. The last
line of standard output is the result JSON object.

--smoke runs every workload once with --trace 0 and once with --trace 1
on a two-device campaign and a short serve schedule, and checks that
every metric named in BENCHMARK.json is emitted with its unit and a
finite value.
"""
import argparse
import fcntl
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "e2ebench")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "e2e")
BINARY = os.path.join(BUILD_DIR, "iotx_e2e")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def source_id():
    """The commit when the tree is a git checkout, else a digest of the
    sources the benchmark builds."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("e2ebench: no iotx sources under %s/src; run from the repository root" % ROOT)
        return False
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "e2e.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                return False
        jobs = str(os.cpu_count() or 1)
        return subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                              stdout=sys.stderr).returncode == 0


def run_once(workload, seed, seconds, trace, smoke, commit):
    """Runs the benchmark binary; returns (stdout lines, result dict)."""
    work_dir = os.path.join(BUILD_ROOT, "run-%d" % os.getpid())
    shutil.rmtree(work_dir, ignore_errors=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work_dir, "--reference-dir", os.path.join(BENCH_DIR, "reference"),
           "--commit", commit]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("e2ebench: %s timed out" % workload)
        return None, None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("e2ebench: %s exited with %d" % (workload, proc.returncode))
        return None, None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("e2ebench: %s printed no result line" % workload)
        return None, None
    return lines, result


def smoke(commit):
    """Every workload, both modes, small inputs; checks the metric set."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            _, result = run_once(workload, 1, 2, trace, True, commit)
            if result is None:
                return False
            problems = []
            if not result.get("correct"):
                problems.append("correct is false")
            metrics = result.get("metrics", {})
            expected = {m["name"]: m["unit"] for m in spec[key]}
            for name, unit in expected.items():
                got = metrics.get(name)
                if got is None:
                    problems.append("%s missing" % name)
                elif got.get("unit") != unit:
                    problems.append("%s unit %s != %s" % (name, got.get("unit"), unit))
                elif not isinstance(got.get("value"), (int, float)) or \
                        not math.isfinite(got["value"]):
                    problems.append("%s value %r" % (name, got.get("value")))
            for name in metrics:
                if name not in expected:
                    problems.append("%s not in BENCHMARK.json %s" % (name, key))
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print("smoke %-12s trace %d: %d metrics %s" % (workload, trace, len(metrics), status))
            ok = ok and not problems
    return ok


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required")
    if not build():
        return 1
    commit = source_id()
    if args.smoke:
        return 0 if smoke(commit) else 1
    lines, _ = run_once(args.workload, args.seed, args.seconds, args.trace, False, commit)
    if lines is None:
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
