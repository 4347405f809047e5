#!/usr/bin/env python3
"""Builds and runs the WedgeBlock append/audit benchmark.

    python3 perfbench/run.py --workload ingest|durable_mixed|audit_read|all \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --check-determinism [--seed N]
    python3 perfbench/run.py --selftest

Run it from the repository root. The first call configures and builds
perfbench/ (the WedgeBlock libraries from src/ plus the driver) under
$CARGO_TARGET_DIR or .bench_build/; later calls only re-run the
incremental build. Build output goes to stderr, so the last stdout line
of a workload run is the driver's JSON result. Results, traced-run spans
and per-layer summaries land in <build dir>/perfbench-results/.

--workload all runs the three workloads in turn and ends with one JSON
line holding every workload's metrics, each name prefixed with its
workload. --check-determinism runs every workload twice with the same
seed and fails unless the op counts and chain transactions agree.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["ingest", "durable_mixed", "audit_read"]
RUN_TIMEOUT_S = 170
# Result-row fields that depend only on the seed and the work, never on
# timing: two runs of one seed must agree on all of them.
DETERMINISTIC = ["ops", "append_ops", "read_ops", "read_batch_ops",
                 "entries", "blocks", "chain_txs", "chain_txs_per_kentry"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(os.getcwd(), base))


def build():
    """Configures (once) and builds the driver; returns its path."""
    out = os.path.join(build_dir(), "perfbench-cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            shutil.rmtree(out, ignore_errors=True)
            raise RuntimeError("cmake configure failed")
    cmd = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]
    if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
        raise RuntimeError("build failed")
    return os.path.join(out, "perfbench")


def git_commit():
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10, check=True).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", os.path.join(build_dir(), "perfbench-results"),
           "--commit", git_commit()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"perfbench: {workload} timed out after {RUN_TIMEOUT_S} s")
        return 1, []
    return proc.returncode, [l for l in out.splitlines() if l.strip()]


def check_determinism(binary, seed):
    ok = True
    for workload in WORKLOADS:
        rows = []
        for _ in range(2):
            code, lines = run_one(binary, workload, seed, 2, 0)
            if code != 0 or len(lines) < 2:
                log(f"determinism: {workload} run failed")
                return 1
            rows.append(json.loads(lines[-2]))
        same = {k: rows[0].get(k) == rows[1].get(k) for k in DETERMINISTIC}
        status = "same" if all(same.values()) else "DIFFERENT"
        ok = ok and all(same.values())
        print(json.dumps({"workload": workload, "seed": seed,
                          "determinism": status,
                          "first": {k: rows[0].get(k) for k in DETERMINISTIC},
                          "second": {k: rows[1].get(k) for k in DETERMINISTIC}}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--check-determinism", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not (args.workload or args.check_determinism or args.selftest):
        parser.error("need --workload, --check-determinism or --selftest")

    try:
        binary = build()
    except RuntimeError as e:
        log(f"perfbench: {e}")
        return 1
    if args.selftest:
        return subprocess.call([binary, "--selftest"])
    if args.check_determinism:
        return check_determinism(binary, args.seed)

    if args.workload != "all":
        code, lines = run_one(binary, args.workload, args.seed, args.seconds,
                              args.trace)
        for line in lines:
            print(line)
        return code

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        rc, lines = run_one(binary, workload, args.seed, args.seconds,
                            args.trace)
        for line in lines[:-1]:
            print(line)
        if rc != 0 or not lines:
            code = 1
            total["correct"] = False
            continue
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
            log(f"{workload:>14} {name:<32} {metric['value']:>14.4f} "
                f"{metric['unit']}")
    print(json.dumps(total))
    return code


if __name__ == "__main__":
    sys.exit(main())
