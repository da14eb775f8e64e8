#!/usr/bin/env python3
"""End-to-end benchmark of the Clove simulator.

Builds perfbench/ (a CMake package compiling the simulator's src/) into
.bench_build/perfbench, then runs one workload in one process:

    python3 perfbench/run.py --workload testbed_asym --seed 1 --seconds 40 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones and writes a Chrome trace to
.bench_build/traces/<workload>.trace.json.

    python3 perfbench/run.py --workload fattree8_hybrid --seed 1 --reference

prints what perfbench/references.json records for a seed: the workload's
simulated digest and the packet-exact FCTs of its inputs. It runs without a
time limit (the packet-exact run of fattree8_hybrid's inputs takes minutes).

Every CLOVE_* variable is removed from the simulator's environment: the
benchmark pins each knob in code (see perfbench/README.md).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ("testbed_asym", "fattree8_hybrid")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally. Returns the binary path."""
    if not os.path.exists(os.path.join(ROOT, "src", "harness", "experiment.hpp")):
        raise RuntimeError("simulator sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD_DIR, "perfbench")


def clean_env():
    env = {}
    for k, v in os.environ.items():
        if k.startswith("CLOVE_"):
            log(f"perfbench: clearing {k} (knobs are pinned in code)")
        else:
            env[k] = v
    return env


def recorded(workload, seed):
    """What references.json records for (workload, seed), or None."""
    with open(os.path.join(HERE, "references.json")) as f:
        refs = json.load(f)
    for r in refs["seeds"]:
        if r["seed"] == seed and workload in r["workloads"]:
            return r["workloads"][workload]
    return None


def reference_args(workload, seed):
    """Fidelity reference for a traced run: this seed's when recorded, else
    the baseline seed's (the simulator then runs that seed once more)."""
    with open(os.path.join(HERE, "references.json")) as f:
        baseline = json.load(f)["baseline_seed"]
    for s in (seed, baseline):
        rec = recorded(workload, s)
        if rec is not None:
            exact = rec["packet_exact"]
            return ["--ref-seed", str(s), "--ref-mice", repr(exact["mice_mean_fct_s"]),
                    "--ref-p99", repr(exact["p99_fct_s"])]
    return []


def check_result(line, workload, seed, digests):
    """Parses the simulator's result line. For an untraced run (digests not
    None) checks the digest against the one recorded for this seed, if any."""
    res = json.loads(line)
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError(f"unexpected result keys: {sorted(res)}")
    rec = recorded(workload, seed) if digests is not None else None
    if rec is not None:
        want = rec["digest"]
        if not digests or any(d != want for d in digests):
            log(f"perfbench: simulated digest {sorted(set(digests))} differs "
                f"from the one recorded for seed {seed}: {want}")
            res["correct"] = False
            res["failed"] = res["attempted"]
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log(f"perfbench: build failed: {e}")
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed)]
    if args.reference:
        cmd.append("--reference")
    else:
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            os.makedirs(TRACE_DIR, exist_ok=True)
            cmd += ["--trace-out",
                    os.path.join(TRACE_DIR, f"{args.workload}.trace.json")]
            cmd += reference_args(args.workload, args.seed)
    try:
        proc = subprocess.run(cmd, env=clean_env(), stdout=subprocess.PIPE,
                              text=True,
                              timeout=None if args.reference else RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        log(f"perfbench: simulator exited with code {proc.returncode}")
        return 1
    if args.reference:
        sys.stdout.write(proc.stdout)
        return 0

    digests = None if args.trace else [
        l.split()[1] for l in lines if l.startswith("digest ")]
    for l in lines[:-1]:
        print(l)
    try:
        res = check_result(lines[-1], args.workload, args.seed, digests)
    except (ValueError, KeyError) as e:
        log(f"perfbench: malformed result line: {e}")
        return 1
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
