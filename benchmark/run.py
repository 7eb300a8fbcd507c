#!/usr/bin/env python3
"""Build the benchmark harness and run one workload in its own process.

    python3 benchmark/run.py --workload paper-grid --seed 7 --seconds 20 --trace 0

`--workload all` runs the three workloads one after another, each in its
own process. Run from the repository root. The harness is built from
source with cargo into $CARGO_TARGET_DIR (default `.bench_build`).

Stdout ends with two lines per workload: an info line (host fingerprint,
seed, digests, round and sample counts) and the result line
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are the end-to-end ones, with `--trace 1` the per-layer ones.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "harness", "Cargo.toml")
WORKLOADS = ["paper-grid", "geom-rwp-1k", "service-grid"]
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", MANIFEST]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("run.py: building the harness failed")
    return os.path.join(target_dir(), "release", "perfbench")


def host_fingerprint():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
    return {
        "cores": os.cpu_count(),
        "cpu_model": model,
        "rustc": rustc.stdout.strip() or "unknown",
        "pinned_cpu": max(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }


def pin_to_one_cpu():
    """Run the harness on one CPU. On a shared virtual host, a thread woken
    on another idle vCPU waits a host-dependent time; on one CPU the
    service-grid client and daemon hand off directly, and the
    single-threaded workloads never migrate."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_workload(binary, args, workload, host):
    tmp = os.path.join(target_dir(), "perfbench-tmp", f"{workload}-{os.getpid()}")
    cmd = [binary, "--workload", workload, "--seed", str(args.seed % 2**64),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--tmp", tmp]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, preexec_fn=pin_to_one_cpu)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"run.py: {workload} exited with {proc.returncode}")
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        sys.exit(f"run.py: {workload} printed a malformed result: {lines[-1]}")
    info["info"]["host"] = host
    print(json.dumps(info, sort_keys=True))
    print(lines[-1], flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    binary = build()
    host = host_fingerprint()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for workload in workloads:
        run_workload(binary, args, workload, host)


if __name__ == "__main__":
    main()
