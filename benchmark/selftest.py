#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of the simulator).

    python3 benchmark/selftest.py

1. The harness's unit tests (`cargo test`): metric names declared once,
   nearest-rank percentiles, digest framing, and a daemon fragment with
   one flipped byte counted as a mismatch.
2. Per workload, short runs: every exact count repeats across two traced
   runs of one seed; the seed-dependent ones change under another seed;
   the untraced run of the seed simulates the identical round 0 (same
   digest over every output field); every run is correct.
3. Every workload prints exactly the metrics BENCHMARK.json declares,
   each with its declared unit, so no name carries two meanings.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "harness", "Cargo.toml")
WORKLOADS = ["paper-grid", "geom-rwp-1k", "service-grid"]
# Counts fixed by the grid's shape, not by the seed's inputs.
STRUCTURAL = {
    "mobility.builds", "mobility.cache_hits", "mobility.cache_misses",
    "core.runs", "core.deliveries", "service.cache_hits",
    "service.cache_misses", "service.rejected",
}
# Counts that must move when the seed moves (on workloads that drive them).
SEED_DEPENDENT = ["core.contacts", "core.transmissions", "core.probe_events",
                  "mobility.contacts_built"]


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def counts(result):
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    subprocess.run(["cargo", "test", "--release", "--offline", "--quiet",
                    "--manifest-path", MANIFEST], env=env, check=True)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        info_a, traced_a = run(workload, 101, 1)
        _, traced_a2 = run(workload, 101, 1)
        info_b, traced_b = run(workload, 202, 1)
        info_u, untraced = run(workload, 101, 0)
        for trace, result in [(1, traced_a), (0, untraced)]:
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload}: trace {trace} run not correct")
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != declared[trace]:
                problems.append(f"{workload}: trace {trace} metrics differ from BENCHMARK.json")
        a, a2, b = counts(traced_a), counts(traced_a2), counts(traced_b)
        for name in a:
            if a[name] != a2[name]:
                problems.append(f"{workload}: {name} not repeatable ({a[name]} vs {a2[name]})")
        for name in SEED_DEPENDENT:
            if a[name] and a[name] == b[name]:
                problems.append(f"{workload}: {name} did not change with the seed")
        unchanged = [n for n in a if n not in STRUCTURAL and a[n] and a[n] == b[n]]
        if unchanged:
            print(f"{workload}: counts equal under both seeds: {unchanged}")
        if info_a["round0_digest"] == info_b["round0_digest"]:
            problems.append(f"{workload}: round 0 outputs did not change with the seed")
        if info_a["round0_digest"] != info_u["round0_digest"]:
            problems.append(f"{workload}: traced and untraced round 0 outputs differ")
        print(f"{workload}: checked", flush=True)
    for p in problems:
        print("FAIL", p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
