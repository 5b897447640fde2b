#!/usr/bin/env python3
"""Record benchmark results: every workload over several seeds.

    python3 perfbench/record.py --seeds 1-10 --out perfbench/results/NAME.json

For each workload it makes one untraced run per seed and one traced run
(first seed), each in a fresh process, from the root of the checkout. It
writes each end-to-end metric's values with their median, quartiles and
spread (quartile distance over median), the same for the ungated
metrics a run prints, the per-layer metrics, and the environment: Python
version, core count and commit. The summary printed
at the end flags any spread at or above a third of the metric's bound in
``BENCHMARK.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # The ungated metrics come as "name = value unit" lines before it.
    result["printed"] = {}
    for line in lines[:-1]:
        name, _, rest = line.partition(" = ")
        value, _, unit = rest.partition(" ")
        try:
            result["printed"][name] = (float(value), unit)
        except ValueError:
            continue
    return result


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def commit_id() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", required=True)
    parser.add_argument("--commit", default=None, help="commit measured; default git HEAD")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seeds = seed_list(args.seeds)
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {
        "commit": args.commit or commit_id(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "date": time.strftime("%Y-%m-%d"),
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    flagged = []
    for name in names:
        runs = [run_once(name, s, spec["run_seconds"], 0) for s in seeds]
        traced = run_once(name, seeds[0], spec["run_seconds"], 1)
        end_to_end = {}
        for metric, unit in ((k, v["unit"]) for k, v in runs[0]["metrics"].items()):
            end_to_end[metric] = {"unit": unit, **summarize([r["metrics"][metric]["value"] for r in runs])}
            spread = end_to_end[metric]["spread"]
            print(f"{name:14s} {metric:16s} median {end_to_end[metric]['median']:12.4f} {unit:6s} spread {spread:.4f}", flush=True)
            if spread >= bounds[metric] / 3:
                flagged.append((name, metric, spread))
        printed = {
            metric: {"unit": unit, **summarize([r["printed"][metric][0] for r in runs])}
            for metric, (_, unit) in runs[0]["printed"].items()
            if metric not in end_to_end and not metric.startswith("input ")
        }
        record["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in runs + [traced]),
            "failed": sum(r["failed"] for r in runs + [traced]),
            "end_to_end": end_to_end,
            "printed": printed,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for name, metric, spread in flagged:
        print(f"UNSTEADY {name} {metric} spread {spread:.4f} >= bound/3 ({bounds[metric] / 3:.4f})")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
