#!/usr/bin/env python3
"""Steadiness check and baseline recorder for the ehsim benchmark.

Runs the command in BENCHMARK.json once per (workload, seed), takes for
each metric the quartiles of its values across seeds
(`statistics.quantiles(values, n=4)`) and reports the spread
(Q3 - Q1) / median against the metric's bound: a spread must stay
below a third of the bound to count as steady (`setup_s` is exempt).

    python3 perfbench/prove.py [--workloads campaign,fleet] [--seeds 1,2,3]
                               [--trace 0|1] [--write-baseline]

`--write-baseline` stores the medians, quartiles and spreads, the host
fingerprint (nproc, rustc -V, profile, commit) and the metric registry
(units, directions, layer -> end-to-end mapping) in
perfbench/baseline.json; trace runs add the per-layer medians. Run it
from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "perfbench", "baseline.json")


def bench_config():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(cfg, workload, seed, trace):
    cmd = cfg["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(cfg["run_seconds"]), "--trace", str(trace),
    ]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print("\n".join(lines[:-1]), file=sys.stderr)
        sys.exit(f"{workload} seed {seed}: run reported correct=false")
    return result


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def host_fingerprint():
    def out(cmd):
        try:
            return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True).stdout.strip()
        except OSError:
            return None
    return {
        "nproc": os.cpu_count(),
        "rustc": out(["rustc", "-V"]),
        "profile": "release",
        "commit": out(["git", "rev-parse", "HEAD"]),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads")
    ap.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--write-baseline", action="store_true")
    args = ap.parse_args()
    cfg = bench_config()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in cfg["workloads"]]
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in cfg["end_to_end"]}

    summary, steady = {}, True
    for w in workloads:
        runs = [run_once(cfg, w, s, args.trace) for s in seeds]
        metrics = runs[0]["metrics"]
        summary[w] = {}
        print(f"\n{w}: {len(seeds)} seeds, trace {args.trace}")
        for name, first in metrics.items():
            values = [r["metrics"][name]["value"] for r in runs]
            s = summarise(values) if len(values) >= 2 else {"median": values[0]}
            s["unit"] = first["unit"]
            summary[w][name] = s
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and "spread" in s:
                ok = name == "setup_s" or s["spread"] < bound / 3
                steady &= ok
                verdict = f"bound {bound:.2f}  {'ok' if ok else 'NOT STEADY'}"
            spread = f"{s['spread']:8.2%}" if "spread" in s else ""
            print(f"  {name:32} median {s['median']:14.6g} {s['unit']:8} spread {spread}  {verdict}")
            if bound is not None:
                print("      " + " ".join(f"{v:.4g}" for v in values))

    if args.write_baseline:
        base = {}
        if os.path.exists(BASELINE):
            with open(BASELINE) as f:
                base = json.load(f)
        describe = subprocess.run(cfg["command"] + ["--describe"], cwd=ROOT, capture_output=True,
                                  text=True, env=dict(os.environ, CARGO_TARGET_DIR=os.environ.get(
                                      "CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))))
        base["host"] = host_fingerprint()
        base["run_seconds"] = cfg["run_seconds"]
        base["workloads"] = {w["name"]: w["why"] for w in cfg["workloads"]}
        base["registry"] = json.loads(describe.stdout.strip() or "{}")
        key = "per_layer" if args.trace else "end_to_end"
        base.setdefault(key, {}).update({w: {"seeds": seeds, "metrics": summary[w]} for w in workloads})
        with open(BASELINE, "w") as f:
            json.dump(base, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"\nwrote {BASELINE}")
    if not args.trace:
        print("\nall spreads below a third of their bound" if steady else "\nsome spreads too wide")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
