#!/usr/bin/env python3
"""Steadiness runs: every workload once per seed, then per metric the
median, quartiles and spread (interquartile distance over median).

    python3 perfbench/steady.py [--workloads a,b] [--seeds 1-10] [--seconds S] [--out FILE]

Run from the root of a checkout. Seconds default to BENCHMARK.json's
run_seconds. Spreads are computed as statistics.quantiles(values, n=4)
gives them and are flagged when above a third of the metric's bound.
With --out, the summary is appended as one more set to a ledger entry
(JSON); when the entry then holds two or more sets, the last set's
medians are compared with the first set's against each metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    out = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.time() - t0
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({out.returncode}):\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    meta = next((json.loads(l[5:]) for l in lines if l.startswith("meta ")), {})
    return result, meta, wall


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out")
    a = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    seeds = parse_seeds(a.seeds)
    entry = {"run_seconds": a.seconds, "seeds": seeds, "workloads": {}}
    for w in a.workloads.split(","):
        values = {m: [] for m in bounds}
        walls, failed = [], 0
        for seed in seeds:
            result, meta, wall = run_once(w, seed, a.seconds)
            entry.setdefault("meta", {k: v for k, v in meta.items()
                                      if k not in ("workload", "seed", "trace")})
            walls.append(wall)
            failed += result["failed"] + (0 if result["correct"] else 1)
            for m in values:
                values[m].append(result["metrics"][m]["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{m}={values[m][-1]:.5g}" for m in values) + f" wall={wall:.1f}s", flush=True)
        summary = {}
        for m, v in values.items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
            spread = (q3 - q1) / med
            summary[m] = {"unit": units[m], "median": med, "q1": q1, "q3": q3,
                          "spread": spread, "values": v}
            flag = "" if m == "setup_s" or spread <= bounds[m] / 3 else "  <-- above bound/3"
            print(f"  {w} {m}: median {med:.5g} {units[m]}, quartiles [{q1:.5g}, {q3:.5g}], "
                  f"spread {spread:.4f} (bound {bounds[m]}){flag}", flush=True)
        entry["workloads"][w] = {"runs": len(seeds), "failed": failed,
                                 "max_wall_s": max(walls), "metrics": summary}
        print(f"  {w}: failures {failed}, slowest run {max(walls):.1f}s", flush=True)
    if a.out:
        ledger = {"sets": []}
        if os.path.exists(a.out):
            ledger = json.load(open(a.out))
        ledger["sets"].append(entry)
        compare(ledger["sets"][0], entry, bench)
        os.makedirs(os.path.dirname(a.out) or ".", exist_ok=True)
        with open(a.out, "w") as f:
            json.dump(ledger, f, indent=1)
            f.write("\n")


def compare(first, last, bench):
    """Prints how far the last set's medians moved from the first set's."""
    if first is last:
        return
    for m in bench["end_to_end"]:
        worse = 1 if m["better"] == "lower" else -1
        for w, s in last["workloads"].items():
            if w not in first["workloads"]:
                continue
            a = first["workloads"][w]["metrics"][m["name"]]["median"]
            b = s["metrics"][m["name"]]["median"]
            change = worse * (b - a) / a
            flag = "  <-- worse by more than the bound" if change > m["bound"] else ""
            print(f"  {w} {m['name']}: median {a:.5g} -> {b:.5g}, "
                  f"worse by {change:+.4f} (bound {m['bound']}){flag}")


if __name__ == "__main__":
    main()
