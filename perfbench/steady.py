#!/usr/bin/env python3
"""Steadiness check: run the workloads several times and compare.

    python3 perfbench/steady.py [--runs N] [--sets K] [--seconds S]
                                [--workloads a,b] [--json FILE] [--log DIR]

Runs every selected workload N times per set, alternating between the
workloads, with seeds 1..N (each set reuses the seeds). For each
workload and end-to-end metric it prints the first set's median and
quartiles (as Python's statistics.quantiles gives them), the metric's
bound from BENCHMARK.json, each set's interquartile spread as a share
of its median, and how far each later set's median moved from the
first set's in the worse direction, and whether the share of failed
operations is identical across sets. With --log, each run's standard
error (raw values, reference task, set-up times) is kept in DIR. Exits 1 when a spread or a shift
exceeds its bound, when a run is not correct, or when the failed shares
differ.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, log):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    err = open(log, "w") if log else subprocess.DEVNULL
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=err, text=True, timeout=900)
    finally:
        if log:
            err.close()
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(lines[-1])


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--json", help="write every run's result here")
    ap.add_argument("--log", help="keep every run's standard error in this directory")
    a = ap.parse_args()
    names = a.workloads.split(",")
    metrics = spec["end_to_end"]
    # results[set][workload] = list of result objects
    results = [{w: [] for w in names} for _ in range(a.sets)]
    for s in range(a.sets):
        for seed in range(1, a.runs + 1):
            for w in names:
                log = None
                if a.log:
                    os.makedirs(a.log, exist_ok=True)
                    log = os.path.join(a.log, f"set{s + 1}-{w}-seed{seed}.err")
                res = run_once(w, seed, a.seconds, log)
                results[s][w].append(res)
                print(f"set {s + 1} seed {seed} {w}: correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']}",
                      file=sys.stderr, flush=True)
    if a.json:
        with open(a.json, "w") as f:
            json.dump(results, f)
    bad = False
    for w in names:
        print(f"\n== {w}")
        shares = [sum(r["failed"] for r in results[s][w]) /
                  sum(r["attempted"] for r in results[s][w]) for s in range(a.sets)]
        ok = all(r["correct"] for s in range(a.sets) for r in results[s][w])
        if not ok or len(set(shares)) > 1:
            bad = True
        print(f"correct={ok} failed share per set: {shares}")
        print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'bound':>6} " +
              " ".join(f"{'spread' + str(k + 1):>8}" for k in range(a.sets)) + " " +
              " ".join(f"{'shift' + str(k + 1):>8}" for k in range(1, a.sets)))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            per_set = [[r["metrics"][name]["value"] for r in results[k][w]]
                       for k in range(a.sets)]
            med = statistics.median(per_set[0])
            q1, _, q3 = statistics.quantiles(per_set[0], n=4)
            spreads = []
            for vals in per_set:
                m1 = statistics.median(vals)
                v1, _, v3 = statistics.quantiles(vals, n=4)
                spreads.append((v3 - v1) / m1 if m1 else float("inf"))
            shifts = []
            for other in per_set[1:]:
                m2 = statistics.median(other)
                worse = (m2 - med) if m["better"] == "lower" else (med - m2)
                shifts.append(worse / med if med else 0.0)
            flag = ""
            if max(spreads) > bound:
                flag, bad = " SPREAD", True
            elif max(spreads) > bound / 3:
                flag = " (spread > bound/3)"
            if any(x > bound for x in shifts):
                flag, bad = flag + " SHIFT", True
            print(f"{name:28} {med:12.6g} {q1:12.6g} {q3:12.6g} {bound:>6} " +
                  " ".join(f"{x:8.4f}" for x in spreads) + " " +
                  " ".join(f"{x:8.4f}" for x in shifts) + flag)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
