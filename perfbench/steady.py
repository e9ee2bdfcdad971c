#!/usr/bin/env python3
"""Steadiness proof for the benchmark.

Runs two sets of untraced runs of the same code, interleaved run by run
(the set that goes first alternates), each run on its own seed, and
reports per workload and end-to-end metric each set's median, quartiles
and spread (interquartile range as a share of the median), and how far
the second set's median lies from the first's. It fails unless every
run is correct with no failed world, and every spread and every median
shift, in either direction, is within the metric's bound in
BENCHMARK.json. Beside every run it records the host-noise probes the
benchmark prints, so host drift can be told from a change in the
program.

Run from the root of the repository:

    python3 perfbench/steady.py
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

RUNS = 10  # runs per set and workload


def run_once(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    wall = time.time() - t0
    if p.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr}")
    res = json.loads(p.stdout.strip().splitlines()[-1])
    noise = None
    for line in p.stderr.splitlines():
        if line.startswith("perfbench: noise "):
            noise = json.loads(line[len("perfbench: noise "):])
    return {"seed": seed, "wall_s": wall, "result": res, "noise": noise}


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", default=".bench_build/perfbench/steady.json")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    # Set A uses seeds 1..RUNS, set B the next RUNS seeds, so the
    # comparison also carries seed-to-seed variation.
    runs = {w: [[], []] for w in workloads}
    for i in range(RUNS):
        order = [0, 1] if i % 2 == 0 else [1, 0]
        for w in workloads:
            for s in order:
                seed = 1 + i + s * RUNS
                r = run_once(w, seed, seconds)
                runs[w][s].append(r)
                m = r["result"]["metrics"]
                print(f"{w} set{'AB'[s]} seed {seed}: " +
                      " ".join(f"{k}={m[k]['value']:.4g}" for k in bounds) +
                      f" noise reg={r['noise']['register_loop_ms']} rnd={r['noise']['random_4mb_ms']}"
                      f" steal={r['noise']['steal_share']:.3f}"
                      f" ok={r['result']['correct']} failed={r['result']['failed']} wall={r['wall_s']:.0f}s",
                      flush=True)

    report = {"seconds": seconds, "runs": RUNS, "workloads": {}}
    ok = True
    print()
    print("| workload | metric | set | median | q1 | q3 | spread | bound | B vs A |")
    print("|---|---|---|---|---|---|---|---|---|")
    for w in workloads:
        rep = {}
        for metric, bound in bounds.items():
            rows = []
            for s in range(2):
                vals = [r["result"]["metrics"][metric]["value"] for r in runs[w][s]]
                q1, q2, q3 = quartiles(vals)
                spread = (q3 - q1) / q2
                rows.append({"median": q2, "q1": q1, "q3": q3, "spread": spread, "values": vals})
                if spread > bound:
                    ok = False
            shift = rows[1]["median"] / rows[0]["median"] - 1
            if abs(shift) > bound:
                ok = False
            rep[metric] = {"bound": bound, "sets": rows, "shift": shift}
            for s, row in enumerate(rows):
                shown = f"{shift:+.3f}" if s == 1 else ""
                print(f"| {w} | {metric} | {'AB'[s]} | {row['median']:.5g} | {row['q1']:.5g} | "
                      f"{row['q3']:.5g} | {row['spread']:.3f} | {bound} | {shown} |")
        noise = {}
        for key in ("register_loop_ms", "random_4mb_ms", "steal_share"):
            for s in range(2):
                vals = [v for r in runs[w][s] for v in (r["noise"][key] if key != "steal_share" else [r["noise"][key]])]
                q1, q2, q3 = quartiles(vals)
                noise[f"{key}.{'AB'[s]}"] = {"median": q2, "q1": q1, "q3": q3}
        rep["host_noise"] = noise
        rep["failed"] = sum(r["result"]["failed"] for s in range(2) for r in runs[w][s])
        if rep["failed"] or not all(r["result"]["correct"] for s in range(2) for r in runs[w][s]):
            ok = False
        report["workloads"][w] = rep

    print()
    print("| workload | probe | set | median | q1 | q3 |")
    print("|---|---|---|---|---|---|")
    for w in workloads:
        for k, v in report["workloads"][w]["host_noise"].items():
            probe, s = k.rsplit(".", 1)
            print(f"| {w} | {probe} | {s} | {v['median']:.4g} | {v['q1']:.4g} | {v['q3']:.4g} |")

    report["within_bounds"] = ok
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
    print(f"\nwithin bounds: {ok}; report written to {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
