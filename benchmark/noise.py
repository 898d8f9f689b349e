#!/usr/bin/env python3
"""Noise accounting: run every workload of BENCHMARK.json at several seeds
and report, for each end-to-end metric, the distance between the first and
third quartile of its values as a share of their median — the spread the
metric's bound has to sit well above.

    python3 benchmark/noise.py OUT.json [--seeds 10] [--first-seed 1]
                               [--workloads a,b] [--bin PATH]

Run from the repository root. Writes every run's result line and the
spreads to OUT.json; prints a table. `--workloads` names workloads the
harness has but BENCHMARK.json does not gate on (the capacity workloads).
`--bin` runs an already built harness instead of the `command` of
BENCHMARK.json (same arguments either way).
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("out")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads")
    ap.add_argument("--bin")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = [args.bin] if args.bin else bench["command"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    result = {"run_seconds": bench["run_seconds"], "workloads": {}}
    worst = 0.0
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    for w in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            argv = command + ["--workload", w, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            t0 = time.time()
            p = subprocess.run(argv, capture_output=True, text=True)
            wall = time.time() - t0
            if p.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {p.returncode}\n{p.stdout}\n{p.stderr}")
            line = json.loads(p.stdout.strip().splitlines()[-1])
            if not line["correct"] or line["failed"]:
                sys.exit(f"{w} seed {seed}: not correct: {line}")
            runs.append({"seed": seed, "wall_s": round(wall, 2), **line})
            print(f"{w} seed {seed}: {wall:.1f} s", file=sys.stderr)
        spreads = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            spreads[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bound, "spread_over_bound": spread / bound}
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"{w:<22} {name:<20} median {median:>12.4f}  spread {100 * spread:5.2f} %"
                  f"  bound {100 * bound:4.1f} %  ({spread / bound:4.2f} of bound)")
        result["workloads"][w] = {"spreads": spreads, "runs": runs}
    result["worst_spread_over_bound"] = worst
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    print(f"worst spread over bound (setup_s aside): {worst:.2f}")


if __name__ == "__main__":
    main()
