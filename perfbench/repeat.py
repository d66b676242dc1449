#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each end-to-end metric.

Run from the checkout root, for example:

    python3 perfbench/repeat.py --workloads simple-oe-mem,transfer-eo-mixed \
        --seeds 1-10 --seconds 20 --out .bench_build/summary.json

For every workload and metric it prints the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread (third minus
first quartile, as a share of the median), next to the metric's bound in
BENCHMARK.json. A spread above a third of the bound is marked.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(arg):
    out = []
    for part in arg.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--out")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    summary = {}
    for w in args.workloads.split(","):
        runs = []
        for s in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(s),
                                      "--seconds", str(seconds), "--trace", "0"]
            p = subprocess.run(cmd, capture_output=True, text=True)
            if p.returncode != 0:
                print(f"{w} seed {s}: exit {p.returncode}\n{p.stderr[-2000:]}", file=sys.stderr)
                return 1
            lines = p.stdout.strip().splitlines()
            runs.append({"seed": s, "info": json.loads(lines[-2]), "result": json.loads(lines[-1])})
            print(f"{w} seed {s} done", file=sys.stderr)
        metrics = {}
        print(f"== {w} ({len(runs)} runs, {seconds} s)")
        for name in bounds:
            vals = [r["result"]["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            flag = "" if spread < bounds[name] / 3 else "  <-- above bound/3"
            print(f"   {name:20s} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
                  f"spread {spread:6.3f}  bound {bounds[name]:.2f}{flag}")
            metrics[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
        summary[w] = {"host": runs[0]["info"]["host"], "seconds": seconds,
                      "seeds": [r["seed"] for r in runs], "metrics": metrics,
                      "steal_pct": [round(r["info"]["steal_pct"], 2) for r in runs]}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
