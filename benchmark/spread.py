#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, measured the way the
acceptance rule does: the command of BENCHMARK.json runs `--runs` times on
each workload, each time with another seed, and the spread of a metric is
the distance between the first and third quartile of its values as a share
of their median. Prints one markdown row per (workload, metric) with the
bound beside it. Run from anywhere; takes no input but its options."""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", help="default: all")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    values = {w: {m["name"]: [] for m in bench["end_to_end"]} for w in workloads}
    # Round-robin, so a slow minute on a shared host lands on every workload.
    for i in range(args.runs):
        for w in workloads:
            cmd = bench["command"] + [
                "--workload", w,
                "--seed", str(args.first_seed + i),
                "--seconds", str(bench["run_seconds"]),
                "--trace", "0",
            ]
            out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, (w, result)
            for name, m in result["metrics"].items():
                values[w][name].append(m["value"])
            print(f"{w} seed {args.first_seed + i} total_s "
                  f"{result['metrics']['total_s']['value']:.2f}", file=sys.stderr)

    print("| workload | metric | median | spread | bound |")
    print("|---|---|---|---|---|")
    worst = 0.0
    for w in workloads:
        for m in bench["end_to_end"]:
            v = values[w][m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
            print(f"| {w} | {m['name']} | {med:.6g} {m['unit']} | "
                  f"{100 * spread:.2f} % | {100 * m['bound']:.0f} % |")
    print(f"\nworst spread / bound (setup_s aside): {worst:.2f}")
    print("\nvalues " + json.dumps(values))


if __name__ == "__main__":
    main()
