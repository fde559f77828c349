#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs the built benchmark once per seed for each workload and prints, per
metric, the median of the runs and the spread: the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the bound BENCHMARK.json fixes.

    cargo build --release --offline --manifest-path perfbench/Cargo.toml
    python3 perfbench/spread.py --runs 10 [--workloads rma_pair] [--seconds 20]

Run it from the repository root. The binary is looked up in
``$CARGO_TARGET_DIR`` (default ``perfbench/target``).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--workloads", nargs="*", default=None)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    target = os.environ.get("CARGO_TARGET_DIR", "perfbench/target")
    exe = os.path.join(target, "release", "perfbench")

    worst_ok = True
    for w in workloads:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = [exe, "--workload", w, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            # The benchmark's own watchdog fires 140 s after --seconds.
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=seconds + 150)
            last = out.stdout.strip().splitlines()[-1]
            result = json.loads(last)
            if out.returncode != 0 or not result["correct"]:
                print(out.stdout, file=sys.stderr)
                sys.exit(f"{w} seed {seed}: run failed (exit {out.returncode})")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{w} ({args.runs} runs of {seconds} s)")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "ok" if spread <= bound / 3 else ("WITHIN BOUND" if spread <= bound else "OVER BOUND")
                worst_ok &= spread <= bound
            print(f"  {name:<40} median {med:>14.4f}  spread {spread:7.2%}  "
                  f"bound {bound if bound is not None else '-':>5}  {flag}")
    sys.exit(0 if worst_ok else 1)


if __name__ == "__main__":
    main()
