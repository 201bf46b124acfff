#!/usr/bin/env python3
"""Run-to-run spread of the benchmark: run one workload on several seeds
and print, per metric, the median and the quartile spread (Q3 - Q1) over
the median, next to the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--trace 0]
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values, failed = {}, 0
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload,
                                  "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]),
                                  "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        if out.returncode != 0:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr[-800:]}")
            failed += 1
            continue
        result = json.loads(out.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        line = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            line.append(f"{name}={m['value']:.6g}")
        print(f"seed {seed}: " + " ".join(line), flush=True)
    for name, vs in values.items():
        spread = stats.quartile_spread(vs) if len(vs) >= 2 else float("nan")
        bound = bounds.get(name)
        note = "" if bound is None else f" bound {bound} (third {bound / 3:.3f})"
        print(f"{name:<32} median {stats.median(vs):.6g} spread {spread:.4f}{note}")
    print(f"failed operations: {failed}")


if __name__ == "__main__":
    main()
