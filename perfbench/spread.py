"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--seconds S] [--trace 0|1]

For every metric it prints the median over the runs and the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound in BENCHMARK.json; a
spread above a third of the bound is flagged.  Every run's JSON line is
appended to .bench_out/spread-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from measure import quartile_spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_from(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    p.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    log = os.path.join(ROOT, ".bench_out", f"spread-{args.workload}.jsonl")
    os.makedirs(os.path.dirname(log), exist_ok=True)
    values: dict[str, list[float]] = {}
    for seed in seeds_from(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(log, "a") as fh:
            fh.write(json.dumps({"seed": seed, "seconds": seconds, **result}) + "\n")
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    for name, vals in values.items():
        med = statistics.median(vals)
        spread = quartile_spread(vals) if len(vals) >= 2 and med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or name == "setup_s" or spread <= bound / 3 else "  <-- above a third of the bound"
        print(f"{name:<16} median {med:<12.6g} spread {spread:8.4f}  bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
