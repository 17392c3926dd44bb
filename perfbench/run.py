"""complexitylab benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run starts fresh processes: a few
that only set up (import plus input building, for ``setup_s``) and one
that sets up and then runs the workload in a closed loop, one caller
waiting for each result, for about S seconds.  With ``--trace 0`` the
last line of standard output is a JSON object with every end-to-end
metric of BENCHMARK.json; with ``--trace 1`` the run also makes one traced
round and the JSON holds every per-layer metric instead.  Lines before it
name each metric with its unit, and a full record (metadata, operation
notes, the metrics under descriptive names) goes to .bench_out/.

Exit codes: 0 success, 1 the workload process failed, 2 bad usage or a
checkout without the package sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from measure import MIN_BEYOND, nearest_rank, samples_beyond

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("paper-suite", "gate-bfs", "wormhole-scramble")
SETUP_PROBES = 2  # extra set-up-only processes; setup_s is the median over them and the run
TIME_LIMIT_S = 170.0

# Descriptive names of the end-to-end metrics, per workload.
ALIASES = {
    "paper-suite": {
        "op_s.p50": "paper_suite.wall_s",
        "kernel_per_s": "curvature.pairs_per_s",
        "probe_s": "acceptance.gate-metric-axioms.wall_s",
    },
    "gate-bfs": {
        "kernel_per_s": "bfs.products_per_s",
        "op_s.p50": "bfs.search_s.p50",
        "op_s.p90": "bfs.search_s.p90",
        "probe_s": "bfs.query_s.p50",
    },
    "wormhole-scramble": {
        "kernel_per_s": "epidemic.K1000.trial_steps_per_s",
        "op_s.p50": "wormhole.slice_s.p50",
        "op_s.p90": "wormhole.slice_s.p90",
        "probe_s": "epidemic.K10.call_s.p50",
    },
}


def _child(args: list[str], env: dict, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: {' '.join(args[:4])}: no result before the time limit")
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: worker {' '.join(args[:4])} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _env() -> dict:
    """The child environment: BLAS threads left as they are, but never above nproc."""
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    current = env.get("OPENBLAS_NUM_THREADS")
    if current is not None and (not current.isdigit() or int(current) > nproc):
        env["OPENBLAS_NUM_THREADS"] = str(nproc)
    return env


def end_to_end(child: dict, setup_samples: list[float], rounds_key: str = "rounds") -> tuple[dict, dict]:
    """The end-to-end metrics of one untraced run, plus their sample counts.

    Times come from the calibrated rounds, or from ``rounds_raw``."""
    rounds = child[rounds_key]
    ops = [s for r in rounds for s in r["op_s"]]
    probes = [s for r in rounds for s in r["probe_s"]]
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "run_s": statistics.median(r["wall_s"] for r in rounds),
        "peak_rss_mb": child["peak_rss_mb"],
        "clean_frac": (child["attempted"] - child["failed"] - child["warned"]) / child["attempted"],
        "op_s.p50": nearest_rank(ops, 0.5),
        "op_s.p90": nearest_rank(ops, 0.9),
        "kernel_per_s": statistics.median(r["kernel_work"] / r["kernel_s"] for r in rounds),
        "probe_s": nearest_rank(probes, 0.5),
    }
    samples = {
        "setup_s": len(setup_samples),
        "run_s": len(rounds),
        "op_s": len(ops),
        "op_s.p90_beyond": samples_beyond(len(ops), 0.9),
        "probe_s": len(probes),
        "kernel_per_s": len(rounds),
    }
    return metrics, samples


def named_metrics(workload: str, e2e: dict, describe: dict) -> dict:
    """The end-to-end values under their descriptive names."""
    aliases = ALIASES[workload]
    out = {aliases[k]: v for k, v in e2e.items() if k in aliases}
    if workload == "wormhole-scramble":
        out["epidemic.K10.trial_steps_per_s"] = describe["epidemic_K10_trial_steps_per_call"] / e2e["probe_s"]
    out["failed_frac"] = 1.0 - e2e["clean_frac"]
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="complexitylab benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "complexitylab", "__init__.py")):
        print(f"error: no package sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + TIME_LIMIT_S
    outdir = os.path.join(ROOT, ".bench_out")
    os.makedirs(outdir, exist_ok=True)
    env = _env()
    common = ["--workload", args.workload, "--seed", str(args.seed), "--outdir", outdir]
    setups = [_child(["--mode", "setup"] + common, env, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    child = _child(["--mode", "run", "--seconds", str(args.seconds), "--trace", str(args.trace)] + common, env, deadline)
    setups.append(child["setup_s"])

    e2e, samples = end_to_end(child, setups)
    e2e_raw, _ = end_to_end(child, setups, "rounds_raw")
    reported = child["per_layer"] if args.trace else e2e
    missing = [m["name"] for m in wanted if m["name"] not in reported]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    aliases = ALIASES[args.workload]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_changes_inputs": args.workload != "paper-suite",
        "seconds": args.seconds,
        "trace": args.trace,
        "end_to_end": e2e,
        "end_to_end_raw": e2e_raw,
        "calibration": child["calibration"],
        "samples": samples,
        "named": named_metrics(args.workload, e2e, child["describe"]),
        "attempted": child["attempted"],
        "failed": child["failed"],
        "warned": child["warned"],
        "notes": child["notes"],
        "meta": child["meta"],
        "describe": child["describe"],
        "rounds": child["rounds"],
        "rounds_raw": child["rounds_raw"],
        "setup_samples": setups,
    }
    if args.trace:
        record["per_layer"] = child["per_layer"]
    path = os.path.join(outdir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  rounds {samples['run_s']}  record {os.path.relpath(path, ROOT)}")
    print(f"operations attempted {child['attempted']}  failed {child['failed']}  warned {child['warned']}"
          f"  failed_frac (failed + warned) {record['named']['failed_frac']:.6g}")
    for note in child["notes"][:5]:
        print(f"  note: {note}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"  calibrated times; raw in brackets; host slowdown factor {child['calibration']['factor_median']:.3f}")
    for m in spec["end_to_end"]:
        alias = aliases.get(m["name"])
        extra = f"  ({alias})" if alias else ""
        print(f"  {m['name']:<14} {e2e[m['name']]:.6g} {m['unit']}  [{e2e_raw[m['name']]:.6g}]{extra}")
    if samples["op_s.p90_beyond"] < MIN_BEYOND:
        print(f"  op_s.p90 has {samples['op_s.p90_beyond']} of {samples['op_s']} samples beyond it (< {MIN_BEYOND})")
    if args.trace:
        for m in spec["per_layer"]:
            print(f"  {m['name']:<52} {child['per_layer'][m['name']]:.6g} {m['unit']}")
    meta = child["meta"]
    print("  meta: " + ", ".join(f"{k}={v}" for k, v in meta.items()))
    result = {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {m["name"]: {"value": reported[m["name"]], "unit": units[m["name"]]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
