"""One benchmark process: set up a workload, run it, print one JSON line.

    python3 perfbench/worker.py --mode setup --workload NAME --seed N --outdir DIR
    python3 perfbench/worker.py --mode run --workload NAME --seed N --seconds S --trace 0|1 --outdir DIR

``setup`` times importing the package and building the inputs, then
exits.  ``run`` does the same and then runs untraced rounds of the
workload's fixed work until the next round would end past ``--seconds``
(at least one round), with the host-speed calibrator on (calibration.py).
Each round's intervals are reported twice: calibrated seconds, and raw
seconds outside the calibration kernel.  With ``--trace 1`` it then runs
one more round, calibrator off, with every layer wrapped by the tracer,
and writes the spans to DIR.  run.py starts this script; it is not meant
to be called by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

_T0 = time.perf_counter()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_package():
    """Import complexitylab from this checkout's src/, and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import complexitylab

    where = os.path.dirname(os.path.abspath(complexitylab.__file__))
    if os.path.dirname(where) != src:
        raise SystemExit(f"error: complexitylab imported from {where}, not from {src}")


def metadata() -> dict:
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "threadpoolctl": _has_module("threadpoolctl"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }
    info.update(_cache_sizes())
    return info


def _has_module(name: str) -> bool:
    import importlib.util

    return importlib.util.find_spec(name) is not None


def _blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None."""
    import ctypes
    import glob

    import numpy as np

    libdir = os.path.dirname(np.__file__) + ".libs"
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cache_sizes() -> dict:
    """L2 and L3 sizes of cpu0 in bytes, as the kernel reports them."""
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return out
    for entry in entries:
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if level in ("2", "3") and size.endswith("K"):
            out[f"l{level}_bytes"] = int(size[:-1]) * 1024
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=("setup", "run"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--outdir", required=True)
    args = p.parse_args(argv)

    _import_package()
    import workloads
    from calibration import Calibrator
    from measure import Outcomes

    wl = workloads.WORKLOADS[args.workload](args.seed, args.outdir)
    setup_s = time.perf_counter() - _T0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    outcomes = Outcomes()
    rounds = []
    cal = Calibrator()
    cal.start()
    try:
        start = time.perf_counter()
        while True:
            r = wl.run_round(outcomes, cal)
            wl.check(r, outcomes)
            rounds.append(r)
            if time.perf_counter() - start + (r.wall[1] - r.wall[0]) > args.seconds:
                break
    finally:
        cal.stop()
    result = {
        "setup_s": setup_s,
        "rounds": [round_seconds(r, cal.calibrated) for r in rounds],
        "rounds_raw": [round_seconds(r, cal.raw) for r in rounds],
        "calibration": {"samples": len(cal.starts), "factor_median": statistics.median(cal.factors())},
    }
    if args.trace:
        untraced = statistics.median(r["wall_s"] for r in result["rounds_raw"])
        result["per_layer"] = traced_round(wl, outcomes, untraced, args)
    result.update(
        attempted=outcomes.attempted,
        failed=outcomes.failed,
        warned=outcomes.warned,
        notes=outcomes.notes,
        describe=wl.describe(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        meta=metadata(),
    )
    print(json.dumps(result))
    return 0


def round_seconds(r, seconds) -> dict:
    """A round's intervals as seconds, by ``seconds(start, end)``."""
    return {
        "wall_s": seconds(*r.wall),
        "op_s": [seconds(*iv) for iv in r.ops],
        "kernel_work": r.kernel_work,
        "kernel_s": sum(seconds(*iv) for iv in r.kernel),
        "probe_s": [seconds(*iv) for iv in r.probes],
    }


def traced_round(wl, outcomes, untraced_run_s: float, args) -> dict:
    import layers
    from tracer import Tracer

    t = Tracer()
    layers.install(t)
    try:
        with t.span("bench.round"):
            r = wl.run_round(outcomes)
    finally:
        t.active = False
        t.restore()
    wl.check(r, outcomes)
    for name, n in r.counters.items():
        t.count(name, n)
    t.write(os.path.join(args.outdir, f"spans-{args.workload}-seed{args.seed}.json"))
    return layers.derive(t, r.wall[1] - r.wall[0], untraced_run_s)


if __name__ == "__main__":
    sys.exit(main())
