"""Where the traced run wraps the program, and the per-module metrics it derives.

Each public function is wrapped at every place its callers look it up:
its own module's global, the modules that import it by name, or its
class.  The benchmark only wraps; it changes no argument or result.
"""

from __future__ import annotations

import math
import os

from complexitylab import acceptance, cli, gates, geometry, holography, paulis, scrambling, thermofield

from measure import nearest_rank
from tracer import Tracer

CURVATURE_KS = (4, 6, 8, 10)
EPIDEMIC_KS = (10, 1000)
GATESET_KINDS = ("clifford2", "random")
CHECK_NAMES = (
    "wdw-rate-identity",
    "wormhole-linear-growth",
    "high-temperature-cv",
    "epidemic-logistic",
    "curvature-ensemble",
    "loschmidt-orders",
    "geodesic-residual-order",
    "gate-metric-axioms",
    "tfd-suite",
    "counting-estimates",
)


def _per_layer() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-module metric, in report order."""
    m = [
        ("paulis.dense.calls", "count", "lower"),
        ("paulis.dense.self_s", "s", "lower"),
        ("paulis.dense.bytes_computed", "B", "lower"),
        ("paulis.sample_klocal.calls", "count", "lower"),
        ("paulis.sample_klocal.self_s", "s", "lower"),
        ("paulis.enumerate_strings.calls", "count", "lower"),
        ("paulis.enumerate_strings.self_s", "s", "lower"),
        ("geometry.sample_orthogonal_pair.self_s", "s", "lower"),
    ]
    for k in CURVATURE_KS:
        m += [
            (f"geometry.curvature_ensemble.K{k}.pairs", "count", "higher"),
            (f"geometry.curvature_ensemble.K{k}.self_s", "s", "lower"),
            (f"geometry.curvature_ensemble.K{k}.flops_computed", "flop", "lower"),
        ]
    m += [
        ("gates.canonical_key.calls", "count", "lower"),
        ("gates.canonical_key.self_s", "s", "lower"),
        ("gates.phase_fix.self_s", "s", "lower"),
    ]
    for kind in GATESET_KINDS:
        m += [
            (f"gates.sphere_growth.{kind}.self_s", "s", "lower"),
            (f"gates.sphere_growth.{kind}.products", "count", "lower"),
            (f"gates.sphere_growth.{kind}.new_ratio", "frac", "higher"),
            (f"gates.sphere_growth.{kind}.ball_bytes_computed", "B", "lower"),
        ]
    m += [
        ("gates.bfs_complexity.calls", "count", "lower"),
        ("gates.bfs_complexity.self_s", "s", "lower"),
        ("gates.bfs_complexity.keys", "count", "lower"),
        ("gates.depth_of.calls", "count", "lower"),
        ("gates.depth_of.self_s", "s", "lower"),
        ("gates.depth_of.p99_s", "s", "lower"),
        ("holography.interior_volume.calls", "count", "lower"),
        ("holography.interior_volume.self_s", "s", "lower"),
        ("holography.critical_surface.calls", "count", "lower"),
        ("holography.quad.calls", "count", "lower"),
        ("holography.quad.evals", "count", "lower"),
        ("holography.quad.s", "s", "lower"),
        ("holography.brentq.calls", "count", "lower"),
        ("holography.brentq.evals", "count", "lower"),
        ("holography.warned_slices", "count", "lower"),
    ]
    for k in EPIDEMIC_KS:
        m += [
            (f"scrambling.simulate_epidemic.K{k}.self_s", "s", "lower"),
            (f"scrambling.simulate_epidemic.K{k}.trial_steps", "count", "higher"),
            (f"scrambling.simulate_epidemic.K{k}.chunks", "count", "lower"),
        ]
    m += [
        ("thermofield.scrambled_circuit_state.self_s", "s", "lower"),
        ("thermofield.partial_trace.self_s", "s", "lower"),
        ("thermofield.von_neumann_entropy.self_s", "s", "lower"),
        ("gates.haar_unitary.calls", "count", "lower"),
    ]
    m += [(f"acceptance.{name}.wall_s", "s", "lower") for name in CHECK_NAMES]
    m += [
        ("cli.main.self_s", "s", "lower"),
        ("cli.write_csv.self_s", "s", "lower"),
        ("cli.write_csv.bytes", "B", "lower"),
        ("trace.overhead_frac", "frac", "lower"),
        ("trace.accounted_frac", "frac", "higher"),
    ]
    return m


PER_LAYER = _per_layer()


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _gateset_kind(gs) -> str:
    first = gs.gates[0][0]
    return {"h1": "clifford2", "g0": "random"}.get(first, first)


def _after_dense(t: Tracer, args, kwargs, H) -> None:
    t.count("paulis.dense.bytes_computed", H.nbytes)


def _after_curvature(t: Tracer, args, kwargs, result) -> None:
    K = _arg(args, kwargs, 0, "K")
    trials = _arg(args, kwargs, 2, "trials")
    dim = 1 << K
    prefix = f"geometry.curvature_ensemble.K{K}"
    t.count(prefix + ".pairs", trials)
    # per pair: complex dim^3 product (8 dim^3 real flops) plus P - P^dag and sum |.|^2 (8 dim^2)
    t.count(prefix + ".flops_computed", trials * (8 * dim**3 + 8 * dim**2))


def _after_growth(t: Tracer, args, kwargs, ball) -> None:
    gs = _arg(args, kwargs, 0, "gs")
    prefix = f"gates.sphere_growth.{_gateset_kind(gs)}"
    n = len(gs.gates)
    expanded = ball.counts if ball.saturated else ball.counts[:-1]
    t.count(prefix + ".products", n * sum(expanded))
    t.count(prefix + ".new", ball.size - 1)
    dim2 = gs.dim * gs.dim
    # each member holds a complex dim x dim matrix (16 B an entry) and a key of two int64 grids
    t.count(prefix + ".ball_bytes_computed", ball.size * (16 * dim2 + 16 * dim2))


def _after_epidemic(t: Tracer, args, kwargs, traj) -> None:
    K = _arg(args, kwargs, 0, "K")
    steps = _arg(args, kwargs, 1, "max_steps")
    trials = _arg(args, kwargs, 2, "trials")
    chunk = getattr(scrambling, "_CHUNK", 4096)
    prefix = f"scrambling.simulate_epidemic.K{K}"
    t.count(prefix + ".trial_steps", trials * steps)
    t.count(prefix + ".chunks", math.ceil(trials / chunk))


def _after_write_csv(t: Tracer, args, kwargs, result) -> None:
    t.count("cli.write_csv.bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))


def install(t: Tracer) -> None:
    """Wrap every traced function; ``t.restore()`` undoes it."""
    t.patch([(paulis.KLocalHamiltonian, "dense")], "paulis.dense", after=_after_dense)
    t.patch([(paulis, "sample_klocal"), (geometry, "sample_klocal"), (acceptance, "sample_klocal")], "paulis.sample_klocal")
    t.patch([(paulis, "enumerate_strings"), (geometry, "enumerate_strings")], "paulis.enumerate_strings")
    t.patch([(geometry, "sample_orthogonal_pair"), (acceptance, "sample_orthogonal_pair")], "geometry.sample_orthogonal_pair")
    t.patch(
        [(geometry, "curvature_ensemble"), (acceptance, "curvature_ensemble"), (cli, "curvature_ensemble")],
        lambda a, kw: f"geometry.curvature_ensemble.K{_arg(a, kw, 0, 'K')}",
        after=_after_curvature,
    )
    t.patch([(gates, "canonical_key")], "gates.canonical_key")
    t.patch([(gates, "phase_fix"), (acceptance, "phase_fix")], "gates.phase_fix")
    t.patch(
        [(gates, "sphere_growth"), (acceptance, "sphere_growth"), (cli, "sphere_growth")],
        lambda a, kw: f"gates.sphere_growth.{_gateset_kind(_arg(a, kw, 0, 'gs'))}",
        after=_after_growth,
    )
    t.patch([(gates, "bfs_complexity"), (cli, "bfs_complexity")], "gates.bfs_complexity")
    t.patch([(gates.ComplexityBall, "depth_of")], "gates.depth_of")
    t.patch([(gates, "haar_unitary"), (thermofield, "haar_unitary")], "gates.haar_unitary")
    t.patch([(holography, "interior_volume")], "holography.interior_volume")
    t.patch([(holography, "critical_surface")], "holography.critical_surface")
    t.patch([(holography, "quad")], "holography.quad", count_arg_calls="holography.quad.evals")
    t.patch([(holography, "brentq")], "holography.brentq", count_arg_calls="holography.brentq.evals")
    t.patch(
        [(scrambling, "simulate_epidemic")],
        lambda a, kw: f"scrambling.simulate_epidemic.K{_arg(a, kw, 0, 'K')}",
        after=_after_epidemic,
    )
    for name in ("scrambled_circuit_state", "partial_trace", "von_neumann_entropy"):
        t.patch([(thermofield, name)], f"thermofield.{name}")
    t.patch([(cli, "main")], "cli.main")
    t.patch([(cli, "write_csv")], "cli.write_csv", after=_after_write_csv)
    saved = list(acceptance.CHECKS)
    acceptance.CHECKS[:] = [(name, t.wrap(fn, f"acceptance.{name}")) for name, fn in saved]
    t.on_restore(lambda: acceptance.CHECKS.__setitem__(slice(None), saved))


def derive(t: Tracer, traced_run_s: float, untraced_run_s: float) -> dict[str, float]:
    """Every PER_LAYER metric from one traced round (zero where a layer
    did not run)."""
    spans = t.summary()
    c = t.counters

    def calls(name):
        return spans[name]["calls"] if name in spans else 0

    def self_s(name):
        return spans[name]["self_s"] if name in spans else 0.0

    def total_s(name):
        return spans[name]["total_s"] if name in spans else 0.0

    out: dict[str, float] = {}
    for metric, _, _ in PER_LAYER:
        head, _, field = metric.rpartition(".")
        if field == "calls":
            out[metric] = calls(head)
        elif field == "self_s":
            out[metric] = self_s(head)
        elif field == "wall_s":
            out[metric] = total_s(head)
        elif metric == "gates.bfs_complexity.keys":
            out[metric] = t.child_counts("gates.bfs_complexity", "gates.canonical_key")
        elif metric == "gates.depth_of.p99_s":
            durations = spans.get("gates.depth_of", {}).get("durations")
            out[metric] = nearest_rank(durations, 0.99) if durations else 0.0
        elif metric == "holography.quad.s":
            out[metric] = total_s("holography.quad")
        elif field == "new_ratio":
            products = c.get(head + ".products", 0)
            out[metric] = c.get(head + ".new", 0) / products if products else 0.0
        elif metric == "trace.overhead_frac":
            out[metric] = traced_run_s / untraced_run_s - 1.0
        elif metric == "trace.accounted_frac":
            module_self = sum(v["self_s"] for k, v in spans.items() if not k.startswith("bench."))
            out[metric] = module_self / traced_run_s
        else:
            out[metric] = c.get(metric, 0)
    return out
