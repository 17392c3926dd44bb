"""Command-line driver: one subcommand per experiment.

Every run writes one CSV per experiment plus a ``<name>_summary.txt`` of
``key: value`` lines (seed, wall time, headline numbers).  CSV bytes are
identical for identical (flags, seed): floats are printed with 17
significant digits and newline-terminated lines.

``--config FILE`` merges simple ``key=value`` lines (one per line, ``#``
comments allowed); explicit command-line flags win.  Flags, config values
and help all come from the option table ``COMMANDS``.  Exit codes: 0
success, 1 numeric failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import time
from typing import Callable, NamedTuple, NoReturn

import numpy as np

from . import acceptance, counting, holography, scrambling
from . import thermofield as tfd
from .gates import (
    bfs_complexity,
    cnot_pair_gateset,
    random_inverse_closed_gateset,
    sphere_growth,
    two_qubit_clifford_gateset,
)
from .geometry import PenaltySchedule, curvature_ensemble

OUTDIR_ENV = "COMPLEXITYLAB_OUTDIR"
# Ball size cap of `bfs`: a free (random) set grows 7x a layer and would
# exhaust memory by depth 8.  A layer is grown only if the ball plus its
# frontier times the gate count stays within the cap, which stops the
# default 4-pair set after depth 6 (156,865 elements).
BFS_MAX_ELEMENTS = 1_000_000


def _usage_error(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def write_csv(path: str, header: list[str], rows: list[tuple]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_summary(path: str, entries: dict) -> None:
    with open(path, "w", newline="") as fh:
        for key, value in entries.items():
            fh.write(f"{key}: {_fmt(value)}\n")


def _parse_spectrum(text: str) -> np.ndarray:
    if os.path.exists(text):
        with open(text) as fh:
            text = ",".join(line.strip() for line in fh if line.strip())
    try:
        values = [float(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]
    except ValueError as exc:
        _usage_error(f"--spectrum: cannot parse {text!r}: {exc}")
    if not values:
        _usage_error("--spectrum: no energy levels given")
    if not all(map(math.isfinite, values)):
        _usage_error(f"--spectrum: energy levels must be finite, got {text!r}")
    return np.asarray(values)


def _read_target_matrix(path: str, dim: int) -> np.ndarray:
    try:
        vals = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        _usage_error(f"--target: {exc}")
    if vals.shape != (dim, 2 * dim):
        _usage_error(f"--target: expected {dim} rows of {2 * dim} values (re,im pairs), got shape {vals.shape}")
    target = np.empty((dim, dim), dtype=complex)
    target.real, target.imag = vals[:, 0::2], vals[:, 1::2]
    return target


def _black_hole_from(opts) -> holography.BlackHoleSpec:
    if opts.mass is not None:
        return holography.BlackHoleSpec(d=opts.dim, mass=opts.mass, l_ads=opts.lads, G=opts.G)
    return holography.BlackHoleSpec(d=opts.dim, mu=opts.mu, l_ads=opts.lads, G=opts.G)


# --- subcommand handlers ----------------------------------------------------


def cmd_scramble(opts, outdir: str) -> tuple[int, dict]:
    K = opts.qubits
    traj = scrambling.simulate_epidemic(K, opts.max_steps, opts.trials, opts.seed)
    rows = []
    for tau, mean, err in traj.steps():
        rows.append(
            (
                tau,
                mean,
                err,
                K * scrambling.logistic_size(float(tau), K),
                scrambling.precursor_complexity(float(tau), K),
            )
        )
    write_csv(os.path.join(outdir, "scramble.csv"), ["tau", "mc_mean", "mc_stderr", "logistic", "precursor"], rows)
    gap = max(abs(r[1] - r[3]) / K for r in rows)
    return 0, {
        "qubits": K,
        "trials": opts.trials,
        "scrambling_time": scrambling.scrambling_time(K),
        "max_logistic_gap": gap,
        "final_mean": rows[-1][1],
    }


def _build_gateset(opts):
    if opts.gateset == "cnot":
        return cnot_pair_gateset(opts.epsilon)
    if opts.gateset == "clifford2":
        return two_qubit_clifford_gateset(opts.epsilon)
    return random_inverse_closed_gateset(2, opts.pairs, opts.seed, opts.epsilon)


def cmd_bfs(opts, outdir: str) -> tuple[int, dict]:
    gs = _build_gateset(opts)
    target = _read_target_matrix(opts.target, gs.dim) if opts.target else None
    ball = sphere_growth(gs, opts.max_depth, BFS_MAX_ELEMENTS)
    rows = list(enumerate(ball.counts))
    write_csv(os.path.join(outdir, "bfs.csv"), ["depth", "count"], rows)
    summary = {
        "gateset": opts.gateset,
        "gates": len(gs.gates),
        "reached": ball.size,
        "saturated": ball.saturated,
        "truncated": ball.truncated,
    }
    if target is not None:
        # a truncated ball is as deep as memory allows: answer from its layers alone
        max_depth = len(ball.counts) - 1 if ball.truncated else opts.max_depth
        depth = bfs_complexity(target, gs, max_depth, ball=ball)
        summary["target_depth"] = "not-found" if depth is None else depth
    return 0, summary


def cmd_curvature(opts, outdir: str) -> tuple[int, dict]:
    schedule = PenaltySchedule(k=opts.penalty_k, c=opts.penalty_c)
    result = curvature_ensemble(opts.qubits, schedule, opts.trials, opts.seed)
    write_csv(
        os.path.join(outdir, "curvature.csv"),
        ["K", "mean_R", "stderr", "trace_ratio"],
        [(opts.qubits, result.mean, result.stderr, result.trace_ratio_mean)],
    )
    return 0, {
        "qubits": opts.qubits,
        "penalty_c": opts.penalty_c,
        "trials": opts.trials,
        "mean_R": result.mean,
        "stderr": result.stderr,
        "trace_ratio": result.trace_ratio_mean,
    }


def cmd_counting(opts, outdir: str) -> tuple[int, dict]:
    report = counting.counting_report(opts.qubits, opts.epsilon)
    header = [f.name for f in dataclasses.fields(report)]
    write_csv(os.path.join(outdir, "counting.csv"), header, [dataclasses.astuple(report)])
    return 0, {"qubits": report.K, "epsilon": report.epsilon, "c_max": report.c_max}


def cmd_tfd(opts, outdir: str) -> tuple[int, dict]:
    spectrum = _parse_spectrum(opts.spectrum)
    state = tfd.tfd(spectrum, opts.beta)
    psi = tfd.evolve_tfd(state, opts.tl, opts.tr, opts.sign)
    fidelity = abs(tfd.overlap(psi, state.vector()))
    rho_l = tfd.partial_trace(psi, side="left", dims=state.dims)
    rho_r = tfd.partial_trace(psi, side="right", dims=state.dims)
    s_l = tfd.von_neumann_entropy(rho_l)
    s_r = tfd.von_neumann_entropy(rho_r)
    s_thermal = tfd.von_neumann_entropy(tfd.thermal_state(spectrum, opts.beta))
    rows = [
        ("fidelity", fidelity),
        ("entropy_left", s_l),
        ("entropy_right", s_r),
        ("entropy_thermal", s_thermal),
    ]
    H_op = np.diag(spectrum).astype(complex)
    corr_hh = tfd.two_sided_correlator(psi, H_op, H_op, dims=state.dims)
    rows.append(("corr_HH_re", corr_hh.real))
    rows.append(("corr_HH_im", corr_hh.imag))
    for i in range(min(len(spectrum), 4)):
        proj = np.zeros((len(spectrum), len(spectrum)), dtype=complex)
        proj[i, i] = 1.0
        c = tfd.two_sided_correlator(psi, proj, proj, dims=state.dims)
        rows.append((f"corr_P{i}P{i}_re", c.real))
    write_csv(os.path.join(outdir, "tfd.csv"), ["quantity", "value"], rows)
    return 0, {
        "beta": opts.beta,
        "levels": len(spectrum),
        "sign": opts.sign,
        "fidelity": fidelity,
        "entropy_left": s_l,
    }


def cmd_wormhole(opts, outdir: str) -> tuple[int, dict]:
    spec = _black_hole_from(opts)
    points = holography.volume_curve(
        spec, eta_max=opts.eta_max, eta_min=opts.eta_min, points=opts.egrid_points
    )
    rows = [
        (p.E, p.r_turn, spec.omega * p.interior_volume_per_sphere, p.boundary_time_sum)
        for p in points
    ]
    write_csv(os.path.join(outdir, "wormhole.csv"), ["E", "r_turn", "volume", "t_sum"], rows)
    r_m, v_d = holography.critical_surface(spec)
    tail = rows[-max(4, opts.egrid_points // 4) :]
    slope = float(np.polyfit([r[3] for r in tail], [r[2] for r in tail], 1)[0])
    return 0, {
        "dim": spec.d,
        "mu": spec.mu,
        "mass": spec.mass,
        "r_h": spec.r_h,
        "r_m": r_m,
        "V_d": v_d,
        "late_slope": slope,
        "late_slope_over_V_d": slope / v_d,
    }


def cmd_wdw(opts, outdir: str) -> tuple[int, dict]:
    spec = _black_hole_from(opts)
    rate = holography.wdw_action_rate(spec)
    lloyd = holography.lloyd_bound(spec, hbar=opts.hbar)
    write_csv(
        os.path.join(outdir, "wdw.csv"),
        ["d", "mu", "M", "bulk_rate", "boundary_rate", "total_rate", "lloyd_saturation"],
        [(spec.d, spec.mu, spec.mass, rate.bulk, rate.boundary, rate.total, lloyd.saturation)],
    )
    return 0, {
        "dim": spec.d,
        "mu": spec.mu,
        "mass": spec.mass,
        "total_rate": rate.total,
        "total_rate_over_2M": f"{rate.total / (2 * spec.mass):.7f}",
        "lloyd_bound": lloyd.bound,
        "lloyd_saturation": lloyd.saturation,
    }


def cmd_paper_suite(opts, outdir: str) -> tuple[int, dict]:
    results = acceptance.run_all(verbose=True)
    write_csv(
        os.path.join(outdir, "paper_suite.csv"),
        ["criterion", "status", "detail"],
        [(name, "PASS" if ok else "FAIL", detail.replace(",", ";")) for name, ok, detail in results],
    )
    failed = [name for name, ok, _ in results if not ok]
    summary = {"checks": len(results), "failed": len(failed)}
    if failed:
        summary["failing"] = ";".join(failed)
    return (1 if failed else 0), summary


# --- option table -----------------------------------------------------------


class Option(NamedTuple):
    """One flag: its value type, builtin default (None: unset), help line
    and allowed values.  A flag and a config line are both checked through
    ``type`` and ``choices``."""

    flag: str
    type: Callable[[str], object]
    default: object
    help: str
    choices: tuple[str, ...] | None = None


class Command(NamedTuple):
    """One subcommand: its handler, one-line help, --help description and options."""

    handler: Callable[[argparse.Namespace, str], tuple[int, dict]]
    help: str
    description: str
    options: tuple[Option, ...] = ()


def finite(text: str) -> float:
    """Type of a float option: nan and +-inf are refused, so none can give a silent answer."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not finite: {text!r}")
    return value


def finite_or_inf(text: str) -> float:
    """finite, or +inf: the ground-state limit of --beta."""
    return math.inf if float(text) == math.inf else finite(text)


def _black_hole_options(mu: float) -> tuple[Option, ...]:
    return (
        Option("--dim", int, 4, "bulk dimension d >= 4"),
        Option("--mu", finite, mu, "mass parameter"),
        Option("--mass", finite, None, "mass M (overrides --mu)"),
        Option("--lads", finite, 1.0, "AdS radius"),
        Option("--G", finite, 1.0, "Newton constant"),
    )


# Settable by flag or config line, after every command's own options.
_COMMON = (
    Option("--seed", int, 1729, "RNG seed"),  # fixed so default runs reproduce byte-identical CSV
    Option("--outdir", str, ".", f"output directory, ${OUTDIR_ENV} if set"),
)
_CONFIG = Option("--config", str, None, "key=value file merged under the flags")

COMMANDS = {
    "scramble": Command(
        cmd_scramble, "Monte-Carlo epidemic growth of a one-qubit perturbation",
        "Random pairings spread a one-qubit perturbation; the mean size "
        "follows s(tau)/K = e^(tau-ln K)/(1+e^(tau-ln K)) and the precursor "
        "complexity follows K ln(1+e^(tau-ln K)).  The logistic column holds "
        "K times the logistic fraction so it is directly comparable to mc_mean.  "
        "The logistic is the K~10 comparison: the discrete model doubles per "
        "step and crosses over near log2 K, so at large K the two separate.",
        (
            Option("--qubits", int, 10, "even qubit count K"),
            Option("--max-steps", int, 12, "circuit depth to simulate"),
            Option("--trials", int, 20000, "Monte-Carlo trials"),
        ),
    ),
    "bfs": Command(
        cmd_bfs, "breadth-first gate complexity over an inverse-closed gate set",
        "Counts distinct unitaries first reached at each word length; "
        "with --target reports its exact gate complexity (the shortest word). "
        "A layer that could take the ball past 10^6 elements (ball + frontier "
        "x gates) is not grown, and the ball is reported truncated.",
        (
            Option("--gateset", str, "clifford2", "gate set", ("cnot", "clifford2", "random")),
            Option("--max-depth", int, 12, "BFS depth cap"),
            Option("--epsilon", finite, 1e-6, "dedup resolution"),
            Option("--pairs", int, 4, "Haar gate pairs for --gateset random"),
            Option("--target", str, None, "CSV file of the target matrix, rows of re,im pairs"),
        ),
    ),
    "curvature": Command(
        cmd_curvature, "sectional curvature ensemble of the penalized metric",
        "Averages R = (1/3 - I(3)/4) * 2 Tr([H,D][D,H]) / (Tr D^2 Tr H^2) "
        "over Gaussian 2-local pairs; negative for I(3) > 4/3 and the raw trace "
        "ratio scales like 1/K.",
        (
            Option("--qubits", int, 8, "even qubit count K >= 4"),
            Option("--penalty-c", finite, 1.0, "penalty prefactor c"),
            Option("--penalty-k", int, 2, "locality threshold k"),
            Option("--trials", int, 100, "ensemble size"),
        ),
    ),
    "counting": Command(
        cmd_counting, "log-space counting report",
        "Group volume, eps-ball volume, unitary count (2^K/eps^2)^(4^K/2), "
        "pairing branching factor, maximum complexity 4^K(1/2+|ln eps|/ln K) and "
        "recurrence magnitudes, all as natural logs.",
        (
            Option("--qubits", int, 4, "even qubit count K"),
            Option("--epsilon", finite, 0.01, "resolution in (0,1)"),
        ),
    ),
    "tfd": Command(
        cmd_tfd, "thermofield double: evolution, entropies, correlators",
        "Builds sum_i e^(-beta E_i/2)/sqrt(Z) |i>|i>, applies the phases "
        "e^(-i E_i (tl -+ tr)), and reports fidelity, reduced entropies and "
        "two-sided correlators; the difference Hamiltonian leaves the state "
        "invariant at tl = tr, the sum does not.",
        (
            Option("--beta", finite_or_inf, 1.0, "inverse temperature >= 0"),
            Option("--spectrum", str, "0,1", "comma-separated energies or a file"),
            Option("--tl", finite, 0.0, "left boundary time"),
            Option("--tr", finite, 0.0, "right boundary time"),
            Option("--sign", str, "minus", "Hamiltonian combination", ("minus", "plus")),
        ),
    ),
    "wormhole": Command(
        cmd_wormhole, "interior maximal-volume slices of the eternal AdS black hole",
        "For f(r) = 1 - mu/r^(d-3) + r^2/l^2, integrates the interior "
        "volume and boundary anchor time of maximal slices on a geometric grid of "
        "conserved energies approaching E_c; the volume grows linearly in t_l + t_r "
        "with slope Omega_(d-2) r_m^(d-2) sqrt|f(r_m)|.",
        _black_hole_options(mu=100.0) + (
            Option("--egrid-points", int, 16, "energy grid size"),
            Option("--eta-max", finite, 0.1, "largest 1 - E/E_c"),
            Option("--eta-min", finite, 1e-5, "smallest 1 - E/E_c"),
        ),
    ),
    "wdw": Command(
        cmd_wdw, "late-time action growth of the Wheeler-DeWitt patch",
        "Bulk term -r_h^(d-1) Omega/(8 pi G l^2) plus the surface bracket "
        "evaluated at the horizon; the total equals 2M exactly and saturates the "
        "growth bound 2M/(pi hbar).",
        _black_hole_options(mu=1.0) + (Option("--hbar", finite, 1.0, "hbar for the bound"),),
    ),
    "paper-suite": Command(
        cmd_paper_suite, "run every acceptance check, one PASS/FAIL line each",
        "Runs the full acceptance suite (action-rate identity, wormhole "
        "growth, high-temperature volume rate, epidemic vs logistic, curvature "
        "ensemble, Loschmidt orders, geodesic residual, gate metric axioms, "
        "thermofield-double suite, counting estimates).  Exit 0 iff all pass.",
    ),
}


# --- argument plumbing ------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="complexitylab",
        description="Numerical laboratory: qubit scrambling, exact gate complexity, "
        "the penalized complexity metric, counting estimates, thermofield doubles, "
        "and AdS-Schwarzschild wormhole growth.",
    )
    subs = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, cmd in COMMANDS.items():
        sub = subs.add_parser(name, help=cmd.help, description=cmd.description)
        # Flags default to None so that config values can fill what is unset.
        for opt in cmd.options + _COMMON + (_CONFIG,):
            text = opt.help if opt.default is None else f"{opt.help} (default {opt.default})"
            sub.add_argument(opt.flag, type=opt.type, choices=opt.choices, default=None, help=text)
    return parser


def _load_config(path: str) -> dict[str, str]:
    if not os.path.exists(path):
        _usage_error(f"--config: no such file: {path}")
    entries = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                _usage_error(f"--config: line {lineno} is not key=value: {line!r}")
            key, value = line.split("=", 1)
            entries[key.strip().replace("-", "_")] = value.strip()
    return entries


def _merge_options(args: argparse.Namespace) -> argparse.Namespace:
    """Fill unset flags from the config file, then from the table defaults."""
    options = {opt.flag[2:].replace("-", "_"): opt for opt in COMMANDS[args.command].options + _COMMON}
    config = _load_config(args.config) if args.config else {}
    for key in config:
        if key not in options:
            _usage_error(f"--config: unknown flag {key!r} for {args.command}")
    for key, opt in options.items():
        if getattr(args, key) is not None:
            continue
        if key in config:
            try:  # the flag's own type and choices, so a config line and a flag cannot disagree
                value = opt.type(config[key])
            except ValueError:
                _usage_error(f"--config: bad value for {opt.flag}: {config[key]!r}")
            if opt.choices is not None and value not in opt.choices:
                _usage_error(f"--config: {opt.flag} must be one of {', '.join(opt.choices)}, got {value!r}")
        elif key == "outdir":
            value = os.environ.get(OUTDIR_ENV, opt.default)
        else:
            value = opt.default
        setattr(args, key, value)
    return args


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    args = _merge_options(args)
    os.makedirs(args.outdir, exist_ok=True)
    start = time.perf_counter()
    try:
        code, summary = COMMANDS[args.command].handler(args, args.outdir)
    except (ValueError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    wall = time.perf_counter() - start
    entries = {"command": args.command, "seed": args.seed}
    entries.update(summary)
    entries["wall_time_s"] = f"{wall:.3f}"
    name = args.command.replace("-", "_")
    write_summary(os.path.join(args.outdir, f"{name}_summary.txt"), entries)
    for key, value in entries.items():
        print(f"{key}: {_fmt(value)}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
