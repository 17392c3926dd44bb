"""Command-line driver: one subcommand per experiment.

Each handler returns ``(header, rows, summary)``; ``main`` writes them as
``<name>.csv`` and ``<name>_summary.txt`` (``key: value`` lines of command,
summary and wall time, also printed).  Identical flags give identical CSV
bytes: floats are printed with 17 significant digits, lines end in newlines.

``--config FILE`` reads simple ``key=value`` lines (one per line, ``#``
comments allowed).  Each option's value comes from, in this order, its
flag, a config line, ``$COMPLEXITYLAB_OUTDIR`` (for ``--outdir``) and the
option table ``COMMANDS``; argparse holds the whole chain as its defaults.
Flags, config values and help all come from that table.  Exit codes: 0
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
    MIN_EPSILON,
    cnot_pair_gateset,
    random_inverse_closed_gateset,
    sphere_growth,
    two_qubit_clifford_gateset,
)
from .geometry import PenaltySchedule, curvature_ensemble
from .paulis import is_unitary

OUTDIR_ENV = "COMPLEXITYLAB_OUTDIR"
# Ball size cap of `bfs`: a free (random) set grows 7x a layer and would
# exhaust memory by depth 8.  A layer is grown only if the ball plus its
# frontier times the gate count stays within the cap, which stops the
# default 4-pair set after depth 6 (156,865 elements).
BFS_MAX_ELEMENTS = 1_000_000
Result = tuple[list[str], list[tuple], dict]


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


def _numbers(text: str) -> list[float]:
    """The comma- or semicolon-separated numbers of ``text``; ValueError if one does not parse."""
    return [float(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]


def _is_number_list(text: str) -> bool:
    try:
        return bool(_numbers(text))
    except ValueError:
        return False


def _parse_spectrum(text: str) -> np.ndarray:
    if os.path.exists(text):
        try:
            with open(text) as fh:
                text = ",".join(line.strip() for line in fh if line.strip())
        except (OSError, UnicodeDecodeError) as exc:
            _usage_error(f"--spectrum: {exc}")
    try:
        values = _numbers(text)
    except ValueError as exc:
        _usage_error(f"--spectrum: cannot parse {text!r}: {exc}")
    if not values:
        _usage_error("--spectrum: no energy levels given")
    if not all(map(math.isfinite, values)):
        _usage_error(f"--spectrum: energy levels must be finite, got {text!r}")
    if not math.isfinite(max(values) - min(values)):
        _usage_error(f"--spectrum: the spread of the energy levels overflows, got {text!r}")
    return np.asarray(values)


def _read_target_matrix(path: str, dim: int) -> np.ndarray:
    try:
        vals = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        _usage_error(f"--target: {exc}")
    if vals.shape != (dim, 2 * dim):
        _usage_error(f"--target: expected {dim} rows of {2 * dim} values (re,im pairs), got shape {vals.shape}")
    if not np.isfinite(vals).all():
        _usage_error("--target: entries must be finite")
    target = np.empty((dim, dim), dtype=complex)
    target.real, target.imag = vals[:, 0::2], vals[:, 1::2]
    if not is_unitary(target):
        _usage_error("--target: matrix is not unitary")
    return target


def _black_hole_from(opts) -> holography.BlackHoleSpec:
    if opts.mass is not None:
        return holography.BlackHoleSpec(d=opts.dim, mass=opts.mass, l_ads=opts.lads, G=opts.G)
    return holography.BlackHoleSpec(d=opts.dim, mu=opts.mu, l_ads=opts.lads, G=opts.G)


def _require_finite(entries) -> None:
    """Raise ValueError naming the first (name, value) entry whose value is a non-finite float."""
    for name, value in entries:
        if isinstance(value, (float, np.floating)) and not math.isfinite(value):
            raise ValueError(f"{name} is not finite: {value}")


# --- subcommand handlers ----------------------------------------------------


def cmd_scramble(opts) -> Result:
    K = opts.qubits
    traj = scrambling.simulate_epidemic(K, opts.max_steps, opts.trials, opts.seed)
    rows = [
        (tau, mean, err, K * scrambling.logistic_size(float(tau), K), scrambling.precursor_complexity(float(tau), K))
        for tau, mean, err in traj.steps()
    ]
    gap = max(abs(r[1] - r[3]) / K for r in rows)
    return ["tau", "mc_mean", "mc_stderr", "logistic", "precursor"], rows, {
        "seed": opts.seed,
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


def cmd_bfs(opts) -> Result:
    gs = _build_gateset(opts)
    target = _read_target_matrix(opts.target, gs.dim) if opts.target else None
    ball = sphere_growth(gs, opts.max_depth, BFS_MAX_ELEMENTS)
    summary = {"seed": opts.seed} if opts.gateset == "random" else {}
    summary |= {
        "gateset": opts.gateset,
        "gates": len(gs.gates),
        "reached": ball.size,
        "saturated": ball.saturated,
        "truncated": ball.truncated,
    }
    if target is not None:
        # the ball holds every word to --max-depth, or all the memory allows
        depth = ball.depth_of(target)
        summary["target_depth"] = "not-found" if depth is None else depth
    return ["depth", "count"], list(enumerate(ball.counts)), summary


def cmd_curvature(opts) -> Result:
    schedule = PenaltySchedule(k=opts.penalty_k, c=opts.penalty_c)
    result = curvature_ensemble(opts.qubits, schedule, opts.trials, opts.seed)
    rows = [(opts.qubits, result.mean, result.stderr, result.trace_ratio_mean)]
    return ["K", "mean_R", "stderr", "trace_ratio"], rows, {
        "seed": opts.seed,
        "qubits": opts.qubits,
        "penalty_c": opts.penalty_c,
        "trials": opts.trials,
        "mean_R": result.mean,
        "stderr": result.stderr,
        "trace_ratio": result.trace_ratio_mean,
    }


def cmd_counting(opts) -> Result:
    report = counting.counting_report(opts.qubits, opts.epsilon)
    summary = {
        "qubits": report.K,
        "epsilon": report.epsilon,
        "c_max": report.c_max,
        "entropy_at_c_max": counting.complexity_entropy(report.c_max, report.K),
    }
    header, row = [f.name for f in dataclasses.fields(report)], dataclasses.astuple(report)
    _require_finite([*zip(header, row), *summary.items()])  # 1 / epsilon overflows at a subnormal epsilon
    return header, [row], summary


def cmd_tfd(opts) -> Result:
    spectrum = _parse_spectrum(opts.spectrum)
    state = tfd.tfd(spectrum, opts.beta)
    psi = tfd.evolve_tfd(state, opts.tl, opts.tr, opts.sign)
    fidelity = abs(tfd.overlap(psi, state.vector()))
    rho_l = tfd.partial_trace(psi, side="left")
    rho_r = tfd.partial_trace(psi, side="right")
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
    corr_hh = tfd.two_sided_correlator(psi, H_op, H_op)
    rows.append(("corr_HH_re", corr_hh.real))
    rows.append(("corr_HH_im", corr_hh.imag))
    for i in range(min(len(spectrum), 4)):
        proj = np.zeros((len(spectrum), len(spectrum)), dtype=complex)
        proj[i, i] = 1.0
        c = tfd.two_sided_correlator(psi, proj, proj)
        rows.append((f"corr_P{i}P{i}_re", c.real))
    fubini = tfd.fubini_distance(psi, state.vector())
    _require_finite([*rows, ("fubini_distance", fubini)])  # beta may be inf: the ground state
    return ["quantity", "value"], rows, {
        "beta": opts.beta,
        "levels": len(spectrum),
        "sign": opts.sign,
        "fidelity": fidelity,
        "fubini_distance": fubini,
        "entropy_left": s_l,
    }


def cmd_wormhole(opts) -> Result:
    if opts.eta_min >= opts.eta_max:
        _usage_error(f"--eta-min {opts.eta_min} must be below --eta-max {opts.eta_max}")
    spec = _black_hole_from(opts)
    points = holography.volume_curve(spec, opts.eta_max, opts.eta_min, opts.egrid_points)
    rows = [
        (p.E, p.r_turn, spec.omega * p.interior_volume_per_sphere, p.boundary_time_sum)
        for p in points
    ]
    r_m, v_d = holography.critical_surface(spec)
    tail = rows[-max(4, opts.egrid_points // 4) :]
    slope = float(np.polyfit([r[3] for r in tail], [r[2] for r in tail], 1)[0])
    header = ["E", "r_turn", "volume", "t_sum"]
    summary = {
        "dim": spec.d,
        "mu": spec.mu,
        "mass": spec.mass,
        "r_h": spec.r_h,
        "r_m": r_m,
        "V_d": v_d,
        "late_slope": slope,
        "late_slope_over_V_d": slope / v_d,
    }
    _require_finite([*(entry for row in rows for entry in zip(header, row)), *summary.items()])
    return header, rows, summary


def cmd_wdw(opts) -> Result:
    spec = _black_hole_from(opts)
    rate = holography.wdw_action_rate(spec)
    lloyd = holography.lloyd_bound(spec, hbar=opts.hbar)
    header = ["d", "mu", "M", "bulk_rate", "boundary_rate", "total_rate", "lloyd_saturation"]
    rows = [(spec.d, spec.mu, spec.mass, rate.bulk, rate.boundary, rate.total, lloyd.saturation)]
    summary = {
        "dim": spec.d,
        "mu": spec.mu,
        "mass": spec.mass,
        "total_rate": rate.total,
        "total_rate_over_2M": f"{rate.total / (2 * spec.mass):.7f}",
        "lloyd_bound": lloyd.bound,
        "lloyd_saturation": lloyd.saturation,
    }
    _require_finite([*zip(header, rows[0]), *summary.items()])
    # not checked: at large mu r_m^(2d-4) f(r_m) in E_c overflows before its square root
    # is taken, so this rate is inf where every other value is finite (--dim 5 --mu 1e200)
    summary["rindler_rate"] = holography.rindler_rate(spec)
    return header, rows, summary


def cmd_paper_suite(opts) -> Result:
    # load the scipy extensions the checks call (Brent, QUADPACK) up front, so that no check's time carries them
    start = time.perf_counter()
    for name in holography._SCIPY_EXTENSIONS:
        holography._scipy_extension(name)
    scipy_import_s = time.perf_counter() - start
    results = acceptance.run_all()
    rows = [(name, "PASS" if ok else "FAIL", detail.replace(",", ";")) for name, ok, detail in results]
    failed = [name for name, ok, _ in results if not ok]
    summary = {"checks": len(results), "failed": len(failed)}
    if failed:
        summary["failing"] = ";".join(failed)
    summary["scipy_import_s"] = f"{scipy_import_s:.3f}"
    return ["criterion", "status", "detail"], rows, summary


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
    """One subcommand: its handler, one-line help, --help description and
    options.  The handler returns ``(header, rows, summary)``: the CSV header
    and rows and the summary entries; a nonzero ``summary["failed"]`` exits 1."""

    handler: Callable[[argparse.Namespace], Result]
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


def _checked(name: str, ok: Callable, convert: Callable[[str], object] = finite) -> Callable[[str], object]:
    """Type of an option whose ``convert``-ed values must pass ``ok``; argparse reports it as ``name``."""
    def parse(text: str):
        if not ok(value := convert(text)):
            raise ValueError(f"not {name}: {text!r}")
        return value

    parse.__name__ = name
    return parse


# the epidemic law holds (K/2+1)(K/4+1) cells of 8 B, plus 2 B of destination
# rows (4 B from K = 65536): about 0.5 GB at K = 20000, 15 GB at K = 10^5
even_count_to_20000 = _checked("even_count_to_20000", lambda v: 2 <= v <= 20000 and v % 2 == 0, int)
even_count_from_4 = _checked("even_count_from_4", lambda v: v >= 4 and v % 2 == 0, int)
# 2^K floats are held at once, and the counting estimates are documented up to K = 20
even_count_to_20 = _checked("even_count_to_20", lambda v: 2 <= v <= 20 and v % 2 == 0, int)
grid_points = _checked("grid_points", lambda v: v >= 2, int)
positive_int = _checked("positive_int", lambda v: v >= 1, int)
# an epidemic step moves its counts as float64 weights, exact up to 2^53
positive_int_to_2_53 = _checked("positive_int_to_2_53", lambda v: 1 <= v <= 2**53, int)
nonnegative_int = _checked("nonnegative_int", lambda v: v >= 0, int)
bulk_dim = _checked("bulk_dim", lambda v: v >= 4, int)
positive = _checked("positive", lambda v: v > 0)
resolution = _checked("resolution", lambda v: v >= MIN_EPSILON)
unit_interval = _checked("unit_interval", lambda v: 0 < v <= 1)
nonnegative_or_inf = _checked("nonnegative_or_inf", lambda v: v >= 0, finite_or_inf)


def _black_hole_options(mu: float) -> tuple[Option, ...]:
    return (
        Option("--dim", bulk_dim, 4, "bulk dimension d >= 4"),
        Option("--mu", positive, mu, "mass parameter"),
        Option("--mass", positive, None, "mass M (overrides --mu)"),
        Option("--lads", positive, 1.0, "AdS radius"),
        Option("--G", positive, 1.0, "Newton constant"),
    )


_SEED = Option("--seed", nonnegative_int, 1729, "RNG seed")  # of the commands that draw; fixed, so CSVs reproduce
# Settable by flag or config line, after every command's own options.
_COMMON = (Option("--outdir", str, ".", f"output directory, ${OUTDIR_ENV} if set"),)
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
            Option("--qubits", even_count_to_20000, 10, "even qubit count 2 <= K <= 20000"),
            Option("--max-steps", nonnegative_int, 12, "circuit depth to simulate"),
            Option("--trials", positive_int_to_2_53, 20000, "Monte-Carlo trials, at most 2^53"),
            _SEED,
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
            Option("--max-depth", nonnegative_int, 12, "BFS depth cap"),
            Option("--epsilon", resolution, 1e-6, f"dedup resolution >= {MIN_EPSILON:g}"),
            Option("--pairs", positive_int, 4, "Haar gate pairs for --gateset random"),
            Option("--target", str, None, "CSV file of the target matrix, rows of re,im pairs"),
            _SEED,
        ),
    ),
    "curvature": Command(
        cmd_curvature, "sectional curvature ensemble of the penalized metric",
        "Averages R = (1/3 - I(3)/4) * 2 Tr([H,D][D,H]) / (Tr D^2 Tr H^2) "
        "over Gaussian 2-local pairs; negative for I(3) > 4/3 and the raw trace "
        "ratio scales like 1/K.",
        (
            Option("--qubits", even_count_from_4, 8, "even qubit count K >= 4"),
            Option("--penalty-c", positive, 1.0, "penalty prefactor c"),
            Option("--penalty-k", positive_int, 2, "locality threshold k"),
            Option("--trials", positive_int, 100, "ensemble size"),
            _SEED,
        ),
    ),
    "counting": Command(
        cmd_counting, "log-space counting report",
        "Group volume, eps-ball volume, unitary count (2^K/eps^2)^(4^K/2), "
        "pairing branching factor, maximum complexity 4^K(1/2+|ln eps|/ln K) and "
        "recurrence magnitudes, all as natural logs; the summary adds the complexity "
        "entropy C_max ln K.",
        (
            Option("--qubits", even_count_to_20, 4, "even qubit count 2 <= K <= 20"),
            Option("--epsilon", unit_interval, 0.01, "resolution in (0,1]"),
        ),
    ),
    "tfd": Command(
        cmd_tfd, "thermofield double: evolution, entropies, correlators",
        "Builds sum_i e^(-beta E_i/2)/sqrt(Z) |i>|i>, applies the phases "
        "e^(-i E_i (tl -+ tr)), and reports fidelity, reduced entropies and "
        "two-sided correlators, and in the summary the Fubini distance to the "
        "initial state; the difference Hamiltonian leaves the state "
        "invariant at tl = tr, the sum does not.",
        (
            Option("--beta", nonnegative_or_inf, 1.0, "inverse temperature >= 0"),
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
            Option("--egrid-points", grid_points, 16, "energy grid size >= 2"),
            Option("--eta-max", unit_interval, 0.1, "largest 1 - E/E_c, in (0,1]"),
            Option("--eta-min", unit_interval, 1e-5, "smallest 1 - E/E_c, below --eta-max"),
        ),
    ),
    "wdw": Command(
        cmd_wdw, "late-time action growth of the Wheeler-DeWitt patch",
        "Bulk term -r_h^(d-1) Omega/(8 pi G l^2) plus the surface bracket "
        "evaluated at the horizon; the total equals 2M exactly and saturates the "
        "growth bound 2M/(pi hbar).",
        _black_hole_options(mu=1.0) + (Option("--hbar", positive, 1.0, "hbar for the bound"),),
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


def build_parser(config: dict[str, object] | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand.  An option's value is its flag, else its
    entry in ``config`` (checked values of a config file), else for
    ``--outdir`` $COMPLEXITYLAB_OUTDIR, else its table default."""
    parser = argparse.ArgumentParser(
        prog="complexitylab",
        description="Numerical laboratory: qubit scrambling, exact gate complexity, "
        "the penalized complexity metric, counting estimates, thermofield doubles, "
        "and AdS-Schwarzschild wormhole growth.",
    )
    defaults = {"outdir": os.environ.get(OUTDIR_ENV, "."), **(config or {})}
    subs = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, cmd in COMMANDS.items():
        sub = subs.add_parser(name, help=cmd.help, description=cmd.description)
        for opt in cmd.options + _COMMON + (_CONFIG,):
            text = opt.help if opt.default is None else f"{opt.help} (default {opt.default})"
            sub.add_argument(opt.flag, type=opt.type, choices=opt.choices, default=opt.default, help=text)
        sub.set_defaults(**defaults)
    return parser


def _load_config(path: str, command: str) -> dict[str, object]:
    """The ``key=value`` lines of a config file, typed and checked as ``command``'s flags."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        _usage_error(f"--config: {exc}")
    options = {opt.flag[2:].replace("-", "_"): opt for opt in COMMANDS[command].options + _COMMON}
    config = {}
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            _usage_error(f"--config: line {lineno} is not key=value: {line!r}")
        key, text = line.split("=", 1)
        key, text = key.strip().replace("-", "_"), text.strip()
        if key not in options:
            _usage_error(f"--config: unknown flag {key!r} for {command}")
        opt = options[key]
        try:  # the flag's own type and choices, so a config line and a flag cannot disagree
            value = opt.type(text)
        except ValueError:
            _usage_error(f"--config: bad value for {opt.flag}: {text!r}")
        if opt.choices is not None and value not in opt.choices:
            _usage_error(f"--config: {opt.flag} must be one of {', '.join(opt.choices)}, got {value!r}")
        config[key] = value
    return config


def _join_negative_values(argv: list[str]) -> list[str]:
    """``argv`` with a value that starts with '-' and reads as a number list
    joined to the ``--flag`` before it, full or abbreviated, but not to
    ``--help`` nor after ``--``: argparse takes ``-1,0`` or ``-1e3`` for a
    flag, so ``--spec -1,0`` becomes ``--spec=-1,0``."""
    out: list[str] = []
    for i, tok in enumerate(argv):
        if tok == "--":
            return out + argv[i:]
        flag = out[-1] if out else ""
        takes_value = flag.startswith("--") and "=" not in flag and not "--help".startswith(flag)
        if takes_value and tok.startswith("-") and _is_number_list(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = _join_negative_values(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    if args.config:
        args = build_parser(_load_config(args.config, args.command)).parse_args(argv)
    try:
        os.makedirs(args.outdir, exist_ok=True)
    except OSError as exc:
        _usage_error(f"--outdir: {exc}")
    start = time.perf_counter()
    try:
        header, rows, summary = COMMANDS[args.command].handler(args)
    except (ValueError, AssertionError, ArithmeticError, MemoryError) as exc:  # overflow, division by zero, allocation
        print(f"error: {exc}", file=sys.stderr)
        return 1
    name = args.command.replace("-", "_")
    write_csv(os.path.join(args.outdir, f"{name}.csv"), header, rows)
    entries = {"command": args.command, **summary}
    entries["wall_time_s"] = f"{time.perf_counter() - start:.3f}"
    text = "".join(f"{key}: {_fmt(value)}\n" for key, value in entries.items())
    with open(os.path.join(args.outdir, f"{name}_summary.txt"), "w", newline="") as fh:
        fh.write(text)
    print(text, end="")
    return 1 if summary.get("failed") else 0


if __name__ == "__main__":
    raise SystemExit(main())
