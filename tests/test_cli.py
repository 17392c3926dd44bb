import argparse
import ast
import cmath
import functools
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from complexitylab import acceptance, cli, gates, geometry, holography, scrambling
from complexitylab.cli import (
    _COMMON,
    _CONFIG,
    _SEED,
    COMMANDS,
    OUTDIR_ENV,
    _join_negative_values,
    _load_config,
    build_parser,
    main,
)
from complexitylab.paulis import CommutatorTable


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def read_summary(path):
    return dict(line.split(": ", 1) for line in read(path).decode().splitlines())


def test_no_command_shows_usage(capsys):
    assert main([]) == 2


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["badcmd"])
    assert exc.value.code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["wdw", "--bogus", "3"])
    assert exc.value.code == 2


def test_malformed_value_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["wdw", "--mu", "abc"])
    assert exc.value.code == 2


def test_wdw_default_run(tmp_path, capsys):
    assert main(["wdw", "--outdir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "total_rate_over_2M: 1.0000000" in out
    csv = read(tmp_path / "wdw.csv").decode()
    assert csv.splitlines()[0] == "d,mu,M,bulk_rate,boundary_rate,total_rate,lloyd_saturation"
    summary = read(tmp_path / "wdw_summary.txt").decode()
    assert "seed:" not in summary  # wdw draws nothing
    assert "wall_time_s:" in summary


def test_wdw_reports_the_rindler_rate(tmp_path):
    args = ["--dim", "5", "--mu", "10", "--lads", "2", "--G", "0.5"]
    assert main(["wdw", *args, "--outdir", str(tmp_path)]) == 0
    summary = dict(line.split(": ") for line in read(tmp_path / "wdw_summary.txt").decode().splitlines())
    spec = holography.BlackHoleSpec(d=5, mu=10.0, l_ads=2.0, G=0.5)
    _, v_d = holography.critical_surface(spec)
    assert float(summary["rindler_rate"]) == pytest.approx(v_d / (2.0 * 0.5) / (2 * np.pi * spec.temperature), rel=1e-14)


def test_wdw_higher_dimension(tmp_path):
    assert main(["wdw", "--dim", "7", "--mu", "2.5", "--outdir", str(tmp_path)]) == 0
    row = read(tmp_path / "wdw.csv").decode().splitlines()[1].split(",")
    assert float(row[6]) == pytest.approx(1.0, abs=1e-10)


def test_wdw_at_mu_10_finds_the_exact_horizon(tmp_path):
    # f(r) = 1 - 10/r + r^2 vanishes at r_h = 2: the rate is 2M = 10 and saturates the bound to the bit
    assert main(["wdw", "--mu", "10", "--outdir", str(tmp_path)]) == 0
    assert read(tmp_path / "wdw.csv").decode().splitlines()[1] == "4,10,5,-4,14,10,1"


@pytest.mark.parametrize("args", [["--mu", "1e100"], ["--dim", "5", "--mu", "1e200"], ["--mu", "1e-50"], ["--mu", "1e-70"]])
def test_wdw_far_from_mu_1(args, tmp_path):
    # the horizon bracket spans one octave, so its root find converges whatever mu
    assert main(["wdw", *args, "--outdir", str(tmp_path)]) == 0
    row = read(tmp_path / "wdw.csv").decode().splitlines()[1].split(",")
    assert float(row[6]) == pytest.approx(1.0, rel=1e-12)


def test_scramble_csv_contract_and_determinism(tmp_path):
    args = ["scramble", "--qubits", "6", "--trials", "500", "--max-steps", "6"]
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(args + ["--outdir", str(out1)]) == 0
    assert main(args + ["--outdir", str(out2)]) == 0
    csv1 = read(out1 / "scramble.csv")
    assert csv1 == read(out2 / "scramble.csv")
    header = csv1.decode().splitlines()[0]
    assert header == "tau,mc_mean,mc_stderr,logistic,precursor"
    assert main(args + ["--seed", "99", "--outdir", str(out2)]) == 0
    assert read(out2 / "scramble.csv") != csv1


def test_scramble_k1000_is_byte_identical_and_exact_at_tau2(tmp_path):
    K, trials = 1000, 4096
    args = ["scramble", "--qubits", str(K), "--trials", str(trials), "--max-steps", "14"]
    assert main(args + ["--outdir", str(tmp_path / "a")]) == 0
    assert main(args + ["--outdir", str(tmp_path / "b")]) == 0
    csv = read(tmp_path / "a" / "scramble.csv")
    assert csv == read(tmp_path / "b" / "scramble.csv")
    row = csv.decode().splitlines()[3].split(",")
    assert row[0] == "2"
    # from s = 2 the count is 4 unless the two infected qubits pair up (1/(K-1))
    p4 = (K - 2) / (K - 1)
    stderr = 2 * np.sqrt(p4 * (1 - p4) / trials)
    assert abs(float(row[1]) - (2 + 2 * p4)) < 5 * stderr


@pytest.mark.parametrize(
    "flags",
    [
        ["--qubits", "7"],
        ["--max-steps", "-1"],
        ["--trials", "0"],
        # a step's counts pass through float64 weights, exact up to 2^53
        ["--trials", "9007199254740993"],
        ["--trials", "9223372036854775807"],
        ["--trials", "100000000000000000000"],
    ],
)
def test_scramble_bad_input_exits_2_with_message(tmp_path, capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["scramble", *flags, "--outdir", str(tmp_path)])
    assert exc.value.code == 2
    assert f"error: argument {flags[0]}: " in capsys.readouterr().err
    (tmp_path / "c.cfg").write_text(f"{flags[0][2:]}={flags[1]}\n")
    with pytest.raises(SystemExit) as exc:
        main(["scramble", "--config", str(tmp_path / "c.cfg"), "--outdir", str(tmp_path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(f"error: --config: bad value for {flags[0]}")


def test_curvature_csv_determinism(tmp_path):
    args = ["curvature", "--qubits", "6", "--trials", "20"]
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(args + ["--outdir", str(out1)]) == 0
    assert main(args + ["--outdir", str(out2)]) == 0
    assert read(out1 / "curvature.csv") == read(out2 / "curvature.csv")


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("qubits=6\ntrials=200\nmax-steps=4\n")
    out = tmp_path / "out"
    assert main(["scramble", "--config", str(cfg), "--trials", "300", "--outdir", str(out)]) == 0
    summary = read(out / "scramble_summary.txt").decode()
    assert "qubits: 6" in summary  # from the config file
    assert "trials: 300" in summary  # flag wins over the config


def test_config_unknown_key_exits_2(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus=1\n")
    with pytest.raises(SystemExit) as exc:
        main(["scramble", "--config", str(cfg)])
    assert exc.value.code == 2


def test_config_missing_file_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["scramble", "--config", str(tmp_path / "nope.cfg")])
    assert exc.value.code == 2


def test_numeric_failure_exits_1(tmp_path, capsys):
    # an odd count exits 2 (usage error); the 10-qubit cap is checked by the library
    assert main(["curvature", "--qubits", "12", "--outdir", str(tmp_path)]) == 1
    assert "error: K=12 exceeds the cap of 10 qubits" in capsys.readouterr().err


def test_counting_run(tmp_path):
    assert main(["counting", "--qubits", "4", "--epsilon", "0.01", "--outdir", str(tmp_path)]) == 0
    lines = read(tmp_path / "counting.csv").decode().splitlines()
    assert lines[0].startswith("K,epsilon,log_vol_su")
    assert len(lines) == 2
    # C_max ln K at C_max = 4^K (1/2 + |ln eps| / ln K)
    entropy = float(read_summary(tmp_path / "counting_summary.txt")["entropy_at_c_max"])
    assert entropy == pytest.approx(4**4 * (math.log(4) / 2 + abs(math.log(0.01))), rel=1e-14)


def test_bfs_run_with_target(tmp_path):
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    target = tmp_path / "swap.csv"
    rows = []
    for row in swap:
        rows.append(",".join(f"{z.real},{z.imag}" for z in row))
    target.write_text("\n".join(rows) + "\n")
    assert main(["bfs", "--gateset", "cnot", "--max-depth", "5", "--target", str(target), "--outdir", str(tmp_path)]) == 0
    summary = read(tmp_path / "bfs_summary.txt").decode()
    assert "target_depth: 3" in summary
    lines = read(tmp_path / "bfs.csv").decode().splitlines()
    assert lines[0] == "depth,count"
    assert lines[1] == "0,1"


def _target_text(U):
    return "".join(",".join(f"{z.real:.17g},{z.imag:.17g}" for z in row) + "\n" for row in U)


def _write_target(path, U):
    path.write_text(_target_text(U))


def test_bfs_target_beyond_max_depth_is_not_found(tmp_path):
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    _write_target(tmp_path / "swap.csv", swap)  # Clifford depth 3
    assert main(["bfs", "--max-depth", "2", "--target", str(tmp_path / "swap.csv"), "--outdir", str(tmp_path)]) == 0
    summary = read(tmp_path / "bfs_summary.txt").decode()
    assert "reached: 50\nsaturated: False\ntruncated: False\ntarget_depth: not-found\n" in summary
    assert read(tmp_path / "bfs.csv") == b"depth,count\n0,1\n1,8\n2,41\n"


def test_bfs_random_stops_at_the_element_cap(tmp_path, monkeypatch):
    # layers 1, 8, 56, 392, 2744: the cap of 3000 falls within depth 4
    monkeypatch.setattr(cli, "BFS_MAX_ELEMENTS", 3000)
    searches = []
    grow = gates._grow

    def counted_grow(*args):
        searches.append(args[1])
        return grow(*args)

    monkeypatch.setattr(gates, "_grow", counted_grow)
    gs = gates.random_inverse_closed_gateset(2, 4, 1729)
    g = gs.matrices()
    for name, U, want in [("near", g[2] @ g[0], "2"), ("far", g[0] @ g[2] @ g[4] @ g[6], "not-found")]:
        _write_target(tmp_path / f"{name}.csv", U)
        out = tmp_path / name
        argv = ["bfs", "--gateset", "random", "--max-depth", "5", "--target", str(tmp_path / f"{name}.csv")]
        assert main(argv + ["--outdir", str(out)]) == 0
        summary = read(out / "bfs_summary.txt").decode()
        assert "reached: 457\nsaturated: False\ntruncated: True\n" in summary
        assert f"target_depth: {want}\n" in summary
        assert read(out / "bfs.csv") == b"depth,count\n0,1\n1,8\n2,56\n3,392\n"
    assert searches == [5, 5]  # one capped growth a run, no search from scratch


def test_bfs_default_run_is_the_clifford_group(tmp_path):
    assert main(["bfs", "--outdir", str(tmp_path)]) == 0
    layers = [1, 8, 41, 173, 539, 1269, 2278, 2997, 2688, 1313, 213]
    assert read(tmp_path / "bfs.csv") == ("depth,count\n" + "".join(f"{d},{n}\n" for d, n in enumerate(layers))).encode()
    summary = read(tmp_path / "bfs_summary.txt").decode()
    assert "reached: 11520\nsaturated: True\ntruncated: False\n" in summary


def test_paper_suite_csv_is_byte_identical_across_runs(tmp_path):
    for name in ("a", "b"):
        assert main(["paper-suite", "--outdir", str(tmp_path / name)]) == 0
    assert read(tmp_path / "a" / "paper_suite.csv") == read(tmp_path / "b" / "paper_suite.csv")


def test_tfd_run(tmp_path):
    assert main(
        ["tfd", "--beta", "0.5", "--spectrum", "0,0.7,1.9", "--tl", "0.3", "--tr", "0.3",
         "--sign", "plus", "--outdir", str(tmp_path)]
    ) == 0
    csv = read(tmp_path / "tfd.csv").decode()
    assert csv.splitlines()[0] == "quantity,value"
    values = dict(line.split(",") for line in csv.splitlines()[1:])
    assert float(values["fidelity"]) < 1.0
    assert float(values["entropy_left"]) == pytest.approx(float(values["entropy_thermal"]), abs=1e-10)


@pytest.mark.parametrize("sign, tl, tr", [("plus", 0.4, 0.9), ("plus", 2.5, 0.7), ("minus", 0.3, 0.3), ("minus", 12.0, 12.0)])
def test_tfd_reports_the_fubini_distance(sign, tl, tr, tmp_path):
    argv = ["tfd", "--spectrum", "0,1", "--sign", sign, "--tl", str(tl), "--tr", str(tr), "--outdir", str(tmp_path)]
    assert main(argv) == 0
    distance = float(read_summary(tmp_path / "tfd_summary.txt")["fubini_distance"])
    if sign == "minus":  # tl = tr: the difference Hamiltonian leaves the double invariant
        assert distance <= 1e-15
    else:  # weights p0, p1 of levels 0, 1 at beta 1
        p0, p1 = 1 / (1 + math.exp(-1)), math.exp(-1) / (1 + math.exp(-1))
        assert distance == pytest.approx(math.acos(abs(p0 + p1 * cmath.exp(-1j * (tl + tr)))), rel=1e-12)


@pytest.mark.parametrize(
    "flag, value", [("--spectrum", "-1,0"), ("--spectrum", "-1e3;2"), ("--spectrum", "-0.5"), ("--tl", "-1e3"), ("--spec", "-1,0")]
)
def test_a_value_that_starts_with_a_minus_sign_reaches_its_flag(flag, value, tmp_path, monkeypatch):
    # argparse reads "-1,0" and "-1e3" as flags; after the flag, in
    # --flag=value form and on a config line the value gives the same CSV
    monkeypatch.setattr(sys, "argv", ["complexitylab", "tfd", flag, value, "--outdir", str(tmp_path / "a")])
    assert main() == 0
    assert main(["tfd", f"{flag}={value}", "--outdir", str(tmp_path / "b")]) == 0
    key = next(opt.flag[2:] for opt in COMMANDS["tfd"].options if opt.flag.startswith(flag))  # config keys take no abbreviations
    (tmp_path / "value.cfg").write_text(f"{key} = {value}\n")
    assert main(["tfd", "--config", str(tmp_path / "value.cfg"), "--outdir", str(tmp_path / "c")]) == 0
    csv = read(tmp_path / "a" / "tfd.csv")
    assert csv == read(tmp_path / "b" / "tfd.csv") == read(tmp_path / "c" / "tfd.csv")


@pytest.mark.parametrize("argv", [["--spectrum", "-1,x"], ["--tl", "-"], ["--sign", "-1"]])
def test_a_minus_value_that_is_no_number_list_stays_a_usage_error(argv, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["tfd", *argv, "--outdir", str(tmp_path)])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, joined",
    [
        (["tfd", "--spec", "-1,0"], ["tfd", "--spec=-1,0"]),
        (["tfd", "--t", "-1"], ["tfd", "--t=-1"]),  # argparse then refuses the ambiguous prefix
        (["tfd", "--tl=1", "-1"], ["tfd", "--tl=1", "-1"]),
        (["tfd", "--help", "-1"], ["tfd", "--help", "-1"]),  # --help takes no value
        (["tfd", "--he", "-1"], ["tfd", "--he", "-1"]),
        (["tfd", "--", "--tl", "-1"], ["tfd", "--", "--tl", "-1"]),  # -- ends the flags
    ],
)
def test_a_minus_value_is_joined_to_the_flag_before_it_only(argv, joined):
    assert _join_negative_values(argv) == joined


def test_an_ambiguous_prefix_with_a_minus_value_stays_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["tfd", "--t", "-1", "--outdir", str(tmp_path)])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_wormhole_run(tmp_path):
    assert main(
        ["wormhole", "--mu", "100", "--egrid-points", "6", "--eta-min", "1e-3", "--outdir", str(tmp_path)]
    ) == 0
    lines = read(tmp_path / "wormhole.csv").decode().splitlines()
    assert lines[0] == "E,r_turn,volume,t_sum"
    assert len(lines) == 7
    summary = read(tmp_path / "wormhole_summary.txt").decode()
    assert "late_slope_over_V_d:" in summary


def test_near_critical_wormhole_run_raises_no_warning(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["wormhole", "--eta-min", "1e-7", "--outdir", str(tmp_path)]) == 0
    assert len(read(tmp_path / "wormhole.csv").decode().splitlines()) == 17


def test_wormhole_quadrature_failure_exits_1(tmp_path, monkeypatch, capsys):
    def failing_quad(fn, a, b, **kwargs):
        return 0.0, 1.0, "injected failure"  # holography.quad without full_output

    monkeypatch.setattr(holography, "quad", failing_quad)
    assert main(["wormhole", "--outdir", str(tmp_path)]) == 1
    assert "volume integral did not converge: abserr 1, tol 1e-10 (injected failure)" in capsys.readouterr().err


def test_failed_wormhole_slice_names_its_eta_and_energy(tmp_path, monkeypatch, capsys):
    # The anchor-time integral, the one quadrature with a breakpoint, fails on the first slice.
    real_quad = holography.quad

    def failing_anchor_time(fn, a, b, points=None, **kwargs):
        if points is not None:
            return 0.0, 1.0, "injected failure"  # holography.quad without full_output
        return real_quad(fn, a, b, points=points, **kwargs)

    monkeypatch.setattr(holography, "quad", failing_anchor_time)
    assert main(["wormhole", "--eta-max", "0.99", "--eta-min", "0.9", "--outdir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: anchor-time integral did not converge: abserr 1, tol 1e-10 (injected failure)")
    assert err.rstrip().endswith("; failed slice: eta 0.99, E 0.481844")
    assert list(tmp_path.iterdir()) == []


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# Prints the scipy modules loaded by the code run before it, in a fresh process.
SCIPY_LOADED = "import sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
# scipy packages that holography never uses
UNUSED_SCIPY = ("scipy.integrate", "scipy.sparse", "scipy.linalg", "scipy.optimize", "scipy.special")


def _fresh_python(code: str, cwd) -> str:
    """Run ``code`` in a new interpreter that imports complexitylab from src/; return its stdout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_package_loads_no_scipy(tmp_path):
    assert _fresh_python(f"import complexitylab, complexitylab.cli; {SCIPY_LOADED}", tmp_path) == "[]\n"


def test_importing_the_bare_package_loads_neither_numpy_nor_scipy(tmp_path):
    code = "import sys, complexitylab; print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))"
    assert _fresh_python(code, tmp_path) == "[]\n"


@pytest.mark.parametrize(
    "argv, calls_quad",
    [
        (["bfs", "--gateset", "cnot"], False),
        (["curvature", "--qubits", "4", "--trials", "5"], False),
        (["tfd"], False),
        (["wormhole", "--egrid-points", "2"], True),  # a slice's quadrature
        (["counting"], False),
        (["scramble"], False),
        (["wdw"], False),
    ],
)
def test_only_the_commands_that_call_scipy_load_it(argv, calls_quad, tmp_path):
    # a black hole's root finds load scipy's Brent extension and nothing else of
    # scipy; a slice's quadrature adds QUADPACK and what its extension imports
    # on a call (scipy, scipy._lib._ccallback), but no scipy subpackage
    expected = {holography._ZEROS} if argv[0] in ("wdw", "wormhole") else set()
    if calls_quad:
        quadpack = f"from complexitylab import holography; holography.quad(abs, 0.0, 1.0); {SCIPY_LOADED}"
        expected |= set(ast.literal_eval(_fresh_python(quadpack, tmp_path)))
        assert holography._QUADPACK in expected and not expected & set(UNUSED_SCIPY)
    argv = argv + ["--outdir", str(tmp_path)]
    code = f"from complexitylab.cli import main; assert main({argv!r}) == 0; {SCIPY_LOADED}"
    assert _fresh_python(code, tmp_path).splitlines()[-1] == str(sorted(expected))


def test_a_black_hole_and_its_rates_load_only_scipys_brent_extension(tmp_path):
    # only a slice's quadrature needs QUADPACK: the root finds call scipy.optimize._zeros alone
    code = (
        "from complexitylab import holography as h; s = h.BlackHoleSpec(d=4, mu=100.0); "
        "s.r_h, s.r_m, s.temperature, s.entropy, h.critical_energy(s), h.wdw_action_rate(s), "
        f"h.lloyd_bound(s), h.cv_rate(s), h.rindler_rate(s); {SCIPY_LOADED}"
    )
    assert _fresh_python(code, tmp_path) == "['scipy.optimize._zeros']\n"


@pytest.mark.parametrize("first", ["", "import scipy.optimize; "], ids=["alone", "after-scipy-optimize"])
def test_brentq_shares_scipys_brent_extension_with_scipy_optimize(first, tmp_path):
    # holography.brentq loads scipy.optimize._zeros by itself, and a later
    # (or earlier) import of scipy.optimize shares that one module object
    code = (
        f"{first}import sys; from complexitylab import holography; "
        "root = holography.brentq(lambda x: x * x - 2.0, 0.0, 2.0); "
        "from scipy.optimize import _zeros_py, brentq; "
        "print(_zeros_py._zeros is sys.modules['scipy.optimize._zeros'] is holography._scipy_extension(holography._ZEROS), "
        "root == brentq(lambda x: x * x - 2.0, 0.0, 2.0, xtol=1e-300, rtol=holography._BRENTQ_RTOL))"
    )
    assert _fresh_python(code, tmp_path) == "True True\n"


@pytest.mark.parametrize("first", ["", "import scipy.integrate; "], ids=["alone", "after-scipy-integrate"])
def test_wormhole_loads_only_scipys_quadpack_extension(first, tmp_path):
    # holography.quad loads scipy.integrate._quadpack by itself, and a later
    # (or earlier) import of scipy.integrate shares that one module object
    code = (
        f"{first}import sys; from complexitylab import holography; from complexitylab.cli import main; "
        f"assert main(['wormhole', '--egrid-points', '2', '--outdir', {str(tmp_path)!r}]) == 0; "
        f"print(sorted(m for m in {UNUSED_SCIPY!r} + ('scipy.integrate._quadpack',) if m in sys.modules)); "
        "from scipy.integrate import _quadpack_py, quad; "
        "print(_quadpack_py._quadpack is sys.modules['scipy.integrate._quadpack'] "
        "is holography._scipy_extension(holography._QUADPACK), "
        "quad(lambda x: x * x, 0.0, 3.0)[0])"
    )
    loaded, shared = _fresh_python(code, tmp_path).splitlines()[-2:]
    if first:
        assert "'scipy.integrate'" in loaded
    else:
        assert loaded == "['scipy.integrate._quadpack']"
    assert shared == "True 9.000000000000002"


def test_paper_suite_loads_scipy_before_its_first_check(tmp_path):
    # the import is timed as its own summary entry, not charged to the first check
    code = (
        "import sys; from complexitylab import acceptance, cli; "
        "acceptance.CHECKS = [('probe', lambda: ' '.join(sorted(m for m in sys.modules if m.startswith('scipy'))))]; "
        f"assert cli.main(['paper-suite', '--outdir', {str(tmp_path)!r}]) == 0"
    )
    _fresh_python(code, tmp_path)
    probe = read(tmp_path / "paper_suite.csv").decode().splitlines()[1]
    assert probe == "probe,PASS,scipy.integrate._quadpack scipy.optimize._zeros"
    assert re.search(r"^scipy_import_s: \d+\.\d{3}$", read(tmp_path / "paper_suite_summary.txt").decode(), re.M)


def test_outdir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("COMPLEXITYLAB_OUTDIR", str(tmp_path / "env_out"))
    assert main(["counting"]) == 0
    assert (tmp_path / "env_out" / "counting.csv").exists()


def test_outdir_from_flag_over_config_over_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTDIR_ENV, str(tmp_path / "env"))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"outdir={tmp_path / 'config'}\n")
    assert main(["counting", "--config", str(cfg)]) == 0
    assert (tmp_path / "config" / "counting.csv").exists()
    assert main(["counting", "--config", str(cfg), "--outdir", str(tmp_path / "flag")]) == 0
    assert (tmp_path / "flag" / "counting.csv").exists()
    assert not (tmp_path / "env").exists()


@pytest.mark.parametrize(
    "argv, key, value, ok",
    [
        (["wdw"], "mass", "2.0", True),
        (["bfs", "--max-depth", "2"], "gateset", "bogus", False),
        (["tfd"], "sign", "bogus", False),
    ],
)
def test_config_values_are_typed_and_checked_like_flags(tmp_path, capsys, argv, key, value, ok):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={value}\n")
    if not ok:
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", str(cfg), "--outdir", str(tmp_path)])
        assert exc.value.code == 2
        assert "error: --config: " in capsys.readouterr().err
        return
    assert main(argv + ["--config", str(cfg), "--outdir", str(tmp_path / "cfg")]) == 0
    assert main(argv + [f"--{key}", value, "--outdir", str(tmp_path / "flag")]) == 0
    csv = f"{argv[0]}.csv"
    assert read(tmp_path / "cfg" / csv) == read(tmp_path / "flag" / csv)


BFS_CNOT = ["bfs", "--gateset", "cnot", "--max-depth", "2"]


@pytest.mark.parametrize(
    "argv, target",
    [
        (["tfd", "--spectrum", "abc"], None),
        (["tfd", "--spectrum", ","], None),
        (BFS_CNOT, "1,0,0,0\n" * 4),  # 4 values per row where 8 (re,im pairs) are due
        (BFS_CNOT, "1,0,0,0,0,0,x,0\n" * 4),
        (BFS_CNOT, "no such file"),
        (BFS_CNOT, _target_text(2 * np.eye(4))),  # not unitary
        (BFS_CNOT, _target_text(np.full((4, 4), np.nan))),
        (BFS_CNOT, _target_text(np.diag([1, 1, 1, np.inf]))),
        # finite levels whose spread overflows, with and without the Boltzmann exponent
        (["tfd", "--spectrum", "1e308,-1e308"], None),
        (["tfd", "--beta", "0", "--spectrum", "1e308,-1e308"], None),
    ],
)
def test_bad_spectrum_or_target_exits_2(tmp_path, capsys, argv, target):
    flag = "--spectrum"
    if target is not None:
        flag = "--target"
        path = tmp_path / "target.csv"
        if target != "no such file":
            path.write_text(target)
        argv = argv + [flag, str(path)]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--outdir", str(tmp_path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(f"error: {flag}: ")


@pytest.mark.parametrize(
    "flag, path",
    [
        ("--spectrum", "."),
        ("--spectrum", "binary"),
        ("--config", "."),
        ("--config", "binary"),
        ("--outdir", "file"),
        ("--outdir", "file/sub"),
    ],
)
def test_unreadable_path_exits_2(flag, path, tmp_path, capsys):
    # a directory, a file that is not UTF-8 text, and an output directory that is or lies under a file
    (tmp_path / "file").write_text("0,1\n")
    (tmp_path / "binary").write_bytes(b"\xff\xfebeta=1\n")
    argv = ["tfd", flag, str(tmp_path / path)]
    if flag != "--outdir":
        argv += ["--outdir", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(f"error: {flag}: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["bfs", "--epsilon", "nan", "--gateset", "cnot"],
        ["curvature", "--penalty-c", "nan"],
        ["wdw", "--hbar", "nan"],
        ["wdw", "--G", "inf"],
        ["wormhole", "--mu", "-inf"],
        ["tfd", "--beta", "nan"],
        ["tfd", "--beta", "-inf"],
        ["tfd", "--tl", "nan"],
        ["tfd", "--spectrum", "0,nan"],
    ],
)
def test_non_finite_input_exits_2(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--outdir", str(tmp_path)])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    flag, value = argv[1], argv[2]
    if flag != "--spectrum":
        (tmp_path / "c.cfg").write_text(f"{flag[2:]}={value}\n")
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--config", str(tmp_path / "c.cfg"), "--outdir", str(tmp_path)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith(f"error: --config: bad value for {flag}")


def test_tfd_beta_inf_is_the_ground_state(tmp_path):
    assert main(["tfd", "--beta", "inf", "--spectrum", "0,1", "--outdir", str(tmp_path)]) == 0
    values = dict(line.split(",") for line in read(tmp_path / "tfd.csv").decode().splitlines()[1:])
    assert float(values["entropy_left"]) == 0.0
    for side in ("left", "right", "thermal"):  # not "-0"
        assert values[f"entropy_{side}"] == "0"
    assert "entropy_left: 0\n" in read(tmp_path / "tfd_summary.txt").decode()


def test_tfd_beta_past_the_float_range_of_beta_e_is_the_ground_state_without_a_warning(tmp_path):
    # beta (E - E0) = 1e309 overflows to inf, and exp(-inf) = 0 is the excited weight
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["tfd", "--beta", "1e308", "--spectrum", "0,10", "--outdir", str(tmp_path)]) == 0
    values = dict(line.split(",") for line in read(tmp_path / "tfd.csv").decode().splitlines()[1:])
    for side in ("left", "right", "thermal"):
        assert values[f"entropy_{side}"] == "0"


def test_tfd_non_finite_result_exits_1_and_names_it(tmp_path, capsys):
    # exp(-beta E/2) stays finite at beta 0, but <H H> squares E = 1e200
    assert main(["tfd", "--beta", "0", "--spectrum", "1e200,0", "--outdir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: corr_HH_re is not finite: inf\n"
    assert list(tmp_path.iterdir()) == []


def test_tfd_phase_past_the_float_range_exits_1_without_a_warning(tmp_path, capsys):
    # E t_l = 1e310 overflows and exp(-i inf) is NaN: the named error is all that is reported
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["tfd", "--spectrum", "0,1e10", "--tl", "1e300", "--outdir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: fidelity is not finite: nan\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["wdw", "--G", "1e-320"], "M is not finite: inf"),  # M = mu (d-2) Omega / (16 pi G) overflows
        (["wdw", "--hbar", "1e-320"], "lloyd_saturation is not finite: nan"),  # inf / inf
        (["wormhole", "--G", "1e-320", "--egrid-points", "2"], "mass is not finite: inf"),
    ],
)
def test_wdw_and_wormhole_non_finite_results_exit_1_and_name_the_first(argv, message, tmp_path, capsys):
    assert main(argv + ["--outdir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


# 1 EiB and 4 EiB: beyond any address space, so refused at once whatever the overcommit setting
@pytest.mark.parametrize(
    "argv, size",
    [
        (["curvature", "--qubits", "4", "--trials", "144115188075855872"], "1.00 EiB"),
        (["scramble", "--max-steps", "288230376151711744"], "4.00 EiB"),
    ],
)
def test_an_allocation_beyond_the_address_space_exits_1(argv, size, tmp_path, capsys):
    assert main(argv + ["--outdir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: Unable to allocate {size} for an array")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["curvature", "--qubits", "12"], "K=12 exceeds the cap of 10 qubits"),
        (
            ["wormhole", "--eta-max", "0.999999999999", "--eta-min", "0.9999999999", "--egrid-points", "2"],
            "E = 4.81833e-11 is too small: its turning point rounds onto the horizon",
        ),
        # the critical-radius bracket [1e-12 r_h, r_h] at r_h ~ 1e-90: more than 100 Brent steps
        (["wdw", "--dim", "6", "--mu", "1e-270"], "root find did not converge in 100 iterations on the bracket [1e-102, 1e-90]\n"),
        # r_m^(2(d-2)) in the critical energy overflows a float
        (["wormhole", "--dim", "7", "--mu", "1e200"], "(34, 'Numerical result out of range')\n"),
        # every R finite, their sum and their squared deviations not
        (
            ["curvature", "--penalty-c", "1e307", "--trials", "100", "--qubits", "4"],
            "the mean curvature over 100 trials or its stderr overflows at I(3) = 4e+307: mean_R -inf, stderr inf\n",
        ),
        (
            ["curvature", "--penalty-c", "1e308", "--penalty-k", "1", "--qubits", "4", "--trials", "3"],
            "penalty I(3) = c 4^(3 - k) overflows at c = 1e+308, k = 1\n",
        ),
        # 1 / epsilon in the distinguishable-unitary count overflows at a subnormal epsilon
        (["counting", "--qubits", "4", "--epsilon", "1e-320"], "log_num_unitaries is not finite: inf\n"),
    ],
)
def test_out_of_range_input_exits_1_and_writes_nothing(argv, message, tmp_path, capsys):
    assert main(argv + ["--outdir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("bfs", "--pairs", "0"),
        ("bfs", "--max-depth", "-1"),
        ("curvature", "--trials", "0"),
        ("curvature", "--penalty-k", "0"),
        ("curvature", "--qubits", "2"),
        ("curvature", "--qubits", "7"),
        ("wormhole", "--egrid-points", "1"),
        ("counting", "--qubits", "5"),
        ("counting", "--qubits", "22"),  # 2^22 floats and past the documented K <= 20
        ("scramble", "--qubits", "20002"),  # an epidemic law of about 0.5 GB at K = 20000
        # float options and --dim: range-checked by their types alike
        ("bfs", "--epsilon", "-1"),
        ("bfs", "--epsilon", "0"),
        ("bfs", "--epsilon", "1e-15"),  # below gates.MIN_EPSILON, where one unitary splits into many keys
        ("counting", "--epsilon", "2"),
        ("tfd", "--beta", "-1"),
        ("wdw", "--hbar", "0"),
        ("wdw", "--dim", "3"),
        ("wdw", "--G", "-1"),
        ("wdw", "--mu", "-5"),
        ("wdw", "--mass", "0"),
        ("wdw", "--lads", "-1"),
        ("curvature", "--penalty-c", "-1"),
        ("wormhole", "--eta-min", "0"),
        ("wormhole", "--eta-max", "1.5"),
        ("scramble", "--seed", "-1"),
    ],
)
def test_int_out_of_range_exits_2_from_flag_or_config(command, flag, value, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, flag, value, "--outdir", str(out)])
    assert exc.value.code == 2
    assert f"error: argument {flag}: " in capsys.readouterr().err
    (tmp_path / "c.cfg").write_text(f"{flag[2:]}={value}\n")
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(tmp_path / "c.cfg"), "--outdir", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(f"error: --config: bad value for {flag}")
    assert not out.exists()


@pytest.mark.parametrize("eta_min", ["0.2", "0.1"])
def test_eta_min_not_below_eta_max_exits_2_from_flag_or_config(eta_min, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["wormhole", "--eta-min", eta_min, "--outdir", str(out)])
    assert exc.value.code == 2
    message = f"error: --eta-min {float(eta_min)} must be below --eta-max 0.1\n"
    assert capsys.readouterr().err == message
    (tmp_path / "c.cfg").write_text(f"eta-min={eta_min}\n")
    with pytest.raises(SystemExit) as exc:
        main(["wormhole", "--config", str(tmp_path / "c.cfg"), "--outdir", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr().err == message
    assert list(out.iterdir()) == []


def test_counting_at_the_qubit_cap(tmp_path):
    assert main(["counting", "--qubits", "20", "--outdir", str(tmp_path)]) == 0
    row = read(tmp_path / "counting.csv").decode().splitlines()[1].split(",")
    assert row[0] == "20"
    assert all(np.isfinite(float(v)) for v in row)


def test_failing_paper_suite_check_exits_1(tmp_path, monkeypatch, capsys):
    def failing():
        raise AssertionError("injected, failure")

    monkeypatch.setattr(acceptance, "CHECKS", acceptance.CHECKS[:1] + [("injected", failing)])
    assert main(["paper-suite", "--outdir", str(tmp_path)]) == 1
    rows = read(tmp_path / "paper_suite.csv").decode().splitlines()
    assert rows[0] == "criterion,status,detail"
    assert rows[1].startswith("wdw-rate-identity,PASS,")
    assert rows[2] == "injected,FAIL,injected; failure"
    summary = read(tmp_path / "paper_suite_summary.txt").decode()
    assert "checks: 2\nfailed: 1\nfailing: injected\n" in summary
    assert summary in capsys.readouterr().out


def test_paper_suite_fails_on_a_biased_epidemic_law(tmp_path, monkeypatch):
    # the law raised to the power 1.02 and renormalised keeps the MC-logistic
    # gap below 0.05; the pairing tally must catch it
    law = scrambling._reachable_law

    def biased(K):
        probs, dests, widths = law(K)
        q = probs**1.02
        return q / q.sum(axis=1, keepdims=True), dests, widths

    monkeypatch.setattr(scrambling, "_reachable_law", biased)
    monkeypatch.setattr(acceptance, "CHECKS", [c for c in acceptance.CHECKS if c[0] == "epidemic-logistic"])
    assert main(["paper-suite", "--outdir", str(tmp_path)]) == 1
    rows = read(tmp_path / "paper_suite.csv").decode().splitlines()
    assert rows[1].startswith("epidemic-logistic,FAIL,K=10 one-step law off the pairing tally by ")


def test_paper_suite_fails_on_a_biased_epidemic_step(tmp_path, monkeypatch):
    # the step draws from the law raised to the power 1.02 and renormalised,
    # while the law itself, and so the pairing tally, stays exact; the
    # exact chain over 10^8 trials must catch it
    law, step = scrambling._reachable_law, scrambling._step

    @functools.lru_cache(maxsize=None)
    def biased_law(K):
        probs, dests, widths = law(K)
        q = probs**1.02
        return q / q.sum(axis=1, keepdims=True), dests, widths

    def biased_step(K, counts, rng):
        with monkeypatch.context() as m:
            m.setattr(scrambling, "_reachable_law", biased_law)
            return step(K, counts, rng)

    monkeypatch.setattr(scrambling, "_step", biased_step)
    monkeypatch.setattr(acceptance, "CHECKS", [c for c in acceptance.CHECKS if c[0] == "epidemic-logistic"])
    assert main(["paper-suite", "--outdir", str(tmp_path)]) == 1
    rows = read(tmp_path / "paper_suite.csv").decode().splitlines()
    assert re.fullmatch(
        r"epidemic-logistic,FAIL,K=10 mean at tau=\d+ off the exact pairing chain by [+-]\d+\.\d standard errors", rows[1]
    ), rows[1]


class SignDroppedTable(CommutatorTable):
    """Every pair counted with i^e = +i."""

    def __init__(self, K, left, right):
        super().__init__(K, left, right)
        self._signed_right = self._signed_right % self.shape[1]


class ProductsApartTable(CommutatorTable):
    """Every pair its own product string, so no two pairs interfere."""

    def __init__(self, K, left, right):
        super().__init__(K, left, right)
        self.product = np.arange(len(self))
        self.num_products = len(self)


@pytest.mark.parametrize("table", [SignDroppedTable, ProductsApartTable])
def test_paper_suite_fails_on_a_broken_commutator_table(table, tmp_path, monkeypatch):
    monkeypatch.setattr(geometry, "CommutatorTable", table)
    monkeypatch.setattr(acceptance, "CHECKS", [c for c in acceptance.CHECKS if c[0] == "curvature-ensemble"])
    assert main(["paper-suite", "--outdir", str(tmp_path)]) == 1
    rows = read(tmp_path / "paper_suite.csv").decode().splitlines()
    assert rows[1].startswith("curvature-ensemble,FAIL,K=4 commutator norm off ||[H; D]||_F^2 / dim by ")


@pytest.mark.parametrize("command", list(COMMANDS))
def test_help_prints_every_table_default(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for opt in COMMANDS[command].options + _COMMON + (_CONFIG,):
        assert opt.flag in text
        if opt.default is None:
            assert opt.help in text
            continue
        shown = re.search(re.escape(opt.help) + r" \(default (\S+)\)", text)
        assert shown is not None, opt.flag
        assert opt.type(shown.group(1)) == opt.default


def _sample_value(opt) -> str:
    """A valid value for ``opt`` that differs from its default."""
    if opt.choices is not None:
        return next(c for c in opt.choices if c != opt.default)
    if opt.type is str:
        return "elsewhere"
    for raw in ("2.5", "0.5", str((opt.default or 0) + 2)):  # a float, a fraction, an int
        try:
            if opt.type(raw) != opt.default:
                return raw
        except ValueError:
            pass
    raise AssertionError(f"no sample value for {opt.flag}")


@pytest.mark.parametrize("command", list(COMMANDS))
def test_config_line_and_flag_merge_to_the_same_namespace(command, tmp_path, monkeypatch):
    monkeypatch.delenv(OUTDIR_ENV, raising=False)
    for opt in COMMANDS[command].options + _COMMON:
        raw = _sample_value(opt)
        cfg = tmp_path / f"{opt.flag[2:]}.cfg"
        cfg.write_text(f"{opt.flag[2:]}={raw}\n")
        from_flag = vars(build_parser().parse_args([command, opt.flag, raw]))
        # main's second parse, with the config file's values as defaults
        from_config = vars(build_parser(_load_config(str(cfg), command)).parse_args([command, "--config", str(cfg)]))
        assert from_config.pop("config") == str(cfg)
        assert from_flag.pop("config") is None
        assert from_config == from_flag
        assert from_flag[opt.flag[2:].replace("-", "_")] not in (None, opt.default)


@pytest.mark.parametrize("command", [name for name, cmd in COMMANDS.items() if _SEED not in cmd.options])
def test_a_command_that_draws_nothing_refuses_a_seed(command, tmp_path):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--seed", "1", "--outdir", str(out)])
    assert exc.value.code == 2
    (tmp_path / "c.cfg").write_text("seed=1\n")
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(tmp_path / "c.cfg"), "--outdir", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, echoed",
    [
        (["scramble", "--qubits", "4", "--max-steps", "2", "--trials", "10"], True),
        (["curvature", "--qubits", "4", "--trials", "2"], True),
        (["bfs", "--gateset", "random", "--max-depth", "1"], True),
        (["bfs", "--gateset", "cnot", "--max-depth", "1"], False),  # draws nothing
    ],
)
def test_a_run_that_draws_echoes_its_seed_second(argv, echoed, tmp_path):
    assert main([*argv, "--seed", "5", "--outdir", str(tmp_path)]) == 0
    lines = read(tmp_path / f"{argv[0]}_summary.txt").decode().splitlines()
    assert [line for line in lines if line.startswith("seed:")] == (["seed: 5"] if echoed else [])
    assert (lines[1] == "seed: 5") == echoed


class ReadRecorder(argparse.Namespace):
    """A namespace that adds the name of every attribute read from it to ``reads``."""

    reads: set[str] = set()

    def __getattribute__(self, name):
        ReadRecorder.reads.add(name)
        return super().__getattribute__(name)


# small runs that, taken together, reach every branch that reads an option; other commands run at their defaults
SMALL_RUNS = {
    "scramble": [["--qubits", "4", "--max-steps", "2", "--trials", "10"]],
    "bfs": [["--max-depth", "1"], ["--gateset", "random", "--max-depth", "1"]],
    "curvature": [["--qubits", "4", "--trials", "2"]],
    "wormhole": [["--egrid-points", "2"], ["--mass", "2", "--egrid-points", "2"]],
    "wdw": [[], ["--mass", "2"]],
}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_every_option_is_read_by_its_commands_run(command, monkeypatch):
    # main reads --outdir (and --config); a handler should read every other option it takes
    monkeypatch.setattr(acceptance, "CHECKS", [])
    cmd = COMMANDS[command]
    read_by_runs = set()
    for argv in SMALL_RUNS.get(command, [[]]):
        opts = build_parser().parse_args([command, *argv], namespace=ReadRecorder())
        ReadRecorder.reads.clear()
        cmd.handler(opts)
        read_by_runs |= ReadRecorder.reads
    taken = {opt.flag[2:].replace("-", "_") for opt in cmd.options + _COMMON} - {"outdir"}
    assert taken <= read_by_runs, f"{command} takes options that no run reads: {sorted(taken - read_by_runs)}"
