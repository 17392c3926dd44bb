import re
import warnings

import numpy as np
import pytest

from complexitylab import cli, gates, holography
from complexitylab.cli import _COMMON, _CONFIG, COMMANDS, OUTDIR_ENV, _merge_options, build_parser, main


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


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
    assert "seed: 1729" in summary
    assert "wall_time_s:" in summary


def test_wdw_higher_dimension(tmp_path):
    assert main(["wdw", "--dim", "7", "--mu", "2.5", "--outdir", str(tmp_path)]) == 0
    row = read(tmp_path / "wdw.csv").decode().splitlines()[1].split(",")
    assert float(row[6]) == pytest.approx(1.0, abs=1e-10)


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


@pytest.mark.parametrize("flags", [["--qubits", "7"], ["--max-steps", "-1"]])
def test_scramble_bad_size_exits_1_with_message(tmp_path, capsys, flags):
    assert main(["scramble", *flags, "--trials", "10", "--outdir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


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
    assert main(["curvature", "--qubits", "5", "--outdir", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_counting_run(tmp_path):
    assert main(["counting", "--qubits", "4", "--epsilon", "0.01", "--outdir", str(tmp_path)]) == 0
    lines = read(tmp_path / "counting.csv").decode().splitlines()
    assert lines[0].startswith("K,epsilon,log_vol_su")
    assert len(lines) == 2


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


def _write_target(path, U):
    path.write_text("".join(",".join(f"{z.real:.17g},{z.imag:.17g}" for z in row) + "\n" for row in U))


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
        return 0.0, 1.0, {}, "injected failure"

    monkeypatch.setattr(holography, "quad", failing_quad)
    assert main(["wormhole", "--outdir", str(tmp_path)]) == 1
    assert "volume integral did not converge: abserr 1, tol 1e-10 (injected failure)" in capsys.readouterr().err


def test_outdir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("COMPLEXITYLAB_OUTDIR", str(tmp_path / "env_out"))
    assert main(["counting"]) == 0
    assert (tmp_path / "env_out" / "counting.csv").exists()


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


def test_bfs_zero_epsilon_exits_1(tmp_path, capsys):
    assert main(["bfs", "--epsilon", "0", "--gateset", "cnot", "--outdir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: epsilon must be finite and > 0")


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
    if opt.type is int:
        return str((opt.default or 0) + 3)
    if opt.type in (cli.finite, cli.finite_or_inf):
        return "2.5"
    return "elsewhere"


@pytest.mark.parametrize("command", list(COMMANDS))
def test_config_line_and_flag_merge_to_the_same_namespace(command, tmp_path, monkeypatch):
    monkeypatch.delenv(OUTDIR_ENV, raising=False)
    for opt in COMMANDS[command].options + _COMMON:
        raw = _sample_value(opt)
        cfg = tmp_path / f"{opt.flag[2:]}.cfg"
        cfg.write_text(f"{opt.flag[2:]}={raw}\n")
        from_flag = vars(_merge_options(build_parser().parse_args([command, opt.flag, raw])))
        from_config = vars(_merge_options(build_parser().parse_args([command, "--config", str(cfg)])))
        assert from_config.pop("config") == str(cfg)
        assert from_flag.pop("config") is None
        assert from_config == from_flag
        assert from_flag[opt.flag[2:].replace("-", "_")] not in (None, opt.default)
