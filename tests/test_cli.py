import json
import math
import pathlib
import re
import shlex

import numpy as np
import pytest

from thermalcluster import cli
from thermalcluster.cli import main, parse_alpha, parse_grid
from thermalcluster.sweep import CSV_COLUMNS, ConfigError


def test_parse_alpha():
    assert parse_alpha("pi") == math.pi
    assert parse_alpha("0.84pi") == pytest.approx(0.84 * math.pi)
    assert parse_alpha("0.84*pi") == pytest.approx(0.84 * math.pi)
    assert parse_alpha("-pi") == -math.pi
    assert parse_alpha("2.64") == 2.64
    assert parse_alpha(1.5) == 1.5
    for bad in ("two pies", "nan", "inf", "-infpi", "1e400"):
        with pytest.raises(ConfigError):
            parse_alpha(bad)


def test_parse_grid():
    assert parse_grid("0.1,0.2,0.5") == (0.1, 0.2, 0.5)
    assert parse_grid("0:1:5") == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert parse_grid("inf") == (float("inf"),)
    with pytest.raises(ConfigError):
        parse_grid("0:1:5:2")
    with pytest.raises(ConfigError):
        parse_grid("a,b")
    with pytest.raises(ConfigError):
        parse_grid("0:1:0")


def test_sweep_to_stdout(capsys):
    assert main(["sweep", "--p-grid", "0,1"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.strip().split("\n") if not l.startswith("#")]
    assert lines[0] == CSV_COLUMNS
    assert len(lines) == 3
    assert lines[1].startswith("0.0,0.0,")
    assert lines[2].split(",")[1] == "inf"


def test_sweep_provenance_and_output_file(tmp_path, capsys):
    path = tmp_path / "table.csv"
    assert main(["sweep", "--p-grid", "0.3", "--seed", "9", "--output", str(path)]) == 0
    assert capsys.readouterr().out == ""
    text = path.read_text()
    assert "# seed = 9" in text and "# config_hash = " in text and "# tool_version = " in text


def test_sweep_json_round_trip(capsys):
    assert main(["sweep", "--t-grid", "0.4,1.2", "--format", "json"]) == 0
    pts = json.loads(capsys.readouterr().out)["points"]
    assert [round(pt["t_over_delta"], 9) for pt in pts] == [0.4, 1.2]


def test_sweep_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"p_grid": [0.2, 0.4], "alpha": "0.84pi", "seed": 7}')
    assert main(["sweep", "--config", str(cfg), "--p-grid", "0.5"]) == 0
    out = capsys.readouterr().out
    rows = [l for l in out.strip().split("\n") if not l.startswith("#") ]
    assert len(rows) == 2  # the flag grid replaced the file grid
    assert rows[1].startswith("0.5,")


def test_sweep_config_file_errors(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"p_grid": [0.2], "volume": 11}')
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert "volume" in capsys.readouterr().err
    assert main(["sweep", "--config", str(tmp_path / "absent.json")]) == 1
    # values of the wrong JSON type are configuration errors too
    for key, text in (
        ("tomography_enabled", '{"p_grid": [0.2], "tomography_enabled": "no"}'),
        ("flux", '{"p_grid": [0.2], "flux": "abc"}'),
        ("mc_samples", '{"p_grid": [0.2], "mc_samples": "5"}'),
        ("mc_samples", '{"p_grid": [0.2], "mc_samples": 2.5}'),
        ("seed", '{"p_grid": [0.2], "seed": 1.5}'),
        ("p_grid", '{"p_grid": 5}'),
        ("t_grid", '{"t_grid": ["a"]}'),
    ):
        cfg.write_text(text)
        assert main(["sweep", "--config", str(cfg)]) == 1, text
        assert key in capsys.readouterr().err, text


def test_config_errors_exit_1(tmp_path, capsys):
    assert main(["sweep"]) == 1
    assert "exactly one" in capsys.readouterr().err
    assert main(["sweep", "--p-grid", "0.2", "--t-grid", "1.0"]) == 1
    assert main(["sweep", "--p-grid", "7"]) == 1
    assert main(["sweep", "--p-grid", "0.2", "--format", "xml"]) == 1
    # sweeps run on one thread: there is no worker count to set
    assert main(["sweep", "--p-grid", "0.2", "--workers", "2"]) == 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"p_grid": [0.2], "workers": 2}')
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert "workers" in capsys.readouterr().err
    # every sweep runs on the 3-qubit chain: there is no graph to set
    cfg.write_text('{"p_grid": [0.2], "graph": "3; 0-1,1-2"}')
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert "graph" in capsys.readouterr().err
    # extreme values are configuration errors, not numerical failures
    for argv in (
        ["mbqc", "--t", "1", "--alpha", "nan"],
        ["sweep", "--p-grid", "0.5", "--alpha", "nan"],
        ["sweep", "--p-grid", "0.5", "--alpha", "inf"],
        ["sweep", "--p-grid", "0.5", "--tomography", "--flux", "inf"],
        ["sweep", "--p-grid", "0.5", "--tomography", "--flux", "nan"],
        ["tomo", "--t", "1", "--flux", "inf"],
        ["tomo", "--t", "1", "--flux", "nan"],
        ["sweep", "--p-grid", "0.5", "--tomography", "--seed", "-1"],
        ["tomo", "--t", "1", "--seed", "-1"],
        ["spectrum", "--gap", "0"],
        ["spectrum", "--gap", "-1"],
        ["spectrum", "--gap", "nan"],
    ):
        assert main(argv) == 1, argv
    assert main(["nonsense"]) == 1
    assert main([]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_consecutive_calls_parse_as_a_fresh_parser_does(capsys):
    # main builds its parser once per process; a flag given to one call
    # does not carry over to the next, and a bad flag leaves it usable
    runs = [
        ["sweep", "--p-grid", "0.5", "--seed", "9"],
        ["sweep", "--p-grid", "0.5"],
        ["sweep", "--p-grid", "0.5", "--bogus"],
        ["mbqc", "--t", "1.0", "--alpha", "0.84pi"],
        ["mbqc", "--t", "1.0"],
        ["spectrum", "--gap", "2"],
        ["spectrum"],
    ]

    def run(argv):
        code = main(argv)
        return code, capsys.readouterr()

    cli._parser.cache_clear()
    fresh = []
    for argv in runs:
        cli._parser.cache_clear()
        fresh.append(run(argv))
    cli._parser.cache_clear()
    parser = cli._parser()
    assert [run(argv) for argv in runs] == fresh
    assert cli._parser() is parser
    assert [code for code, _ in fresh] == [0, 0, 1, 0, 0, 0, 0]
    assert "--bogus" in fresh[2][1].err
    assert "# seed = 9" in fresh[0][1].out and "# seed = 9" not in fresh[1][1].out
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("thermalcluster ")
    assert run(["spectrum"]) == fresh[-1]


def test_runtime_failures_exit_2(monkeypatch, capsys):
    def failing_reconstruction(rec):
        raise np.linalg.LinAlgError("eigh did not converge")

    monkeypatch.setattr("thermalcluster.cli.mle_reconstruct", failing_reconstruction)
    assert main(["tomo", "--t", "1.0", "--flux", "100"]) == 2
    assert "failure: LinAlgError" in capsys.readouterr().err


def test_count_file_errors_exit_1(tmp_path, capsys):
    assert main(["tomo", "--t", "1.0", "--load-counts", str(tmp_path / "absent.txt")]) == 1
    assert "error:" in capsys.readouterr().err
    mixed = tmp_path / "mixed.txt"
    mixed.write_text("# flux = 10.0\nz0,5\nz0z1,3\n")
    assert main(["tomo", "--t", "1.0", "--load-counts", str(mixed)]) == 1
    assert "qubits" in capsys.readouterr().err
    one_qubit = tmp_path / "one_qubit.txt"
    one_qubit.write_text("# flux = 10.0\nz0,5\nz1,3\nx+,4\ny+,2\n")
    assert main(["tomo", "--t", "1.0", "--load-counts", str(one_qubit)]) == 1
    assert "3-qubit" in capsys.readouterr().err
    infinite = tmp_path / "infinite.txt"
    infinite.write_text("# flux = inf\nz0z0z0,5\n")
    assert main(["tomo", "--t", "1.0", "--load-counts", str(infinite)]) == 1
    assert "flux must be positive and at most 1e+18" in capsys.readouterr().err
    for bad in ("nan", "inf"):
        table = tmp_path / f"{bad}_count.txt"
        table.write_text(f"# flux = 10.0\nz0z0z0,{bad}\nz0z0z1,3\n")
        assert main(["tomo", "--t", "1.0", "--load-counts", str(table)]) == 1
        assert "finite" in capsys.readouterr().err


def test_unwritable_output_files_exit_1(tmp_path, capsys):
    # a path that cannot be written is a configuration error, as an
    # unreadable --config or --load-counts is
    absent = tmp_path / "absent"
    assert main(["sweep", "--p-grid", "0.5", "--output", str(absent / "x.csv")]) == 1
    assert "cannot write output file" in capsys.readouterr().err
    assert main(["tomo", "--t", "1", "--save-counts", str(absent / "c.txt")]) == 1
    assert "cannot write count file" in capsys.readouterr().err
    # a directory in place of the file
    assert main(["sweep", "--p-grid", "0.5", "--output", str(tmp_path)]) == 1
    assert "cannot write output file" in capsys.readouterr().err


def test_spectrum_subcommand(capsys):
    assert main(["spectrum"]) == 0
    out = capsys.readouterr().out
    assert "multiplicities: [1, 3, 3, 1]" in out
    assert "ground state unique: True" in out
    assert main(["spectrum", "--graph", "4; 0-1,1-2,2-3", "--gap", "0.5"]) == 0


def test_spectrum_prints_zero_levels_unsigned(capsys):
    # the middle level of an even chain rounds to -0.0 and is printed 0.0
    for graph, levels in (
        ("4; 0-1,1-2,2-3", "[-2.0, -1.0, 0.0, 1.0, 2.0]"),
        ("6; 0-1,1-2,2-3,3-4,4-5", "[-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]"),
    ):
        assert main(["spectrum", "--graph", graph]) == 0
        assert f"levels: {levels}\n" in capsys.readouterr().out


def test_spectrum_rejects_bad_graph_string(capsys):
    assert main(["spectrum", "--graph", "3; 0-0"]) == 1
    assert "error:" in capsys.readouterr().err


def test_tomo_subcommand(tmp_path, capsys):
    counts = tmp_path / "counts.txt"
    rc = main([
        "tomo", "--t", "0.6", "--alpha", "0.84pi", "--flux", "2000",
        "--seed", "3", "--save-counts", str(counts),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fidelity vs model = 0.9" in out
    assert "converged = True" in out
    assert counts.exists()
    # reconstructing from the saved record reproduces the same report
    assert main(["tomo", "--t", "0.6", "--alpha", "0.84pi", "--load-counts", str(counts)]) == 0
    out2 = capsys.readouterr().out
    line = [l for l in out.split("\n") if "fidelity vs model" in l][0]
    assert line in out2


def test_tomo_counts_at_another_flux_exit_0_unconverged(tmp_path, capsys):
    # counts simulated at flux 1e3 and loaded with a flux header of 1e9 run
    # without a numpy warning (pytest makes one an error) and report the
    # certificate they reached
    counts = tmp_path / "counts.txt"
    argv = ["tomo", "--t", "1", "--alpha", "pi", "--flux", "1000", "--seed", "0"]
    assert main(argv + ["--save-counts", str(counts)]) == 0
    text = counts.read_text().replace("# flux = 1000.0", "# flux = 1000000000.0")
    assert "# flux = 1000000000.0" in text
    counts.write_text(text)
    capsys.readouterr()
    assert main(["tomo", "--t", "1", "--alpha", "pi", "--load-counts", str(counts)]) == 0
    out = capsys.readouterr().out
    assert "flux = 1000000000.0" in out and "converged = False" in out


def test_count_file_over_the_caps_exits_1(tmp_path, capsys):
    # a flux above 1e18 or a count above 2e18 in a count file is refused
    # before any reconstruction
    counts = tmp_path / "counts.txt"
    argv = ["tomo", "--t", "1", "--alpha", "pi", "--flux", "1000", "--seed", "0"]
    assert main(argv + ["--save-counts", str(counts)]) == 0
    text = counts.read_text()
    row = text.splitlines()[2]
    for old, new, message in (
        ("# flux = 1000.0", "# flux = 1e19", "flux must be positive and at most 1e+18"),
        (row, row.split(",")[0] + ",1e19", "at most 2e+18"),
    ):
        assert old in text
        counts.write_text(text.replace(old, new))
        capsys.readouterr()
        assert main(["tomo", "--t", "1", "--alpha", "pi", "--load-counts", str(counts)]) == 1
        assert message in capsys.readouterr().err


def test_tomo_requires_exactly_one_point(capsys):
    assert main(["tomo"]) == 1
    assert main(["tomo", "--t", "1.0", "--p", "0.5"]) == 1
    assert main(["mbqc", "--p", "1.5"]) == 1
    capsys.readouterr()


def test_mbqc_subcommand(capsys):
    assert main(["mbqc", "--t", "1.0", "--alpha", "0.84pi"]) == 0
    out = capsys.readouterr().out
    assert out.count("pair ") == 8
    assert "classical threshold: 0.6666666666666666 (above)" in out
    assert main(["mbqc", "--t", "3.0", "--alpha", "0.84pi"]) == 0
    assert "(below)" in capsys.readouterr().out


def test_cli_output_deterministic(capsys):
    args = ["sweep", "--t-grid", "0.8", "--tomography", "--flux", "1000",
            "--mc-samples", "4", "--seed", "13"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_extreme_inputs_exit_codes(tmp_path, capsys):
    # the spectrum check is made in units of the gap, so any positive finite
    # gap passes; the Gibbs state at T below ~1/745 is the ground projector
    for argv in (
        ["spectrum", "--gap", "1e6"],
        ["spectrum", "--gap", "1e12"],
        ["spectrum", "--gap", "1e-11"],
        ["sweep", "--t-grid", "1e-20"],
    ):
        assert main(argv) == 0, argv
    # a flux beyond numpy's Poisson sampler, and one vertex over the cap on
    # dense Hamiltonians, are configuration errors
    for argv in (
        ["tomo", "--t", "1", "--flux", "1e300"],
        ["sweep", "--p-grid", "0.5", "--tomography", "--flux", "1e300", "--mc-samples", "2"],
        ["spectrum", "--graph", "11;"],
    ):
        assert main(argv) == 1, argv
    # counts read from a file do not use --flux or --seed
    counts = tmp_path / "counts.txt"
    assert main(["tomo", "--t", "1", "--flux", "500", "--save-counts", str(counts)]) == 0
    argv = ["tomo", "--t", "1", "--load-counts", str(counts), "--flux", "inf", "--seed", "-1"]
    assert main(argv) == 0
    capsys.readouterr()


def readme_command_lines():
    # every `thermalcluster ...` line of the README's "Command line" section,
    # with backslash continuations joined
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    lines = "\n".join(re.findall(r"```sh\n(.*?)```", section, re.S)).replace("\\\n", " ")
    return [ln.strip() for ln in lines.splitlines() if ln.strip().startswith("thermalcluster ")]


def test_readme_command_lines_exit_0(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = readme_command_lines()
    assert len(lines) >= 5
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
    capsys.readouterr()
