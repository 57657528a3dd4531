import builtins
import csv
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import dtcmorph.cli as cli
from dtcmorph import dynamics, ensemble, floquet, lapack
from dtcmorph.dynamics import column_blocks, magnetization_series, power_spectrum
from dtcmorph.errors import ValidationError
from dtcmorph.fileio import RunConfig
from dtcmorph.floquet import diagonalize_floquet, fast_floquet_operator, floquet_factors
from dtcmorph.hamiltonians import sample_disorder

SWEEP_COMMANDS = ("spectrum", "levels", "fractal", "sweep")
SERIAL_COMMANDS = ("dynamics", "walk", "heff")


def run_cli(args):
    return cli.main(args)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def common_args(out, extra=()):
    return [*extra, "--n-sites", "2", "--seed", "7", "--out", str(out)]


def read_flags(command, **values):
    """Flag/value pairs for those of `values` (by RunConfig field) that `command` reads."""
    flags = {field: flag for flag, (field, _, _) in cli._FLAGS.items()}
    reads = cli.COMMANDS[command][1]
    return [arg for field, value in values.items() if field in reads
            for arg in (flags[field], str(value))]


def environment_without_blas_threads():
    """os.environ without the variables OpenBLAS reads its thread count from."""
    return {key: value for key, value in os.environ.items()
            if key not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}


def test_spectrum_toy_run(tmp_path):
    out = tmp_path / "spec"
    code = run_cli(["spectrum", "--lambdas", "0.0,0.5", *common_args(out)])
    assert code == 0
    header, rows = read_csv(out / "spectrum.csv")
    assert header == ["lambda", "seed", "alpha", "quasienergy", "re_eigenvalue", "im_eigenvalue"]
    assert len(rows) == 2 * 4  # two lambdas, D = 4 levels each
    for row in rows:
        modulus = float(row[4]) ** 2 + float(row[5]) ** 2
        assert modulus == pytest.approx(1.0, abs=1e-10)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "spectrum"
    digest = hashlib.sha256((out / "spectrum.csv").read_bytes()).hexdigest()
    assert manifest["files"][0]["sha256"] == digest


def test_levels_toy_run(tmp_path):
    out = tmp_path / "lev"
    code = run_cli(
        ["levels", "--lambdas", "0.5", "--realizations", "3", "--bins", "5", *common_args(out)]
    )
    assert code == 0
    header, rows = read_csv(out / "levels_histogram.csv")
    assert len(rows) == 5
    _, summary = read_csv(out / "levels_summary.csv")
    assert len(summary) == 1
    assert float(summary[0][1]) == 3 * 2  # three cells, D-2 = 2 ratios each
    manifest = json.loads((out / "manifest.json").read_text())
    assert "degenerate_gaps" in manifest


def test_fractal_toy_run(tmp_path):
    out = tmp_path / "frac"
    code = run_cli(
        ["fractal", "--lambdas", "0.2,0.8", "--realizations", "2", *common_args(out)]
    )
    assert code == 0
    _, states = read_csv(out / "fractal_states.csv")
    assert len(states) == 2 * 2 * 4
    _, means = read_csv(out / "fractal_mean.csv")
    assert len(means) == 2


def test_dynamics_toy_run_recrystallized_peak(tmp_path):
    out = tmp_path / "dyn"
    code = run_cli(
        ["dynamics", "--lambdas", "0.0,1.0", "--periods", "8", *common_args(out)]
    )
    assert code == 0
    _, power = read_csv(out / "dynamics_power.csv")
    by_bin = {(row[0], int(row[1])): float(row[3]) for row in power}
    # at lam=1 all weight sits in the half-frequency bin k = n/2
    assert by_bin[("1.0", 4)] == pytest.approx(1.0, abs=1e-9)
    for k in range(8):
        if k != 4:
            assert by_bin[("1.0", k)] < 1e-9
    _, series = read_csv(out / "dynamics_series.csv")
    assert len(series) == 2 * 9  # m = 0..8 for each lambda
    _, fid = read_csv(out / "fidelity_4t.csv")
    assert len(fid) == 4 * 2
    fid4 = {(row[0], row[1]): float(row[2]) for row in fid}
    for config in range(4):
        assert fid4[(str(config), "0.0")] == pytest.approx(1.0, abs=1e-12)


def test_walk_toy_run_support(tmp_path):
    out = tmp_path / "walk"
    code = run_cli(
        ["walk", "--lambdas", "0.0,1.0", "--periods", "12", *common_args(out)]
    )
    assert code == 0
    header, rows = read_csv(out / "walk_000.csv")
    assert header[:2] == ["lambda", "m"]
    assert len(header) == 2 + 4
    assert len(rows) == 13
    for row in rows:
        assert sum(float(v) for v in row[2:]) == pytest.approx(1.0, abs=1e-9)
    _, support = read_csv(out / "walk_support.csv")
    counts = {row[0]: int(row[2]) for row in support}
    assert counts["0.0"] == 4
    assert counts["1.0"] == 2


def test_heff_toy_run(tmp_path):
    out = tmp_path / "heff"
    code = run_cli(["heff", "--lambdas", "0.0,0.5", *common_args(out)])
    assert code == 0
    header, rows = read_csv(out / "heff_000.csv")
    assert len(rows) == 4 and len(header) == 2 + 4
    _, sparsity = read_csv(out / "heff_sparsity.csv")
    assert len(sparsity) == 2


def test_sweep_toy_run_and_worker_determinism(tmp_path):
    args = ["sweep", "--lambdas", "0.3,0.9", "--realizations", "2", "--n-sites", "4",
            "--seed", "11"]
    out1 = tmp_path / "w1"
    out2 = tmp_path / "w2"
    assert run_cli([*args, "--workers", "1", "--out", str(out1)]) == 0
    assert run_cli([*args, "--workers", "2", "--out", str(out2)]) == 0
    for name in ("sweep_cells.csv", "sweep_mean_ratio.csv", "sweep_fractal.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_repeat_run_byte_identical(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert run_cli(["spectrum", "--lambdas", "0.25,0.75", *common_args(out)]) == 0
        outs.append(out)
    assert (outs[0] / "spectrum.csv").read_bytes() == (outs[1] / "spectrum.csv").read_bytes()


def test_config_file_drives_run(tmp_path):
    config = {
        "n_sites": 2,
        "lambdas": [0.0, 1.0],
        "realizations": 1,
        "periods": 8,
        "master_seed": 3,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "run"
    assert run_cli(["spectrum", "--config", str(cfg_path), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["master_seed"] == 3
    assert manifest["config"]["lambdas"] == [0.0, 1.0]
    # one file serves every command: spectrum reads no periods, so it records null
    assert manifest["config"]["realizations"] == 1 and manifest["config"]["periods"] is None


_TOY_RUNS = {
    "spectrum": ["--realizations", "2"],
    "levels": ["--realizations", "2", "--bins", "5"],
    "fractal": ["--realizations", "2"],
    "sweep": ["--realizations", "2", "--workers", "2"],
    "dynamics": ["--periods", "8", "--initial-config", "3", "--workers", "2"],
    "walk": ["--periods", "6", "--initial-config", "1"],
    "heff": [],
}


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_each_run_reproduces_from_its_own_manifest(tmp_path, command):
    first, second = tmp_path / "first", tmp_path / "second"
    args = [command, *_TOY_RUNS[command], "--n-sites", "4", "--lambdas", "0,0.3,1", "--seed", "8"]
    assert run_cli([*args, "--out", str(first)]) == 0
    config = json.loads((first / "manifest.json").read_text(encoding="utf-8"))["config"]
    RunConfig.from_dict(config)  # as perfbench's oracles read it
    unread = {field for _, fields in cli.COMMANDS.values() for field in fields}
    unread -= set(cli.COMMANDS[command][1])
    assert {field for field, value in config.items() if value is None} >= unread
    if command == "heff":
        assert unread == {"realizations", "periods", "bins", "initial_config", "workers"}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    assert run_cli([command, "--config", str(cfg_path), "--out", str(second)]) == 0
    csvs = sorted(path.name for path in first.glob("*.csv"))
    assert csvs and csvs == sorted(path.name for path in second.glob("*.csv"))
    assert all((first / name).read_bytes() == (second / name).read_bytes() for name in csvs)
    reread = json.loads((second / "manifest.json").read_text(encoding="utf-8"))["config"]
    assert reread == config


@pytest.mark.parametrize(
    "args",
    [
        ["spectrum", "--lambdas", "0.2,1.5"],
        ["spectrum", "--n-sites", "3"],
        ["spectrum", "--realizations", "0"],
        ["walk", "--initial-config", "99", "--n-sites", "2"],
        ["spectrum", "--workers", "0"],
        ["heff", "--n-sites", "3"],
    ],
)
def test_bad_flags_exit_two(tmp_path, args):
    assert run_cli([*args, "--out", str(tmp_path / "x")]) == 2


def test_unknown_config_key_exits_two(tmp_path):
    # out_format was a config field whose only legal value was "csv"
    for config in ({"sites": 4}, {"out_format": "csv"}):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        assert run_cli(["spectrum", "--config", str(cfg_path)]) == 2


@pytest.mark.parametrize(
    "config",
    [{"realizations": "3"}, {"n_sites": "4"}, {"initial_config": "1"}, {"j0": "x"},
     {"realizations": True}, {"lambdas": ["0.5"]}],
)
@pytest.mark.parametrize("command", ["spectrum", "dynamics"])
def test_mistyped_config_value_exits_two(tmp_path, capsys, config, command):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "x"
    assert run_cli([command, "--config", str(cfg_path), "--out", str(out)]) == 2
    assert f"config key {next(iter(config))!r} must be" in capsys.readouterr().err
    assert not out.exists()


def test_config_lambda_outside_unit_interval_exits_two(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"lambdas": [0.5, -0.1]}), encoding="utf-8")
    out = tmp_path / "x"
    assert run_cli(["spectrum", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "-0.1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "config", [{"w": float("nan")}, {"g": float("inf")}, {"t1": float("nan")}, {"j0": float("nan")}]
)
@pytest.mark.parametrize("command", ["walk", "heff", "dynamics", "levels"])
def test_non_finite_config_coupling_exits_two(tmp_path, capsys, config, command):
    # JSON as Python reads it accepts NaN and Infinity
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "x"
    assert run_cli([command, "--config", str(cfg_path), "--n-sites", "2", "--out", str(out)]) == 2
    assert f"{next(iter(config))} must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_spectrum_with_coupling_overrides_matches_direct_solve(tmp_path):
    config = {"w": 7.5, "g": 4.2}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "s"
    args = ["spectrum", "--config", str(cfg_path), "--n-sites", "4", "--lambdas", "0.3,0.7",
            "--realizations", "2", "--seed", "9", "--out", str(out)]
    assert run_cli(args) == 0
    cfg = RunConfig(n_sites=4, **config)
    _, rows = read_csv(out / "spectrum.csv")
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert len(manifest["cell_seeds"]) == 4
    for cell in manifest["cell_seeds"]:
        lam = (0.3, 0.7)[cell["lambda_index"]]
        params = cfg.params_for(lam)
        factors = floquet_factors(params, sample_disorder(params, cell["seed"]))
        f = fast_floquet_operator(factors)
        direct = diagonalize_floquet(f, factors, params.period, vectors=False).quasienergies
        got = [float(r[3]) for r in rows if float(r[0]) == lam and int(r[1]) == cell["seed"]]
        assert got == direct.tolist()


def test_missing_config_file_exits_two(tmp_path):
    assert run_cli(["spectrum", "--config", str(tmp_path / "nope.json")]) == 2


def test_validation_failure_exits_three(tmp_path, monkeypatch, capsys):
    def broken(cfg, out_dir):
        raise ValidationError("forced")

    monkeypatch.setitem(cli._HANDLERS, "spectrum", broken)
    assert run_cli(["spectrum", "--n-sites", "2", "--out", str(tmp_path / "v")]) == 3
    # a cell whose Cayley solve is refused at every rotation fails loudly:
    # here every cell at lambda 0.5, flagged per worker thread by its factors
    cell = threading.local()
    real_factors, real_cayley = ensemble.floquet_factors, floquet._cayley_hermitian

    def factors(params, disorder):
        cell.refused = params.lam == 0.5
        return real_factors(params, disorder)

    monkeypatch.setattr(ensemble, "floquet_factors", factors)
    monkeypatch.setattr(floquet, "_cayley_hermitian",
                        lambda f, phase=0.0: None if cell.refused else real_cayley(f, phase))
    out = tmp_path / "lev"
    assert run_cli(sweep_args("levels", out)) == 3
    err = capsys.readouterr().err
    for realization in (0, 1):
        assert f"cell (1,{realization}) failed: ValidationError: the Cayley solve refused" in err
    assert "cell (0," not in err
    assert "every cell failed at lambda 0.5" in err
    assert not out.exists()


def test_dynamics_manifest_counts_undefined_fidelities(tmp_path):
    # 36 configurations keep a zero magnetization series at lam = 0 and 70 at
    # lam = 1 (see test_dynamics.zero_series_configs); a fidelity is undefined
    # where the reference's or the column's series is zero
    out = tmp_path / "dyn8"
    code = run_cli(["dynamics", "--n-sites", "8", "--lambdas", "0,1", "--seed", "3",
                    "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["undefined_fidelities"] == {
        "fidelity_4t.csv": 36 + 70,
        "fidelity_2t.csv": 70 + 70,
    }


def test_dynamics_writes_an_exactly_zero_spectrum_as_undefined(tmp_path):
    # over two periods the magnetization series of configuration 3 at lam = 0
    # is exactly zero; its power spectrum has norm 0 in the lam = 0 reference
    # (every column of fidelity_4t) and in the lam = 0 column of fidelity_2t
    out = tmp_path / "dyn"
    assert run_cli(["dynamics", "--n-sites", "4", "--periods", "2", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    for name, zero_lambdas in (("fidelity_4t.csv", 21), ("fidelity_2t.csv", 1)):
        _, rows = read_csv(out / name)
        zeros = [row for row in rows if row[0] == "3" and float(row[2]) == 0.0]
        assert len(zeros) == zero_lambdas
        assert manifest["undefined_fidelities"][name] >= zero_lambdas


@pytest.mark.parametrize("n_sites", [2, 4, 6, 8])
def test_dynamics_csvs_do_not_depend_on_workers(tmp_path, n_sites):
    outputs = []
    for workers in (1, 2, 3):
        out = tmp_path / f"w{workers}"
        args = ["dynamics", "--n-sites", str(n_sites), "--periods", "32", "--seed", "3",
                "--workers", str(workers), "--out", str(out)]
        assert run_cli(args) == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        # the pool is capped by the high Kronecker index, and N = 2 is one block
        assert manifest["workers"] == len(column_blocks(n_sites, workers))
        assert manifest["workers"] == (1 if n_sites == 2 else workers)
        outputs.append({path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))})
    assert len(outputs[0]) == 4
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_dynamics_norm_drift_message_does_not_depend_on_workers(
    tmp_path, corrupt_factors, capsys
):
    corrupt_factors("phases")
    errors = []
    for workers in (1, 2, 3):
        out = tmp_path / f"d{workers}"
        args = ["dynamics", "--n-sites", "6", "--periods", "8", "--workers", str(workers),
                "--out", str(out)]
        assert run_cli(args) == 3
        errors.append(capsys.readouterr().err)
        assert not out.exists()
    assert "state norm deviates from 1 by 8.028e-03" in errors[0]
    assert errors == [errors[0]] * 3


def test_every_flag_has_a_help_line(capsys):
    assert all(flag_help for _, _, flag_help in cli._FLAGS.values())
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["dynamics", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert all(cli._FLAGS[flag][2] in text for flag in ("--periods", "--initial-config", "--workers"))


class RecordingConfig:
    """A RunConfig that records which of its fields a handler reads."""

    def __init__(self, cfg):
        self.cfg, self.read = cfg, set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self.cfg, name)


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_command_table_lists_the_fields_each_handler_reads(tmp_path, command):
    args = cli.build_parser().parse_args([command, "--n-sites", "2", "--lambdas", "0.5"])
    cfg = RecordingConfig(cli.resolve_config(args))
    cli._HANDLERS[command](cfg, tmp_path)
    optional = {field for _, fields in cli.COMMANDS.values() for field in fields}
    assert cfg.read & optional == set(cli.COMMANDS[command][1])


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_each_command_takes_only_the_flags_it_reads(capsys, command):
    flags = {field: flag for flag, (field, _, _) in cli._FLAGS.items()}
    own = {flags[field] for field in cli.COMMANDS[command][1]}
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == {"--help", "--config", "--out", "--seed", "--n-sites"} | own
    for flag in set(flags.values()) - listed:
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args([command, flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_flag_command_pairs_are_the_ones_read():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    fields = {field for field, _, _ in cli._FLAGS.values()}
    pairs = sum(action.dest in fields for cmd in sub.choices.values() for action in cmd._actions)
    assert pairs == sum(2 + len(reads) for _, reads in cli.COMMANDS.values()) == 35


def test_walk_norm_drift_exits_three(tmp_path, corrupt_factors):
    corrupt_factors("phases")
    assert run_cli(["walk", "--periods", "12", *common_args(tmp_path / "w")]) == 3


def test_dynamics_fidelity_norm_drift_exits_three(tmp_path, corrupt_factors, capsys):
    # the grid holds lambda = 0.5 only; the lambda = 0 reference of the
    # fidelity maps is the one corrupted evolution, so its norm check trips
    corrupt_factors("phases", lam=0.0)
    out = tmp_path / "d"
    args = ["dynamics", "--lambdas", "0.5", "--periods", "8", "--n-sites", "4", "--out", str(out)]
    assert run_cli(args) == 3
    assert "state norm deviates from 1 by 8.028e-03" in capsys.readouterr().err
    assert not out.exists()


def test_dynamics_transforms_each_lambda_once(tmp_path, monkeypatch):
    # the power rows are the batched transform's column for the initial
    # configuration: one 2-D DFT per grid lambda (0 and 1 are grid points),
    # and no single-series power spectrum
    calls = []
    real = dynamics.dft
    monkeypatch.setattr(dynamics, "dft", lambda v: calls.append(v.ndim) or real(v))
    monkeypatch.setattr(dynamics, "power_spectrum", lambda s: calls.append("power_spectrum"))
    out = tmp_path / "d"
    assert run_cli(["dynamics", "--n-sites", "4", "--periods", "8", "--out", str(out)]) == 0
    assert calls == [2] * 21
    assert not hasattr(cli, "power_spectrum")


# The series and power rows of `dynamics` come from the all-configuration
# evolution of the fidelity maps; they must match the single-state route
# (`magnetization_series`, `power_spectrum`) to this absolute tolerance,
# fixed before measuring.
DYNAMICS_SERIES_TOL = 1e-12


@pytest.mark.parametrize("n_sites", [2, 4, 8])
def test_dynamics_series_match_the_single_state_route(tmp_path, n_sites):
    lambdas = (0.0, 0.5, 1.0)
    half_down = (1 << (n_sites // 2)) - 1  # zero magnetization: series identically 0 at lam = 1
    configs = (0, half_down, (1 << n_sites) - 2)
    for config in configs:
        out = tmp_path / str(config)
        args = ["dynamics", "--n-sites", str(n_sites), "--lambdas", "0,0.5,1", "--periods", "16",
                "--initial-config", str(config), "--seed", "9", "--out", str(out)]
        assert run_cli(args) == 0
        _, series_rows = read_csv(out / "dynamics_series.csv")
        _, power_rows = read_csv(out / "dynamics_power.csv")
        cfg = cli.resolve_config(cli.build_parser().parse_args(args))
        disorder, _ = cli._shared_disorder(cfg)
        for li, lam in enumerate(lambdas):
            series = magnetization_series(cfg.params_for(lam), disorder, config, 16)
            expected = [series.initial_value, *series.values]
            rows = series_rows[17 * li:17 * (li + 1)]
            assert [(float(r[0]), int(r[1])) for r in rows] == [(lam, m) for m in range(17)]
            got = np.array([float(r[2]) for r in rows])
            assert np.max(np.abs(got - expected)) <= DYNAMICS_SERIES_TOL
            if config == half_down and lam == 1.0:
                assert np.max(np.abs(got)) <= DYNAMICS_SERIES_TOL
            spectrum = power_spectrum(series)
            rows = power_rows[16 * li:16 * (li + 1)]
            assert [float(r[2]) for r in rows] == spectrum.frequencies.tolist()
            got = np.array([float(r[3]) for r in rows])
            assert np.max(np.abs(got - spectrum.values)) <= DYNAMICS_SERIES_TOL


def fail_cells(monkeypatch, should_fail, error=None):
    real = ensemble.floquet_factors

    def flaky(params, disorder):
        if should_fail(params, disorder):
            raise error or RuntimeError("injected failure")
        return real(params, disorder)

    monkeypatch.setattr(ensemble, "floquet_factors", flaky)


def sweep_args(command, out):
    return [command, "--lambdas", "0.2,0.5", "--realizations", "2", "--workers", "2",
            *common_args(out)]


@pytest.mark.parametrize("command", SWEEP_COMMANDS)
def test_lambda_column_without_surviving_cell_exits_three(tmp_path, monkeypatch, capsys, command):
    fail_cells(monkeypatch, lambda params, disorder: params.lam == 0.5)
    assert run_cli(sweep_args(command, tmp_path / "x")) == 3
    err = capsys.readouterr().err
    assert "every cell failed at lambda 0.5" in err
    assert "non-finite" not in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", SWEEP_COMMANDS)
def test_some_failed_cells_are_reported_not_fatal(tmp_path, monkeypatch, capsys, command):
    failed_seed = ensemble.derive_seed(7, 1, 0)
    fail_cells(monkeypatch, lambda params, disorder: disorder.seed == failed_seed)
    out = tmp_path / "x"
    assert run_cli(sweep_args(command, out)) == 0
    assert "cell (1,0) failed: RuntimeError: injected failure" in capsys.readouterr().err
    if command == "sweep":
        _, rows = read_csv(out / "sweep_cells.csv")
        errors = {(row[0], row[1]): row[7] for row in rows}
        assert errors.pop(("1", "0")) == "RuntimeError: injected failure"
        assert set(errors.values()) == {""}


def test_failed_cell_error_with_commas_stays_one_csv_field(tmp_path, monkeypatch):
    failed = {ensemble.derive_seed(7, 1, 0), ensemble.derive_seed(7, 1, 2)}
    message = ("Unable to allocate 256. MiB for an array with shape (4096, 4096) "
               "and data type complex128")
    fail_cells(monkeypatch, lambda params, disorder: disorder.seed in failed, MemoryError(message))
    out = tmp_path / "x"
    args = ["sweep", "--n-sites", "4", "--lambdas", "0.3,0.5,0.9", "--realizations", "4",
            "--workers", "1", "--seed", "7", "--out", str(out)]
    assert run_cli(args) == 0
    header, rows = read_csv(out / "sweep_cells.csv")
    assert len(header) == 8 and all(len(row) == 8 for row in rows)
    errors = {(row[0], row[1]): row[7] for row in rows}
    assert errors.pop(("1", "0")) == errors.pop(("1", "2")) == f"MemoryError: {message}"
    assert set(errors.values()) == {""}


@pytest.mark.parametrize("command", SWEEP_COMMANDS + SERIAL_COMMANDS)
def test_manifest_lists_every_file(tmp_path, command):
    out = tmp_path / command
    args = [command, "--n-sites", "4", "--lambdas", "0.3,0.7",
            *read_flags(command, realizations=2, periods=8, workers=2),
            "--seed", "5", "--out", str(out)]
    assert run_cli(args) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    # walk and heff are serial and never start a pool; dynamics evolves its
    # columns in 2 blocks here (N = 4 has 4 high Kronecker indices)
    assert manifest["workers"] == (2 if command in SWEEP_COMMANDS + ("dynamics",) else 1)
    # every command that diagonalizes F reports its fallbacks and its
    # closed-form endpoint cells (none on this grid); every command runs
    # under the one-BLAS-thread limit and reports its BLAS threads and the
    # environment it ran in
    if command in SWEEP_COMMANDS + ("heff",):
        assert manifest["eigensolver_fallbacks"] == 0
        assert manifest["closed_form_cells"] == 0
    else:
        assert "eigensolver_fallbacks" not in manifest
        assert "closed_form_cells" not in manifest
    assert manifest["blas_threads_per_cell"] == 1
    assert manifest["lapack"] == lapack.library() != "unknown"
    environment = manifest["environment"]
    assert environment == lapack.environment(environment["blas_threads_at_start"])
    names = [entry["name"] for entry in manifest["files"]]
    assert sorted(names) == sorted(path.name for path in out.glob("*.csv"))
    for entry in manifest["files"]:
        data = (out / entry["name"]).read_bytes()
        assert hashlib.sha256(data).hexdigest() == entry["sha256"]
        assert data.count(b"\n") - 1 == entry["rows"]


def test_manifest_counts_eigensolver_fallbacks(tmp_path, monkeypatch):
    # only the unrotated attempt is refused, so every cell is retried once
    real = floquet._cayley_hermitian
    monkeypatch.setattr(floquet, "_cayley_hermitian",
                        lambda f, phase=0.0: real(f, phase) if phase else None)
    out = tmp_path / "lev"
    assert run_cli(sweep_args("levels", out)) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["eigensolver_fallbacks"] == 4
    out = tmp_path / "heff"
    assert run_cli(["heff", "--lambdas", "0.2,0.5", *common_args(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["eigensolver_fallbacks"] == 2


def test_manifest_counts_closed_form_cells(tmp_path):
    # heff's default grid holds both exact endpoints, and only they are monomial
    out = tmp_path / "heff"
    assert run_cli(["heff", *common_args(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["lambdas"] == [0.0, 0.5, 1.0]
    assert (manifest["closed_form_cells"], manifest["eigensolver_fallbacks"]) == (2, 0)
    out = tmp_path / "spectrum"
    args = ["spectrum", "--lambdas", "0,0.5,1", "--realizations", "2", *common_args(out)]
    assert run_cli(args) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert (manifest["closed_form_cells"], manifest["eigensolver_fallbacks"]) == (4, 0)


def test_endpoints_never_build_dense_f(tmp_path, monkeypatch):
    def no_dense_f(factors):
        raise AssertionError("dense F built at an exact endpoint")

    monkeypatch.setattr(floquet, "fast_floquet_operator", no_dense_f)
    out = tmp_path / "heff"
    assert run_cli(["heff", "--n-sites", "4", "--lambdas", "0,1", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["closed_form_cells"] == 2
    out = tmp_path / "sweep"
    args = ["sweep", "--n-sites", "4", "--lambdas", "0,1", "--realizations", "2",
            "--out", str(out)]
    assert run_cli(args) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["closed_form_cells"] == 4


@pytest.mark.parametrize("corrupt", [lambda phases: 1.01 * phases,
                                     lambda phases: np.where(np.arange(len(phases)) == 1,
                                                             np.nan, phases)])
def test_heff_with_corrupt_endpoint_phases_exits_three(tmp_path, monkeypatch, capsys, corrupt):
    # corrupt segment-2 phases at lambda = 0 must not pass through the closed
    # form: it refuses them, and the built F fails its unitarity gate
    real = cli.floquet_factors

    def corrupted(params, disorder):
        factors = real(params, disorder)
        if params.lam != 0.0:
            return factors
        return dataclasses.replace(factors, phases=corrupt(factors.phases))

    monkeypatch.setattr(cli, "floquet_factors", corrupted)
    out = tmp_path / "h"
    assert run_cli(["heff", "--n-sites", "4", "--lambdas", "0", "--out", str(out)]) == 3
    assert "deviates from unitary" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_walk_failing_at_a_later_lambda_leaves_no_output(tmp_path, corrupt_factors):
    # lambda = 0 succeeds and is written first; lambda = 0.5 fails its norm check
    corrupt_factors("phases", scale=1.01, lam=0.5)
    out = tmp_path / "w"
    assert run_cli(["walk", "--periods", "12", *common_args(out)]) == 3
    assert list(tmp_path.iterdir()) == []


def test_heff_failing_at_a_later_lambda_leaves_no_output(tmp_path, monkeypatch, capsys):
    real = cli.floquet_factors

    def broken_at_half(params, disorder):
        factors = real(params, disorder)
        if params.lam != 0.5:
            return factors
        return dataclasses.replace(factors, phases=1.01 * factors.phases)  # F -> 1.01 F

    monkeypatch.setattr(cli, "floquet_factors", broken_at_half)
    out = tmp_path / "h"
    assert run_cli(["heff", *common_args(out)]) == 3
    assert "deviates from unitary" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_heff_with_a_nan_propagator_exits_three(tmp_path, monkeypatch, capsys):
    real = floquet.fast_floquet_operator

    def nan_entry(factors):
        f = real(factors)
        f[1, 2] = np.nan
        return f

    monkeypatch.setattr(floquet, "fast_floquet_operator", nan_entry)
    out = tmp_path / "h"
    assert run_cli(["heff", *common_args(out)]) == 3
    assert "deviates from unitary by nan" in capsys.readouterr().err
    assert not out.exists()


def test_failed_run_leaves_an_existing_output_directory_as_it_was(tmp_path, corrupt_factors):
    out = tmp_path / "w"
    assert run_cli(["walk", "--periods", "4", *common_args(out)]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    corrupt_factors("phases", scale=1.01, lam=0.5)
    assert run_cli(["walk", "--periods", "12", *common_args(out)]) == 3
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before
    assert [path.name for path in tmp_path.iterdir()] == ["w"]


def test_rerun_into_an_existing_directory_replaces_its_files(tmp_path):
    out = tmp_path / "s"
    out.mkdir()
    (out / "notes.txt").write_text("kept", encoding="utf-8")
    (out / "spectrum.csv").write_text("stale", encoding="utf-8")
    assert run_cli(["spectrum", "--lambdas", "0.5", *common_args(out)]) == 0
    assert (out / "notes.txt").read_text(encoding="utf-8") == "kept"
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    digest = hashlib.sha256((out / "spectrum.csv").read_bytes()).hexdigest()
    assert manifest["files"][0]["sha256"] == digest
    assert [path.name for path in tmp_path.iterdir()] == ["s"]


def test_blas_limit_needs_no_proc_maps(tmp_path, monkeypatch, blas_threads):
    # the thread setter comes from numpy's library handle, not from a list of
    # the loaded libraries, so a process without /proc is limited all the same
    real_open = builtins.open

    def no_proc_maps(file, *args, **kwargs):
        if str(file) == "/proc/self/maps":
            raise OSError("no /proc here")
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", no_proc_maps)
    out = tmp_path / "spec"
    assert run_cli(["spectrum", "--lambdas", "0.5", *common_args(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["blas_threads_per_cell"] == 1
    with lapack.one_blas_thread():
        assert blas_threads() == 1
    assert blas_threads() == 2


def test_results_do_not_depend_on_blas_threads_or_workers(tmp_path):
    # At N = 8 OpenBLAS runs LAPACK on several threads when it has them, and
    # the last digits then depend on the thread count; every command must run
    # with one BLAS thread whatever the environment and the worker count.
    # A command process left to itself starts OpenBLAS with one thread, so
    # OPENBLAS_NUM_THREADS=2 is what starts a pool of several here; the
    # manifest records the count each run started with (heff and walk are
    # serial and take no --workers, so they run once per BLAS setting;
    # dynamics evolves its columns in one or two blocks).
    commands = {
        "levels": ["levels", "--lambdas", "0.5,0.999", "--realizations", "2"],
        "sweep": ["sweep", "--lambdas", "0.5", "--realizations", "2"],
        "heff": ["heff", "--lambdas", "0.5"],
        "dynamics": ["dynamics", "--lambdas", "0,0.5,1", "--periods", "16"],
        "walk": ["walk", "--lambdas", "0,0.5,1"],
    }
    src = str(Path(cli.__file__).resolve().parents[1])
    outputs = {}
    for blas in ("2", "1"):
        env = {**environment_without_blas_threads(), "PYTHONPATH": src,
               "OPENBLAS_NUM_THREADS": blas}
        for workers in ("1", "2"):
            for name, args in commands.items():
                if workers == "2" and "workers" not in cli.COMMANDS[name][1]:
                    continue
                out = tmp_path / f"{name}-{blas}-{workers}"
                subprocess.run(
                    [sys.executable, "-m", "dtcmorph.cli", *args, "--n-sites", "8", "--seed", "5",
                     *read_flags(name, workers=workers), "--out", str(out)],
                    env=env, check=True, capture_output=True, timeout=300,
                )
                outputs.setdefault(name, []).append(
                    {path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))}
                )
                manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
                assert manifest["environment"]["blas_threads_at_start"] == int(blas)
    for name, runs in outputs.items():
        assert len(runs[0]) == {"levels": 2, "sweep": 3, "heff": 2, "dynamics": 4, "walk": 4}[name]
        assert len(runs) == (4 if "workers" in cli.COMMANDS[name][1] else 2)
        assert all(run == runs[0] for run in runs), name


# A fresh interpreter that imports the package as a command process does,
# and reports the OpenBLAS thread count the limit replaced
_BLAS_START_PROBE = """
import json, os, sys
import dtcmorph
numpy_after_package = "numpy" in sys.modules
from dtcmorph import cli, lapack
with lapack.one_blas_thread() as threads_at_start:
    pass
print(json.dumps({"numpy_after_package": numpy_after_package, "threads": threads_at_start,
                  "variable": os.environ.get("OPENBLAS_NUM_THREADS")}))
"""


@pytest.mark.parametrize("variable, threads", [(None, 1), ("2", 2)])
def test_a_command_process_starts_openblas_with_one_thread_unless_told(variable, threads):
    env = {**environment_without_blas_threads(),
           "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    if variable is not None:
        env["OPENBLAS_NUM_THREADS"] = variable
    proc = subprocess.run([sys.executable, "-c", _BLAS_START_PROBE], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    assert json.loads(proc.stdout) == {"numpy_after_package": False, "threads": threads,
                                       "variable": variable or "1"}


_LATE_CLI_PROBE = """
import json, os
import numpy
before = dict(os.environ)
import dtcmorph.cli
print(json.dumps(dict(os.environ) == before))
"""


def test_importing_the_cli_after_numpy_leaves_the_environment_alone():
    # a library user who loaded numpy first keeps the OpenBLAS numpy started
    env = {**environment_without_blas_threads(),
           "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", _LATE_CLI_PROBE], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    assert json.loads(proc.stdout) is True


# Run in a fresh interpreter the way perfbench/child.py times a command: the
# import and the parse are set-up, cli.main is the command's wall time.
_IMPORT_PROBE = """
import json, sys
from dtcmorph import cli
argv = sys.argv[1:]
cli.resolve_config(cli.build_parser().parse_args(argv))
scipy_at_setup = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
before = set(sys.modules)
code = cli.main(argv)
print(json.dumps({
    "code": code,
    "scipy": scipy_at_setup + sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "numpy_added": sorted(m for m in set(sys.modules) - before if m.split(".")[0] == "numpy"),
    # the disorder draw and the digests load neither numpy.random nor OpenSSL
    "loaded": sorted(m for m in ("numpy.random", "hashlib", "_hashlib", "hmac", "secrets")
                     if m in sys.modules),
}))
"""


@pytest.mark.parametrize("command", SWEEP_COMMANDS + SERIAL_COMMANDS)
def test_commands_load_no_scipy_and_no_numpy_module_after_setup(tmp_path, command):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    args = [command, "--n-sites", "4", "--lambdas", "0,0.5",
            *read_flags(command, realizations=2, periods=8), "--seed", "5",
            "--out", str(tmp_path / command)]
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *args], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {"code": 0, "scipy": [], "numpy_added": [], "loaded": []}
