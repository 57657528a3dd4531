"""Command-line interface: one subcommand per figure-level dataset.

Exit codes: 0 success, 2 configuration errors, 3 numerical-validation
failures. Every command takes --config, --out, --seed, --n-sites and
--lambdas, plus a flag for each further field it reads (`COMMANDS`); every
run writes CSV tables and a manifest.json with seeds and digests.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# A command computes with one BLAS thread (`lapack.one_blas_thread`). Where
# numpy is not loaded yet, its OpenBLAS then starts with that one thread too,
# not with an idle worker pool; a process that loaded numpy first, and an
# OPENBLAS_NUM_THREADS the user set, are left as they are.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import lapack
from .diagnostics import REFERENCE_KINDS, mean_gap_ratio, ratio_histogram, reference_density
from .dynamics import fidelity_map, walk_populations, walk_support
from .ensemble import (
    EnsembleResult,
    SweepPlan,
    aggregate_fractal,
    derive_seed,
    pooled_mean_ratios,
    pooled_ratios,
    run_sweep,
    surviving_cells,
)
from .errors import ConfigError, ValidationError
from .fileio import RunConfig, staged_output, write_csv, write_manifest
from .floquet import effective_hamiltonian, floquet_factors, floquet_spectrum, sparsity_fraction
from .hamiltonians import sample_disorder

WALK_SUPPORT_THRESHOLD = 1e-3
HEFF_SPARSITY_THRESHOLD = 1e-3

_CURVE_GRID = tuple(np.linspace(0.0, 1.0, 21))
_STATS_GRID = (0.001, 0.5, 0.999)

# command -> (help line, {field: default} for the lambda grid and each field
# it reads beyond the common ones: --seed, --n-sites and the model couplings);
# a workers default of None means the usable CPUs
COMMANDS = {
    "spectrum": ("quasienergy tables over the deformation grid",
                 {"lambdas": _CURVE_GRID, "realizations": 1, "workers": None}),
    "levels": ("pooled gap-ratio histograms and reference densities",
               {"lambdas": _STATS_GRID, "realizations": 100, "workers": None, "bins": 20}),
    "fractal": ("per-state and averaged fractal dimensions",
                {"lambdas": _CURVE_GRID, "realizations": 20, "workers": None}),
    "dynamics": ("magnetization series, power spectra and fidelity maps",
                 {"lambdas": _CURVE_GRID, "periods": 64, "initial_config": 0, "workers": None}),
    "walk": ("configuration-space walk populations",
             {"lambdas": (0.0, 0.5, 1.0), "periods": 40, "initial_config": 0}),
    "heff": ("effective-Hamiltonian magnitudes and sparsity", {"lambdas": (0.0, 0.5, 1.0)}),
    "sweep": ("full disorder-ensemble sweep with aggregates",
              {"lambdas": _CURVE_GRID, "realizations": 100, "workers": None}),
}


def _parse_lambdas(text: str) -> tuple:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse lambda grid {text!r}: {exc}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty lambda grid")
    return values


# flag -> (RunConfig field it overrides, argument type, help)
_FLAGS = {
    "--seed": ("master_seed", int, "master seed override"),
    "--n-sites": ("n_sites", int, "chain length (even)"),
    "--lambdas": ("lambdas", _parse_lambdas, "comma-separated deformation grid"),
    "--realizations": ("realizations", int, "disorder realizations per lambda"),
    "--periods": ("periods", int, "drive periods evolved"),
    "--workers": ("workers", int, "worker threads (default: usable CPUs)"),
    "--bins": ("bins", int, "gap-ratio histogram bins"),
    "--initial-config": ("initial_config", int, "basis configuration the evolution starts from"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtcmorph",
        description="Driven spin-chain simulator: melting and recrystallization "
        "of time-crystalline order across a deformation sweep.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, fields) in COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", type=str, default=None, help="JSON config file")
        cmd.add_argument("--out", type=str, default=None, help="output directory")
        for flag, (field, kind, flag_help) in _FLAGS.items():
            if field in fields or field in ("master_seed", "n_sites"):
                cmd.add_argument(flag, dest=field, type=kind, default=None, help=flag_help)
    return parser


def resolve_config(args) -> RunConfig:
    """Flags over the config file over the `COMMANDS` defaults; a field the command does
    not read is None, even where a config file shared across commands sets it."""
    fields = COMMANDS[args.command][1]
    data = (RunConfig.from_file(args.config) if args.config else RunConfig()).to_dict()
    for field, _, _ in _FLAGS.values():
        if getattr(args, field, None) is not None:
            data[field] = getattr(args, field)
    unread = {field for _, other in COMMANDS.values() for field in other} - fields.keys()
    data.update({field: None for field in unread})
    data.update({field: default for field, default in fields.items() if data[field] is None})
    cfg = RunConfig.from_dict(data)
    if not cfg.lambdas:
        raise ConfigError("empty lambda grid")
    try:
        for lam in cfg.lambdas:
            cfg.params_for(lam)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.initial_config is not None and not 0 <= cfg.initial_config < (1 << cfg.n_sites):
        raise ConfigError(
            f"initial configuration {cfg.initial_config} outside [0, {1 << cfg.n_sites})"
        )
    for name in ("realizations", "periods", "bins", "workers"):
        if getattr(cfg, name) is not None and getattr(cfg, name) < 1:
            raise ConfigError(f"{name} must be >= 1")
    return cfg


def _route_counts(routes: list) -> dict:
    """Manifest counts of the spectral routes taken: Cayley solves answered only on a
    phase-rotated F (`diagonalize_floquet`'s retry) and closed-form cells."""
    return {
        "eigensolver_fallbacks": routes.count("cayley_rotated"),
        "closed_form_cells": routes.count("closed_form"),
    }


def _sweep(cfg: RunConfig, states: bool) -> tuple[EnsembleResult, dict]:
    """Run the ensemble sweep; a lambda column with no surviving cell fails the run.

    Returns the result and its manifest fields: seed provenance, worker count,
    and the spectral routes of the surviving cells (`_route_counts`).
    """
    plan = SweepPlan(
        lambdas=cfg.lambdas,
        realizations=cfg.realizations,
        master_seed=cfg.master_seed,
        base=cfg.params_for(0.0),
        states=states,
    )
    result = run_sweep(plan, workers=cfg.workers)
    seeds = [
        {
            "lambda_index": r.lambda_index,
            "realization_index": r.realization_index,
            "seed": r.seed,
        }
        for r in result.records
    ]
    for r in result.records:
        if r.error is not None:
            print(
                f"cell ({r.lambda_index},{r.realization_index}) failed: {r.error}", file=sys.stderr
            )
    for li in range(len(plan.lambdas)):
        surviving_cells(result, li)  # a column with no survivor fails the run
    return result, {
        "cell_seeds": seeds,
        "workers": result.workers,
        **_route_counts([r.route for r in result.records]),
    }


def _state_rows(result: EnsembleResult, columns):
    """Rows (lambda, seed, alpha, *values) for every state of every surviving cell.

    `columns(record)` gives the per-state value arrays of one record.
    """
    for li in range(len(result.plan.lambdas)):
        for rec in surviving_cells(result, li):
            for alpha, values in enumerate(zip(*columns(rec))):
                yield (rec.lam, rec.seed, alpha, *values)


def run_spectrum(cfg: RunConfig, out_dir: Path):
    result, fields = _sweep(cfg, states=False)
    period = result.plan.base.period

    def columns(rec):
        eigvals = np.exp(-1j * rec.quasienergies * period)
        return rec.quasienergies, eigvals.real, eigvals.imag

    files = [
        write_csv(
            out_dir,
            "spectrum.csv",
            ("lambda", "seed", "alpha", "quasienergy", "re_eigenvalue", "im_eigenvalue"),
            _state_rows(result, columns),
        )
    ]
    return files, fields


def run_levels(cfg: RunConfig, out_dir: Path):
    result, fields = _sweep(cfg, states=False)
    ref_means = tuple(mean_gap_ratio(kind) for kind in REFERENCE_KINDS)
    hist_rows = []
    summary_rows = []
    degenerate = []
    for li, lam in enumerate(result.plan.lambdas):
        ratios = pooled_ratios(result, li)
        hist = ratio_histogram(ratios, bins=cfg.bins)
        for b, center in enumerate(hist.centers):
            hist_rows.append(
                (
                    lam,
                    b,
                    hist.edges[b],
                    hist.edges[b + 1],
                    int(hist.counts[b]),
                    hist.density[b],
                    *(reference_density(kind, center) for kind in REFERENCE_KINDS),
                )
            )
        samples = [r.ratios for r in surviving_cells(result, li)]
        summary_rows.append((lam, len(ratios), ratios.mean(), *ref_means))
        degenerate.append(
            {
                "lambda": lam,
                "double_degenerate": int(sum(s.double_degenerate for s in samples)),
                "single_degenerate": int(sum(s.single_degenerate for s in samples)),
            }
        )
    files = [
        write_csv(
            out_dir,
            "levels_histogram.csv",
            (
                "lambda",
                "bin",
                "bin_left",
                "bin_right",
                "count",
                "density",
                "poisson_density",
                "goe_density",
                "coe_density",
            ),
            hist_rows,
        ),
        write_csv(
            out_dir,
            "levels_summary.csv",
            ("lambda", "n_ratios", "mean_ratio", "poisson_mean", "goe_mean", "coe_mean"),
            summary_rows,
        ),
    ]
    return files, {**fields, "degenerate_gaps": degenerate}


def run_fractal(cfg: RunConfig, out_dir: Path):
    result, fields = _sweep(cfg, states=True)
    mean_rows = list(zip(result.plan.lambdas, aggregate_fractal(result)))
    files = [
        write_csv(
            out_dir,
            "fractal_states.csv",
            ("lambda", "seed", "alpha", "fractal_dimension"),
            _state_rows(result, lambda rec: (rec.fractal_dimensions,)),
        ),
        write_csv(out_dir, "fractal_mean.csv", ("lambda", "mean_fractal_dimension"), mean_rows),
    ]
    return files, fields


def _shared_disorder(cfg: RunConfig):
    """One disorder realization shared across the whole lambda grid, and its manifest fields.

    `walk` and `heff` run serially and keep the one worker recorded here;
    `dynamics` records the column blocks of its fidelity maps instead.
    """
    seed = derive_seed(cfg.master_seed, 0, 0)
    disorder = sample_disorder(cfg.params_for(0.0), seed)
    seeds = [{"lambda_index": 0, "realization_index": 0, "seed": seed}]
    return disorder, {"cell_seeds": seeds, "workers": 1}


def _write_config_table(out_dir: Path, name: str, index: str, lam: float, dim: int, rows):
    """One row (lambda, index, config_0 .. config_{dim-1}) per array in `rows`, streamed."""
    header = ("lambda", index, *(f"config_{l}" for l in range(dim)))
    return write_csv(out_dir, name, header, ((lam, i, row) for i, row in enumerate(rows)))


def run_dynamics(cfg: RunConfig, out_dir: Path):
    disorder, fields = _shared_disorder(cfg)
    maps = fidelity_map(
        cfg.params_for(0.0), disorder, cfg.lambdas, cfg.periods, cfg.initial_config, cfg.workers
    )

    def series_rows():
        for lam, series in zip(cfg.lambdas, maps.series):
            yield lam, 0, series.initial_value
            for m, value in enumerate(series.values, start=1):
                yield lam, m, value

    def power_rows():
        for lam, spectrum in zip(cfg.lambdas, maps.spectra):
            for k in range(cfg.periods):
                yield lam, k, spectrum.frequencies[k], spectrum.values[k]

    def fidelity_rows(fid):
        for i in range(1 << cfg.n_sites):
            for col, lam in enumerate(cfg.lambdas):
                yield i, lam, fid[i, col]

    files = [
        write_csv(out_dir, "dynamics_series.csv", ("lambda", "m", "magnetization"), series_rows()),
        write_csv(out_dir, "dynamics_power.csv", ("lambda", "k", "frequency", "power"),
                  power_rows()),
        write_csv(out_dir, "fidelity_4t.csv", ("initial_config", "lambda", "fidelity"),
                  fidelity_rows(maps.fid_4t)),
        write_csv(out_dir, "fidelity_2t.csv", ("initial_config", "lambda", "fidelity"),
                  fidelity_rows(maps.fid_2t)),
    ]
    undefined = {
        "fidelity_4t.csv": int(maps.undefined_4t.sum()),
        "fidelity_2t.csv": int(maps.undefined_2t.sum()),
    }
    return files, {**fields, "workers": maps.workers, "undefined_fidelities": undefined}


def run_walk(cfg: RunConfig, out_dir: Path):
    disorder, fields = _shared_disorder(cfg)
    files = []
    support_rows = []
    for li, lam in enumerate(cfg.lambdas):
        populations = walk_populations(
            cfg.params_for(lam), disorder, cfg.initial_config, cfg.periods
        )
        files.append(
            _write_config_table(
                out_dir, f"walk_{li:03d}.csv", "m", lam, 1 << cfg.n_sites, populations
            )
        )
        support_rows.append(
            (lam, WALK_SUPPORT_THRESHOLD, walk_support(populations, WALK_SUPPORT_THRESHOLD))
        )
    files.append(
        write_csv(
            out_dir,
            "walk_support.csv",
            ("lambda", "threshold", "support_count"),
            support_rows,
        )
    )
    return files, fields


def _heff_table(out_dir: Path, li: int, params, disorder):
    """Write |H_eff| at one lambda; return (file, sparsity fraction, spectral route).

    The D x D states and H_eff live in this frame only, and the states are
    freed before the table is written, so no lambda holds more than two
    D x D buffers and none outlives its lambda.
    """
    result = floquet_spectrum(floquet_factors(params, disorder), params.period)
    route = result.route
    h_eff = effective_hamiltonian(result)
    del result
    emitted = _write_config_table(
        out_dir, f"heff_{li:03d}.csv", "row_config", params.lam, params.dim, map(np.abs, h_eff)
    )
    return emitted, sparsity_fraction(h_eff, HEFF_SPARSITY_THRESHOLD), route


def run_heff(cfg: RunConfig, out_dir: Path):
    disorder, fields = _shared_disorder(cfg)
    files = []
    sparsity_rows = []
    routes = []
    for li, lam in enumerate(cfg.lambdas):
        emitted, sparsity, route = _heff_table(out_dir, li, cfg.params_for(lam), disorder)
        files.append(emitted)
        sparsity_rows.append((lam, disorder.seed, HEFF_SPARSITY_THRESHOLD, sparsity))
        routes.append(route)
    files.append(
        write_csv(
            out_dir,
            "heff_sparsity.csv",
            ("lambda", "seed", "rel_threshold", "sparsity_fraction"),
            sparsity_rows,
        )
    )
    return files, {**fields, **_route_counts(routes)}


def run_full_sweep(cfg: RunConfig, out_dir: Path):
    result, fields = _sweep(cfg, states=True)
    cell_rows = []
    for rec in result.records:
        if rec.error is None:
            ratios = rec.ratios.ratios
            dims = rec.fractal_dimensions
            summary = (len(ratios), float(np.mean(ratios)), float(np.mean(dims)), "")
        else:
            summary = (0, 0.0, 0.0, rec.error)
        cell_rows.append((rec.lambda_index, rec.realization_index, rec.lam, rec.seed, *summary))
    mean_ratio_rows = list(zip(result.plan.lambdas, pooled_mean_ratios(result)))
    fractal_rows = list(zip(result.plan.lambdas, aggregate_fractal(result)))
    files = [
        write_csv(
            out_dir,
            "sweep_cells.csv",
            (
                "lambda_index",
                "realization_index",
                "lambda",
                "seed",
                "n_ratios",
                "mean_ratio",
                "mean_fractal_dimension",
                "error",
            ),
            cell_rows,
        ),
        write_csv(out_dir, "sweep_mean_ratio.csv", ("lambda", "pooled_mean_ratio"), mean_ratio_rows),
        write_csv(out_dir, "sweep_fractal.csv", ("lambda", "mean_fractal_dimension"), fractal_rows),
    ]
    return files, fields


_HANDLERS = {
    "spectrum": run_spectrum,
    "levels": run_levels,
    "fractal": run_fractal,
    "dynamics": run_dynamics,
    "walk": run_walk,
    "heff": run_heff,
    "sweep": run_full_sweep,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out) if args.out else Path(f"dtcmorph_{args.command}")
    try:
        cfg = resolve_config(args)
        # every command runs with one BLAS thread, as a sweep does, so the
        # digits of its CSVs do not depend on the BLAS thread count
        with staged_output(out_dir) as staging, lapack.one_blas_thread() as threads_at_start:
            files, fields = _HANDLERS[args.command](cfg, staging)
            fields = {**fields, "blas_threads_per_cell": 1, "lapack": lapack.library(),
                      "environment": lapack.environment(threads_at_start)}
            write_manifest(staging, args.command, cfg, files, fields)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"numerical validation failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    for f in files:
        print(f"wrote {out_dir / f.name} ({f.rows} rows)")
    print(f"wrote {out_dir / 'manifest.json'}")
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
