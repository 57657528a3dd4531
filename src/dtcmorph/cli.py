"""Command-line interface: one subcommand per figure-level dataset.

Exit codes: 0 success, 2 configuration errors, 3 numerical-validation
failures. All commands accept --config/--seed/--out plus overrides; every
run writes CSV tables and a manifest.json with seeds and digests.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import lapack
from .diagnostics import REFERENCE_KINDS, mean_gap_ratio, reference_density
from .dynamics import fidelity_map, power_spectrum, walk_populations, walk_support
from .ensemble import (
    EnsembleResult,
    SweepPlan,
    aggregate_fractal,
    derive_seed,
    one_blas_thread,
    pooled_histograms,
    pooled_mean_ratios,
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

# per-command defaults for fields left unset by config file and flags
COMMAND_DEFAULTS = {
    "spectrum": {"lambdas": _CURVE_GRID, "realizations": 1, "periods": 64},
    "levels": {"lambdas": _STATS_GRID, "realizations": 100, "periods": 64},
    "fractal": {"lambdas": _CURVE_GRID, "realizations": 20, "periods": 64},
    "dynamics": {"lambdas": _CURVE_GRID, "realizations": 1, "periods": 64},
    "walk": {"lambdas": (0.0, 0.5, 1.0), "realizations": 1, "periods": 40},
    "heff": {"lambdas": (0.0, 0.5, 1.0), "realizations": 1, "periods": 64},
    "sweep": {"lambdas": _CURVE_GRID, "realizations": 100, "periods": 64},
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
    "--realizations": ("realizations", int, None),
    "--periods": ("periods", int, None),
    "--workers": ("workers", int, None),
    "--bins": ("bins", int, None),
    "--initial-config": ("initial_config", int, None),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtcmorph",
        description="Driven spin-chain simulator: melting and recrystallization "
        "of time-crystalline order across a deformation sweep.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "spectrum": "quasienergy tables over the deformation grid",
        "levels": "pooled gap-ratio histograms and reference densities",
        "fractal": "per-state and averaged fractal dimensions",
        "dynamics": "magnetization series, power spectra and fidelity maps",
        "walk": "configuration-space walk populations",
        "heff": "effective-Hamiltonian magnitudes and sparsity",
        "sweep": "full disorder-ensemble sweep with aggregates",
    }
    for name, help_text in descriptions.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", type=str, default=None, help="JSON config file")
        cmd.add_argument("--out", type=str, default=None, help="output directory")
        for flag, (field, kind, flag_help) in _FLAGS.items():
            cmd.add_argument(flag, dest=field, type=kind, default=None, help=flag_help)
    return parser


def resolve_config(args) -> RunConfig:
    data = (RunConfig.from_file(args.config) if args.config else RunConfig()).to_dict()
    for field, _, _ in _FLAGS.values():
        if getattr(args, field) is not None:
            data[field] = getattr(args, field)
    defaults = COMMAND_DEFAULTS[args.command]
    for key, value in defaults.items():
        if data.get(key) is None:
            data[key] = value
    cfg = RunConfig.from_dict(data)
    if not cfg.lambdas:
        raise ConfigError("empty lambda grid")
    try:
        for lam in cfg.lambdas:
            cfg.params_for(lam)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not 0 <= cfg.initial_config < (1 << cfg.n_sites):
        raise ConfigError(
            f"initial configuration {cfg.initial_config} outside [0, {1 << cfg.n_sites})"
        )
    counts = (cfg.realizations, cfg.periods, cfg.bins, 1 if cfg.workers is None else cfg.workers)
    if min(counts) < 1:
        raise ConfigError("realizations, periods, bins and workers must be >= 1")
    return cfg


def _route_counts(routes: list) -> dict:
    """Manifest counts of the spectral routes taken: Schur fallbacks and closed-form cells."""
    return {
        "eigensolver_fallbacks": routes.count("schur"),
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
    for li, lam in enumerate(plan.lambdas):
        if not surviving_cells(result, li):
            raise ValidationError(f"every cell failed at lambda {lam}")
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
    hists = pooled_histograms(result, bins=cfg.bins)
    means = pooled_mean_ratios(result)
    ref_means = tuple(mean_gap_ratio(kind) for kind in REFERENCE_KINDS)
    hist_rows = []
    summary_rows = []
    degenerate = []
    for li, lam in enumerate(result.plan.lambdas):
        hist = hists[li]
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
        summary_rows.append((lam, sum(len(s.ratios) for s in samples), means[li], *ref_means))
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

    The commands that use it run serially and record one worker.
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
    maps = fidelity_map(cfg.params_for(0.0), disorder, cfg.lambdas, cfg.periods, cfg.initial_config)
    spectra = [power_spectrum(series) for series in maps.series]

    def series_rows():
        for lam, series in zip(cfg.lambdas, maps.series):
            yield lam, 0, series.initial_value
            for m, value in enumerate(series.values, start=1):
                yield lam, m, value

    def power_rows():
        for lam, spectrum in zip(cfg.lambdas, spectra):
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
    return files, {**fields, "undefined_fidelities": undefined}


def run_walk(cfg: RunConfig, out_dir: Path):
    disorder, fields = _shared_disorder(cfg)
    files = []
    support_rows = []
    for li, lam in enumerate(cfg.lambdas):
        record = walk_populations(
            cfg.params_for(lam), disorder, cfg.initial_config, cfg.periods
        )
        files.append(
            _write_config_table(
                out_dir, f"walk_{li:03d}.csv", "m", lam, 1 << cfg.n_sites, record.populations
            )
        )
        support_rows.append(
            (lam, WALK_SUPPORT_THRESHOLD, walk_support(record, WALK_SUPPORT_THRESHOLD))
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
        with staged_output(out_dir) as staging, one_blas_thread() as blas_threads:
            files, fields = _HANDLERS[args.command](cfg, staging)
            fields = {**fields, "blas_threads_per_cell": blas_threads, "lapack": lapack.library()}
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
