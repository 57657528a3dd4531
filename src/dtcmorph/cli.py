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

from .diagnostics import (
    mean_gap_ratio,
    ratio_histogram,
    reference_density,
)
from .dynamics import (
    fidelity_map,
    magnetization_series,
    power_spectrum,
    walk_populations,
    walk_support,
)
from .ensemble import (
    EnsembleResult,
    SweepPlan,
    aggregate_fractal,
    derive_seed,
    pooled_mean_ratios,
    run_sweep,
    worker_count,
)
from .errors import ValidationError
from .fileio import ConfigError, RunConfig, write_csv, write_manifest
from .floquet import diagonalize_floquet, effective_hamiltonian, fast_floquet_operator, sparsity_fraction
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
        raise ConfigError(f"cannot parse lambda grid {text!r}: {exc}") from exc
    if not values:
        raise ConfigError("empty lambda grid")
    return values


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
        cmd.add_argument("--seed", type=int, default=None, help="master seed override")
        cmd.add_argument("--out", type=str, default=None, help="output directory")
        cmd.add_argument("--n-sites", type=int, default=None, help="chain length (even)")
        cmd.add_argument(
            "--lambdas", type=str, default=None, help="comma-separated deformation grid"
        )
        cmd.add_argument("--realizations", type=int, default=None)
        cmd.add_argument("--periods", type=int, default=None)
        cmd.add_argument("--workers", type=int, default=None)
        cmd.add_argument("--bins", type=int, default=None)
        cmd.add_argument("--initial-config", type=int, default=None)
    return parser


def resolve_config(args) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.n_sites is not None:
        overrides["n_sites"] = args.n_sites
    if args.lambdas is not None:
        overrides["lambdas"] = _parse_lambdas(args.lambdas)
    if args.realizations is not None:
        overrides["realizations"] = args.realizations
    if args.periods is not None:
        overrides["periods"] = args.periods
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.bins is not None:
        overrides["bins"] = args.bins
    if args.initial_config is not None:
        overrides["initial_config"] = args.initial_config
    data = cfg.to_dict()
    data.update(overrides)
    defaults = COMMAND_DEFAULTS[args.command]
    for key, value in defaults.items():
        if data.get(key) is None:
            data[key] = value
    cfg = RunConfig.from_dict(data)
    if not cfg.lambdas:
        raise ConfigError("empty lambda grid")
    try:
        cfg.params_for(cfg.lambdas[0])  # surface invalid model parameters early
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if any(not 0.0 <= v <= 1.0 for v in cfg.lambdas):
        raise ConfigError("lambda grid values must lie in [0, 1]")
    if not 0 <= cfg.initial_config < (1 << cfg.n_sites):
        raise ConfigError(
            f"initial configuration {cfg.initial_config} outside [0, {1 << cfg.n_sites})"
        )
    if cfg.realizations < 1 or cfg.periods < 1 or cfg.bins < 1:
        raise ConfigError("realizations, periods and bins must be >= 1")
    return cfg


def _sweep(cfg: RunConfig, diagnostics) -> tuple[EnsembleResult, list, int]:
    plan = SweepPlan(
        lambdas=cfg.lambdas,
        realizations=cfg.realizations,
        master_seed=cfg.master_seed,
        n_sites=cfg.n_sites,
        periods=cfg.periods,
        diagnostics=diagnostics,
        initial_config=cfg.initial_config,
        params_factory=lambda n, lam: cfg.params_for(lam),
    )
    workers = worker_count(cfg.workers)
    result = run_sweep(plan, workers=workers)
    seeds = [
        {
            "lambda_index": r.lambda_index,
            "realization_index": r.realization_index,
            "seed": r.seed,
        }
        for r in result.records
    ]
    failures = [r for r in result.records if r.error is not None]
    for r in failures:
        print(f"cell ({r.lambda_index},{r.realization_index}) failed: {r.error}", file=sys.stderr)
    return result, seeds, workers


def run_spectrum(cfg: RunConfig, out_dir: Path):
    result, seeds, workers = _sweep(cfg, ("spectrum",))
    rows = []
    for rec in result.records:
        if rec.error is not None:
            continue
        eigvals = np.exp(-1j * rec.quasienergies * cfg.params_for(rec.lam).period)
        for alpha, (eps, lam_a) in enumerate(zip(rec.quasienergies, eigvals)):
            rows.append((rec.lam, rec.seed, alpha, eps, lam_a.real, lam_a.imag))
    files = [
        write_csv(
            out_dir,
            "spectrum.csv",
            ("lambda", "seed", "alpha", "quasienergy", "re_eigenvalue", "im_eigenvalue"),
            rows,
        )
    ]
    return files, seeds, workers, {}


def run_levels(cfg: RunConfig, out_dir: Path):
    result, seeds, workers = _sweep(cfg, ("levels",))
    hist_rows = []
    summary_rows = []
    degenerate = []
    ref_means = {kind: mean_gap_ratio(kind) for kind in ("poisson", "goe", "coe")}
    for li, lam in enumerate(result.plan.lambdas):
        samples = [r.ratios for r in result.cells_for(li) if r.error is None]
        if not samples:
            raise ValidationError(f"every cell failed at lambda {lam}")
        pooled = np.concatenate([s.ratios for s in samples])
        hist = ratio_histogram(pooled, bins=cfg.bins)
        centers = hist.centers
        for b in range(cfg.bins):
            hist_rows.append(
                (
                    lam,
                    b,
                    hist.edges[b],
                    hist.edges[b + 1],
                    int(hist.counts[b]),
                    hist.density[b],
                    reference_density("poisson", centers[b]),
                    reference_density("goe", centers[b]),
                    reference_density("coe", centers[b]),
                )
            )
        summary_rows.append(
            (
                lam,
                len(pooled),
                float(np.mean(pooled)),
                ref_means["poisson"],
                ref_means["goe"],
                ref_means["coe"],
            )
        )
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
    return files, seeds, workers, {"degenerate_gaps": degenerate}


def run_fractal(cfg: RunConfig, out_dir: Path):
    result, seeds, workers = _sweep(cfg, ("fractal",))
    state_rows = []
    for rec in result.records:
        if rec.error is not None:
            continue
        for alpha, dim in enumerate(rec.fractal_dimensions):
            state_rows.append((rec.lam, rec.seed, alpha, dim))
    curve = aggregate_fractal(result)
    mean_rows = list(zip(result.plan.lambdas, curve))
    files = [
        write_csv(
            out_dir,
            "fractal_states.csv",
            ("lambda", "seed", "alpha", "fractal_dimension"),
            state_rows,
        ),
        write_csv(out_dir, "fractal_mean.csv", ("lambda", "mean_fractal_dimension"), mean_rows),
    ]
    return files, seeds, workers, {}


def _shared_disorder(cfg: RunConfig):
    """One disorder realization shared across the whole lambda grid."""
    seed = derive_seed(cfg.master_seed, 0, 0)
    disorder = sample_disorder(cfg.params_for(0.0), seed)
    return disorder, [{"lambda_index": 0, "realization_index": 0, "seed": seed}]


def run_dynamics(cfg: RunConfig, out_dir: Path):
    disorder, seeds = _shared_disorder(cfg)
    series_rows = []
    power_rows = []
    for lam in cfg.lambdas:
        params = cfg.params_for(lam)
        series = magnetization_series(params, disorder, cfg.initial_config, cfg.periods)
        series_rows.append((lam, 0, series.initial_value))
        for m, value in enumerate(series.values, start=1):
            series_rows.append((lam, m, value))
        spectrum = power_spectrum(series)
        for k in range(cfg.periods):
            power_rows.append((lam, k, spectrum.frequencies[k], spectrum.values[k]))
    maps = fidelity_map(cfg.params_for(0.0), disorder, cfg.lambdas, cfg.periods)
    fid4_rows = []
    fid2_rows = []
    for i in range(1 << cfg.n_sites):
        for col, lam in enumerate(cfg.lambdas):
            fid4_rows.append((i, lam, maps.fid_4t[i, col]))
            fid2_rows.append((i, lam, maps.fid_2t[i, col]))
    files = [
        write_csv(out_dir, "dynamics_series.csv", ("lambda", "m", "magnetization"), series_rows),
        write_csv(out_dir, "dynamics_power.csv", ("lambda", "k", "frequency", "power"), power_rows),
        write_csv(out_dir, "fidelity_4t.csv", ("initial_config", "lambda", "fidelity"), fid4_rows),
        write_csv(out_dir, "fidelity_2t.csv", ("initial_config", "lambda", "fidelity"), fid2_rows),
    ]
    undefined = {
        "fidelity_4t.csv": int(maps.undefined_4t.sum()),
        "fidelity_2t.csv": int(maps.undefined_2t.sum()),
    }
    return files, seeds, worker_count(cfg.workers), {"undefined_fidelities": undefined}


def run_walk(cfg: RunConfig, out_dir: Path):
    disorder, seeds = _shared_disorder(cfg)
    dim = 1 << cfg.n_sites
    config_header = tuple(f"config_{l}" for l in range(dim))
    files = []
    support_rows = []
    for li, lam in enumerate(cfg.lambdas):
        record = walk_populations(
            cfg.params_for(lam), disorder, cfg.initial_config, cfg.periods
        )
        rows = [
            (lam, m, *record.populations[m]) for m in range(cfg.periods + 1)
        ]
        files.append(
            write_csv(out_dir, f"walk_{li:03d}.csv", ("lambda", "m", *config_header), rows)
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
    return files, seeds, worker_count(cfg.workers), {}


def run_heff(cfg: RunConfig, out_dir: Path):
    disorder, seeds = _shared_disorder(cfg)
    dim = 1 << cfg.n_sites
    config_header = tuple(f"config_{l}" for l in range(dim))
    files = []
    sparsity_rows = []
    for li, lam in enumerate(cfg.lambdas):
        params = cfg.params_for(lam)
        result = diagonalize_floquet(fast_floquet_operator(params, disorder), params.period)
        h_eff = effective_hamiltonian(result)
        mags = np.abs(h_eff)
        rows = [(lam, l, *mags[l]) for l in range(dim)]
        files.append(
            write_csv(out_dir, f"heff_{li:03d}.csv", ("lambda", "row_config", *config_header), rows)
        )
        sparsity_rows.append(
            (lam, disorder.seed, HEFF_SPARSITY_THRESHOLD, sparsity_fraction(h_eff, HEFF_SPARSITY_THRESHOLD))
        )
    files.append(
        write_csv(
            out_dir,
            "heff_sparsity.csv",
            ("lambda", "seed", "rel_threshold", "sparsity_fraction"),
            sparsity_rows,
        )
    )
    return files, seeds, worker_count(cfg.workers), {}


def run_full_sweep(cfg: RunConfig, out_dir: Path):
    result, seeds, workers = _sweep(cfg, ("levels", "fractal"))
    cell_rows = []
    for rec in result.records:
        if rec.error is None:
            cell_rows.append(
                (
                    rec.lambda_index,
                    rec.realization_index,
                    rec.lam,
                    rec.seed,
                    len(rec.ratios.ratios),
                    float(np.mean(rec.ratios.ratios)),
                    float(np.mean(rec.fractal_dimensions)),
                    "",
                )
            )
        else:
            cell_rows.append(
                (rec.lambda_index, rec.realization_index, rec.lam, rec.seed, 0, 0.0, 0.0, rec.error)
            )
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
    return files, seeds, workers, {}


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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out) if args.out else Path(f"dtcmorph_{args.command}")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        files, seeds, workers, extra = _HANDLERS[args.command](cfg, out_dir)
        write_manifest(out_dir, args.command, cfg, seeds, files, workers, extra)
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
