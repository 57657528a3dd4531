"""The benchmark's workloads and the checks their outputs must pass.

Each workload is one dtcmorph CLI command. Its outputs are checked by value,
never by bytes, so a change that moves the last digits on purpose still
passes:

* on every command: exit code 0, every manifest sha256 matches the file on
  disk, row counts match the manifest and the config, every value is finite,
  plus the per-command invariants in `_check_*`;
* once per benchmark run, outside the timed window: one sampled cell is
  recomputed from the dense-exponential `floquet_operator` (at N = 12, the
  sparse exponential action of the same segment Hamiltonians), diagonalized
  with `numpy.linalg.eig`/`eigvals` instead of `diagonalize_floquet`, and
  compared within the tolerances below (`_oracle_*`).

A problem found for one lambda fails that lambda's cells; any other problem
fails every cell of the command.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# value tolerances of the oracle comparisons (double precision, D <= 4096)
TOL_SPECTRUM_MEAN = 1e-9  # pooled mean gap ratio
TOL_HIST_FLIPS = 2  # ratios allowed to change histogram bin between routes
TOL_HEFF = 1e-9  # |H_eff| entries, relative to the largest entry
TOL_POPULATION = 1e-9  # walk populations
TOL_SERIES = 1e-9  # magnetization series and power spectra
TOL_FIDELITY = 1e-9  # squared spectrum fidelities (cosine similarities)
TOL_UNDEFINED = 1e-12  # product of spectrum norms below which a fidelity is undefined


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    n_sites: int
    flags: tuple
    n_lambdas: int
    realizations: int = 1

    @property
    def cells(self) -> int:
        """(lambda, realization) units one command computes."""
        return self.n_lambdas * self.realizations

    def argv(self, seed: int, out_dir) -> list:
        return [self.command, "--n-sites", str(self.n_sites), *self.flags,
                "--seed", str(seed), "--out", str(out_dir)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("levels-n8", "levels", 8,
                 ("--lambdas", "0.001,0.5,0.999", "--realizations", "8"), 3, 8),
        Workload("heff-n8", "heff", 8, ("--lambdas", "0,0.5,1"), 3),
        Workload("walk-n12", "walk", 12, ("--lambdas", "0.5", "--periods", "40"), 1),
        Workload("dynamics-n8", "dynamics", 8, (), 21),
    )
}


class Problems:
    """Collected check failures: per lambda index, or global (None)."""

    def __init__(self):
        self.items: list[tuple[int | None, str]] = []

    def add(self, lambda_index, message: str) -> None:
        self.items.append((lambda_index, message))

    def expect(self, ok, lambda_index, message: str) -> None:
        if not ok:
            self.add(lambda_index, message)

    def failed_cells(self, workload: Workload) -> int:
        if not self.items:
            return 0
        if any(li is None for li, _ in self.items):
            return workload.cells
        return len({li for li, _ in self.items}) * workload.realizations


class _Abort(Exception):
    """A problem that makes further checks of this output pointless."""


def load_outputs(workload: Workload, seed: int, out_dir: Path, exit_code):
    """Resolved config and tables of one command, after the checks common to all commands."""
    if exit_code != 0:
        raise _Abort(f"exit code {exit_code}")
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise _Abort(f"manifest unreadable: {exc}") from exc
    cfg = manifest.get("config", {})
    if (manifest.get("command"), cfg.get("n_sites"), cfg.get("master_seed")) != (
        workload.command, workload.n_sites, seed
    ):
        raise _Abort("manifest does not describe the requested command")
    if len(cfg.get("lambdas") or ()) != workload.n_lambdas:
        raise _Abort(f"manifest lists {len(cfg.get('lambdas') or ())} lambdas")
    tables = {}
    for entry in manifest.get("files", []):
        path = out_dir / entry["name"]
        try:
            payload = path.read_bytes()
        except OSError as exc:
            raise _Abort(f"{entry['name']}: {exc}") from exc
        if hashlib.sha256(payload).hexdigest() != entry["sha256"]:
            raise _Abort(f"{entry['name']}: sha256 differs from the manifest")
        try:
            table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except ValueError as exc:
            raise _Abort(f"{entry['name']}: unparsable ({exc})") from exc
        if len(table) != entry["rows"]:
            raise _Abort(f"{entry['name']}: {len(table)} rows, manifest says {entry['rows']}")
        if not np.all(np.isfinite(table)):
            raise _Abort(f"{entry['name']}: non-finite values")
        tables[entry["name"]] = table
    return cfg, tables


def _table(tables, name):
    if name not in tables:
        raise _Abort(f"missing output {name}")
    return tables[name]


def _check_levels(cfg, tables, problems: Problems) -> None:
    lambdas, bins = cfg["lambdas"], cfg["bins"]
    n_ratios = cfg["realizations"] * ((1 << cfg["n_sites"]) - 2)
    summary = _table(tables, "levels_summary.csv")
    hist = _table(tables, "levels_histogram.csv")
    if summary.shape != (len(lambdas), 6) or hist.shape != (len(lambdas) * bins, 9):
        raise _Abort(f"levels tables have shapes {summary.shape} and {hist.shape}")
    for li, lam in enumerate(lambdas):
        row = summary[li]
        counts = hist[li * bins:(li + 1) * bins, 4]
        problems.expect(row[0] == lam and np.all(hist[li * bins:(li + 1) * bins, 0] == lam),
                        li, "lambda column does not follow the grid")
        problems.expect(row[1] == n_ratios, li, f"n_ratios {row[1]} != {n_ratios}")
        problems.expect(0.0 <= row[2] <= 1.0, li, f"mean ratio {row[2]} outside [0, 1]")
        problems.expect(counts.sum() == row[1], li, "histogram counts do not sum to n_ratios")
        problems.expect(np.all(counts >= 0), li, "negative histogram count")


def _check_heff(cfg, tables, problems: Problems) -> None:
    lambdas, dim = cfg["lambdas"], 1 << cfg["n_sites"]
    sparsity = _table(tables, "heff_sparsity.csv")
    if sparsity.shape != (len(lambdas), 4):
        raise _Abort(f"heff_sparsity.csv has shape {sparsity.shape}")
    for li, lam in enumerate(lambdas):
        mags = _table(tables, f"heff_{li:03d}.csv")
        if mags.shape != (dim, dim + 2):
            problems.add(li, f"heff_{li:03d}.csv has shape {mags.shape}")
            continue
        problems.expect(np.all(mags[:, 0] == lam), li, "lambda column does not follow the grid")
        problems.expect(np.array_equal(mags[:, 1], np.arange(dim)), li, "row_config column")
        h = mags[:, 2:]
        problems.expect(np.all(h >= 0.0), li, "negative magnitude")
        problems.expect(np.abs(h - h.T).max() <= 1e-12 * max(1.0, h.max()), li,
                        "|H_eff| is not symmetric, so H_eff is not Hermitian")
        problems.expect(0.0 <= sparsity[li, 3] <= 1.0, li, "sparsity fraction outside [0, 1]")


def _check_walk(cfg, tables, problems: Problems) -> None:
    lambdas, dim, periods = cfg["lambdas"], 1 << cfg["n_sites"], cfg["periods"]
    support = _table(tables, "walk_support.csv")
    if support.shape != (len(lambdas), 3):
        raise _Abort(f"walk_support.csv has shape {support.shape}")
    for li, lam in enumerate(lambdas):
        table = _table(tables, f"walk_{li:03d}.csv")
        if table.shape != (periods + 1, dim + 2):
            problems.add(li, f"walk_{li:03d}.csv has shape {table.shape}")
            continue
        pops = table[:, 2:]
        problems.expect(np.all(table[:, 0] == lam), li, "lambda column does not follow the grid")
        problems.expect(np.array_equal(table[:, 1], np.arange(periods + 1)), li, "m column")
        problems.expect(np.all((pops >= 0.0) & (pops <= 1.0 + 1e-12)), li,
                        "population outside [0, 1]")
        problems.expect(np.abs(pops.sum(axis=1) - 1.0).max() <= 1e-9, li,
                        "populations do not sum to 1")
        problems.expect(pops[0, cfg["initial_config"]] == 1.0, li, "m = 0 is not the initial state")
        threshold = support[li, 1]
        problems.expect(support[li, 2] == np.sum(pops.max(axis=0) > threshold), li,
                        "support count disagrees with the populations")


def _direct_power(series: np.ndarray) -> np.ndarray:
    """|(1/n) sum_{m=1..n} exp(-2 pi i k m / n) M(m)|^2 by the direct sum, per column."""
    n = series.shape[0]
    m = np.arange(1, n + 1)
    basis = np.exp(-2j * np.pi * np.outer(np.arange(n), m) / n)
    return np.abs(basis @ series / n) ** 2


def _check_dynamics(cfg, tables, problems: Problems) -> None:
    lambdas, dim, periods = cfg["lambdas"], 1 << cfg["n_sites"], cfg["periods"]
    n_lam = len(lambdas)
    series = _table(tables, "dynamics_series.csv")
    power = _table(tables, "dynamics_power.csv")
    fid4 = _table(tables, "fidelity_4t.csv")
    fid2 = _table(tables, "fidelity_2t.csv")
    if (series.shape != (n_lam * (periods + 1), 3) or power.shape != (n_lam * periods, 4)
            or fid4.shape != (dim * n_lam, 3) or fid2.shape != (dim * n_lam, 3)):
        raise _Abort("dynamics tables have unexpected shapes")
    fid4 = fid4[:, 2].reshape(dim, n_lam)
    fid2 = fid2[:, 2].reshape(dim, n_lam)
    n = cfg["n_sites"]
    for li, lam in enumerate(lambdas):
        block = series[li * (periods + 1):(li + 1) * (periods + 1)]
        pw = power[li * periods:(li + 1) * periods]
        problems.expect(np.all(block[:, 0] == lam) and np.all(pw[:, 0] == lam), li,
                        "lambda column does not follow the grid")
        problems.expect(np.all(np.abs(block[:, 2]) <= n + 1e-9), li, "|magnetization| > N")
        expected = _direct_power(block[1:, 2:3])[:, 0]
        problems.expect(np.abs(pw[:, 3] - expected).max() <= TOL_SERIES * max(1.0, expected.max()),
                        li, "power spectrum disagrees with the direct-sum DFT of the series")
        for fid in (fid4, fid2):
            problems.expect(np.all((fid[:, li] >= 0.0) & (fid[:, li] <= 1.0)), li,
                            "fidelity outside [0, 1]")
    if lambdas[0] == 0.0:
        problems.expect(np.abs(fid4[:, 0] - 1.0).max() <= TOL_FIDELITY, 0,
                        "4T self-fidelity at lambda = 0 is not 1")
    if lambdas[-1] == 1.0:
        problems.expect(np.abs(fid2[:, -1] - 1.0).max() <= TOL_FIDELITY, n_lam - 1,
                        "2T self-fidelity at lambda = 1 is not 1")


_CHECKS = {"levels": _check_levels, "heff": _check_heff, "walk": _check_walk,
           "dynamics": _check_dynamics}


def check_command(workload: Workload, seed: int, out_dir: Path, exit_code) -> Problems:
    """Every-command checks; a failure never raises, it is recorded."""
    problems = Problems()
    try:
        cfg, tables = load_outputs(workload, seed, out_dir, exit_code)
        _CHECKS[workload.command](cfg, tables, problems)
    except _Abort as exc:
        problems.add(None, str(exc))
    return problems


# -- oracle ---------------------------------------------------------------------


def _fold(eps: np.ndarray, period: float) -> np.ndarray:
    edge = np.pi / period
    return np.where(eps <= -edge, eps + 2.0 * edge, eps)


def _oracle_levels(cfg, tables, li, problems):
    from dtcmorph.diagnostics import gap_ratios
    from dtcmorph.ensemble import derive_seed
    from dtcmorph.fileio import RunConfig
    from dtcmorph.floquet import floquet_operator
    from dtcmorph.hamiltonians import sample_disorder

    run_cfg = RunConfig.from_dict(cfg)
    params = run_cfg.params_for(run_cfg.lambdas[li])
    pooled = []
    for ri in range(run_cfg.realizations):
        disorder = sample_disorder(params, derive_seed(run_cfg.master_seed, li, ri))
        eigvals = np.linalg.eigvals(floquet_operator(params, disorder))
        eps = np.sort(_fold(-np.angle(eigvals) / params.period, params.period))
        pooled.append(gap_ratios(eps).ratios)
    pooled = np.concatenate(pooled)
    summary = tables["levels_summary.csv"][li]
    problems.expect(abs(summary[2] - pooled.mean()) <= TOL_SPECTRUM_MEAN, li,
                    f"mean ratio {summary[2]:.17g} vs oracle {pooled.mean():.17g}")
    bins = run_cfg.bins
    counts, _ = np.histogram(pooled, bins=bins, range=(0.0, 1.0))
    flips = np.abs(tables["levels_histogram.csv"][li * bins:(li + 1) * bins, 4] - counts).sum()
    problems.expect(flips <= TOL_HIST_FLIPS, li, f"histogram differs from oracle by {flips}")


def _shared_disorder(run_cfg):
    from dtcmorph.ensemble import derive_seed
    from dtcmorph.hamiltonians import sample_disorder

    return sample_disorder(run_cfg.params_for(0.0), derive_seed(run_cfg.master_seed, 0, 0))


def _oracle_heff(cfg, tables, li, problems):
    from dtcmorph.fileio import RunConfig
    from dtcmorph.floquet import floquet_operator

    run_cfg = RunConfig.from_dict(cfg)
    params = run_cfg.params_for(run_cfg.lambdas[li])
    eigvals, vecs = np.linalg.eig(floquet_operator(params, _shared_disorder(run_cfg)))
    eps = _fold(-np.angle(eigvals) / params.period, params.period)
    h = np.linalg.solve(vecs.T, (vecs * eps).T).T  # V diag(eps) V^-1
    got = tables[f"heff_{li:03d}.csv"][:, 2:]
    err = np.abs(np.abs(h) - got).max()
    problems.expect(err <= TOL_HEFF * max(1.0, got.max()), li, f"|H_eff| differs by {err:.3e}")


def _oracle_walk(cfg, tables, li, problems):
    import scipy.sparse
    from scipy.sparse.linalg import expm_multiply

    from dtcmorph.fileio import RunConfig
    from dtcmorph.hamiltonians import build_h1, build_h3, h2_diagonal

    run_cfg = RunConfig.from_dict(cfg)
    params = run_cfg.params_for(run_cfg.lambdas[li])
    disorder = _shared_disorder(run_cfg)
    h1 = scipy.sparse.csr_matrix(build_h1(params))
    h3 = scipy.sparse.csr_matrix(build_h3(params, disorder))
    phase2 = np.exp(-1j * params.t2 * h2_diagonal(params, disorder))
    psi = np.zeros(params.dim, dtype=complex)
    psi[run_cfg.initial_config] = 1.0
    pops = [np.abs(psi) ** 2]
    for _ in range(run_cfg.periods):
        psi = expm_multiply(-1j * params.t1 * h1, psi)
        psi = phase2 * psi
        psi = expm_multiply(-1j * params.t3 * h3, psi)
        pops.append(np.abs(psi) ** 2)
    err = np.abs(np.array(pops) - tables[f"walk_{li:03d}.csv"][:, 2:]).max()
    problems.expect(err <= TOL_POPULATION, li, f"walk populations differ by {err:.3e}")


def _oracle_dynamics(cfg, tables, li, problems):
    from dtcmorph.fileio import RunConfig
    from dtcmorph.floquet import floquet_operator
    from dtcmorph.spins import magnetization_weights

    run_cfg = RunConfig.from_dict(cfg)
    disorder = _shared_disorder(run_cfg)
    weights = magnetization_weights(run_cfg.n_sites)
    periods, dim = run_cfg.periods, 1 << run_cfg.n_sites

    def all_config_series(lam):
        f = floquet_operator(run_cfg.params_for(lam), disorder)
        states = np.eye(dim, dtype=complex)
        out = np.empty((periods, dim))
        for m in range(periods):
            states = f @ states
            out[m] = weights @ (np.abs(states) ** 2)
        return out

    lam = run_cfg.lambdas[li]
    series = all_config_series(lam)
    got = tables["dynamics_series.csv"][li * (periods + 1) + 1:(li + 1) * (periods + 1), 2]
    err = np.abs(series[:, run_cfg.initial_config] - got).max()
    problems.expect(err <= TOL_SERIES, li, f"magnetization series differs by {err:.3e}")

    power = _direct_power(series)
    n_lam = len(run_cfg.lambdas)
    for ref_lam, name in ((0.0, "fidelity_4t.csv"), (1.0, "fidelity_2t.csv")):
        ref = _direct_power(all_config_series(ref_lam))
        norms = np.linalg.norm(ref, axis=0) * np.linalg.norm(power, axis=0)
        # a spectrum at rounding level (series identically 0) leaves the fidelity
        # undefined; the CLI writes noise there, so only defined entries are compared
        defined = norms > TOL_UNDEFINED * norms.max()
        cos = np.clip((ref * power).sum(axis=0)[defined] / norms[defined], 0.0, 1.0)
        got = tables[name][:, 2].reshape(dim, n_lam)[defined, li]
        err = np.abs(cos - got**2).max(initial=0.0)
        problems.expect(err <= TOL_FIDELITY, li, f"{name} column differs by {err:.3e}")


_ORACLES = {"levels": _oracle_levels, "heff": _oracle_heff, "walk": _oracle_walk,
            "dynamics": _oracle_dynamics}


def oracle_check(workload: Workload, seed: int, out_dir: Path, rng: random.Random) -> Problems:
    """Recompute one sampled lambda of a checked output by the independent route."""
    problems = Problems()
    try:
        cfg, tables = load_outputs(workload, seed, out_dir, 0)
        li = rng.randrange(workload.n_lambdas)
        _ORACLES[workload.command](cfg, tables, li, problems)
    except _Abort as exc:
        problems.add(None, str(exc))
    return problems
