"""Which dtcmorph functions the traced run times, and the per-layer metrics.

Every per-layer metric is computed from the spans of one traced command; the
benchmark reports the median over its traced commands. A target that no
longer exists simply yields no spans, so its counts read 0.
"""

from __future__ import annotations

from pathlib import Path

from tracer import self_times

HANDLERS = ("run_spectrum", "run_levels", "run_fractal", "run_dynamics", "run_walk",
            "run_heff", "run_full_sweep")

TARGETS = {
    "cli.main": "cli.main",
    "cli.resolve_config": "cli.resolve_config",
    **{f"cli.{name}": f"cli.{name}" for name in HANDLERS},
    "ensemble.run_sweep": "ensemble.run_sweep",
    "ensemble.run_cell": "ensemble.run_cell",
    "floquet.fast_floquet_operator": "floquet.fast_floquet_operator",
    "floquet.diagonalize_floquet": "floquet.diagonalize_floquet",
    "floquet.effective_hamiltonian": "floquet.effective_hamiltonian",
    "backend.apply_site_gate": "backend.apply_site_gate",
    "backend.apply_pair_gate": "backend.apply_pair_gate",
    "hamiltonians.h2_diagonal": "hamiltonians.h2_diagonal",
    "fileio.write_csv": "fileio.write_csv",
    "fileio.write_manifest": "fileio.write_manifest",
    "dynamics.fidelity_map": "dynamics.fidelity_map",
    "dynamics.magnetization_series": "dynamics.magnetization_series",
    "dynamics.power_spectrum": "dynamics.power_spectrum",
    "dynamics.walk_populations": "dynamics.walk_populations",
    "diagnostics.gap_ratios": "diagnostics.gap_ratios",
    "diagnostics.ratio_histogram": "diagnostics.ratio_histogram",
}


def _csv_bytes(args, kwargs, result):
    out_dir = kwargs.get("out_dir", args[0] if args else ".")
    return {"bytes": (Path(out_dir) / result.name).stat().st_size}


def _cell_failed(args, kwargs, result):
    return {"failed": result.error is not None}


ANNOTATE = {"fileio.write_csv": _csv_bytes, "ensemble.run_cell": _cell_failed}

# name -> unit, in report order; every traced run reports all of them
METRICS = {
    "floquet.eigensolve_calls": "count",
    "floquet.eigensolve_s": "s",
    "floquet.eigensolve_ms_p50": "ms",
    "floquet.eigensolve_ms_p80": "ms",
    "floquet.build_calls": "count",
    "floquet.build_s": "s",
    "floquet.build_ms_p50": "ms",
    "backend.gate_calls": "count",
    "backend.gate_s": "s",
    "hamiltonians.diagonal_s": "s",
    "floquet.heff_s": "s",
    "cli.handler_self_s": "s",
    "fileio.csv_calls": "count",
    "fileio.csv_bytes": "bytes",
    "fileio.csv_s": "s",
    "fileio.csv_mb_per_s": "MB/s",
    "fileio.manifest_s": "s",
    "ensemble.cells": "count",
    "ensemble.failed_cells": "count",
    "ensemble.cell_ms_p50": "ms",
    "ensemble.cell_ms_p80": "ms",
    "ensemble.cell_s": "s",
    "ensemble.sweep_s": "s",
    "ensemble.busy_fraction": "fraction",
    "dynamics.fidelity_map_self_s": "s",
    "dynamics.series_s": "s",
    "dynamics.power_spectrum_s": "s",
    "dynamics.walk_self_s": "s",
    "diagnostics.gap_ratios_s": "s",
    "diagnostics.histogram_s": "s",
    "process.import_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "fraction",
    "trace.spans": "count",
    "trace.absent_targets": "count",
    "code.src_lines": "lines",
}


def percentile(values, q: float) -> float:
    """Linearly interpolated q-th percentile (0..100); 0.0 for no values."""
    data = sorted(values)
    if not data:
        return 0.0
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def span_metrics(spans, workers: int) -> dict:
    """Per-layer metrics of one traced command from its spans."""
    selfs = self_times(spans)

    def durations(*names):
        return [s.duration for s in spans if s.name in names]

    def total(*names):
        return sum(durations(*names))

    def self_total(*names):
        return sum(selfs[s.id] for s in spans if s.name in names)

    eig = durations("floquet.diagonalize_floquet")
    build = durations("floquet.fast_floquet_operator")
    gates = durations("backend.apply_site_gate", "backend.apply_pair_gate")
    csv = [s for s in spans if s.name == "fileio.write_csv"]
    csv_s = sum(s.duration for s in csv)
    csv_bytes = sum(s.attrs.get("bytes", 0) for s in csv)
    cells = [s for s in spans if s.name == "ensemble.run_cell"]
    cell_ms = [1e3 * s.duration for s in cells]
    cell_s = sum(cell_ms) / 1e3
    sweep_s = total("ensemble.run_sweep")
    handlers = tuple(f"cli.{name}" for name in HANDLERS)

    roots = [s for s in spans if s.name == "cli.main"]
    root_s = sum(s.duration for s in roots)
    uncovered = self_total("cli.main") + self_total(*handlers)
    return {
        "floquet.eigensolve_calls": len(eig),
        "floquet.eigensolve_s": sum(eig),
        "floquet.eigensolve_ms_p50": percentile([1e3 * d for d in eig], 50),
        "floquet.eigensolve_ms_p80": percentile([1e3 * d for d in eig], 80),
        "floquet.build_calls": len(build),
        "floquet.build_s": sum(build),
        "floquet.build_ms_p50": percentile([1e3 * d for d in build], 50),
        "backend.gate_calls": len(gates),
        "backend.gate_s": sum(gates),
        "hamiltonians.diagonal_s": total("hamiltonians.h2_diagonal"),
        "floquet.heff_s": total("floquet.effective_hamiltonian"),
        "cli.handler_self_s": self_total(*handlers),
        "fileio.csv_calls": len(csv),
        "fileio.csv_bytes": csv_bytes,
        "fileio.csv_s": csv_s,
        "fileio.csv_mb_per_s": csv_bytes / 1e6 / csv_s if csv_s > 0 else 0.0,
        "fileio.manifest_s": total("fileio.write_manifest"),
        "ensemble.cells": len(cells),
        "ensemble.failed_cells": sum(1 for s in cells if s.attrs.get("failed", True)),
        "ensemble.cell_ms_p50": percentile(cell_ms, 50),
        "ensemble.cell_ms_p80": percentile(cell_ms, 80),
        "ensemble.cell_s": cell_s,
        "ensemble.sweep_s": sweep_s,
        "ensemble.busy_fraction": cell_s / (sweep_s * workers) if sweep_s > 0 else 0.0,
        "dynamics.fidelity_map_self_s": self_total("dynamics.fidelity_map"),
        "dynamics.series_s": total("dynamics.magnetization_series"),
        "dynamics.power_spectrum_s": total("dynamics.power_spectrum"),
        "dynamics.walk_self_s": self_total("dynamics.walk_populations"),
        "diagnostics.gap_ratios_s": total("diagnostics.gap_ratios"),
        "diagnostics.histogram_s": total("diagnostics.ratio_histogram"),
        "trace.coverage": 1.0 - uncovered / root_s if root_s > 0 else 0.0,
        "trace.spans": len(spans),
    }
