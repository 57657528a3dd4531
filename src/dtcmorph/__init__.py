"""Driven spin-chain simulator: melting and recrystallization of
time-crystalline order under a three-segment periodic drive.

The public surface mirrors the layer structure: spin basis and observables
(`spins`), segment Hamiltonians (`hamiltonians`), one-period propagators and
quasienergy spectra (`floquet`), level-statistics and localization
diagnostics (`diagnostics`), stroboscopic dynamics and Fourier analysis
(`dynamics`), seeded disorder-ensemble sweeps (`ensemble`), and the CLI with
its file formats (`cli`, `fileio`).

The names below are loaded from their submodule on first use (PEP 562), so
`import dtcmorph` loads no numpy by itself, and `dtcmorph.cli` can choose
OpenBLAS's thread default before numpy starts it.
"""

import importlib

_EXPORTS = {
    "diagnostics": ("GapRatioSample", "HistogramData", "gap_ratios", "mean_gap_ratio",
                    "ratio_histogram", "reference_density", "state_fractal_dimensions"),
    "dynamics": ("FidelityMaps", "PowerSpectrum", "TimeSeries", "dft", "evolve_stroboscopic",
                 "fidelity_map", "magnetization_series", "power_spectrum", "walk_populations",
                 "walk_support"),
    "ensemble": ("CellRecord", "EnsembleResult", "SweepPlan", "aggregate_fractal", "derive_seed",
                 "pooled_mean_ratios", "pooled_ratios", "run_sweep", "surviving_cells"),
    "errors": ("ConfigError", "ValidationError"),
    "fileio": ("RunConfig", "TOOL_VERSION"),
    "floquet": ("FloquetFactors", "FloquetResult", "apply_floquet", "diagonalize_floquet",
                "effective_hamiltonian", "endpoint_spectrum", "fast_floquet_operator",
                "floquet_factors", "floquet_operator", "floquet_spectrum", "propagator",
                "sparsity_fraction"),
    "hamiltonians": ("DisorderRealization", "ModelParams", "build_h1", "build_h2", "build_h3",
                     "default_params", "sample_disorder"),
    "spins": ("basis_state", "local_magnetization"),
}
# public name -> (submodule, attribute)
_SOURCES = {name: (module, name) for module, names in _EXPORTS.items() for name in names}
_SOURCES["__version__"] = ("fileio", "TOOL_VERSION")

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, attribute = _SOURCES[name]
    value = getattr(importlib.import_module(f".{module}", __name__), attribute)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(_SOURCES))
