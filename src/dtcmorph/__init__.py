"""Driven spin-chain simulator: melting and recrystallization of
time-crystalline order under a three-segment periodic drive.

The public surface mirrors the layer structure: spin basis and observables
(`spins`), segment Hamiltonians (`hamiltonians`), one-period propagators and
quasienergy spectra (`floquet`), level-statistics and localization
diagnostics (`diagnostics`), stroboscopic dynamics and Fourier analysis
(`dynamics`), seeded disorder-ensemble sweeps (`ensemble`), and the CLI with
its file formats (`cli`, `fileio`).
"""

from .diagnostics import (
    GapRatioSample,
    HistogramData,
    gap_ratios,
    mean_gap_ratio,
    ratio_histogram,
    reference_density,
    state_fractal_dimensions,
)
from .dynamics import (
    FidelityMaps,
    PowerSpectrum,
    TimeSeries,
    dft,
    evolve_stroboscopic,
    fidelity_map,
    magnetization_series,
    power_spectrum,
    walk_populations,
    walk_support,
)
from .ensemble import (
    CellRecord,
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
from .fileio import RunConfig, TOOL_VERSION
from .floquet import (
    FloquetFactors,
    FloquetResult,
    apply_floquet,
    diagonalize_floquet,
    effective_hamiltonian,
    endpoint_spectrum,
    fast_floquet_operator,
    floquet_factors,
    floquet_operator,
    floquet_spectrum,
    propagator,
    sparsity_fraction,
)
from .hamiltonians import (
    DisorderRealization,
    ModelParams,
    build_h1,
    build_h2,
    build_h3,
    default_params,
    sample_disorder,
)
from .spins import basis_state, local_magnetization

__version__ = TOOL_VERSION
