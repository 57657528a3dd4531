#!/usr/bin/env python3
"""Time the dense build of F, one factor-form period, whole values and states cells and one fidelity-map column at several chain lengths.

Run from anywhere; dtcmorph is imported from the src/ of the checkout this
script sits in, so a copy of it in another checkout times that checkout.

    python3 tools/time_build.py                       # N = 8 and 10
    python3 tools/time_build.py --n-sites 8 10 12 --repeats 5

For each N it times `fast_floquet_operator(factors)` (one dense D x D
build, "build"), `apply_floquet(factors, psi)` (one period on a state
vector, "period") and `floquet_spectrum(factors, period, vectors)`, the
build and the solve of one `levels` cell without states ("cell") and of
one `heff`, `fractal` or `sweep` cell with them ("states_cell"), and the
all-configuration evolution of one `dynamics` lambda over
FIDELITY_PERIODS periods on one worker ("fidelity": the power spectra of
every basis state that one column of the fidelity maps compares;
`--repeats` calls of each but "period") on one interior cell
(lambda = 0.5, default couplings, disorder seed 7), after one untimed call
of each, with OpenBLAS held to one thread. One more untimed call of each
stage runs under tracemalloc for its traced peak: what it allocates beyond
its inputs, in D x D complex buffers. A cell builds F and solves in F's own
buffer; the fidelity column never builds F and holds one block of
spins.BLOCK_COLS columns at a time. N = 12 is opt-in: one build takes
seconds there and one eigensolve minutes.

Standard output is one JSON line: the environment fingerprint, the same
`lapack.environment` block a run manifest records, and, per N and stage,
the median, min and max time in milliseconds and the peak in buffers
("peak_buffers").
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

# before numpy: dtcmorph.cli gives OpenBLAS its one-thread default, as in a command
import dtcmorph.cli  # noqa: E402, F401
import numpy as np  # noqa: E402

from dtcmorph import lapack  # noqa: E402
from dtcmorph.dynamics import _all_config_power_spectra  # noqa: E402
from dtcmorph.floquet import (  # noqa: E402
    apply_floquet,
    fast_floquet_operator,
    floquet_factors,
    floquet_spectrum,
)
from dtcmorph.hamiltonians import MAX_SITES, default_params, sample_disorder  # noqa: E402

# periods of the "fidelity" stage; its time grows linearly with them, its peak barely
FIDELITY_PERIODS = 8


def _summary(seconds: list) -> dict:
    ms = [1e3 * s for s in seconds]
    return {"median_ms": statistics.median(ms), "min_ms": min(ms), "max_ms": max(ms)}


def _timed(call, repeats: int, buffer_bytes: int) -> dict:
    call()
    seconds = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        seconds.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {**_summary(seconds), "peak_buffers": peak / buffer_bytes}


def time_chain(n_sites: int, repeats: int, periods: int) -> dict:
    params = default_params(n_sites, 0.5)
    disorder = sample_disorder(params, 7)
    factors = floquet_factors(params, disorder)
    psi = np.zeros(params.dim, dtype=complex)
    psi[0] = 1.0
    buffer_bytes = params.dim**2 * 16  # one D x D complex buffer
    return {
        "n_sites": n_sites,
        "build": _timed(lambda: fast_floquet_operator(factors), repeats, buffer_bytes),
        "period": _timed(lambda: apply_floquet(factors, psi), periods, buffer_bytes),
        "cell": _timed(lambda: floquet_spectrum(factors, params.period, False), repeats, buffer_bytes),
        "states_cell": _timed(lambda: floquet_spectrum(factors, params.period, True), repeats, buffer_bytes),
        "fidelity": _timed(
            lambda: _all_config_power_spectra(params, disorder, FIDELITY_PERIODS, 0, 1, None),
            repeats, buffer_bytes,
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n-sites", type=int, nargs="+", default=[8, 10],
                        help="even chain lengths to time (default: 8 10)")
    parser.add_argument("--repeats", type=int, default=20,
                        help="timed builds, cells and fidelity columns per chain length (default: 20)")
    parser.add_argument("--periods", type=int, default=200,
                        help="timed apply_floquet periods per chain length (default: 200)")
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.periods < 1:
        parser.error("--repeats and --periods must be at least 1")
    if any(n % 2 or not 2 <= n <= MAX_SITES for n in args.n_sites):
        parser.error(f"--n-sites takes even chain lengths from 2 to {MAX_SITES}")
    with lapack.one_blas_thread() as threads_at_start:
        chains = [time_chain(n, args.repeats, args.periods) for n in args.n_sites]
    print(json.dumps({"fingerprint": lapack.environment(threads_at_start), "chains": chains}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
