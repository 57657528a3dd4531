import dataclasses

import numpy as np
import pytest

import dtcmorph.dynamics as dynamics_module
from dtcmorph import lapack


@pytest.fixture
def blas_threads():
    """Read OpenBLAS's thread count through the one setter `lapack` binds.

    The test starts at 2 threads, so a limit of 1 and its restoring both
    show; the count found before is restored afterwards.
    """
    setter = lapack._ROUTINES["set_threads"]

    def read() -> int:
        count = setter(1)
        setter(count)
        return count

    previous = setter(2)
    yield read
    setter(previous)


@pytest.fixture
def corrupt_factors(monkeypatch):
    """Scale one part of F's factor form in every evolution, breaking unitarity.

    `corrupt("u1" | "u3")` scales the first dimer factor, `corrupt("phases")`
    the segment-2 diagonal; with `lam`, only at that deformation value.
    """

    def corrupt(part: str, scale: float = 1.001, lam: float | None = None):
        real = dynamics_module.floquet_factors

        def corrupted(params, disorder):
            factors = real(params, disorder)
            if lam is not None and params.lam != lam:
                return factors
            value = getattr(factors, part)
            value = scale * value if part == "phases" else (scale * value[0],) + value[1:]
            return dataclasses.replace(factors, **{part: value})

        monkeypatch.setattr(dynamics_module, "floquet_factors", corrupted)

    return corrupt


# faults at the factors of F, each breaking its unitarity: a dense cell must
# refuse every one of them, naming unitarity
FACTOR_FAULTS = {
    "nan_phase": lambda f: dataclasses.replace(
        f, phases=np.where(np.arange(len(f.phases)) == 1, np.nan, f.phases)),
    "phases_x1.01": lambda f: dataclasses.replace(f, phases=1.01 * f.phases),
    "u3_x1.01": lambda f: dataclasses.replace(f, u3=(1.01 * f.u3[0],) + f.u3[1:]),
    "rotation_x1.01": lambda f: dataclasses.replace(
        f, rotations=(1.01 * f.rotations[0],) + f.rotations[1:]),
}


@pytest.fixture(params=sorted(FACTOR_FAULTS))
def factor_fault(request):
    """One of FACTOR_FAULTS: factors -> the same factors with that fault."""
    return FACTOR_FAULTS[request.param]
