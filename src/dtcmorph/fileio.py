"""Run configuration, CSV emission and the run manifest.

Data files are comma-separated text with a header row; floats are written
with repr(), the shortest digit string that round-trips. Tables stream to
disk: each row is formatted, hashed and written before the next is read, so
no table is ever held in memory whole. Every numeric value is checked
finite as its row is formatted; a table that fails part-way is deleted
before the error propagates. Each run emits one JSON manifest listing the
resolved configuration, seed provenance, the unit convention and a sha256
digest per data file; timestamps live only there, so data files are
byte-identical across reruns. A run writes into a staging directory beside
its output directory and moves its files in only once all of them, manifest
included, are written (`staged_output`), so a failed run leaves its output
directory unchanged.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import numbers
import os
import shutil
import typing
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

# CPython's built-in sha256: the same digest as hashlib's, which loads OpenSSL
try:
    from _sha2 import sha256  # Python >= 3.12
except ImportError:
    from _sha256 import sha256

from .errors import ConfigError, ValidationError
from .hamiltonians import ModelParams, default_params

TOOL_NAME = "dtcmorph"
TOOL_VERSION = "0.1.0"
UNIT_CONVENTION = {"hbar": 1.0, "default_period": 1.0}

_MODEL_OVERRIDE_FIELDS = ("t1", "t2", "t3", "g", "j0", "mu", "jxy", "w")


def _check_type(name: str, value, hint) -> None:
    """ConfigError unless `value` fits the field type `hint` (e.g. int | None)."""
    kind, *rest = typing.get_args(hint) or (hint,)
    if value is None and type(None) in rest:
        return
    is_list = isinstance(value, (list, tuple))
    number = numbers.Integral if kind is int else numbers.Real
    # an int is a valid float; JSON true/false (Python bool) is never a number
    if is_list != (kind is tuple) or not all(
        isinstance(v, number) and not isinstance(v, bool) for v in (value if is_list else [value])
    ):
        expected = {int: "an integer", float: "a number"}.get(kind, "a list of numbers")
        raise ConfigError(f"config key {name!r} must be {expected}, got {value!r}")


@dataclass(frozen=True)
class RunConfig:
    """Resolved inputs of one CLI run; round-trips losslessly through JSON."""

    n_sites: int = 8
    lambdas: tuple | None = None
    realizations: int | None = None
    periods: int | None = None
    master_seed: int = 12345
    bins: int | None = None
    initial_config: int | None = None
    workers: int | None = None
    t1: float | None = None
    t2: float | None = None
    t3: float | None = None
    g: float | None = None
    j0: float | None = None
    mu: float | None = None
    jxy: float | None = None
    w: float | None = None

    def __post_init__(self):
        if self.lambdas is not None:
            object.__setattr__(self, "lambdas", tuple(float(v) for v in self.lambdas))

    def params_for(self, lam: float) -> ModelParams:
        """Model parameters at one deformation value, with any overrides applied."""
        base = default_params(self.n_sites, lam)
        overrides = {
            name: getattr(self, name)
            for name in _MODEL_OVERRIDE_FIELDS
            if getattr(self, name) is not None
        }
        return replace(base, **overrides) if overrides else base

    def to_dict(self) -> dict:
        data = asdict(self)
        if data["lambdas"] is not None:
            data["lambdas"] = list(data["lambdas"])
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        hints = typing.get_type_hints(cls)
        unknown = set(data) - set(hints)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for name, value in data.items():
            _check_type(name, value, hints[name])
        return cls(**data)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        return cls.from_dict(data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def format_value(value, context: str = "") -> str:
    """Render one CSV cell; rejects non-finite numbers.

    A string holding a comma, a quote or a line break is quoted as RFC 4180
    says: wrapped in double quotes, with each inner quote doubled.
    """
    if isinstance(value, str):
        if any(c in value for c in ',"\r\n'):
            return '"' + value.replace('"', '""') + '"'
        return value
    if isinstance(value, (int, np.integer, np.bool_)):
        return str(int(value))  # bools, numpy's included, as 0/1
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(f"non-finite value in output{context and f' ({context})'}")
    return repr(value)


@dataclass
class EmittedFile:
    name: str
    sha256: str
    rows: int


def _format_cells(row, context: str) -> list:
    """The cells of one row; a 1-D numpy array in it stands for its elements, in order.

    A finite float array is rendered with repr over `tolist()`, which for
    Python floats is exactly `format_value`'s rule; any other array, or one
    holding a non-finite value, goes through `format_value` value by value.
    An array of another dimension is a ValueError naming `context`.
    """
    cells = []
    for value in row:
        if not isinstance(value, np.ndarray):
            cells.append(format_value(value, context))
        elif value.ndim != 1:
            raise ValueError(f"a {value.ndim}-D array in a row of {context}; rows take 1-D arrays")
        elif value.dtype.kind == "f" and np.isfinite(value).all():
            cells.extend(map(repr, value.tolist()))
        else:
            cells.extend(format_value(v, context) for v in value.tolist())
    return cells


def write_csv(out_dir: Path, name: str, header, rows) -> EmittedFile:
    """Stream one CSV table to disk and return its digest record.

    `rows` may be any iterable, a generator included; each row is formatted,
    hashed and written before the next is read, so memory stays at one row.
    A 1-D numpy array in a row stands for its elements (`_format_cells`);
    an array of another dimension is a ValueError naming the file. A table
    that fails part-way, e.g. on a non-finite value (ValidationError naming
    the file), is deleted before the error propagates; the run's
    staging directory (`staged_output`) keeps the output directory unchanged.
    """
    path = Path(out_dir) / name
    lines = itertools.chain(
        [",".join(header)], (",".join(_format_cells(row, name)) for row in rows)
    )
    digest = sha256()
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as handle:
            for count, line in enumerate(lines):  # the header is line 0
                data = (line + "\n").encode("utf-8")
                digest.update(data)
                handle.write(data)
    except BaseException as exc:
        path.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise OSError(f"cannot write {path}: {exc}") from exc
        raise
    return EmittedFile(name=name, sha256=digest.hexdigest(), rows=count)


@contextlib.contextmanager
def staged_output(out_dir: Path):
    """Yield a staging directory for one run's files; move them into `out_dir` on success.

    The staging directory is a hidden sibling of `out_dir`, created at the
    first write. When the body raises, it is deleted and `out_dir` is left as
    it was. Otherwise each file is moved into `out_dir`, manifest.json last,
    so a manifest in `out_dir` always describes files that are all there.
    """
    out_dir = Path(out_dir).resolve()
    staging = out_dir.with_name(f".{out_dir.name}.partial-{os.getpid()}")
    try:
        yield staging
        if staging.exists():
            out_dir.mkdir(parents=True, exist_ok=True)
            for path in sorted(staging.iterdir(), key=lambda p: (p.name == "manifest.json", p.name)):
                os.replace(path, out_dir / path.name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def _write(path: Path, payload: bytes) -> None:
    """Write one output file, creating its directory on the first write of a run."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(payload)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def write_manifest(out_dir: Path, command: str, config: RunConfig, files, fields: dict) -> Path:
    """Emit manifest.json; it alone suffices to reproduce the run.

    `fields` holds the command's own entries (seed provenance, worker count,
    numerical health), merged over the common ones.
    """
    payload = {
        "tool": TOOL_NAME,
        "version": TOOL_VERSION,
        "command": command,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "units": UNIT_CONVENTION,
        "config": config.to_dict(),
        "master_seed": config.master_seed,
        "files": [asdict(f) for f in files],
        **fields,
    }
    path = Path(out_dir) / "manifest.json"
    _write(path, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8"))
    return path
