"""Environment fingerprint attached to every benchmark result."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path


def _blas(module) -> dict:
    """Name and version of the BLAS a module was built against."""
    try:
        config = module.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (AttributeError, KeyError, TypeError):
        return {"name": None, "version": None}


def _git(root: Path) -> dict:
    """Revision and dirty flag, when root is a git checkout."""
    if not (root / ".git").exists():
        return {"revision": None, "dirty": None}
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            check=True, timeout=30,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"], cwd=root,
            capture_output=True, text=True, check=True, timeout=30,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return {"revision": None, "dirty": None}
    return {"revision": revision, "dirty": bool(status.strip())}


def src_lines(root: Path) -> int:
    """Lines of Python under src/, the code-size side of the trajectory."""
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((root / "src").rglob("*.py"))
    )


def fingerprint(root: Path, removed_env: list) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy_blas": _blas(scipy),
        "cpu_count": os.cpu_count(),
        "removed_env": removed_env,
        "git": _git(root),
        "src_lines": src_lines(root),
    }
