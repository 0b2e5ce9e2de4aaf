"""Locate and import the fracseq sources of the checkout the benchmark sits in.

The benchmark always measures ``src/fracseq`` next to its own directory,
never an installed copy, and fails (non-zero exit, no result) when those
sources are missing.
"""

from __future__ import annotations

import importlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "fracseq"
MODULES = ("coefficients", "transforms", "matrix_domain", "compactness", "serialize", "errors")


def require_sources() -> None:
    if not (PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no fracseq sources at {PACKAGE}")


def import_program(with_cli: bool = False):
    """Import fracseq from ``src/`` of this checkout and return the package."""
    require_sources()
    sys.path.insert(0, str(SRC))
    fracseq = importlib.import_module("fracseq")
    if Path(fracseq.__file__).resolve().parent != PACKAGE.resolve():
        raise SystemExit(f"benchmark: imported fracseq from {fracseq.__file__}, expected {PACKAGE}")
    for name in MODULES + (("cli",) if with_cli else ()):
        importlib.import_module(f"fracseq.{name}")
    return fracseq


def child_env() -> dict:
    """Environment for child interpreters: the checkout's sources first on the path."""
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + rest if rest else "")
    return env


def metadata() -> dict:
    """Run metadata: source revision, interpreter and numpy versions, cores, src size."""
    import hashlib
    import platform
    import subprocess

    import numpy

    sha = None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            sha = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(PACKAGE.glob("*.py")):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "src_fracseq_lines": lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }
