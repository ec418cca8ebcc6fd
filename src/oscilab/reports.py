"""Run artifacts: versioned JSON reports, CSV curves, and the run manifest.

Artifacts are byte-deterministic for a fixed resolved configuration; wall
clock timestamps live only in the manifest.
"""

from __future__ import annotations

import csv
import json
import platform
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .blas import blas_runtime
from .ensembles import NDTRI_MODULE

__all__ = ["REPORT_SCHEMA", "EIGENVALUE_NORMALIZATION", "write_report", "write_manifest", "write_csv"]

REPORT_SCHEMA = "report_v1"

# recorded in every report header: the operator normalization in force
EIGENVALUE_NORMALIZATION = "lambda_n^2 = 2|n| + d"


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    return value


def write_report(name: str, stats: dict, out_dir, verdict=None, meta: dict | None = None) -> Path:
    """Write one JSON report (schema report_v1); returns the path.

    ndarray-valued stats entries are dropped from the JSON (they belong in
    CSV curves via write_csv); everything else is serialized with sorted
    keys so equal runs produce equal bytes.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    body = {
        "schema": REPORT_SCHEMA,
        "name": name,
        "verdict": _jsonable(verdict),
        "eigenvalue_normalization": EIGENVALUE_NORMALIZATION,
        "meta": _jsonable(meta or {}),
        "stats": {
            k: _jsonable(v) for k, v in stats.items() if not isinstance(v, np.ndarray)
        },
    }
    path = out_dir / f"{name}.json"
    path.write_text(json.dumps(body, sort_keys=True, indent=1) + "\n")
    return path


def write_csv(name: str, columns: dict, out_dir) -> Path:
    """Write named columns as a CSV curve file with a header row."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    keys = list(columns)
    arrays = [np.asarray(columns[k]).ravel() for k in keys]
    length = len(arrays[0])
    if any(len(a) != length for a in arrays):
        raise ValueError("all CSV columns must have equal length")
    path = out_dir / f"{name}.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(keys)
        for row in zip(*arrays):
            writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row])
    return path


def _cpu_model() -> str | None:
    """The CPU's model name as /proc/cpuinfo gives it, or None where there is none."""
    try:
        with open("/proc/cpuinfo") as fh:
            return next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        return None


def write_manifest(out_dir, command: str, config: dict) -> Path:
    """Echo the fully resolved configuration plus code version, runtime and timestamp.

    The runtime is what the report bits depend on beyond the configuration:
    the python, numpy and scipy versions, the scipy module that ``ndtri`` was
    loaded from, numpy's BLAS and LAPACK, the BLAS threads in force (one
    under the CLI) and the CPU model.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    body = {
        "command": command,
        "config": _jsonable(config),
        "oscilab_version": __version__,
        "eigenvalue_normalization": EIGENVALUE_NORMALIZATION,
        "runtime": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "ndtri_module": NDTRI_MODULE,
            **blas_runtime(),
            "cpu": _cpu_model(),
        },
        "timestamp_unix": time.time(),
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(body, sort_keys=True, indent=1) + "\n")
    return path
