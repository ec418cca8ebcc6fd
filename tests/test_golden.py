"""Byte-identity guard: every command at the smoke tier, and solve-nlsh at
d = 2, reproduces the exit codes and the report, CSV and plot-script digests
in golden_smoke.json.

Artifact bytes depend on the interpreter, numpy, scipy, the BLAS library,
its thread count and the CPU.  The commands run with one BLAS thread, and
the test skips, naming the difference, when the environment stamped in the
golden file is not this one.  Regenerate the file from a source tree with

    python tests/test_golden.py [SRC_DIR] > tests/golden_smoke.json
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy
import pytest
import scipy

GOLDEN = Path(__file__).with_name("golden_smoke.json")
SRC = Path(__file__).resolve().parents[1] / "src"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# all commands in one interpreter; the last stdout line holds the exit codes
RUN_ALL = """
import json, sys
from oscilab.cli import COMMANDS, main
codes = {command: main([command, "--tier", "smoke", "--out", sys.argv[1]]) for command in COMMANDS}
codes["solve-nlsh dim=2"] = main(["solve-nlsh", "--tier", "smoke", "--set", "dim=2", "--out", sys.argv[1] + "/dim2"])
print(json.dumps(codes))
"""


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            return next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        return None


def stamp() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu": _cpu_model(),
    }


def artifacts(src: Path, out: Path) -> dict:
    """Exit code of every command and sha256 of every artifact except manifests."""
    env = {**os.environ, "PYTHONPATH": str(src), **{key: "1" for key in BLAS_ENV}}
    proc = subprocess.run(
        [sys.executable, "-c", RUN_ALL, str(out)],
        env=env, capture_output=True, text=True, timeout=600, check=True, stdin=subprocess.DEVNULL,
    )
    files = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.suffix in (".csv", ".gp") or (path.suffix == ".json" and path.name != "manifest.json")
    }
    return {"exit_codes": json.loads(proc.stdout.splitlines()[-1]), "files": files}


def test_smoke_artifacts_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    here = stamp()
    differ = {key: {"golden": golden["stamp"].get(key), "here": value} for key, value in here.items()
              if golden["stamp"].get(key) != value}
    if differ:
        pytest.skip(f"golden digests were recorded in another environment: {differ}")
    got = artifacts(SRC, tmp_path)
    assert got["exit_codes"] == golden["exit_codes"]
    names = sorted(set(got["files"]) | set(golden["files"]))
    assert [n for n in names if got["files"].get(n) != golden["files"].get(n)] == []


if __name__ == "__main__":
    src = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else SRC
    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps({"stamp": stamp(), **artifacts(src, Path(tmp))}, indent=1, sort_keys=True))
