"""Byte-identity guard: every command at the smoke tier, and solve-nlsh at
d = 2, reproduces the exit codes and the report, CSV and plot-script digests
in golden_smoke.json.

Artifact bytes depend on the manifest alone: on its configuration and on its
runtime, the interpreter, numpy, scipy, the BLAS library and the CPU (the CLI
runs BLAS on one thread, whatever the environment says).  The golden file's
stamp is that runtime, read from a manifest of the run, and the test skips,
naming the difference, when the stamp is not this one.  Regenerate the file
from a source tree with

    python tests/test_golden.py [SRC_DIR] > tests/golden_smoke.json
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("golden_smoke.json")
SRC = Path(__file__).resolve().parents[1] / "src"

# all commands in one interpreter; the last stdout line holds the exit codes
RUN_ALL = """
import json, sys
from oscilab.cli import COMMANDS, main
codes = {command: main([command, "--tier", "smoke", "--out", sys.argv[1]]) for command in COMMANDS}
codes["solve-nlsh dim=2"] = main(["solve-nlsh", "--tier", "smoke", "--set", "dim=2", "--out", sys.argv[1] + "/dim2"])
print(json.dumps(codes))
"""


def artifacts(src: Path, out: Path) -> dict:
    """The runtime stamp of the run's manifests (the BLAS thread count left out: the
    CLI pins it), the exit code of every command and sha256 of every artifact except
    manifests."""
    proc = subprocess.run(
        [sys.executable, "-c", RUN_ALL, str(out)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=600, check=True,
        stdin=subprocess.DEVNULL,
    )
    stamp = json.loads((out / "smoothing" / "manifest.json").read_text())["runtime"]
    del stamp["blas_threads_in_force"]
    files = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.suffix in (".csv", ".gp") or (path.suffix == ".json" and path.name != "manifest.json")
    }
    return {"stamp": stamp, "exit_codes": json.loads(proc.stdout.splitlines()[-1]), "files": files}


def test_smoke_artifacts_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = artifacts(SRC, tmp_path)
    want, here = golden["stamp"], got["stamp"]
    differ = {key: {"golden": want.get(key), "here": here.get(key)}
              for key in sorted(want.keys() | here.keys()) if want.get(key) != here.get(key)}
    if differ:
        pytest.skip(f"golden digests were recorded in another environment: {differ}")
    assert got["exit_codes"] == golden["exit_codes"]
    names = sorted(set(got["files"]) | set(golden["files"]))
    assert [n for n in names if got["files"].get(n) != golden["files"].get(n)] == []


if __name__ == "__main__":
    src = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else SRC
    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps(artifacts(src, Path(tmp)), indent=1, sort_keys=True))
