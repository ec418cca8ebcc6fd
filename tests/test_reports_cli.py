import json
import hashlib
from pathlib import Path

import numpy as np
import pytest

from oscilab.cli import main
from oscilab.reports import EIGENVALUE_NORMALIZATION, write_csv, write_manifest, write_report


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_report_schema_and_determinism(tmp_path):
    stats = {"value": np.float64(1.5), "flag": np.bool_(True), "arr": [1, 2, 3],
             "skip_me": np.arange(4)}
    p1 = write_report("demo", stats, tmp_path / "a", verdict=True, meta={"seed": 1})
    p2 = write_report("demo", stats, tmp_path / "b", verdict=True, meta={"seed": 1})
    assert digest(p1) == digest(p2)
    body = json.loads(p1.read_text())
    assert body["schema"] == "report_v1"
    assert body["eigenvalue_normalization"] == EIGENVALUE_NORMALIZATION
    assert "skip_me" not in body["stats"]  # ndarray stats go to CSV, not JSON
    assert body["stats"]["value"] == 1.5


def test_csv_roundtrip(tmp_path):
    path = write_csv("curve", {"x": np.array([0.0, 1.0]), "y": np.array([2.0, 3.5])}, tmp_path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) == 3
    with pytest.raises(ValueError):
        write_csv("bad", {"x": [1, 2], "y": [1]}, tmp_path)


def test_manifest_contains_config(tmp_path):
    path = write_manifest(tmp_path, "demo", {"seed": 7, "params": {"N": 3}})
    body = json.loads(path.read_text())
    assert body["command"] == "demo"
    assert body["config"]["seed"] == 7
    assert "timestamp_unix" in body


def run_cli(args):
    return main(args)


def test_cli_basis_check(tmp_path, capsys):
    code = run_cli(["basis-check", "--tier", "smoke", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "Gram deviation" in out
    report = json.loads((tmp_path / "basis_check" / "basis_check.json").read_text())
    assert report["verdict"] is True
    assert report["stats"]["gram_deviation"] <= 1e-10


def test_cli_rejects_even_nonlinearity(tmp_path, capsys):
    code = run_cli([
        "solve-nlsh", "--tier", "smoke", "--out", str(tmp_path), "--set", "p=4",
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert "odd >= 5" in err
    error_report = json.loads((tmp_path / "solve_nlsh" / "error.json").read_text())
    assert error_report["verdict"] is False


def test_cli_rejects_unknown_config_field(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for field in ("nonsense_field", "seed"):  # the seed comes from --seed only
        cfg.write_text(json.dumps({"b2p": {field: 1}}))
        code = run_cli(["b2p", "--out", str(tmp_path), "--config", str(cfg)])
        assert code == 2
        assert repr(field) in capsys.readouterr().err


def test_cli_b2p_override(tmp_path, capsys):
    code = run_cli(["b2p", "--out", str(tmp_path), "--set", "p=3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "count(2p=6) = 55" in out


def test_cli_solve_resume_identical(tmp_path, capsys):
    out = str(tmp_path)
    assert run_cli(["solve-nlsh", "--tier", "smoke", "--out", out]) == 0
    first = json.loads((tmp_path / "solve_nlsh" / "solve_nlsh.json").read_text())["stats"]
    assert run_cli(["solve-nlsh", "--tier", "smoke", "--out", out, "--resume"]) == 0
    second = json.loads((tmp_path / "solve_nlsh" / "solve_nlsh.json").read_text())["stats"]
    assert second["resumed"] is True
    for key in ("residual", "mass_drift", "iterations", "final_update"):
        assert first[key] == second[key]
    # a checkpoint of another problem is refused, not reported as this one
    stale = ["solve-nlsh", "--tier", "smoke", "--out", out, "--resume", "--set", "N=24", "--set", "amplitude=0.05"]
    assert run_cli(stale) == 2
    assert "another problem" in capsys.readouterr().err
    error_report = json.loads((tmp_path / "solve_nlsh" / "error.json").read_text())
    assert error_report["stats"]["error_type"] == "ConfigError"


@pytest.mark.parametrize("command", ["omega", "paley-zygmund"])
def test_cli_deterministic_artifacts(tmp_path, command):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli([command, "--tier", "smoke", "--out", str(a), "--workers", "1"]) == 0
    assert run_cli([command, "--tier", "smoke", "--out", str(b), "--workers", "4"]) == 0
    name = command.replace("-", "_")
    written = sorted(p.name for p in (a / name).iterdir() if p.name != "manifest.json")
    assert written == sorted(p.name for p in (b / name).iterdir() if p.name != "manifest.json")
    for artifact in written:
        assert digest(a / name / artifact) == digest(b / name / artifact)


def test_cli_frame_dump(tmp_path):
    assert run_cli(["solve-nls", "--tier", "smoke", "--out", str(tmp_path)]) == 0
    frame = (tmp_path / "solve_nls" / "frame_t0.5.csv").read_text().splitlines()
    assert frame[0] == "x,re_u,im_u"
    assert (tmp_path / "solve_nls" / "frame_t0.5.gp").exists()
