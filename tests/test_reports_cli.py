import argparse
import ctypes
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from oscilab import blas, ensembles, fields, hermite
from oscilab.cli import _resolve_params, main
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
    runtime = body["runtime"]
    assert runtime["python"] == platform.python_version() and runtime["numpy"] == np.__version__
    assert runtime["scipy"] == scipy.__version__
    # the module ensembles' ndtri was read from: scipy.special where the package was loaded before oscilab
    assert runtime["ndtri_module"] == ensembles.NDTRI_MODULE in ("scipy.special._ufuncs", "scipy.special")
    for kind in ("blas", "lapack"):
        assert set(runtime[kind]) == {"name", "version"}
    # read from the OpenBLAS that numpy loads, through the handle that gives hermite its dsterf
    assert runtime["blas_threads_in_force"] >= 1
    assert runtime["cpu"] is None or runtime["cpu"]


def blas_threads():
    return blas.openblas_function("scipy_openblas_get_num_threads64_", ctypes.c_int)()


@pytest.fixture()
def two_blas_threads():
    """numpy's OpenBLAS on two threads for the test, then on the count it had."""
    set_threads = blas.openblas_function("scipy_openblas_set_num_threads64_", None, ctypes.c_int)
    found = blas_threads()
    set_threads(2)
    yield
    set_threads(found)


def test_cli_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # unpinned, reference smoothing's fractional_grad_eps0.25.fine read 3.4076821522103344 on one
    # OpenBLAS thread and 3.407682152210335 on two
    src = Path(__file__).resolve().parents[1] / "src"
    runs = [
        subprocess.Popen(
            [sys.executable, "-m", "oscilab.cli", "smoothing", "--tier", "reference", "--out", str(tmp_path / threads)],
            env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads},
            stdout=subprocess.DEVNULL, stdin=subprocess.DEVNULL,
        )
        for threads in ("1", "2")
    ]
    assert [proc.wait(timeout=120) for proc in runs] == [0, 0]
    one, two = (tmp_path / threads / "smoothing" for threads in ("1", "2"))
    assert (one / "smoothing.json").read_bytes() == (two / "smoothing.json").read_bytes()
    assert json.loads((two / "manifest.json").read_text())["runtime"]["blas_threads_in_force"] == 1


def test_cli_runs_on_one_blas_thread_and_restores_the_count(tmp_path, two_blas_threads):
    assert run_cli(["b2p", "--tier", "smoke", "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "b2p" / "manifest.json").read_text())["runtime"]["blas_threads_in_force"] == 1
    assert blas_threads() == 2


def test_cli_runs_where_openblas_has_no_thread_setter(tmp_path, monkeypatch, two_blas_threads):
    lookup = blas.openblas_function

    def no_setter(symbol, *signature):
        return None if symbol == "scipy_openblas_set_num_threads64_" else lookup(symbol, *signature)

    monkeypatch.setattr(blas, "openblas_function", no_setter)
    assert run_cli(["b2p", "--tier", "smoke", "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "b2p" / "manifest.json").read_text())["runtime"]["blas_threads_in_force"] == 2


# (q, degree) of each Gauss-Hermite node build at reference tier: a basis read only for its
# enumeration (basis-check's derivative target, solve-nlsh's own N = 32 basis, whose Picard pass runs
# on the product quadrature) or its audit grid (lens-check, omega) builds no nodes
REFERENCE_NODE_BUILDS = {
    "basis-check": [(256, 64)],
    "lens-check": [],
    "omega": [],
    "solve-nlsh": [(113, 32)],
}


@pytest.mark.parametrize("command", sorted(REFERENCE_NODE_BUILDS))
def test_reference_commands_build_only_the_quadratures_they_read(tmp_path, monkeypatch, command):
    builds = []
    nodes = hermite.gauss_hermite_nodes
    monkeypatch.setattr(hermite, "gauss_hermite_nodes", lambda q, degree: builds.append((q, degree)) or nodes(q, degree))
    monkeypatch.setattr(hermite, "_BASIS_CACHE", {})
    monkeypatch.setattr(fields, "_PRODUCT_QUAD_CACHE", {})
    assert main([command, "--tier", "reference", "--out", str(tmp_path)]) == 0
    assert builds == REFERENCE_NODE_BUILDS[command]


def test_eigen_lp_runs_one_recurrence(tmp_path, monkeypatch):
    # p = 4 and p = inf are read off one |h_n| table
    calls = []
    recurrence = hermite._recurrence
    monkeypatch.setattr(hermite, "_recurrence", lambda n, x, rows: calls.append(n) or recurrence(n, x, rows))
    assert main(["eigen-lp", "--tier", "reference", "--out", str(tmp_path)]) == 0
    assert calls == [400]
    assert sorted(p.name for p in (tmp_path / "eigen_lp").iterdir() if p.suffix == ".csv") == [
        "eigen_lp_p4.0.csv", "eigen_lp_pinf.csv"
    ]


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


def test_cli_divergence_keeps_diagnostics(tmp_path, capsys):
    code = run_cli(["solve-nlsh", "--tier", "smoke", "--out", str(tmp_path), "--set", "amplitude=3.0"])
    assert code == 3
    assert "blow-up guard tripped" in capsys.readouterr().err
    stats = json.loads((tmp_path / "solve_nlsh" / "error.json").read_text())["stats"]
    assert stats["error_type"] == "DivergenceError"
    assert abs(stats["time_node"] + np.pi / 4) < 1e-6
    assert stats["history"] and all(isinstance(h, float) for h in stats["history"])


def test_cli_refuses_smoothing_time_nodes(tmp_path, capsys):
    # the time integral is taken in closed form and the sharp constant is an eigenvalue,
    # so smoothing has neither a time grid nor draws to set
    for field, value in (("time_nodes", 129), ("draws", 10)):
        code = run_cli(["smoothing", "--tier", "smoke", "--out", str(tmp_path), "--set", f"{field}={value}"])
        assert code == 2
        assert f"unknown override field {field!r}" in capsys.readouterr().err
        assert not (tmp_path / "smoothing" / "smoothing.json").exists()


def test_cli_rejects_unknown_config_field(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for field in ("nonsense_field", "seed"):  # the seed comes from --seed only
        cfg.write_text(json.dumps({"b2p": {field: 1}}))
        code = run_cli(["b2p", "--out", str(tmp_path), "--config", str(cfg)])
        assert code == 2
        assert repr(field) in capsys.readouterr().err


def test_cli_rejects_unconvertible_override(tmp_path, capsys):
    code = run_cli(["solve-nlsh", "--tier", "smoke", "--out", str(tmp_path), "--set", "amplitude=abc"])
    assert code == 2
    assert "amplitude" in capsys.readouterr().err
    # --config values go through the same type check as --set
    cfg = tmp_path / "cfg.json"
    for key, value in (("N", "64"), ("N", 32.5), ("N", True), ("modes", 3)):
        cfg.write_text(json.dumps({"norms": {key: value}}))
        assert run_cli(["norms", "--tier", "smoke", "--out", str(tmp_path), "--config", str(cfg)]) == 2
        assert f"--config {key}" in capsys.readouterr().err
        assert not (tmp_path / "norms").exists()


def test_cli_checks_every_list_element(tmp_path, capsys):
    # each element takes the type of the preset's elements, through --config and --set alike
    cfg = tmp_path / "cfg.json"
    cases = (  # command, field, value, its bad element
        ("norms", "modes", [1.5, 0], 1.5),
        ("norms", "modes", [0, True], True),
        ("lens-check", "times", [0.25, "0.5"], "0.5"),
        ("omega", "thresholds", [1.0, None], None),
    )
    for command, key, value, bad in cases:
        cfg.write_text(json.dumps({command: {key: value}}))
        assert run_cli([command, "--tier", "smoke", "--out", str(tmp_path), "--config", str(cfg)]) == 2
        assert f"--config {key}: cannot read {bad!r}" in capsys.readouterr().err
        assert run_cli([command, "--tier", "smoke", "--out", str(tmp_path), "--set", f"{key}={json.dumps(value)}"]) == 2
        assert f"--set {key}: cannot read {bad!r}" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("command,key,value", [
    ("omega", "thresholds", "[0.5,Infinity]"), ("norms", "T", "inf"), ("lens-check", "times", "[NaN]"),
    ("solve-nls", "times", "[0.5,NaN]"), ("solve-nlsh", "amplitude", "nan"),
    ("scattering", "amplitudes", "[0.05,Infinity]"),
])
def test_cli_refuses_non_finite_floats(tmp_path, capsys, command, key, value):
    # a non-finite float is no JSON number for the manifest, and no value any field means
    assert run_cli([command, "--tier", "smoke", "--out", str(tmp_path), "--set", f"{key}={value}"]) == 2
    assert f"--set {key}: " in (err := capsys.readouterr().err) and "not a finite number" in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: json.loads(value) if value.startswith("[") else float(value)}))
    assert run_cli([command, "--tier", "smoke", "--out", str(tmp_path), "--config", str(cfg)]) == 2
    assert f"--config {key}: " in (err := capsys.readouterr().err) and "not a finite number" in err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_cli_reads_an_int_list_element_as_a_float():
    args = argparse.Namespace(tier="smoke", config=None, override=["times=[1, 0.5]"])
    times = _resolve_params("lens-check", args)["times"]
    assert times == [1.0, 0.5] and [type(t) for t in times] == [float, float]


def test_cli_rejects_config_section_not_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"b2p": 5}))
    assert run_cli(["b2p", "--out", str(tmp_path), "--config", str(cfg)]) == 2
    assert "JSON object" in capsys.readouterr().err


def test_cli_rejects_list_override_not_json_list(tmp_path, capsys):
    for value in ("abc", "0.5", "[0.25"):
        code = run_cli(["lens-check", "--tier", "smoke", "--out", str(tmp_path), "--set", f"times={value}"])
        assert code == 2
        assert "times" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "damage", ["missing_v", "not_npz", "old_version", "config_unknown_field", "config_not_object", "config_not_int"]
)
def test_cli_refuses_a_bad_checkpoint(tmp_path, capsys, damage):
    # a checkpoint that cannot be read is refused like one of another problem, naming the file
    assert run_cli(["solve-nlsh", "--tier", "smoke", "--out", str(tmp_path)]) == 0
    checkpoint = tmp_path / "solve_nlsh" / "trajectory.npz"
    if damage == "not_npz":
        checkpoint.write_text("not a checkpoint\n")
    else:
        with np.load(checkpoint) as data:
            arrays = {name: data[name] for name in data.files}
        if damage == "missing_v":
            del arrays["v"]
        elif damage == "config_unknown_field":
            config = json.loads(str(arrays["config_json"][0]))
            arrays["config_json"] = np.array([json.dumps({**config, "extra": 1})])
        elif damage == "config_not_object":
            arrays["config_json"] = np.array([json.dumps([1, 2])])
        elif damage == "config_not_int":
            config = json.loads(str(arrays["config_json"][0]))
            arrays["config_json"] = np.array([json.dumps({**config, "dim": "1"})])
        else:
            arrays["version"] = np.array([3])
        np.savez(checkpoint, **arrays)
    capsys.readouterr()
    assert run_cli(["solve-nlsh", "--tier", "smoke", "--out", str(tmp_path), "--resume"]) == 2
    assert str(checkpoint) in capsys.readouterr().err
    stats = json.loads((tmp_path / "solve_nlsh" / "error.json").read_text())["stats"]
    assert stats["error_type"] == "ConfigError" and str(checkpoint) in stats["message"]
    # the passing run's report and curve went with it; the checkpoint stays for inspection
    assert sorted(p.name for p in checkpoint.parent.iterdir()) == ["error.json", "manifest.json", "trajectory.npz"]


@pytest.mark.parametrize("command,setting", [
    ("eigen-lp", "n_max=5"), ("eigen-lp", "n_max=10"), ("b2p", "p=0"), ("basis-check", "recurrence_N=-1"),
    ("khinchin", "q_max=1"), ("khinchin", "q_max=26"), ("khinchin", "n_modes=-1"), ("khinchin", "n_modes=0"),
    ("khinchin", "n_samples=0"), ("chernoff", "n_samples=0"), ("paley-zygmund", "n_samples=0"),
    ("omega", "n_modes=0"), ("omega", "thresholds=[]"),
    ("scattering", "amplitudes=[0.1]"), ("scattering", "amplitudes=[0.1,0.1]"),
    ("lens-check", "times=[]"), ("solve-nls", "times=[]"), ("norms", "modes=[]"),
    ("basis-check", "N=-1"), ("norms", "N=-1"), ("lens-check", "N=-1"), ("smoothing", "N_fine=-3"),
    ("solve-nlsh", "N=-2"), ("basis-check", "quad=1"), ("tails", "n_verify=10"), ("tails", "n_tail=10"),
    ("solve-nlsh", "p=4"),
])
def test_cli_refuses_out_of_range_parameters(tmp_path, capsys, command, setting):
    # eigen-lp's trend window n = 10..n_max needs two points; b2p counts for p = 1..p; khinchin's moments
    # need an even q in [2, 24] and every Monte Carlo draw a sample and a mode; scattering fits its slope
    # through two distinct amplitudes; a verdict over an empty list of times, modes or thresholds would
    # check nothing; a basis needs a degree N >= 0 and quad >= 2(N + 1) nodes, and a tail fit 10^5
    # samples (a norm tail 10^4), and a Picard solve an odd p >= 5.  The message names the field that was
    # set as a whole word, not the library argument it feeds
    assert run_cli([command, "--tier", "smoke", "--out", str(tmp_path), "--set", setting]) == 3
    err = capsys.readouterr().err
    assert "must" in err and re.search(rf"\b{setting.partition('=')[0]}\b", err)
    name = command.replace("-", "_")
    assert json.loads((tmp_path / name / "error.json").read_text())["stats"]["error_type"] == "ValueError"
    assert not (tmp_path / name / f"{name}.json").exists()


def test_cli_solve_nlsh_in_two_dimensions(tmp_path, capsys):
    out = str(tmp_path)
    assert run_cli(["solve-nlsh", "--tier", "smoke", "--out", out, "--set", "dim=2"]) == 0
    report = json.loads((tmp_path / "solve_nlsh" / "solve_nlsh.json").read_text())
    assert report["verdict"] is True
    assert report["meta"]["config"]["dim"] == 2
    manifest = json.loads((tmp_path / "solve_nlsh" / "manifest.json").read_text())
    assert manifest["config"]["params"]["dim"] == 2
    # the d = 2 checkpoint does not answer a d = 1 resume
    assert run_cli(["solve-nlsh", "--tier", "smoke", "--out", out, "--resume"]) == 2
    assert "another problem" in capsys.readouterr().err


def test_cli_rejects_workers_where_ignored(tmp_path, capsys):
    assert run_cli(["smoothing", "--tier", "smoke", "--out", str(tmp_path), "--workers", "2"]) == 2
    assert "--workers 2" in capsys.readouterr().err
    error_report = json.loads((tmp_path / "smoothing" / "error.json").read_text())
    assert error_report["stats"]["error_type"] == "ConfigError"
    assert not (tmp_path / "smoothing" / "smoothing.json").exists()
    assert run_cli(["b2p", "--tier", "smoke", "--out", str(tmp_path), "--workers", "2"]) == 2
    assert run_cli(["b2p", "--tier", "smoke", "--out", str(tmp_path), "--workers", "1"]) == 0
    for workers in ("0", "-2"):
        assert run_cli(["b2p", "--tier", "smoke", "--out", str(tmp_path / workers), "--workers", workers]) == 2
        assert f"got {workers}" in capsys.readouterr().err
        assert not (tmp_path / workers).exists()


@pytest.mark.parametrize("command", ["omega", "paley-zygmund", "khinchin", "chernoff", "tails"])
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


def test_cli_deletes_an_earlier_runs_artifacts(tmp_path):
    # the smoke tier writes the t = 0.5 and 2.0 frames, the reference tier t = 10.0 too
    out = str(tmp_path)
    assert run_cli(["solve-nls", "--tier", "reference", "--out", out]) == 0
    assert (tmp_path / "solve_nls" / "frame_t10.0.csv").exists()
    assert run_cli(["solve-nls", "--tier", "smoke", "--out", out]) == 0
    assert sorted(p.name for p in (tmp_path / "solve_nls").iterdir()) == [
        "frame_t0.5.csv", "frame_t0.5.gp", "frame_t2.0.csv", "frame_t2.0.gp",
        "manifest.json", "solve_nls.json", "trajectory.npz",
    ]


def test_cli_aliasing_refusal_leaves_no_passing_report(tmp_path, capsys):
    out = str(tmp_path)
    assert run_cli(["lens-check", "--tier", "smoke", "--out", out]) == 0
    # a config that does not resolve runs nothing and deletes nothing
    assert run_cli(["lens-check", "--tier", "smoke", "--out", out, "--set", "times=[100]x"]) == 2
    assert json.loads((tmp_path / "lens_check" / "lens_check.json").read_text())["verdict"] is True
    capsys.readouterr()
    assert run_cli(["lens-check", "--tier", "smoke", "--out", out, "--set", "times=[100.0]"]) == 3
    assert "Nyquist bound" in capsys.readouterr().err
    assert sorted(p.name for p in (tmp_path / "lens_check").iterdir()) == ["error.json", "manifest.json"]
    stats = json.loads((tmp_path / "lens_check" / "error.json").read_text())["stats"]
    assert stats["error_type"] == "AliasingGuardError" and "Nyquist bound" in stats["message"]
