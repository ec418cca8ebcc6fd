"""Every experiment of the registry passes its verdict at the reference tier,
and ``acceptance`` is the registry run at one tier and seed.

The two exit criteria with fixed inputs (they depend on neither tier nor
seed) are tests rather than verdicts: their extra solves would land in
benchmarked commands."""

import json
import time

import numpy as np
import pytest
from test_picard import uniqueness_probe

from oscilab.cli import main
from oscilab.experiments import EXPERIMENTS, Context, _solve_from_params
from oscilab.fields import SpectralField, fractional_laplacian_L2_norm, unit_field
from oscilab.hermite import build_basis

COMMANDS = [e for e in EXPERIMENTS if e.name != "acceptance"]

RUNTIME_BUDGETS = {"basis-check": 10.0, "smoothing": 30.0, "solve-nlsh": 120.0, "khinchin": 600.0}


@pytest.mark.parametrize("experiment", COMMANDS, ids=[e.name for e in COMMANDS])
def test_command(experiment, tmp_path):
    start = time.perf_counter()
    result = experiment.run(experiment.params_by_tier["reference"], Context(tier="reference", out_dir=tmp_path))
    elapsed = time.perf_counter() - start
    print(*result.lines, sep="\n")
    assert result.verdict, f"{experiment.name} failed: {result.stats}"
    if experiment.name in RUNTIME_BUDGETS:
        assert elapsed < RUNTIME_BUDGETS[experiment.name], f"{experiment.name} exceeded its runtime budget"


def _report(out, command):
    name = command.replace("-", "_")
    return json.loads((out / name / f"{name}.json").read_text())


def test_acceptance_is_the_registry(tmp_path):
    args = ["--tier", "smoke", "--seed", "1"]
    assert main(["acceptance", *args, "--out", str(tmp_path)]) == 0
    report = _report(tmp_path, "acceptance")
    assert sorted(report["stats"]) == sorted(e.name for e in COMMANDS)
    assert report["meta"] == {"tier": "smoke", "seed": 1}
    for experiment in COMMANDS:
        own_out = tmp_path / "own" / experiment.name
        main([experiment.name, *args, "--out", str(own_out)])
        own = _report(own_out, experiment.name)
        # a command's own report drops array stats; acceptance's would list them
        assert report["stats"][experiment.name] == {"verdict": own["verdict"], "stats": own["stats"]}, experiment.name
    # checkpoints are the only other files, one directory per experiment
    out = tmp_path / "acceptance"
    written = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    assert written == ["acceptance.json", "manifest.json", "solve_nls/trajectory.npz", "solve_nlsh/trajectory.npz"]


def _gradient_ratio():
    basis = build_basis(1, 101, 204)
    lam = np.sqrt(2.0 * np.arange(101) + 1.0)
    for s in (0.5, 1.0, 1.5):
        ratios = np.array([fractional_laplacian_L2_norm(unit_field(basis, n), s) for n in range(101)]) / lam**s
        assert 0.5 <= ratios.min() and ratios.max() <= 1.5, s
        if s == 1.0:
            assert np.max(np.abs(ratios - 2.0**-0.5)) <= 1e-6


def _uniqueness():
    params = next(e for e in EXPERIMENTS if e.name == "solve-nlsh").params_by_tier["reference"]
    u0, cfg = _solve_from_params(params)
    rep = uniqueness_probe(u0, cfg, SpectralField(u0.basis, 0.01 * unit_field(u0.basis, 1).coeffs))
    assert rep["fixed_point_unique"] and rep["gronwall_ok"], rep


FIXED_CRITERIA = {
    2: ("fractional gradient ratio on eigenfunctions", _gradient_ratio),
    7: ("fixed-point uniqueness", _uniqueness),
}


@pytest.mark.parametrize("cid,name", [(c, n) for c, (n, _) in FIXED_CRITERIA.items()])
def test_criterion(cid, name):
    FIXED_CRITERIA[cid][1]()
