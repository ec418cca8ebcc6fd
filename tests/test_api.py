"""Guards on the package surface: no exported name that nothing uses, and one
set of tiers shared by every command."""

import ast
from pathlib import Path

import pytest

from oscilab import acceptance
from oscilab.cli import main
from oscilab.experiments import EXPERIMENTS, TIERS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "oscilab"

# exported names kept although only tests call them, with the reason
TEST_REFERENCES = {
    "sample": "single-variate reference that tests compare every stream reader against",
    "sample_gains": "one omega's gain vector, the reference for sample_gain_matrix and sample_block",
}


def _references(paths) -> set:
    """Loaded names and attribute names used anywhere in the given files."""
    out = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
    return out


def _exports():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                yield from ((path.stem, name) for name in ast.literal_eval(node.value))


def test_every_export_is_used_by_the_program_or_the_benchmark():
    used = _references(SRC.glob("*.py")) | _references((ROOT / "bench").rglob("*.py"))
    unused = [f"{module}.{name}" for module, name in _exports() if name not in used and name not in TEST_REFERENCES]
    assert unused == []
    exported = {name for _, name in _exports()}
    assert [name for name in TEST_REFERENCES if name not in exported or name in used] == []


def test_every_command_declares_exactly_the_tiers():
    assert TIERS == ("smoke", "reference")
    for experiment in (*EXPERIMENTS, acceptance.EXPERIMENT):
        assert tuple(experiment.params_by_tier) == TIERS, experiment.name
    # the acceptance criteria that scale with the tier look it up in inline tables
    tables = [
        node for node in ast.walk(ast.parse((SRC / "acceptance.py").read_text()))
        if isinstance(node, ast.Dict) and any(getattr(key, "value", None) == "smoke" for key in node.keys)
    ]
    assert len(tables) == 5
    assert all(tuple(key.value for key in table.keys) == TIERS for table in tables)


def test_cli_refuses_an_unknown_tier(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["norms", "--tier", "extended", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "invalid choice: 'extended'" in capsys.readouterr().err
    assert not (tmp_path / "norms").exists()
