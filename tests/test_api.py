"""Guards on the package surface: no exported name that nothing uses, no
private name that another module reads, no option that no caller sets, and
one set of tiers shared by every command."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from oscilab.cli import main
from oscilab.experiments import EXPERIMENTS, TIERS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "oscilab"

# defaulted parameters (function, parameter) kept although no program call sets them, with the reason
UNSET_OPTIONS = {}


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
    assert [f"{module}.{name}" for module, name in _exports() if name not in used] == []


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_uses(source: str) -> list:
    """``module._name`` for every private name of another oscilab module that source
    imports, or reads off an oscilab module it imported; dunder names are exempt."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("oscilab")):
            for alias in node.names:
                if node.module in (None, "oscilab"):  # from . import module
                    modules.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append(f"{node.module}.{alias.name}")
        elif isinstance(node, ast.Import):
            modules.update(a.asname for a in node.names if a.name.startswith("oscilab.") and a.asname)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr) and getattr(node.value, "id", None) in modules:
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_no_module_imports_another_modules_private_name():
    # a private name has one owner: a second module that reads it splits that owner's decision in two
    probe = "from .a import _x, __version__\nfrom . import b\nimport oscilab.c as c\nb._y, c._z, b.__doc__"
    assert _private_uses(probe) == ["a._x", "b._y", "c._z"]
    assert {path.stem: _private_uses(path.read_text()) for path in sorted(SRC.glob("*.py"))} == {
        path.stem: [] for path in sorted(SRC.glob("*.py"))
    }


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass" for d in node.decorator_list
    )


def _options():
    """(callable, option, positional index or None) for every defaulted parameter
    and every init field of a dataclass in the package; __init__ is its class."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {}
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            methods.update((fn, cls.name) for fn in cls.body if isinstance(fn, ast.FunctionDef))
            if _is_dataclass(cls):
                fields = [
                    stmt.target.id for stmt in cls.body
                    if isinstance(stmt, ast.AnnAssign)
                    and not any(k.arg == "init" for k in getattr(stmt.value, "keywords", ()))
                ]
                yield from ((cls.name, name, i) for i, name in enumerate(fields))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            owner = methods.get(fn, fn.name) if fn.name == "__init__" else fn.name
            # callers of a method do not pass self
            bound = fn in methods and not any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            positional = fn.args.posonlyargs + fn.args.args
            first = len(positional) - len(fn.args.defaults)
            yield from ((owner, arg.arg, i - bound) for i, arg in enumerate(positional) if i >= first)
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield owner, arg.arg, None


def _set_options(paths) -> set:
    """(callable, option) pairs set by some call, positionally or by keyword.

    A ** call sets only the keys its mapping holds at run time, so it counts
    for none: load_trajectory's SolverConfig(**json) once hid four options
    that no call set."""
    out = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            positional = next((i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)), len(node.args))
            out.update((name, i) for i in range(positional))
            out.update((name, k.arg) for k in node.keywords if k.arg is not None)
    return out


def test_every_option_is_set_by_the_program_or_the_benchmark():
    set_by = _set_options(list(SRC.glob("*.py")) + list((ROOT / "bench").rglob("*.py")))
    unset = {(owner, name) for owner, name, i in _options() if not {(owner, name), (owner, i)} & set_by}
    assert sorted(unset - set(UNSET_OPTIONS)) == []
    # an allowlisted option that a program call sets, or that is gone, leaves the allowlist
    assert sorted(set(UNSET_OPTIONS) - unset) == []


def test_every_command_declares_exactly_the_tiers():
    assert TIERS == ("smoke", "reference")
    for experiment in EXPERIMENTS:
        assert tuple(experiment.params_by_tier) == TIERS, experiment.name


def test_cli_refuses_an_unknown_tier(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["norms", "--tier", "extended", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "invalid choice: 'extended'" in capsys.readouterr().err
    assert not (tmp_path / "norms").exists()


def run_fresh(code: str) -> list:
    """The stdout lines of code run in a fresh interpreter that imports oscilab from this checkout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout.splitlines()


# what scipy.special's package init would load into every process: ensembles loads ndtri without it
FULL_INIT_MODULES = (
    "scipy.special",
    "scipy.special._support_alternative_backends",
    "scipy._lib._array_api",
    "numpy.ma",
    "numpy.testing",
    "numpy.f2py",
)


def test_cli_import_loads_only_the_scipy_subpackages_it_needs():
    # every command's process pays this import; scipy.stats alone once cost 0.65 s of it, scipy.linalg 0.09 s,
    # scipy.special's package init 0.12 s.  The numerical core loads no scipy at all; ensembles' ndtri comes
    # from the compiled scipy.special._ufuncs, without that init.
    core, cli, full_init = run_fresh(
        "import sys, oscilab.hermite, oscilab.fields, oscilab.lens, oscilab.picard; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))); "
        "import oscilab.cli; print(*sorted({m.split('.')[1] for m in sys.modules if m.startswith('scipy.')})); "
        f"print(sorted(m for m in {FULL_INIT_MODULES!r} if m in sys.modules))"
    )
    assert core == "[]"
    public = {name for name in cli.split() if not name.startswith("_")}
    assert "special" in public and public <= {"special", "version"}
    assert full_init == "[]"


# runs every command but acceptance at smoke in one interpreter; prints each one's name and the modules it added
COMMANDS_PROBE = """
import contextlib, io, sys, oscilab.cli
from oscilab.experiments import EXPERIMENTS
for e in EXPERIMENTS:
    if e.name != "acceptance":
        before = set(sys.modules)
        with contextlib.redirect_stdout(io.StringIO()):
            oscilab.cli.main([e.name, "--tier", "smoke", "--seed", "1", "--workers", "1", "--out", {out!r}])
        print(e.name, *sorted(set(sys.modules) - before))
"""


def test_no_command_imports_a_module_during_its_work(tmp_path):
    # a module first loaded inside a command (numpy 2 loads numpy.random and numpy.fft on first attribute
    # access, np.median imports numpy.ma) lands in its timed work: the import of oscilab.cli loads them all
    added = run_fresh(COMMANDS_PROBE.format(out=str(tmp_path)))
    assert added == [e.name for e in EXPERIMENTS if e.name != "acceptance"]
