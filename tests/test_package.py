"""The package's import contract: `import cantorlab` loads no module, a
name loads the module that defines it, and a command that needs no array
never loads numpy."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cantorlab
from golden_cases import CASES

SRC = str(Path(__file__).resolve().parents[1] / "src")
SUBMODULES = ("cantor_core", "catalog", "dimension", "dynamics", "errors",
              "intersect", "setops", "spectra", "surd")
# the README commands that work on surds, integers and closed forms only
NUMPY_FREE = ("list-sets", "spectrum-period", "spectrum-sample", "halfline",
              "horseshoe", "horseshoe-unit", "catmap")


def _fresh_python(code: str, *args: str, cwd=None) -> str:
    """Run `code` in a new interpreter that finds the package in src/; its stdout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_importing_the_package_loads_no_module():
    out = _fresh_python(
        "import sys, cantorlab; "
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('cantorlab.')), "
        "set(cantorlab.__all__) <= set(dir(cantorlab)))"
    )
    # dir() lists every public name before its module is loaded
    assert out == "[] True"


@pytest.mark.parametrize("name", NUMPY_FREE)
def test_a_command_without_arrays_leaves_numpy_unloaded(name, tmp_path):
    out = _fresh_python(
        "import contextlib, io, sys\n"
        "from cantorlab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(code, 'numpy' in sys.modules)\n",
        *dict(CASES)[name],
        cwd=tmp_path,
    )
    assert out == "0 False"


def test_every_exported_name_is_its_defining_modules_attribute():
    for module, names in cantorlab._EXPORTS.items():
        home = importlib.import_module(f"cantorlab.{module}")
        for name in names:
            assert getattr(cantorlab, name) is getattr(home, name), name
            assert getattr(getattr(home, name), "__module__", home.__name__) == home.__name__, name
    assert sorted(name for names in cantorlab._EXPORTS.values() for name in names) == cantorlab.__all__


def test_the_submodules_resolve_as_package_attributes():
    for module in SUBMODULES:
        assert getattr(cantorlab, module) is importlib.import_module(f"cantorlab.{module}")
    assert sorted(cantorlab._EXPORTS) == sorted(SUBMODULES)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cantorlab.no_such_name
    assert not hasattr(cantorlab, "cantor_core_")
