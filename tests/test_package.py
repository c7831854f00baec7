"""The package surface: every exported name has a caller, and ``import risid`` loads no module."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import risid

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(info.name for info in pkgutil.iter_modules(risid.__path__))

# Exported names that no program calls, each kept for a reason.
UNCALLED = {
    "rayleigh_cf": "the characteristic function behind the Gil-Pelaez reference",
    "gil_pelaez_cdf": "the reference CDF that pmiss_two's closed form is checked against",
    "estimate_pmiss": "estimate_pf's miss counterpart, the plain Monte Carlo reference for a "
                      "variance-reduced miss estimator",
}


def _referenced_names() -> set:
    """Every name read as an AST ``Name`` or ``Attribute`` in the package, the scripts and the
    benchmark: an import, an assignment or a string mentions a name without calling it."""
    files = [*(ROOT / "src" / "risid").glob("*.py"), *(ROOT / "scripts").glob("*.py"),
             *(ROOT / "perfbench").glob("*.py")]
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_exported_name_has_a_caller():
    exported = {name: module for module in MODULES
                for name in getattr(importlib.import_module(f"risid.{module}"), "__all__", ())}
    assert UNCALLED.keys() <= exported.keys()
    uncalled = {f"{exported[name]}.{name}" for name in exported.keys() - _referenced_names()}
    assert uncalled == {f"{exported[name]}.{name}" for name in UNCALLED}


def test_import_risid_loads_no_module():
    code = ("import sys, risid; loaded = sorted(m for m in sys.modules if m.startswith('risid.')); "
            "assert not loaded, loaded")
    env = dict(os.environ, PYTHONPATH=str(Path(risid.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
