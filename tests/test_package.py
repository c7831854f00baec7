"""The package surface: every exported name has a caller, ``import risid`` loads no module, and a
run loads no module it does not use."""

import ast
import importlib
import json
import pkgutil
from pathlib import Path

import risid
from conftest import fresh_python

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(info.name for info in pkgutil.iter_modules(risid.__path__))

# Exported names that no program calls, each kept for a reason.
UNCALLED = {
    "rayleigh_cf": "the characteristic function behind the Gil-Pelaez reference",
    "gil_pelaez_cdf": "the reference CDF that pmiss_two's closed form is checked against",
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
    fresh_python("-c", code)


def test_one_worker_runs_load_neither_numpy_ma_nor_the_pool(tmp_path):
    """One-worker ``estimate_pf`` and ``decision_sweep`` passes, ``risid theory`` and a one-block
    two-worker pass leave ``numpy.ma`` and ``concurrent.futures`` unloaded; the first two-worker
    pass over two blocks loads the pool."""
    code = """if True:
        import json, sys
        from risid import cli, montecarlo

        def loaded():
            return [m for m in ("numpy.ma", "concurrent.futures") if m in sys.modules]

        scn = cli.Scenario(m=16, v_total=4, code_rows=(1, 2), n_elements=8, n_horizontal=2,
                           trials=2048, seed=7, p_dbm=15.0)
        plan = montecarlo.TrialPlan(scn, trials=1000, seed=7, escalate=False)
        montecarlo.estimate_pf(plan, 1, 3.0)
        seen = {"estimate_pf": loaded()}
        montecarlo.decision_sweep(plan, 1, (3.0,), {1: True}, count_missed=True)
        seen["decision_sweep"] = loaded()
        cli.main(["theory", "--config", sys.argv[1], "--out", sys.argv[2]])
        seen["theory"] = loaded()
        montecarlo.confusion(montecarlo.TrialPlan(scn, trials=1000, seed=7, threads=2), (3.0,))
        seen["two workers, one block"] = loaded()
        montecarlo.confusion(montecarlo.TrialPlan(scn, trials=2 * montecarlo.BLOCK, seed=7,
                                                  threads=2), (3.0,))
        seen["two workers"] = loaded()
        print(json.dumps(seen))
    """
    env = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    config = ROOT / "scripts" / "configs" / "theory.txt"
    out = fresh_python("-c", code, str(config), str(tmp_path), env=env).stdout
    assert json.loads(out.splitlines()[-1]) == {
        "estimate_pf": [], "decision_sweep": [], "theory": [], "two workers, one block": [],
        "two workers": ["concurrent.futures"]}


def test_every_source_file_parses_as_python_3_10():
    """``requires-python`` is >= 3.10: no file may use grammar a 3.10 interpreter rejects."""
    files = [path for top in ("src", "scripts", "tests", "perfbench") for path in (ROOT / top).rglob("*.py")]
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
