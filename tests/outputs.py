"""Every output a change must leave byte-identical, written under one directory for ``diff -r``.

    PYTHONPATH=path/to/src python tests/outputs.py OUTDIR

For the ``risid`` on the import path, in one process, it writes:

- ``bundled-own/``, ``bundled-2000/``, ``bundled-20000/``: the bundled configs through that
  tree's own ``scripts/run_experiments.py`` and ``scripts/configs/``, at their own trials, at
  ``--trials 2000`` (one partial block 0 a pass) and at ``--trials 20000`` (two full blocks and
  a partial one, so the diff crosses block edges);
- ``help.txt``: the top-level ``--help`` and every subcommand's, at ``COLUMNS`` 80 and 200;
- ``grids.txt``: this tree's ``grids.py`` grids, the escalation lines, then the frame lines,
  then the wide frame lines;
- ``rank.txt`` and ``rank-32-3.txt``: this tree's ``scripts/rank_codebooks.py`` at its defaults
  and at ``--length 32 --subset-size 3``;
- ``runs/NAME.txt`` and ``runs/NAME/``: each config of ``CLI_RUNS`` and its artifacts.

A run that exits non-zero stops the script with exit 1, so a run that fails under both trees
cannot pass as an empty diff. To check a change against its parent, write the outputs under
the parent's ``src``, under this tree's, and under this tree's with ``RISID_THREADS=3`` (at
20000 trials the calling thread and both pool threads each score a block), then ``diff -r``
the first against each of the others.
"""

import contextlib
import io
import os
import runpy
import sys
from pathlib import Path

import risid
from risid.cli import COMMANDS, main as risid_main

from grids import escalation_grid, frame_grid, wide_frame_grid

TESTED_TREE = Path(risid.__file__).parents[2]
THIS_TREE = Path(__file__).parents[1]

# name -> (subcommand, config text, CLI flags): runs that reach what the bundled configs do not
CLI_RUNS = {
    # m = 1024: the distinct-shift fraction rho sorts 1024 shifts of each code, and the pair
    # pmf counts 1024 peaks per pad length
    "large-1": ("theory", "m = 1024\nv_total = 16\ncode_rows = 1\n", {}),
    "large-11023": ("theory", "m = 1024\nv_total = 16\ncode_rows = 1, 1023\n", {}),
    # one engine pass at m = 1024; one trial, so most of its time is the pair pmf and the subspace
    "large-pf-two-m": ("pf-two-m", "m = 64\nv_total = 32\ncode_rows = 1, 2\nm_values = 1024\n",
                       {"trials": 1}),
    # K = 8320 correlator outputs, where the correlator's 64-row chunk floor applies
    "wide-pf-single": ("pf-single", "m = 256\nv_total = 64\ncode_rows = 255\n", {"trials": 2000}),
    # 6 passes that share one code set, so the run finds the pair pmf once
    "sweep-pf-two-np": ("pf-two-np", "m = 512\nv_total = 32\ncode_rows = 1, 2\nn_values = 64, 256\n"
                        "p_dbm_values = 5, 10, 15\n", {"trials": 1}),
    # each pass keeps the config's v_total = 3 and row 5 at m = 8 and 32
    "sweep-pmiss-m": ("pmiss-m", "m = 8\nv_total = 3\ncode_rows = 5\nm_values = 8, 32\n"
                      "p_dbm_values = 5, 10\n", {"trials": 300, "seed": 7}),
    # n_horizontal, which the config leaves out, follows each n_elements
    "sweep-pf-two-np-n": ("pf-two-np", "code_rows = 1, 2\nn_values = 16, 256\n", {"trials": 300}),
    # R, its weights and the compound-law draws at N = 1024, at both correlated spacings
    "large-pmiss-corr": ("pmiss-corr", "m = 16\nn_elements = 1024\nn_horizontal = 32\n"
                         "p_dbm_values = 10\n", {"trials": 300}),
    # caps no threshold meets: both surfaces infeasible, pf picks 1.0 and pmiss picks null
    "tradeoff-infeasible": ("tradeoff", "m = 16\ncode_rows = 1, 2\nn_elements = 32\nn_horizontal = 4\n"
                            "p_dbm = -30\nr_bar_grid = 1:6:1\ntarget_pf = 1e-9\ntarget_pmiss = 1e-9\n",
                            {}),
}


def _check(name: str, code) -> None:
    """Stop the script unless ``code``, a run's return value or exit code, means success."""
    if code not in (0, None):
        sys.exit(f"{name}: exit {code}")


def _stdout(name: str, call) -> str:
    """What ``call()`` prints, checking its exit code whether it returns or exits."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = call()
        except SystemExit as exc:
            code = exc.code
    _check(name, code)
    return out.getvalue()


def _help() -> str:
    texts = []
    for columns in ("80", "200"):
        os.environ["COLUMNS"] = columns
        for argv in (["--help"], *([sub, "--help"] for sub in COMMANDS)):
            texts.append(_stdout(" ".join(argv), lambda: risid_main(argv)))
    return "".join(texts)


def write_outputs(out: Path) -> None:
    experiments = runpy.run_path(str(TESTED_TREE / "scripts" / "run_experiments.py"))["main"]
    for label, flags in (("own", []), ("2000", ["--trials", "2000"]), ("20000", ["--trials", "20000"])):
        _check(f"bundled-{label}", experiments(["--out", str(out / f"bundled-{label}"), *flags]))
    (out / "help.txt").write_text(_help())
    grids = (escalation_grid(), frame_grid(), wide_frame_grid())
    (out / "grids.txt").write_text("".join(f"{line}\n" for grid in grids for line in grid))
    rank = runpy.run_path(str(THIS_TREE / "scripts" / "rank_codebooks.py"))["main"]
    for name, argv in (("rank", []), ("rank-32-3", ["--length", "32", "--subset-size", "3"])):
        (out / f"{name}.txt").write_text(_stdout(name, lambda: rank(argv)))
    (out / "runs").mkdir()
    for name, (sub, text, flags) in CLI_RUNS.items():
        config = out / "runs" / f"{name}.txt"
        config.write_text(text)
        argv = [sub, "--config", str(config), "--out", str(out / "runs" / name)]
        _check(name, risid_main(argv + [a for k, v in flags.items() for a in (f"--{k}", str(v))]))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUTDIR")
    target = Path(sys.argv[1])
    target.mkdir(parents=True)
    print(f"risid {risid.__version__} from {Path(risid.__file__).parent}")
    write_outputs(target)
