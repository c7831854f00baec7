"""Write perfbench/golden.json, the references the workload checks use.

    python3 perfbench/golden.py

Run from the root of a checkout. Takes about a minute on 2 cores. The engine
references come from seeds that the workloads never draw (the workloads use
62-bit seeds from ``random.Random``; these are below 100) and score many more
trials than one call, so a call is checked against the model's distribution,
not against its own bits. The CLI references are the outputs of the bundled
configs in ``perfbench/configs``, which are copies of ``scripts/configs``.
"""

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True
from run import ROOT, pinned_env  # noqa: E402

os.environ.update(pinned_env())
sys.path.insert(0, str(ROOT / "src"))

from risid import cli, codes, montecarlo  # noqa: E402

import tracer  # noqa: E402
import workloads as w  # noqa: E402

REF_SEED = 20
CONFUSION_BLOCKS = 32
MISS_BLOCKS = 24


def confusion_ref():
    scn = w.scenario(w.CONFUSION_CFG, tracer.NULL)
    plan = montecarlo.TrialPlan(
        scenario=scn, trials=CONFUSION_BLOCKS * montecarlo.BLOCK, seed=REF_SEED, threads=2
    )
    out = {}
    for rb, mat in montecarlo.confusion(plan, scn.r_bar_grid).items():
        counts = mat.counts
        out[repr(rb)] = {
            "rows": [int(x) for x in counts.sum(axis=1)],
            "diag": [int(counts[i, i]) for i in range(4)],
            "pf": [float(mat.false_probability(s)) for s in (1, 2)],
        }
    return out


def miss_ref():
    out = {}
    for sp in cli.SPACINGS:
        scn = w.scenario(w.MISS_CFG.format(spacing=sp), tracer.NULL)
        plan = montecarlo.TrialPlan(
            scenario=scn, trials=MISS_BLOCKS * montecarlo.BLOCK, seed=REF_SEED + 1,
            escalate=False,
        )
        ests = montecarlo.decision_sweep(plan, 1, scn.r_bar_grid, {1: True}, count_missed=True)
        out[sp] = {"trials": plan.trials, "events": [e.events for e in ests]}
    return out


def cli_ref():
    w.TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="golden-", dir=w.TMP_ROOT))
    try:
        out = {}
        for sub in w.CLI_SUBCOMMANDS:
            if w.run_cli(sub, tmp / sub, tracer.NULL) != 0:
                raise SystemExit(f"risid {sub} failed")
            out[sub] = w.read_cli_outputs(tmp / sub)
        return out
    finally:
        shutil.rmtree(tmp)
        w.TMP_ROOT.rmdir()


def main():
    golden = {
        "confusion": confusion_ref(),
        "miss": miss_ref(),
        "cli": cli_ref(),
        "rank": w.rank_summary(codes.rank_code_subsets(16, 5, 4)),
    }
    (w.HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
