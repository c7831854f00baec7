"""Entry point of the risid benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each workload runs in fresh child processes
(``worker.py``) with BLAS pinned to one thread before numpy loads and with
``src/`` on the import path. With ``--trace 0`` it first runs
``SETUP_REPEATS - 1`` set-up-only children, then the measured child, and
reports the end-to-end metrics of ``BENCHMARK.json``; ``setup_s`` is the median
set-up time over all of them. With ``--trace 1`` one child runs the same
calls untraced, then traced, and reports the per-layer metrics.

The last stdout line is the result object; the line before it holds the
environment and the details behind the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("confusion-2ris", "miss-spacing-n256", "false-escalate", "theory-cli")
BLAS_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 3
DEADLINE_S = 170.0  # all children together, so that a run ends within 180 s


def pinned_env(base=None) -> dict:
    """Environment for a child: one BLAS thread, risid from this checkout's src/,
    fixed string hashing."""
    env = dict(os.environ if base is None else base)
    env.update({var: "1" for var in BLAS_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"  # hash randomisation alone moves frame timings by ~5%
    env.pop("RISID_THREADS", None)
    return env


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git work tree)"


def run_child(extra: list, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("out of time before starting a child")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *extra],
        cwd=ROOT, env=pinned_env(), stdout=subprocess.PIPE, text=True,
        timeout=remaining,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric_specs(trace: bool) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "risid" / "__init__.py").is_file():
        print(f"no risid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                setups.append(run_child(common + ["--setup-only"], deadline)["setup_s"])
        out = run_child(common + ["--trace", str(args.trace)], deadline)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    metrics = dict(out["metrics"])
    if not args.trace:
        setups.append(out["setup_s"])
        metrics["setup_s"] = statistics.median(setups)
        out["detail"]["setup_s_samples"] = setups
    result, missing = {}, []
    for spec in metric_specs(bool(args.trace)):
        value = metrics.get(spec["name"])
        if value is None or not math.isfinite(value):
            missing.append(spec["name"])
            continue
        result[spec["name"]] = {"value": value, "unit": spec["unit"]}
    if missing:
        print(f"metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    out["env"]["commit"] = commit()
    print(json.dumps({"env": out["env"], "detail": out["detail"]}))
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
