"""One benchmark workload in a process of its own; started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                [--trace 0|1] [--setup-only]

The caller pins BLAS in the environment and puts ``src/`` on PYTHONPATH.
Set-up time runs from the top of this file, before numpy and risid load,
until the workload's inputs and scenarios are built. The last stdout line is
one JSON object.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

sys.dont_write_bytecode = True

import numpy as np  # noqa: E402

import risid  # noqa: E402
import tracer  # noqa: E402
from risid import montecarlo  # noqa: E402
from run import BLAS_VARS, ROOT  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# Machine-speed calibration. On the shared 2-vCPU host where the benchmark
# was defined, the wall time of fixed work drifts by 20-30% over minutes, and
# an 8 ms kernel drifts with it. Each run times its workload's kernel (median
# of CAL_REPEATS runs) right before every call, and again after any call
# longer than CAL_LONG_S, and scales every call's wall time by
# CAL_REF_S / (the kernel time around the call): the times reported are
# seconds on a machine where the kernel takes CAL_REF_S. The kernels are
# benchmark code, so no change to risid moves them. Raw wall times are in the
# details.
CAL_REF_S = 0.008
CAL_LONG_S = 0.5
CAL_REPEATS = 3
_SIGNS = np.where(np.arange(32)[:, None] * np.arange(32)[None, :] % 3 == 0, 1.0, -1.0)
_V16 = np.arange(16.0)


def numpy_kernel() -> float:
    """Seconds for Philox draws and small matrix products, like an engine block.

    Over 150 s of drift it tracked engine calls within about 5%."""
    t0 = time.perf_counter()
    y = np.random.Generator(np.random.Philox(key=7)).standard_normal((2048, 40, 2))[..., 0]
    best = 0.0
    for k in range(8):
        best = max(best, float(np.abs(y[:, k:k + 32] @ _SIGNS).max()))
    acc = 0.0
    for i in range(15000):
        acc += i * 0.5
    return time.perf_counter() - t0


def interp_kernel() -> float:
    """Seconds for interpreted code driving tiny numpy operations.

    Tracks single frames and the quadrature about twice as closely as
    numpy_kernel (coefficient of variation of the ratio 0.05-0.07 against
    0.10 over 150 s, raw wall time 0.22)."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(600):
        x = np.roll(_V16, i % 16) * 0.5
        acc += float(np.dot(x, _V16)) + math.exp(-i * 1e-3)
    return time.perf_counter() - t0


KERNELS = {"numpy": numpy_kernel, "interp": interp_kernel}


def calibrate(kernel) -> float:
    return statistics.median(kernel() for _ in range(CAL_REPEATS))


class CallRecord(NamedTuple):
    kind: str
    wall: float  # seconds
    trials: int  # scored by a call that passed its check
    ok: bool
    cal: float  # kernel seconds before the call (mean of before and after if long)

    @property
    def ref_s(self) -> float:
        """Wall time scaled to the reference machine speed."""
        return self.wall * CAL_REF_S / self.cal


def run_loop(wl, rec, calls) -> list:
    """Each call once, in order; returns a CallRecord per call.

    A call that raises or fails its check counts as failed and the loop goes
    on. Only the call into risid is timed, not its check nor calibration.
    """
    kernel = KERNELS[wl.calibration]
    out = []
    for call in calls:
        before = calibrate(kernel)
        t0 = time.perf_counter()
        try:
            with rec.span(call.kind):
                result = wl.run(call, rec)
        except Exception:
            out.append(CallRecord(call.kind, time.perf_counter() - t0, 0, False, before))
            traceback.print_exc()
            continue
        dt = time.perf_counter() - t0
        cal = before
        if dt >= CAL_LONG_S:  # the speed may change during a long call
            cal = (before + calibrate(kernel)) / 2
        try:
            wl.check(call, result)
            ok = True
        except Exception:
            traceback.print_exc()
            ok = False
        out.append(CallRecord(call.kind, dt, wl.trials(call, result) if ok else 0, ok, cal))
    return out


def tail(values):
    """Highest whole percentile with at least ten values beyond it (nearest rank)."""
    xs = sorted(values)
    n = len(xs)
    pct = min(99, math.floor(100 * (n - 10) / n)) if n > 10 else 100
    rank = max(1, math.ceil(pct / 100 * n))
    return xs[rank - 1], pct, n - rank


def call_metrics(wl, loop, time_of) -> tuple:
    """run_s, trials_per_s, call_s_p50 and call_s_tail with ``time_of(record)``.

    run_s is the number of calls of each kind times that kind's median call
    time, summed over kinds, so that one long call caught in a slow phase of
    the machine does not set it. A round is one call of each timed kind (the
    three spacings of miss-spacing-n256; one kind elsewhere). Throughput is
    trials per round over the summed per-kind median times, and call_s_p50
    is the per-kind median averaged over kinds, so that a mix of kinds does
    not make the median jump between them.
    """
    times = {}
    for c in loop:
        times.setdefault(c.kind, []).append(time_of(c))
    timed = [c for c in loop if c.kind.startswith(wl.trial_prefix)]
    kinds = sorted({c.kind for c in timed})
    med = {k: statistics.median(times[k]) for k in kinds}
    round_trials = sum(statistics.median(c.trials for c in timed if c.kind == k) for k in kinds)
    tail_s, pct, beyond = tail([time_of(c) for c in timed])
    return {
        "run_s": sum(len(v) * statistics.median(v) for v in times.values()),
        "trials_per_s": round_trials / sum(med.values()),
        "call_s_p50": sum(med.values()) / len(kinds),
        "call_s_tail": tail_s,
    }, pct, beyond


def end_to_end(wl, loop) -> tuple:
    metrics, pct, beyond = call_metrics(wl, loop, lambda c: c.ref_s)
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail = {
        "wall": call_metrics(wl, loop, lambda c: c.wall)[0],
        "run_s_summed": sum(c.ref_s for c in loop),
        "calls": len(loop),
        "timed_calls": sum(c.kind.startswith(wl.trial_prefix) for c in loop),
        "call_s_tail_percentile": pct,
        "call_s_tail_calls_beyond": beyond,
        "failed_frac": sum(not c.ok for c in loop) / len(loop),
        "trials_scored": sum(c.trials for c in loop),
        "call_s_p50_by_kind": {
            k: statistics.median(c.ref_s for c in loop if c.kind == k)
            for k in sorted({c.kind for c in loop})
        },
    }
    return metrics, detail


def blas_name() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def environment(wl) -> dict:
    import scipy

    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_env": {var: os.environ.get(var) for var in BLAS_VARS},
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "engine_workers": wl.workers,
        "block": montecarlo.BLOCK,
        "risid_version": risid.__version__,
        "python": sys.version.split()[0],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    src = (ROOT / "src").resolve()
    if Path(risid.__file__).resolve().parent.parent != src:
        print(f"risid imported from {risid.__file__}, not {src}", file=sys.stderr)
        return 2

    rec = tracer.Recorder() if args.trace else tracer.NULL
    wl = WORKLOADS[args.workload](args.seed, args.seconds, rec)
    setup_wall = time.perf_counter() - T_START
    setup_cal = statistics.median(interp_kernel() for _ in range(5))  # imports are interpreted
    setup_s = setup_wall * CAL_REF_S / setup_cal
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall}))
            return 0
        warm = run_loop(wl, tracer.NULL, wl.warmup_calls())
        if args.trace:
            from probes import per_layer

            untraced = run_loop(wl, tracer.NULL, wl.calls)
            with tracer.Hooks(rec):
                traced = run_loop(wl, rec, wl.calls)
                metrics, detail = per_layer(wl, rec, traced)
            metrics["trace.overhead_frac"] = (
                sum(c.ref_s for c in traced) / sum(c.ref_s for c in untraced) - 1.0
            )
            loop = untraced + traced
        else:
            loop = run_loop(wl, tracer.NULL, wl.calls)
            metrics, detail = end_to_end(wl, loop)
        cals = [c.cal for c in loop]
        detail["calibration_s"] = {
            "kernel": wl.calibration, "ref": CAL_REF_S, "median": statistics.median(cals),
            "min": min(cals), "max": max(cals),
            "setup": setup_cal, "setup_wall_s": setup_wall,
        }
        loop = warm + loop
    finally:
        wl.close()
    print(json.dumps({
        "setup_s": setup_s,
        "metrics": metrics,
        "attempted": len(loop),
        "failed": sum(not c.ok for c in loop),
        "detail": detail,
        "env": environment(wl),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
