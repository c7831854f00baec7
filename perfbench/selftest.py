"""Self-tests of the benchmark itself; exits non-zero on the first failure.

    python3 perfbench/selftest.py

Run from the root of a checkout; takes about two minutes on 2 cores. Checks
that every workload check can fail, that the work does not depend on the
seed, and that tracing changes nothing: not the wrapped names, not the
engine's counts, and no file outside the benchmark's scratch directory.
"""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
from run import ROOT, pinned_env  # noqa: E402

os.environ.update(pinned_env())
sys.path.insert(0, str(ROOT / "src"))

from risid import cli, detector, montecarlo  # noqa: E402

import tracer  # noqa: E402
import workloads as w  # noqa: E402
from probes import per_layer  # noqa: E402
from worker import end_to_end, run_loop  # noqa: E402


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"FAIL: {message}")


def rejects(wl, call, result, needle: str) -> bool:
    try:
        wl.check(call, result)
    except w.CheckFailed as exc:
        return needle in str(exc)
    return False


def test_checks_fail_on_corrupt_results():
    wl = w.Confusion2Ris(1, 0, tracer.NULL, n_calls=1)
    call = wl.calls[0]
    mats = wl.run(call, tracer.NULL)
    wl.check(call, mats)
    rb = wl.r_bars[0]
    swapped = mats[rb].counts[[3, 1, 2, 0]]  # NO RIS and BOTH RISs rows swapped
    bad = dict(mats)
    bad[rb] = dataclasses.replace(mats[rb], counts=swapped)
    expect(rejects(wl, call, bad, "decided correctly"), "swapped confusion rows accepted")

    wl = w.FalseEscalate(1, 0, tracer.NULL, n_calls=1)
    call = wl.calls[0]
    est = wl.run(call, tracer.NULL)
    wl.check(call, est)
    sd = math.sqrt(wl.bound * (1 - wl.bound) / est.trials)
    events = math.ceil((wl.bound + 10 * sd) * est.trials)
    lo, hi = montecarlo.wilson_interval(events, est.trials)
    high = dataclasses.replace(
        est, value=events / est.trials, events=events, ci_low=lo, ci_high=hi
    )
    expect(rejects(wl, call, high, "above the bound"), "p_f 10 sd above the bound accepted")

    wl = w.TheoryCli(1, 0, tracer.NULL, n_calls=1)
    try:
        call = w.Call("cli.theory")
        wl.check(call, wl.run(call, tracer.NULL))
        rc, outdir = wl.run(call, tracer.NULL)
        path = outdir / "theory.csv"
        lines = path.read_text().splitlines()
        i = next(i for i, ln in enumerate(lines) if ln and ln[0].isdigit())
        fields = lines[i].split(",")
        fields[1] = repr(float(fields[1]) * (1 + 1e-5))
        lines[i] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        expect(rejects(wl, call, (rc, outdir), "differs"), "perturbed theory.csv accepted")

        call = next(c for c in wl.calls if c.kind == "frames")
        results = wl.run(call, tracer.NULL)
        wl.check(call, results)
        for want in (True, False):
            i = next(i for i, (seed, reach) in enumerate(call.frames) if reach is want)
            frame, report = results[i]
            flipped = dataclasses.replace(
                report.per_ris[1], decided=not report.per_ris[1].decided
            )
            lie = detector.DetectionReport(
                per_ris={1: flipped}, threshold_used=report.threshold_used
            )
            bad = results[:i] + [(frame, lie)] + results[i + 1:]
            expect(rejects(wl, call, bad, "contradicts"),
                   "frame decision contradicting its truth accepted")
    finally:
        wl.close()


def test_exceptions_are_counted():
    wl = w.FalseEscalate(1, 0, tracer.NULL, n_calls=4)
    real_run = wl.run

    def flaky(call, rec):
        if call is wl.calls[1]:
            raise RuntimeError("injected failure")
        return real_run(call, rec)

    wl.run = flaky
    loop = run_loop(wl, tracer.NULL, wl.calls)
    _, detail = end_to_end(wl, loop)
    expect(len(loop) == 4, "an exception stopped the loop")
    expect(detail["failed_frac"] == 0.25, f"failed_frac {detail['failed_frac']} != 1/4")


def traced_counts(name, seed, n_calls):
    rec = tracer.Recorder()
    wl = w.WORKLOADS[name](seed, 0, rec, n_calls=n_calls)
    try:
        with tracer.Hooks(rec):
            loop = run_loop(wl, rec, wl.calls)
            metrics, _ = per_layer(wl, rec, loop)
    finally:
        wl.close()
    expect(all(c.ok for c in loop), f"{name} seed {seed}: a call failed")
    keys = ("montecarlo.blocks_drawn", "montecarlo.escalation_rounds",
            "signal.substream_calls_per_block", "analysis.cf_evals_per_point")
    return {k: metrics[k] for k in keys}


def test_work_does_not_depend_on_seed():
    for name in w.WORKLOADS:
        n_calls = 1 if name == "theory-cli" else 3
        a = traced_counts(name, 11, n_calls)
        b = traced_counts(name, 12, n_calls)
        expect(a == b, f"{name}: counts differ between seeds: {a} vs {b}")


def test_hooks_restore_names_and_change_no_result():
    from risid import analysis as an

    modules = {"montecarlo": montecarlo, "analysis": an, "cli": cli}
    before = {(m, n): getattr(modules[m], n) for m, n in tracer.HOOKED_NAMES}
    conf = w.Confusion2Ris(5, 0, tracer.NULL, n_calls=1)
    miss = w.MissSpacingN256(5, 0, tracer.NULL, n_calls=3)
    false = w.FalseEscalate(5, 0, tracer.NULL, n_calls=1)
    calls = [(conf, conf.calls[0]), (false, false.calls[0])]
    calls += [(miss, c) for c in miss.calls if c.kind.endswith("half-lambda")][:1]

    def outcome(wl, call):
        res = wl.run(call, tracer.NULL)
        if isinstance(res, dict):
            return {rb: m.counts.tolist() for rb, m in res.items()}
        return res

    plain = [outcome(wl, c) for wl, c in calls]
    with tracer.Hooks(tracer.Recorder()):
        expect(montecarlo.substream is not before[("montecarlo", "substream")],
               "hooks not installed")
        traced = [outcome(wl, c) for wl, c in calls]
    expect(plain == traced, "a traced engine call returned different counts")
    for key, obj in before.items():
        expect(getattr(modules[key[0]], key[1]) is obj, f"{key} not restored")


def snapshot() -> dict:
    out = {"root": sorted(p.name for p in ROOT.iterdir())}
    for top in ("src", "tests", "scripts"):
        for p in sorted((ROOT / top).rglob("*")):
            st = p.stat()
            out[str(p.relative_to(ROOT))] = (st.st_size, st.st_mtime_ns)
    return out


def test_runs_write_nowhere_else():
    outs = []
    real_main = cli.main

    def recording_main(argv):
        outs.append(Path(argv[argv.index("--out") + 1]).resolve())
        return real_main(argv)

    cli.main = recording_main
    try:
        traced_counts("theory-cli", 3, 1)
    finally:
        cli.main = real_main
    expect(outs and all(w.TMP_ROOT.resolve() in p.parents for p in outs),
           f"a CLI --out outside {w.TMP_ROOT}: {outs}")

    before = snapshot()
    for name, trace in (("theory-cli", "1"), ("confusion-2ris", "0")):
        proc = subprocess.run(
            [sys.executable, str(w.HERE / "run.py"), "--workload", name, "--seed", "4",
             "--seconds", "1", "--trace", trace],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
        )
        expect(proc.returncode == 0, f"{name} --trace {trace} exited {proc.returncode}")
    expect(snapshot() == before, "a run changed files under src/, tests/, scripts/ or the root")
    expect(not w.TMP_ROOT.exists(), f"{w.TMP_ROOT} left behind")


def main():
    for test in (
        test_checks_fail_on_corrupt_results,
        test_exceptions_are_counted,
        test_work_does_not_depend_on_seed,
        test_hooks_restore_names_and_change_no_result,
        test_runs_write_nowhere_else,
    ):
        test()
        print(f"ok {test.__name__}", flush=True)


if __name__ == "__main__":
    main()
