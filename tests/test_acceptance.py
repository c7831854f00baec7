"""Acceptance gate: every headline result at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with -s to watch them live).
The heavy Monte Carlo points use the deterministic block engine, so every
number here is reproducible bit for bit.
"""

import math
import sys
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np

from risid import analysis
from risid.cli import Scenario, main
from risid.codes import (
    build_codebook,
    cross_corr_pmf,
    rank_code_subsets,
)
from risid.detector import detect
from risid.montecarlo import (
    TrialPlan,
    averaged_metrics,
    confusion,
    decision_sweep,
    estimate_pf,
)

from conftest import brute_force_detect, brute_force_detect_same_kernel

SEED = 20240811


def report(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}  {detail}"
    # write past pytest's capture so the per-criterion line always reaches
    # the terminal / log, and echo into the captured stream for reports
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()
    print(line)
    assert ok, f"criterion {num}: {detail}"


def scenario_single(m: int, n: int = 64, p_dbm: float = 15.0) -> Scenario:
    return Scenario(
        m=m, v_total=m // 4, code_rows=(m - 1,), n_elements=n,
        n_horizontal=min(16, n), p_dbm=p_dbm, seed=SEED,
    )


def scenario_two(m: int = 32, n: int = 256, p_dbm: float = 25.0) -> Scenario:
    return Scenario(
        m=m, v_total=m // 4, code_rows=(1, 2), n_elements=n,
        n_horizontal=16, p_dbm=p_dbm, seed=SEED,
    )


def test_criterion_01_single_surface_bound_tightness():
    t0 = time.time()
    scn = scenario_single(16)
    op = scn.operating_point(3.0)
    bound = analysis.pf_single_bound(op)
    plan = TrialPlan(scenario=scn, trials=10**6, seed=SEED, escalate=False)
    est = estimate_pf(plan, 1, 3.0)
    elapsed = time.time() - t0
    ok = (
        abs(bound - 0.005) <= 1e-3
        and est.value <= bound + 3 * est.std_error
        and elapsed <= 60.0
    )
    report(1, ok, f"bound={bound:.5f} (target 0.005+-0.001), "
                  f"mc={est.value:.5f} <= bound+3se, {elapsed:.0f}s")


def test_criterion_02_false_detection_doubling_trend():
    vals = {}
    for m in (16, 32):
        scn = scenario_single(m)
        plan = TrialPlan(scenario=scn, trials=10**6, seed=SEED, escalate=False)
        vals[m] = estimate_pf(plan, 1, 3.0).value
    ratio = vals[32] / vals[16]
    ok = abs(ratio - 2.4) <= 0.5
    report(2, ok, f"pf(32)={vals[32]:.5f}, pf(16)={vals[16]:.5f}, "
                  f"ratio={ratio:.2f} (target 2.4+-0.5)")


def _mc_crossing_power(scn_base: Scenario, target: float, p_guess: float) -> float:
    """Power (dBm) where the simulated miss rate hits the target."""
    grid = [p_guess - 2.0, p_guess - 1.0, p_guess, p_guess + 1.0, p_guess + 2.0]
    logs = []
    for p in grid:
        scn = replace(scn_base, p_dbm=p)
        plan = TrialPlan(scenario=scn, trials=10**5, seed=SEED, escalate=False)
        est = decision_sweep(plan, 1, (scn.r_bar,), {1: True}, count_missed=True)[0]
        logs.append(math.log10(max(est.value, 1e-9)))
    return float(np.interp(math.log10(target), logs[::-1], grid[::-1]))


def _theory_crossing_power(scn: Scenario, target: float) -> float:
    op = scn.operating_point(scn.r_bar)
    p_w = -op.r / (op.n * op.beta * op.m * math.log1p(-target))
    return 10.0 * math.log10(p_w * 1000.0)


def test_criterion_03_power_gain_design_laws():
    base = scenario_single(16, n=64)
    double_m = scenario_single(32, n=64)
    quad_n = scenario_single(16, n=256)
    # closed-form crossings are exact
    t_base = _theory_crossing_power(base, 1e-2)
    gain_m_theory = t_base - _theory_crossing_power(double_m, 1e-2)
    gain_n_theory = t_base - _theory_crossing_power(quad_n, 1e-2)
    # simulated crossings confirm
    m_base = _mc_crossing_power(base, 1e-2, t_base)
    gain_m_mc = m_base - _mc_crossing_power(double_m, 1e-2, t_base - gain_m_theory)
    gain_n_mc = m_base - _mc_crossing_power(quad_n, 1e-2, t_base - gain_n_theory)
    ok = (
        abs(gain_m_theory - 3.0) <= 0.5 and abs(gain_n_theory - 6.0) <= 0.7
        and abs(gain_m_mc - 3.0) <= 0.5 and abs(gain_n_mc - 6.0) <= 0.7
    )
    report(3, ok, f"doubling M: theory {gain_m_theory:.2f} dB, mc {gain_m_mc:.2f} dB "
                  f"(3.0+-0.5); quadrupling N: theory {gain_n_theory:.2f} dB, "
                  f"mc {gain_n_mc:.2f} dB (6.0+-0.7)")


def test_criterion_04_spatial_correlation_robustness():
    powers = (6.0, 9.0, 12.0, 15.0, 18.0)
    rates = {}
    for spacing in ("none", "half-lambda", "tenth-lambda"):
        for p in powers:
            scn = replace(scenario_single(16, n=64), spacing=spacing, p_dbm=p)
            plan = TrialPlan(scenario=scn, trials=10**5, seed=SEED, escalate=False)
            est = decision_sweep(plan, 1, (3.0,), {1: True}, count_missed=True)[0]
            rates[(spacing, p)] = est.value
    ratio_worst = max(
        rates[("half-lambda", p)] / max(rates[("none", p)], 1e-9) for p in powers
    )
    tenth_lower = all(
        rates[("tenth-lambda", p)] < rates[("half-lambda", p)] for p in powers
    )
    ok = ratio_worst <= 1.6 and tenth_lower
    report(4, ok, f"worst half-lambda/uncorrelated ratio={ratio_worst:.2f} (<=1.6), "
                  f"tenth-lambda always lower: {tenth_lower}")


def test_criterion_05_two_surface_false_detection_points():
    t0 = time.time()
    points = [
        (64, 25.0, 0.001), (128, 25.0, 0.016), (256, 25.0, 0.064),
        (256, 20.0, 0.003),
    ]
    details = []
    ok = True
    for n, p_dbm, target in points:
        scn = scenario_two(n=n, p_dbm=p_dbm)
        pmf = scn.pair_pmf(1, 2)
        theory = analysis.pf_two(scn.operating_point(15.0), pmf)
        plan = TrialPlan(scenario=scn, trials=10**6, seed=SEED, escalate=False)
        est = estimate_pf(plan, 1, 15.0)
        ci_half = (est.ci_high - est.ci_low) / 2
        tol = max(ci_half, 0.30 * target)
        ok = ok and abs(theory - target) <= tol and abs(est.value - target) <= tol
        details.append(f"N={n},P={p_dbm}: th={theory:.4f} mc={est.value:.4f} "
                       f"target={target}")
    elapsed = time.time() - t0
    ok = ok and elapsed <= 600.0
    report(5, ok, "; ".join(details) + f"; {elapsed:.0f}s (<=600)")


def test_criterion_06_two_surface_miss_lower_bound():
    scn = scenario_two(m=32, n=256, p_dbm=15.0)
    pmf = scn.pair_pmf(1, 2)
    targets = {15.0: 0.053, 25.0: 0.141, 35.0: 0.263}
    plan = TrialPlan(scenario=scn, trials=10**6, seed=SEED, escalate=False)
    ests = decision_sweep(plan, 1, tuple(targets), {1: True}, count_missed=True)
    ok = True
    details = []
    for (r_bar, target), est in zip(targets.items(), ests):
        theory = analysis.pmiss_two(scn.operating_point(r_bar), pmf.a_tilde)
        ok = ok and abs(theory - target) <= 0.20 * target
        ok = ok and est.value >= theory - (3 * est.std_error + 1e-3)
        details.append(f"r={r_bar:g}: th={theory:.3f} mc={est.value:.3f} "
                       f"target={target}")
    report(6, ok, "; ".join(details))


def test_criterion_07_two_surface_miss_vs_power():
    targets = {20.0: 0.015, 25.0: 0.004}
    ok = True
    details = []
    for p_dbm, target in targets.items():
        scn = scenario_two(m=32, n=256, p_dbm=p_dbm)
        plan = TrialPlan(scenario=scn, trials=10**6, seed=SEED, escalate=False)
        est = decision_sweep(plan, 1, (15.0,), {1: True}, count_missed=True)[0]
        ci_half = (est.ci_high - est.ci_low) / 2
        ok = ok and abs(est.value - target) <= max(ci_half, 0.30 * target)
        details.append(f"P={p_dbm:g}: mc={est.value:.4f} target={target}")
    report(7, ok, "; ".join(details))


def test_criterion_08_confusion_matrix_headline():
    t0 = time.time()
    scn = scenario_two(m=32, n=128, p_dbm=25.0)
    plan = TrialPlan(scenario=scn, trials=10**7, seed=SEED)
    mats = confusion(plan, (13.0, 17.0, 21.0))
    best = None
    for r_bar, mat in sorted(mats.items()):
        freq = mat.frequencies()
        diag = float(np.diag(freq).min())
        miss_paths = [
            freq[1, 0], freq[1, 2], freq[3, 0], freq[3, 2],  # surface 1
            freq[2, 0], freq[2, 1], freq[3, 0], freq[3, 1],  # surface 2
        ]
        worst_miss = float(max(miss_paths))
        cand = (diag >= 0.95 and worst_miss <= 0.03, r_bar, diag, worst_miss)
        if best is None or cand > best:
            best = cand
    elapsed = time.time() - t0
    ok = best[0] and elapsed <= 1800.0
    report(8, ok, f"best r_bar={best[1]:g}: min diag={best[2]:.4f} (>=0.95), "
                  f"worst miss path={best[3]:.4f} (<=0.03), {elapsed:.0f}s (<=1800)")


def _five_ris_curves(rows, r_bars):
    scn = Scenario(
        m=16, v_total=4, code_rows=tuple(rows), n_elements=128, n_horizontal=8,
        p_dbm=15.0, seed=SEED,
    )
    plan = TrialPlan(scenario=scn, trials=2 * 10**5, seed=SEED)
    return averaged_metrics(plan, r_bars)


def test_criterion_09_code_set_quality_effect():
    ranked = rank_code_subsets(16, 5, 4)
    best_rows = ranked[0][1]
    worst_quality = ranked[-1][0]
    worst_rows = sorted(rows for q, rows in ranked if q == worst_quality)[0]
    grid = tuple(float(r) for r in range(6, 21))
    best_curve = _five_ris_curves(best_rows, grid)
    worst_curve = _five_ris_curves(worst_rows, grid)
    near_12 = [m for m in best_curve if abs(m.r_bar - 12.0) <= 2.0]
    best_ok = any(m.avg_pmiss <= 0.15 and m.avg_pf <= 0.15 for m in near_12)
    worst_ok = not any(
        m.avg_pmiss <= 0.12 and m.avg_pf <= 0.12 for m in worst_curve
    )
    best_pt = min(near_12, key=lambda m: max(m.avg_pmiss, m.avg_pf))
    ok = best_ok and worst_ok
    report(9, ok, f"best set {best_rows}: pmiss={best_pt.avg_pmiss:.3f} "
                  f"pf={best_pt.avg_pf:.3f} at r={best_pt.r_bar:g} (both<=0.15); "
                  f"worst set {worst_rows} never both <=0.12: {worst_ok}")


def test_criterion_10_numerics_suite(tmp_path):
    okays = []
    # characteristic-function inversion vs a sampled sum
    rng = np.random.default_rng(4242)
    s1, s2 = 1.1, 0.45
    draws = s1 * np.sqrt(-2 * np.log(rng.random(10**6)))
    draws += s2 * np.sqrt(-2 * np.log(rng.random(10**6)))
    cf = analysis.rayleigh_sum_cf((s1, s2))
    gp_err = max(
        abs(analysis.gil_pelaez_cdf(float(x), cf) - float(np.mean(draws <= x)))
        for x in np.linspace(0.1, 7.0, 20)
    )
    okays.append(("gil-pelaez vs sampled cdf", gp_err <= 0.01, f"{gp_err:.4f}"))

    # Rayleigh CF vs direct quadrature
    from scipy.integrate import quad

    cf_err = 0.0
    for sigma in (0.5, 1.0, 2.0):
        for w in (0.3, 1.0, 4.0):
            re = quad(lambda r: math.cos(w * r) * r / sigma**2
                      * math.exp(-(r**2) / (2 * sigma**2)), 0, np.inf,
                      epsabs=1e-13, epsrel=1e-13, limit=400)[0]
            im = quad(lambda r: math.sin(w * r) * r / sigma**2
                      * math.exp(-(r**2) / (2 * sigma**2)), 0, np.inf,
                      epsabs=1e-13, epsrel=1e-13, limit=400)[0]
            cf_err = max(cf_err, abs(analysis.rayleigh_cf(sigma, w) - complex(re, im)))
    okays.append(("rayleigh cf vs quadrature", cf_err <= 1e-8, f"{cf_err:.2e}"))

    # permuted-order pmf re-derivation is identical
    book = build_codebook(16, [4, 9])
    base = cross_corr_pmf(book.entries[0], book.entries[1], 4)
    weights = {}
    a_t = 0
    for v1 in reversed(range(1, 5)):
        part = cross_corr_pmf(book.entries[0], book.entries[1],
                              {v1: Fraction(1)}, v_total=4)
        a_t = max(a_t, part.a_tilde)
        for a, p in zip(part.support, part.probs):
            weights[a] = weights.get(a, Fraction(0)) + p * Fraction(1, 4)
    pmf_same = (
        tuple(sorted(weights)) == base.support
        and tuple(weights[a] for a in base.support) == base.probs
        and a_t == base.a_tilde
    )
    okays.append(("pmf permuted re-derivation", pmf_same, "exact"))

    # detector vs brute-force reference on random frames
    code = build_codebook(16, [13]).entries[0]
    rng = np.random.default_rng(777)
    same_kernel_exact = True
    independent_close = True
    for i in range(1000):
        y = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        got = detect(y, code)
        same_kernel_exact &= got == brute_force_detect_same_kernel(y, code)
        if i < 100:
            ref = brute_force_detect(y, code)
            independent_close &= (got[1], got[2]) == (ref[1], ref[2])
            independent_close &= math.isclose(got[0], ref[0], rel_tol=1e-12)
    okays.append(("detector vs brute force", same_kernel_exact and independent_close,
                  "1000 frames exact"))

    # seeded subcommand rerun is byte-identical
    cfg = tmp_path / "config.txt"
    cfg.write_text(
        "m = 16\ncode_rows = 1, 2\nn_elements = 16\nn_horizontal = 4\n"
        "p_dbm = 20\nr_bar_grid = 3, 4\ntrials = 5000\nseed = 77\n"
    )
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["confusion", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append({p.name: p.read_bytes() for p in out.iterdir()})
    okays.append(("subcommand rerun byte-identical", outs[0] == outs[1],
                  f"{len(outs[0])} files"))

    ok = all(flag for _, flag, _ in okays)
    detail = "; ".join(f"{name}: {'ok' if flag else 'FAIL'} ({d})"
                       for name, flag, d in okays)
    report(10, ok, detail)
