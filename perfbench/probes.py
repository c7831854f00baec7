"""Per-layer metrics of a traced run, with probes for layers the loop skips.

A per-layer metric comes from the spans of the workload's own traced calls
when the loop made such calls. Otherwise one probe calls the layer's public
function at the workload's own scenario, so that every workload reports every
metric; ``detail["probed"]`` lists the metrics measured that way. Two are
always probes: ``channel.sample_channel_ms`` (the public sampler at the
engine's (BLOCK, N) shape) and ``channel.correlation_matrix_ms`` (the
sinc-kernel factorisation behind every correlated scenario's set-up).
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import tracer
from risid import analysis, channel, codes, montecarlo
from workloads import TMP_ROOT, frame_setup, run_cli, synth_and_detect

PROBE_FRAMES = 50
SAMPLER_REPEATS = 3


def _engine_probe(wl, rec):
    scn = wl.probe_scenarios()[0]
    plan = montecarlo.TrialPlan(scenario=scn, trials=montecarlo.BLOCK, seed=1, escalate=False)
    with rec.span("montecarlo.decision_sweep:probe"):
        montecarlo.decision_sweep(plan, 1, (scn.r_bar,), {1: True}, count_missed=True)
    return montecarlo.BLOCK


def _sampler_probe(wl, rec):
    rng = np.random.default_rng(0)
    for scn in wl.probe_scenarios():
        _, corr, _ = frame_setup(scn)
        beta_hop = scn.sim_profiles()[0].beta_ur
        for _ in range(SAMPLER_REPEATS):
            with rec.span("channel.sample_channel"):
                channel.sample_channel(corr, beta_hop, rng, size=montecarlo.BLOCK)


def _correlation_probe(wl, rec):
    scns = [s for s in wl.probe_scenarios() if s.spacing != "none"]
    geoms = [frame_setup(s)[2] for s in scns]
    if not geoms:  # uncorrelated workload: its geometry at half-wavelength spacing
        scn = wl.probe_scenarios()[0]
        lam = scn.wavelength
        geoms = [channel.RisGeometry(n=scn.n_elements, n_h=scn.n_horizontal,
                                     d_h=lam / 2, d_v=lam / 2, wavelength=lam)]
    for geom in geoms:
        with rec.span("channel.correlation_matrix"):
            channel.correlation_matrix(geom)


def _analysis_probe(wl, rec):
    scn = wl.probe_scenarios()[0]
    r_bar = scn.r_bar_grid[len(scn.r_bar_grid) // 2] if scn.l_count > 1 else scn.r_bar
    pmf = scn.pair_pmf(1, scn.l_count)  # spanned by the cross_corr_pmf hook
    analysis.pmiss_two(scn.operating_point(r_bar), pmf.a_tilde)


def _rank_probe(wl, rec):
    with rec.span("codes.rank_code_subsets"):
        codes.rank_code_subsets(16, 5, 4)


def _cli_probe(wl, rec):
    TMP_ROOT.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix="probe-", dir=TMP_ROOT))
    try:
        if run_cli("design", out / "design", rec) != 0:
            raise RuntimeError("risid design failed in the probe")
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _frame_probe(wl, rec):
    # decisions are not checked: at the engine workloads' power levels a
    # single frame may be decided either way
    scn = wl.probe_scenarios()[0]
    profile, corr, _ = frame_setup(scn)
    source = SimpleNamespace(
        scn=scn, profile=profile, correlations={1: corr},
        threshold=scn.r_bar**2 * scn.noise_variance_w,
    )
    for i in range(PROBE_FRAMES):
        synth_and_detect(source, i, bool(i % 2), rec)


PROBES = (
    ("analysis.pmiss_two_ms", _analysis_probe),
    ("codes.cross_corr_pmf_ms", _analysis_probe),
    ("codes.rank_code_subsets_s", _rank_probe),
    ("cli.subcommand_s", _cli_probe),
    ("signal.synthesize_frame_us", _frame_probe),
)


def per_layer(wl, rec: tracer.Recorder, loop: list):
    """Per-layer metrics and details for a workload's traced loop."""
    trials = sum(c.trials for c in loop)
    metrics, detail = tracer.engine_layers(rec, trials, montecarlo.BLOCK)
    probed = []
    if not metrics:
        trials = _engine_probe(wl, rec)
        metrics, detail = tracer.engine_layers(rec, trials, montecarlo.BLOCK)
        probed.append("montecarlo")
    found = tracer.call_layers(rec)
    for metric, probe in PROBES:
        if metric not in found:
            probe(wl, rec)
            found = tracer.call_layers(rec)
            probed.append(metric)
    _sampler_probe(wl, rec)
    _correlation_probe(wl, rec)
    metrics.update(tracer.call_layers(rec))
    detail["probed"] = probed
    return metrics, detail
