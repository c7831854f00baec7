"""Trial runner: determinism, conditioning, confusion tallies, intervals."""

import hashlib
import multiprocessing
import os
import threading
import tracemalloc
import weakref
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import ks_2samp

from risid import montecarlo
from risid.channel import compound_gains, compound_scales
from risid.cli import Scenario
from risid.codes import all_shifts, sign_classes
from risid.detector import detect
from risid.montecarlo import (
    BLOCK,
    TrialPlan,
    averaged_metrics,
    confusion,
    decision_sweep,
    estimate_pf,
    wilson_interval,
    _run_blocks,
)
from risid.signal import TAG_FRAME, TAG_RIS, draw_noise, draw_pads

from conftest import fresh_python, matmul_joint_counts, matrix_threshold_counts, pin_environment
from grids import escalation_grid


def plan_for(scenario, trials=None, seed=None, threads=1, **kw):
    return TrialPlan(
        scenario=scenario,
        trials=trials if trials is not None else scenario.trials,
        seed=seed if seed is not None else scenario.seed,
        threads=threads,
        **kw,
    )


PEAK_CASES = [  # (Scenario fields, law) of blocks whose memory the tests bound
    (dict(m=32, v_total=8, code_rows=(31,), r_bar=3.5), {1: False}),
    (dict(m=16, v_total=4, code_rows=(15,), n_elements=256, n_horizontal=16,
          spacing="half-lambda"), {1: True}),
    (dict(m=32, v_total=8, code_rows=(1, 2)), {}),
    (dict(m=64, v_total=16, code_rows=(63,)), {1: True}),
]


def block_peak(kw, law):
    """The scenario of ``kw`` and the tracemalloc peak of its block 0, run again once warm."""
    scn = Scenario(**{"n_elements": 64, "n_horizontal": 8, **kw}, p_dbm=15.0, trials=BLOCK, seed=5)
    plan = plan_for(scn)

    def consume(metric, reach):
        return ((metric > 0).sum(axis=0),)

    _run_blocks(plan, law, 0, BLOCK, consume)  # fill the caches first
    tracemalloc.start()
    try:
        _run_blocks(plan, law, 0, BLOCK, consume)
        return scn, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWilson:
    def test_basic_properties(self):
        lo, hi = wilson_interval(5, 100)
        assert 0 <= lo < 5 / 100 < hi <= 1

    def test_zero_events(self):
        for n in (50, 1000, 2000, 1_000_000):
            lo, hi = wilson_interval(0, n)
            assert lo == 0.0 and hi > 0
            lo, hi = wilson_interval(n, n)
            assert hi == 1.0 and lo < 1

    def test_coverage_sanity(self):
        rng = np.random.default_rng(2024)
        p, n, reps = 0.3, 200, 1000
        covered = 0
        draws = rng.random((reps, n)) < p
        for row in draws:
            lo, hi = wilson_interval(int(row.sum()), n)
            covered += lo <= p <= hi
        assert covered >= 0.93 * reps

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)


class TestDeterminism:
    def test_same_plan_identical(self, two_ris_scenario):
        a = estimate_pf(plan_for(two_ris_scenario, escalate=False), 1, 3.0)
        b = estimate_pf(plan_for(two_ris_scenario, escalate=False), 1, 3.0)
        assert a == b

    def test_thread_count_does_not_change_counts(self, two_ris_scenario):
        a = estimate_pf(plan_for(two_ris_scenario, escalate=False, threads=1), 1, 3.0)
        b = estimate_pf(plan_for(two_ris_scenario, escalate=False, threads=3), 1, 3.0)
        assert a == b

    def test_trial_prefix_stability(self, small_scenario):
        """Per-trial outcomes must not depend on the total trial count."""
        sn2 = small_scenario.noise_variance_w

        def per_trial_vector(total):
            out = np.zeros(total, dtype=np.int64)

            def consume(metric, reach):
                part = np.zeros(total, dtype=np.int64)
                n = metric.shape[0]
                # blocks arrive in order here; record decisions positionally
                start = consume.cursor
                part[start : start + n] = metric[:, 0] > 9 * sn2
                consume.cursor += n
                return (part,)

            consume.cursor = 0
            plan = plan_for(small_scenario, trials=total)
            (vec,) = _run_blocks(plan, {1: False}, 0, total, consume)
            return vec

        short = per_trial_vector(700)
        long = per_trial_vector(1500)
        assert np.array_equal(short, long[:700])

    def test_blocks_span_boundaries(self, small_scenario):
        plan = plan_for(small_scenario, trials=BLOCK + 123, escalate=False)
        est = estimate_pf(plan, 1, 2.0)
        assert est.trials == BLOCK + 123


class TestPrefixDraws:
    """A block draws each stream only up to its last scored trial, and a row's
    metric bits never depend on which rows a pass scores."""

    @staticmethod
    def rows_of(plan, law, spans):
        """(metric, reach) over the consecutive trial ranges ``spans``, passed one ``held``
        dict as an escalation passes it, concatenated in order."""
        got, held = [], {}

        def consume(metric, reach):
            got.append((metric.copy(), reach.copy()))
            return (np.zeros(1, dtype=np.int64),)

        for t0, t1 in spans:
            _run_blocks(plan, law, t0, t1, consume, held)
        return np.concatenate([g[0] for g in got]), np.concatenate([g[1] for g in got])

    @pytest.mark.parametrize("spacing", ["none", "tenth-lambda"])
    @pytest.mark.parametrize("law", [{}, {1: True}, {1: False}], ids=["coin", "forced_on", "forced_off"])
    def test_split_pass_matches_single_pass(self, spacing, law):
        """[0, n) then [n, T) against [0, T): equal metric bits and reachability."""
        total = 2 * BLOCK + 300
        scn = Scenario(
            m=32, v_total=8, code_rows=(1, 2), n_elements=16, n_horizontal=4,
            spacing=spacing, p_dbm=0.0, trials=total, seed=71,
        )
        plan = plan_for(scn)
        metric, reach = self.rows_of(plan, law, [(0, total)])
        assert metric.shape == (total, 2)
        for n in (1, 700, BLOCK - 1, BLOCK + 1):
            split_metric, split_reach = self.rows_of(plan, law, [(0, n), (n, total)])
            assert np.array_equal(split_metric, metric), n
            assert np.array_equal(split_reach, reach), n

    def test_chunk_rows_leave_the_metric_bits(self, monkeypatch):
        """256 rows of one M = 128, row 127 block (K = 2112, past the 512 columns where the
        64-row floor of ``_chunk_rows`` starts) give the same metric bytes in chunks of 4 rows
        and of 64."""
        scn = Scenario(m=128, v_total=32, code_rows=(127,), seed=9)
        k = montecarlo._subspace(scn.sim_profiles(), scn.m, scn.v_total)[1].shape[1]
        assert k == 2112 and montecarlo._chunk_rows(k) == 64
        got = []
        for rows in (4, 64):
            monkeypatch.setattr(montecarlo, "_chunk_rows", lambda k: rows)
            got.append(self.rows_of(plan_for(scn, trials=256), {1: True}, [(0, 256)])[0].tobytes())
        assert got[0] == got[1]

    def test_partial_pass_draws_only_its_rows(self, monkeypatch):
        """A pass over [0, 2000) asks for 2000 x R noise pairs, in chunks of at most
        ``_chunk_rows(K)`` rows, and 2000 gain pairs, in each stream's own order."""
        scn = Scenario(m=32, v_total=8, code_rows=(1, 2), n_elements=16, n_horizontal=4, seed=3)
        r, k = montecarlo._subspace(scn.sim_profiles(), scn.m, scn.v_total)[1].shape
        calls = {}  # (tag, surface id) -> that stream's (method, size) in call order
        substream = montecarlo.substream

        class Recording:
            def __init__(self, gen, stream):
                self.gen, self.stream = gen, stream

            def __getattr__(self, name):
                def draw(*args, **kwargs):
                    size = kwargs["out"].shape if "out" in kwargs else kwargs.get("size", args[-1])
                    calls.setdefault(self.stream, []).append((name, size))
                    return getattr(self.gen, name)(*args, **kwargs)
                return draw

        monkeypatch.setattr(montecarlo, "substream", lambda seed, tag, ris_id, block:
                            Recording(substream(seed, tag, ris_id, block), (tag, ris_id)))
        self.rows_of(plan_for(scn), {2: True}, [(0, 2000)])
        pads, *noise = calls.pop((TAG_FRAME, 0))
        assert pads == ("integers", BLOCK)
        assert all(name == "standard_normal" for name, _ in noise)
        assert sum(size[0] for _, size in noise) == 2000
        assert all(size[0] <= montecarlo._chunk_rows(k) and size[1:] == (r, 2) for _, size in noise)
        assert calls == {
            (TAG_RIS, 1): [("random", BLOCK), ("integers", BLOCK), ("standard_gamma", BLOCK),
                           ("standard_normal", (2000, 2))],
            (TAG_RIS, 2): [("integers", BLOCK), ("standard_gamma", BLOCK), ("standard_normal", (2000, 2))],
        }


class TestProductRows:
    """A row of a correlator chunk's product has the same bytes whatever the chunk's other rows
    hold and wherever in the chunk it sits. A short chunk leaves its other rows as they were, and
    the prefix and worker bits rest on this BLAS property."""

    @pytest.mark.parametrize("m, v_total, rows, shape", [
        (32, 8, (1, 2), (11, 27, 1024)),  # confusion-2ris
        (32, 8, (31,), (24, 144, 128)),  # false-escalate
        (16, 4, (15,), (12, 40, 512)),  # miss-spacing-n256
        (128, 32, (127,), (96, 2112, 64)),  # the 64-row chunk floor
    ])
    def test_row_bytes_ignore_the_other_rows(self, m, v_total, rows, shape):
        """Rows 0, 1, step // 2 and step - 1 of one (2, step, R) chunk times A, against the
        same row with every other row zeroed, with every other row redrawn, and rolled."""
        scn = Scenario(m=m, v_total=v_total, code_rows=rows)
        a = montecarlo._subspace(scn.sim_profiles(), m, v_total)[1]
        step = montecarlo._chunk_rows(a.shape[1])
        assert (*a.shape, step) == shape
        rng = np.random.default_rng(17)
        chunk = rng.standard_normal((2, step, a.shape[0]))
        want, shift = np.matmul(chunk, a), step // 2 + 1
        for i in (0, 1, step // 2, step - 1):
            zeroed = np.zeros_like(chunk)
            redrawn = rng.standard_normal(chunk.shape)
            zeroed[:, i] = redrawn[:, i] = chunk[:, i]
            for name, other, j in [("zeroed", zeroed, i), ("redrawn", redrawn, i),
                                   ("rolled", np.roll(chunk, shift, axis=1), (i + shift) % step)]:
                got = np.matmul(other, a)[:, j]
                assert got.tobytes() == want[:, i].tobytes(), f"row {i}, {name}; {pin_environment()}"


def no_events(metric, reach):
    """``consume`` that counts no event, so every escalating call runs to its cap."""
    return (np.zeros(1, dtype=np.int64),)


class TestResumedBlocks:
    """An escalation hands the block a pass stopped in to the next pass, which scores on from
    that block's last drawn row: every row sees one pass's draws and is drawn once."""

    @pytest.fixture
    def scored(self, monkeypatch):
        """``scored(run)``: (metric, reach) of every row that ``run()`` scores, in trial order,
        whichever worker or pass scored it."""
        score, got = montecarlo._Block.score, {}

        def recording(block, stop):
            key = block.blk, block.drawn
            got[key] = score(block, stop)
            return got[key]

        monkeypatch.setattr(montecarlo._Block, "score", recording)

        def scored(run):
            got.clear()
            run()
            parts = [got[k] for k in sorted(got)]
            return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])

        return scored

    @pytest.mark.parametrize("threads, rows", [(1, (1, 2)), (2, (1, 2)), (1, (31,)), (2, (31,))],
                             ids=["1", "2", "1-row31", "2-row31"])
    @pytest.mark.parametrize("spacing", ["none", "tenth-lambda"])
    @pytest.mark.parametrize("law", [{}, {1: True}, {1: False}], ids=["coin", "forced_on", "forced_off"])
    def test_escalated_passes_match_one_pass(self, scored, threads, rows, spacing, law):
        """``_escalated``'s passes [0, n) and [n, 10 n) against one pass over [0, 10 n): equal
        metric bits and reachability, where the held block reuses its scales s and continues
        its gain pairs and noise, and the second pass's chunks start at its own first row, not at
        the one pass's chunk edges. Rows (1, 2) make 1024-row chunks (K = 27); row 31 is
        ``false-escalate``'s correlator (R = 24, K = 144), whose second passes start mid-chunk
        at a second chunk size (700 mod 128 = 60)."""
        scn = Scenario(
            m=32, v_total=8, code_rows=rows, n_elements=16, n_horizontal=4,
            spacing=spacing, p_dbm=0.0, seed=71,
        )
        for n in (1, 700, BLOCK - 1, BLOCK + 1):
            plan = plan_for(scn, trials=n, max_trials=10 * n, threads=threads)
            metric, reach = scored(lambda: _run_blocks(plan, law, 0, 10 * n, no_events))
            assert metric.shape == (10 * n, len(rows))
            est = []
            split_metric, split_reach = scored(lambda: est.append(montecarlo._escalated(plan, law, no_events)))
            assert est[0].trials == 10 * n
            assert np.array_equal(split_metric, metric), n
            assert np.array_equal(split_reach, reach), n

    @pytest.mark.parametrize("threads", [1, 2])
    def test_escalating_estimate_draws_each_row_once(self, monkeypatch, threads):
        """``estimate_pf`` escalating from 2000 to 20000 trials asks ``draw_noise`` for 20000
        rows in all and opens the frame stream of each of its three blocks once."""
        scn = Scenario(m=32, v_total=8, code_rows=(31,), n_elements=16, n_horizontal=4, seed=3)
        rows, opened = [], []
        substream, draw_noise = montecarlo.substream, montecarlo.draw_noise

        def counting_substream(seed, tag, ris_id, block):
            if tag == TAG_FRAME:
                opened.append(block)
            return substream(seed, tag, ris_id, block)

        def counting_noise(rng, out, noise_variance):
            rows.append(len(out))
            return draw_noise(rng, out, noise_variance)

        monkeypatch.setattr(montecarlo, "substream", counting_substream)
        monkeypatch.setattr(montecarlo, "draw_noise", counting_noise)
        est = estimate_pf(plan_for(scn, trials=2000, max_trials=20_000, threads=threads), 1, 1e3)
        assert est.trials == 20_000 and est.events == 0
        assert sum(rows) == 20_000
        assert sorted(opened) == [0, 1, 2]

    def test_escalation_peak_stays_within_a_worker(self):
        """A warmed two-pass escalation, [0, 2000) then [2000, 20000), peaks within
        ``pass_bytes``' per-worker term: the block held between passes is the one a worker
        scores next, not one more."""
        for kw, law in PEAK_CASES:
            scn = Scenario(**{"n_elements": 64, "n_horizontal": 8, **kw}, p_dbm=15.0, seed=5)
            plan = plan_for(scn, trials=2000, max_trials=20_000)
            montecarlo._escalated(plan, law, no_events)  # fill the caches first
            tracemalloc.start()
            try:
                montecarlo._escalated(plan, law, no_events)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            n = scn.n_elements if scn.spacing != "none" else 0
            per_worker = (montecarlo.pass_bytes(scn.m, scn.v_total, scn.code_rows, 2, n)
                          - montecarlo.pass_bytes(scn.m, scn.v_total, scn.code_rows, 1, n))
            assert peak <= per_worker, (kw, law, peak, per_worker)


class TestEscalationGrid:
    def test_escalations_are_pinned(self):
        """``grids.escalation_grid``'s estimates, against a digest of the same lines as printed
        before a pass lost its made-anew start, not against an oracle that runs the same code."""
        lines = list(escalation_grid())
        assert len(lines) == 32
        assert any("low_confidence=False" in line for line in lines)
        assert any("low_confidence=True" in line for line in lines)
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "45e94b11412e410198bd9b19673700915f2346cb39b609c9e253c87a38fed374", pin_environment()


# Each of the engine's draw helpers and call forms, on a new stream of one fixed substream key:
# (name, numpy Generator method behind it, draw, pinned bytes as hex).
CANARY = [
    ("draw_pads", "integers", lambda rng: draw_pads(rng, 4, 4),
     "0400000000000000020000000000000003000000000000000300000000000000"),
    ("draw_pads, one scalar split", "integers", lambda rng: np.int64(draw_pads(rng, 4)),
     "0400000000000000"),
    ("code offsets", "integers", lambda rng: rng.integers(1, 17, size=4),
     "0d0000000000000005000000000000000c000000000000000900000000000000"),
    ("coin", "random", lambda rng: rng.random(3),
     "d27630adae1dd23fa46876f5b8d4e13f33a993aa8be4e93f"),
    ("draw_noise", "standard_normal", lambda rng: draw_noise(rng, np.empty((1, 2, 2)), 2.0),
     "29561eed3e11dd3f8b73f1e5349eec3fc35d8005c39bfd3f07a90e712a48a53f"),
    ("compound_scales, R = I", "standard_gamma", lambda rng: compound_scales(rng, 8, None, 3),
     "9ddc9cfe0cfd2140e19d8b7e99082c4046c29fe72b542640"),
    # two power-of-two weights: the product's bits do not depend on the BLAS kernel
    ("compound_scales, weights", "standard_exponential",
     lambda rng: compound_scales(rng, 2, np.array([0.5, 0.25]), 3),
     "4f4c8e28171fcd3f8d9b0d65a672d93ff7f9fcc4bdaffa3f"),
    ("compound_gains", "standard_normal",
     lambda rng: compound_gains(rng, np.array([1.0, 0.5]), 4.0, 0.25, 1.0),
     "08b1e75fc18dd43f03f8620f693ce43fc35d8005c39bed3f07a90e712a48953f"),
]


@pytest.mark.parametrize("name,method,draw,pinned", CANARY, ids=[case[0] for case in CANARY])
def test_stream_canary(name, method, draw, pinned):
    """A few values through each draw helper, byte for byte: a numpy release that changes one
    ``Generator`` stream fails here by name, not as scattered digest failures."""
    got = draw(montecarlo.substream(11, TAG_RIS, 3, 5)).tobytes().hex()
    assert got == pinned, f"{name} (Generator.{method}) drew other bytes; {pin_environment()}"


class TestConditioning:
    def test_forced_silent_never_clears_absolute_threshold(self, small_scenario):
        # with the surface silent the metric carries noise energy only, so a
        # threshold far above the noise scale is never crossed (the
        # vanishing-noise, fixed-absolute-threshold limit)
        plan = plan_for(small_scenario, trials=4096, escalate=False)
        est = estimate_pf(plan, 1, 1e3)
        assert est.events == 0 and est.value == 0.0
        assert est.low_confidence

    def test_zero_threshold_never_misses(self, small_scenario):
        plan = plan_for(small_scenario, trials=4096, escalate=False)
        (est,) = decision_sweep(plan, 1, (0.0,), {1: True}, count_missed=True)
        assert est.events == 0

    def test_escalation_reaches_events_or_cap(self, small_scenario):
        # threshold high enough that the base run sees almost nothing
        plan = plan_for(small_scenario, trials=1000, max_trials=200_000)
        est = estimate_pf(plan, 1, 4.2)
        assert est.trials > 1000 or est.events >= 50

    def test_escalation_extends_not_replaces(self, small_scenario):
        # at this threshold the 30k base run sees fewer than 50 events, so
        # it escalates straight to the cap, where events are plentiful
        base = plan_for(small_scenario, trials=300_000, escalate=False)
        full = estimate_pf(base, 1, 3.3)
        head = estimate_pf(plan_for(small_scenario, trials=30_000, escalate=False), 1, 3.3)
        esc = estimate_pf(
            plan_for(small_scenario, trials=30_000, max_trials=300_000), 1, 3.3
        )
        assert head.events < 50 and full.events > 0
        assert esc.trials == full.trials == 300_000
        assert esc.events == full.events

    def test_miss_rate_matches_theory(self, small_scenario):
        from risid.analysis import pmiss_single

        scn = replace(small_scenario, p_dbm=8.0)
        plan = plan_for(scn, trials=200_000, escalate=False)
        (est,) = decision_sweep(plan, 1, (3.0,), {1: True}, count_missed=True)
        want = pmiss_single(scn.operating_point(3.0))
        assert est.value == pytest.approx(want, rel=0.10)


def laid(code, v1, c, length):
    """A frame of ``length`` zeros holding ``code`` shifted by c (np.roll by -c) from sample v1."""
    x = np.zeros(length)
    x[v1 : v1 + code.length] = np.roll(code.symbols, -c)
    return x


CASES = [(16, (1, 2)), (16, (15,)), (32, (1, 2)), (32, (31,))]


class TestEngineMatchesDetector:
    """The engine's metric against ``detect`` on the frames behind its coordinates.

    The engine's noise coordinates are replaced by U^T y of random frames y
    holding randomly scaled codes; every surface is forced off, so the engine
    adds nothing and every metric it scores is its correlator's.
    """

    @staticmethod
    def engine_and_frames(monkeypatch, scn):
        """(frames, scored) over every block of ``scn``, one array of each per block: a block's
        frame is the rows of its noise chunks, in order."""
        profs = scn.sim_profiles()
        u = montecarlo._subspace(profs, scn.m, scn.v_total)[0]
        length = scn.m + scn.v_total
        rng = np.random.default_rng(41)
        pads, chunks, scored = [], [], []

        def frame_pads(stream, v_total, size):
            pads.append(draw_pads(rng, v_total, size))
            chunks.append([])
            return pads[-1]

        def frame_coordinates(stream, out, noise_variance):
            assert out.shape[1:] == (u.shape[1], 2)
            at = sum(map(len, chunks[-1]))
            y = draw_noise(rng, np.empty((len(out), length, 2)), noise_variance)
            for p in profs:
                amp = 3 * np.sqrt(noise_variance) * rng.standard_normal(len(out))
                for t in range(len(out)):
                    y[t] += amp[t] * laid(p.code, pads[-1][at + t], rng.integers(1, scn.m + 1), length)
            chunks[-1].append(y)
            z = out.view(np.complex128)[..., 0]
            z[:] = y @ u
            return z

        def consume(metric, reach):
            scored.append(metric.copy())
            return (np.zeros(1, dtype=np.int64),)

        monkeypatch.setattr(montecarlo, "draw_pads", frame_pads)
        monkeypatch.setattr(montecarlo, "draw_noise", frame_coordinates)
        _run_blocks(plan_for(scn), {p.id: False for p in profs}, 0, scn.trials, consume)
        return [np.concatenate(c) for c in chunks], scored

    @staticmethod
    def assert_matches_detect(scn, frames, scored):
        """Each scored row equals ``detect`` on its frame, and r-bar splits both alike."""
        profs = scn.sim_profiles()
        r_w = scn.r_bar**2 * scn.noise_variance_w
        for y, got in zip(frames, scored):
            ref = np.array([[detect(y[t], p.code)[0] for p in profs] for t in range(len(got))])
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)
            assert np.array_equal(got > r_w, ref > r_w)
            hit = (ref > r_w).mean(axis=0)
            assert np.all(0 < hit) and np.all(hit < 1)  # the threshold splits every column

    def test_block_metric_matches_reference_detect(self, monkeypatch):
        """Every scored row of a full and a partial block, against ``detect``."""
        scn = Scenario(
            m=16, v_total=4, code_rows=(1, 2), n_elements=16, n_horizontal=4,
            spacing="tenth-lambda", p_dbm=-5.0, trials=BLOCK + 700, seed=23,
        )
        frames, scored = self.engine_and_frames(monkeypatch, scn)
        assert [len(y) for y in frames] == [len(s) for s in scored] == [BLOCK, 700]  # a frame a block
        self.assert_matches_detect(scn, frames, scored)

    @pytest.mark.parametrize("m, rows", CASES)
    def test_sign_class_search_matches_detect(self, monkeypatch, m, rows):
        """Low rows keep one or two columns per window offset, row M-1 half of its M."""
        scn = Scenario(
            m=m, v_total=m // 4, code_rows=rows, n_elements=16, n_horizontal=4,
            spacing="half-lambda", p_dbm=0.0, trials=BLOCK, seed=29,
        )
        _, a, starts, _ = montecarlo._subspace(scn.sim_profiles(), m, scn.v_total)
        per_offset = np.diff(list(starts) + [a.shape[1]]) // (scn.v_total + 1)
        assert list(per_offset) == [1 << (r.bit_length() - 1) for r in rows]  # M/2 at row M-1
        frames, scored = self.engine_and_frames(monkeypatch, scn)
        assert [len(y) for y in frames] == [len(s) for s in scored] == [BLOCK]  # a frame a block
        self.assert_matches_detect(scn, frames, scored)


class TestSubspaceEngine:
    """The engine correlates in the range of W; ``detect`` and a frame path
    written here are its references."""

    @pytest.mark.parametrize("m, rows", CASES + [(16, (1, 2, 4, 8, 9))])
    def test_tables_and_factorization(self, m, rows):
        """W = U A with orthonormal U of rank R, and each table row is U^T of its laid code."""
        v_total = m // 4
        length = m + v_total
        profs = Scenario(m=m, v_total=v_total, code_rows=rows).sim_profiles()
        u, a, starts, tables = montecarlo._subspace(profs, m, v_total)
        cols, counts = [], []
        for p in profs:  # one column per window offset and sign class, over sqrt(m)
            classes = sign_classes(all_shifts(p.code))
            counts.append((v_total + 1) * len(classes))
            for k in range(v_total + 1):
                for row in classes:
                    col = np.zeros(length)
                    col[k : k + m] = row / np.sqrt(m)
                    cols.append(col)
        w = np.array(cols).T
        assert u.shape[1] == np.linalg.matrix_rank(w) < length
        np.testing.assert_allclose(u.T @ u, np.eye(u.shape[1]), rtol=0, atol=1e-12)
        np.testing.assert_allclose(u @ a, w, rtol=0, atol=1e-12)
        assert list(starts) == list(np.cumsum([0] + counts[:-1]))
        for p, table in zip(profs, tables):
            assert table.shape == (v_total, m, u.shape[1])
            for v1 in range(1, v_total + 1):
                for c in range(1, m + 1):
                    want = u.T @ laid(p.code, v1, c, length)
                    np.testing.assert_allclose(table[v1 - 1, c - 1], want, rtol=0, atol=1e-12)

    def test_metric_law_matches_frame_path(self):
        """Each surface's metric, split by true state, against frames built sample by sample."""
        n = 100_000
        scn = Scenario(
            m=16, v_total=4, code_rows=(1, 15), n_elements=16, n_horizontal=4,
            p_dbm=5.0, trials=n, seed=37,
        )
        profs = scn.sim_profiles()
        got, got_reach = [], []

        def consume(metric, reach):
            got.append(metric)
            got_reach.append(reach)
            return (np.zeros(1, dtype=np.int64),)

        _run_blocks(plan_for(scn), {}, 0, n, consume)
        got, got_reach = np.concatenate(got), np.concatenate(got_reach)
        rng = np.random.default_rng(53)
        v1 = draw_pads(rng, scn.v_total, n)
        y = draw_noise(rng, np.empty((n, scn.m + scn.v_total, 2)), scn.noise_variance_w)
        reach = rng.random((n, len(profs))) < 0.5
        for j, p in enumerate(profs):
            c = rng.integers(1, scn.m + 1, size=n)
            s = compound_scales(rng, p.n, p.gain_weights, n)
            h = compound_gains(rng, s, scn.power_w, p.beta_ur, p.beta_rb)
            shifts = all_shifts(p.code)
            for t in np.flatnonzero(reach[:, j]):
                y[t, v1[t] : v1[t] + scn.m] += h[t] * shifts[c[t] - 1]
        ref = np.array([[detect(frame, p.code)[0] for p in profs] for frame in y])
        for j in range(len(profs)):
            for state in (False, True):
                a, b = got[got_reach[:, j] == state, j], ref[reach[:, j] == state, j]
                assert min(len(a), len(b)) > 0.45 * n
                assert ks_2samp(a, b).pvalue > 1e-3, (j, state)

    def test_block_peak_memory_stays_near_one_frame(self):
        """One block holds one correlator chunk of noise coordinates and stays within 2 MiB: not a
        B x L frame of noise, nor B x K products (M = 32, row 31: K = 144), nor a block of B x N
        exponential draws (N = 256), nor B x R signal temporaries (two surfaces on a fair coin;
        M = 64, row 63: R = 48)."""
        for kw, law in PEAK_CASES:
            _, peak = block_peak(kw, law)
            assert peak <= 2 * 2**20, (kw, law, peak)

    def test_wide_block_holds_one_noise_chunk(self):
        """At M = 256, row 255 (R = 132) a block's frame of noise coordinates is 17 MiB; the
        block holds one correlator chunk of them (64 rows) and stays within 2 MiB."""
        _, peak = block_peak(dict(m=256, v_total=4, code_rows=(255,)), {1: True})
        assert peak <= 2 * 2**20, peak

    def test_pass_bytes_counts_a_block_per_worker(self):
        """``pass_bytes``' per-worker term holds a warmed block's traced peak, within 3x of it:
        at the one-frame shapes, at M = 256, row 255 (R = 132), where it counted over 7x, and at
        M = 16, v_total = 1, row 1 (R = 2, K = 2), where full-block chunks carry the most."""
        for kw, law in PEAK_CASES + [(dict(m=256, v_total=4, code_rows=(255,)), {1: True}),
                                     (dict(m=16, v_total=1, code_rows=(1,)), {1: True})]:
            scn, peak = block_peak(kw, law)
            n = scn.n_elements if scn.spacing != "none" else 0
            per_worker = (montecarlo.pass_bytes(scn.m, scn.v_total, scn.code_rows, 2, n)
                          - montecarlo.pass_bytes(scn.m, scn.v_total, scn.code_rows, 1, n))
            assert peak <= per_worker <= 3 * peak, (kw, law, peak, per_worker)

    def test_pass_bytes_bounds_the_subspace_arrays(self):
        """The config-time estimate covers W, A and the tables the engine builds."""
        for m, rows in CASES + [(64, (63, 1)), (16, (1, 2, 4, 8, 9))]:
            v_total = m // 4
            profs = Scenario(m=m, v_total=v_total, code_rows=rows).sim_profiles()
            u, a, _, tables = montecarlo._subspace(profs, m, v_total)
            w_bytes = 8 * len(u) * a.shape[1]
            held = w_bytes + u.nbytes + a.nbytes + sum(t.nbytes for t in tables)
            assert held <= montecarlo.pass_bytes(m, v_total, rows)

    def test_engine_does_not_import_the_cli(self):
        code = "import sys, risid.montecarlo; assert 'risid.cli' not in sys.modules"
        fresh_python("-c", code)


class TestTraceContract:
    """The engine calls a profiler hooks: one frame stream per block, one
    surface stream per drawn surface and block, one all_shifts per surface
    and pass."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"streams": [], "shifts": 0}
        substream, all_shifts = montecarlo.substream, montecarlo.all_shifts

        def counting_substream(seed, tag, ris_id, block):
            calls["streams"].append((tag, ris_id, block))
            return substream(seed, tag, ris_id, block)

        def counting_all_shifts(code):
            calls["shifts"] += 1
            return all_shifts(code)

        monkeypatch.setattr(montecarlo, "substream", counting_substream)
        monkeypatch.setattr(montecarlo, "all_shifts", counting_all_shifts)
        return calls

    def test_two_surface_pass(self, two_ris_scenario, calls):
        plan = plan_for(two_ris_scenario, trials=BLOCK + 100)
        confusion(plan, (3.0,))
        want = [(TAG_FRAME, 0, b) for b in (0, 1)]
        want += [(TAG_RIS, ris, b) for ris in (1, 2) for b in (0, 1)]
        assert sorted(calls["streams"]) == sorted(want)
        assert calls["shifts"] == 2

    def test_escalating_pass_skips_forced_off_surface(self, two_ris_scenario, calls):
        plan = plan_for(two_ris_scenario, trials=1000, max_trials=10_000)
        est = estimate_pf(plan, 1, 1e3)  # surface 1 forced off, no events
        assert est.trials == 10_000
        # pass 1 opens block 0; the escalation pass scores on in it and opens block 1
        want = [(TAG_FRAME, 0, b) for b in (0, 1)] + [(TAG_RIS, 2, b) for b in (0, 1)]
        assert sorted(calls["streams"]) == sorted(want)
        assert calls["shifts"] == 2 * 2


class TestKeptPassSetup:
    """The engine keeps the last code set's subspace and one pool per worker count
    between passes, without changing a bit of what a pass scores."""

    BASE = dict(m=16, v_total=4, code_rows=(1, 2), n_elements=16, n_horizontal=4, p_dbm=0.0, seed=11)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("change", [{"code_rows": (1, 3)}, {"v_total": 6}, {"m": 32, "v_total": 8}],
                             ids=["rows", "v_total", "m"])
    def test_a_then_b_then_a_matches_cold_runs(self, monkeypatch, threads, change):
        """A cold, A warm, B, then A again: every A run and both B runs are bit-identical."""
        a = Scenario(**self.BASE, trials=BLOCK + 500)
        b = replace(a, **change)
        score, by_block = montecarlo._Block.score, {}

        def recording(block, stop):
            by_block[block.blk] = score(block, stop)
            return by_block[block.blk]

        monkeypatch.setattr(montecarlo._Block, "score", recording)

        def scored(scn):  # (metric, reach) in block order, whichever worker ran a block
            by_block.clear()
            _run_blocks(plan_for(scn, threads=threads), {}, 0, scn.trials,
                        lambda metric, reach: (np.zeros(1, dtype=np.int64),))
            return tuple(np.concatenate(parts) for parts in zip(*(by_block[k] for k in sorted(by_block))))

        montecarlo._memo.clear()
        a_cold = scored(a)
        runs = [scored(a), scored(b), scored(a)]
        montecarlo._memo.clear()
        b_cold = scored(b)
        for (metric, reach), (want_metric, want_reach) in zip(runs, [a_cold, b_cold, a_cold]):
            assert np.array_equal(metric, want_metric) and np.array_equal(reach, want_reach)
        assert not np.array_equal(a_cold[0], b_cold[0])

    def test_kept_arrays_are_read_only(self):
        """A second call with equal codes returns the same arrays, none of them writable."""
        sub = montecarlo._subspace(Scenario(**self.BASE).sim_profiles(), 16, 4)
        assert montecarlo._subspace(Scenario(**self.BASE).sim_profiles(), 16, 4)[1] is sub[1]
        u, a, starts, tables = sub
        for arr in (u, a, starts, *tables):
            with pytest.raises(ValueError):
                arr[...] = 0

    def test_previous_code_set_is_dropped_before_the_next_build(self, monkeypatch):
        """A's table is gone when B's build starts and after B's pass."""
        a = Scenario(**self.BASE, trials=1000)
        b = replace(a, code_rows=(1, 3))
        table = weakref.ref(montecarlo._subspace(a.sim_profiles(), a.m, a.v_total)[3][0])
        dead_at_build = []
        sign_classes = montecarlo.sign_classes

        def watching(shifts):
            dead_at_build.append(table() is None)
            return sign_classes(shifts)

        monkeypatch.setattr(montecarlo, "sign_classes", watching)
        decision_sweep(plan_for(b), 1, (3.0,), {})
        assert dead_at_build == [True, True] and table() is None

    def test_pool_follows_the_module_name(self, two_ris_scenario, monkeypatch):
        """Passes reuse one pool, made from whatever ``ThreadPoolExecutor`` names when they start."""
        mapped = []

        class Recording(montecarlo.ThreadPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                mapped.append(self)
                return super().map(fn, *iterables, **kwargs)

        plan = plan_for(two_ris_scenario, trials=2 * BLOCK, threads=2)
        want = confusion(plan, (3.0,))[3.0].counts
        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Recording)
        for _ in range(2):
            assert np.array_equal(confusion(plan, (3.0,))[3.0].counts, want)
        assert len(mapped) == 2 and mapped[0] is mapped[1]

    @pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="needs fork")
    def test_forked_child_starts_its_own_pool(self, two_ris_scenario):
        """After the parent ran a 2-worker pass, a forked child's 2-worker pass finishes
        with the parent's counts."""
        plan = plan_for(two_ris_scenario, trials=2 * BLOCK, threads=2)
        want = confusion(plan, (3.0,))[3.0].counts
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=lambda: send.send(confusion(plan, (3.0,))[3.0].counts))
        child.start()
        try:
            assert recv.poll(60), "the forked child's pass did not finish within 60 s"
            assert np.array_equal(recv.recv(), want)
        finally:
            child.kill()
            child.join()


class TestWorkerSchedule:
    """A T-worker pass over n blocks scores every min(T, n)-th block, from the first, on the
    calling thread and the rest on a pool of T - 1 threads, with the one-worker pass's counts."""

    SCN = dict(m=16, v_total=4, code_rows=(1, 2), n_elements=8, n_horizontal=2, p_dbm=15.0, seed=13)

    @pytest.fixture
    def scored(self, monkeypatch):
        """(block, rows drawn before the call) -> (thread, metric, reach) of every ``score``."""
        score, got = montecarlo._Block.score, {}

        def recording(block, stop):
            key = block.blk, block.drawn
            out = score(block, stop)
            got[key] = (threading.get_ident(), *out)
            return out

        monkeypatch.setattr(montecarlo._Block, "score", recording)
        return got

    @pytest.mark.parametrize("threads", [2, 3, 5])
    def test_caller_scores_every_step_th_block(self, scored, threads):
        scn, caller = Scenario(**self.SCN), threading.get_ident()
        for n in sorted({1, 2, threads, threads + 1, 3 * threads + 1}):
            trials = (n - 1) * BLOCK + 700  # the last block partial
            want = confusion(plan_for(scn, trials=trials), (2.0, 3.0))
            scored.clear()
            got = confusion(plan_for(scn, trials=trials, threads=threads), (2.0, 3.0))
            for r_bar in (2.0, 3.0):
                assert np.array_equal(got[r_bar].counts, want[r_bar].counts), (n, r_bar)
            step = min(threads, n)
            assert sorted(blk for blk, _ in scored) == list(range(n))
            assert sorted(blk for (blk, _), (tid, *_) in scored.items() if tid == caller) \
                == list(range(n))[::step], n
            assert len({tid for tid, *_ in scored.values()}) <= step, n

    @pytest.mark.parametrize("threads", [2, 3])
    def test_one_block_pass_reaches_no_pool(self, monkeypatch, threads):
        """One-block passes, escalating ones included, never call the pool's ``map``;
        a two-block pass does."""

        class Refusing(montecarlo.ThreadPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                raise AssertionError("a pass reached the pool")

        scn = Scenario(**self.SCN)
        want = confusion(plan_for(scn, trials=BLOCK), (3.0,))[3.0].counts
        want_pf = estimate_pf(plan_for(scn, trials=1000, max_trials=BLOCK), 1, 3.0)
        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Refusing)
        got = confusion(plan_for(scn, trials=BLOCK, threads=threads), (3.0,))[3.0].counts
        assert np.array_equal(got, want)
        assert estimate_pf(plan_for(scn, trials=1000, max_trials=BLOCK, threads=threads), 1, 3.0) \
            == want_pf
        with pytest.raises(AssertionError, match="a pass reached the pool"):
            confusion(plan_for(scn, trials=BLOCK + 1, threads=threads), (3.0,))

    def test_escalation_across_block_edges_matches_one_worker(self, scored):
        """Passes [0, 1000), [1000, 10000) and [10000, 100000): each later pass resumes the
        block the last one stopped in, and every row's metric and reachability, in trial order,
        are the one-worker escalation's."""
        scn = Scenario(**self.SCN)

        def rows(threads):
            scored.clear()
            est = montecarlo._escalated(plan_for(scn, trials=1000, max_trials=100_000,
                                                 threads=threads), {}, no_events)
            assert est.trials == 100_000
            assert (0, 1000) in scored and (1, 10_000 - BLOCK) in scored  # resumed blocks
            parts = [scored[k] for k in sorted(scored)]
            return (np.concatenate([p[1] for p in parts]), np.concatenate([p[2] for p in parts]),
                    len({p[0] for p in parts}))

        metric, reach, _ = rows(1)
        assert metric.shape == (100_000, 2)
        for threads in (2, 3):
            got_metric, got_reach, n_threads = rows(threads)
            assert np.array_equal(got_metric, metric) and np.array_equal(got_reach, reach)
            assert n_threads > 1


class TestTallies:
    """The per-block tallies count exactly what the bool-matrix sums and the int64 state-code
    products of ``conftest`` count, a metric equal to a threshold included."""

    @staticmethod
    def draws(plan, r_bars, n_l, trials=1000, seed=3):
        """Metrics about the thresholds, each threshold exactly in some rows, and fair
        reachability coins."""
        rng = np.random.default_rng(seed)
        r_w = montecarlo._thresholds_w(plan, r_bars)
        metric = rng.exponential(r_w.mean(), size=(trials, n_l))
        for j, rw in enumerate(r_w):
            metric[j :: 2 * len(r_w), :] = rw
        return metric, rng.random((trials, n_l)) < 0.5, r_w

    @pytest.mark.parametrize("n_l", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("count_missed", [False, True])
    def test_threshold_counts_match_the_bool_matrix_sum(self, n_l, count_missed):
        scn = Scenario(m=16, v_total=4, code_rows=tuple(range(1, n_l + 1)), n_elements=8, n_horizontal=2)
        plan, r_bars = plan_for(scn, trials=1000), (1.5, 2.0, 3.0)
        metric, reach, r_w = self.draws(plan, r_bars, n_l)
        for target in range(1, n_l + 1):
            (got,) = montecarlo._threshold_counter(plan, target, r_bars, count_missed)(metric, reach)
            want = matrix_threshold_counts(metric, target - 1, r_w, count_missed)
            assert got.dtype == want.dtype and np.array_equal(got, want), target
            assert 0 < want.min() and want.max() < len(metric)

    @pytest.mark.parametrize("n_l", [1, 2, 3, 4, 5])
    def test_joint_counts_match_the_state_code_product(self, monkeypatch, n_l):
        scn = Scenario(m=16, v_total=4, code_rows=tuple(range(1, n_l + 1)), n_elements=8, n_horizontal=2)
        plan, r_bars = plan_for(scn, trials=1000), (1.5, 2.0, 3.0)
        metric, reach, r_w = self.draws(plan, r_bars, n_l)
        monkeypatch.setattr(montecarlo, "_run_blocks", lambda plan, law, t0, t1, consume: consume(metric, reach))
        got = montecarlo._joint_counts(plan, r_bars)
        want = matmul_joint_counts(metric, reach, r_w)
        assert len(got) == len(want) == 3
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == (1 << n_l, 1 << n_l) and np.array_equal(g, w)
            assert g.sum() == len(metric)


class TestDecisionSweep:
    def test_counts_consistent_with_point_estimates(self, two_ris_scenario):
        plan = plan_for(two_ris_scenario, escalate=False)
        sweep = decision_sweep(plan, 1, (2.0, 3.0, 4.0), {1: False})
        point = estimate_pf(plan, 1, 3.0)
        assert sweep[1].events == point.events
        assert all(a.events >= b.events for a, b in zip(sweep, sweep[1:]))

    def test_missed_direction(self, two_ris_scenario):
        plan = plan_for(two_ris_scenario, escalate=False)
        sweep = decision_sweep(plan, 1, (0.0,), {1: True}, count_missed=True)
        assert sweep[0].events == 0

    def test_rejects_forced_id_no_surface_has(self, two_ris_scenario):
        """A forced surface the scenario lacks is named, not silently left on its fair coin."""
        with pytest.raises(ValueError, match=r"forced: no surface has id 3; the scenario's ids are \[1, 2\]"):
            decision_sweep(plan_for(two_ris_scenario), 1, (3.0,), {1: True, 3: False})


class TestConfusion:
    def test_rows_sum_to_trials(self, two_ris_scenario):
        plan = plan_for(two_ris_scenario, trials=4096)
        mats = confusion(plan, (3.0,))
        mat = mats[3.0]
        assert mat.counts.sum() == 4096
        freq = mat.frequencies()
        sums = freq.sum(axis=1)
        for i in range(4):
            if mat.counts[i].sum() > 0:
                assert sums[i] == pytest.approx(1.0, abs=1e-12)

    def test_rejects_a_true_state_no_trial_drew(self, two_ris_scenario):
        """Three fair-coin trials cannot draw all four states: the matrices would hold an empty
        row, whose frequencies and error rates have no value."""
        scn = replace(two_ris_scenario, seed=1)
        with pytest.raises(ValueError, match="^none of the 3 trials drew the true state "
                                             "'RIS 2' or 'BOTH RISs'$"):
            confusion(plan_for(scn, trials=3), (3.0,))

    def test_diagonal_dominates_at_extreme_separation(self):
        # long sequences push the aligned peak (M^2) far above the worst
        # cross peak, and high power silences the noise floor: with the
        # threshold between the two scales every decision is right
        scn = Scenario(
            m=128, v_total=32, code_rows=(1, 2), n_elements=64, n_horizontal=8,
            p_dbm=40.0, trials=4096, seed=5,
        )
        mats = confusion(plan_for(scn), (43.0,))
        freq = mats[43.0].frequencies()
        assert np.diag(freq).min() >= 0.99

    def test_formulas_reproduce_direct_tallies_exactly(self, two_ris_scenario):
        plan = plan_for(two_ris_scenario, trials=4096)
        mat = confusion(plan, (2.5,))[2.5]
        c = mat.counts
        want_miss1 = (
            Fraction(int(c[1, 0] + c[1, 2]), int(c[1].sum()))
            + Fraction(int(c[3, 0] + c[3, 2]), int(c[3].sum()))
        ) / 2
        want_f1 = (
            Fraction(int(c[0, 1] + c[0, 3]), int(c[0].sum()))
            + Fraction(int(c[2, 1] + c[2, 3]), int(c[2].sum()))
        ) / 2
        want_miss2 = (
            Fraction(int(c[2, 0] + c[2, 1]), int(c[2].sum()))
            + Fraction(int(c[3, 0] + c[3, 1]), int(c[3].sum()))
        ) / 2
        want_f2 = (
            Fraction(int(c[0, 2] + c[0, 3]), int(c[0].sum()))
            + Fraction(int(c[1, 2] + c[1, 3]), int(c[1].sum()))
        ) / 2
        assert mat.miss_probability(1) == want_miss1
        assert mat.false_probability(1) == want_f1
        assert mat.miss_probability(2) == want_miss2
        assert mat.false_probability(2) == want_f2

    def test_derived_pf_matches_forced_estimate(self, two_ris_scenario):
        trials = 60_000
        mat = confusion(plan_for(two_ris_scenario, trials=trials), (2.5,))[2.5]
        derived = float(mat.false_probability(1))
        forced = estimate_pf(
            plan_for(two_ris_scenario, trials=trials, escalate=False), 1, 2.5
        )
        se = np.sqrt(derived * (1 - derived) * 2 / (trials / 2)) + forced.std_error
        assert abs(derived - forced.value) <= 3 * se + 1e-3

    def test_three_surface_rates_equal_direct_tallies(self):
        """Each surface's rates over the 8 x 8 counts: the mean over its four true states
        of the share decided the opposite way."""
        scn = Scenario(m=16, v_total=4, code_rows=(1, 2, 3), n_elements=16, n_horizontal=4,
                       p_dbm=12.0, trials=4096, seed=29)
        mat = confusion(plan_for(scn), (2.5,))[2.5]
        c = mat.counts
        assert c.shape == (8, 8) and c.sum() == 4096
        for s in (1, 2, 3):
            bit = 1 << (s - 1)
            for present, got in ((True, mat.miss_probability(s)), (False, mat.false_probability(s))):
                want = Fraction(0)
                for row in (t for t in range(8) if bool(t & bit) == present):
                    wrong = sum(int(c[row, d]) for d in range(8) if bool(d & bit) != present)
                    want += Fraction(wrong, int(c[row].sum())) / 4
                assert got == want and 0 < want < 1

    def test_labels_fixed_order(self, two_ris_scenario):
        mat = confusion(plan_for(two_ris_scenario, trials=512), (3.0,))[3.0]
        assert mat.labels == ("NO RIS", "RIS 1", "RIS 2", "BOTH RISs")


class TestAveragedMetrics:
    def test_exchangeable_surfaces_agree(self):
        scn = Scenario(
            m=16, v_total=4, code_rows=(8, 9), n_elements=16, n_horizontal=4,
            p_dbm=12.0, trials=40_000, seed=17,
        )
        out = averaged_metrics(plan_for(scn), (3.0,))[0]
        for arr in (out.per_ris_pmiss, out.per_ris_pf):
            se = np.sqrt(max(arr) * (1 - min(arr)) / (scn.trials / 2)) + 1e-9
            assert abs(arr[0] - arr[1]) <= 4 * se
        assert out.avg_pmiss == pytest.approx(np.mean(out.per_ris_pmiss))
        assert out.avg_pf == pytest.approx(np.mean(out.per_ris_pf))

    def test_monotone_in_threshold(self, two_ris_scenario):
        out = averaged_metrics(plan_for(two_ris_scenario), (1.0, 2.0, 3.0, 4.0))
        pf = [o.avg_pf for o in out]
        pm = [o.avg_pmiss for o in out]
        assert all(b <= a for a, b in zip(pf, pf[1:]))
        assert all(b >= a for a, b in zip(pm, pm[1:]))

    def test_rates_are_the_confusion_matrices(self):
        """Each surface's rates are its ConfusionMatrix's, as ``confusion.json`` writes them, and
        each average is the exact mean of the surfaces' rates, rounded once; a repeated grid
        entry gets its own row."""
        scn = Scenario(m=16, v_total=4, code_rows=(1, 2, 3), n_elements=16, n_horizontal=4,
                       p_dbm=12.0, trials=4096, seed=29)
        grid = (2.5, 2.5, 3.5)
        mats = confusion(plan_for(scn), grid)
        out = averaged_metrics(plan_for(scn), grid)
        assert [o.r_bar for o in out] == list(grid)
        for o in out:
            pmiss = [mats[o.r_bar].miss_probability(s) for s in (1, 2, 3)]
            pf = [mats[o.r_bar].false_probability(s) for s in (1, 2, 3)]
            assert o.per_ris_pmiss == tuple(map(float, pmiss))
            assert o.per_ris_pf == tuple(map(float, pf))
            assert (o.avg_pmiss, o.avg_pf) == (float(sum(pmiss) / 3), float(sum(pf) / 3))


class TestTheoryConsistency:
    @pytest.mark.parametrize("m", [16, 32])
    def test_false_bound_dominates_simulation(self, m):
        scn = Scenario(
            m=m, v_total=m // 4, code_rows=(m - 1,), n_elements=16,
            n_horizontal=4, trials=200_000, seed=31,
        )
        plan = plan_for(scn, escalate=False)
        grid = (2.0, 2.75, 3.5, 4.25, 5.0)
        ests = decision_sweep(plan, 1, grid, {1: False})
        from risid.analysis import pf_single_bound

        op = scn.operating_point(2.0)
        for r_bar, est in zip(grid, ests):
            bound = pf_single_bound(replace(op, r_bar=r_bar))
            assert est.value <= bound + 3 * est.std_error

    def test_miss_theory_tracks_simulation_across_range(self):
        # the closed form should stay within 10% wherever the miss rate is
        # between 1e-3 and 0.5
        from risid.analysis import pmiss_single

        for p_dbm in (2.0, 8.0, 14.0):
            scn = Scenario(
                m=16, v_total=4, code_rows=(15,), n_elements=64,
                n_horizontal=8, p_dbm=p_dbm, trials=200_000, seed=13,
            )
            est = decision_sweep(
                plan_for(scn, escalate=False), 1, (3.0,), {1: True},
                count_missed=True,
            )[0]
            want = pmiss_single(scn.operating_point(3.0))
            if 1e-3 <= want <= 0.5:
                assert est.value == pytest.approx(want, rel=0.10)


class TestPlanValidation:
    def test_rejects_zero_trials(self, small_scenario):
        with pytest.raises(ValueError):
            TrialPlan(scenario=small_scenario, trials=0, seed=1)

    def test_rejects_cap_below_trials(self, small_scenario):
        with pytest.raises(ValueError):
            TrialPlan(scenario=small_scenario, trials=100, seed=1, max_trials=50)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_rejects_fewer_than_one_thread(self, small_scenario, threads):
        with pytest.raises(ValueError):
            TrialPlan(scenario=small_scenario, trials=100, seed=1, threads=threads)

    def test_rejects_more_than_max_threads(self, small_scenario):
        TrialPlan(scenario=small_scenario, trials=100, seed=1, threads=montecarlo.MAX_THREADS)
        for threads in (montecarlo.MAX_THREADS + 1, 10**6):  # built only: no worker starts
            with pytest.raises(ValueError, match=f"worker threads must be in 1..64, got {threads}"):
                TrialPlan(scenario=small_scenario, trials=100, seed=1, threads=threads)

    @pytest.mark.parametrize("run", [
        lambda plan: estimate_pf(plan, 9, 3.0),
        lambda plan: decision_sweep(plan, 9, (3.0,), {}, count_missed=True),
        lambda plan: decision_sweep(plan, 9, (3.0,), {}),
    ])
    def test_rejects_target_id_no_surface_has(self, two_ris_scenario, run):
        with pytest.raises(ValueError, match=r"no surface has id 9; the scenario's ids are \[1, 2\]"):
            run(plan_for(two_ris_scenario))
