"""Identity sequences: construction, shifts, and exact correlation structure."""

import math
import tracemalloc
from fractions import Fraction
from functools import reduce
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risid import codes, detector, signal
from risid.codes import (
    BinarySequence,
    all_shifts,
    build_codebook,
    cross_corr_pmf,
    distinct_shift_fraction,
    hadamard_matrix,
    rank_code_subsets,
    shift_table,
    sign_classes,
    uniform_offset_law,
)
from conftest import (
    brute_force_pmf,
    circular_shift,
    fresh_python,
    partial_cross_corr,
    stacked_pair_peaks,
    stacked_rank_code_subsets,
    unique_counts_pmf,
    unique_sign_classes,
)
from test_signal import make_profiles


class TestHadamard:
    def test_base_case(self):
        assert hadamard_matrix(1).tolist() == [[1]]

    def test_order_two(self):
        assert hadamard_matrix(2).tolist() == [[1, 1], [1, -1]]

    def test_order_four_row_two(self):
        h = hadamard_matrix(4)
        assert h[2].tolist() == [1, 1, -1, -1]
        assert np.array_equal(h @ h.T, 4 * np.eye(4, dtype=np.int64))

    @pytest.mark.parametrize("m", [1, 2, 4, 8, 16, 32, 64])
    def test_orthogonality_exact(self, m):
        h = hadamard_matrix(m)
        assert np.array_equal(h @ h.T, m * np.eye(m, dtype=np.int64))
        assert np.all(h[0] == 1)

    @pytest.mark.parametrize("m", [0, 3, 6, 12, -4])
    def test_rejects_non_powers(self, m):
        with pytest.raises(ValueError):
            hadamard_matrix(m)

    @pytest.mark.parametrize("m", [2**e for e in range(11)])
    def test_matches_kronecker_oracle(self, m):
        """H_m is the Kronecker product of log2(m) copies of [[1, 1], [1, -1]], and codebook
        entries are its rows, for every order up to 1024."""
        oracle = reduce(np.kron, [np.array([[1, 1], [1, -1]])] * (m.bit_length() - 1),
                        np.ones((1, 1), dtype=np.int64))
        h = hadamard_matrix(m)
        assert h.dtype == np.int64 and np.array_equal(h, oracle)
        rows = list(range(1, m))
        for entry, r in zip(build_codebook(m, rows).entries, rows):
            assert np.array_equal(entry.symbols, oracle[r])


class TestCodebook:
    def test_all_usable_rows_orthogonal(self):
        book = build_codebook(16, list(range(1, 16)))
        assert len(book.entries) == 15
        for a in book.entries:
            for b in book.entries:
                expect = 16 if a is b else 0
                assert int(np.dot(a.symbols, b.symbols)) == expect

    def test_rejects_constant_row(self):
        with pytest.raises(ValueError, match="all-ones"):
            build_codebook(16, [0, 1])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="distinct"):
            build_codebook(16, [3, 3])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            build_codebook(16, [16])

    def test_builds_only_its_rows(self):
        """One code at m = 1024 traces under 1 MiB: no 1024 x 1024 matrix (8 MiB) behind it."""
        tracemalloc.start()
        try:
            build_codebook(1024, [1023])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20, peak


class TestCircularShift:
    def test_full_rotation_is_identity(self, seq16):
        s = seq16[5]
        assert np.array_equal(circular_shift(s, 16).symbols, s.symbols)

    def test_single_rotation(self):
        s = BinarySequence(id=1, symbols=[1, -1, 1, -1])
        assert circular_shift(s, 1).symbols.tolist() == [-1, 1, -1, 1]

    @given(c=st.integers(min_value=1, max_value=16), row=st.integers(1, 15))
    @settings(max_examples=40, deadline=None)
    def test_shift_group_property(self, c, row, seq16):
        s = seq16[row]
        back = circular_shift(circular_shift(s, c), 16 - c)
        assert np.array_equal(back.symbols, s.symbols)

    def test_composed_m_times_identity(self, seq16):
        s = seq16[9]
        for _ in range(16):
            s = circular_shift(s, 1)
        assert np.array_equal(s.symbols, seq16[9].symbols)

    def test_matches_index_convention(self, seq16):
        # element m of the shifted sequence is element ((c+m-1) mod M)+1 of the input
        s = seq16[11]
        for c in (1, 5, 16):
            out = circular_shift(s, c)
            for m in range(1, 17):
                assert out.symbols[m - 1] == s.symbols[(c + m - 1) % 16]


class TestPartialCrossCorr:
    def test_aligned_full_window_peak(self, seq16):
        for row in (1, 8, 15):
            s = seq16[row]
            laid = circular_shift(s, 5)  # received with its own offset
            assert partial_cross_corr(s, laid, 5, 3, 3) == 16

    def test_orthogonal_zero_shift(self, seq16):
        assert partial_cross_corr(seq16[1], seq16[2], 16, 3, 3) == 0

    def test_empty_window_returns_zero(self, seq16):
        assert partial_cross_corr(seq16[1], seq16[2], 4, 19, 3) == 0

    def test_window_bound(self, seq16):
        m = 16
        for v1 in (1, 2, 3):
            for k in range(0, 7):
                win = m - abs(k - v1) if k >= v1 else m - (v1 - k)
                for c in (1, 7, 16):
                    a = partial_cross_corr(seq16[4], seq16[9], c, k, v1)
                    assert abs(a) <= min(m, max(win, 0))

    def test_m4_table_against_direct_summation(self):
        h = hadamard_matrix(4)
        s1 = BinarySequence(id=1, symbols=h[1])
        s2 = BinarySequence(id=2, symbols=h[2])
        v1 = 1
        for cd in range(1, 5):
            laid = circular_shift(s2, cd)
            for c in range(1, 5):
                for k in range(0, 3):
                    sl = np.roll(s1.symbols, -c)
                    t = k - v1
                    acc = 0
                    for m2 in range(1, 5):
                        if t < 0 and m2 <= v1 - k:
                            continue
                        if t > 0 and m2 > 4 - t:
                            continue
                        acc += int(sl[m2 - 1]) * int(laid.symbols[m2 + t - 1])
                    assert partial_cross_corr(s1, laid, c, k, v1) == acc

    def test_rejects_bad_v1(self, seq16):
        with pytest.raises(ValueError):
            partial_cross_corr(seq16[1], seq16[2], 1, 0, 16)


class TestCrossCorrPmf:
    def test_same_code_point_mass_at_peak(self, seq16):
        pmf = cross_corr_pmf(seq16[3], seq16[3], 4)
        assert pmf.support == (256,)
        assert pmf.probs == (Fraction(1),)
        assert pmf.a_tilde == 16

    def test_matches_brute_force_enumeration(self, seq16):
        pmf = cross_corr_pmf(seq16[1], seq16[2], 4)
        oracle, a_oracle = brute_force_pmf(seq16[1], seq16[2], 4)
        assert pmf.a_tilde == a_oracle
        assert list(pmf.support) == list(oracle)
        for p, (a, q) in zip(pmf.probs, oracle.items()):
            assert float(p) == pytest.approx(q, abs=1e-15)

    def test_probabilities_sum_to_one_exactly(self, seq16):
        pmf = cross_corr_pmf(seq16[8], seq16[9], 4)
        assert sum(pmf.probs) == 1

    def test_permuted_order_re_derivation_identical(self, seq16):
        base = cross_corr_pmf(seq16[4], seq16[9], 4)
        # re-enumerate with the loop order permuted: v1 outer loop reversed,
        # assembled from degenerate laws
        weights = {}
        a_tilde = 0
        for v1 in reversed(range(1, 5)):
            part = cross_corr_pmf(seq16[4], seq16[9], {v1: Fraction(1)}, v_total=4)
            a_tilde = max(a_tilde, part.a_tilde)
            for a, p in zip(part.support, part.probs):
                weights[a] = weights.get(a, Fraction(0)) + p * Fraction(1, 4)
        assert a_tilde == base.a_tilde
        assert tuple(sorted(weights)) == base.support
        assert tuple(weights[a] for a in base.support) == base.probs

    @pytest.mark.parametrize("rows", [(3, 3), (1, 2), (8, 9), (4, 9), (10, 13), (3, 9)])
    @pytest.mark.parametrize("law", [1, 4, 15, {1: Fraction(1, 3), 3: Fraction(2, 3)}])
    def test_counts_match_the_unique_oracle(self, seq16, rows, law):
        law = uniform_offset_law(law) if isinstance(law, int) else law
        pmf = cross_corr_pmf(seq16[rows[0]], seq16[rows[1]], law)
        assert (pmf.support, pmf.probs) == unique_counts_pmf(seq16[rows[0]], seq16[rows[1]], law, max(law))

    def test_support_values_are_perfect_squares(self, seq16):
        pmf = cross_corr_pmf(seq16[10], seq16[13], 4)
        for a in pmf.support:
            assert int(round(a**0.5)) ** 2 == a
        assert pmf.a_tilde**2 >= max(pmf.support)


class TestSetQuality:
    def test_subset_ranking_m16(self):
        ranked = rank_code_subsets(16, 5, 4)
        best_q, best_rows = ranked[0]
        worst_q, worst_rows = ranked[-1]
        assert best_q == 5 and best_rows == (1, 2, 4, 8, 9)
        assert worst_q == 16 and worst_rows == (11, 12, 13, 14, 15)
        # canonical worst by (quality, lexicographic) among max-quality ties
        worst_ties = sorted(rows for q, rows in ranked if q == worst_q)
        assert worst_ties[0] == (1, 2, 3, 4, 5)


def _pair_peak_oracle(codes, v1_span):
    """a_tilde of every ordered pair of set positions, one pmf per pair."""
    n = len(codes)
    return {(i, j): cross_corr_pmf(codes[i], codes[j], v1_span).a_tilde
            for i in range(n) for j in range(n) if i != j}


def _pmf_oracle(code_l, code_d, law, v_total):
    """One Fraction per (v1, c_d): the best |A| over every (c, k), summed by peak."""
    m = code_l.length
    weights, a_tilde = {}, 0
    for v1, pv in law.items():
        if pv == 0:
            continue
        for cd in range(1, m + 1):
            laid = circular_shift(code_d, cd)
            best = max(abs(partial_cross_corr(code_l, laid, c, k, v1))
                       for c in range(1, m + 1) for k in range(v_total + 1))
            a_tilde = max(a_tilde, best)
            weights[best**2] = weights.get(best**2, Fraction(0)) + Fraction(1, m) * pv
    support = tuple(sorted(weights))
    return support, tuple(weights[a] for a in support), a_tilde


def _assert_pmf_invariants(pmf):
    """Nonnegative probabilities summing to exactly 1 on perfect squares, none above a_tilde**2."""
    assert all(p >= 0 for p in pmf.probs) and sum(pmf.probs) == 1
    assert all(math.isqrt(a) ** 2 == a for a in pmf.support)
    assert pmf.a_tilde**2 >= max(pmf.support)


def _pm1(bits):
    return np.array([1 if b else -1 for b in bits], dtype=np.int64)


class TestBatchedPeakSearch:
    @pytest.mark.parametrize("m,size,span", [(8, 3, 2), (16, 3, 8), (16, 5, 4)])
    def test_ranking_matches_per_pair_search(self, m, size, span):
        h = hadamard_matrix(m)
        seqs = [BinarySequence(id=r, symbols=h[r]) for r in range(1, m)]
        peak = _pair_peak_oracle(seqs, span)
        expect = sorted(
            (max(peak[(a - 1, b - 1)] for a in rows for b in rows if a != b), rows)
            for rows in combinations(range(1, m), size)
        )
        assert rank_code_subsets(m, size, span) == expect

    @given(
        m=st.sampled_from([4, 8, 16]),
        data=st.data(),
        extra=st.integers(0, 3),
        default_total=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_pmf_matches_per_offset_oracle(self, m, data, extra, default_total):
        bits = st.lists(st.booleans(), min_size=m, max_size=m)
        code_l = BinarySequence(1, _pm1(data.draw(bits)))
        code_d = BinarySequence(2, _pm1(data.draw(bits)))
        v1s = data.draw(st.lists(st.integers(1, min(m - 1, 6)), min_size=1, max_size=4, unique=True))
        w = data.draw(st.lists(st.integers(0, 3), min_size=len(v1s), max_size=len(v1s)))
        if sum(w) == 0:
            w[0] = 1
        law = {v1: Fraction(wi, sum(w)) for v1, wi in zip(v1s, w)}
        v_total = None if default_total else max(v1s) + extra
        pmf = cross_corr_pmf(code_l, code_d, law, v_total)
        default = max(v1 for v1, p in law.items() if p)  # the largest key with mass
        support, probs, a_tilde = _pmf_oracle(code_l, code_d, law, v_total or default)
        assert (pmf.support, pmf.probs, pmf.a_tilde) == (support, probs, a_tilde)
        _assert_pmf_invariants(pmf)

    def test_pair_peaks_with_twin_and_foreign_shift(self, seq16):
        h = hadamard_matrix(16)
        # row 5 shifted by one is, up to sign, no row of the Hadamard matrix
        shifted = circular_shift(seq16[5], 1)
        assert np.all(np.abs(h @ shifted.symbols) < 16)
        twin = BinarySequence(id=99, symbols=seq16[6].symbols)
        for codes in ([seq16[1], seq16[6], twin], [seq16[3], seq16[8], shifted], [seq16[2], shifted, seq16[9]]):
            peaks = stacked_pair_peaks(codes, 4)
            assert {pair: peaks[pair] for pair in _pair_peak_oracle(codes, 4)} == _pair_peak_oracle(codes, 4)
        assert stacked_pair_peaks([seq16[5], shifted], 4)[0, 1] == 16

    @pytest.mark.parametrize("m,size,span", [
        (4, 2, 1), (4, 2, 3), (4, 3, 2),
        (8, 2, 7), (8, 3, 2), (8, 4, 1), (8, 7, 5),
        (16, 2, 15), (16, 3, 8), (16, 5, 4), (16, 8, 1),
        (32, 2, 31), (32, 3, 4), (32, 5, 8),
    ])
    def test_ranking_matches_the_stacked_search(self, m, size, span):
        ranked = rank_code_subsets(m, size, span)
        assert ranked == stacked_rank_code_subsets(m, size, span)
        assert all(type(q) is int and type(rows) is tuple and all(type(r) is int for r in rows)
                   for q, rows in ranked)

    @pytest.mark.parametrize("m,size,span,arg", [
        (16, 16, 4, "subset_size"), (16, 1, 4, "subset_size"), (16, 0, 4, "subset_size"),
        (16, 5, 0, "v1_span"), (16, 5, 16, "v1_span"), (2, 2, 1, "subset_size"),
    ])
    def test_ranking_rejects_out_of_range_arguments(self, monkeypatch, m, size, span, arg):
        """The range checks come before the order-m matrix is built."""
        monkeypatch.setattr(codes, "hadamard_matrix", lambda m: pytest.fail("built the matrix"))
        with pytest.raises(ValueError, match=arg):
            rank_code_subsets(m, size, span)


ROOT = Path(__file__).resolve().parents[1]


def _rank_script(*args, cwd):
    return fresh_python(str(ROOT / "scripts" / "rank_codebooks.py"), *args, cwd=cwd, check=False)


def _code_rows_lines(text):
    return [line for line in text.splitlines() if line.startswith("code_rows =")]


class TestRankCodebooksScript:
    def test_regenerates_the_bundled_codebooks(self, tmp_path):
        proc = _rank_script("--length", "16", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        bundled = [(ROOT / "scripts" / "configs" / f"five_ris_{name}.txt").read_text()
                   for name in ("set1", "set2")]
        assert _code_rows_lines(proc.stdout) == [_code_rows_lines(text)[0] for text in bundled]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("args,message", [
        (("--subset-size", "16"), "subset_size"),
        (("--subset-size", "1"), "subset_size"),
        (("--subset-size", "0"), "subset_size"),
        (("--length", "12"), "power of two"),
        (("--pad", "0"), "v1_span"),
        (("--pad", "16"), "v1_span"),
    ])
    def test_bad_arguments_exit_2(self, tmp_path, args, message):
        proc = _rank_script(*args, cwd=tmp_path)
        assert proc.returncode == 2 and message in proc.stderr and "Traceback" not in proc.stderr
        assert not proc.stdout and not list(tmp_path.iterdir())


class TestDistinctShiftFraction:
    def test_alternating_row_collapses(self, seq16):
        assert distinct_shift_fraction(seq16[1]) == pytest.approx(1 / 16)

    @pytest.mark.parametrize("row", [8, 9, 12, 15])
    def test_high_rows_reach_half(self, row, seq16):
        assert distinct_shift_fraction(seq16[row]) == pytest.approx(0.5)

    @given(row=st.integers(1, 15))
    @settings(max_examples=15, deadline=None)
    def test_bounded_by_half(self, row, seq16):
        assert 0 < distinct_shift_fraction(seq16[row]) <= 0.5


class TestShiftTable:
    """The one complex shift table that detection correlates with and frames are laid from."""

    @pytest.mark.parametrize("m", [2, 16, 64, 256])
    def test_column_is_the_code_shifted_left(self, m):
        for row in sorted({1, m // 2, m - 1}):
            seq = BinarySequence(1, hadamard_matrix(m)[row])
            table = shift_table(seq)
            assert table.shape == (m, m) and table.dtype == np.complex128
            for c in range(1, m + 1):
                assert np.array_equal(table[:, c - 1], np.roll(seq.symbols, -c).astype(complex))

    def test_read_only(self):
        table = shift_table(build_codebook(16, [5]).entries[0])
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 2

    def test_laid_code_has_the_bytes_of_the_shifted_symbols(self):
        """h times a column equals h times the int64 shifted symbols bit for bit: numpy makes
        the symbols complex before the multiply in both forms."""
        sym = hadamard_matrix(64)[37]
        table = shift_table(BinarySequence(1, sym))
        gains = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), -0j, 1.5 - 2.25j, -3e-9 + 0j,
                 complex(0.0, -7.1e-12), complex(-2.5e-300, 1e300), complex(-1.1, -0.0)]
        gains += list(np.random.default_rng(7).standard_normal((20, 2)) @ [1, 1j])
        for h in gains:
            for c in range(1, 65):
                want = h * np.concatenate((sym[c:], sym[:c]))
                assert (h * table[:, c - 1]).tobytes() == want.tobytes()

    def test_detect_and_frames_share_one_table(self, monkeypatch):
        profiles = make_profiles(m=16, rows=(11,))
        code = profiles[0].code
        got = []

        def recording(seq):
            got.append(shift_table(seq))
            return got[-1]

        monkeypatch.setattr(signal, "shift_table", recording)
        monkeypatch.setattr(detector, "shift_table", recording)
        fr = signal.synthesize_frame(profiles, 4, 0.1, 1.0, seed=3)
        detector.detect(fr, code)
        assert len(got) == 2 and got[0] is got[1] is shift_table(code)


class TestSignClasses:
    @pytest.mark.parametrize("m", [16, 32])
    def test_classes_partition_every_hadamard_row(self, m):
        for row, symbols in enumerate(hadamard_matrix(m)):
            seq = BinarySequence(1, symbols)
            shifts = all_shifts(seq)
            classes = sign_classes(shifts)
            assert np.all(classes[:, 0] == 1)
            # for +/-1 rows, |<a, b>| = M exactly when a = +b or a = -b
            assert np.all((np.abs(shifts @ classes.T) == m).sum(axis=1) == 1)
            same = np.abs(classes @ classes.T) == m
            assert np.array_equal(same, np.eye(len(classes), dtype=bool))
            assert len(classes) == distinct_shift_fraction(seq) * m
            assert len(classes) == 1 << max(row.bit_length() - 1, 0)  # as montecarlo.pass_bytes counts

    @staticmethod
    def _assert_unique_order(shifts):
        got, want = sign_classes(shifts), unique_sign_classes(shifts)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("m", [2, 4, 8, 16, 32, 64, 128])
    def test_matches_unique_on_every_sylvester_row(self, m):
        for symbols in hadamard_matrix(m):
            self._assert_unique_order(all_shifts(BinarySequence(1, symbols)))

    @pytest.mark.parametrize("row", [1, 2, 341, 682, 1023])
    def test_matches_unique_at_m_1024(self, row):
        self._assert_unique_order(all_shifts(build_codebook(1024, [row]).entries[0]))

    @pytest.mark.parametrize("dtype", [np.int64, np.int8, np.float64])
    @pytest.mark.parametrize("m", [1, 2, 3, 8, 64])
    def test_matches_unique_on_repeated_random_rows(self, m, dtype):
        rng = np.random.default_rng(m)
        for _ in range(20):
            base = rng.choice([-1, 1], size=(rng.integers(1, 8), m))
            rows = base[rng.integers(0, len(base), size=rng.integers(1, 24))]
            self._assert_unique_order((rows * rng.choice([-1, 1], size=(len(rows), 1))).astype(dtype))


def test_uniform_offset_law_normalized():
    law = uniform_offset_law(4)
    assert sum(law.values()) == 1 and set(law) == {1, 2, 3, 4}


@pytest.mark.parametrize("v_total", [0, -3])
def test_uniform_offset_law_rejects_empty_support(v_total):
    with pytest.raises(ValueError, match="v_total"):
        uniform_offset_law(v_total)


class TestPmfLawSupport:
    @pytest.mark.parametrize("law,v_total", [({20: 1}, 20), ({-3: 1}, 2), ({0: 1}, 2), ({16: 1}, 4)])
    def test_v1_outside_the_frame_raises(self, seq16, law, v_total):
        with pytest.raises(ValueError, match="1..15"):
            cross_corr_pmf(seq16[1], seq16[2], law, v_total)

    @pytest.mark.parametrize("law,v_total", [
        ({5: 1}, 4), ({1: Fraction(1, 2), 4: Fraction(1, 2)}, 3),  # mass past v_total
        ({1: 2, 2: -1}, 4), ({1: Fraction(3, 2), 3: Fraction(-1, 2)}, 4),  # negative mass netting to 1
    ], ids=["5-past-4", "4-past-3", "minus-1-at-2", "minus-half-at-3"])
    def test_law_past_the_pad_or_with_negative_mass_raises(self, seq16, law, v_total):
        with pytest.raises(ValueError, match="v1 law"):
            cross_corr_pmf(seq16[4], seq16[9], law, v_total)

    def test_zero_probability_keys_outside_the_frame_are_ignored(self, seq16):
        law = {20: Fraction(0), 2: Fraction(1)}
        assert cross_corr_pmf(seq16[1], seq16[2], law, 4) == cross_corr_pmf(seq16[1], seq16[2], {2: 1}, 4)

    def test_pad_budget_defaults_to_the_largest_key_with_mass(self, seq16):
        # a zero-mass key past the frame sets no pad budget: v_total is 2, not 20
        pmf = cross_corr_pmf(seq16[4], seq16[9], {20: Fraction(0), 2: Fraction(1)})
        assert pmf == cross_corr_pmf(seq16[4], seq16[9], {2: 1})
        assert (pmf.support, pmf.a_tilde) == ((4,), 2)

    @pytest.mark.parametrize("v_total", [1, 4, 15])
    def test_cli_uniform_laws_match_the_oracle(self, seq16, v_total):
        # the CLI passes the int v_total, a uniform law on 1..v_total < M
        pmf = cross_corr_pmf(seq16[3], seq16[9], v_total)
        law = uniform_offset_law(v_total)
        assert pmf == cross_corr_pmf(seq16[3], seq16[9], law, v_total)
        assert (pmf.support, pmf.probs, pmf.a_tilde) == _pmf_oracle(seq16[3], seq16[9], law, v_total)
        _assert_pmf_invariants(pmf)


class TestRankCodebooksTop:
    def _ranking_rows(self, stdout):
        return [line for line in stdout.splitlines() if "quality" in line]

    def test_top_zero_prints_no_ranking_rows(self, tmp_path):
        proc = _rank_script("--length", "8", "--subset-size", "3", "--top", "0", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert self._ranking_rows(proc.stdout) == []
        assert len(_code_rows_lines(proc.stdout)) == 2

    def test_top_prints_both_ends(self, tmp_path):
        # 35 subsets of 7 rows: a --top above the count prints each end in full
        ranked = rank_code_subsets(8, 3, 2)
        for top, shown in ((2, 4), (40, 70)):
            proc = _rank_script("--length", "8", "--subset-size", "3", "--top", str(top), cwd=tmp_path)
            rows = self._ranking_rows(proc.stdout)
            assert len(rows) == shown
            assert rows[-1] == f"  quality {ranked[-1][0]:3d}  rows {ranked[-1][1]}"

    def test_negative_top_exits_2(self, tmp_path):
        proc = _rank_script("--top", "-1", cwd=tmp_path)
        assert proc.returncode == 2 and "--top" in proc.stderr and "Traceback" not in proc.stderr
        assert not proc.stdout and not list(tmp_path.iterdir())
