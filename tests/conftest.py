"""Shared fixtures and reference oracles for the test suite."""

import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import risid
from risid.channel import CorrelationMatrix
from risid.cli import Scenario
from risid.codes import BinarySequence, _best_peaks, all_shifts, hadamard_matrix

# Where the pinned bytes and digests were taken (TestFrameGrid, TestWideFrameGrid, TestGoldenFrame,
# TestEscalationGrid, test_stream_canary): numpy's version fixes every Generator draw, and the
# OpenBLAS kernel the last bits of the products built from them.
PINNED_UNDER = "numpy 2.4.6, OpenBLAS SkylakeX kernel"


def pin_environment() -> str:
    """A pin's failure note: ``PINNED_UNDER`` beside this run's numpy version and, if set,
    ``OPENBLAS_CORETYPE``."""
    here = f"numpy {np.__version__}"
    if "OPENBLAS_CORETYPE" in os.environ:
        here += f", OPENBLAS_CORETYPE={os.environ['OPENBLAS_CORETYPE']}"
    return f"pinned under {PINNED_UNDER}; this run: {here}"


def fresh_python(*args, env=None, cwd=None, timeout=120, check=True):
    """``python *args`` in a new interpreter whose ``PYTHONPATH`` is the tree of the ``risid`` on
    this import path, with ``env`` over this process's environment, stdout and stderr captured as
    text. With ``check``, a non-zero exit fails the test and shows its stderr."""
    env = {**os.environ, "PYTHONPATH": str(Path(risid.__file__).parents[1]), **(env or {})}
    proc = subprocess.run([sys.executable, *args], env=env, cwd=cwd, timeout=timeout,
                          capture_output=True, text=True)
    if check and proc.returncode:
        pytest.fail(f"python {args[0]} exited {proc.returncode}:\n{proc.stderr}")
    return proc


def correlate(y, code, c, k):
    """Correlator output d = (1/sqrt(M)) * sum_m s_{c,m} y_{m+k}: the single-window oracle
    that ``detect``'s batched search is held to.

    ``c`` selects the cyclic shift hypothesis (1..M, with M the identity) and
    ``k`` the window offset into the frame (0..len(y)-M). The 1/sqrt(M)
    normalization keeps the pure-noise output variance at the sample noise
    variance.
    """
    samples = np.asarray(getattr(y, "samples", y), dtype=np.complex128)
    m = code.length
    if not 1 <= c <= m:
        raise ValueError(f"shift hypothesis must be in 1..{m}, got {c}")
    if not 0 <= k <= len(samples) - m:
        raise ValueError(f"window offset must be in 0..{len(samples) - m}, got {k}")
    shifted = np.roll(code.symbols, -c)
    return complex(np.dot(shifted, samples[k : k + m]) / np.sqrt(m))


def circular_shift(seq, c):
    """Shift the symbols left by ``c`` positions, cyclically: lays an interferer at its offset
    in the per-window oracles.

    Element m of the output is element ((c+m-1) mod M)+1 of the input in
    1-based terms; shifting by M (or 0) is the identity.
    """
    m = seq.length
    return BinarySequence(seq.id, np.roll(seq.symbols, -(c % m)))


def partial_cross_corr(code_l, code_d, c, k, v1):
    """Signed overlap correlation between a shift hypothesis and a received code: the
    per-window oracle of ``cross_corr_pmf``'s enumeration.

    ``code_l`` is the detector's reference sequence, shifted left by ``c``.
    ``code_d`` is the interfering sequence exactly as laid into the frame,
    i.e. already carrying its own cyclic offset. The correlator window starts
    ``k`` samples into the frame while the signal block starts at ``v1``, so
    only the overlapping portion contributes:

        k < v1 : window tail  (positions v1-k+1 .. M of the reference)
        k = v1 : full window
        k > v1 : window head  (positions 1 .. M+v1-k)

    Returns 0 when the window misses the signal block entirely (k - v1 >= M).
    Requires v1 < M.
    """
    m = code_l.length
    if not 1 <= v1 < m:
        raise ValueError(f"v1 must be in 1..{m - 1}, got {v1}")
    if k < 0:
        raise ValueError("k must be nonnegative")
    t = k - v1
    if t >= m:
        return 0
    if t < 0:
        m2 = np.arange(v1 - k + 1, m + 1)
    else:
        m2 = np.arange(1, m - t + 1)
    sl = np.roll(code_l.symbols, -(c % m))
    return int(np.dot(sl[m2 - 1], code_d.symbols[m2 + t - 1]))


def cascaded_gain(h_ur, h_rb, power_w):
    """Scalar gain of the whole reflected path, sqrt(P) * sum_i h_ur_i h_rb_i: the explicit-hop
    gain the compound law is tested against."""
    h_ur = np.asarray(h_ur)
    h_rb = np.asarray(h_rb)
    if h_ur.shape != h_rb.shape:
        raise ValueError("hop vectors must have equal length")
    return complex(np.sqrt(power_w) * (h_ur * h_rb).sum())


def direct_correlation(geom):
    """R and its factor by the direct expression: ``np.linalg.norm`` over the (N, N, 3)
    differences, ``np.sinc``, (R + R^T) / 2, a unit diagonal, ``eigh`` and the clipped
    eigenvalues' square roots times a new eigenvector array. The positions are padded with the
    surface plane's x = 0 here, so the oracle keeps every step ``correlation_matrix``'s in-place
    build leaves out, and holds that build to bit for bit."""
    pos = np.column_stack([np.zeros(geom.n), geom.element_positions()])
    dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
    r = np.sinc(2.0 * dist / geom.wavelength)
    r = (r + r.T) / 2.0
    np.fill_diagonal(r, 1.0)
    eigval, eigvec = np.linalg.eigh(r)
    return CorrelationMatrix(r=r, factor=eigvec * np.sqrt(np.clip(eigval, 0.0, None)))


def brute_force_detect(samples, code):
    """Independent two-loop search using the public correlator.

    Same tie-break as the production search: strictly-greater comparison in
    (k, c) iteration order keeps the smallest k, then the smallest c.
    """
    samples = np.asarray(samples)
    m = code.length
    best, bc, bk = -1.0, None, None
    for k in range(len(samples) - m + 1):
        for c in range(1, m + 1):
            d = correlate(samples, code, c, k)
            v = d.real**2 + d.imag**2
            if v > best:
                best, bc, bk = v, c, k
    return best, bc, bk


def brute_force_detect_same_kernel(samples, code):
    """Two-loop search sharing the production metric kernel exactly."""
    samples = np.asarray(samples)
    m = code.length
    shifts_t = all_shifts(code).astype(np.float64).T
    best, bc, bk = -1.0, None, None
    for k in range(len(samples) - m + 1):
        d = samples[k : k + m] @ shifts_t / np.sqrt(m)
        vals = d.real**2 + d.imag**2
        for c_idx in range(m):
            if vals[c_idx] > best:
                best, bc, bk = float(vals[c_idx]), c_idx + 1, k
    return best, bc, bk


def unique_sign_classes(shifts):
    """``np.unique`` of the rows signed to start at +1: the reference ``sign_classes``' sort is
    held to in values, order and dtype."""
    return np.unique(shifts * shifts[:, :1], axis=0)


def unique_counts_pmf(code_l, code_d, law, v_total):
    """(support, probs) of ``cross_corr_pmf``, with each pad length's peaks from
    ``codes._best_peaks`` counted by ``np.unique(return_counts=True)``: the reference its
    ``np.bincount`` count is held to."""
    v1s = [v1 for v1, p in law.items() if p != 0]
    best = _best_peaks(all_shifts(code_l), all_shifts(code_d), v1s, v_total)[:, 0]
    weights = {}
    for v1, row in zip(v1s, best):
        peaks, counts = np.unique(row, return_counts=True)
        for b, n in zip(peaks.tolist(), counts.tolist()):
            weights[b * b] = weights.get(b * b, Fraction(0)) + Fraction(n, code_l.length) * Fraction(law[v1])
    support = tuple(sorted(weights))
    return support, tuple(weights[a] for a in support)


def stacked_pair_peaks(codes, v1_span):
    """(n, n) matrix of a_tilde for every (detector code, interferer code) pair: every code's
    ``all_shifts`` matrix stacked through one ``codes._best_peaks`` search, over a uniform pad law
    on 1..``v1_span``. The reference ``rank_code_subsets``' strided shifts of the rows are held to."""
    shifts = np.vstack([all_shifts(c) for c in codes])
    best = _best_peaks(shifts, shifts, list(range(1, v1_span + 1)), v1_span)
    return best.reshape(-1, len(codes), len(codes), codes[0].length).max(axis=(0, 3))


def stacked_rank_code_subsets(m, subset_size, v1_span):
    """``rank_code_subsets`` with its pair peaks from ``stacked_pair_peaks`` of one
    ``BinarySequence`` per Hadamard row, and its subsets as a list of row tuples: the reference
    the ranking is held to in values, order and types."""
    h = hadamard_matrix(m)
    peaks = stacked_pair_peaks([BinarySequence(id=r, symbols=h[r]) for r in range(1, m)], v1_span)
    peaks = np.maximum(peaks, peaks.T)
    subsets = list(combinations(range(1, m), subset_size))
    idx = np.array(subsets) - 1
    quality = np.zeros(len(subsets), dtype=np.int64)
    for i, j in combinations(range(subset_size), 2):
        np.maximum(quality, peaks[idx[:, i], idx[:, j]], out=quality)
    return [(int(quality[s]), subsets[s]) for s in np.argsort(quality, kind="stable")]


def matrix_threshold_counts(metric, idx, r_w, count_missed):
    """Column ``idx``'s decided (or missed) trials per threshold in ``r_w``, as one trials x
    thresholds bool matrix summed over trials: the reference ``_threshold_counter``'s
    per-threshold counts are held to."""
    dec = metric[:, idx][:, None] > r_w[None, :]
    hits = ~dec if count_missed else dec
    return hits.sum(axis=0).astype(np.int64)


def matmul_joint_counts(metric, reach, r_w):
    """(true state, decided state) counts per threshold in ``r_w``, with each row's state code
    from an int64 product with the bit weights: the reference ``_joint_counts``' shift-and-add
    codes are held to."""
    n_l = reach.shape[1]
    n_states, weights = 1 << n_l, 1 << np.arange(n_l)
    true_state = reach.astype(np.int64) @ weights
    return tuple(np.bincount(true_state * n_states + (metric > rw).astype(np.int64) @ weights,
                             minlength=n_states**2).reshape(n_states, n_states) for rw in r_w)


def brute_force_pmf(code_l, code_d, v_total):
    """Pure-loop enumeration of the interferer peak pmf (test oracle)."""
    m = code_l.length
    weights = {}
    a_tilde = 0
    for v1 in range(1, v_total + 1):
        for cd in range(1, m + 1):
            laid = np.roll(code_d.symbols, -cd)
            best = 0
            for k in range(v_total + 1):
                for c in range(1, m + 1):
                    t = k - v1
                    if t >= m:
                        continue
                    sl = np.roll(code_l.symbols, -c)
                    acc = 0
                    if t < 0:
                        rng_m2 = range(v1 - k + 1, m + 1)
                    else:
                        rng_m2 = range(1, m - t + 1)
                    for m2 in rng_m2:
                        acc += int(sl[m2 - 1]) * int(laid[m2 + t - 1])
                    best = max(best, abs(acc))
            a_tilde = max(a_tilde, best)
            weights[best**2] = weights.get(best**2, 0) + 1
    total = sum(weights.values())
    return {a: n / total for a, n in sorted(weights.items())}, a_tilde


@pytest.fixture(scope="session")
def h16():
    return hadamard_matrix(16)


@pytest.fixture(scope="session")
def seq16():
    h = hadamard_matrix(16)
    return {r: BinarySequence(id=r, symbols=h[r]) for r in range(1, 16)}


@pytest.fixture
def small_scenario():
    """Tiny single-surface scenario for fast engine tests."""
    return Scenario(
        m=8, v_total=2, code_rows=(7,), n_elements=4, n_horizontal=2,
        trials=2048, seed=99,
    )


@pytest.fixture
def two_ris_scenario():
    return Scenario(
        m=16, v_total=4, code_rows=(1, 2), n_elements=8, n_horizontal=2,
        trials=2048, seed=7, p_dbm=15.0,
    )
