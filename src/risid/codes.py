"""Binary identity sequences for reflecting surfaces and their correlation structure.

Each surface is assigned one row of a Sylvester-Hadamard matrix, BPSK-mapped to
a +/-1 sequence. The detector's behaviour under random cyclic offsets and
partial overlap windows is governed by integer partial cross-correlations,
which this module enumerates exactly (exact integer values computed by float64
products, exact rational probabilities).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "BinarySequence",
    "CodeBook",
    "CrossCorrPmf",
    "hadamard_matrix",
    "build_codebook",
    "all_shifts",
    "shift_table",
    "sign_classes",
    "distinct_shift_fraction",
    "cross_corr_pmf",
    "uniform_offset_law",
    "rank_code_subsets",
]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _sylvester_rows(m: int, rows: Sequence[int]) -> np.ndarray:
    """Rows ``rows`` of the order-``m`` Sylvester-Hadamard matrix (``m`` a power of two), by
    doubling: row r of H_2k is row (r mod k) of H_k, then that row negated where r has bit k."""
    if not _is_power_of_two(m):
        raise ValueError(f"Hadamard order must be a power of two, got {m}")
    r = np.asarray(rows, dtype=np.int64).reshape(-1, 1)
    h = np.ones((len(r), m), dtype=np.int64)
    k = 1
    while k < m:
        np.multiply(h[:, :k], np.where(r & k, -1, 1), out=h[:, k : 2 * k])
        k *= 2
    return h


def hadamard_matrix(m: int) -> np.ndarray:
    """Sylvester-Hadamard matrix of order ``m`` (power of two), entries +/-1: H @ H.T == m * I
    exactly, and row 0 is all ones."""
    return _sylvester_rows(m, range(m))


@dataclass(frozen=True, eq=False)
class BinarySequence:
    """One surface identity: +/-1 symbol vector of power-of-two length.

    ``id`` is the surface identifier the sequence is bound to.
    """

    id: int
    symbols: np.ndarray

    def __post_init__(self):
        sym = np.asarray(self.symbols, dtype=np.int64)
        if sym.ndim != 1 or not _is_power_of_two(sym.size):
            raise ValueError("symbol vector length must be a power of two")
        if not np.all(np.abs(sym) == 1):
            raise ValueError("symbols must all be +1 or -1")
        object.__setattr__(self, "symbols", sym)

    @property
    def length(self) -> int:
        return int(self.symbols.size)


def all_shifts(seq: BinarySequence) -> np.ndarray:
    """(M, M) integer matrix whose row c-1 is the sequence shifted left by c.

    Row M-1 (shift by M) equals the unshifted sequence.
    """
    m = seq.length
    return np.lib.stride_tricks.sliding_window_view(np.tile(seq.symbols, 2), m)[1 : m + 1].copy()


def shift_table(seq: BinarySequence) -> np.ndarray:
    """Read-only complex (M, M) table whose column c-1 is the sequence shifted left by c: the
    detector correlates with it and frames lay each code from its columns. Cached by the symbols'
    int64 bytes, so equal codes share one table and a code edited in place never meets another's."""
    return _shift_table(seq.symbols.tobytes())


@lru_cache(maxsize=64)
def _shift_table(symbols: bytes) -> np.ndarray:
    table = all_shifts(BinarySequence(0, np.frombuffer(symbols, np.int64))).T.astype(np.complex128, order="C")
    table.flags.writeable = False
    return table


def sign_classes(shifts: np.ndarray) -> np.ndarray:
    """One row per class of ``shifts`` rows equal up to sign, signed to start at +1.

    Rows are +/-1 sequences such as ``all_shifts`` returns; the classes come
    back in ascending lexicographic order, in the dtype of ``shifts``: one stable argsort of
    each row's signs, signed to start at +1, as one ``np.void`` key of bytes, keeping the
    first row of each run of equal keys.
    """
    keys = (shifts == shifts[:, :1]).view(f"V{shifts.shape[1]}").ravel()
    order = np.argsort(keys, kind="stable")
    rows = order[np.concatenate(([True], keys[order[1:]] != keys[order[:-1]]))]
    return shifts[rows] * shifts[rows, :1]


def distinct_shift_fraction(seq: BinarySequence) -> float:
    """Fraction of cyclic shifts that are distinct up to global sign.

    Correlator outputs at two shifts whose codes differ only in sign have
    identical magnitude, so only this fraction of the M shift hypotheses are
    distinct random variables. Hadamard rows with the top bit set attain the
    maximum of 0.5; low rows can drop to 1/M.
    """
    return len(sign_classes(all_shifts(seq))) / seq.length


@dataclass(frozen=True)
class CodeBook:
    """Lookup table mapping surface ids (1-based positions) to sequences."""

    entries: tuple


def build_codebook(m: int, assigned_rows: Sequence[int]) -> CodeBook:
    """Codebook whose l-th entry is Hadamard row ``assigned_rows[l]``.

    Row 0 is rejected: a constant reflection pattern is shift-degenerate and
    indistinguishable from a static scatterer.
    """
    rows = list(assigned_rows)
    if len(set(rows)) != len(rows):
        raise ValueError(f"assigned rows must be distinct, got {rows}")
    for r in rows:
        if r == 0:
            raise ValueError(
                "row 0 is the all-ones sequence; it applies no modulation and "
                "cannot identify a surface"
            )
        if not 0 < r < m:
            raise ValueError(f"row index {r} out of range 1..{m - 1}")
    codes = _sylvester_rows(m, rows)
    entries = (BinarySequence(id=l, symbols=s) for l, s in enumerate(codes, 1))
    return CodeBook(entries=tuple(entries))


def uniform_offset_law(v_total: int) -> dict:
    """Uniform law for the number of leading pad samples, on {1..v_total}."""
    if v_total < 1:
        raise ValueError(f"v_total must be at least 1, got {v_total}")
    p = Fraction(1, v_total)
    return {v1: p for v1 in range(1, v_total + 1)}


@dataclass(frozen=True)
class CrossCorrPmf:
    """Distribution of the squared correlation peak left by an interferer.

    ``support`` holds the distinct values of |A|^2 where A is the signed
    overlap correlation at the detector's maximising shift/offset hypothesis;
    ``probs`` are exact rational probabilities over the enumeration of the
    interferer's cyclic offset and the pad length. ``a_tilde`` is the largest
    |A| magnitude seen anywhere in the enumeration.
    """

    support: tuple
    probs: tuple
    a_tilde: int


def _best_peaks(sl: np.ndarray, sd: np.ndarray, v1s: Sequence[int], v_total: int) -> np.ndarray:
    """Largest |A| per (v1, reference code, interferer row), over every c and k.

    ``sl`` stacks the ``all_shifts`` matrices of the reference codes (M rows
    each); ``sd`` holds interferer sequences as laid, one per row. Window
    offset k meets pad length v1 only through t = k - v1, so each t takes one
    float64 product, exact because its entries are integers of size <= M.
    Windows with |t| >= M miss the signal block and add nothing.
    """
    n_ref, m = sl.shape[0] // sl.shape[1], sl.shape[1]
    sl = sl.astype(np.float64)
    sd = sd.astype(np.float64)
    a = np.empty((len(sl), len(sd)))  # one product buffer for every t
    best = np.zeros((len(v1s), n_ref, len(sd)), dtype=np.int64)
    for t in range(max(-max(v1s), 1 - m), min(v_total - min(v1s), m - 1) + 1):
        np.matmul(sl[:, max(-t, 0) : m - max(t, 0)], sd[:, max(t, 0) : m + min(t, 0)].T, out=a)
        peak = np.abs(a, out=a).reshape(n_ref, m, -1).max(axis=1).astype(np.int64)
        for j, v1 in enumerate(v1s):
            if -v1 <= t <= v_total - v1:
                np.maximum(best[j], peak, out=best[j])
    return best


def cross_corr_pmf(
    code_l: BinarySequence,
    code_d: BinarySequence,
    v1_law: Mapping[int, Fraction] | int,
    v_total: int | None = None,
) -> CrossCorrPmf:
    """Exact pmf of the interferer's squared correlation peak.

    Enumerates every interferer cyclic offset c_d in {1..M} (uniform) jointly
    with every pad length v1 from ``v1_law`` (an int means uniform on
    {1..v1_law}). For each combination the detector's search maximises |A|
    over all shift hypotheses c in {1..M} and window offsets k in
    {0..v_total}; the squared maximum is one support sample. ``v_total``, the
    pad budget, defaults to the law's largest key with mass. The law's mass
    must be nonnegative, sum to 1 and lie on 1..min(v_total, M-1): the
    interferer's M samples end inside the frame's M + v_total. No closed-form
    shortcut: this enumeration is the reference for everything downstream.
    """
    if isinstance(v1_law, int):
        v1_law = uniform_offset_law(v1_law)
    law = {int(v): Fraction(p) for v, p in v1_law.items()}
    if abs(sum(law.values()) - 1) > Fraction(1, 10**12):
        raise ValueError("v1 law must sum to 1")
    if any(p < 0 for p in law.values()):
        raise ValueError("v1 law probabilities must be nonnegative")
    m = code_l.length
    if code_d.length != m:
        raise ValueError("codes must share one sequence length")
    v1s = [v1 for v1, pv in law.items() if pv != 0]
    if v_total is None:
        v_total = max(v1s)
    if not all(1 <= v1 < m for v1 in v1s):
        raise ValueError(f"v1 law support must lie in 1..{m - 1}, got {sorted(v1s)}")
    if max(v1s) > v_total:
        raise ValueError(f"v1 law support must lie in 1..v_total = {v_total}, got {sorted(v1s)}")
    best = _best_peaks(all_shifts(code_l), all_shifts(code_d), v1s, v_total)[:, 0]

    weights: dict[int, Fraction] = {}
    for v1, row in zip(v1s, best):
        counts = np.bincount(row)
        peaks = np.flatnonzero(counts)
        for b, n in zip(peaks.tolist(), counts[peaks].tolist()):
            weights[b * b] = weights.get(b * b, Fraction(0)) + Fraction(n, m) * law[v1]
    support = tuple(sorted(weights))
    probs = tuple(weights[a] for a in support)
    return CrossCorrPmf(support=support, probs=probs, a_tilde=int(best.max()))


def rank_code_subsets(m: int, subset_size: int, v1_span: int):
    """All usable-row subsets of the given size ranked by set quality.

    Returns a list of (quality, rows) sorted ascending by quality then rows;
    element 0 is the canonical best set, element -1 the canonical worst.
    The pair peaks of all m-1 usable rows come from one batched search: the
    ``all_shifts`` matrices of every row, each row also laid at every offset.
    """
    if not 2 <= subset_size <= m - 1:
        raise ValueError(f"subset_size must be in 2..{m - 1}, got {subset_size}")
    if not 1 <= v1_span <= m - 1:
        raise ValueError(f"v1_span must be in 1..{m - 1}, got {v1_span}")
    rows = np.tile(hadamard_matrix(m)[1:], 2)
    shifts = np.lib.stride_tricks.sliding_window_view(rows, m, axis=1)[:, 1:].reshape(-1, m)
    best = _best_peaks(shifts, shifts, range(1, v1_span + 1), v1_span)
    peaks = best.reshape(v1_span, m - 1, m - 1, m).max(axis=(0, 3))
    peaks = np.maximum(peaks, peaks.T)
    subsets = list(combinations(range(1, m), subset_size))
    idx = np.fromiter(chain.from_iterable(subsets), np.intp).reshape(-1, subset_size) - 1
    quality = np.zeros(len(subsets), dtype=np.int64)
    for i, j in combinations(range(subset_size), 2):
        np.maximum(quality, peaks[idx[:, i], idx[:, j]], out=quality)
    # combinations come in lexicographic order, so a stable sort keeps ties by rows
    order = np.argsort(quality, kind="stable")
    return list(zip(quality[order].tolist(), map(subsets.__getitem__, order.tolist())))
