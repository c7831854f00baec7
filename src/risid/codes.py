"""Binary identity sequences for reflecting surfaces and their correlation structure.

Each surface is assigned one row of a Sylvester-Hadamard matrix, BPSK-mapped to
a +/-1 sequence. The detector's behaviour under random cyclic offsets and
partial overlap windows is governed by integer partial cross-correlations,
which this module enumerates exactly (integer arithmetic throughout, exact
rational probabilities).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "BinarySequence",
    "CodeBook",
    "CrossCorrPmf",
    "hadamard_matrix",
    "build_codebook",
    "circular_shift",
    "all_shifts",
    "sign_classes",
    "distinct_shift_fraction",
    "partial_cross_corr",
    "cross_corr_pmf",
    "uniform_offset_law",
    "set_quality",
    "rank_code_subsets",
    "codebook_to_text",
    "codebook_from_text",
]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def hadamard_matrix(m: int) -> np.ndarray:
    """Sylvester-Hadamard matrix of order ``m`` (power of two), entries +/-1.

    Satisfies H @ H.T == m * I exactly; row 0 is all ones.
    """
    if not _is_power_of_two(m):
        raise ValueError(f"Hadamard order must be a power of two, got {m}")
    h = np.array([[1]], dtype=np.int64)
    while h.shape[0] < m:
        h = np.block([[h, h], [h, -h]])
    return h


@dataclass(frozen=True, eq=False)
class BinarySequence:
    """One surface identity: +/-1 symbol vector of power-of-two length.

    ``id`` is the surface identifier the sequence is bound to; ``row`` records
    which Hadamard row it came from (used by the codebook text format).
    """

    id: int
    symbols: np.ndarray
    row: int = -1

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


def circular_shift(seq: BinarySequence, c: int) -> BinarySequence:
    """Shift the symbols left by ``c`` positions, cyclically.

    Element m of the output is element ((c+m-1) mod M)+1 of the input in
    1-based terms; shifting by M (or 0) is the identity.
    """
    m = seq.length
    return BinarySequence(seq.id, np.roll(seq.symbols, -(c % m)), seq.row)


def all_shifts(seq: BinarySequence) -> np.ndarray:
    """(M, M) integer matrix whose row c-1 is the sequence shifted left by c.

    Row M-1 (shift by M) equals the unshifted sequence.
    """
    m = seq.length
    idx = (np.arange(1, m + 1)[:, None] + np.arange(m)[None, :]) % m
    return seq.symbols[idx]


def sign_classes(shifts: np.ndarray) -> np.ndarray:
    """One row per class of ``shifts`` rows equal up to sign, signed to start at +1.

    Rows are +/-1 sequences such as ``all_shifts`` returns; the classes come
    back in ascending lexicographic order, in the dtype of ``shifts``.
    """
    return np.unique(shifts * shifts[:, :1], axis=0)


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

    m: int
    entries: tuple
    excluded_rows: tuple

    def __post_init__(self):
        for a, b in combinations(self.entries, 2):
            if int(np.dot(a.symbols, b.symbols)) != 0:
                raise ValueError(f"codes for rows {a.row} and {b.row} are not orthogonal")
        for a in self.entries:
            if int(np.dot(a.symbols, a.symbols)) != self.m:
                raise ValueError("sequence energy must equal its length")
            if np.all(a.symbols == 1):
                raise ValueError("the all-ones row is not a usable identity")

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def rows(self) -> tuple:
        return tuple(e.row for e in self.entries)


def build_codebook(m: int, assigned_rows: Sequence[int]) -> CodeBook:
    """Codebook whose l-th entry is Hadamard row ``assigned_rows[l]``.

    Row 0 is rejected: a constant reflection pattern is shift-degenerate and
    indistinguishable from a static scatterer.
    """
    rows = list(assigned_rows)
    if len(set(rows)) != len(rows):
        raise ValueError(f"assigned rows must be distinct, got {rows}")
    h = hadamard_matrix(m)
    entries = []
    for l, r in enumerate(rows, start=1):
        if r == 0:
            raise ValueError(
                "row 0 is the all-ones sequence; it applies no modulation and "
                "cannot identify a surface"
            )
        if not 0 < r < m:
            raise ValueError(f"row index {r} out of range 1..{m - 1}")
        entries.append(BinarySequence(id=l, symbols=h[r], row=r))
    excluded = tuple(sorted(set(range(m)) - set(rows)))
    return CodeBook(m=m, entries=tuple(entries), excluded_rows=excluded)


def partial_cross_corr(
    code_l: BinarySequence, code_d: BinarySequence, c: int, k: int, v1: int
) -> int:
    """Signed overlap correlation between a shift hypothesis and a received code.

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


def uniform_offset_law(v_total: int) -> dict:
    """Uniform law for the number of leading pad samples, on {1..v_total}."""
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

    def __post_init__(self):
        if abs(sum(self.probs) - 1) > Fraction(1, 10**12):
            raise ValueError("probabilities must sum to 1")
        if any(p < 0 for p in self.probs):
            raise ValueError("probabilities must be nonnegative")
        for a in self.support:
            root = int(round(a**0.5))
            if a < 0 or root * root != a:
                raise ValueError(f"support value {a} is not a perfect square")
        if self.support and self.a_tilde**2 < max(self.support):
            raise ValueError("a_tilde cannot be below the largest support peak")


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
    {0..v_total}; the squared maximum is one support sample. ``v_total``
    (the total pad budget bounding the window search) defaults to the
    largest value in the law's support. No closed-form shortcut: this
    enumeration is the reference for everything downstream.
    """
    if isinstance(v1_law, int):
        v1_law = uniform_offset_law(v1_law)
    law = {int(v): Fraction(p) for v, p in v1_law.items()}
    if abs(sum(law.values()) - 1) > Fraction(1, 10**12):
        raise ValueError("v1 law must sum to 1")
    m = code_l.length
    if code_d.length != m:
        raise ValueError("codes must share one sequence length")
    if v_total is None:
        v_total = max(law)
    sl = all_shifts(code_l)
    sd = all_shifts(code_d)

    weights: dict[int, Fraction] = {}
    a_tilde = 0
    offset_p = Fraction(1, m)
    for v1, pv in law.items():
        if pv == 0:
            continue
        # best |A| per interferer offset, maximised over (c, k)
        best = np.zeros(m, dtype=np.int64)
        for k in range(v_total + 1):
            t = k - v1
            if t >= m:
                continue
            if t < 0:
                m2 = np.arange(v1 - k + 1, m + 1)
            else:
                m2 = np.arange(1, m - t + 1)
            a = sl[:, m2 - 1] @ sd[:, m2 + t - 1].T  # (c, c_d)
            np.maximum(best, np.abs(a).max(axis=0), out=best)
        a_tilde = max(a_tilde, int(best.max()))
        for b in best:
            key = int(b) ** 2
            weights[key] = weights.get(key, Fraction(0)) + offset_p * pv
    support = tuple(sorted(weights))
    probs = tuple(weights[a] for a in support)
    return CrossCorrPmf(support=support, probs=probs, a_tilde=a_tilde)


def set_quality(codes: Sequence[BinarySequence], v1_span: int) -> int:
    """Worst-pair correlation peak of a code set; lower is better.

    Maximum of a_tilde over all ordered pairs (detector code, interferer
    code). A value of M means some pair is a cyclic shift of another and the
    surfaces cannot be told apart under offset uncertainty.
    """
    if len(codes) < 2:
        raise ValueError("set quality needs at least two codes")
    worst = 0
    for cl in codes:
        for cd in codes:
            if cl is cd:
                continue
            worst = max(worst, cross_corr_pmf(cl, cd, v1_span).a_tilde)
    return worst


def rank_code_subsets(m: int, subset_size: int, v1_span: int):
    """All usable-row subsets of the given size ranked by set quality.

    Returns a list of (quality, rows) sorted ascending by quality then rows;
    element 0 is the canonical best set, element -1 the canonical worst.
    Pairwise peaks are precomputed once, so this stays cheap for m <= 32.
    """
    h = hadamard_matrix(m)
    seqs = {r: BinarySequence(id=r, symbols=h[r], row=r) for r in range(1, m)}
    pair_peak = {}
    for a in seqs:
        for b in seqs:
            if a != b:
                pair_peak[(a, b)] = cross_corr_pmf(seqs[a], seqs[b], v1_span).a_tilde
    ranked = []
    for rows in combinations(sorted(seqs), subset_size):
        q = max(pair_peak[(a, b)] for a in rows for b in rows if a != b)
        ranked.append((q, rows))
    ranked.sort()
    return ranked


# --- codebook text format -------------------------------------------------

def codebook_to_text(book: CodeBook) -> str:
    """Serialize a codebook: length, row indices, then one +/- line per code."""
    lines = [f"m = {book.m}", f"rows = {', '.join(str(r) for r in book.rows)}"]
    for e in book.entries:
        syms = " ".join("+" if s > 0 else "-" for s in e.symbols)
        lines.append(f"code {e.id}: {syms}")
    return "\n".join(lines) + "\n"


def codebook_from_text(text: str) -> CodeBook:
    """Parse ``codebook_to_text`` output and re-validate all invariants.

    Symbol lines must reproduce the named Hadamard rows exactly; anything
    else is rejected rather than silently repaired.
    """
    m = None
    rows = None
    symbol_lines = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("m "):
            m = int(line.split("=", 1)[1])
        elif line.startswith("rows"):
            rows = [int(x) for x in line.split("=", 1)[1].split(",")]
        elif line.startswith("code "):
            head, syms = line.split(":", 1)
            cid = int(head.split()[1])
            vals = [1 if t == "+" else -1 for t in syms.split()]
            symbol_lines[cid] = np.array(vals, dtype=np.int64)
        else:
            raise ValueError(f"unrecognized codebook line: {line!r}")
    if m is None or rows is None:
        raise ValueError("codebook text must define both m and rows")
    book = build_codebook(m, rows)
    for e in book.entries:
        if e.id in symbol_lines and not np.array_equal(e.symbols, symbol_lines[e.id]):
            raise ValueError(f"symbols for code {e.id} do not match row {e.row}")
    return book
