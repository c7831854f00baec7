"""Receiver-side correlation detector and the per-surface decision rule.

The receiver correlates the frame against every cyclic shift of a candidate
code at every window offset, takes the largest squared magnitude as the
decision metric, and declares the surface reachable when that metric exceeds
an absolute threshold. Nothing here ever reads the frame's ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

from .codes import BinarySequence, all_shifts

__all__ = ["PerRisDecision", "DetectionReport", "correlate", "detect", "run_ris_id"]


def _samples_of(y) -> np.ndarray:
    samples = getattr(y, "samples", y)
    return np.asarray(samples, dtype=np.complex128)


def correlate(y, code: BinarySequence, c: int, k: int) -> complex:
    """Correlator output d = (1/sqrt(M)) * sum_m s_{c,m} y_{m+k}.

    ``c`` selects the cyclic shift hypothesis (1..M, with M the identity) and
    ``k`` the window offset into the frame (0..len(y)-M). The 1/sqrt(M)
    normalization keeps the pure-noise output variance at the sample noise
    variance.
    """
    samples = _samples_of(y)
    m = code.length
    if not 1 <= c <= m:
        raise ValueError(f"shift hypothesis must be in 1..{m}, got {c}")
    if not 0 <= k <= len(samples) - m:
        raise ValueError(f"window offset must be in 0..{len(samples) - m}, got {k}")
    shifted = np.roll(code.symbols, -c)
    return complex(np.dot(shifted, samples[k : k + m]) / np.sqrt(m))


@lru_cache(maxsize=64)
def _shift_matrix(symbols: bytes) -> np.ndarray:
    """Read-only complex (M, M) matrix whose column c-1 is the code shifted left by c.

    Keyed by the symbols' int64 bytes, so equal codes share one matrix and a
    code rebuilt or edited in place never meets another code's matrix.
    """
    code = BinarySequence(0, np.frombuffer(symbols, dtype=np.int64))
    s = np.ascontiguousarray(all_shifts(code).T, dtype=np.complex128)
    s.flags.writeable = False
    return s


@lru_cache(maxsize=64)
def _windows(length: int, m: int) -> np.ndarray:
    """(length - m + 1, 1, m) sample indices, one length-m window per offset k."""
    idx = np.arange(length - m + 1)[:, None, None] + np.arange(m)
    idx.flags.writeable = False
    return idx


def detect(y, code: BinarySequence) -> Tuple[float, int, int]:
    """Exhaustive (c, k) search; returns (D, c_hat, k_hat).

    D is the largest |d|^2 over all M shift hypotheses and all window
    offsets. Ties are broken toward the smallest k, then the smallest c, so
    results are reproducible even though sign-flipped shift pairs produce
    exactly equal metrics. Each offset's window is one (1, M) row of a single
    stacked matmul, the product a loop over offsets would take; one 2-D
    (k, M) product may sum in another order and move the metric's last bit.
    """
    samples = _samples_of(y)
    m = code.length
    if len(samples) < m:
        raise ValueError("frame shorter than the code")
    d = samples[_windows(len(samples), m)] @ _shift_matrix(code.symbols.tobytes()) / math.sqrt(m)
    metric = (d.real**2 + d.imag**2).reshape(-1, m)  # (k, c)
    flat = int(metric.argmax())  # row-major: smallest k first, then smallest c
    k_hat, c_idx = divmod(flat, m)
    return float(metric[k_hat, c_idx]), c_idx + 1, k_hat


@dataclass(frozen=True)
class PerRisDecision:
    metric: float
    c_hat: int
    k_hat: int
    decided: bool


@dataclass(frozen=True)
class DetectionReport:
    """Outcome of one identification pass over a candidate list."""

    per_ris: dict
    threshold_used: dict

    def decided_ids(self) -> tuple:
        return tuple(sorted(i for i, d in self.per_ris.items() if d.decided))


def run_ris_id(y, candidates: Sequence[Tuple[BinarySequence, float]]) -> DetectionReport:
    """Independent detection of every candidate (code, absolute threshold r).

    Candidates are keyed by their code's surface id, which must be distinct. No
    cancellation between candidates: each decision uses the same raw frame.
    """
    per_ris = {}
    thresholds = {}
    for code, r in candidates:
        if code.id in per_ris:
            raise ValueError(f"code id {code.id} is given twice")
        metric, c_hat, k_hat = detect(y, code)
        per_ris[code.id] = PerRisDecision(
            metric=metric, c_hat=c_hat, k_hat=k_hat, decided=bool(metric > r)
        )
        thresholds[code.id] = float(r)
    return DetectionReport(per_ris=per_ris, threshold_used=thresholds)
