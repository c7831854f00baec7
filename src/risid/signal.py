"""Received-frame synthesis for code-modulated reflecting surfaces.

A frame is v1 noise-only samples, M samples carrying the superposition of all
reachable surfaces' BPSK-modulated reflections, then v2 trailing noise-only
samples. Each surface applies its own sequence starting at a random cyclic
position, so the receiver knows neither the pad split nor the code phase.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .channel import (
    CorrelationMatrix,
    LinkBudget,
    compound_gains,
    compound_scales,
    correlation_weights,
)
from .codes import BinarySequence, shift_table

__all__ = [
    "RisProfile",
    "FrameTruth",
    "ReceivedFrame",
    "dbm_to_watts",
    "noise_variance_from_bandwidth",
    "synthesize_frame",
    "substream",
    "draw_pads",
    "draw_noise",
    "TAG_FRAME",
    "TAG_RIS",
]

# substream purposes; packed with the surface id and block index into the
# second Philox key word so that every (seed, purpose, surface, block) tuple
# owns an independent, order-free random stream.
TAG_FRAME = 0
TAG_RIS = 1

_MASK64 = (1 << 64) - 1
_ZEROS = (0, 0, 0, 0)  # counter and buffer words of a new Philox
_frames = threading.local()  # .gen: the one generator this thread's single frames re-key


def _key(seed: int, tag: int, ris_id: int, block: int) -> tuple:
    """Philox key words of (seed, purpose, surface, block) as ints: the seed, then tag, id and block packed."""
    if not (0 <= seed <= _MASK64 and 0 <= tag < 2**8 and 0 <= ris_id < 2**16 and 0 <= block < 2**40):
        raise ValueError("substream path component out of range")
    return operator.index(seed), (tag << 56) | (ris_id << 40) | block


def substream(seed: int, tag: int, ris_id: int, block: int) -> np.random.Generator:
    """Counter-style generator keyed by (seed, purpose, surface, block), new on every call.
    Streams for different key tuples are independent Philox streams, so draws for one surface
    never depend on how many other surfaces exist or in which order they are processed."""
    # Philox casts a Python tuple's words through int64, which warns on a word >= 2**63
    key = np.array(_key(seed, tag, ris_id, block), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _frame_stream(seed: int, tag: int, ris_id: int, block: int) -> np.random.Generator:
    """``substream``'s draws from this thread's one frame generator, re-keyed in place: new key,
    zero counter and empty buffer, the state a new ``Philox(key=...)`` starts in. It never leaves
    ``synthesize_frame``, which draws each stream out before it asks for the next."""
    if not hasattr(_frames, "gen"):
        _frames.gen = np.random.Generator(np.random.Philox(0))
    _frames.gen.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": _ZEROS, "key": _key(seed, tag, ris_id, block)},
        "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return _frames.gen


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) / 1000.0


def noise_variance_from_bandwidth(bw_hz: float) -> float:
    """Thermal noise power in watts: -174 dBm/Hz plus 10 log10(BW)."""
    if bw_hz <= 0:
        raise ValueError("bandwidth must be positive")
    return dbm_to_watts(-174.0 + 10.0 * math.log10(bw_hz))


@dataclass(frozen=True)
class RisProfile:
    """One surface: identity code, geometry and link budget."""

    id: int
    code: BinarySequence
    geometry: RisGeometry
    link: LinkBudget


@dataclass
class FrameTruth:
    """Everything the synthesizer drew, revealed only to the scorer. ``reachability`` holds
    every surface id; ``c_per_ris`` and ``gains`` (each h~) only those that reflect."""

    v1: int
    v2: int
    c_per_ris: dict
    gains: dict
    reachability: dict


@dataclass
class ReceivedFrame:
    """Complex sample vector of length v1 + M + v2 with its ground truth."""

    samples: np.ndarray
    truth: FrameTruth


def draw_pads(rng: np.random.Generator, v_total: int, size: int | None = None):
    """``size`` pad splits v1, uniform on {1..v_total}: a frame stream's first draw. With no
    ``size``, one split as a scalar: the value and stream state of ``size=1``'s one element."""
    return rng.integers(1, v_total + 1, size=size)


def draw_noise(rng: np.random.Generator, out: np.ndarray, noise_variance: float) -> np.ndarray:
    """The stream's next ``len(out)`` CN(0, noise_variance) rows, written to ``out`` (rows,
    length, 2) and returned as its complex view (rows, length): m + v_total samples, or their
    coordinates in an orthonormal basis. Normals fill in C order from one stream, so rows drawn
    in pieces after ``draw_pads`` are a full draw's."""
    rng.standard_normal(out=out)
    out *= math.sqrt(noise_variance / 2.0)
    return out.view(np.complex128)[..., 0]


def synthesize_frame(
    profiles: Sequence[RisProfile],
    v_total: int,
    noise_variance: float,
    power_w: float,
    seed: int,
    frame_index: int = 0,
    reachability: Mapping[int, bool] | None = None,
    correlations: Mapping[int, CorrelationMatrix] | None = None,
) -> ReceivedFrame:
    """Synthesize one received frame.

    The pad split v1 is drawn uniformly from {1..v_total}; every reflecting
    surface independently draws a cyclic code offset from {1..M} and one
    cascaded gain h~ (block fading: a single scalar gain for the whole frame).
    Passing the same seed and frame_index reproduces the frame bit for bit,
    and per-surface substreams make the result independent of the order in
    which profiles are listed. Surface ids must be distinct and equal to their
    codes' ids. ``reachability`` maps each surface id to whether it reflects
    (without it, every surface does); a silent surface opens no substream and
    draws nothing. ``correlations`` overrides the sinc-kernel matrix with one
    of the surface's element count (``identity_correlation``: uncorrelated
    elements, drawn as Gamma(N)); neither may name an id no surface has. The
    pad split, code offset and h~ are drawn as in the Monte Carlo engine, h~
    by its compound law (``compound_scales``, then ``compound_gains``) with the
    override's ``weights`` or the geometry's ``correlation_weights``, and N from
    the geometry; the noise is one row of all L samples (``draw_noise``),
    where the engine draws chunks of rows of subspace coordinates.
    """
    if not profiles:
        raise ValueError("at least one surface profile is required")
    m = profiles[0].code.length
    correlations = correlations or {}
    seen = set()
    for p in profiles:
        if p.code.length != m:
            raise ValueError("all codes must share the scenario sequence length")
        if p.id in seen:
            raise ValueError(f"surface id {p.id} is given twice")
        if p.id != p.code.id:
            raise ValueError(f"surface id {p.id} carries the code of id {p.code.id}")
        if reachability is not None and p.id not in reachability:
            raise ValueError(f"reachability has no entry for surface id {p.id}")
        if p.id in correlations and correlations[p.id].n != p.geometry.n:
            raise ValueError(f"correlation for surface id {p.id} has {correlations[p.id].n} "
                             f"elements, its geometry {p.geometry.n}")
        seen.add(p.id)
    for name, given in (("reachability", reachability or {}), ("correlations", correlations)):
        if not seen.issuperset(given):
            raise ValueError(f"{name} names surface id {min(set(given) - seen)}, which no profile has")
    if not 1 <= v_total < m:
        raise ValueError("pad budget must satisfy 1 <= v_total < M")

    rng = _frame_stream(seed, TAG_FRAME, 0, frame_index)
    v1 = int(draw_pads(rng, v_total))
    y = draw_noise(rng, np.empty((1, m + v_total, 2)), noise_variance)
    c_per_ris, gains, reach_map = {}, {}, {}
    for p in sorted(profiles, key=lambda q: q.id):
        reach_map[p.id] = reachability is None or bool(reachability[p.id])
        if not reach_map[p.id]:
            continue
        weights = correlations[p.id].weights if p.id in correlations else correlation_weights(p.geometry)
        rng = _frame_stream(seed, TAG_RIS, p.id, frame_index)
        c = c_per_ris[p.id] = int(rng.integers(1, m + 1))
        s = compound_scales(rng, p.geometry.n, weights, 1)
        h = gains[p.id] = complex(compound_gains(rng, s, power_w, p.link.beta_ur, p.link.beta_rb)[0])
        y[0, v1 : v1 + m] += h * shift_table(p.code)[:, c - 1]  # the code shifted left by c

    truth = FrameTruth(v1=v1, v2=v_total - v1, c_per_ris=c_per_ris, gains=gains, reachability=reach_map)
    return ReceivedFrame(samples=y[0], truth=truth)
