"""Received-frame synthesis for code-modulated reflecting surfaces.

A frame is v1 noise-only samples, M samples carrying the superposition of all
reachable surfaces' BPSK-modulated reflections, then v2 trailing noise-only
samples. Each surface applies its own sequence starting at a random cyclic
position, so the receiver knows neither the pad split nor the code phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .channel import (
    ChannelRealization,
    CorrelationMatrix,
    LinkBudget,
    RisGeometry,
    cascaded_gain,
    correlation_matrix,
    sample_channel,
)
from .codes import BinarySequence

__all__ = [
    "RisProfile",
    "FrameTruth",
    "ReceivedFrame",
    "psrp_phase",
    "noise_variance_from_bandwidth",
    "synthesize_frame",
    "substream",
    "draw_frames",
    "lay_codes",
    "frame_to_text",
    "frame_from_text",
    "TAG_FRAME",
    "TAG_RIS",
]

# substream purposes; packed with the surface id and block index into the
# second Philox key word so that every (seed, purpose, surface, block) tuple
# owns an independent, order-free random stream.
TAG_FRAME = 0
TAG_RIS = 1

_MASK64 = (1 << 64) - 1


def substream(seed: int, tag: int, ris_id: int, block: int) -> np.random.Generator:
    """Counter-style generator keyed by (seed, purpose, surface, block).

    Streams for different key tuples are independent Philox streams, so
    draws for one surface never depend on how many other surfaces exist or
    in which order they are processed.
    """
    if not 0 <= tag < 2**8 or not 0 <= ris_id < 2**16 or not 0 <= block < 2**40:
        raise ValueError("substream path component out of range")
    key = np.array([seed & _MASK64, (tag << 56) | (ris_id << 40) | block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def psrp_phase(q_symbol: int) -> float:
    """Common phase shift encoding one sequence bit: bit 1 -> 0, bit 0 -> pi.

    exp(1j * phase) is then exactly the BPSK symbol 2q - 1.
    """
    if q_symbol not in (0, 1):
        raise ValueError(f"sequence bit must be 0 or 1, got {q_symbol}")
    return 0.0 if q_symbol == 1 else float(np.pi)


def noise_variance_from_bandwidth(bw_hz: float) -> float:
    """Thermal noise power in watts: -174 dBm/Hz plus 10 log10(BW)."""
    if bw_hz <= 0:
        raise ValueError("bandwidth must be positive")
    dbm = -174.0 + 10.0 * math.log10(bw_hz)
    return 10.0 ** (dbm / 10.0) / 1000.0


@dataclass(frozen=True)
class RisProfile:
    """One surface: identity code, geometry and link budget."""

    id: int
    code: BinarySequence
    geometry: RisGeometry
    link: LinkBudget


@dataclass
class FrameTruth:
    """Everything the synthesizer drew; revealed only to the scorer."""

    v1: int
    v2: int
    c_per_ris: dict
    realizations: dict
    reachability: dict


@dataclass
class ReceivedFrame:
    """Complex sample vector of length v1 + M + v2 with its ground truth."""

    samples: np.ndarray
    truth: FrameTruth
    noise_variance: float

    def __len__(self) -> int:
        return len(self.samples)


def draw_frames(rng: np.random.Generator, v_total: int, m: int, noise_variance: float, size: int):
    """Pad splits v1, then CN(0, noise_variance) frames (size, m + v_total), in that order."""
    v1 = rng.integers(1, v_total + 1, size=size)
    y = rng.standard_normal((size, m + v_total, 2)).view(np.complex128)[..., 0]
    y *= math.sqrt(noise_variance / 2.0)
    return v1, y


def lay_codes(y: np.ndarray, v1: np.ndarray, amp: np.ndarray, codes: np.ndarray) -> None:
    """Add amp[t] * codes[t] into frame t from sample v1[t] on, in place.

    One plain slice per distinct pad split (at most v_total of them), which
    beats a two-array scatter over a whole block. Rows of zero amplitude,
    a silent surface's, would add only zeros and are skipped.
    """
    m = codes.shape[1]
    live = amp != 0
    for v in np.unique(v1):
        rows = np.flatnonzero(live & (v1 == v))
        y[rows, v : v + m] += amp[rows, None] * codes[rows]


@lru_cache(maxsize=16)
def _correlation_for(geometry: RisGeometry) -> CorrelationMatrix:
    return correlation_matrix(geometry)


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

    The pad split v1 is drawn uniformly from {1..v_total}; every surface
    independently draws a cyclic code offset from {1..M} and one channel
    realization (block fading: a single scalar gain for the whole frame).
    Passing the same seed and frame_index reproduces the frame bit for bit,
    and per-surface substreams make the result independent of the order in
    which profiles are listed. ``reachability`` maps each surface id to
    whether it reflects (without it, every surface does); ``correlations`` overrides the sinc-kernel matrix (use
    ``identity_correlation`` for uncorrelated elements). The pad split,
    noise and code offset are drawn as in the Monte Carlo engine, with a
    block of one frame; the gain is the ``cascaded_gain`` of two explicit
    ``sample_channel`` hops, which the truth records, where the engine draws
    it from its compound law.
    """
    if not profiles:
        raise ValueError("at least one surface profile is required")
    m = profiles[0].code.length
    for p in profiles:
        if p.code.length != m:
            raise ValueError("all codes must share the scenario sequence length")
    if not 1 <= v_total < m:
        raise ValueError("pad budget must satisfy 1 <= v_total < M")

    frame_rng = substream(seed, TAG_FRAME, 0, frame_index)
    v1, y = draw_frames(frame_rng, v_total, m, noise_variance, 1)
    c_per_ris, realizations, reach_map = {}, {}, {}
    for p in sorted(profiles, key=lambda q: q.id):
        rng = substream(seed, TAG_RIS, p.id, frame_index)
        if correlations is not None and p.id in correlations:
            corr = correlations[p.id]
        else:
            corr = _correlation_for(p.geometry)
        c = rng.integers(1, m + 1, size=1)
        h_ur = sample_channel(corr, p.link.beta_ur, rng)
        h_rb = sample_channel(corr, p.link.beta_rb, rng)
        h = cascaded_gain(h_ur, h_rb, power_w)
        reachable = reachability is None or bool(reachability[p.id])
        c_per_ris[p.id] = int(c[0])
        realizations[p.id] = ChannelRealization(h_ur=h_ur, h_rb=h_rb, h_tilde=h)
        reach_map[p.id] = reachable
        if reachable:
            sym, shift, start = p.code.symbols, c_per_ris[p.id], int(v1[0])
            y[0, start : start + m] += h * np.concatenate((sym[shift:], sym[:shift]))  # np.roll by -c

    truth = FrameTruth(
        v1=int(v1[0]), v2=v_total - int(v1[0]), c_per_ris=c_per_ris,
        realizations=realizations, reachability=reach_map,
    )
    return ReceivedFrame(samples=y[0], truth=truth, noise_variance=noise_variance)


# --- frame text format (golden-test interchange) ---------------------------

def frame_to_text(frame: ReceivedFrame) -> str:
    """Serialize samples and the full truth block, one value pair per line."""
    t = frame.truth
    lines = [
        f"length = {len(frame.samples)}",
        f"v1 = {t.v1}",
        f"v2 = {t.v2}",
        f"noise_variance = {float(frame.noise_variance)!r}",
    ]
    for rid in sorted(t.c_per_ris):
        real = t.realizations[rid]
        lines.append(
            f"ris {rid}: c = {t.c_per_ris[rid]}, reachable = "
            f"{int(t.reachability[rid])}, h_tilde = "
            f"{float(real.h_tilde.real)!r} {float(real.h_tilde.imag)!r}"
        )
        for name, vec in (("h_ur", real.h_ur), ("h_rb", real.h_rb)):
            vals = " ".join(f"{float(v.real)!r} {float(v.imag)!r}" for v in vec)
            lines.append(f"ris {rid} {name}: {vals}")
    for s in frame.samples:
        lines.append(f"sample: {float(s.real)!r} {float(s.imag)!r}")
    return "\n".join(lines) + "\n"


def frame_from_text(text: str) -> ReceivedFrame:
    """Parse ``frame_to_text`` output back into a frame with truth attached."""
    length = v1 = v2 = None
    noise_variance = None
    samples = []
    c_per_ris, reach, h_tilde, hops = {}, {}, {}, {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("length"):
            length = int(line.split("=", 1)[1])
        elif line.startswith("v1"):
            v1 = int(line.split("=", 1)[1])
        elif line.startswith("v2"):
            v2 = int(line.split("=", 1)[1])
        elif line.startswith("noise_variance"):
            noise_variance = float(line.split("=", 1)[1])
        elif line.startswith("sample:"):
            re_s, im_s = line.split(":", 1)[1].split()
            samples.append(complex(float(re_s), float(im_s)))
        elif line.startswith("ris"):
            head, body = line.split(":", 1)
            parts = head.split()
            rid = int(parts[1])
            if len(parts) == 2:
                fields = {}
                for kv in body.split(","):
                    key, val = kv.split("=", 1)
                    fields[key.strip()] = val.strip()
                c_per_ris[rid] = int(fields["c"])
                reach[rid] = bool(int(fields["reachable"]))
                re_s, im_s = fields["h_tilde"].split()
                h_tilde[rid] = complex(float(re_s), float(im_s))
            else:
                vals = [float(x) for x in body.split()]
                vec = np.array(vals[0::2]) + 1j * np.array(vals[1::2])
                hops.setdefault(rid, {})[parts[2]] = vec
        else:
            raise ValueError(f"unrecognized frame line: {line!r}")
    if None in (length, v1, v2, noise_variance):
        raise ValueError("frame text is missing header fields")
    if len(samples) != length:
        raise ValueError(f"expected {length} samples, found {len(samples)}")
    realizations = {
        rid: ChannelRealization(
            h_ur=hops[rid]["h_ur"], h_rb=hops[rid]["h_rb"], h_tilde=h_tilde[rid]
        )
        for rid in c_per_ris
    }
    truth = FrameTruth(
        v1=v1, v2=v2, c_per_ris=c_per_ris, realizations=realizations,
        reachability=reach,
    )
    return ReceivedFrame(
        samples=np.array(samples, dtype=np.complex128),
        truth=truth,
        noise_variance=noise_variance,
    )
