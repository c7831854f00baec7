"""Seeded, block-deterministic trial runner for detection experiments.

Trials are processed in fixed-size blocks; every block draws its randomness
from counter-keyed substreams (seed, purpose, surface, block index), so
results are bit-identical no matter how blocks are scheduled across workers,
and extending a run (rare-event escalation) never perturbs earlier trials.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .channel import chunk_rows, compound_gains, compound_scales
from .codes import all_shifts, sign_classes
from .signal import TAG_FRAME, TAG_RIS, draw_noise, draw_pads, substream

__all__ = [
    "BLOCK",
    "TrialPlan",
    "Estimate",
    "ConfusionMatrix",
    "AveragedMetrics",
    "wilson_interval",
    "estimate_pf",
    "decision_sweep",
    "confusion",
    "averaged_metrics",
]

BLOCK = 8192  # trials per randomness block; fixed so results never depend on scheduling
MAX_PASS_BYTES = 2**30  # most memory a config may ask of one pass (``pass_bytes``)
MAX_THREADS = 64  # most worker threads; each holds a block's arrays (``pass_bytes``)

ESCALATION_FACTOR = 10
ESCALATION_CAP = 10_000_000
MIN_EVENTS = 50

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


def wilson_interval(events: int, trials: int):
    """Wilson score interval for a binomial proportion.

    The bounds are exactly 0 with no events and exactly 1 with no
    non-events, where the formula leaves rounding residue (2e-19 at n=1000).
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    z = _Z95
    p = events / trials
    denom = 1.0 + z**2 / trials
    center = (p + z**2 / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z**2 / (4 * trials**2))
    lo = 0.0 if events == 0 else max(0.0, center - half)
    hi = 1.0 if events == trials else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class TrialPlan:
    """What to simulate: scenario, how many trials, seed, escalation, workers.

    The scenario object must provide m, v_total, power_w, noise_variance_w
    and sim_profiles() (see cli.Scenario).
    """

    scenario: object
    trials: int
    seed: int
    escalate: bool = True
    max_trials: int = ESCALATION_CAP
    threads: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("at least one trial is required")
        if self.max_trials < self.trials:
            raise ValueError("escalation cap below the base trial count")
        if not 1 <= self.threads <= MAX_THREADS:
            raise ValueError(f"worker threads must be in 1..{MAX_THREADS}, got {self.threads}")

    @cached_property
    def profiles(self) -> list:
        """The scenario's ``sim_profiles()`` in ascending id order, resolved once per plan."""
        return sorted(self.scenario.sim_profiles(), key=lambda p: p.id)


@dataclass(frozen=True)
class Estimate:
    """Binomial estimate with its 95% Wilson interval."""

    value: float
    ci_low: float
    ci_high: float
    events: int
    trials: int
    low_confidence: bool = False

    @property
    def std_error(self) -> float:
        p = self.value
        return math.sqrt(max(p * (1 - p), 1e-300) / self.trials)


def _estimate(events, trials: int) -> Estimate:
    k = int(events)
    lo, hi = wilson_interval(k, trials)
    return Estimate(
        value=k / trials, ci_low=lo, ci_high=hi, events=k, trials=trials,
        low_confidence=k < MIN_EVENTS,
    )


def _thresholds_w(plan: TrialPlan, r_bars: Sequence[float]) -> np.ndarray:
    """Normalized thresholds r-bar as absolute metric thresholds in watts."""
    sn2 = plan.scenario.noise_variance_w
    return np.array([r**2 * sn2 for r in r_bars])


def _chunk_rows(k: int) -> int:
    """Block rows per correlator product with k columns: ``channel.chunk_rows``, at least 64 (a
    product of fewer rows runs slower per row) and at most BLOCK. Chunks start at a call's first row."""
    return min(BLOCK, chunk_rows(k, 64))


def pass_bytes(m: int, v_total: int, rows: Sequence[int], threads: int = 1, n: int = 0) -> int:
    """Upper bound on the bytes of one pass with ``threads`` workers, for Sylvester-Hadamard
    ``rows`` (row r's shifts fall in 2**floor(log2 r) sign classes): m x m matrices, W, its SVD
    and A (L x K), a v_total x m x R table per surface, and per worker (the calling thread and
    each pool thread, ``_run_blocks``) the ``_Block`` it scores or holds for the next pass: two
    BLOCK-long vectors for the pad splits and five per surface (metric, reachability, flat
    table rows, scales s and the scored rows' gains), and one chunk's noise, parts, gathered
    table rows, products (``_chunk_rows`` x (R + R + R + K), twice) and maxima. ``n`` is the
    element count of correlated surfaces (0: uncorrelated), which adds six N x N arrays for the
    gain weights (``channel.correlation_matrix``, whose build raises peak RSS by 5.1-5.3 of
    them: R, eigh's copy of it, its eigenvectors and workspace) and per worker one chunk of
    ``channel.chunk_rows(n, 4)`` x N exponential draws (``channel.compound_scales``)."""
    l, k = m + v_total, (v_total + 1) * sum(1 << (r.bit_length() - 1) for r in rows if r > 0)
    shared = (2 + 2 * len(rows)) * m * m + 4 * l * k + len(rows) * v_total * m * min(l, k) + 6 * n * n
    block = (BLOCK * (2 + 5 * len(rows)) + _chunk_rows(k) * (6 * min(l, k) + 2 * k + len(rows))
             + chunk_rows(n, 4) * n)
    return 8 * (shared + threads * block)


_memo: dict = {}  # "last": (key, subspace) of the last code set (``_subspace``)
_pools: dict = {}  # thread count -> this process's pool of that many threads (``_pool``)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_pools.clear)  # a forked child has none of the threads


def _build_subspace(shift_mats, m: int, v_total: int):
    """The correlator in the range of its own matrix: (U, A, starts, tables), read-only.

    W (L x K, L = m + v_total) holds a column per window offset and ``sign_classes``
    row of each code (``shift_mats``: its ``all_shifts``), over sqrt(m): W^T y are the
    outputs ``detect`` searches, up to sign. U is an orthonormal basis of its range
    (rank R, by SVD) and A = U^T W, so W^T y = (U^T y) A. Surface j owns the columns
    from ``starts[j]`` on, and ``tables[j][v1 - 1, c - 1]`` is U^T of its code shifted
    by c, laid from v1.
    """
    pads = [np.pad(sign_classes(s).T / math.sqrt(m), ((v_total, v_total), (0, 0))) for s in shift_mats]
    blocks = [np.hstack([p[v_total - k : v_total - k + m + v_total] for k in range(v_total + 1)]) for p in pads]
    w = np.hstack(blocks)
    u, sv, _ = np.linalg.svd(w, full_matrices=False)
    u = u[:, sv > sv[0] * max(w.shape) * np.finfo(float).eps]
    starts = np.cumsum([0] + [b.shape[1] for b in blocks[:-1]])
    tables = [np.stack([f @ u[v : v + m] for v in range(1, v_total + 1)])
              for f in (s.astype(np.float64) for s in shift_mats)]  # one cast per code, not per v
    sub = (u, u.T @ w, starts, tables)
    for arr in (*sub[:3], *tables):
        arr.flags.writeable = False
    return sub


def _subspace(profs, m: int, v_total: int):
    """``_build_subspace`` of the surfaces' codes, kept for the next call: that call returns
    the same arrays while m, v_total and every code's ``all_shifts`` are unchanged, and
    otherwise drops them before it builds, so two code sets' arrays are never held at once.
    Each pass keeps the arrays it found or built, so concurrent passes stay correct."""
    shift_mats = [all_shifts(p.code) for p in profs]
    last = _memo.get("last")
    if last and last[0][:2] == (m, v_total) and len(last[0][2]) == len(shift_mats) and all(
            map(np.array_equal, last[0][2], shift_mats)):
        return last[1]
    _memo.clear()
    del last  # its arrays go before the new ones are built
    sub = _build_subspace(shift_mats, m, v_total)
    _memo["last"] = (m, v_total, shift_mats), sub
    return sub


def __getattr__(name: str):
    """``ThreadPoolExecutor``, imported when first read, so a process whose passes all run one
    worker never imports ``concurrent.futures``."""
    if name != "ThreadPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor


def _pool(threads: int):
    """This process's pool of ``threads`` threads, remade when ``ThreadPoolExecutor`` names
    another class (a dropped pool's idle threads end once it is collected)."""
    executor = globals().get("ThreadPoolExecutor") or __getattr__("ThreadPoolExecutor")
    pool = _pools.get(threads)
    if type(pool) is not executor:
        pool = _pools[threads] = executor(max_workers=threads)
    return pool


class _Block:
    """Block ``blk``'s streams, drawn in row order up to the last row scored so far.

    Making a block opens the frame stream and draws the pad splits, then per drawn surface, in
    id order, opens its stream and draws the fair coin (only under the coin law), the code
    offsets and the compound-law scales s (``channel.compound_scales``), full-size; a surface
    forced off opens none. Every ``score`` continues the row-ordered draws from the first row
    not yet drawn: each surface's gain pairs (``channel.compound_gains``), then the noise as R
    coordinates in the basis U (``_subspace``), one correlator chunk at a time. So rows scored
    over several calls see the draws of one call. D is the largest |(U^T y) A|^2 over each
    code's columns, over chunks of ``_chunk_rows`` rows from the call's first row, each product one
    shape. A product row's bits depend neither on the chunk's other rows nor on its place in it.
    Each chunk draws its noise rows into one reused buffer, then adds every drawn surface's gain
    (0 where silent) times its table row, in id order, so a block holds one chunk of
    coordinates and a few block-long vectors per surface.
    """

    def __init__(self, plan: TrialPlan, law: Mapping, profs, sub, blk: int):
        scn, self.plan, self.sub, self.blk = plan.scenario, plan, sub, blk
        self.drawn, self.frame = 0, substream(plan.seed, TAG_FRAME, 0, blk)  # drawn: rows drawn
        v1 = draw_pads(self.frame, scn.v_total, BLOCK)
        self.reach, self.surfaces = np.zeros((BLOCK, len(profs)), dtype=bool), []
        for j, p in enumerate(profs):  # surfaces: (column, profile, stream, flat table rows, scales s)
            rule = law.get(p.id, None)
            if rule is False:
                continue
            rs = substream(plan.seed, TAG_RIS, p.id, blk)
            self.reach[:, j] = rs.random(BLOCK) < 0.5 if rule is None else rule
            at = (v1 - 1) * scn.m + rs.integers(1, scn.m + 1, size=BLOCK) - 1
            self.surfaces.append((j, p, rs, at, compound_scales(rs, p.n, p.gain_weights, BLOCK)))

    def score(self, stop: int):
        """Decision metric and true reachability of the rows from the first not yet drawn to
        ``stop``."""
        scn, (_, a, starts, tables) = self.plan.scenario, self.sub
        r0, sn2 = self.drawn, scn.noise_variance_w  # a property: read once, not once per chunk
        adds = []  # per drawn surface: gain of each scored row, flat table row, table as rows
        for j, p, rs, at, s in self.surfaces:
            g = compound_gains(rs, s[r0:stop], scn.power_w, p.beta_ur, p.beta_rb)
            g[~self.reach[r0:stop, j]] = 0.0
            adds.append((g, at[r0:stop], tables[j].reshape(-1, a.shape[0])))
        self.drawn = stop
        step = _chunk_rows(a.shape[1])
        noise = np.empty((step, a.shape[0], 2))
        parts = np.zeros((2, step, a.shape[0]))  # real products need contiguous real and imaginary parts
        prods = np.empty((2, step, a.shape[1]))
        metric = np.empty((stop - r0, self.reach.shape[1]))
        for i0 in range(0, stop - r0, step):  # call rows [i0, i1) in chunk rows [0, i1 - i0)
            i1 = min(i0 + step, stop - r0)
            z = draw_noise(self.frame, noise[: i1 - i0], sn2)
            re, im = parts[0, : i1 - i0], parts[1, : i1 - i0]
            re[:], im[:] = z.real, z.imag
            for g, at, table in adds:
                row = table.take(at[i0:i1], axis=0)
                re += g.real[i0:i1, None] * row
                im += g.imag[i0:i1, None] * row
            np.square(np.matmul(parts, a, out=prods), out=prods)
            prods[0] += prods[1]
            metric[i0:i1] = np.maximum.reduceat(prods[0, : i1 - i0], starts, axis=1)
        return metric, self.reach[r0:stop]


def _run_blocks(plan: TrialPlan, law: Mapping, t0: int, t1: int, consume, held: dict | None = None):
    """Apply ``consume(D, reach)`` to every block slice in [t0, t1).

    ``law`` maps a surface id to True (always reachable) or False (never);
    a missing id, or None, draws an independent fair coin per trial.
    ``consume`` must return a tuple of integer ndarrays; partial results
    are summed, which keeps the reduction order-free. Each block is scored
    by one ``_Block``, which draws each stream up to its last scored trial
    and every earlier draw full-size, so trial t sees the same draws and
    the same metric bits regardless of the total trial count or how a run
    is split into passes. ``held`` keeps the block each pass stops in (by
    default this pass's own dict). A pass starts at trial 0, or at ``t1`` of
    the last pass over the same ``held``, and scores on from that block's
    last drawn row. A pass over n blocks runs min(T, n) of the plan's T
    workers: the calling thread scores every min(T, n)-th block from the
    first, and a pool of T - 1 threads (``_pool``) the rest, so a one-block
    pass starts no pool. A block's own worker, the caller or a pool thread,
    moves it in and out, so no more blocks are live than workers.
    """
    profs = plan.profiles
    sub = _subspace(profs, plan.scenario.m, plan.scenario.v_total)
    held = {} if held is None else held

    def one_block(blk: int):
        stop = min(t1 - blk * BLOCK, BLOCK)
        block = held.pop(blk, None) or _Block(plan, law, profs, sub, blk)
        out = consume(*block.score(stop))
        if stop < BLOCK:
            held[blk] = block
        return out

    blocks = range(t0 // BLOCK, (t1 - 1) // BLOCK + 1)
    step = min(plan.threads, len(blocks))
    rest = [b for i, b in enumerate(blocks) if i % step]
    pooled = _pool(plan.threads - 1).map(one_block, rest) if rest else ()
    partials = [one_block(b) for b in blocks[::step]] + list(pooled)
    return tuple(sum(parts[1:], parts[0]) for parts in zip(*partials))


def _threshold_counter(plan: TrialPlan, target_ris: int, r_bars, count_missed: bool):
    """``consume`` tallying the target's decided (or missed) trials per threshold: a trial is
    decided where its metric exceeds the threshold, and missed elsewhere."""
    ids = [p.id for p in plan.profiles]
    if target_ris not in ids:
        raise ValueError(f"no surface has id {target_ris}; the scenario's ids are {ids}")
    idx = ids.index(target_ris)
    r_w = _thresholds_w(plan, r_bars)

    def consume(metric, reach):
        col = metric[:, idx]
        decided = np.array([np.count_nonzero(col > rw) for rw in r_w], dtype=np.int64)
        return (len(col) - decided if count_missed else decided,)

    return consume


def _escalated(plan: TrialPlan, law: Mapping, consume) -> Estimate:
    """One-threshold count, extended tenfold up to the cap until 50 events. Every pass hands
    the block it stops in to the next (``_run_blocks``' ``held``), so each block opens its
    streams once and draws each row once over all passes."""
    total, held = plan.trials, {}
    (events,) = _run_blocks(plan, law, 0, total, consume, held)
    while plan.escalate and events[0] < MIN_EVENTS and total < plan.max_trials:
        new_total = min(total * ESCALATION_FACTOR, plan.max_trials)
        (extra,) = _run_blocks(plan, law, total, new_total, consume, held)
        events = events + extra
        total = new_total
    return _estimate(events[0], total)


def estimate_pf(plan: TrialPlan, target_ris: int, r_bar: float) -> Estimate:
    """False-detection probability of one surface forced unreachable.

    Other surfaces reflect on an independent fair coin per trial. Trials
    escalate tenfold up to the cap until at least 50 events are seen;
    estimates below that are flagged low-confidence.
    """
    consume = _threshold_counter(plan, target_ris, (r_bar,), False)
    return _escalated(plan, {target_ris: False}, consume)


def decision_sweep(
    plan: TrialPlan,
    target_ris: int,
    r_bars: Sequence[float],
    forced: Mapping[int, bool],
    count_missed: bool = False,
):
    """One simulation pass scored against a whole threshold grid.

    ``forced`` maps surface ids to True (always reachable) or False
    (never); the others reflect on a fair coin. The decision metric does
    not depend on the threshold, so a single run yields an estimate per
    grid point. No escalation is applied.
    """
    ids = [p.id for p in plan.profiles]
    if set(forced) - set(ids):
        raise ValueError(f"forced: no surface has id {min(set(forced) - set(ids))}; "
                         f"the scenario's ids are {ids}")
    consume = _threshold_counter(plan, target_ris, r_bars, count_missed)
    (events,) = _run_blocks(plan, forced, 0, plan.trials, consume)
    return [_estimate(k, plan.trials) for k in events]


def _states(bits: np.ndarray) -> np.ndarray:
    """Each row's state code: bit l-1 set where column l-1 of the trials x L bools is."""
    code = bits[:, 0].astype(np.int64)
    for l in range(1, bits.shape[1]):
        code += bits[:, l].astype(np.int64) << l
    return code


def _joint_counts(plan: TrialPlan, r_bars: Sequence[float]) -> tuple:
    """Joint (true state, decided state) counts of one fair-coin pass: a 2^L x 2^L array per
    threshold, in ``r_bars`` order. A state sets bit l-1 when surface l (1-based position in
    ascending id order) reflects, or is decided present."""
    n_states = 1 << len(plan.profiles)
    r_w = _thresholds_w(plan, r_bars)

    def consume(metric, reach):
        true_state = _states(reach) * n_states
        return tuple(np.bincount(true_state + _states(metric > rw),
                                 minlength=n_states**2).reshape(n_states, n_states) for rw in r_w)

    return _run_blocks(plan, {}, 0, plan.trials, consume)


@dataclass(frozen=True)
class ConfusionMatrix:
    """Joint true-state vs decided-state counts over 2^L reachability states.

    State index encodes surface l (1-based position in ascending id order)
    as bit l-1. For two surfaces the states are, in order:
    NO RIS, RIS 1, RIS 2, BOTH RISs. ``confusion`` makes none with a true
    state that no trial drew.
    """

    counts: np.ndarray
    labels: tuple
    trials: int

    def frequencies(self) -> np.ndarray:
        """Row-normalized frequencies."""
        return self.counts / self.counts.sum(axis=1, keepdims=True)

    def _error_rate(self, surface: int, present: bool) -> Fraction:
        """Mean over the true states with the surface ``present`` (or silent) of the share of
        their trials decided the opposite way."""
        has = (np.arange(len(self.counts)) >> (surface - 1) & 1) == present
        rows = self.counts[has]
        return sum(map(Fraction, rows[:, ~has].sum(axis=1).tolist(), rows.sum(axis=1).tolist()),
                   Fraction(0)) / len(rows)

    def miss_probability(self, surface: int) -> Fraction:
        """Exact tally of deciding the surface absent while it reflects.

        Averages the conditional miss rate over the equally likely states of
        the other surfaces, mirroring the analytical conditioning.
        """
        return self._error_rate(surface, present=True)

    def false_probability(self, surface: int) -> Fraction:
        """Exact tally of deciding the surface present while it is silent."""
        return self._error_rate(surface, present=False)


def _matrices(plan: TrialPlan, r_bars: Sequence[float]) -> list:
    """One ConfusionMatrix per ``r_bars`` entry, repeated entries included, in grid order, from
    one fair-coin pass. A true state that none of the trials drew raises ValueError."""
    l = len(plan.profiles)
    labels = ("NO RIS", "RIS 1", "RIS 2", "BOTH RISs") if l == 2 else tuple(
        "+".join(f"RIS {j + 1}" for j in range(l) if s >> j & 1) or "NO RIS" for s in range(1 << l))
    joints = _joint_counts(plan, r_bars)
    # every threshold tallies the same true states
    empty = [repr(label) for joint in joints[:1] for label, n in zip(labels, joint.sum(axis=1)) if not n]
    if empty:
        raise ValueError(f"none of the {plan.trials} trials drew the true state {' or '.join(empty)}")
    return [ConfusionMatrix(counts=joint, labels=labels, trials=plan.trials) for joint in joints]


def confusion(plan: TrialPlan, r_bars: Sequence[float]):
    """Confusion matrices for every grid threshold from one simulation pass.

    All surfaces follow independent fair-coin reachability. Returns a dict
    mapping each threshold to its ConfusionMatrix. A true state that none
    of the trials drew raises ValueError.
    """
    return dict(zip(map(float, r_bars), _matrices(plan, r_bars)))


@dataclass(frozen=True)
class AveragedMetrics:
    """Per-threshold averages of the per-surface conditional error rates."""

    r_bar: float
    avg_pmiss: float
    avg_pf: float
    per_ris_pmiss: tuple
    per_ris_pf: tuple


def averaged_metrics(plan: TrialPlan, r_bars: Sequence[float]):
    """Average miss/false rates across surfaces for each grid threshold.

    Surfaces follow fair-coin reachability. Each surface's rates are its
    ConfusionMatrix's ``miss_probability`` and ``false_probability``; each
    average is the exact mean of the surfaces' rates, rounded once. A true
    state that none of the trials drew raises ValueError, as in ``confusion``.
    """
    surfaces = range(1, len(plan.profiles) + 1)
    out = []
    for rb, mat in zip(r_bars, _matrices(plan, r_bars)):
        pmiss, pf = ([rate(s) for s in surfaces] for rate in (mat.miss_probability, mat.false_probability))
        out.append(AveragedMetrics(
            r_bar=float(rb),
            avg_pmiss=float(sum(pmiss) / len(pmiss)),
            avg_pf=float(sum(pf) / len(pf)),
            per_ris_pmiss=tuple(map(float, pmiss)),
            per_ris_pf=tuple(map(float, pf)),
        ))
    return out
