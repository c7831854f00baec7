"""Seeded, block-deterministic trial runner for detection experiments.

Trials are processed in fixed-size blocks; every block draws its randomness
from counter-keyed substreams (seed, purpose, surface, block index), so
results are bit-identical no matter how blocks are scheduled across workers,
and extending a run (rare-event escalation) never perturbs earlier trials.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
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
    "estimate_pmiss",
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


def _profiles(plan: TrialPlan) -> list:
    return sorted(plan.scenario.sim_profiles(), key=lambda p: p.id)


def _thresholds_w(plan: TrialPlan, r_bars: Sequence[float]) -> np.ndarray:
    """Normalized thresholds r-bar as absolute metric thresholds in watts."""
    sn2 = plan.scenario.noise_variance_w
    return np.array([r**2 * sn2 for r in r_bars])


def _chunk_rows(k: int) -> int:
    """Block rows per correlator product with k columns: ``channel.chunk_rows``, at most BLOCK.
    Chunks tile a block."""
    return min(BLOCK, chunk_rows(k))


def pass_bytes(m: int, v_total: int, rows: Sequence[int], threads: int = 1, n: int = 0) -> int:
    """Upper bound on the bytes of one pass with ``threads`` workers, for Sylvester-Hadamard
    ``rows`` (row r's shifts fall in 2**floor(log2 r) sign classes): m x m matrices, W, its SVD
    and A (L x K), a v_total x m x R table per surface, and per worker the ``_Block`` it scores
    or holds for the next pass: two BLOCK-long vectors for the pad splits and five per surface
    (metric, reachability, flat table rows, scales s and the scored rows' gains), and one
    chunk's noise, parts, gathered table rows, products (``_chunk_rows`` x (R + R + R + K),
    twice) and maxima. ``n`` is the element count of correlated surfaces (0: uncorrelated),
    which adds the gain weights' N x N arrays and eigendecomposition
    (``channel.correlation_matrix``) and per worker one chunk of ``channel.chunk_rows(n, 4)``
    x N exponential draws (``channel.compound_scales``)."""
    l, k = m + v_total, (v_total + 1) * sum(1 << (r.bit_length() - 1) for r in rows if r > 0)
    shared = (2 + 2 * len(rows)) * m * m + 4 * l * k + len(rows) * v_total * m * min(l, k) + 10 * n * n
    block = (BLOCK * (2 + 5 * len(rows)) + _chunk_rows(k) * (6 * min(l, k) + 2 * k + len(rows))
             + chunk_rows(n, 4) * n)
    return 8 * (shared + threads * block)


_memo: dict = {}  # "last": (key, subspace) of the last code set (``_subspace``)
_pools: dict = {}  # worker count -> this process's pool of that many workers (``_pool``)
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
    tables = [np.stack([s @ u[v : v + m] for v in range(1, v_total + 1)]) for s in shift_mats]
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


def _pool(threads: int) -> ThreadPoolExecutor:
    """This process's pool of ``threads`` workers, remade when ``ThreadPoolExecutor`` names
    another class (a dropped pool's idle threads end once it is collected)."""
    pool = _pools.get(threads)
    if type(pool) is not ThreadPoolExecutor:
        pool = _pools[threads] = ThreadPoolExecutor(max_workers=threads)
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
    code's columns, taken over block-aligned chunks of ``_chunk_rows`` rows, zero-padded so
    that every product has one shape and a row's bits never depend on which rows a call scores.
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
        for lo in range(r0 - r0 % step, stop, step):  # every chunk from the first row not drawn
            i0, i1 = max(lo, r0), min(lo + step, stop)
            z = draw_noise(self.frame, noise[i0 - lo : i1 - lo], sn2)
            if i1 - i0 < step:
                parts.fill(0.0)
            re, im = parts[0, i0 - lo : i1 - lo], parts[1, i0 - lo : i1 - lo]
            re[:], im[:] = z.real, z.imag
            for g, at, table in adds:
                row = table.take(at[i0 - r0 : i1 - r0], axis=0)
                re += g.real[i0 - r0 : i1 - r0, None] * row
                im += g.imag[i0 - r0 : i1 - r0, None] * row
            np.square(np.matmul(parts, a, out=prods), out=prods)
            prods[0] += prods[1]
            metric[i0 - r0 : i1 - r0] = np.maximum.reduceat(prods[0, i0 - lo : i1 - lo], starts, axis=1)
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
    last drawn row. A block's own worker moves it in and out, so no more
    blocks are live than workers.
    """
    profs = _profiles(plan)
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
    if plan.threads > 1:
        partials = list(_pool(plan.threads).map(one_block, blocks))
    else:
        partials = [one_block(b) for b in blocks]
    return tuple(sum(parts[1:], parts[0]) for parts in zip(*partials))


def _threshold_counter(plan: TrialPlan, target_ris: int, r_bars, count_missed: bool):
    """``consume`` tallying the target's decided (or missed) trials per threshold."""
    ids = [p.id for p in _profiles(plan)]
    if target_ris not in ids:
        raise ValueError(f"no surface has id {target_ris}; the scenario's ids are {ids}")
    idx = ids.index(target_ris)
    r_w = _thresholds_w(plan, r_bars)

    def consume(metric, reach):
        dec = metric[:, idx][:, None] > r_w[None, :]
        hits = ~dec if count_missed else dec
        return (hits.sum(axis=0).astype(np.int64),)

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


def estimate_pmiss(plan: TrialPlan, target_ris: int, r_bar: float) -> Estimate:
    """Miss-detection probability of one surface forced reachable."""
    consume = _threshold_counter(plan, target_ris, (r_bar,), True)
    return _escalated(plan, {target_ris: True}, consume)


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
    ids = [p.id for p in _profiles(plan)]
    if set(forced) - set(ids):
        raise ValueError(f"forced: no surface has id {min(set(forced) - set(ids))}; "
                         f"the scenario's ids are {ids}")
    consume = _threshold_counter(plan, target_ris, r_bars, count_missed)
    (events,) = _run_blocks(plan, forced, 0, plan.trials, consume)
    return [_estimate(k, plan.trials) for k in events]


def _joint_counts(plan: TrialPlan, r_bars: Sequence[float]) -> tuple:
    """Joint (true state, decided state) counts of one fair-coin pass: a 2^L x 2^L array per
    threshold, in ``r_bars`` order. A state sets bit l-1 when surface l (1-based position in
    ascending id order) reflects, or is decided present."""
    n_l = len(_profiles(plan))
    n_states, weights = 1 << n_l, 1 << np.arange(n_l)
    r_w = _thresholds_w(plan, r_bars)

    def consume(metric, reach):
        true_state = reach.astype(np.int64) @ weights
        return tuple(np.bincount(true_state * n_states + (metric > rw).astype(np.int64) @ weights,
                                 minlength=n_states**2).reshape(n_states, n_states) for rw in r_w)

    return _run_blocks(plan, {}, 0, plan.trials, consume)


def _marginal(counts: np.ndarray, surface: int, present: bool):
    """Per true state of joint ``counts`` in which ``surface`` reflects (``present``) or is
    silent, in state order: the state, its trials decided the opposite way, its trials."""
    has = (np.arange(len(counts)) >> (surface - 1) & 1).astype(bool)
    states = np.flatnonzero(has == present)
    return states, counts[np.ix_(states, has != present)].sum(axis=1), counts[states].sum(axis=1)


@dataclass(frozen=True)
class ConfusionMatrix:
    """Joint true-state vs decided-state counts over 2^L reachability states.

    State index encodes surface l (1-based position in ascending id order)
    as bit l-1. For two surfaces the states are, in order:
    NO RIS, RIS 1, RIS 2, BOTH RISs.
    """

    counts: np.ndarray
    labels: tuple
    trials: int

    def frequencies(self) -> np.ndarray:
        """Row-normalized frequencies; all-zero rows stay zero."""
        c = self.counts.astype(np.float64)
        sums = c.sum(axis=1, keepdims=True)
        return np.divide(c, sums, out=np.zeros_like(c), where=sums > 0)

    def _error_rate(self, surface: int, present: bool) -> Fraction:
        """Mean over the true states with the surface ``present`` of the opposite-decision rate."""
        states, wrong, n = _marginal(self.counts, surface, present)
        if not n.all():
            raise ValueError(f"no trials observed in state {self.labels[states[n == 0][0]]!r}")
        return sum(map(Fraction, wrong.tolist(), n.tolist()), Fraction(0)) / len(n)

    def miss_probability(self, surface: int) -> Fraction:
        """Exact tally of deciding the surface absent while it reflects.

        Averages the conditional miss rate over the equally likely states of
        the other surfaces, mirroring the analytical conditioning.
        """
        return self._error_rate(surface, present=True)

    def false_probability(self, surface: int) -> Fraction:
        """Exact tally of deciding the surface present while it is silent."""
        return self._error_rate(surface, present=False)


def confusion(plan: TrialPlan, r_bars: Sequence[float]):
    """Confusion matrices for every grid threshold from one simulation pass.

    All surfaces follow independent fair-coin reachability. Returns a dict
    mapping each threshold to its ConfusionMatrix.
    """
    profs = _profiles(plan)
    if len(profs) == 2:
        labels = ("NO RIS", "RIS 1", "RIS 2", "BOTH RISs")
    else:
        labels = tuple(
            "+".join(
                [f"RIS {j + 1}" for j in range(len(profs)) if s & (1 << j)]
            ) or "NO RIS"
            for s in range(1 << len(profs))
        )
    return {
        float(rb): ConfusionMatrix(counts=joint, labels=labels, trials=plan.trials)
        for rb, joint in zip(r_bars, _joint_counts(plan, r_bars))
    }


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

    Surfaces follow fair-coin reachability; each surface's miss rate is
    tallied over the trials where it truly reflects, the false rate over
    the rest, then both are averaged across surfaces. A surface the trials
    never show reflecting, or never silent, raises ValueError.
    """
    surfaces = range(1, len(_profiles(plan)) + 1)
    out = []
    for rb, counts in zip(r_bars, _joint_counts(plan, r_bars)):
        rates = []
        for present in (True, False):
            wrong, n = np.array([_marginal(counts, s, present)[1:] for s in surfaces]).sum(axis=2).T
            if not n.all():
                raise ValueError(f"none of the {plan.trials} trials left RIS {np.argmin(n) + 1} "
                                 + ("reflecting" if present else "silent"))
            rates.append(wrong / n)
        pmiss, pf = rates
        out.append(AveragedMetrics(
            r_bar=float(rb),
            avg_pmiss=float(pmiss.mean()),
            avg_pf=float(pf.mean()),
            per_ris_pmiss=tuple(float(x) for x in pmiss),
            per_ris_pf=tuple(float(x) for x in pf),
        ))
    return out
