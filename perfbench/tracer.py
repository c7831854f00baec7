"""Spans recorded from the benchmark's side of each layer boundary.

Two parts:

* ``Recorder`` keeps spans ``(name, thread id, start, end)``, instant marks
  and counters in memory. The workloads open a span around every call they
  make into a layer. ``NULL`` is the recorder used with tracing off.
* ``Hooks`` swaps a few names inside ``risid`` for recording wrappers while a
  traced loop runs and puts the originals back afterwards:

  - ``risid.montecarlo.substream`` and the generator it returns: every
    substream creation and every draw method call becomes a ``draw.frame``
    (``TAG_FRAME``, noise and pad split) or ``draw.ris`` (``TAG_RIS``,
    reachability, code offset and hop vectors) span. A ``TAG_FRAME``
    creation also marks the start of a block.
  - ``risid.montecarlo.ThreadPoolExecutor``: with more than one engine
    worker, each block runs as one pool call, which becomes a ``block`` span
    on its worker thread.
  - ``risid.montecarlo.all_shifts``: called once per surface when the engine
    starts a pass over a trial range, so it marks passes (escalation rounds).
  - ``risid.analysis.pmiss_two`` and ``risid.cli.cross_corr_pmf``: called
    from inside the CLI, so the workload cannot wrap the call itself.
  - ``risid.analysis.rayleigh_sum_cf``: the characteristic function it
    returns counts its evaluations.

Nothing here changes what a wrapped function computes or returns.
"""

from __future__ import annotations

import contextlib
import statistics
import threading
from collections import Counter
from time import perf_counter

_NULL_CONTEXT = contextlib.nullcontext()


class NullRecorder:
    """Recorder used with tracing off: every span is a shared no-op context."""

    def span(self, name):
        return _NULL_CONTEXT


NULL = NullRecorder()


class Recorder:
    def __init__(self):
        self.spans = []  # (name, thread id, t0, t1); list.append is atomic
        self.marks = []  # (name, thread id, t)
        self.counts = Counter()
        self._lock = threading.Lock()

    def add(self, name, t0, t1):
        self.spans.append((name, threading.get_ident(), t0, t1))

    def mark(self, name, t):
        self.marks.append((name, threading.get_ident(), t))

    def count(self, name, n=1):
        with self._lock:
            self.counts[name] += n

    @contextlib.contextmanager
    def span(self, name):
        t0 = perf_counter()
        try:
            yield
        finally:
            self.add(name, t0, perf_counter())

    def durations(self, name):
        return [t1 - t0 for n, _, t0, t1 in self.spans if n == name]


class _TracedGenerator:
    """Proxy for a numpy Generator that records a span per method call."""

    __slots__ = ("_gen", "_rec", "_name")

    def __init__(self, gen, rec, name):
        self._gen = gen
        self._rec = rec
        self._name = name

    def __getattr__(self, attr):
        value = getattr(self._gen, attr)
        if not callable(value):
            return value
        rec, name = self._rec, self._name

        def traced(*args, **kwargs):
            t0 = perf_counter()
            try:
                return value(*args, **kwargs)
            finally:
                rec.add(name, t0, perf_counter())

        return traced


def _timed(rec, name, fn):
    def wrapper(*args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.add(name, t0, perf_counter())

    wrapper.__wrapped__ = fn
    return wrapper


class Hooks:
    """Install recording wrappers into risid; ``restore`` undoes every swap."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.saved = []  # (module, attribute, original object)

    def _swap(self, module, attr, new):
        self.saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def install(self):
        from risid import analysis, cli, montecarlo, signal

        rec = self.rec
        orig_substream = montecarlo.substream
        frame_tag = signal.TAG_FRAME

        def substream(seed, tag, ris_id, block):
            t0 = perf_counter()
            name = "draw.frame" if tag == frame_tag else "draw.ris"
            if tag == frame_tag:
                rec.mark("block_start", t0)
            gen = orig_substream(seed, tag, ris_id, block)
            rec.add(name, t0, perf_counter())
            rec.count("substream")
            return _TracedGenerator(gen, rec, name)

        base_pool = montecarlo.ThreadPoolExecutor

        class TracedPool(base_pool):
            def map(self, fn, *iterables, **kwargs):
                return super().map(_timed(rec, "block", fn), *iterables, **kwargs)

        orig_all_shifts = montecarlo.all_shifts

        def all_shifts(seq):
            rec.mark("pass_start", perf_counter())
            return orig_all_shifts(seq)

        orig_sum_cf = analysis.rayleigh_sum_cf
        counts = rec.counts

        def rayleigh_sum_cf(sigmas):
            cf = orig_sum_cf(sigmas)

            def counted(w):
                counts["analysis.cf_evals"] += 1  # quadrature runs on one thread
                return cf(w)

            return counted

        self._swap(montecarlo, "substream", substream)
        self._swap(montecarlo, "ThreadPoolExecutor", TracedPool)
        self._swap(montecarlo, "all_shifts", all_shifts)
        self._swap(analysis, "rayleigh_sum_cf", rayleigh_sum_cf)
        self._swap(analysis, "pmiss_two", _timed(rec, "analysis.pmiss_two", analysis.pmiss_two))
        self._swap(cli, "cross_corr_pmf", _timed(rec, "codes.cross_corr_pmf", cli.cross_corr_pmf))
        return self

    def restore(self):
        while self.saved:
            module, attr, original = self.saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()


# names swapped by Hooks.install, for the restore self-test
HOOKED_NAMES = (
    ("montecarlo", "substream"),
    ("montecarlo", "ThreadPoolExecutor"),
    ("montecarlo", "all_shifts"),
    ("analysis", "rayleigh_sum_cf"),
    ("analysis", "pmiss_two"),
    ("cli", "cross_corr_pmf"),
)

ENGINE_PREFIX = "montecarlo."


def _blocks(rec: Recorder):
    """Block intervals ``(thread id, t0, t1)``.

    With a worker pool each block is one recorded pool call. With one worker
    the engine runs blocks inline, so a block runs from its ``TAG_FRAME``
    substream creation to the next block start or pass start on that thread,
    or to the end of the engine call that contains it.
    """
    pooled = [(tid, t0, t1) for n, tid, t0, t1 in rec.spans if n == "block"]
    pooled_threads = {tid for tid, _, _ in pooled}
    ends = {}
    for n, tid, t0, t1 in rec.spans:
        if n.startswith(ENGINE_PREFIX):
            ends.setdefault(tid, []).append(t1)
    for n, tid, t in rec.marks:
        if n in ("block_start", "pass_start"):
            ends.setdefault(tid, []).append(t)
    out = list(pooled)
    for n, tid, t in rec.marks:
        if n != "block_start" or tid in pooled_threads:
            continue
        out.append((tid, t, min(e for e in ends[tid] if e > t)))
    return sorted(out, key=lambda b: b[1])


def _passes(rec: Recorder) -> int:
    """Engine passes: runs of consecutive pass marks between block starts."""
    events = sorted(
        (t, n) for n, _, t in rec.marks if n in ("block_start", "pass_start")
    )
    passes, prev = 0, None
    for _, n in events:
        if n == "pass_start" and prev != "pass_start":
            passes += 1
        prev = n
    return passes


def engine_layers(rec: Recorder, trials_scored: int, block_size: int):
    """Per-block engine metrics from the spans of a traced run.

    Returns ``(metrics, detail)``; ``metrics`` is empty when no block ran.
    """
    blocks = _blocks(rec)
    calls = [s for s in rec.spans if s[0].startswith(ENGINE_PREFIX)]
    if not blocks or not calls:
        return {}, {}
    draws = {}
    for n, tid, t0, t1 in rec.spans:
        if n.startswith("draw."):
            draws.setdefault(tid, []).append((t0, t1, n))
    per_block = []
    for tid, b0, b1 in blocks:
        noise = hop = 0.0
        for t0, t1, n in draws.get(tid, ()):
            if b0 <= t0 < b1:
                if n == "draw.frame":
                    noise += t1 - t0
                else:
                    hop += t1 - t0
        kind = next((c[0] for c in calls if c[2] <= b0 <= c[3]), "?")
        per_block.append({
            "tid": tid, "kind": kind, "ms": 1e3 * (b1 - b0),
            "noise_ms": 1e3 * noise, "hop_ms": 1e3 * hop,
            "self_ms": 1e3 * (b1 - b0 - noise - hop),
        })
    nb = len(per_block)

    def mean(key, rows):
        return sum(r[key] for r in rows) / len(rows)

    passes = _passes(rec)
    metrics = {
        "montecarlo.block_ms": mean("ms", per_block),
        "montecarlo.self_ms_per_block": mean("self_ms", per_block),
        "montecarlo.blocks_drawn": nb / len(calls),
        "montecarlo.useful_trial_frac": trials_scored / (nb * block_size),
        "montecarlo.escalation_rounds": (passes - len(calls)) / len(calls),
        "signal.noise_ms_per_block": mean("noise_ms", per_block),
        "signal.substream_calls_per_block": rec.counts["substream"] / nb,
        "channel.hop_ms_per_block": mean("hop_ms", per_block),
    }
    detail = {"engine_calls": len(calls), "blocks": nb, "passes": passes}
    for group in ("tid", "kind"):
        keys = sorted({r[group] for r in per_block}, key=str)
        detail[f"by_{group}"] = {
            str(k): {
                "blocks": len(rows),
                **{f: round(statistics.median(r[f] for r in rows), 4)
                   for f in ("ms", "self_ms", "hop_ms", "noise_ms")},
            }
            for k in keys
            for rows in [[r for r in per_block if r[group] == k]]
        }
    return metrics, detail


def call_layers(rec: Recorder):
    """Per-call metrics of the layers the workloads and hooks span."""
    out = {}

    def mean(name):
        d = rec.durations(name)
        return sum(d) / len(d) if d else None

    for metric, span, scale in (
        ("channel.sample_channel_ms", "channel.sample_channel", 1e3),
        ("channel.correlation_matrix_ms", "channel.correlation_matrix", 1e3),
        ("analysis.pmiss_two_ms", "analysis.pmiss_two", 1e3),
        ("codes.cross_corr_pmf_ms", "codes.cross_corr_pmf", 1e3),
        ("codes.rank_code_subsets_s", "codes.rank_code_subsets", 1.0),
        ("cli.subcommand_s", "cli.subcommand", 1.0),
        ("cli.scenario_ms", "cli.scenario", 1e3),
        ("signal.synthesize_frame_us", "signal.synthesize_frame", 1e6),
        ("detector.run_ris_id_us", "detector.run_ris_id", 1e6),
    ):
        m = mean(span)
        if m is not None:
            out[metric] = m * scale
    points = len(rec.durations("analysis.pmiss_two"))
    if points:
        out["analysis.cf_evals_per_point"] = rec.counts["analysis.cf_evals"] / points
    return out
