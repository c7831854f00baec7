"""Command-line front door: flat text configs in, CSV/JSON artifacts out.

One subcommand per standard experiment (single-surface false detection,
miss-detection sweeps, two-surface curves, confusion matrices, the five
surface code-set comparison, plain theory curves and the sizing solver).
Every artifact embeds the resolved config and seed so a rerun reproduces it
byte for byte.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import sys
from collections import namedtuple
from dataclasses import dataclass, fields, replace
from decimal import ROUND_CEILING, Context, Decimal
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

from . import __version__, analysis, montecarlo
from .analysis import OperatingPoint
from .channel import SPEED_OF_LIGHT, LinkBudget, RisGeometry, correlation_weights, path_gain
from .codes import BinarySequence, build_codebook, cross_corr_pmf, distinct_shift_fraction
from .signal import dbm_to_watts, noise_variance_from_bandwidth

SPACINGS = ("none", "half-lambda", "tenth-lambda")

# Bounds on the mean aligned peak N*P*beta*M, in watts. The floor is the smallest normal
# float, so the closed forms' quotients of the peak (by M^2, by N) stay nonzero; the noise
# variance, which every threshold is r_bar^2 times, has the same floor (bandwidth_hz's
# bound). The ceiling keeps the engine's squared correlator outputs finite: (U^T y) A is
# still W^T y, the unnormalized sum over M samples. Each of L surfaces adds a gain h with
# E|h|^2 = N*P*beta, so its signal part has |d|^2 <= M * L^2 * X * peak, with X the
# largest |h|^2 over its mean, and overflows (above 1.8e308) only if M * L^2 * X > 1.8e28:
# even M = L = 2^16 needs X > 6e13, which a unit-mean Gamma or product-of-exponentials
# draw exceeds with probability below e^-(10^7).
PEAK_POWER_FLOOR = sys.float_info.min
PEAK_POWER_CEILING = 1e280

# Most values a list key may hold, and most passes a run may make: each threshold adds a
# BLOCK-wide column to every tally, and each pass a full simulation.
MAX_LIST_VALUES = 10_000

MAX_M = 4096  # the largest power of two whose smallest pass (one row, v_total = 1) fits MAX_PASS_BYTES


class ConfigError(Exception):
    """Invalid configuration; carries the offending line number (0 = none).

    Scenario validation names the config ``key`` at fault instead. The message shows each
    integer of over 30 digits as its first 12 digits and its digit count.
    """

    def __init__(self, message: str, line: int = 0, key: str | None = None):
        super().__init__(re.sub(r"\d{31,}", lambda d: f"{d[0][:12]}... ({len(d[0])} digits)",
                                message))
        self.line = line
        self.key = key


def default_n_horizontal(n: int) -> int:
    p = 1
    while (2 * p) ** 2 <= n:
        p *= 2
    return p


@dataclass(frozen=True)
class SimRis:
    """Engine view of one surface: code, size, per-hop gains, and the
    ``CorrelationMatrix.weights`` of its correlation (None: R is the identity).

    The engine takes these per surface; ``Scenario.sim_profiles`` gives
    every surface the same size, gains and weights."""

    id: int
    code: BinarySequence
    n: int
    beta_ur: float
    beta_rb: float
    gain_weights: np.ndarray | None


def _gain_weights(n: int, n_h: int, spacing: str, wavelength: float):
    if spacing == "none":
        return None
    d = wavelength / 2.0 if spacing == "half-lambda" else wavelength / 10.0
    return correlation_weights(RisGeometry(n=n, n_h=n_h, d_h=d, d_v=d, wavelength=wavelength))


def _check_value(key: str, val) -> None:
    """Reject a non-finite float, or a value outside the ``bound`` of ``key``."""
    if isinstance(val, float) and not math.isfinite(val):
        raise ConfigError(f"{key} must be finite, got {val!r}", key=key)
    bound = _KEYS[key].bound
    if bound and not bound[0](val):
        raise ConfigError(f"{key} must be {bound[1]}, got {val!r}", key=key)


def _check_pass_memory(m: int, v_total: int, rows, threads: int, n: int) -> None:
    """Reject a simulation pass with ``threads`` workers that ``montecarlo.pass_bytes`` puts over
    ``MAX_PASS_BYTES``, keyed to ``n_elements`` when it would fit without its ``n`` correlated
    elements (0: none), else to ``m``. Its one caller, ``_passes``, checks each pass a run makes."""
    need = montecarlo.pass_bytes(m, v_total, rows, threads, n)
    if need > montecarlo.MAX_PASS_BYTES:
        fits = montecarlo.pass_bytes(m, v_total, rows, threads) <= montecarlo.MAX_PASS_BYTES
        field = "n_elements" if n and fits else "m"
        workers = f" with {threads} worker threads" if threads > 1 else ""
        elements = f" with {n} correlated elements" if n else ""
        gib = Context(prec=3, rounding=ROUND_CEILING).divide(need, 2**30)  # up: over 1 GiB never reads 1.00
        raise ConfigError(f"m = {m}, v_total = {v_total} and code rows {tuple(rows)}{elements} need "
                          f"{gib:.3g} GiB per simulation pass{workers}, over the "
                          f"{montecarlo.MAX_PASS_BYTES >> 30} GiB limit", key=field)


def _echo_value(v):
    """Echo form of a config value: floats by repr, tuples as comma lists."""
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, tuple):
        return ", ".join(str(x) for x in v)
    return v


@dataclass(frozen=True)
class Scenario:
    """Resolved experiment description shared by theory, engine and CLI.

    Every surface shares one physique (size, row length, spacing and hop
    distances) and differs only by its code row, as the closed forms assume.
    """

    m: int = 16
    v_total: int = 4
    code_rows: tuple = (15,)
    n_elements: int = 64
    n_horizontal: int = 8
    spacing: str = "none"
    f_c_hz: float = 1.8e9
    bandwidth_hz: float = 20e6
    p_dbm: float = 15.0
    d_ur_m: float = 10.0
    d_rb_m: float = 50.0
    r_bar: float = 3.0
    r_bar_grid: tuple = tuple(float(x) for x in range(1, 9))
    trials: int = 100000
    seed: int = 1

    def __post_init__(self):
        if self.m < 2 or (self.m & (self.m - 1)) != 0:  # before m's bound: m = 1e300 is named no power of two
            raise ConfigError(f"sequence length must be a power of two, got {self.m}", key="m")
        values = [(f, v) for f, v in vars(self).items() if f != "r_bar_grid"]
        for key, val in values + [("r_bar_grid", r) for r in self.r_bar_grid]:
            _check_value(key, val)
        if not 1 <= self.v_total < self.m:
            raise ConfigError("pad budget must satisfy 1 <= v_total < m", key="v_total")
        for r in self.code_rows:
            if not 1 <= r < self.m:
                raise ConfigError(f"code row {r} outside 1..{self.m - 1}", key="code_rows")
        if list(self.r_bar_grid) != sorted(self.r_bar_grid):
            raise ConfigError("r_bar_grid must be ascending", key="r_bar_grid")
        if self.n_elements % self.n_horizontal != 0:
            raise ConfigError(
                f"element count {self.n_elements} not divisible by row length {self.n_horizontal}",
                key="n_horizontal",
            )
        self._check_peak_power()

    def _check_peak_power(self) -> None:
        """Reject a mean aligned peak N*P*beta*M (``OperatingPoint.mean_peak_power``)
        outside [``PEAK_POWER_FLOOR``, ``PEAK_POWER_CEILING``), keyed to the input
        whose log-term pushes it furthest out."""
        try:
            peak = self.n_elements * self.power_w * self.beta * self.m
        except (OverflowError, ZeroDivisionError):
            peak = math.nan
        if PEAK_POWER_FLOOR <= peak < PEAK_POWER_CEILING:
            return
        log_terms = {
            "p_dbm": self.p_dbm / 10.0 - 3.0,
            "f_c_hz": 4 * math.log10(self.wavelength),  # path gain ~ lambda^4 / (d_ur d_rb)^2
            "d_ur_m": -2 * math.log10(self.d_ur_m),
            "d_rb_m": -2 * math.log10(self.d_rb_m),
            "n_elements": math.log10(self.n_elements),
        }
        pick = max if sum(log_terms.values()) > 0 else min
        key = pick(log_terms, key=log_terms.get)
        raise ConfigError(
            f"{key} puts the mean received peak N*P*beta*M outside "
            f"[{PEAK_POWER_FLOOR:.3g}, {PEAK_POWER_CEILING:.0e}) W", key=key,
        )

    @property
    def l_count(self) -> int:
        return len(self.code_rows)

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.f_c_hz

    @property
    def power_w(self) -> float:
        return dbm_to_watts(self.p_dbm)

    @property
    def beta(self) -> float:
        return path_gain(self.f_c_hz, self.d_ur_m, self.d_rb_m)

    @property
    def noise_variance_w(self) -> float:
        return noise_variance_from_bandwidth(self.bandwidth_hz)

    def codebook(self):
        return build_codebook(self.m, list(self.code_rows))

    def sim_profiles(self) -> tuple:
        link = LinkBudget.from_distances(self.f_c_hz, self.d_ur_m, self.d_rb_m)
        weights = _gain_weights(self.n_elements, self.n_horizontal, self.spacing, self.wavelength)
        return tuple(
            SimRis(id=k, code=code, n=self.n_elements, beta_ur=link.beta_ur, beta_rb=link.beta_rb,
                   gain_weights=weights)
            for k, code in enumerate(self.codebook().entries, start=1)
        )

    def operating_point(self, r_bar: float, surface: int = 1) -> OperatingPoint:
        book = self.codebook()
        return OperatingPoint(
            m=self.m,
            n=self.n_elements,
            power_w=self.power_w,
            beta=self.beta,
            noise_var_w=self.noise_variance_w,
            v_total=self.v_total,
            r_bar=r_bar,
            rho=distinct_shift_fraction(book.entries[surface - 1]),
        )

    def pair_pmf(self, detected: int = 1, interferer: int = 2):
        book = self.codebook()
        return cross_corr_pmf(
            book.entries[detected - 1], book.entries[interferer - 1], self.v_total
        )

    def echo(self) -> dict:
        return {f.name: _echo_value(getattr(self, f.name)) for f in fields(self)}


# --- config file parsing ----------------------------------------------------

def _parse_int(tok: str, line: int) -> int:
    """An integer literal or an integral float form like ``1e6``, read exactly."""
    try:
        return int(tok)
    except ValueError:
        pass
    try:  # finite and integral as a float first, which bounds the size of the exact value
        if float(tok).is_integer() and (exact := Decimal(tok)) == int(exact):
            return int(exact)
    except (ValueError, ArithmeticError):  # not a number; Decimal rejects an exponent past 1e18
        pass
    raise ConfigError(f"expected an integer, got {tok!r}", line)


def _parse_float(tok: str, line: int) -> float:
    try:
        return float(tok)
    except ValueError:
        raise ConfigError(f"expected a number, got {tok!r}", line)


def _check_list_length(count, line: int) -> None:
    if not count <= MAX_LIST_VALUES:
        raise ConfigError(f"a list holds at most {MAX_LIST_VALUES} values, got {count}", line)


def _list_items(tok: str, line: int) -> list:
    items = tok.split(",")
    _check_list_length(len(items), line)
    return items


def _parse_int_list(tok: str, line: int) -> tuple:
    return tuple(_parse_int(p, line) for p in _list_items(tok, line))


def _parse_float_list(tok: str, line: int) -> tuple:
    tok = tok.strip()
    if ":" in tok:
        parts = tok.split(":")
        if len(parts) != 3:
            raise ConfigError("ranges take the form start:stop:step", line)
        a, b, s = (_parse_float(p, line) for p in parts)
        if not (s > 0 and b >= a):
            raise ConfigError("range needs stop >= start and step > 0", line)
        steps = (b - a) / s
        count = round(steps) + 1 if math.isfinite(steps) else math.inf
        _check_list_length(count, line)  # before a single value is built
        return tuple(a + i * s for i in range(count) if a + i * s <= b + 1e-12)
    return tuple(_parse_float(p, line) for p in _list_items(tok, line))


# One config key: its value parser, its bound (test, wording; None: any finite value; a grid's
# entries each), the Scenario field a sweep key sweeps, and for a field the key it follows and
# the rule giving its value from that key's when the config leaves it out. The keys that are
# not Scenario fields drive subcommands.
_Key = namedtuple("_Key", "parse bound sweeps follows rule", defaults=(None,) * 4)
_POSITIVE = (lambda v: v > 0, "positive")
_THRESHOLD = (lambda v: v >= 0 and math.isfinite(v * v), "nonnegative with a finite square")
_PROBABILITY = (lambda v: 0 < v < 1, "inside (0, 1)")

_KEYS = {
    "m": _Key(_parse_int, (lambda v: 2 <= v <= MAX_M, f"in 2..{MAX_M}")),
    "v_total": _Key(_parse_int, follows="m", rule=lambda m: max(1, -(-m // 4))),  # exact for any int m
    "code_rows": _Key(_parse_int_list, (lambda v: len(set(v)) == len(v), "distinct"), follows="m",
                      rule=lambda m: (m - 1,)),  # row m-1: shifts differ most
    "n_elements": _Key(_parse_int, _POSITIVE),
    "n_horizontal": _Key(_parse_int, _POSITIVE, follows="n_elements", rule=default_n_horizontal),
    "spacing": _Key(lambda tok, line: tok, (lambda v: v in SPACINGS, f"one of {SPACINGS}")),
    "f_c_hz": _Key(_parse_float, _POSITIVE),
    "bandwidth_hz": _Key(_parse_float, (lambda v: v > 0 and noise_variance_from_bandwidth(v) >= PEAK_POWER_FLOOR,
                                        f"positive with a noise variance of at least {PEAK_POWER_FLOOR:.3g} W")),
    "p_dbm": _Key(_parse_float),
    "d_ur_m": _Key(_parse_float, _POSITIVE),
    "d_rb_m": _Key(_parse_float, _POSITIVE),
    "r_bar": _Key(_parse_float, _THRESHOLD),
    "r_bar_grid": _Key(_parse_float_list, _THRESHOLD),
    "trials": _Key(_parse_int, (lambda v: 0 < v <= montecarlo.ESCALATION_CAP,
                                f"in 1..{montecarlo.ESCALATION_CAP}")),
    "seed": _Key(_parse_int, (lambda v: 0 <= v < 2**64, f"in 0..{2**64 - 1}")),
    "m_values": _Key(_parse_int_list, sweeps="m"),
    "n_values": _Key(_parse_int_list, sweeps="n_elements"),
    "p_dbm_values": _Key(_parse_float_list, sweeps="p_dbm"),
    "target_pf": _Key(_parse_float, _PROBABILITY),
    "target_pmiss": _Key(_parse_float, _PROBABILITY),
}


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines into a typed dict; line-anchored errors."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", lineno)
        key, val = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        out[key] = _KEYS[key].parse(val, lineno)
    return out


def scenario_from_config(raw: dict) -> Scenario:
    """Resolve a parsed config into a validated Scenario: its field entries, and each field it
    leaves out that follows a key it sets, by its ``rule`` (``_KEYS``). Its other keys are checked,
    the sweep keys' values by ``_passes``, for the subcommands that read them."""
    given = {key: value for key, value in raw.items() if key in Scenario.__dataclass_fields__}
    implied = {f: row.rule(raw[row.follows]) for f, row in _KEYS.items()
               if row.follows in raw and f not in raw}
    scenario = Scenario(**implied | given)
    for key, value in raw.items():
        if key not in given and not _KEYS[key].sweeps:
            _check_value(key, value)
    return scenario


def _key_line(text: str, key: str | None) -> int:
    """Line of ``key`` in config ``text``; for a key ``text`` does not set, the line of the key
    its implied value ``follows`` (``_KEYS``), by the same rule; 0 when there is none."""
    keys = [ln.split("#", 1)[0].split("=", 1)[0].strip() for ln in text.splitlines()]
    if key in keys:
        return keys.index(key) + 1
    return _key_line(text, _KEYS[key].follows) if key in _KEYS else 0


def _sweep_keys(raw: dict, varied) -> dict:
    """Field -> the key of ``raw`` that ``sweeps`` it (``_KEYS``), for ``varied``'s fields in order."""
    return {f: key for f in varied for key, row in _KEYS.items() if row.sweeps == f and key in raw}


# --- artifact writing -------------------------------------------------------

class RunWriter:
    """Writes artifacts that embed the resolved config and version, collects
    their names and finishes with a reproducibility manifest."""

    def __init__(self, outdir: Path, subcommand: str, echo: dict):
        self.outdir = outdir
        self.subcommand = subcommand
        self.echo = echo
        self.outputs: list = []

    def _write(self, name: str, lines) -> None:
        """Write one artifact line by line as ``lines`` yields them, creating the directory first."""
        self.outdir.mkdir(parents=True, exist_ok=True)
        with open(self.outdir / name, "w") as f:
            f.writelines(line + "\n" for line in lines)
        self.outputs.append(name)

    def csv(self, name: str, header: list, rows) -> None:
        """Echo lines, version, header, then rows (floats by repr), each as ``rows`` yields it."""
        lines = [f"# {k} = {self.echo[k]}" for k in sorted(self.echo)]
        lines += [f"# version = {__version__}", ",".join(header)]
        self._write(name, itertools.chain(lines, (",".join(
            repr(float(v)) if isinstance(v, float) else str(v) for v in row
        ) for row in rows)))

    def json(self, name: str, payload: dict) -> None:
        doc = {"config": self.echo, "version": __version__} | payload
        self._write(name, [json.dumps(doc, indent=2, sort_keys=True)])

    def manifest(self) -> None:
        self.json("manifest.json", {"subcommand": self.subcommand, "outputs": sorted(self.outputs)})


# --- subcommands ------------------------------------------------------------

def _estimate_row(prefix: list, est: montecarlo.Estimate) -> list:
    return prefix + [
        est.value, est.ci_low, est.ci_high, est.events, est.trials,
        int(est.low_confidence),
    ]


_EST_COLS = ["value", "ci_low", "ci_high", "events", "trials", "low_confidence"]


def cmd_theory(scenario: Scenario, raw: dict, writer: RunWriter, threads: int) -> None:
    """Closed-form curves over the threshold grid (no simulation)."""
    op = scenario.operating_point(scenario.r_bar)
    pf, pm = analysis.threshold_curves(op, scenario.r_bar_grid)
    curves = {"pf_single_bound": pf, "pmiss_single": pm}
    if scenario.l_count >= 2:
        pf, pm = analysis.threshold_curves(op, scenario.r_bar_grid, pmf=scenario.pair_pmf(1, 2))
        curves |= {"pf_two": pf, "pmiss_two_lower": pm}
    rows = []
    for kind, values in curves.items():
        for xv, yv in zip(scenario.r_bar_grid, values):
            rows.append([xv, yv, kind, op.m, op.n, scenario.p_dbm])
    writer.csv("theory.csv", ["r_bar", "value", "kind", "M", "N", "P_dBm"], rows)


def _plan(scn: Scenario, threads: int) -> montecarlo.TrialPlan:
    return montecarlo.TrialPlan(scenario=scn, trials=scn.trials, seed=scn.seed, threads=threads)


def _passes(scenario: Scenario, raw: dict, labels: dict, threads: int):
    """Yield (label values, scenario) for each engine pass of the run plan. ``labels`` maps each
    label column to the field it varies, which runs over its sweep key's values (``_sweep_keys``)
    if set, every spacing mode for ``spacing``, else the scenario's own value; the columns combine
    in product order, first column outermost, and no column gives one pass; over
    ``MAX_LIST_VALUES`` passes are keyed to the innermost sweep key before the first is built.
    Each pass is ``scenario_from_config`` of ``raw`` with the values in place of their keys, checked
    by the pass-memory rule with ``threads`` workers. A combination the scenario rejects is keyed to a
    sweep key it varies, the failing field's if swept; a pass too large, to that field if not swept."""
    varied = list(labels.values())
    keys = _sweep_keys(raw, varied)
    swept = {"spacing": SPACINGS} | {f: raw[key] for f, key in keys.items()}
    values = [swept.get(f, (getattr(scenario, f),)) for f in varied]
    if (count := math.prod(map(len, values))) > MAX_LIST_VALUES:
        raise ConfigError(f"the sweep makes {count} passes, over the {MAX_LIST_VALUES} a run may make",
                          key=[*keys.values()][-1])
    for combo in itertools.product(*values):
        changes, scn = dict(zip(varied, combo)), None
        try:
            scn = scenario_from_config(raw | changes)
            _check_pass_memory(scn.m, scn.v_total, scn.code_rows, threads,
                               scn.n_elements if scn.spacing != "none" else 0)
        except ConfigError as exc:
            if exc.key not in keys and (scn is not None or not keys):
                raise
            key = keys.get(exc.key, next(iter(keys.values())))
            at = f" at {', '.join(f'{f} = {changes[f]!r}' for f in keys)}" if len(keys) > 1 else ""
            raise ConfigError(f"{key}{at}: {exc}", key=key) from exc
        yield combo, scn


def _mc_sweep(scenario: Scenario, raw: dict, writer: RunWriter, threads: int, labels: dict,
              law: dict, paired: bool, over_grid: bool = True, theory_kind: str = "theory", *,
              passes: list) -> None:
    """Shared body of the Monte Carlo subcommands: simulated rates beside their closed form.

    Each of the run's ``passes`` (``_passes`` over ``labels``) runs one ``decision_sweep`` of
    surface 1 under the reachability ``law``, counting misses when the law forces surface 1
    on and false detections otherwise, at every ``r_bar_grid`` threshold (an ``r_bar``
    column) or at ``r_bar`` alone (no such column). Its ``mc`` rows come first, then one
    ``theory_kind`` row per threshold with five empty estimate cells, in the subcommand's CSV
    (dashes as underscores), written when the pass ends. The theory rows hold the matching
    curve of ``analysis.threshold_curves``, whose two-surface forms take surface 2 as
    the interferer, with one pair pmf per code set in the run, when the subcommand is ``paired``.
    """
    def rows():
        pmfs = {}  # (m, v_total, code rows) -> the pair pmf
        for combo, scn in passes:
            r_bars = scn.r_bar_grid if over_grid else (scn.r_bar,)
            ests = montecarlo.decision_sweep(_plan(scn, threads), 1, r_bars, law, count_missed=law[1])
            key = (scn.m, scn.v_total, scn.code_rows)
            if paired and key not in pmfs:
                pmfs[key] = scn.pair_pmf(1, 2)
            pf, pm = analysis.threshold_curves(scn.operating_point(scn.r_bar), r_bars, pmfs.get(key))
            cells = [list(combo) + ([rb] if over_grid else []) for rb in r_bars]
            yield from (_estimate_row(["mc"] + c, est) for c, est in zip(cells, ests))
            yield from ([theory_kind] + c + [v] + [""] * 5
                        for c, v in zip(cells, pm if law[1] else pf))

    header = ["kind", *labels] + (["r_bar"] if over_grid else []) + _EST_COLS
    writer.csv(writer.subcommand.replace("-", "_") + ".csv", header, rows())


def cmd_tradeoff(scenario: Scenario, raw: dict, writer: RunWriter, threads: int) -> None:
    """Theory false/miss curves for both surfaces plus a joint threshold pick.

    Per surface: the smallest grid threshold whose pf is within ``target_pf``, the largest whose
    pmiss is within ``target_pmiss`` (null for none), and whether one threshold meets both caps;
    the run is feasible when both surfaces are. Infeasibility is an answer, not an error.
    """
    pf_cap = raw.get("target_pf", 1.0)
    pmiss_cap = raw.get("target_pmiss", 1.0)
    grid = scenario.r_bar_grid
    rows = []
    picks = {}
    for surf, other in ((1, 2), (2, 1)):
        op = scenario.operating_point(scenario.r_bar, surface=surf)
        pf, pm = analysis.threshold_curves(op, grid, pmf=scenario.pair_pmf(surf, other))
        for rb, v in zip(grid, pf):
            rows.append([f"pf_two_ris{surf}", rb, v])
        for rb, v in zip(grid, pm):
            rows.append([f"pmiss_two_ris{surf}", rb, v])
        pf_met = [rb for rb, v in zip(grid, pf) if v <= pf_cap]
        pm_met = [rb for rb, v in zip(grid, pm) if v <= pmiss_cap]
        picks[f"ris{surf}"] = {
            "r_bar_for_pf_cap": pf_met[0] if pf_met else None,
            "r_bar_for_pmiss_cap": pm_met[-1] if pm_met else None,
            "feasible": any(vf <= pf_cap and vm <= pmiss_cap for vf, vm in zip(pf, pm)),
        }
    writer.csv("tradeoff.csv", ["kind", "r_bar", "value"], rows)
    writer.json("tradeoff_selection.json", {
        "pf_cap": pf_cap, "pmiss_cap": pmiss_cap,
        "feasible": all(pick["feasible"] for pick in picks.values()),
        "per_surface": picks,
    })


def cmd_confusion(scenario: Scenario, raw: dict, writer: RunWriter, threads: int, *, passes: list) -> None:
    """Reachability confusion matrices at each grid threshold, from the run's one pass."""
    [(_, scenario)] = passes
    names = {rb: f"confusion_rbar_{rb:g}.csv" for rb in scenario.r_bar_grid}  # equal entries: one file
    for low, high in itertools.pairwise(names):  # the grid ascends, so equal names are neighbours
        if names[low] == names[high]:
            raise ConfigError(f"r_bar_grid entries {low!r} and {high!r} both write {names[low]}",
                              key="r_bar_grid")
    try:
        mats = montecarlo.confusion(_plan(scenario, threads), scenario.r_bar_grid)
    except ValueError as exc:  # a true state no trial drew
        raise ConfigError(str(exc), key="trials") from exc
    surfaces = range(1, scenario.l_count + 1)
    payload = {}
    for rb, mat in sorted(mats.items()):
        freq = mat.frequencies()
        payload[repr(rb)] = {
            "labels": list(mat.labels),
            "counts": mat.counts.tolist(),
            "frequencies": [[float(v) for v in row] for row in freq],
            "pmiss": [float(mat.miss_probability(s)) for s in surfaces],
            "pf": [float(mat.false_probability(s)) for s in surfaces],
            "trials": mat.trials,
        }
        grid_rows = [[label] + [float(v) for v in row] for label, row in zip(mat.labels, freq)]
        writer.csv(names[rb], ["true_state"] + list(mat.labels), grid_rows)
    writer.json("confusion.json", {"matrices": payload})


def cmd_five_ris(scenario: Scenario, raw: dict, writer: RunWriter, threads: int, *, passes: list) -> None:
    """Averaged miss/false rates vs threshold for a five-surface code set, from the run's one pass."""
    [(_, scenario)] = passes
    try:
        metrics = montecarlo.averaged_metrics(_plan(scenario, threads), scenario.r_bar_grid)
    except ValueError as exc:  # a true state no trial drew
        raise ConfigError(str(exc), key="trials") from exc
    rows = [[m.r_bar, m.avg_pmiss, m.avg_pf, *m.per_ris_pmiss, *m.per_ris_pf] for m in metrics]
    header = ["r_bar", "avg_pmiss", "avg_pf"] + [f"{k}_ris{i}" for k in ("pmiss", "pf")
                                                 for i in range(1, scenario.l_count + 1)]
    writer.csv("five_ris.csv", header, rows)


def cmd_design(scenario: Scenario, raw: dict, writer: RunWriter, threads: int) -> None:
    """Surface size required to meet a miss-probability target."""
    target = raw.get("target_pmiss")
    if target is None:
        raise ConfigError("the design solver needs target_pmiss in the config")
    op = scenario.operating_point(scenario.r_bar)
    try:
        n_raw = analysis.required_ris_size(op, target)
    except ValueError as exc:
        raise ConfigError(f"target_pmiss = {target!r}: {exc}", key="target_pmiss") from exc
    n_required = math.ceil(n_raw)
    writer.json("design.json", {
        "target_pmiss": target,
        "r_bar": scenario.r_bar,
        "n_required": n_required,
        "n_raw": n_raw,
        "pmiss_at_raw": analysis.pmiss_single(replace(op, n=n_required)),
    })


@dataclass(frozen=True)
class _Command:
    """One subcommand: ``body(scenario, raw, writer, threads)``, its ``--help`` line, the code-row
    counts it runs (fewest, most, wording), its engine ``passes``: the ``labels`` of ``_passes``,
    whose list the body takes as ``passes=``, ``{}`` for the config's one pass, None for none, and
    the ``targets`` keys its body reads."""

    body: object
    help: str
    surfaces: tuple
    passes: dict | None = None
    targets: tuple = ()

    @property
    def reads(self) -> set:
        """The config keys it reads: every ``Scenario`` field, ``trials`` only with passes, the
        sweep keys of its pass labels' fields (``_KEYS``) and its ``targets``."""
        swept = {key for key, row in _KEYS.items() if row.sweeps in (self.passes or {}).values()}
        fields = set(Scenario.__dataclass_fields__) - ({"trials"} if self.passes is None else set())
        return fields | swept | set(self.targets)


def _sweep(help_text: str, labels: dict, law, surfaces, **layout):
    """The row of a Monte Carlo subcommand: ``_mc_sweep`` over the passes of ``labels``,
    paired with surface 2 when it needs two code rows."""
    body = partial(_mc_sweep, labels=labels, law=law, paired=surfaces[0] >= 2, **layout)
    return _Command(body, help_text, surfaces, labels)


# the single-surface closed forms model one surface, the two-surface ones one interferer
_ONE, _TWO = (1, 1, "exactly one code row"), (2, 2, "exactly two code rows")

COMMANDS = {
    "pf-single": _sweep("single-surface false detection vs threshold (CSV: kind,m,r_bar,value,ci,events)",
                        {"m": "m"}, {1: False}, _ONE, theory_kind="bound"),
    "pmiss-corr": _sweep("miss detection vs power per spacing mode (CSV: kind,spacing,p_dbm,value,ci)",
                         {"spacing": "spacing", "p_dbm": "p_dbm"}, {1: True}, _ONE, over_grid=False),
    "pmiss-m": _sweep("miss detection vs power per sequence length (CSV: kind,m,p_dbm,value,ci)",
                      {"m": "m", "p_dbm": "p_dbm"}, {1: True}, _ONE, over_grid=False),
    "pmiss-n": _sweep("miss detection vs power per surface size (CSV: kind,n,p_dbm,value,ci)",
                      {"n": "n_elements", "p_dbm": "p_dbm"}, {1: True}, _ONE, over_grid=False),
    "pf-two-m": _sweep("two-surface false detection vs threshold per length (CSV: kind,m,r_bar,value,ci)",
                       {"m": "m"}, {1: False}, _TWO),
    "pf-two-np": _sweep("two-surface false detection vs threshold per size/power (CSV: kind,n,p_dbm,r_bar,value,ci)",
                        {"n": "n_elements", "p_dbm": "p_dbm"}, {1: False}, _TWO),
    "pmiss-two-m": _sweep("two-surface miss detection vs threshold per length (CSV: kind,m,r_bar,value,ci)",
                          {"m": "m"}, {1: True}, _TWO),
    "pmiss-two-np": _sweep("two-surface miss detection vs threshold per size/power (CSV: kind,n,p_dbm,r_bar,value,ci)",
                           {"n": "n_elements", "p_dbm": "p_dbm"}, {1: True}, _TWO),
    "tradeoff": _Command(cmd_tradeoff, "joint false/miss theory curves and threshold selection (CSV + JSON)",
                         _TWO, targets=("target_pf", "target_pmiss")),
    "confusion": _Command(cmd_confusion, "reachability confusion matrices per threshold (JSON + CSV grids)",
                          _TWO, {}),
    "five-ris": _Command(cmd_five_ris, "averaged miss/false rates for a five-surface code set (CSV)",
                         (5, 5, "exactly five code rows"), {}),
    "theory": _Command(cmd_theory, "closed-form curves only (CSV: r_bar,value,kind,M,N,P_dBm)",
                       (1, 2, "one or two code rows")),
    "design": _Command(cmd_design, "required surface size for a miss target (JSON)", _ONE,
                       targets=("target_pmiss",)),
}


@lru_cache(maxsize=1)
def _parser() -> tuple:
    """The argparse tree and its subcommand parsers, built by a process's first ``main``."""
    parser = argparse.ArgumentParser(
        prog="risid",
        description="Deterministic link-level experiments for surface identification.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help, description=cmd.help)
        p.add_argument("--config", type=Path, default=None, help="flat key = value config file")
        p.add_argument("--out", type=Path, default=Path("out"), help="artifact directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if cmd.passes is not None:  # no other subcommand reads trials
            p.add_argument("--trials", type=int, default=None, help="override the config trial count")
        p.add_argument(
            "--threads", type=int,
            help="worker threads for simulation blocks (default RISID_THREADS or 1)",
        )
    return parser, tuple(sub.choices.values())


def main(argv=None) -> int:
    parser, subparsers = _parser()
    for p in subparsers:  # read on every call; a string default goes through type=int, so "two" exits 2
        p.set_defaults(threads=os.environ.get("RISID_THREADS", "1"))
    args = parser.parse_args(argv)
    cmd = COMMANDS[args.subcommand]
    text, flags = "", {}
    try:
        if not 1 <= args.threads <= montecarlo.MAX_THREADS:  # before any worker starts
            raise ConfigError(f"threads must be in 1..{montecarlo.MAX_THREADS}, got {args.threads}")
        if args.config is not None:
            data = args.config.read_bytes()
            try:  # UTF-8 whatever the locale, a leading byte-order mark dropped
                text = data.decode("utf-8").removeprefix("\ufeff")
            except UnicodeDecodeError as exc:  # its line as parse_config_text counts lines
                line = len((data[:exc.start].decode("utf-8") + "\0").splitlines())
                raise ConfigError(f"not UTF-8: {exc.reason} at byte {exc.start}", line) from exc
        raw = parse_config_text(text)
        if unread := [key for key in raw if key not in cmd.reads]:  # a key it would echo, unused
            raise ConfigError(f"{args.subcommand} does not read {unread[0]}", key=unread[0])
        scenario_from_config(raw)  # the config as written, first
        # from here on an error keyed to a flag's field concerns the flag, not a config line
        flags = {k: v for k in ("seed", "trials") if (v := getattr(args, k, None)) is not None}
        scenario = scenario_from_config(raw := raw | flags)  # every pass takes the flags too
        lo, hi, wording = cmd.surfaces
        if not lo <= scenario.l_count <= hi:
            raise ConfigError(f"{args.subcommand} needs {wording}, got {scenario.l_count}",
                              key="code_rows")
        # every pass built and checked once, before any m x m or N x N array exists
        plan = {} if cmd.passes is None else {"passes": list(_passes(scenario, raw, cmd.passes, args.threads))}
        echo = {key: value for key, value in scenario.echo().items() if key in cmd.reads}
        echo.update((key, _echo_value(value)) for key, value in raw.items() if key not in echo)
        writer = RunWriter(args.out, args.subcommand, echo)
        cmd.body(scenario, raw, writer, args.threads, **plan)
        writer.manifest()  # last: a run without a manifest is incomplete
    except ConfigError as exc:
        if not exc.line and exc.key not in flags:  # a field error points at the field's line
            exc.line = _key_line(text, exc.key)
        anchor = f"{args.config}:{exc.line}: " if exc.line else ""
        print(f"{anchor}config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
