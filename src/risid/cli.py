"""Command-line front door: flat text configs in, CSV/JSON artifacts out.

One subcommand per standard experiment (single-surface false detection,
miss-detection sweeps, two-surface curves, confusion matrices, the five
surface code-set comparison, plain theory curves and the sizing solver).
Every artifact embeds the resolved config and seed so a rerun reproduces it
byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__, analysis, montecarlo
from .analysis import NumericalFailure, OperatingPoint
from .channel import SPEED_OF_LIGHT, RisGeometry, correlation_matrix, gain_weights, path_gain
from .codes import (
    BinarySequence,
    build_codebook,
    codebook_from_text,
    cross_corr_pmf,
    distinct_shift_fraction,
)
from .signal import noise_variance_from_bandwidth

SPACINGS = ("none", "half-lambda", "tenth-lambda")

# Bounds on the mean aligned peak N*P*beta*M, in watts. The floor is the
# smallest normal float, so the closed forms' quotients of the peak (by M^2,
# by N) stay nonzero. The ceiling keeps ``detector.detect_block``'s squares
# finite. Each of L surfaces adds a gain h with E|h|^2 = N*P*beta, so the
# signal part of an unnormalized correlator sum over M samples has
# |d|^2 <= M^2 * L^2 * X * N*P*beta = M * L^2 * X * peak, with X the largest
# |h|^2 over its mean. It overflows (above 1.8e308) only if M * L^2 * X > 1.8e28:
# even M = L = 2^16, past any codebook that fits in memory, needs X > 6e13,
# which a unit-mean Gamma or product-of-exponentials draw exceeds with
# probability below e^-(10^7).
PEAK_POWER_FLOOR = sys.float_info.min
PEAK_POWER_CEILING = 1e280


class ConfigError(Exception):
    """Invalid configuration; carries the offending line number (0 = none).

    Scenario validation names the config ``key`` at fault instead.
    """

    def __init__(self, message: str, line: int = 0, key: str | None = None):
        super().__init__(message)
        self.line = line
        self.key = key


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) / 1000.0


def default_code_rows(l_count: int, m: int) -> tuple:
    """Default row assignment: generic high row for one surface, else 1..L.

    A single surface gets row m-1, whose cyclic shifts are maximally
    distinct (half of them up to sign); consecutive low rows keep multi
    surface setups simple but configs may pin any rows.
    """
    if l_count == 1:
        return (m - 1,)
    return tuple(range(1, l_count + 1))


def default_n_horizontal(n: int) -> int:
    p = 1
    while (2 * p) ** 2 <= n:
        p *= 2
    return p


def _fill_defaults(current: dict, changes: dict, l_count: int = 1) -> dict:
    """``changes`` plus, where unset, v_total and code_rows from m and n_horizontal
    from n_elements; a change equal to its ``current`` value implies nothing.
    """
    moved = {k: v for k, v in changes.items() if k not in current or v != current[k]}
    implied = {}
    if "m" in moved:
        implied["v_total"] = max(1, math.ceil(moved["m"] / 4))
        implied["code_rows"] = default_code_rows(l_count, moved["m"])
    if "n_elements" in moved:
        implied["n_horizontal"] = default_n_horizontal(moved["n_elements"])
    return implied | changes


@dataclass(frozen=True)
class SimRis:
    """Engine view of one surface: code, size, per-hop gains, and the
    ``channel.gain_weights`` of its correlation (None: uncorrelated).

    The engine takes these per surface; ``Scenario.sim_profiles`` gives
    every surface the same size, gains and weights."""

    id: int
    code: BinarySequence
    n: int
    beta_ur: float
    beta_rb: float
    gain_weights: np.ndarray | None


@lru_cache(maxsize=32)
def _gain_weights(n: int, n_h: int, spacing: str, wavelength: float):
    if spacing == "none":
        return None
    d = wavelength / 2.0 if spacing == "half-lambda" else wavelength / 10.0
    geom = RisGeometry(n=n, n_h=n_h, d_h=d, d_v=d, wavelength=wavelength)
    return gain_weights(correlation_matrix(geom))


# Config key -> (test, wording) for numbers with a bounded range; grid entries
# share their grid's range, and every float must also be finite.
_RANGES = {
    **dict.fromkeys(("n_elements", "n_horizontal", "l_count", "f_c_hz", "bandwidth_hz",
                     "d_ur_m", "d_rb_m"), (lambda v: v > 0, "positive")),
    **dict.fromkeys(("r_bar", "r_bar_grid"), (lambda v: v >= 0, "nonnegative")),
    "trials": (lambda v: 0 < v <= montecarlo.ESCALATION_CAP,
               f"in 1..{montecarlo.ESCALATION_CAP}"),
    **dict.fromkeys(("target_pf", "target_pmiss"), (lambda v: 0 < v < 1, "inside (0, 1)")),
}


def _check_value(key: str, val) -> None:
    """Reject a non-finite float, or a value outside the range of ``key``."""
    if isinstance(val, float) and not math.isfinite(val):
        raise ConfigError(f"{key} must be finite, got {val!r}", key=key)
    if key in _RANGES and not _RANGES[key][0](val):
        raise ConfigError(f"{key} must be {_RANGES[key][1]}, got {val!r}", key=key)


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
        if self.m < 2 or (self.m & (self.m - 1)) != 0:
            raise ConfigError(f"sequence length must be a power of two, got {self.m}", key="m")
        if not 1 <= self.v_total < self.m:
            raise ConfigError("pad budget must satisfy 1 <= v_total < m", key="v_total")
        if len(set(self.code_rows)) != len(self.code_rows):
            raise ConfigError("code rows must be distinct across surfaces", key="code_rows")
        for r in self.code_rows:
            if not 1 <= r < self.m:
                raise ConfigError(f"code row {r} outside 1..{self.m - 1}", key="code_rows")
        if self.spacing not in SPACINGS:
            raise ConfigError(f"spacing must be one of {SPACINGS}", key="spacing")
        values = [(f, v) for f, v in vars(self).items() if not isinstance(v, tuple)]
        for key, val in values + [("r_bar_grid", r) for r in self.r_bar_grid]:
            _check_value(key, val)
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
        hop = math.sqrt(self.beta)
        weights = _gain_weights(self.n_elements, self.n_horizontal, self.spacing, self.wavelength)
        return tuple(
            SimRis(id=k, code=code, n=self.n_elements, beta_ur=hop, beta_rb=hop,
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
    """An integer literal, read exactly, or an integral float form like ``1e6``."""
    try:
        return int(tok)
    except ValueError:
        pass
    f = _parse_float(tok, line)
    if not f.is_integer():
        raise ConfigError(f"expected an integer, got {tok!r}", line)
    return int(f)


def _parse_float(tok: str, line: int) -> float:
    try:
        return float(tok)
    except ValueError:
        raise ConfigError(f"expected a number, got {tok!r}", line)


def _parse_str(tok: str, line: int) -> str:
    return tok


def _parse_int_list(tok: str, line: int) -> tuple:
    return tuple(_parse_int(p, line) for p in tok.split(","))


def _parse_float_list(tok: str, line: int) -> tuple:
    tok = tok.strip()
    if ":" in tok:
        parts = tok.split(":")
        if len(parts) != 3:
            raise ConfigError("ranges take the form start:stop:step", line)
        a, b, s = (_parse_float(p, line) for p in parts)
        if s <= 0 or b < a:
            raise ConfigError("range needs stop >= start and step > 0", line)
        count = int(round((b - a) / s)) + 1
        vals = tuple(a + i * s for i in range(count) if a + i * s <= b + 1e-12)
        return vals
    return tuple(_parse_float(p, line) for p in tok.split(","))


# Every config key and its value parser.
_KEYS = {
    **dict.fromkeys(
        ("m", "v_total", "l_count", "n_elements", "n_horizontal", "trials", "seed"), _parse_int
    ),
    **dict.fromkeys(("f_c_hz", "bandwidth_hz", "p_dbm", "d_ur_m", "d_rb_m", "r_bar",
                     "target_pf", "target_pmiss"), _parse_float),
    **dict.fromkeys(("spacing", "codebook_file"), _parse_str),
    **dict.fromkeys(("code_rows", "m_values", "n_values"), _parse_int_list),
    **dict.fromkeys(("r_bar_grid", "p_dbm_values"), _parse_float_list),
}

# Keys that drive subcommands, not the Scenario: sweep key -> field it varies.
_RUN_KEYS = {"m_values": "m", "n_values": "n_elements", "p_dbm_values": "p_dbm",
             "target_pf": None, "target_pmiss": None}


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
        out[key] = _KEYS[key](val, lineno)
    return out


def scenario_from_config(raw: dict, config_dir: Path | None = None) -> Scenario:
    """Resolve a parsed config into a validated Scenario, checking and dropping run keys."""
    raw = dict(raw)
    run = {key: raw.pop(key) for key in _RUN_KEYS if key in raw}
    if "codebook_file" in raw:
        path = Path(raw.pop("codebook_file"))
        if config_dir is not None and not path.is_absolute():
            path = config_dir / path
        try:
            book = codebook_from_text(path.read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load codebook: {exc}")
        raw["code_rows"] = book.rows
        raw.setdefault("m", book.m)
        if raw["m"] != book.m:
            raise ConfigError("codebook length disagrees with the configured m")
    if "l_count" in raw and "code_rows" in raw and raw["l_count"] != len(raw["code_rows"]):
        raise ConfigError("l_count disagrees with the number of code rows")
    l_count = raw.pop("l_count", 1)
    _check_value("l_count", l_count)
    raw.setdefault("m", Scenario.m)
    try:
        scenario = Scenario(**_fill_defaults({}, raw, l_count))
    except TypeError as exc:
        raise ConfigError(str(exc))
    except ConfigError as exc:
        if exc.key == "code_rows" and "code_rows" not in raw:  # the rows came from l_count
            raise ConfigError(f"l_count = {l_count}: {exc}", key="l_count") from exc
        raise
    for key, values in run.items():
        field_name = _RUN_KEYS[key]
        if field_name is None:
            _check_value(key, values)
            continue
        for v in values:
            try:
                rescale(scenario, **{field_name: v})
            except ConfigError as exc:
                raise ConfigError(f"{key}: {exc}", key=key)
    return scenario


def _key_line(text: str, key: str | None) -> int:
    """Line of ``key`` in config ``text``, 0 when absent."""
    keys = [ln.split("#", 1)[0].split("=", 1)[0].strip() for ln in text.splitlines()]
    return keys.index(key) + 1 if key in keys else 0


def rescale(scenario: Scenario, **changes) -> Scenario:
    """Vary m/n/p across sweeps; dependents follow, but several surfaces keep their rows."""
    if scenario.l_count > 1:
        changes.setdefault("code_rows", scenario.code_rows)
    return replace(scenario, **_fill_defaults(vars(scenario), changes))


# --- artifact writing -------------------------------------------------------

def _echo_lines(echo: dict) -> list:
    return [f"# {k} = {echo[k]}" for k in sorted(echo)]


def write_csv(path: Path, header: list, rows: list, echo: dict) -> None:
    lines = _echo_lines(echo) + [f"# version = {__version__}"]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(
            repr(float(v)) if isinstance(v, float) else str(v) for v in row
        ))
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, payload: dict, echo: dict) -> None:
    doc = {"config": echo, "version": __version__}
    doc.update(payload)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


class RunWriter:
    """Collects artifact names and finishes with a reproducibility manifest."""

    def __init__(self, outdir: Path, subcommand: str, echo: dict):
        self.outdir = outdir
        self.subcommand = subcommand
        self.echo = echo
        self.outputs: list = []
        outdir.mkdir(parents=True, exist_ok=True)

    def csv(self, name: str, header: list, rows: list) -> None:
        write_csv(self.outdir / name, header, rows, self.echo)
        self.outputs.append(name)

    def json(self, name: str, payload: dict) -> None:
        write_json(self.outdir / name, payload, self.echo)
        self.outputs.append(name)

    def manifest(self) -> None:
        doc = {
            "subcommand": self.subcommand,
            "version": __version__,
            "config": self.echo,
            "outputs": sorted(self.outputs),
        }
        (self.outdir / "manifest.json").write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n"
        )


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
    pf_c, pm_c, _ = analysis.pf_pmiss_threshold_sweep(op, scenario.r_bar_grid)
    curves = [pf_c, pm_c]
    if scenario.l_count >= 2:
        pf2, pm2, _ = analysis.pf_pmiss_threshold_sweep(
            op, scenario.r_bar_grid, pmf=scenario.pair_pmf(1, 2)
        )
        curves += [pf2, pm2]
    rows = []
    for curve in curves:
        for xv, yv in zip(curve.x, curve.y):
            rows.append([xv, yv, curve.kind, op.m, op.n, scenario.p_dbm])
    writer.csv("theory.csv", ["r_bar", "value", "kind", "M", "N", "P_dBm"], rows)


def cmd_pf_single(scenario: Scenario, raw: dict, writer: RunWriter, threads: int) -> None:
    """Noise-only false-detection rate vs threshold, with the union bound."""
    rows = []
    for m in raw.get("m_values", (scenario.m,)):
        scn = rescale(scenario, m=m)
        op = scn.operating_point(scn.r_bar)
        plan = montecarlo.TrialPlan(
            scenario=scn, trials=scn.trials, seed=scn.seed, threads=threads,
        )
        silent = {i: False for i in range(1, scn.l_count + 1)}
        ests = montecarlo.decision_sweep(plan, 1, scn.r_bar_grid, silent, count_missed=False)
        for rb, est in zip(scn.r_bar_grid, ests):
            rows.append(_estimate_row(["mc", m, rb], est))
        for rb in scn.r_bar_grid:
            bound = analysis.pf_single_bound(op.at(r_bar=rb))
            rows.append(["bound", m, rb, bound, "", "", "", "", ""])
    writer.csv("pf_single.csv", ["kind", "m", "r_bar"] + _EST_COLS, rows)


def _pmiss_power_sweep(scenario, raw, writer, threads, name, column, field, values):
    """Shared body of the miss-vs-power subcommands: ``field`` runs over ``values``."""
    rows = []
    for v in values:
        for p_dbm in raw.get("p_dbm_values", (scenario.p_dbm,)):
            scn = rescale(scenario, **{field: v, "p_dbm": p_dbm})
            plan = montecarlo.TrialPlan(
                scenario=scn, trials=scn.trials, seed=scn.seed, threads=threads,
            )
            est = montecarlo.decision_sweep(
                plan, 1, (scn.r_bar,), {1: True}, count_missed=True
            )[0]
            rows.append(_estimate_row(["mc", v, p_dbm], est))
            theory = analysis.pmiss_single(scn.operating_point(scn.r_bar))
            rows.append(["theory", v, p_dbm, theory, "", "", "", "", ""])
    writer.csv(name, ["kind", column, "p_dbm"] + _EST_COLS, rows)


def cmd_pmiss_corr(scenario: Scenario, raw: dict, writer: RunWriter, threads: int) -> None:
    """Miss rate vs power for each element-spacing mode, plus theory."""
    _pmiss_power_sweep(
        scenario, raw, writer, threads, "pmiss_corr.csv", "spacing", "spacing", SPACINGS
    )


def cmd_pmiss_m(scenario: Scenario, raw: dict, writer: RunWriter, threads: int) -> None:
    """Miss rate vs power for each sequence length, plus theory."""
    values = raw.get("m_values", (scenario.m,))
    _pmiss_power_sweep(scenario, raw, writer, threads, "pmiss_m.csv", "m", "m", values)


def cmd_pmiss_n(scenario: Scenario, raw: dict, writer: RunWriter, threads: int) -> None:
    """Miss rate vs power for each surface size, plus theory."""
    values = raw.get("n_values", (scenario.n_elements,))
    _pmiss_power_sweep(scenario, raw, writer, threads, "pmiss_n.csv", "n", "n_elements", values)


def _two_ris_sweep(miss: bool, combos, threads: int):
    rows = []
    for label_cols, scn in combos:
        if scn.l_count < 2:
            raise ConfigError("two-surface experiments need at least two code rows")
        plan = montecarlo.TrialPlan(
            scenario=scn, trials=scn.trials, seed=scn.seed, threads=threads,
        )
        ests = montecarlo.decision_sweep(plan, 1, scn.r_bar_grid, {1: miss}, count_missed=miss)
        pmf = scn.pair_pmf(1, 2)
        op = scn.operating_point(scn.r_bar)
        for rb, est in zip(scn.r_bar_grid, ests):
            rows.append(_estimate_row(["mc"] + label_cols + [rb], est))
        for rb in scn.r_bar_grid:
            if miss:
                theory = analysis.pmiss_two(op.at(r_bar=rb), pmf.a_tilde)
            else:
                theory = analysis.pf_two(op.at(r_bar=rb), pmf)
            rows.append(["theory"] + label_cols + [rb, theory, "", "", "", "", ""])
    return rows


def _m_combos(scenario: Scenario, raw: dict) -> list:
    return [([m], rescale(scenario, m=m)) for m in raw.get("m_values", (scenario.m,))]


def _np_combos(scenario: Scenario, raw: dict) -> list:
    return [
        ([n, p], rescale(scenario, n_elements=n, p_dbm=p))
        for n in raw.get("n_values", (scenario.n_elements,))
        for p in raw.get("p_dbm_values", (scenario.p_dbm,))
    ]


def cmd_pf_two_m(scenario: Scenario, raw: dict, writer: RunWriter, threads: int) -> None:
    """Two-surface false detection vs threshold across sequence lengths."""
    rows = _two_ris_sweep(False, _m_combos(scenario, raw), threads)
    writer.csv("pf_two_m.csv", ["kind", "m", "r_bar"] + _EST_COLS, rows)


def cmd_pf_two_np(scenario: Scenario, raw: dict, writer: RunWriter, threads: int) -> None:
    """Two-surface false detection vs threshold across sizes and powers."""
    rows = _two_ris_sweep(False, _np_combos(scenario, raw), threads)
    writer.csv("pf_two_np.csv", ["kind", "n", "p_dbm", "r_bar"] + _EST_COLS, rows)


def cmd_pmiss_two_m(scenario: Scenario, raw: dict, writer: RunWriter, threads: int) -> None:
    """Two-surface miss detection vs threshold across sequence lengths."""
    rows = _two_ris_sweep(True, _m_combos(scenario, raw), threads)
    writer.csv("pmiss_two_m.csv", ["kind", "m", "r_bar"] + _EST_COLS, rows)


def cmd_pmiss_two_np(scenario: Scenario, raw: dict, writer: RunWriter, threads: int) -> None:
    """Two-surface miss detection vs threshold across sizes and powers."""
    rows = _two_ris_sweep(True, _np_combos(scenario, raw), threads)
    writer.csv("pmiss_two_np.csv", ["kind", "n", "p_dbm", "r_bar"] + _EST_COLS, rows)


def cmd_tradeoff(scenario: Scenario, raw: dict, writer: RunWriter, threads: int) -> None:
    """Theory false/miss curves for both surfaces plus a joint threshold pick."""
    if scenario.l_count < 2:
        raise ConfigError("the tradeoff chart needs at least two code rows")
    pf_cap = raw.get("target_pf", 1.0)
    pmiss_cap = raw.get("target_pmiss", 1.0)
    rows = []
    feasible = True
    picks = {}
    for surf, other in ((1, 2), (2, 1)):
        op = scenario.operating_point(scenario.r_bar, surface=surf)
        pmf = scenario.pair_pmf(surf, other)
        pf_c, pm_c, sel = analysis.pf_pmiss_threshold_sweep(
            op, scenario.r_bar_grid, pmf=pmf, pf_cap=pf_cap, pmiss_cap=pmiss_cap
        )
        for rb, v in zip(pf_c.x, pf_c.y):
            rows.append([f"pf_two_ris{surf}", rb, v])
        for rb, v in zip(pm_c.x, pm_c.y):
            rows.append([f"pmiss_two_ris{surf}", rb, v])
        feasible = feasible and sel.feasible
        picks[f"ris{surf}"] = {
            "r_bar_for_pf_cap": sel.r_bar_for_pf_cap,
            "r_bar_for_pmiss_cap": sel.r_bar_for_pmiss_cap,
            "feasible": sel.feasible,
        }
    writer.csv("tradeoff.csv", ["kind", "r_bar", "value"], rows)
    writer.json("tradeoff_selection.json", {
        "pf_cap": pf_cap, "pmiss_cap": pmiss_cap, "feasible": feasible,
        "per_surface": picks,
    })


def cmd_confusion(scenario: Scenario, raw: dict, writer: RunWriter, threads: int) -> None:
    """Reachability confusion matrices at each grid threshold."""
    if scenario.l_count != 2:
        raise ConfigError("confusion matrices are defined for exactly two surfaces")
    plan = montecarlo.TrialPlan(
        scenario=scenario, trials=scenario.trials, seed=scenario.seed,
        threads=threads,
    )
    mats = montecarlo.confusion(plan, scenario.r_bar_grid)
    payload = {}
    for rb, mat in sorted(mats.items()):
        freq = mat.frequencies()
        payload[repr(rb)] = {
            "labels": list(mat.labels),
            "counts": mat.counts.tolist(),
            "frequencies": [[float(v) for v in row] for row in freq],
            "pmiss": [float(mat.miss_probability(s)) for s in (1, 2)],
            "pf": [float(mat.false_probability(s)) for s in (1, 2)],
            "trials": mat.trials,
        }
        grid_rows = [
            [mat.labels[i]] + [float(freq[i, j]) for j in range(freq.shape[1])]
            for i in range(freq.shape[0])
        ]
        writer.csv(
            f"confusion_rbar_{rb:g}.csv",
            ["true_state"] + list(mat.labels),
            grid_rows,
        )
    writer.json("confusion.json", {"matrices": payload})


def cmd_five_ris(scenario: Scenario, raw: dict, writer: RunWriter, threads: int) -> None:
    """Averaged miss/false rates vs threshold for a five-surface code set."""
    if scenario.l_count != 5:
        raise ConfigError("the five-surface experiment needs exactly five code rows")
    plan = montecarlo.TrialPlan(
        scenario=scenario, trials=scenario.trials, seed=scenario.seed,
        threads=threads,
    )
    metrics = montecarlo.averaged_metrics(plan, scenario.r_bar_grid)
    rows = []
    for m in metrics:
        rows.append(
            [m.r_bar, m.avg_pmiss, m.avg_pf]
            + list(m.per_ris_pmiss) + list(m.per_ris_pf)
        )
    header = ["r_bar", "avg_pmiss", "avg_pf"]
    header += [f"pmiss_ris{i}" for i in range(1, 6)]
    header += [f"pf_ris{i}" for i in range(1, 6)]
    writer.csv("five_ris.csv", header, rows)


def cmd_design(scenario: Scenario, raw: dict, writer: RunWriter, threads: int) -> None:
    """Surface size required to meet a miss-probability target."""
    target = raw.get("target_pmiss")
    if target is None:
        raise ConfigError("the design solver needs target_pmiss in the config")
    op = scenario.operating_point(scenario.r_bar)
    req = analysis.required_ris_size(op, target)
    writer.json("design.json", {
        "target_pmiss": target,
        "r_bar": scenario.r_bar,
        "n_required": req.n_required,
        "n_raw": req.raw,
        "pmiss_at_raw": analysis.pmiss_single(op.at(n=max(1, req.n_required))),
    })


COMMANDS = {
    "pf-single": (cmd_pf_single, "single-surface false detection vs threshold (CSV: kind,m,r_bar,value,ci,events)"),
    "pmiss-corr": (cmd_pmiss_corr, "miss detection vs power per spacing mode (CSV: kind,spacing,p_dbm,value,ci)"),
    "pmiss-m": (cmd_pmiss_m, "miss detection vs power per sequence length (CSV: kind,m,p_dbm,value,ci)"),
    "pmiss-n": (cmd_pmiss_n, "miss detection vs power per surface size (CSV: kind,n,p_dbm,value,ci)"),
    "pf-two-m": (cmd_pf_two_m, "two-surface false detection vs threshold per length (CSV: kind,m,r_bar,value,ci)"),
    "pf-two-np": (cmd_pf_two_np, "two-surface false detection vs threshold per size/power (CSV: kind,n,p_dbm,r_bar,value,ci)"),
    "pmiss-two-m": (cmd_pmiss_two_m, "two-surface miss detection vs threshold per length (CSV: kind,m,r_bar,value,ci)"),
    "pmiss-two-np": (cmd_pmiss_two_np, "two-surface miss detection vs threshold per size/power (CSV: kind,n,p_dbm,r_bar,value,ci)"),
    "tradeoff": (cmd_tradeoff, "joint false/miss theory curves and threshold selection (CSV + JSON)"),
    "confusion": (cmd_confusion, "reachability confusion matrices per threshold (JSON + CSV grids)"),
    "five-ris": (cmd_five_ris, "averaged miss/false rates for a five-surface code set (CSV)"),
    "theory": (cmd_theory, "closed-form curves only (CSV: r_bar,value,kind,M,N,P_dBm)"),
    "design": (cmd_design, "required surface size for a miss target (JSON)"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="risid",
        description="Deterministic link-level experiments for surface identification.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--config", type=Path, default=None, help="flat key = value config file")
        p.add_argument("--out", type=Path, default=Path("out"), help="artifact directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--trials", type=int, default=None, help="override the config trial count")
        p.add_argument(
            "--threads", type=int,
            default=os.environ.get("RISID_THREADS", "1"),
            help="worker threads for simulation blocks (default RISID_THREADS or 1)",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    text = ""
    try:
        if args.config is not None:
            text = args.config.read_text()
            raw = parse_config_text(text)
            scenario = scenario_from_config(raw, args.config.parent)
        else:
            raw, scenario = {}, scenario_from_config({})
        flags = {k: v for k, v in (("seed", args.seed), ("trials", args.trials)) if v is not None}
        try:
            scenario = replace(scenario, **flags)
        except ConfigError as exc:
            raise ConfigError(str(exc)) from exc  # set by a flag, so no config line to point at
        echo = scenario.echo()
        echo.update((key, _echo_value(raw[key])) for key in _RUN_KEYS if key in raw)
        writer = RunWriter(args.out, args.subcommand, echo)
        COMMANDS[args.subcommand][0](scenario, raw, writer, args.threads)
        writer.manifest()
    except ConfigError as exc:
        if not exc.line:  # a field error points at the field's line
            exc.line = _key_line(text, exc.key)
        anchor = f"{args.config}:{exc.line}: " if exc.line else ""
        print(f"{anchor}config error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc} {exc.diagnostics}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
