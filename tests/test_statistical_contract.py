"""The statistical contract between the engine and the closed forms, over drawn scenarios.

Each example runs a target surface through the engine twice, and each count must meet a bracket
that follows exactly from the model, not a tolerance fitted to one point:

- false detection, every surface silent: e^(-r_bar^2) <= Pf <= ``pf_single_bound(raw)``. Every
  column of the correlator has unit norm, so each of the target's outputs alone exceeds r with
  probability e^(-r_bar^2), and the union bound counts its distinct outputs;
- miss, the target forced on and the others silent: P(miss) <= E_s[1 - exp(-r / (c s + sigma^2))]
  with c = P beta M. Given the compound-law scale s the aligned output is circular Gaussian of
  variance c s + sigma^2, and a miss needs it, among others, to stay at or below r.

Each count is read as a Wilson interval at ``Z``, fixed before the first run for a family of
about 100 checks (two per example): the brackets are tight at high power, so a 95% interval
would fail by chance.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from risid.analysis import pf_single_bound
from risid.cli import SPACINGS, Scenario
from risid.montecarlo import BLOCK, TrialPlan, decision_sweep

Z = 4.5
EXAMPLES = 50
SCALE_DRAWS = 2**14  # independent compound-law scales behind one correlated miss bound
# (N, row length): square, one-row and two-row surfaces
SURFACES = [(1, 1), (4, 2), (16, 4), (16, 16), (64, 8), (64, 32), (256, 16)]
# The smallest two-surface correlator, at a mean aligned peak about 0 dB over the noise: row 1
# has one output per offset, so a column that moves between surfaces shows in both brackets.
SMALLEST = (Scenario(m=8, v_total=1, code_rows=(1, 2), n_elements=1, n_horizontal=1, p_dbm=9.0,
                     r_bar=1.6), 1, 2 * BLOCK)


def interval(events: int, trials: int) -> tuple:
    """Wilson score interval of ``events`` in ``trials`` at ``Z``."""
    p, z2 = events / trials, Z * Z
    center = p + z2 / (2 * trials)
    half = Z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials**2))
    return (center - half) / (1 + z2 / trials), (center + half) / (1 + z2 / trials)


def miss_bound(scn: Scenario) -> float:
    """E_s[1 - exp(-r / (c s + sigma^2))] for one surface of ``scn``. At R = I, s ~ Gamma(N), by
    quadrature over N +- 15 sqrt(N) with a breakpoint at N (over [0, inf) the density is missed);
    otherwise s = sum_i lambda_i^2 E_i, and the bound is the mean over an independent sample of s,
    drawn outside the engine's streams, plus ``Z`` standard errors."""
    c, sn2, n = scn.power_w * scn.beta * scn.m, scn.noise_variance_w, scn.n_elements
    r = scn.r_bar**2 * sn2
    weights = scn.sim_profiles()[0].gain_weights
    if weights is None:
        f = lambda s: -math.expm1(-r / (c * s + sn2)) * stats.gamma.pdf(s, n)
        lo, hi = max(0.0, n - 15 * math.sqrt(n)), n + 15 * math.sqrt(n)
        return integrate.quad(f, lo, hi, points=[n], limit=200)[0]
    s = np.random.default_rng(2024).standard_exponential((SCALE_DRAWS, len(weights))) @ weights
    f = -np.expm1(-r / (c * s + sn2))
    return f.mean() + Z * f.std() / math.sqrt(SCALE_DRAWS)


@st.composite
def cases(draw):
    """A scenario of one or two surfaces, its target's id and the engine's trial count. Rows 1-3
    and v_total 1-2 are drawn more often: their few outputs per surface are where the brackets
    bind. p_dbm puts the mean aligned peak N P beta M 0 to 30 dB above the noise, where the
    miss bracket is neither 0 nor 1."""
    m = draw(st.sampled_from([8, 16, 32, 64]))
    l = draw(st.integers(1, 2))
    rows = draw(st.lists(st.integers(1, 3) | st.integers(1, m - 1), min_size=l, max_size=l,
                         unique=True))
    v_total = draw(st.integers(1, 2) | st.integers(1, min(m - 1, 6)))
    n, n_h = draw(st.sampled_from(SURFACES))
    snr_db = 10 * math.log10(n * m * Scenario().beta / Scenario().noise_variance_w)  # at 0 dBW
    scn = Scenario(m=m, v_total=v_total, code_rows=tuple(rows), n_elements=n, n_horizontal=n_h,
                   spacing=draw(st.sampled_from(SPACINGS)),
                   p_dbm=30.0 + draw(st.integers(0, 30)) - snr_db,
                   r_bar=draw(st.integers(10, 30)) / 10)
    return scn, draw(st.integers(1, l)), BLOCK * draw(st.integers(1, 2))


@given(case=cases(), seed=st.integers(1, 2**31))
@example(case=SMALLEST, seed=1)
@settings(max_examples=EXAMPLES, derandomize=True, database=None, deadline=None)
def test_engine_meets_the_brackets(case, seed):
    scn, target, trials = case
    plan = TrialPlan(scenario=scn, trials=trials, seed=seed)
    silent = {k: False for k in range(1, scn.l_count + 1)}
    (pf,) = decision_sweep(plan, target, [scn.r_bar], silent)
    lo, hi = interval(pf.events, trials)
    raw = pf_single_bound(scn.operating_point(scn.r_bar, surface=target), raw=True)
    assert lo <= raw and hi >= math.exp(-scn.r_bar**2), (pf.events, trials, raw)
    (miss,) = decision_sweep(plan, target, [scn.r_bar], silent | {target: True}, count_missed=True)
    bound = miss_bound(scn)
    assert interval(miss.events, trials)[0] <= bound, (miss.events, trials, bound)
