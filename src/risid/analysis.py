"""Closed-form detection performance predictions.

Covers the single-surface false-detection bound, the single-surface miss
probability, the two-surface variants driven by the interferer's correlation
peak distribution, and the per-threshold curves and the surface size built
on them. Characteristic-function inversion stays as the reference the
two-surface miss bound's closed form is tested against; its three functions
alone load scipy, on first use, so the closed forms start without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .codes import CrossCorrPmf

__all__ = [
    "NumericalFailure",
    "OperatingPoint",
    "pf_single_bound",
    "pmiss_single",
    "pf_two",
    "pmiss_two",
    "rayleigh_cf",
    "rayleigh_sum_cf",
    "gil_pelaez_cdf",
    "required_ris_size",
    "threshold_curves",
]


class NumericalFailure(RuntimeError):
    """An inversion integral failed to converge; carries diagnostics."""

    def __init__(self, message: str, **diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


def _clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


@dataclass(frozen=True)
class OperatingPoint:
    """One evaluation point: waveform, surface, power and threshold settings.

    ``rho`` is the fraction of shift hypotheses that are distinct up to sign
    for the detected code (see codes.distinct_shift_fraction); the absolute
    threshold is r = r_bar^2 * noise_variance.
    """

    m: int
    n: int
    power_w: float
    beta: float
    noise_var_w: float
    v_total: int
    r_bar: float
    rho: float = 0.5

    def __post_init__(self):
        if min(self.m, self.n, self.v_total) <= 0:
            raise ValueError("m, n and v_total must be positive")
        if min(self.power_w, self.beta, self.noise_var_w) <= 0:
            raise ValueError("power, path gain and noise variance must be positive")
        if self.r_bar < 0 or not 0 < self.rho <= 1:
            raise ValueError("r_bar must be nonnegative and rho in (0, 1]")

    @property
    def r(self) -> float:
        """Absolute decision threshold in watts."""
        return self.r_bar**2 * self.noise_var_w

    @property
    def mean_peak_power(self) -> float:
        """Mean of the aligned decision metric for a reachable surface."""
        return self.n * self.power_w * self.beta * self.m


def pf_single_bound(op: OperatingPoint, raw: bool = False) -> float:
    """Upper bound on false detection with no other surface active.

    Union-style tail bound over the distinct correlator outputs:
    min(1, (v_total+1) * M * rho * exp(-r_bar^2)). All outputs are unit-scale
    exponential in the squared magnitude under pure noise, and only the
    fraction rho of shift hypotheses are distinct random variables.
    """
    value = (op.v_total + 1) * op.m * op.rho * math.exp(-op.r_bar**2)
    return value if raw else _clamp01(value)


def pmiss_single(op: OperatingPoint) -> float:
    """Miss probability with no interferer: 1 - exp(-r / (N P beta M)).

    The aligned metric of a reachable surface is exponentially distributed
    with mean N*P*beta*M, so this is simply its CDF at the threshold, taken
    through expm1 so that it keeps its digits when small.
    """
    return -math.expm1(-op.r / op.mean_peak_power)


def pf_two(op: OperatingPoint, pmf: CrossCorrPmf) -> float:
    """False detection of an idle surface next to one active interferer.

    Conditional on the interferer's squared correlation peak a_w, the metric
    is exponential with mean N*P*beta*a_w/M; averaging the tail over the peak
    pmf and over the interferer being active half the time gives
    (1/2) * sum_w exp(-r M / (N P beta a_w)) * P(a_w), within [0, 1/2]. Zero-peak
    support contributes nothing (its exponential mean collapses to zero).
    """
    scale = op.n * op.power_w * op.beta / op.m
    total = 0.0
    for a, p in zip(pmf.support, pmf.probs):
        if a > 0:
            total += math.exp(-op.r / (scale * a)) * float(p)
    return 0.5 * total


def rayleigh_cf(sigma: float, w) -> complex | np.ndarray:
    """Characteristic function of a Rayleigh(sigma) amplitude.

    Evaluated in closed form via the Dawson function, which keeps the real
    part stable for arbitrarily large w*sigma:

        Re = 1 - sqrt(2) sigma w D(sigma w / sqrt(2))
        Im = sqrt(pi/2) sigma w exp(-(sigma w)^2 / 2)

    Satisfies Psi(0) = 1, |Psi| <= 1, Psi(-w) = conj(Psi(w)).
    """
    from scipy.special import dawsn  # the reference alone loads scipy, on its first call

    return _rayleigh_cf(dawsn, sigma, w)


def _rayleigh_cf(dawsn, sigma: float, w) -> complex | np.ndarray:
    """``rayleigh_cf`` with scipy's Dawson function passed in."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    w = np.asarray(w, dtype=np.float64)
    sw = sigma * w
    re = 1.0 - math.sqrt(2.0) * sw * dawsn(sw / math.sqrt(2.0))
    im = math.sqrt(math.pi / 2.0) * sw * np.exp(-0.5 * sw * sw)
    out = re + 1j * im
    return complex(out) if out.ndim == 0 else out


def rayleigh_sum_cf(sigmas: Sequence[float]) -> Callable[[float], complex]:
    """CF of an independent sum of Rayleigh amplitudes (product of CFs)."""
    from scipy.special import dawsn  # once here, not in each of the quadrature's calls

    sigmas = tuple(float(s) for s in sigmas)

    def cf(w):
        out = _rayleigh_cf(dawsn, sigmas[0], w)
        for s in sigmas[1:]:
            out = out * _rayleigh_cf(dawsn, s, w)
        return out

    return cf


def _decay_cutoff(cf, threshold: float = 1e-8):
    """Find w with |cf(w)| < threshold, or None if the CF does not decay."""
    w = 1.0
    # bracket the scale where the CF magnitude first drops below one half
    for _ in range(200):
        if abs(cf(w)) < 0.5:
            break
        w *= 4.0
        if w > 1e60:
            return None
    else:
        return None
    for _ in range(200):
        if abs(cf(w)) >= 0.5:
            break
        w /= 4.0
        if w < 1e-60:
            return None
    w_max = max(w, 1e-300)
    for _ in range(80):
        w_max *= 2.0
        if abs(cf(w_max)) < threshold:
            return w_max
    return None


def _small_w(cf) -> float:
    """A w small enough that cf is in its quadratic regime around 1."""
    h = 1.0
    for _ in range(600):
        if abs(cf(h) - 1.0) < 1e-3:
            return h
        h /= 4.0
    return h


def gil_pelaez_cdf(x: float, cf) -> float:
    """CDF at x >= 0 recovered from a characteristic function.

        F(x) = 1/2 - (1/pi) * integral_0^inf Im(exp(-i w x) cf(w)) / w dw

    The sign convention is the one validated against sampled sums of
    Rayleigh amplitudes. The integral runs adaptively up to the point where
    |cf| < 1e-8. Raises NumericalFailure when the CF does not decay (a
    distribution with atoms) or the quadrature cannot reach its tolerance.
    The closed forms never call this; it is the reference tests hold
    ``pmiss_two`` against.
    """
    from scipy.integrate import quad  # loaded here: nothing else in risid needs scipy

    if x < 0:
        raise ValueError("the CDF argument must be nonnegative")
    w_max = _decay_cutoff(cf)
    if w_max is None:
        raise NumericalFailure("the characteristic function does not decay", x=x)
    h0 = _small_w(cf)
    m1 = float(np.imag(cf(h0)) / h0)  # integrand limit at w -> 0 is m1 - x

    def integrand(w):
        if w < h0 * 1e-6:
            return m1 - x
        val = np.exp(-1j * w * x) * cf(w)
        return float(np.imag(val)) / w

    est, err = quad(integrand, 0.0, w_max, limit=1000, epsabs=1e-10, epsrel=1e-10,
                    full_output=1)[:2]
    if err > 1e-6:
        raise NumericalFailure(
            "inversion integral did not converge",
            abs_error=err, w_max=w_max, x=x,
        )
    return _clamp01(0.5 - est / math.pi)


def pmiss_two(op: OperatingPoint, a_tilde: int) -> float:
    """Lower bound on miss detection next to one potential interferer.

    Average of the interferer-silent miss probability F1 = ``pmiss_single`` and
    P(R1 + R2 <= t), t = sqrt(r), which bounds the interferer-active case: R1 is
    the aligned own peak (Rayleigh, sigma1^2 = M N P beta / 2) and R2 the
    interferer's worst-case peak (sigma2^2 = a_tilde^2 N P beta / (2 M)).
    Convolving R1's density with R2's CDF completes a square:

        F1 - e^(-t^2/2S) [(sigma2^2/S)(e^(-a^2) - e^(-b^2)) + (t tau/S) sqrt(pi/2)(erf a + erf b)]

    with S = sigma1^2 + sigma2^2, mu = t sigma1^2/S, tau = sigma1 sigma2/sqrt(S),
    a = mu/(sqrt(2) tau), b = (t - mu)/(sqrt(2) tau). The exponential difference
    is one expm1 of a^2 - b^2 = t (2 mu - t)/(2 tau^2), exact when a, b are tiny.
    """
    if a_tilde <= 0:
        raise ValueError("the interferer peak bound must be positive")
    f1 = pmiss_single(op)
    t = math.sqrt(op.r)
    npb = op.n * op.power_w * op.beta
    var1, var2 = op.m * npb / 2.0, a_tilde**2 * npb / (2.0 * op.m)
    s = var1 + var2
    mu = t * var1 / s
    tau = math.sqrt(var1) * (math.sqrt(var2) / math.sqrt(s))
    a, b = mu / (math.sqrt(2.0) * tau), (t - mu) / (math.sqrt(2.0) * tau)
    gap = t * (2.0 * mu - t) / (2.0 * tau * tau)  # a^2 - b^2
    if gap <= 0:
        exp_diff = -math.exp(-a * a) * math.expm1(gap)
    else:
        exp_diff = math.exp(-b * b) * math.expm1(-gap)
    bracket = (var2 / s) * exp_diff + (t * tau / s) * math.sqrt(math.pi / 2.0) * (
        math.erf(a) + math.erf(b)
    )
    cdf_both = min(f1, max(0.0, f1 - math.exp(-op.r / (2.0 * s)) * bracket))
    return 0.5 * (f1 + cdf_both)


def required_ris_size(op: OperatingPoint, target_pmiss: float) -> float:
    """Elements needed so the single-surface miss probability hits the target.

    Inverts the miss CDF to the real size N = -r / (P beta M ln(1 - target)).
    The operating point's own ``n`` is ignored. A size that is not a finite positive
    number (a zero threshold, or a quotient past the float range) raises ValueError.
    """
    if not 0 < target_pmiss < 1:
        raise ValueError("target miss probability must be inside (0, 1)")
    denom = op.power_w * op.beta * op.m * math.log1p(-target_pmiss)
    raw = -op.r / denom if denom else math.inf
    if not 0 < raw < math.inf:
        raise ValueError(f"the required size {raw!r} is not a finite positive number")
    return raw


def threshold_curves(op: OperatingPoint, r_bar_grid: Sequence[float],
                     pmf: CrossCorrPmf | None = None) -> tuple[tuple, tuple]:
    """False and miss probabilities, one tuple each, over an ascending threshold grid.

    The single-surface formulas without ``pmf``, the two-surface ones with it (peak
    bound ``a_tilde``). A value outside [0, 1], a formula gone non-finite, raises ValueError.
    """
    if any(b < a for a, b in zip(r_bar_grid, r_bar_grid[1:])):
        raise ValueError("threshold grid must be ascending")
    ops = [replace(op, r_bar=float(r)) for r in r_bar_grid]  # one per threshold, for both curves
    if pmf is None:
        pf_vals = tuple(map(pf_single_bound, ops))
        pm_vals = tuple(map(pmiss_single, ops))
    else:
        pf_vals = tuple(pf_two(o, pmf) for o in ops)
        pm_vals = tuple(pmiss_two(o, pmf.a_tilde) for o in ops)
    if any(not 0 <= v <= 1 for v in pf_vals + pm_vals):
        raise ValueError("curve values must be probabilities")
    return pf_vals, pm_vals
