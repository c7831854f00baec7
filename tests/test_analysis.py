"""Closed forms, characteristic functions, inversion and design helpers."""

import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from risid import analysis
from risid.analysis import (
    NumericalFailure,
    OperatingPoint,
    gil_pelaez_cdf,
    pf_single_bound,
    pf_two,
    pmiss_single,
    pmiss_two,
    rayleigh_cf,
    rayleigh_sum_cf,
    required_ris_size,
    threshold_curves,
)
from risid.cli import parse_config_text, scenario_from_config
from risid.codes import CrossCorrPmf, build_codebook, cross_corr_pmf


BETA = 1.2182255957489518e-12  # 1.8 GHz, 10 m, 50 m
SN2 = 7.961587702840585e-14   # 20 MHz thermal noise


def op_at(m=16, n=64, p_dbm=15.0, r_bar=3.0, v_total=None, rho=0.5):
    return OperatingPoint(
        m=m, n=n, power_w=10 ** (p_dbm / 10) / 1000, beta=BETA,
        noise_var_w=SN2, v_total=v_total if v_total is not None else m // 4,
        r_bar=r_bar, rho=rho,
    )


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("field", ["power_w", "beta", "noise_var_w", "r_bar"])
def test_operating_point_rejects_non_finite(field, value):
    """A NaN or infinite input is an error, not a probability of 0 (pf_single_bound at r_bar = nan,
    pmiss_single at power_w = inf)."""
    with pytest.raises(ValueError, match="finite"):
        replace(op_at(), **{field: value})


class TestPfSingleBound:
    def test_reference_point(self):
        assert pf_single_bound(op_at()) == pytest.approx(40 * math.exp(-9), rel=1e-12)
        assert pf_single_bound(op_at()) == pytest.approx(0.005, abs=1e-3)

    def test_clamped_at_zero_threshold(self):
        assert pf_single_bound(op_at(r_bar=0.0)) == 1.0
        assert pf_single_bound(op_at(r_bar=0.0), raw=True) == pytest.approx(40.0)

    def test_doubling_length_formula_ratio(self):
        # (v+1) M rho scales from 5*16*0.5 to 9*32*0.5: exactly 3.6x
        lo = pf_single_bound(op_at(m=16))
        hi = pf_single_bound(op_at(m=32))
        assert hi / lo == pytest.approx(3.6, rel=1e-12)

    def test_rho_scales_linearly(self):
        assert pf_single_bound(op_at(rho=0.25)) == pytest.approx(
            pf_single_bound(op_at(rho=0.5)) / 2, rel=1e-12
        )


class TestPmissSingle:
    def test_zero_threshold(self):
        assert pmiss_single(op_at(r_bar=0.0)) == 0.0

    def test_doubling_length_halves_required_power(self):
        base = pmiss_single(op_at(m=16, p_dbm=15.0))
        assert pmiss_single(op_at(m=32, p_dbm=15.0 - 10 * math.log10(2))) == (
            pytest.approx(base, rel=1e-9)
        )

    def test_quadrupling_size_quarters_required_power(self):
        base = pmiss_single(op_at(n=64, p_dbm=15.0))
        assert pmiss_single(op_at(n=256, p_dbm=15.0 - 10 * math.log10(4))) == (
            pytest.approx(base, rel=1e-9)
        )

    def test_monotone_in_threshold(self):
        vals = [pmiss_single(op_at(r_bar=r)) for r in np.linspace(0, 8, 30)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestPfTwo:
    def test_reported_operating_points(self):
        book = build_codebook(32, [1, 2])
        pmf = cross_corr_pmf(book.entries[0], book.entries[1], 8)
        for n, p_dbm, want in [
            (64, 25.0, 0.001), (128, 25.0, 0.016), (256, 25.0, 0.064),
            (256, 20.0, 0.003),
        ]:
            got = pf_two(op_at(m=32, n=n, p_dbm=p_dbm, r_bar=15.0, v_total=8), pmf)
            assert got == pytest.approx(want, rel=0.30)

    def test_zero_peak_mass_contributes_nothing(self):
        pmf = CrossCorrPmf(
            support=(0, 4), probs=(Fraction(1, 2), Fraction(1, 2)), a_tilde=2
        )
        op = op_at(m=16, n=64, p_dbm=25.0, r_bar=10.0)
        scale = op.n * op.power_w * op.beta / op.m
        want = 0.5 * 0.5 * math.exp(-op.r / (scale * 4))
        assert pf_two(op, pmf) == pytest.approx(want, rel=1e-12)

    def test_monotone_decreasing_in_threshold(self):
        book = build_codebook(16, [1, 2])
        pmf = cross_corr_pmf(book.entries[0], book.entries[1], 4)
        vals = [
            pf_two(op_at(n=128, p_dbm=20.0, r_bar=r), pmf)
            for r in np.linspace(0.5, 20, 25)
        ]
        assert all(b <= a for a, b in zip(vals, vals[1:]))


class TestRayleighCf:
    def test_unity_at_origin(self):
        assert rayleigh_cf(1.3, 0.0) == 1.0

    def test_conjugate_symmetry(self):
        for w in (0.3, 1.7, 9.0):
            assert rayleigh_cf(0.8, -w) == pytest.approx(
                np.conj(rayleigh_cf(0.8, w)), rel=1e-14
            )

    def test_magnitude_bounded(self):
        w = np.linspace(0, 200, 4001)
        assert np.all(np.abs(rayleigh_cf(0.5, w)) <= 1 + 1e-12)

    @pytest.mark.parametrize("sigma", [0.25, 1.0, 4.0])
    def test_against_quadrature_oracle(self, sigma):
        # direct quadrature of the defining integral
        for w in (0.1, 0.5, 1.0, 2.0, 5.0, 12.0):
            def f_re(r):
                return math.cos(w * r) * r / sigma**2 * math.exp(-r**2 / (2 * sigma**2))

            def f_im(r):
                return math.sin(w * r) * r / sigma**2 * math.exp(-r**2 / (2 * sigma**2))

            re = quad(f_re, 0, np.inf, epsabs=1e-13, epsrel=1e-13, limit=400)[0]
            im = quad(f_im, 0, np.inf, epsabs=1e-13, epsrel=1e-13, limit=400)[0]
            got = rayleigh_cf(sigma, w)
            assert abs(got - complex(re, im)) < 1e-8

    def test_huge_argument_stable(self):
        val = rayleigh_cf(1.0, 1e8)
        assert np.isfinite(val.real) and np.isfinite(val.imag)
        assert abs(val) < 1e-6

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            rayleigh_cf(0.0, 1.0)


class TestGilPelaez:
    def test_single_rayleigh_cdf(self):
        sigma = 2.0
        for x in (0.5, 1.0, 3.0, 6.0):
            got = gil_pelaez_cdf(x, lambda w: rayleigh_cf(sigma, w))
            want = 1 - math.exp(-(x**2) / (2 * sigma**2))
            assert got == pytest.approx(want, abs=1e-8)

    def test_point_mass_at_one(self):
        # a CF with an atom never decays, so there is no cutoff to integrate to
        cf = lambda w: np.exp(1j * w)
        with pytest.raises(NumericalFailure) as err:
            gil_pelaez_cdf(2.0, cf)
        assert err.value.diagnostics == {"x": 2.0}

    def test_limit_is_one(self):
        cf = rayleigh_sum_cf((1.0, 0.3))
        assert gil_pelaez_cdf(60.0, cf) == pytest.approx(1.0, abs=1e-3)

    def test_nondecreasing_and_raw_in_band(self):
        cf = rayleigh_sum_cf((1.0, 0.4))
        xs = np.linspace(0.05, 12, 40)
        with pytest.MonkeyPatch.context() as mp:  # the raw quadrature value, before the clamp
            mp.setattr(analysis, "_clamp01", lambda value: value)
            vals = [gil_pelaez_cdf(float(x), cf) for x in xs]
        assert all(-1e-6 <= v <= 1 + 1e-6 for v in vals)
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_against_sampled_sum(self):
        rng = np.random.default_rng(99)
        s1, s2 = 1.3, 0.4
        n = 10**6
        r = s1 * np.sqrt(-2 * np.log(rng.random(n)))
        r += s2 * np.sqrt(-2 * np.log(rng.random(n)))
        cf = rayleigh_sum_cf((s1, s2))
        worst = 0.0
        for x in np.linspace(0.1, 8.0, 25):
            worst = max(worst, abs(gil_pelaez_cdf(float(x), cf) - np.mean(r <= x)))
        assert worst <= 0.01

    def test_failure_raises_with_diagnostics(self):
        cf = lambda w: 1.0 + 0j  # point mass at zero: no decay, x=0 unusable
        with pytest.raises(NumericalFailure) as err:
            gil_pelaez_cdf(0.0, cf)
        assert err.value.diagnostics

    def test_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            gil_pelaez_cdf(-1.0, rayleigh_sum_cf((1.0,)))


class TestPmissTwo:
    def test_reported_operating_points(self):
        for r_bar, want in [(15.0, 0.053), (25.0, 0.141), (35.0, 0.263)]:
            got = pmiss_two(op_at(m=32, n=256, p_dbm=15.0, r_bar=r_bar, v_total=8), 2)
            assert got == pytest.approx(want, rel=0.20)

    def test_halving_length_roughly_doubles(self):
        lo = pmiss_two(op_at(m=32, n=256, p_dbm=15.0, r_bar=15.0, v_total=8), 2)
        hi = pmiss_two(op_at(m=16, n=256, p_dbm=15.0, r_bar=15.0, v_total=4), 2)
        assert hi / lo == pytest.approx(2.0, rel=0.25)

    def test_monotone_increasing_in_threshold(self):
        vals = [
            pmiss_two(op_at(m=32, n=256, p_dbm=15.0, r_bar=r, v_total=8), 2)
            for r in np.linspace(5, 40, 15)
        ]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_peak(self):
        with pytest.raises(ValueError):
            pmiss_two(op_at(), 0)

    def test_matches_high_precision_quadrature(self):
        """The closed form against a 40-digit quadrature of the convolution
        of the own peak's density with the interferer's CDF."""
        with mpmath.workdps(40):
            for m in (16, 64):
                a_tilde = cross_corr_pmf(*build_codebook(m, [1, 2]).entries, m // 4).a_tilde
                for n in (16, 256):
                    for p_dbm in (-150.0, -20.0, 15.0, 40.0, 200.0):
                        for r_bar in (0.0, 0.1, 1.0, 3.0, 10.0, 40.0):
                            op = op_at(m=m, n=n, p_dbm=p_dbm, r_bar=r_bar)
                            want = _pmiss_two_quadrature(op, a_tilde)
                            assert pmiss_two(op, a_tilde) == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("m,n", [(32, 256), (16, 64), (2, 1)])
    @pytest.mark.parametrize("a_tilde", [1, 2, 7])
    @pytest.mark.parametrize("p_dbm", [-150.0, 15.0, 200.0])
    def test_zero_threshold_is_half_the_silent_miss(self, m, n, a_tilde, p_dbm):
        """At r_bar = 0 the general formula, with no branch of its own, gives the quadrature's
        F1 / 2: both peaks' CDFs are 0 there."""
        op = op_at(m=m, n=n, p_dbm=p_dbm, r_bar=0.0, v_total=1)
        assert pmiss_two(op, a_tilde) == _pmiss_two_quadrature(op, a_tilde) == 0.5 * pmiss_single(op)

    @pytest.mark.parametrize("config", ["tradeoff.txt", "theory.txt"])
    def test_agrees_with_gil_pelaez_on_bundled_grids(self, config):
        text = (Path(__file__).parents[1] / "scripts" / "configs" / config).read_text()
        scn = scenario_from_config(parse_config_text(text))
        for surf, other in ((1, 2), (2, 1)):
            op = scn.operating_point(scn.r_bar, surface=surf)
            a_tilde = scn.pair_pmf(surf, other).a_tilde
            npb = op.n * op.power_w * op.beta
            cf = rayleigh_sum_cf((math.sqrt(op.m * npb / 2), a_tilde * math.sqrt(npb / (2 * op.m))))
            for r_bar in scn.r_bar_grid:
                at = replace(op, r_bar=r_bar)
                inverted = 0.5 * (pmiss_single(at) + gil_pelaez_cdf(math.sqrt(at.r), cf))
                assert pmiss_two(at, a_tilde) == pytest.approx(inverted, rel=0, abs=1e-9)

    @pytest.mark.parametrize("p_dbm", [-150.0, -20.0, 15.0, 40.0, 200.0])
    def test_nondecreasing_in_threshold(self, p_dbm):
        op = op_at(m=32, n=256, p_dbm=p_dbm, v_total=8)
        vals = [pmiss_two(replace(op, r_bar=float(r)), 2) for r in np.linspace(0, 80, 801)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(0 <= v <= 1 for v in vals)


def _pmiss_two_quadrature(op, a_tilde):
    """0.5 * (F1(t) + integral_0^t f1(x) F2(t - x) dx) at the working precision,
    with F and f the Rayleigh CDFs and densities of both peaks."""
    mp = mpmath.mp
    npb = mp.mpf(op.n) * mp.mpf(op.power_w) * mp.mpf(op.beta)
    var1, var2 = op.m * npb / 2, a_tilde**2 * npb / (2 * op.m)
    r = mp.mpf(op.r_bar) ** 2 * mp.mpf(op.noise_var_w)
    t = mp.sqrt(r)
    f1 = -mp.expm1(-r / (2 * var1))
    if t == 0:
        return float(f1 / 2)

    def integrand(x):
        return x / var1 * mp.exp(-x * x / (2 * var1)) * -mp.expm1(-(t - x) ** 2 / (2 * var2))

    # split where the density peaks, the CDF turns and the completed square centres
    inner = {mp.sqrt(var1), t - mp.sqrt(var2), t * var1 / (var1 + var2)}
    points = [mp.mpf(0), *sorted(x for x in inner if 0 < x < t), t]
    return float((f1 + mp.quad(integrand, points)) / 2)


class TestRequiredSize:
    def test_algebraic_inverse(self):
        op = op_at(m=32, p_dbm=10.0, r_bar=3.0)
        mean = required_ris_size(op, 1e-2) * op.power_w * op.beta * op.m
        assert 1 - math.exp(-op.r / mean) == pytest.approx(1e-2, rel=1e-12)

    def test_divergence_for_tiny_targets(self):
        op = op_at()
        sizes = [required_ris_size(op, t) for t in (1e-1, 1e-2, 1e-4, 1e-6)]
        assert all(b > a for a, b in zip(sizes, sizes[1:]))

    def test_crossing_consistency(self):
        # the power where the n=64 curve hits 1e-2 must invert back to 64
        op = op_at(n=64, m=16, r_bar=3.0)
        p_star = -op.r / (64 * op.beta * op.m * math.log1p(-1e-2))
        assert required_ris_size(replace(op, power_w=p_star), 1e-2) == pytest.approx(64.0, rel=1e-9)

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            required_ris_size(op_at(), 1.0)


class TestThresholdSweep:
    def test_single_surface_dependencies(self):
        # the false bound ignores n and power; the miss curve does not
        grid = np.linspace(1, 6, 6)
        pf_a, pm_a = threshold_curves(op_at(n=64, p_dbm=10.0), grid)
        pf_b, pm_b = threshold_curves(op_at(n=256, p_dbm=20.0), grid)
        assert pf_a == pf_b
        assert pm_a != pm_b

    def test_crossing_region_two_surface(self):
        book = build_codebook(32, [1, 2])
        pmf = cross_corr_pmf(book.entries[0], book.entries[1], 8)
        op = op_at(m=32, n=128, p_dbm=10.0, v_total=8)
        grid = np.linspace(1, 60, 60)
        pf_c, pm_c = threshold_curves(op, grid, pmf=pmf)
        assert all(b <= a for a, b in zip(pf_c, pf_c[1:]))
        assert all(b >= a - 1e-12 for a, b in zip(pm_c, pm_c[1:]))
        # the curves cross inside the grid: the false curve starts above the
        # miss curve and ends below it
        assert pf_c[0] > pm_c[0] and pf_c[-1] < pm_c[-1]

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            threshold_curves(op_at(), [3.0, 1.0])

    @pytest.mark.parametrize("two", [False, True])
    def test_curves_equal_one_replace_per_threshold_and_curve(self, two):
        book = build_codebook(32, [1, 2])
        pmf = cross_corr_pmf(book.entries[0], book.entries[1], 8) if two else None
        op = op_at(m=32, n=128, p_dbm=10.0, v_total=8, rho=0.25)
        grid = [0.0, 0.5, *np.linspace(1, 60, 60)]
        if two:
            pf, pm = (lambda o: pf_two(o, pmf)), (lambda o: pmiss_two(o, pmf.a_tilde))
        else:
            pf, pm = pf_single_bound, pmiss_single
        pf_c, pm_c = threshold_curves(op, grid, pmf=pmf)
        assert pf_c == tuple(pf(replace(op, r_bar=float(r))) for r in grid)
        assert pm_c == tuple(pm(replace(op, r_bar=float(r))) for r in grid)
        if two:
            assert all(0 <= v <= 0.5 for v in pf_c)


@given(st.floats(min_value=0.05, max_value=6.0), st.floats(min_value=0.05, max_value=6.0))
@settings(max_examples=12, deadline=None)
def test_cf_product_is_valid_cf(s1, s2):
    cf = rayleigh_sum_cf((s1, s2))
    assert cf(0.0) == pytest.approx(1.0)
    for w in (0.1, 1.0, 10.0):
        assert abs(cf(w)) <= 1 + 1e-12
