"""Channel statistics: path gain, sinc correlation, sampling, cascaded gain."""

import numpy as np
import pytest
from scipy import stats

from risid.channel import (
    CorrelationMatrix,
    LinkBudget,
    RisGeometry,
    cascaded_gain,
    compound_gains,
    correlation_matrix,
    identity_correlation,
    path_gain,
    sample_channel,
)
from risid.cli import SPACINGS, Scenario

C0 = 299792458.0


def explicit_gains(corr, beta_hop, power_w, rng, draws, chunk=10_000):
    """Cascaded gains of ``draws`` explicit hop pairs, drawn ``chunk`` pairs at a time."""
    out = []
    for _ in range(draws // chunk):
        hu = sample_channel(corr, beta_hop, rng, size=chunk)
        hb = sample_channel(corr, beta_hop, rng, size=chunk)
        out.append(np.sqrt(power_w) * np.sum(hu * hb, axis=1))
    return np.concatenate(out)


class TestPathGain:
    def test_reference_point(self):
        # independent recomputation, factored differently
        lam = C0 / 1.8e9
        expected = (lam / (4 * np.pi * 10 * 50)) ** 2 * lam**2 / 16
        got = path_gain(1.8e9, 10.0, 50.0)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(1.218e-12, rel=1e-3)
        assert lam == pytest.approx(0.16655, rel=1e-4)

    def test_inverse_square_in_distance(self):
        assert path_gain(1.8e9, 20, 50) == pytest.approx(
            path_gain(1.8e9, 10, 50) / 4, rel=1e-12
        )

    def test_quartic_in_wavelength(self):
        assert path_gain(3.6e9, 10, 50) == pytest.approx(
            path_gain(1.8e9, 10, 50) / 16, rel=1e-12
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            path_gain(1.8e9, 0.0, 50.0)

    def test_link_budget_split(self):
        link = LinkBudget.from_distances(1.8e9, 10, 50)
        assert link.beta == pytest.approx(path_gain(1.8e9, 10, 50), rel=1e-12)
        assert link.beta_ur == pytest.approx(link.beta_rb)


class TestCorrelationMatrix:
    def test_half_wavelength_adjacent_is_zero(self):
        lam = 0.1665
        geom = RisGeometry(n=4, n_h=2, d_h=lam / 2, d_v=lam / 2, wavelength=lam)
        corr = correlation_matrix(geom)
        assert abs(corr.r[0, 1]) < 1e-12  # adjacent in a row: sinc(1)
        assert abs(corr.r[0, 2]) < 1e-12  # adjacent in a column

    def test_unit_diagonal_and_symmetry_exact(self):
        lam = 0.2
        geom = RisGeometry(n=16, n_h=4, d_h=lam / 3, d_v=lam / 5, wavelength=lam)
        corr = correlation_matrix(geom)
        assert np.all(np.diag(corr.r) == 1.0)
        assert np.array_equal(corr.r, corr.r.T)

    def test_small_matrix_against_direct_formula(self):
        lam = 0.1665
        d = lam / 10
        geom = RisGeometry(n=4, n_h=2, d_h=d, d_v=d, wavelength=lam)
        corr = correlation_matrix(geom)
        pos = [np.array([0, (w % 2) * d, (w // 2) * d]) for w in range(4)]
        for i in range(4):
            for j in range(4):
                tau = 2 * np.linalg.norm(pos[i] - pos[j]) / lam
                want = 1.0 if tau == 0 else np.sin(np.pi * tau) / (np.pi * tau)
                assert corr.r[i, j] == pytest.approx(want, abs=1e-12)

    def test_factor_reproduces_matrix(self):
        lam = 0.1665
        geom = RisGeometry(n=64, n_h=8, d_h=lam / 10, d_v=lam / 10, wavelength=lam)
        corr = correlation_matrix(geom)
        assert np.allclose(corr.factor @ corr.factor.T, corr.r, atol=1e-8)

    def test_clipping_floor_enforced(self):
        lam = 0.1665
        geom = RisGeometry(n=64, n_h=8, d_h=lam / 10, d_v=lam / 10, wavelength=lam)
        with pytest.raises(ValueError, match="PSD"):
            correlation_matrix(geom, eig_floor=-1e-30)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            RisGeometry(n=6, n_h=4, d_h=0.1, d_v=0.1, wavelength=0.2)


class TestWeights:
    def test_computed_once_per_matrix(self):
        geom = RisGeometry(n=16, n_h=4, d_h=0.02, d_v=0.02, wavelength=0.1)
        corr = correlation_matrix(geom)
        assert corr.weights is corr.weights

    @pytest.mark.parametrize("n", [1, 4, 64])
    def test_none_for_the_identity(self, n):
        assert identity_correlation(n).weights is None

    def test_none_for_a_one_element_surface(self):
        geom = RisGeometry(n=1, n_h=1, d_h=0.05, d_v=0.05, wavelength=0.1)
        assert correlation_matrix(geom).weights is None

    def test_kept_for_a_half_wavelength_pair(self):
        """Its weights read [1, 1], but R is not the identity, so its law stays."""
        geom = RisGeometry(n=2, n_h=2, d_h=0.05, d_v=0.05, wavelength=0.1)
        assert correlation_matrix(geom).weights is not None

    @pytest.mark.parametrize("stop", [None, 3])
    def test_one_element_gamma_equals_unit_weight(self, stop):
        """Gamma(1) is drawn as the Exp(1) that weights [1] take: a one-element surface
        draws the same bits under either law."""
        args = (5, 2.0, 0.3, 0.7, stop)  # size, power, per-hop gains, stop
        gamma = compound_gains(np.random.default_rng(9), 1, None, *args)
        unit = compound_gains(np.random.default_rng(9), 1, np.ones(1), *args)
        assert np.array_equal(gamma, unit)


class TestSampleChannel:
    def test_identity_statistics(self):
        rng = np.random.default_rng(5)
        corr = identity_correlation(4)
        draws = sample_channel(corr, 1.0, rng, size=100_000)
        var = np.mean(np.abs(draws) ** 2, axis=0)
        se = 1.0 / np.sqrt(draws.shape[0])
        assert np.all(np.abs(var - 1.0) < 3 * se * np.sqrt(2))
        cross = np.mean(draws[:, 0] * np.conj(draws[:, 1]))
        assert abs(cross) < 4 * se

    def test_zero_mean(self):
        rng = np.random.default_rng(6)
        corr = identity_correlation(3)
        draws = sample_channel(corr, 2.0, rng, size=50_000)
        assert np.all(np.abs(draws.mean(axis=0)) < 4 * np.sqrt(2.0 / 50_000))

    def test_constructed_correlation_recovered(self):
        rng = np.random.default_rng(7)
        r = np.array([[1.0, 0.5], [0.5, 1.0]])
        w, v = np.linalg.eigh(r)
        corr = CorrelationMatrix(r=r, factor=v * np.sqrt(w))
        draws = sample_channel(corr, 1.0, rng, size=100_000)
        emp = np.mean(draws[:, 0] * np.conj(draws[:, 1])).real
        assert emp == pytest.approx(0.5, abs=3 / np.sqrt(100_000))

    def test_reproducible_bit_for_bit(self):
        corr = identity_correlation(8)
        a = sample_channel(corr, 0.3, np.random.default_rng(123), size=16)
        b = sample_channel(corr, 0.3, np.random.default_rng(123), size=16)
        assert np.array_equal(a, b)


class TestCascadedGain:
    def test_arithmetic(self):
        n = 4
        h_u = np.full(n, 0.5 + 0j)
        h_b = np.full(n, 0.5 + 0j)  # sum of products = 1
        assert cascaded_gain(h_u, h_b, 4.0) == pytest.approx(2.0)

    def test_zero_vector(self):
        assert cascaded_gain(np.zeros(3), np.ones(3), 1.0) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cascaded_gain(np.ones(3), np.ones(4), 1.0)

    def test_variance_matches_clt_scale(self):
        rng = np.random.default_rng(11)
        n, p, beta = 256, 2.0, 0.5
        ht = explicit_gains(identity_correlation(n), np.sqrt(beta), p, rng, 100_000)
        assert np.var(ht) == pytest.approx(n * p * beta, rel=0.05)

    def test_energy_approximately_exponential(self):
        rng = np.random.default_rng(12)
        n, p, beta = 256, 1.0, 1.0
        energy = np.abs(explicit_gains(identity_correlation(n), 1.0, p, rng, 100_000)) ** 2
        ks = stats.kstest(energy, "expon", args=(0, n * p * beta)).statistic
        assert ks < 0.02

    @pytest.mark.parametrize("spacing", SPACINGS)
    def test_compound_law_matches_explicit_hops(self, spacing):
        """|h~|^2 of the engine's compound draw against explicit hop vectors."""
        n, n_h, draws, chunk = 64, 8, 100_000, 10_000
        scn = Scenario(n_elements=n, n_horizontal=n_h, spacing=spacing)
        (prof,) = scn.sim_profiles()
        lam = scn.wavelength
        d = lam / 2 if spacing == "half-lambda" else lam / 10
        geom = RisGeometry(n=n, n_h=n_h, d_h=d, d_v=d, wavelength=lam)
        corr = identity_correlation(n) if spacing == "none" else correlation_matrix(geom)
        rng = np.random.default_rng(41)
        explicit = []
        for _ in range(draws // chunk):
            hu = sample_channel(corr, prof.beta_ur, rng, size=chunk)
            hb = sample_channel(corr, prof.beta_rb, rng, size=chunk)
            explicit += [abs(cascaded_gain(u, b, scn.power_w)) ** 2 for u, b in zip(hu, hb)]
        compound = compound_gains(
            np.random.default_rng(42), prof.n, prof.gain_weights, draws,
            scn.power_w, prof.beta_ur, prof.beta_rb,
        )
        assert stats.ks_2samp(explicit, np.abs(compound) ** 2).pvalue > 1e-3


class TestPreparedFactor:
    @pytest.mark.parametrize("size", [1, 5, 4096])
    @pytest.mark.parametrize("kind", ["identity", "sinc"])
    def test_matches_per_call_cast_bitwise(self, kind, size):
        geom = RisGeometry(n=64, n_h=8, d_h=0.02, d_v=0.02, wavelength=0.1)
        corr = identity_correlation(64) if kind == "identity" else correlation_matrix(geom)
        beta = 0.37
        for seed in range(3):
            rng = np.random.default_rng(seed)
            z = rng.standard_normal((size, 64, 2)).view(np.complex128)[..., 0]
            ref = np.sqrt(beta / 2.0) * (z @ corr.factor.T)
            got = sample_channel(corr, beta, np.random.default_rng(seed), size=size)
            assert np.array_equal(got, ref)
