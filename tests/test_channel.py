"""Channel statistics: path gain, sinc correlation, sampling, cascaded gain."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from risid import channel
from risid.channel import (
    CorrelationMatrix,
    LinkBudget,
    RisGeometry,
    compound_gains,
    compound_scales,
    correlation_matrix,
    identity_correlation,
    path_gain,
    sample_channel,
)
from risid.cli import SPACINGS, Scenario
from risid.montecarlo import BLOCK

from conftest import cascaded_gain, direct_correlation

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
        assert link.beta_ur * link.beta_rb == pytest.approx(path_gain(1.8e9, 10, 50), rel=1e-12)
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

    def test_clipping_floor_enforced(self, monkeypatch):
        lam = 0.1665
        geom = RisGeometry(n=64, n_h=8, d_h=lam / 10, d_v=lam / 10, wavelength=lam)
        monkeypatch.setattr(channel, "EIG_FLOOR", -1e-30)
        with pytest.raises(ValueError, match="PSD"):
            correlation_matrix(geom)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            RisGeometry(n=6, n_h=4, d_h=0.1, d_v=0.1, wavelength=0.2)


class TestInPlaceBuild:
    LAM = C0 / 1.8e9

    @pytest.mark.parametrize("spacing", [0.5, 0.1, 0.37])
    @pytest.mark.parametrize("rows", ["one", "two-wide", "square"])
    @pytest.mark.parametrize("n", [1, 2, 16, 64, 256])
    def test_bits_of_the_direct_expression(self, n, rows, spacing):
        """R, its factor and the weights equal the direct expression's bit for bit, in the same
        memory layout, over one-row, two-column and square grids."""
        n_h = {"one": n, "two-wide": min(2, n), "square": int(math.isqrt(n))}[rows]
        if n % n_h:
            n_h = n
        d = spacing * self.LAM
        geom = RisGeometry(n=n, n_h=n_h, d_h=d, d_v=d, wavelength=self.LAM)
        got, ref = correlation_matrix(geom), direct_correlation(geom)
        for name in ("r", "factor"):
            assert np.array_equal(getattr(got, name), getattr(ref, name))
            assert getattr(got, name).strides == getattr(ref, name).strides
        if ref.weights is None:
            assert got.weights is None
        else:
            assert np.array_equal(got.weights, ref.weights)

    @pytest.mark.parametrize("n", [256, 1024])
    def test_traced_peak_is_at_most_three_n_squared_doubles(self, n):
        """R and one N x N temporary while R is built, R and the eigenvectors after eigh:
        the direct expression peaks near 8 N^2 doubles."""
        d = self.LAM / 10
        geom = RisGeometry(n=n, n_h=int(math.isqrt(n)), d_h=d, d_v=d, wavelength=self.LAM)
        tracemalloc.start()
        try:
            correlation_matrix(geom)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * n * n


class TestCorrelationWeights:
    def test_are_the_matrix_weights_kept_read_only(self):
        geom = RisGeometry(n=16, n_h=4, d_h=0.02, d_v=0.02, wavelength=0.1)
        weights = channel.correlation_weights(geom)
        assert np.array_equal(weights, correlation_matrix(geom).weights)
        assert channel.correlation_weights(geom) is weights
        assert not weights.flags.writeable

    def test_none_for_a_one_element_surface(self):
        geom = RisGeometry(n=1, n_h=1, d_h=0.05, d_v=0.05, wavelength=0.1)
        assert channel.correlation_weights(geom) is None


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
        def gains(weights):
            rng = np.random.default_rng(9)
            return compound_gains(rng, compound_scales(rng, 1, weights, 5)[:stop], 2.0, 0.3, 0.7)

        assert np.array_equal(gains(None), gains(np.ones(1)))


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
        rng = np.random.default_rng(42)
        s = compound_scales(rng, prof.n, prof.gain_weights, draws)
        compound = compound_gains(rng, s, scn.power_w, prof.beta_ur, prof.beta_rb)
        assert stats.ks_2samp(explicit, np.abs(compound) ** 2).pvalue > 1e-3


class TestChunkedDraws:
    @pytest.mark.parametrize("stop", [BLOCK, 700, 1])
    @pytest.mark.parametrize("n", [1, 2, 64, 89, 256, 1024])
    def test_equal_one_block_draw(self, n, stop):
        """The correlated law's exponentials, drawn and reduced in chunks, give the bits of one
        B x n draw reduced with ``@ weights`` and then the normal pairs, and leave the
        generator where that draw does."""
        weights = np.random.default_rng(n).uniform(0.1, 2.0, n)
        got_rng, ref_rng = (np.random.Generator(np.random.Philox(17)) for _ in range(2))
        got = compound_gains(got_rng, compound_scales(got_rng, n, weights, BLOCK)[:stop], 2.0, 0.3, 0.7)
        s = ref_rng.standard_exponential((BLOCK, n)) @ weights
        w = ref_rng.standard_normal((stop, 2)).view(np.complex128)[:, 0]
        ref = math.sqrt(2.0) * (math.sqrt(0.3 * 0.7) / 2.0) * (np.sqrt(2.0 * s[:stop]) * w)
        assert np.array_equal(got, ref)
        assert got_rng.random() == ref_rng.random()


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
