"""Frame synthesis and its substreams: noise power, padding, superposition, determinism."""

import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from risid import signal
from risid.channel import (
    LinkBudget,
    RisGeometry,
    compound_gains,
    compound_scales,
    correlation_matrix,
    identity_correlation,
)
from risid.codes import build_codebook
from risid.signal import (
    TAG_FRAME,
    TAG_RIS,
    RisProfile,
    draw_noise,
    draw_pads,
    noise_variance_from_bandwidth,
    substream,
    synthesize_frame,
)


def make_profiles(m=8, n=4, rows=(7,)):
    book = build_codebook(m, list(rows))
    lam = 299792458.0 / 1.8e9
    geom = RisGeometry(n=n, n_h=2, d_h=lam / 2, d_v=lam / 2, wavelength=lam)
    link = LinkBudget.from_distances(1.8e9, 10, 50)
    return [
        RisProfile(id=i, code=c, geometry=geom, link=link)
        for i, c in enumerate(book.entries, start=1)
    ]


def identity_corrs(profiles):
    return {p.id: identity_correlation(p.geometry.n) for p in profiles}


def frame_bytes(frame):
    """A frame, exactly: its sample bytes, v1, v2, each surface's offset, reachability and
    gain bytes, and the noise variance. Equal frames give equal values."""
    t = frame.truth
    gains = {rid: np.complex128(h).tobytes() for rid, h in t.gains.items()}
    return (frame.samples.tobytes(), t.v1, t.v2, t.c_per_ris, t.reachability, gains,
            frame.noise_variance)


class TestNoiseVariance:
    def test_twenty_megahertz(self):
        # -174 dBm/Hz + 73.01 dB, about -101 dBm
        assert noise_variance_from_bandwidth(20e6) == pytest.approx(7.943e-14, rel=5e-3)

    def test_one_hertz_thermal_floor(self):
        assert noise_variance_from_bandwidth(1.0) == pytest.approx(10 ** (-174 / 10) / 1000)

    def test_log_law(self):
        assert noise_variance_from_bandwidth(2e8) == pytest.approx(
            10 * noise_variance_from_bandwidth(2e7), rel=1e-12
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            noise_variance_from_bandwidth(0)


class TestSynthesizeFrame:
    def test_all_silent_is_pure_noise(self):
        profiles = make_profiles()
        corrs = identity_corrs(profiles)
        sn2 = 0.35
        acc = []
        for t in range(3000):
            fr = synthesize_frame(
                profiles, 2, sn2, 1.0, seed=5, frame_index=t,
                reachability={1: False}, correlations=corrs,
            )
            acc.append(fr.samples)
        samples = np.concatenate(acc)
        var = np.mean(np.abs(samples) ** 2)
        se = sn2 * np.sqrt(2.0 / samples.size)
        assert abs(var - sn2) < 4 * se

    def test_noiseless_single_surface_follows_shifted_code(self):
        profiles = make_profiles()
        fr = synthesize_frame(
            profiles, 2, 0.0, 1.0, seed=9, frame_index=4,
            correlations=identity_corrs(profiles),
        )
        t = fr.truth
        h = t.gains[1]
        code = profiles[0].code
        m = code.length
        assert np.all(fr.samples[: t.v1] == 0)
        assert np.all(fr.samples[t.v1 + m :] == 0)
        shifted = np.roll(code.symbols, -t.c_per_ris[1])
        assert np.allclose(fr.samples[t.v1 : t.v1 + m], h * shifted, rtol=0, atol=0)

    def test_signal_energy_identity(self):
        profiles = make_profiles()
        fr = synthesize_frame(
            profiles, 2, 0.0, 2.5, seed=10, frame_index=0,
            correlations=identity_corrs(profiles),
        )
        h = fr.truth.gains[1]
        energy = np.sum(np.abs(fr.samples) ** 2)
        assert energy == pytest.approx(8 * abs(h) ** 2, rel=1e-12)

    def test_two_surface_superposition_exact(self):
        profiles = make_profiles(rows=(1, 2))
        corrs = identity_corrs(profiles)
        kw = dict(v_total=2, noise_variance=0.0, power_w=1.0, seed=33,
                  frame_index=7, correlations=corrs)
        both = synthesize_frame(profiles, reachability={1: True, 2: True}, **kw)
        only1 = synthesize_frame(profiles, reachability={1: True, 2: False}, **kw)
        only2 = synthesize_frame(profiles, reachability={1: False, 2: True}, **kw)
        assert both.truth.c_per_ris[1] == only1.truth.c_per_ris[1]
        assert np.array_equal(both.samples, only1.samples + only2.samples)

    def test_superposition_with_noise_exact(self):
        profiles = make_profiles(rows=(1, 2))
        corrs = identity_corrs(profiles)
        kw = dict(v_total=2, power_w=1.0, seed=41, frame_index=2, correlations=corrs)
        both = synthesize_frame(
            profiles, noise_variance=0.2, reachability={1: True, 2: True}, **kw
        )
        noise = synthesize_frame(
            profiles, noise_variance=0.2, reachability={1: False, 2: False}, **kw
        )
        c1 = synthesize_frame(
            profiles, noise_variance=0.0, reachability={1: True, 2: False}, **kw
        )
        c2 = synthesize_frame(
            profiles, noise_variance=0.0, reachability={1: False, 2: True}, **kw
        )
        assert np.array_equal(both.samples, noise.samples + c1.samples + c2.samples)

    def test_same_seed_bit_identical(self):
        profiles = make_profiles(rows=(1, 2))
        corrs = identity_corrs(profiles)
        a = synthesize_frame(profiles, 2, 0.1, 1.0, seed=77, frame_index=3,
                             correlations=corrs)
        b = synthesize_frame(profiles, 2, 0.1, 1.0, seed=77, frame_index=3,
                             correlations=corrs)
        assert np.array_equal(a.samples, b.samples)

    def test_profile_order_does_not_matter(self):
        profiles = make_profiles(rows=(1, 2))
        corrs = identity_corrs(profiles)
        a = synthesize_frame(profiles, 2, 0.1, 1.0, seed=13, frame_index=1,
                             correlations=corrs)
        b = synthesize_frame(list(reversed(profiles)), 2, 0.1, 1.0, seed=13,
                             frame_index=1, correlations=corrs)
        assert np.array_equal(a.samples, b.samples)

    def test_pad_split_recorded_and_in_range(self):
        profiles = make_profiles()
        corrs = identity_corrs(profiles)
        seen = set()
        for t in range(200):
            fr = synthesize_frame(profiles, 2, 0.0, 1.0, seed=3, frame_index=t,
                                  correlations=corrs)
            assert fr.truth.v1 + fr.truth.v2 == 2
            assert 1 <= fr.truth.v1 <= 2
            assert len(fr.samples) == 8 + 2
            seen.add(fr.truth.v1)
        assert seen == {1, 2}

    def test_truth_gain_is_the_compound_law_oracle(self):
        """Each surface's offset and h~, bit for bit: a new Philox keyed as ``substream``
        documents draws the offset, then ``compound_scales`` with the matrix's ``weights`` and
        ``compound_gains``."""
        profiles = make_profiles(rows=(1, 2))  # sinc-kernel correlation
        fr = synthesize_frame(profiles, 2, 0.1, 2.5, seed=8, frame_index=3)
        for p in profiles:
            rng = oracle(8, TAG_RIS, p.id, 3)
            assert fr.truth.c_per_ris[p.id] == rng.integers(1, p.code.length + 1)
            weights = correlation_matrix(p.geometry).weights
            s = compound_scales(rng, p.geometry.n, weights, 1)
            h = compound_gains(rng, s, 2.5, p.link.beta_ur, p.link.beta_rb)
            assert fr.truth.gains[p.id] == h[0]

    def test_identity_gain_is_the_gamma_oracle(self):
        """R = I draws h~ by the engine's ``spacing = none`` law: the offset, then
        ``compound_scales`` with weights None (one Gamma(N) draw) and ``compound_gains``."""
        profiles = make_profiles(m=16, n=8, rows=(15,))
        p = profiles[0]
        fr = synthesize_frame(profiles, 4, 0.1, 2.5, seed=6, frame_index=5,
                              correlations=identity_corrs(profiles))
        rng = oracle(6, TAG_RIS, p.id, 5)
        assert fr.truth.c_per_ris[p.id] == rng.integers(1, p.code.length + 1)
        s = compound_scales(rng, p.geometry.n, None, 1)
        h = compound_gains(rng, s, 2.5, p.link.beta_ur, p.link.beta_rb)
        assert fr.truth.gains[p.id] == h[0]

    def test_silent_surface_opens_no_stream(self, monkeypatch):
        profiles = make_profiles(rows=(1, 2))
        opened = []

        def spy(seed, tag, ris_id, block):
            opened.append((tag, ris_id))
            return oracle(seed, tag, ris_id, block)

        monkeypatch.setattr(signal, "_frame_stream", spy)
        fr = synthesize_frame(profiles, 2, 0.1, 1.0, seed=2, frame_index=1,
                              reachability={1: True, 2: False})
        assert [i for tag, i in opened if tag == TAG_RIS] == [1]
        assert fr.truth.reachability == {1: True, 2: False}
        assert fr.truth.c_per_ris.keys() == fr.truth.gains.keys() == {1}

    def test_frame_length_invariant(self):
        profiles = make_profiles(m=16, rows=(15,))
        fr = synthesize_frame(profiles, 4, 0.1, 1.0, seed=1,
                              correlations=identity_corrs(profiles))
        assert len(fr) == 20

    def test_rejects_inconsistent_codes(self):
        p8 = make_profiles(m=8, rows=(7,))
        p16 = make_profiles(m=16, rows=(15,))
        with pytest.raises(ValueError):
            synthesize_frame([p8[0], p16[0]], 2, 0.1, 1.0, seed=1)

    def test_rejects_reachability_without_a_surface(self):
        profiles = make_profiles(rows=(1, 2))
        with pytest.raises(ValueError, match="no entry for surface id 2"):
            synthesize_frame(profiles, 2, 0.1, 1.0, seed=1, reachability={1: True})

    def test_rejects_repeated_surface_id(self):
        p = make_profiles()[0]
        with pytest.raises(ValueError, match="surface id 1 is given twice"):
            synthesize_frame([p, p], 2, 0.1, 1.0, seed=1)

    def test_rejects_surface_id_other_than_its_code_id(self):
        p = replace(make_profiles()[0], id=7)  # its code has id 1
        with pytest.raises(ValueError, match="surface id 7 carries the code of id 1"):
            synthesize_frame([p], 2, 0.1, 1.0, seed=1)

    def test_rejects_reachability_naming_no_surface(self):
        profiles = make_profiles()  # surface 1 alone
        with pytest.raises(ValueError, match="reachability names surface id 2, which no profile has"):
            synthesize_frame(profiles, 2, 0.1, 1.0, seed=1, reachability={1: True, 2: False})

    def test_rejects_correlations_naming_no_surface(self):
        profiles = make_profiles()  # surface 1 alone, which would silently keep its sinc matrix
        with pytest.raises(ValueError, match="correlations names surface id 2, which no profile has"):
            synthesize_frame(profiles, 2, 0.1, 1.0, seed=1, correlations={2: identity_correlation(4)})

    def test_rejects_correlation_of_another_size(self):
        profiles = make_profiles(n=16, rows=(7,))
        with pytest.raises(ValueError, match="surface id 1 has 4 elements, its geometry 16"):
            synthesize_frame(profiles, 2, 0.1, 1.0, seed=1, correlations={1: identity_correlation(4)})


def oracle(seed, tag, ris_id, block):
    """A new generator per call, keyed as ``substream`` documents."""
    key = np.array([seed, (tag << 56) | (ris_id << 40) | block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def draws(rng):
    return np.concatenate((rng.standard_normal(7), rng.random(3), rng.integers(1, 17, size=5),
                           [rng.integers(1, 17)], rng.standard_gamma(4.0, size=3)))


class TestSubstream:
    def test_draws_equal_a_new_philox_stream(self):
        for seed in (0, 5, 2**63, 2**64 - 1):
            for tag, ris_id, block in ((TAG_FRAME, 0, 0), (TAG_RIS, 3, 9), (255, 2**16 - 1, 2**40 - 1)):
                assert np.array_equal(draws(substream(seed, tag, ris_id, block)),
                                      draws(oracle(seed, tag, ris_id, block)))

    def test_two_surface_frames_build_one_philox(self, monkeypatch):
        """On a new thread, frames re-key one generator for the frame stream and every
        surface stream; ``substream`` is not asked for one."""
        profiles = make_profiles(rows=(1, 2))
        philox, built = np.random.Philox, []

        def counting(*args, **kwargs):
            built.append(args)
            return philox(*args, **kwargs)

        def run():
            for index in range(3):
                synthesize_frame(profiles, 2, 0.1, 1.0, seed=1, frame_index=index)

        monkeypatch.setattr(np.random, "Philox", counting)
        t = threading.Thread(target=run)
        t.start()
        t.join(timeout=60)
        assert not t.is_alive()
        assert len(built) == 1

    def test_held_stream_keeps_its_own_sequence(self):
        held = substream(11, TAG_RIS, 1, 4)
        head = held.standard_normal(3)
        for block in range(5):  # same thread, same tag, while ``held`` is still bound
            other = substream(11, TAG_RIS, 2, block)
            assert other is not held
            assert np.array_equal(draws(other), draws(oracle(11, TAG_RIS, 2, block)))
        ref = oracle(11, TAG_RIS, 1, 4)
        assert np.array_equal(head, ref.standard_normal(3))
        assert np.array_equal(draws(held), draws(ref))

    def test_rebinding_a_bound_name_gets_a_new_generator(self):
        rs = substream(3, TAG_FRAME, 0, 0)
        for block in range(1, 6):
            before = id(rs)  # ``rs`` still holds the last stream during the call
            rs = substream(3, TAG_FRAME, 0, block)
            assert id(rs) != before
            assert np.array_equal(draws(rs), draws(oracle(3, TAG_FRAME, 0, block)))

    def test_holding_only_the_bit_generator_keeps_it(self):
        bits = substream(4, TAG_RIS, 1, 0).bit_generator
        fresh = substream(4, TAG_RIS, 1, 1)
        assert fresh.bit_generator is not bits
        assert np.array_equal(draws(np.random.Generator(bits)), draws(oracle(4, TAG_RIS, 1, 0)))

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_rejects_seed_outside_64_bits(self, seed):
        with pytest.raises(ValueError, match="out of range"):
            substream(seed, TAG_FRAME, 0, 0)

    @pytest.mark.parametrize("rows", [(7,), (1, 2, 7)])
    def test_frames_equal_the_new_generator_oracle(self, rows, monkeypatch):
        profiles = make_profiles(rows=rows)  # sinc-kernel correlation
        keys = [(seed, index) for seed in (0, 9, 2**64 - 1) for index in (0, 1, 2**40 - 1)]
        got = [frame_bytes(synthesize_frame(profiles, 2, 0.1, 1.0, seed=s, frame_index=i))
               for s, i in keys]
        monkeypatch.setattr(signal, "_frame_stream", oracle)
        want = [frame_bytes(synthesize_frame(profiles, 2, 0.1, 1.0, seed=s, frame_index=i))
                for s, i in keys]
        assert got == want

    def test_concurrent_threads_give_the_sequential_bytes(self, monkeypatch):
        profiles = make_profiles(rows=(1, 2, 7))
        corrs = identity_corrs(profiles)

        def frames(seed, out):
            for index in range(150):
                sub = profiles[: 1 + index % 3]
                out.append(frame_bytes(synthesize_frame(
                    sub, 2, 0.1, 1.0, seed=seed, frame_index=index,
                    correlations={p.id: corrs[p.id] for p in sub})))

        want = {}
        for seed in (21, 22, 23):
            frames(seed, want.setdefault(seed, []))
        got = {seed: [] for seed in want}
        stream = signal._frame_stream

        def yielding_stream(seed, tag, ris_id, block):
            gen = stream(seed, tag, ris_id, block)
            time.sleep(0)  # let another thread run between the re-key and the draws
            return gen

        monkeypatch.setattr(signal, "_frame_stream", yielding_stream)
        threads = [threading.Thread(target=frames, args=(seed, got[seed])) for seed in want]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == want



def stream_state(rng):
    """A generator's whole state, arrays as lists, so that two states compare with ==."""
    st = rng.bit_generator.state
    return {k: v.tolist() if isinstance(v, np.ndarray) else
            {kk: vv.tolist() for kk, vv in v.items()} if isinstance(v, dict) else v
            for k, v in st.items()}


class TestPadDraw:
    @pytest.mark.parametrize("v_total", [1, 2, 7, 4096, 2**32 + 5])
    def test_scalar_split_is_the_one_element_draw(self, v_total):
        """No ``size`` draws the value of ``size=1`` and leaves the stream where it leaves it:
        the same state, and the same noise rows after it."""
        for seed in (0, 5, 2**63, 2**64 - 1):
            for block in (0, 3):
                one, arr = substream(seed, TAG_FRAME, 0, block), substream(seed, TAG_FRAME, 0, block)
                v1, want = draw_pads(one, v_total), draw_pads(arr, v_total, 1)
                assert np.ndim(v1) == 0 and want.shape == (1,)
                assert int(v1) == int(want[0]) and 1 <= int(v1) <= v_total
                assert stream_state(one) == stream_state(arr)
                rows = [draw_noise(g, np.empty((2, 6, 2)), 0.3) for g in (one, arr)]
                assert rows[0].tobytes() == rows[1].tobytes()

    def test_frame_keeps_its_split_as_an_int(self):
        profiles = make_profiles(rows=(1, 2))
        for index in range(20):
            t = synthesize_frame(profiles, 3, 0.1, 1.0, seed=9, frame_index=index).truth
            assert type(t.v1) is int and type(t.v2) is int and t.v1 + t.v2 == 3
