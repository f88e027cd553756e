"""The trial ensemble's channels: scattering draws, Rician mix and path factor.

The trial ensemble draws the scattering matrices, mixes them with
network.los_channel's line-of-sight matrices through the kernels and
scales each link's SNR by its amplitude factor gain / d^2, squared.
The draws, the mix and the path factor are checked through the ensemble's
rates, on single-antenna links where a rate gives |h|^2 back as
2**rate - 1, and against the independent oracle in oracles.py.  The
line-of-sight matrix and the dB conversion are checked in test_network.py.
"""

import math

import numpy as np
import pytest

import oracles

from hapsim.network import NetworkConfig, ScenarioLayout
from hapsim.simulator import TrialEnsemble

LAYOUT = ScenarioLayout(hap_altitude_m=18000.0, relay_altitude_m=9000.0)


class TestScatteringDraws:
    def test_trial_draw_moments(self):
        # |h|^2 of a CN(0, 1) entry is Exp(1): E|h|^2 = 1, E|h|^4 = 2.  The
        # fourth moment would read 3 with all the power in the real part.
        cfg = network(kappa_db=-4000.0, snr_reference="post_path_loss")
        power = direct_power(cfg, 10000, 22, 1.0)
        assert np.mean(power) == pytest.approx(1.0, abs=0.04)
        assert np.mean(power ** 2) == pytest.approx(2.0, abs=0.2)


def network(m: int = 1, n: int = 1, antennas: int = 1, kappa_db: float = 0.0,
            **kwargs) -> NetworkConfig:
    return NetworkConfig(num_haps=m, num_gs=n, antennas_per_node=antennas,
                         relay_antennas=antennas, layout=LAYOUT,
                         kappa_up_db=kappa_db,
                         kappa_down_db=kappa_db, **kwargs)


def direct_power(cfg: NetworkConfig, trials: int, seed: int,
                 scale: float) -> np.ndarray:
    """|h|^2 of each trial's direct link in a 1x1 single-antenna network."""
    ens = TrialEnsemble(cfg, trials, seed, include_baseline=True)
    return (2.0 ** ens.baseline_rates(scale) - 1.0) / scale


def oracle_rates(cfg: NetworkConfig, seed: int, trials: int, scale: float,
                 make_link) -> np.ndarray:
    """Relay rates with every channel built by make_link(rng, rows, cols)."""
    m, n = cfg.num_haps, cfg.num_gs
    a, r = cfg.antennas_per_node, cfg.relay_antennas
    out = []
    for t in range(trials):
        rng = oracles.trial_stream(seed, t)
        up = [make_link(rng, r, a) for _ in range(m)]
        down = [make_link(rng, a, r) for _ in range(n)]
        out.append(oracles.relay_rate(m, n, oracles.hop_rate(up, scale),
                                      oracles.hop_rate(down, scale)))
    return np.array(out)


class TestRicianMix:
    def test_kappa_zero_is_pure_scattering(self):
        # -4000 dB is kappa = 0: no line-of-sight weight at all.
        cfg = network(2, 2, antennas=2, kappa_db=-4000.0,
                      snr_reference="post_path_loss")
        got = TrialEnsemble(cfg, 10, 24).relay_rates(3.0, 3.0, 9000.0, 9000.0)
        np.testing.assert_allclose(
            got, oracle_rates(cfg, 24, 10, 3.0, oracles.scattering), rtol=1e-9)

    def test_kappa_huge_is_pure_los(self):
        power = direct_power(network(kappa_db=120.0,
                                     snr_reference="post_path_loss"),
                             50, 24, 1.0)
        assert np.max(np.abs(power - 1.0)) < 1e-5

    def test_kappa_one_is_equal_weights(self):
        cfg = network(2, 2, antennas=2, kappa_db=0.0,
                      aoa_deg=math.degrees(0.4), aod_deg=math.degrees(0.7),
                      snr_reference="post_path_loss")

        def link(rng, rows, cols):
            los = oracles.line_of_sight(cfg, rows, cols)
            return (los + oracles.scattering(rng, rows, cols)) / math.sqrt(2.0)
        got = TrialEnsemble(cfg, 10, 24).relay_rates(3.0, 3.0, 9000.0, 9000.0)
        np.testing.assert_allclose(got, oracle_rates(cfg, 24, 10, 3.0, link),
                                   rtol=1e-9)

    def test_per_entry_power_preserved(self):
        cfg = network(kappa_db=10.0 * math.log10(4.0),
                      snr_reference="post_path_loss")
        power = direct_power(cfg, 4800, 25, 1.0)
        assert np.mean(power) == pytest.approx(1.0, abs=0.05)


class TestPathFactor:
    """gain / d^2 before the SNR equals the SNR set after path loss."""

    @staticmethod
    def pair(gain: float, seed: int = 26) -> tuple[TrialEnsemble, ...]:
        pre, post = (TrialEnsemble(network(2, 2, antennas=2, kappa_db=5.0,
                                           ref_gain_up=gain,
                                           ref_gain_down=gain,
                                           snr_reference=ref), 10, seed)
                     for ref in ("pre_path_loss", "post_path_loss"))
        return pre, post

    def test_unit_reference(self):
        pre, post = self.pair(1.0)
        np.testing.assert_array_equal(pre.relay_rates(5.0, 5.0, 1.0, 1.0),
                                      post.relay_rates(5.0, 5.0, 1.0, 1.0))

    def test_gain_four_distance_two(self):
        pre, post = self.pair(4.0)
        np.testing.assert_array_equal(pre.relay_rates(5.0, 5.0, 2.0, 2.0),
                                      post.relay_rates(5.0, 5.0, 2.0, 2.0))

    def test_scale_factor_value(self):
        # alpha / d^2 = 2 / 1000^2 on the amplitude, squared on the SNR.
        pre, post = self.pair(2.0)
        scale = 1e12
        np.testing.assert_allclose(
            pre.relay_rates(scale, scale, 1000.0, 1000.0),
            post.relay_rates(scale * 2e-6**2, scale * 2e-6**2, 1000.0, 1000.0),
            rtol=1e-15)

    @pytest.mark.parametrize("gain,dist,key", [
        (0.0, 1.0, "ref_gain"), (-1.0, 1.0, "ref_gain"),
        (1.0, 0.0, "distance_m"), (1.0, -2.0, "distance_m"),
    ])
    def test_non_positive_rejected(self, gain, dist, key):
        if key == "ref_gain":
            for name in ("ref_gain_up", "ref_gain_down", "ref_gain_direct"):
                with pytest.raises(ValueError,
                                   match=f"{name} entries must be positive"):
                    network(2, 2, **{name: gain})
            return
        ens = TrialEnsemble(network(), 2, 26)
        with pytest.raises(ValueError, match="d_sr_m must be positive"):
            ens.relay_rates(1.0, 1.0, dist, 9000.0)
        with pytest.raises(ValueError, match="d_rd_m must be positive"):
            ens.relay_rates(1.0, 1.0, 9000.0, dist)

    def test_commutes_with_rician_mix(self):
        cfg = network(2, 2, antennas=2, kappa_db=10.0 * math.log10(3.0),
                      ref_gain_up=7.0, ref_gain_down=7.0,
                      aoa_deg=math.degrees(0.9))
        factor = 7.0 / 321.0**2

        def link(rng, rows, cols):
            los = oracles.line_of_sight(cfg, rows, cols) * factor
            nlos = oracles.scattering(rng, rows, cols) * factor
            return oracles.rician(cfg.kappa_up_db[0], los, nlos)
        got = TrialEnsemble(cfg, 10, 26).relay_rates(1e9, 1e9, 321.0, 321.0)
        np.testing.assert_allclose(got, oracle_rates(cfg, 26, 10, 1e9, link),
                                   rtol=1e-9)


class TestLinkComposition:
    def test_kappa_zero_unit_gain_is_rayleigh(self):
        # The direct link is each trial's third draw, after the two relay hops.
        cfg = network(kappa_db=-4000.0, snr_reference="post_path_loss")
        power = direct_power(cfg, 20, 27, 1.0)
        expected = []
        for t in range(20):
            rng = oracles.trial_stream(27, t)
            for _ in range(2):
                oracles.scattering(rng, 1, 1)
            expected.append(abs(oracles.scattering(rng, 1, 1)[0, 0]) ** 2)
        np.testing.assert_allclose(power, expected, rtol=1e-12)

    def test_equals_explicit_composition(self):
        cfg = network(2, 2, antennas=2, kappa_db=10.0 * math.log10(6.0),
                      ref_gain_up=2.5, ref_gain_down=2.5)
        ens = TrialEnsemble(cfg, 10, 28)
        got = ens.relay_rates(1e6, 1e6, 750.0, 750.0)
        c_up, c_down, _ = oracles.trial_hop_rates(cfg, 28, 10, 1e6, 1e6,
                                                  750.0, 750.0)
        for got_t, expected in zip(got, oracles.relay_rate(2, 2, c_up, c_down)):
            assert math.isclose(got_t, expected, rel_tol=1e-9)

    def test_fixed_seed_reproducible(self):
        cfg = network(2, 2, antennas=2, kappa_db=3.0)
        a, b = (TrialEnsemble(cfg, 10, 29, include_baseline=True)
                for _ in range(2))
        np.testing.assert_array_equal(a.relay_rates(5.0, 5.0, 9000.0, 9000.0),
                                      b.relay_rates(5.0, 5.0, 9000.0, 9000.0))
        np.testing.assert_array_equal(a.baseline_rates(5.0),
                                      b.baseline_rates(5.0))

    def test_mean_frobenius_power(self):
        # E |h|^2 = (g/d^2)^2 for unit-power fading.
        cfg = network(kappa_db=10.0 * math.log10(5.0), ref_gain_up=3.0)
        path = (3.0 / LAYOUT.d_sd_m**2) ** 2
        power = direct_power(cfg, 10000, 30, 1.0 / path)
        assert np.mean(power) == pytest.approx(path, rel=0.02)
