"""The trial ensemble's relay and baseline rates: the capacity formula.

The rates come from the trial ensemble, the one place hapsim evaluates
C = [M*N/(M+N-1)] * min(C1, C2) and the time-sharing baseline; they are
checked here against exact values and the independent oracle in
oracles.py, and as a growing Rician factor degrades the channel.  The
config they read is checked in test_network.py.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from helpers import gram_condition, random_complex

from hapsim.network import NetworkConfig, ScenarioLayout
from hapsim.simulator import TrialEnsemble

LAYOUT = ScenarioLayout(hap_altitude_m=18000.0, relay_altitude_m=9000.0)


def make_cfg(m: int = 3, n: int = 3, antennas: int | None = None, **kwargs
             ) -> NetworkConfig:
    relay = max(1, (m - 1) * (n - 1))
    return NetworkConfig(
        num_haps=m, num_gs=n,
        antennas_per_node=relay if antennas is None else antennas,
        layout=LAYOUT, **kwargs)


def unit_los_cfg() -> NetworkConfig:
    """1x1 network, one antenna per node, 400 dB Rician factor: every h is 1."""
    return make_cfg(1, 1, antennas=1, kappa_up_db=400.0, kappa_down_db=400.0,
                    snr_reference="post_path_loss")


def oracle_relay_rates(cfg: NetworkConfig, ens: TrialEnsemble
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Ensemble and oracle relay rates per trial, at the configured powers."""
    lay = cfg.layout
    scale_up = cfg.hap_power / (cfg.noise_power * cfg.uplink_streams())
    scale_dn = cfg.relay_power / (cfg.noise_power * cfg.downlink_streams())
    got = ens.relay_rates(scale_up, scale_dn, lay.d_sr_m, lay.d_rd_m)
    c_up, c_dn, _ = oracles.trial_hop_rates(
        cfg, ens.master_seed, ens.trials, scale_up, scale_dn, lay.d_sr_m,
        lay.d_rd_m)
    return got, oracles.relay_rate(cfg.num_haps, cfg.num_gs, c_up, c_dn)


def unit_los_network(m: int, n: int) -> NetworkConfig:
    """M x N network of single-antenna nodes, 400 dB Rician factor: h = 1."""
    return make_cfg(m, n, antennas=1, kappa_up_db=400.0, kappa_down_db=400.0,
                    snr_reference="post_path_loss")


class TestRelayRates:
    def test_total_derived_from_min(self):
        # Per trial the weaker hop sets the rate, and both hops bind somewhere.
        cfg = make_cfg(2, 3, kappa_up_db=5.0, kappa_down_db=5.0,
                       snr_reference="post_path_loss")
        ens = TrialEnsemble(cfg, trials=40, master_seed=40)
        c_up, c_dn, _ = oracles.trial_hop_rates(cfg, 40, 40, 8.0, 2.0,
                                                LAYOUT.d_sr_m, LAYOUT.d_rd_m)
        got = ens.relay_rates(8.0, 2.0, LAYOUT.d_sr_m, LAYOUT.d_rd_m)
        np.testing.assert_allclose(
            got, cfg.dof_prefactor * np.minimum(c_up, c_dn), rtol=1e-9)
        assert (c_up < c_dn).any() and (c_dn < c_up).any()

    def test_scalar_channel(self):
        ens = TrialEnsemble(unit_los_cfg(), trials=2, master_seed=1)
        for snr, bits in ((1.0, 1.0), (3.0, 2.0), (15.0, 4.0)):
            rates = ens.relay_rates(snr, snr, 9000.0, 9000.0)
            assert rates.tolist() == pytest.approx([bits, bits], rel=1e-15)

    def test_two_identity_channels(self):
        # Two unit links per hop carry one bit each at unit SNR.
        cfg = unit_los_network(2, 2)
        ens = TrialEnsemble(cfg, trials=2, master_seed=1)
        rates = ens.relay_rates(1.0, 1.0, 9000.0, 9000.0)
        assert rates.tolist() == pytest.approx(
            [cfg.dof_prefactor * 2.0] * 2, rel=1e-15)

    def test_matches_inverse_oracle(self):
        # A downlink 120 dB stronger leaves the uplink sum as the rate.
        cfg = make_cfg(3, 2, antennas=2, kappa_up_db=5.0, kappa_down_db=5.0,
                       snr_reference="post_path_loss")
        ens = TrialEnsemble(cfg, trials=30, master_seed=41)
        c_up, c_dn, _ = oracles.trial_hop_rates(cfg, 41, 30, 2.0, 2e12,
                                                LAYOUT.d_sr_m, LAYOUT.d_rd_m)
        assert (c_up < c_dn).all()
        got = ens.relay_rates(2.0, 2e12, LAYOUT.d_sr_m, LAYOUT.d_rd_m)
        np.testing.assert_allclose(got, cfg.dof_prefactor * c_up, rtol=1e-9)

    def test_all_streams_counts_every_column(self):
        cfg = make_cfg(2, 3, all_streams=True, kappa_up_db=[3.0, 8.0],
                       kappa_down_db=[0.0, 4.0, 9.0], ref_gain_up=8.1e7,
                       ref_gain_down=[6e7, 8.1e7, 1e8], hap_power=3.0)
        got, expected = oracle_relay_rates(cfg, TrialEnsemble(cfg, 20, 41))
        np.testing.assert_allclose(got, expected, rtol=1e-9)

    def test_unit_point_to_point(self):
        ens = TrialEnsemble(unit_los_cfg(), trials=3, master_seed=1)
        rates = ens.relay_rates(1.0, 1.0, 9000.0, 9000.0)
        np.testing.assert_allclose(rates, 1.0, rtol=1e-12)

    def test_symmetric_hops_are_tight(self):
        # Equal hops both bind: raising either one alone changes nothing.
        cfg = unit_los_network(2, 2)
        ens = TrialEnsemble(cfg, trials=2, master_seed=42)
        tight = ens.relay_rates(3.0, 3.0, 9000.0, 9000.0)
        np.testing.assert_allclose(tight, cfg.dof_prefactor * 2.0 * 2.0,
                                   rtol=1e-12)
        np.testing.assert_array_equal(ens.relay_rates(30.0, 3.0, 9000.0,
                                                      9000.0), tight)
        np.testing.assert_array_equal(ens.relay_rates(3.0, 30.0, 9000.0,
                                                      9000.0), tight)

    def test_matches_transliteration_oracle(self):
        # Per-link factors and gains, both SNR references and N_T overrides.
        rng = np.random.default_rng(43)
        for i in range(40):
            cfg = make_cfg(
                2, 3, hap_power=float(rng.uniform(0.5, 5.0)),
                relay_power=float(rng.uniform(0.5, 5.0)),
                noise_power=float(rng.uniform(0.5, 2.0)),
                kappa_up_db=rng.uniform(0.0, 10.0, 2).tolist(),
                kappa_down_db=rng.uniform(0.0, 10.0, 3).tolist(),
                ref_gain_up=rng.uniform(4e7, 1.6e8, 2).tolist(),
                ref_gain_down=rng.uniform(4e7, 1.6e8, 3).tolist(),
                streams_per_tx=[None, 1, 3][i % 3],
                snr_reference=["pre_path_loss", "post_path_loss"][i % 2])
            got, expected = oracle_relay_rates(cfg, TrialEnsemble(cfg, 2, i))
            np.testing.assert_allclose(got, expected, rtol=1e-9)

    @settings(max_examples=8, deadline=None, database=None)
    @given(seed=st.integers(0, 2**64 - 1), kappa_db=st.floats(0.0, 40.0))
    def test_monotone_in_power(self, seed, kappa_db):
        # Common random numbers: every trial's rate is monotone in SNR.
        ens = TrialEnsemble(make_cfg(kappa_up_db=kappa_db,
                                     kappa_down_db=kappa_db),
                            trials=20, master_seed=seed)
        rates = np.array([ens.relay_rates(g, g, 9000.0, 9000.0)
                          for g in 10.0 ** np.arange(0.0, 4.5, 0.5)])
        valid = np.isfinite(rates).all(axis=0)
        assert valid.any()
        assert (np.diff(rates[:, valid], axis=0) >= 0.0).all()

    def test_high_snr_slope(self):
        cfg = make_cfg(kappa_up_db=10.0, kappa_down_db=10.0,
                       ref_gain_up=8.1e7, ref_gain_down=8.1e7)
        ens = TrialEnsemble(cfg, trials=200, master_seed=46)
        r1 = ens.relay_rates(1e12, 1e12, 9000.0, 9000.0)
        r2 = ens.relay_rates(1e16, 1e16, 9000.0, 9000.0)
        slope = (r2 - r1) / math.log2(1e4)
        # One summed stream per node on each hop: prefactor times 3.
        np.testing.assert_allclose(slope, cfg.dof_prefactor * 3.0,
                                   rtol=4e-9, atol=0.0)


class TestBaselineRates:
    def test_point_to_point(self):
        ens = TrialEnsemble(unit_los_cfg(), trials=3, master_seed=1,
                            include_baseline=True)
        np.testing.assert_allclose(ens.baseline_rates(3.0), 2.0, rtol=1e-12)


    def test_identity_grid(self):
        # Four unit direct links, one bit each, each active a quarter of the time.
        ens = TrialEnsemble(unit_los_network(2, 2), trials=2, master_seed=1,
                            include_baseline=True)
        np.testing.assert_allclose(ens.baseline_rates(1.0), 1.0, rtol=1e-12)

    def test_matches_loop_oracle(self):
        cfg = make_cfg(2, 3, antennas=3, hap_power=4.0, noise_power=0.5,
                       kappa_up_db=[2.0, 7.0], ref_gain_up=[8.1e7, 6e7])
        ens = TrialEnsemble(cfg, trials=10, master_seed=47,
                            include_baseline=True)
        scale = 4.0 / (0.5 * 3)
        got = ens.baseline_rates(scale)
        lay = cfg.layout
        *_, c_direct = oracles.trial_hop_rates(cfg, 47, ens.trials, scale,
                                               scale, lay.d_sr_m, lay.d_rd_m,
                                               scale, lay.d_sd_m)
        for got_t, c_t in zip(got, c_direct):
            assert math.isclose(got_t, oracles.baseline_rate(2, 3, c_t),
                                rel_tol=1e-9)


class TestCorrelatedColumnsDegradation:
    """Rate falls and the Gram matrix degenerates as kappa grows."""

    def test_condition_number_grows_with_kappa(self):
        # cond(H^H H) of Rician channels as the rank-one part takes over.
        rng = np.random.default_rng(48)
        cfg = make_cfg(aoa_deg=math.degrees(0.5), aod_deg=math.degrees(0.3))
        los = oracles.line_of_sight(cfg, 4, 4)
        draws = [random_complex(rng, 4, 4) for _ in range(150)]
        conds = [np.mean(gram_condition(np.stack(
            [oracles.rician(kappa_db, los, w) for w in draws])))
            for kappa_db in (0.0, 20.0, 40.0, 60.0)]
        assert all(b > a for a, b in zip(conds, conds[1:]))

    def test_rate_non_increasing_in_kappa(self):
        def mean_rate(kappa_db):
            cfg = make_cfg(kappa_up_db=kappa_db, kappa_down_db=kappa_db,
                           aoa_deg=math.degrees(0.5),
                           aod_deg=math.degrees(0.3),
                           snr_reference="post_path_loss")
            rates = TrialEnsemble(cfg, 150, 48).relay_rates(
                10.0, 10.0, 9000.0, 9000.0)
            assert np.isfinite(rates).all()
            return float(np.mean(rates))
        rates = [mean_rate(k) for k in (0.0, 10.0, 20.0)]
        assert all(b <= a for a, b in zip(rates, rates[1:]))

    def test_huge_kappa_raises_singularity(self):
        # 130 dB leaves a rank-one channel: every trial is singular.
        cfg = make_cfg(kappa_up_db=130.0, kappa_down_db=130.0,
                       aoa_deg=math.degrees(0.5), aod_deg=math.degrees(0.3))
        rates = TrialEnsemble(cfg, 5, 48).relay_rates(1.0, 1.0, 9000.0, 9000.0)
        assert np.isnan(rates).all()
