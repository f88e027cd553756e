"""Trial ensembles, sweeps and the optimal-altitude search (hapsim.simulator).

The trial ensemble is the one place hapsim evaluates the relay rate
C = [M*N/(M+N-1)] * min(C1, C2) and the time-sharing baseline.  Its relay
and baseline rates, its scattering draws, the Rician mix with the
line-of-sight matrices and the path factor (gain / d^2 on the amplitude,
squared on the SNR) are checked against exact values and the independent
oracle in oracles.py: on single-antenna links a rate gives |h|^2 back as
2**rate - 1.  Sweep points are checked against the oracle on the same
draws.  The other tests check what must not depend on how the work is cut
(trials per chunk, points per pass), the memory a build or a sweep holds,
the input rules for budgets and operating points, and the golden-section
search against the grid.  The streams the ensemble draws from are tested
in test_streams.py, the config it reads in test_network.py.
"""

import dataclasses
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from helpers import (LAYOUT, bootstrap_mean_ci, failed_trials, gram_condition,
                     make_cfg, random_complex, scenario_curves)

from hapsim import kernels, simulator, streams
from hapsim.network import (FAR_FIELD_FACTOR, NetworkConfig, db_to_linear,
                            los_channel)
from hapsim.scenario import load_scenario
from hapsim.simulator import (
    RELAY_ALTITUDE_M,
    SNR_DB,
    SumRateCurve,
    SweepSpec,
    TrialEnsemble,
    check_altitude_bracket,
    find_optimal_altitude,
    run_altitude_sweep,
    run_snr_sweep,
)
from hapsim.streams import trial_rng


def ensemble_for(cfg: NetworkConfig, spec: SweepSpec) -> TrialEnsemble:
    """The trial ensemble that spec's trials and master seed ask for."""
    return TrialEnsemble(cfg, spec.trials, spec.master_seed)


def draw_width(cfg: NetworkConfig, include_baseline: bool = False) -> int:
    """Standard normals one trial draws: 2 r c for each link of each hop."""
    return sum(2 * hop.links * math.prod(hop.shape)
               for hop in simulator._hops(cfg, include_baseline))


def oracle_relay_rates(cfg: NetworkConfig, ens: TrialEnsemble
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Ensemble and oracle relay rates per trial, at the configured powers."""
    lay = cfg.layout
    scale_up = cfg.hap_power / (
        cfg.noise_power * (cfg.streams_per_tx or cfg.antennas_per_node))
    scale_dn = cfg.relay_power / (
        cfg.noise_power * (cfg.streams_per_tx or cfg.relay_antennas))
    got = ens.relay_rates(scale_up, scale_dn, lay.d_sr_m, lay.d_rd_m)
    c_up, c_dn, _ = oracles.trial_hop_rates(
        cfg, ens.master_seed, ens.trials, scale_up, scale_dn, lay.d_sr_m,
        lay.d_rd_m)
    return got, oracles.relay_rate(cfg.num_haps, cfg.num_gs, c_up, c_dn)


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


# Named presets on make_cfg; a call's keywords override a preset's.
# The sweep tests' network: 3 x 3 with A = 4, 10 dB Rician factors and
# gains of 8.1e7 on both hops.
sweep_cfg = partial(make_cfg, kappa_up_db=10.0, kappa_down_db=10.0,
                    ref_gain_up=8.1e7, ref_gain_down=8.1e7)
# M x N single-antenna nodes, 400 dB Rician factor: every h is 1.
unit_los_network = partial(make_cfg, antennas=1, kappa_up_db=400.0,
                           kappa_down_db=400.0,
                           snr_reference="post_path_loss")


# 2 platforms, 3 ground stations: every link has its own Rician factor
# and gain, so a hop whose links are permuted or mis-broadcast (the
# direct links follow their platform) changes the rates.
PER_LINK = dict(
    m=2, n=3, antennas=4, relay_antennas=4,
    kappa_up_db=[12.0, 25.0], kappa_down_db=[3.0, 9.0, 16.0],
    kappa_direct_db=[6.0, 18.0],
    ref_gain_up=[2.4e8, 3.6e8], ref_gain_down=[1.2e8, 1.6e8, 2.0e8],
    ref_gain_direct=[2.5e8, 3.5e8])

# Per-link factors and gains with all streams and the baseline; 90 dB on
# the second platform's links makes a few trials singular.
PARTLY_SINGULAR = dict(PER_LINK, all_streams=True,
                       kappa_up_db=[12.0, 90.0], kappa_direct_db=[6.0, 90.0])


class TestSweepSpec:
    def test_grid_snr(self):
        spec = SweepSpec(SNR_DB, 0.0, 30.0, 2.5)
        assert spec.num_points == 13
        grid = spec.grid()
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(30.0, abs=1e-9)

    def test_grid_altitude_band(self):
        spec = SweepSpec(RELAY_ALTITUDE_M, 1000.0, 17500.0, 250.0)
        assert spec.num_points == 67

    @pytest.mark.parametrize("kwargs,msg", [
        (dict(variable="power"), "variable"),
        (dict(start=5.0, stop=5.0), "start must be"),
        (dict(step=0.0), "step must be positive"),
        (dict(step=100.0), "fewer than 2 points"),
        (dict(trials=0), "trials"),
        (dict(master_seed=-1), "master_seed"),
        (dict(trials=2**32 + 1), "trials"),
        (dict(start=math.nan), "start must be finite"),
        (dict(trials=2.7), "trials must be an integer"),
        (dict(trials=True), "trials must be an integer"),
        (dict(master_seed=3.99), "master_seed must be an integer"),
        (dict(master_seed=np.bool_(False)), "master_seed must be an integer"),
        (dict(start=0.0, stop=1e300, step=1e-300),
         r"^step 1e-300 yields too many points to count over \[0.0, 1e\+300\]"),
        (dict(start=-1e308, stop=1e308, step=1.0),
         r"^step 1.0 yields too many points to count over "
         r"\[-1e\+308, 1e\+308\]"),
        (dict(start=0.0, stop=1e300, step=1.0),
         r"^step 1.0 yields too many points to count over \[0.0, 1e\+300\]; "
         r"a sweep has at most 1000000 points$"),
        (dict(start=-2.5, stop=float(simulator.MAX_SWEEP_POINTS) - 2.5,
              step=1.0), "a sweep has at most 1000000 points"),
        (dict(trials=np.array([5])), "trials must be an integer"),
        (dict(trials=np.array(5)), "trials must be an integer"),
        (dict(start=10000.0, stop=10000.00000000001, step=1.0e-12),
         r"^step 1e-12 is below float64 resolution over "
         r"\[10000.0, 10000.00000000001\]: grid points coincide$"),
    ])
    def test_validation(self, kwargs, msg):
        base = dict(variable=SNR_DB, start=0.0, stop=30.0, step=2.5)
        base.update(kwargs)
        with pytest.raises(ValueError, match=msg):
            SweepSpec(**base)

    def test_largest_grid_is_counted_not_built(self, monkeypatch):
        # One point fewer than the rejected count above passes; its grid is
        # never built here.
        monkeypatch.setattr(SweepSpec, "grid", None)
        spec = SweepSpec(SNR_DB, -2.5, simulator.MAX_SWEEP_POINTS - 3.5, 1.0)
        assert spec.num_points == simulator.MAX_SWEEP_POINTS


class TestChunkSeeding:
    """An ensemble checks its trial budget and the chunk seeding before its
    first draw, and makes at most one SeedSequence per chunk."""

    def test_at_most_one_seed_sequence_per_chunk(self, monkeypatch):
        made = []

        class Counted(np.random.SeedSequence):
            def __init__(self, *args, **kwargs):
                made.append(args)
                super().__init__(*args, **kwargs)

        streams._pair_order()  # the one-off probe draws its own stream
        monkeypatch.setattr(np.random, "SeedSequence", Counted)
        trial_rng(5, 0)
        assert len(made) == 1
        made.clear()
        trials, chunk = 2048, 1024
        monkeypatch.setattr(simulator, "_CHUNK_DRAWS",
                            chunk * draw_width(sweep_cfg()))
        TrialEnsemble(sweep_cfg(), trials, 5)
        assert len(made) <= -(-trials // chunk)

    @pytest.mark.parametrize("trials,seed,msg", [
        (0, 5, "trials"),
        (2**32 + 1, 5, "trials"),
        (1, -1, "master_seed"),
        (1, 2**64, "master_seed"),
        (2.7, 1.9, "trials must be an integer"),
        (True, 3, "trials must be an integer"),
        (2, 3.99, "master_seed must be an integer"),
        (2, "3", "master_seed must be an integer"),
        (np.array([5]), 3, "trials must be an integer"),
        (np.array(5), 3, "trials must be an integer"),
    ])
    def test_budget_rejected_before_any_draw(self, monkeypatch, trials,
                                             seed, msg):
        def draw(*args):
            raise AssertionError("drew trials")

        monkeypatch.setattr(streams, "fill_trials", draw)
        with pytest.raises(ValueError, match=msg):
            TrialEnsemble(sweep_cfg(), trials, seed)

    def test_largest_trial_count_accepted(self):
        assert SweepSpec(SNR_DB, 0.0, 30.0, 2.5, trials=2**32).trials == 2**32

    def test_numpy_integers_accepted(self):
        ens = TrialEnsemble(sweep_cfg(), np.int64(3), np.uint64(2**64 - 1))
        assert (ens.trials, ens.master_seed) == (3, 2**64 - 1)
        assert type(ens.trials) is int and type(ens.master_seed) is int

    def test_seeding_self_check_raises_before_any_draw(self, monkeypatch):
        # A hash constant that differs from numpy's makes the chunk path's
        # rows differ from trial_rng's; the probe must catch that before
        # the ensemble draws a trial of its own.
        drawn = []
        draw_rows = streams._draw_rows

        def spy(master_seed, lo, out, order):
            drawn.append(master_seed)
            draw_rows(master_seed, lo, out, order)

        monkeypatch.setattr(streams, "_MULT_A", streams._MULT_A ^ 2)
        monkeypatch.setattr(streams, "_draw_rows", spy)
        streams._pair_order.cache_clear()
        try:
            with pytest.raises(RuntimeError, match="disagrees with trial_rng"):
                TrialEnsemble(sweep_cfg(), 4, 5)
        finally:
            streams._pair_order.cache_clear()
        assert drawn == [2**64 - 1]


class TestHarnessTransparency:
    """The sweep harness is transparent: sweep points must reproduce the
    oracle on the same draws."""

    TRIALS = 4

    @pytest.mark.parametrize("overrides,binding", [
        (dict(noise_power=2.0, ref_gain_down=1.62e8), None),
        (PER_LINK, "uplink"),
        (dict(PER_LINK, ref_gain_down=[1.2e7, 1.6e7, 2.0e7]), "downlink"),
    ], ids=["3x3-scalar", "per-link-uplink-binds", "per-link-downlink-binds"])
    def test_snr_points_match_direct_capacity(self, overrides, binding):
        cfg = sweep_cfg(**overrides)
        spec = SweepSpec(SNR_DB, 10.0, 20.0, 10.0, trials=self.TRIALS,
                         master_seed=777)
        result = run_snr_sweep(cfg, spec, include_baseline=True)
        lay = cfg.layout
        m, n = cfg.num_haps, cfg.num_gs
        for x, mean_rate, base_rate in zip(result.relay.xs,
                                           result.relay.mean_rates,
                                           result.baseline.mean_rates):
            gamma = db_to_linear(x)
            c_up, c_down, c_direct = oracles.trial_hop_rates(
                cfg, 777, self.TRIALS, gamma, gamma, lay.d_sr_m, lay.d_rd_m,
                gamma, lay.d_sd_m)
            expected = np.mean(oracles.relay_rate(m, n, c_up, c_down))
            assert mean_rate == pytest.approx(expected, rel=1e-9)
            if binding is not None:
                assert ((c_up < c_down) == (binding == "uplink")).all()
            base_expected = np.mean(oracles.baseline_rate(m, n, c_direct))
            assert base_rate == pytest.approx(base_expected, rel=1e-9)

    def test_altitude_point_matches_direct_capacity(self):
        cfg = sweep_cfg(hap_power=50.0, relay_power=80.0, noise_power=2.0)
        spec = SweepSpec(RELAY_ALTITUDE_M, 8000.0, 10000.0, 1000.0,
                         trials=self.TRIALS, master_seed=778)
        curve = run_altitude_sweep(ensemble_for(cfg, spec), spec)
        scale_up = 50.0 / (2.0 * (cfg.streams_per_tx or cfg.antennas_per_node))
        scale_dn = 80.0 / (2.0 * (cfg.streams_per_tx or cfg.relay_antennas))
        for x, mean_rate in zip(curve.xs, curve.mean_rates):
            d_sr = cfg.layout.hap_altitude_m - x
            d_rd = x - cfg.layout.gs_altitude_m
            c_up, c_down, _ = oracles.trial_hop_rates(
                cfg, 778, self.TRIALS, scale_up, scale_dn, d_sr, d_rd)
            expected = oracles.relay_rate(cfg.num_haps, cfg.num_gs, c_up,
                                          c_down)
            assert mean_rate == pytest.approx(np.mean(expected), rel=1e-9)


class TestSnrSweep:
    def test_deterministic_rerun(self):
        cfg = sweep_cfg()
        spec = SweepSpec(SNR_DB, 0.0, 10.0, 5.0, trials=50, master_seed=5)
        r1 = run_snr_sweep(cfg, spec, include_baseline=True)
        r2 = run_snr_sweep(cfg, spec, include_baseline=True)
        np.testing.assert_array_equal(r1.relay.mean_rates, r2.relay.mean_rates)
        np.testing.assert_array_equal(r1.baseline.mean_rates,
                                      r2.baseline.mean_rates)

    def test_common_draws_across_overlapping_sweeps(self):
        cfg = sweep_cfg()
        lo = SweepSpec(SNR_DB, 0.0, 10.0, 5.0, trials=40, master_seed=9)
        hi = SweepSpec(SNR_DB, 5.0, 15.0, 5.0, trials=40, master_seed=9)
        r_lo = run_snr_sweep(cfg, lo).relay
        r_hi = run_snr_sweep(cfg, hi).relay
        assert r_lo.mean_rates[1] == r_hi.mean_rates[0]
        assert r_lo.mean_rates[2] == r_hi.mean_rates[1]

    def test_mean_rate_monotone_in_snr(self):
        cfg = sweep_cfg()
        spec = SweepSpec(SNR_DB, 0.0, 30.0, 5.0, trials=60, master_seed=11)
        curve = run_snr_sweep(cfg, spec).relay
        diffs = np.diff(curve.mean_rates)
        assert (diffs > -1e-9).all()

    def test_std_err_shrinks_with_trials(self):
        cfg = sweep_cfg(2, 2, antennas=1, kappa_up_db=5.0, kappa_down_db=5.0)
        small = SweepSpec(SNR_DB, 10.0, 20.0, 10.0, trials=600, master_seed=3)
        big = SweepSpec(SNR_DB, 10.0, 20.0, 10.0, trials=2400, master_seed=3)
        se_small = run_snr_sweep(cfg, small).relay.std_errs[0]
        se_big = run_snr_sweep(cfg, big).relay.std_errs[0]
        assert 1.6 < se_small / se_big < 2.4

    def test_relay_curve_ignores_baseline_flag(self):
        cfg = sweep_cfg()
        spec = SweepSpec(SNR_DB, 0.0, 10.0, 5.0, trials=30, master_seed=21)
        alone = run_snr_sweep(cfg, spec, include_baseline=False)
        paired = run_snr_sweep(cfg, spec, include_baseline=True)
        np.testing.assert_array_equal(alone.relay.mean_rates,
                                      paired.relay.mean_rates)
        assert alone.baseline is None

    def test_one_finite_trial_has_zero_std_err(self):
        cfg = sweep_cfg()
        spec = SweepSpec(SNR_DB, 0.0, 10.0, 10.0, trials=1, master_seed=2)
        ens = TrialEnsemble(cfg, 1, 2)
        curve = run_snr_sweep(cfg, spec).relay
        for x, mean_rate, std_err in zip(curve.xs, curve.mean_rates,
                                         curve.std_errs):
            rate = ens.relay_rates(db_to_linear(x), db_to_linear(x),
                                   cfg.layout.d_sr_m, cfg.layout.d_rd_m)
            assert (mean_rate, std_err) == (rate[0], 0.0)
        assert curve.trials_failed == 0

    def test_all_singular_point_reports_nan(self):
        cfg = sweep_cfg(kappa_up_db=200.0, kappa_down_db=200.0)
        spec = SweepSpec(SNR_DB, 0.0, 10.0, 10.0, trials=5, master_seed=2)
        curve = run_snr_sweep(cfg, spec).relay
        assert np.isnan(curve.mean_rates).all()
        assert curve.trials_failed == 5
        assert math.isnan(curve.argmax_x)

    def test_wrong_variable_rejected(self):
        spec = SweepSpec(RELAY_ALTITUDE_M, 1000.0, 2000.0, 500.0, trials=2)
        with pytest.raises(ValueError, match="snr_db"):
            run_snr_sweep(sweep_cfg(), spec)

    @pytest.mark.parametrize("key", ["ref_gain_up", "ref_gain_down",
                                     "ref_gain_direct"])
    def test_overflowing_gain_is_an_input_error(self, key):
        cfg = sweep_cfg(**{key: 1e200})
        spec = SweepSpec(SNR_DB, 0.0, 10.0, 10.0, trials=3, master_seed=2)
        with pytest.raises(ValueError, match=f"overflows.*{key}"):
            run_snr_sweep(cfg, spec, include_baseline=True)


class TestAltitudeSweep:
    def test_grid_and_symmetric_peak(self):
        cfg = sweep_cfg(kappa_up_db=20.0, kappa_down_db=20.0,
                        hap_power=4000.0, relay_power=4000.0)
        spec = SweepSpec(RELAY_ALTITUDE_M, 4000.0, 14000.0, 500.0,
                         trials=300, master_seed=12345)
        curve = run_altitude_sweep(ensemble_for(cfg, spec), spec)
        np.testing.assert_array_equal(curve.xs, spec.grid())
        assert abs(curve.argmax_x - 9000.0) <= 500.0

    def test_band_outside_layout_rejected(self):
        cfg = sweep_cfg()
        spec = SweepSpec(RELAY_ALTITUDE_M, 1000.0, 18000.0, 1000.0, trials=2)
        with pytest.raises(ValueError, match="strictly inside"):
            run_altitude_sweep(ensemble_for(cfg, spec), spec)

    def test_band_violating_far_field_rejected(self):
        cfg = sweep_cfg()
        spec = SweepSpec(RELAY_ALTITUDE_M, 0.1, 0.2, 0.1, trials=2)
        with pytest.raises(ValueError, match="far-field"):
            run_altitude_sweep(ensemble_for(cfg, spec), spec)

    def test_wrong_variable_rejected(self):
        spec = SweepSpec(SNR_DB, 0.0, 10.0, 5.0, trials=2)
        with pytest.raises(ValueError, match="relay_altitude_m"):
            run_altitude_sweep(ensemble_for(sweep_cfg(), spec), spec)

    def test_overflowing_power_is_an_input_error(self):
        cfg = sweep_cfg(hap_power=1e308, relay_power=1e308, noise_power=1e-300)
        spec = SweepSpec(RELAY_ALTITUDE_M, 8000.0, 10000.0, 1000.0, trials=3)
        with pytest.raises(ValueError, match="overflows.*hap_power"):
            run_altitude_sweep(ensemble_for(cfg, spec), spec)

    @pytest.mark.parametrize("trials,seed", [(4, 12345), (3, 12346)])
    def test_spec_must_match_the_ensemble(self, trials, seed):
        spec = SweepSpec(RELAY_ALTITUDE_M, 8000.0, 10000.0, 1000.0, trials=3)
        ens = TrialEnsemble(sweep_cfg(), trials, seed)
        with pytest.raises(ValueError, match="ensemble holds"):
            run_altitude_sweep(ens, spec)


class TestSumRateCurve:
    def test_argmax_tie_takes_smallest_x(self):
        curve = SumRateCurve([1.0, 2.0, 3.0], [2.0, 5.0, 5.0], [0.0] * 3, 0)
        assert curve.argmax_x == 2.0

    def test_argmax_skips_nan(self):
        curve = SumRateCurve([1.0, 2.0], [math.nan, 1.5], [0.0, 0.1], 0)
        assert curve.argmax_x == 2.0

    def test_unsorted_points_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            SumRateCurve([2.0, 1.0], [1.0, 1.0], [0.0, 0.0], 0)

    @pytest.mark.parametrize("xs", [[math.nan, 1.0, 2.0], [1.0, math.nan]],
                             ids=["nan-first", "nan-last"])
    def test_nan_point_rejected(self, xs):
        with pytest.raises(ValueError, match="^xs must be strictly ascending$"):
            SumRateCurve(xs, [1.0] * len(xs), [0.0] * len(xs), 0)

    def test_columns_of_unequal_length_rejected(self):
        with pytest.raises(ValueError, match="1-D of one length"):
            SumRateCurve([1.0, 2.0, 3.0], [1.0, 1.0], [0.0, 0.0, 0.0], 0)

    def test_two_dimensional_columns_rejected(self):
        with pytest.raises(ValueError, match="1-D of one length"):
            SumRateCurve([[1.0, 2.0], [3.0, 4.0]], [[1.0, 1.0], [1.0, 1.0]],
                         [[0.0, 0.0], [0.0, 0.0]], 0)

    @pytest.mark.parametrize("failed,message", [
        (-3, "^trials_failed and every std_err must be >= 0$"),
        ("many", "^trials_failed must be an integer, got 'many'$"),
        (True, "^trials_failed must be an integer, got True$"),
        (2.5, "^trials_failed must be an integer, got 2.5$"),
    ], ids=["negative", "str", "bool", "float"])
    def test_bad_failed_count_rejected(self, failed, message):
        with pytest.raises(ValueError, match=message):
            SumRateCurve([1.0, 2.0], [1.0, 1.0], [0.0, 0.0], failed)

    def test_negative_std_err_rejected(self):
        with pytest.raises(ValueError, match="every std_err must be >= 0"):
            SumRateCurve([1.0, 2.0], [1.0, 1.0], [-5.0, 0.0], 0)

    def test_failed_count_stored_as_int(self):
        curve = SumRateCurve([1.0, 2.0], [1.0, 1.0], [0.0, 0.0], np.int64(3))
        assert type(curve.trials_failed) is int and curve.trials_failed == 3


class TestTrialEnsemble:
    def test_baseline_requires_flag(self):
        ens = TrialEnsemble(sweep_cfg(), trials=3, master_seed=1)
        with pytest.raises(RuntimeError, match="baseline"):
            ens.baseline_rates(10.0)

    @pytest.mark.parametrize("flag", ["false", "no", 1, None])
    def test_baseline_flag_must_be_a_bool(self, flag, monkeypatch):
        # A truthy string does not switch the baseline on; the check comes
        # before any draw, for the ensemble and for the SNR sweep alike.
        def no_draws(*args):
            raise AssertionError("drew trials")

        monkeypatch.setattr(streams, "fill_trials", no_draws)
        message = f"^include_baseline must be true or false, got {flag!r}$"
        with pytest.raises(ValueError, match=message):
            TrialEnsemble(sweep_cfg(), 3, 1, include_baseline=flag)
        spec = SweepSpec(SNR_DB, 0.0, 10.0, 5.0, trials=3, master_seed=1)
        with pytest.raises(ValueError, match=message):
            run_snr_sweep(sweep_cfg(), spec, include_baseline=flag)

    def test_non_positive_scale_rejected(self):
        ens = TrialEnsemble(sweep_cfg(), trials=3, master_seed=1)
        with pytest.raises(ValueError, match="positive"):
            ens.relay_rates(0.0, 1.0, 9000.0, 9000.0)

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan])
    def test_non_positive_baseline_scale_rejected(self, scale):
        ens = TrialEnsemble(sweep_cfg(), 3, 1, include_baseline=True)
        with pytest.raises(ValueError, match="snr scale must be positive"):
            ens.baseline_rates(scale)

    def test_short_distance_rejected(self):
        ens = TrialEnsemble(sweep_cfg(), trials=3, master_seed=1)
        with pytest.raises(ValueError, match="far-field"):
            ens.relay_rates(1.0, 1.0, 0.05, 9000.0)

    def test_far_field_enforced(self):
        # A 40 m hop is well inside the far field of a 0.5 m array.
        cfg = sweep_cfg(rx_spacing_m=0.5, tx_spacing_m=0.5)
        ens = TrialEnsemble(cfg, trials=3, master_seed=1)
        with pytest.raises(ValueError, match="d_sr_m .* far-field"):
            ens.relay_rates(1.0, 1.0, 40.0, 9000.0)
        with pytest.raises(ValueError, match="d_rd_m .* far-field"):
            ens.relay_rates(1.0, 1.0, 9000.0, 40.0)

    def test_far_field_boundary(self):
        # Exactly at 100x the widest spacing is still too close, on either hop.
        cfg = sweep_cfg(rx_spacing_m=0.5, tx_spacing_m=0.1)
        ens = TrialEnsemble(cfg, trials=3, master_seed=1)
        edge = FAR_FIELD_FACTOR * 0.5
        with pytest.raises(ValueError, match="d_sr_m .* far-field"):
            ens.relay_rates(1.0, 1.0, edge, 9000.0)
        with pytest.raises(ValueError, match="d_rd_m .* far-field"):
            ens.relay_rates(1.0, 1.0, 9000.0, edge)
        ens.relay_rates(1.0, 1.0, edge + 1.0, edge + 1.0)

    @pytest.mark.parametrize("up,down,name", [
        (math.inf, 9000.0, "d_sr_m"), (9000.0, math.inf, "d_rd_m"),
    ])
    def test_infinite_distance_rejected(self, up, down, name):
        cfg = load_scenario("scenarios/snr_sweep.yaml").network
        ens = TrialEnsemble(cfg, trials=4, master_seed=1)
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ens.relay_rates(1.0, 1.0, up, down)

    def test_post_path_loss_ignores_distance(self):
        cfg = sweep_cfg(snr_reference="post_path_loss")
        ens = TrialEnsemble(cfg, trials=10, master_seed=6)
        a = ens.relay_rates(10.0, 10.0, 9000.0, 9000.0)
        b = ens.relay_rates(10.0, 10.0, 4000.0, 14000.0)
        np.testing.assert_array_equal(a, b)
        # The far-field rule still holds: 200 m spacings put every link,
        # the 18 km direct one too, inside it.
        cfg = sweep_cfg(snr_reference="post_path_loss", rx_spacing_m=200.0)
        ens = TrialEnsemble(cfg, 3, 6, include_baseline=True)
        with pytest.raises(ValueError, match="^d_sr_m = 9000 m is inside"):
            ens.relay_rates(10.0, 10.0, 9000.0, 9000.0)
        with pytest.raises(ValueError, match="^d_sd_m = 18000 m is inside"):
            ens.baseline_rates(10.0)


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
        # Every trial of the unit channel carries log2(1 + snr) bits.
        ens = TrialEnsemble(unit_los_network(1, 1), trials=3, master_seed=1)
        for snr, bits in ((1.0, 1.0), (3.0, 2.0), (15.0, 4.0)):
            rates = ens.relay_rates(snr, snr, 9000.0, 9000.0)
            assert rates.tolist() == pytest.approx([bits] * 3, rel=1e-15)

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
        ens = TrialEnsemble(unit_los_network(1, 1), trials=3, master_seed=1,
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

    def test_line_of_sight_carries_no_snr_under_zero_forcing(self):
        # The line of sight is rank one, so zero forcing projects it out and
        # an uplink form keeps only the scattering share 1 / (1 + kappa):
        # q (1 + kappa) has one mean at 20 and 30 dB, and the relay rate
        # falls as kappa rises on both hops.
        base = load_scenario("scenarios/altitude_sweep.yaml").network
        ensembles = {k: TrialEnsemble(dataclasses.replace(
            base, kappa_up_db=k, kappa_down_db=k), 2000, 1)
            for k in (0.0, 10.0, 20.0, 30.0)}
        scaled = {k: ensembles[k]._q[simulator._UP].ravel()
                  * (1.0 + db_to_linear(k)) for k in (20.0, 30.0)}
        for k, other in ((20.0, 30.0), (30.0, 20.0)):
            lo, hi = bootstrap_mean_ci(scaled[k])
            assert lo <= scaled[other].mean() <= hi
        rates = [simulator._mean_relay_rate(ens)(9000.0)
                 for ens in ensembles.values()]
        assert all(b < a for a, b in zip(rates, rates[1:]))

    def test_huge_kappa_raises_singularity(self):
        # 130 dB leaves a rank-one channel: every trial is singular.
        cfg = make_cfg(kappa_up_db=130.0, kappa_down_db=130.0,
                       aoa_deg=math.degrees(0.5), aod_deg=math.degrees(0.3))
        rates = TrialEnsemble(cfg, 5, 48).relay_rates(1.0, 1.0, 9000.0, 9000.0)
        assert np.isnan(rates).all()


class TestScatteringDraws:
    def test_trial_draw_moments(self):
        # |h|^2 of a CN(0, 1) entry is Exp(1): E|h|^2 = 1, E|h|^4 = 2.  The
        # fourth moment would read 3 with all the power in the real part.
        cfg = make_cfg(1, 1, antennas=1, kappa_up_db=-4000.0,
                       kappa_down_db=-4000.0, snr_reference="post_path_loss")
        power = direct_power(cfg, 10000, 22, 1.0)
        assert np.mean(power) == pytest.approx(1.0, abs=0.04)
        assert np.mean(power ** 2) == pytest.approx(2.0, abs=0.2)


class TestRicianMix:
    def test_kappa_zero_is_pure_scattering(self):
        # -4000 dB is kappa = 0: no line-of-sight weight at all.
        cfg = make_cfg(2, 2, antennas=2, relay_antennas=2,
                       kappa_up_db=-4000.0, kappa_down_db=-4000.0,
                       snr_reference="post_path_loss")
        got = TrialEnsemble(cfg, 10, 24).relay_rates(3.0, 3.0, 9000.0, 9000.0)
        np.testing.assert_allclose(
            got, oracle_rates(cfg, 24, 10, 3.0, oracles.scattering), rtol=1e-9)

    def test_kappa_huge_is_pure_los(self):
        power = direct_power(make_cfg(1, 1, antennas=1, kappa_up_db=120.0,
                                      kappa_down_db=120.0,
                                      snr_reference="post_path_loss"),
                             50, 24, 1.0)
        assert np.max(np.abs(power - 1.0)) < 1e-5

    def test_kappa_one_is_equal_weights(self):
        cfg = make_cfg(2, 2, antennas=2, relay_antennas=2, kappa_up_db=0.0,
                       kappa_down_db=0.0, aoa_deg=math.degrees(0.4),
                       aod_deg=math.degrees(0.7),
                       snr_reference="post_path_loss")

        def link(rng, rows, cols):
            los = oracles.line_of_sight(cfg, rows, cols)
            return (los + oracles.scattering(rng, rows, cols)) / math.sqrt(2.0)
        got = TrialEnsemble(cfg, 10, 24).relay_rates(3.0, 3.0, 9000.0, 9000.0)
        np.testing.assert_allclose(got, oracle_rates(cfg, 24, 10, 3.0, link),
                                   rtol=1e-9)

    def test_per_entry_power_preserved(self):
        cfg = make_cfg(1, 1, antennas=1, kappa_up_db=10.0 * math.log10(4.0),
                       kappa_down_db=10.0 * math.log10(4.0),
                       snr_reference="post_path_loss")
        power = direct_power(cfg, 4800, 25, 1.0)
        assert np.mean(power) == pytest.approx(1.0, abs=0.05)


class TestPathFactor:
    """gain / d^2 before the SNR equals the SNR set after path loss."""

    @staticmethod
    def pair(gain: float, seed: int = 26) -> tuple[TrialEnsemble, ...]:
        pre, post = (TrialEnsemble(make_cfg(2, 2, antennas=2,
                                            relay_antennas=2, kappa_up_db=5.0,
                                            kappa_down_db=5.0,
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

    @pytest.mark.parametrize("dist", [0.0, -2.0])
    def test_non_positive_rejected(self, dist):
        # A positive ref gain is NetworkConfig's rule, in test_network.py.
        ens = TrialEnsemble(make_cfg(1, 1, antennas=1, kappa_up_db=0.0,
                                     kappa_down_db=0.0), 2, 26)
        with pytest.raises(ValueError, match="d_sr_m must be positive"):
            ens.relay_rates(1.0, 1.0, dist, 9000.0)
        with pytest.raises(ValueError, match="d_rd_m must be positive"):
            ens.relay_rates(1.0, 1.0, 9000.0, dist)

    def test_commutes_with_rician_mix(self):
        cfg = make_cfg(2, 2, antennas=2, relay_antennas=2,
                       kappa_up_db=10.0 * math.log10(3.0),
                       kappa_down_db=10.0 * math.log10(3.0),
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
        cfg = make_cfg(1, 1, antennas=1, kappa_up_db=-4000.0,
                       kappa_down_db=-4000.0, snr_reference="post_path_loss")
        power = direct_power(cfg, 20, 27, 1.0)
        expected = []
        for t in range(20):
            rng = oracles.trial_stream(27, t)
            for _ in range(2):
                oracles.scattering(rng, 1, 1)
            expected.append(abs(oracles.scattering(rng, 1, 1)[0, 0]) ** 2)
        np.testing.assert_allclose(power, expected, rtol=1e-12)

    def test_equals_explicit_composition(self):
        cfg = make_cfg(2, 2, antennas=2, relay_antennas=2,
                       kappa_up_db=10.0 * math.log10(6.0),
                       kappa_down_db=10.0 * math.log10(6.0),
                       ref_gain_up=2.5, ref_gain_down=2.5)
        ens = TrialEnsemble(cfg, 10, 28)
        got = ens.relay_rates(1e6, 1e6, 750.0, 750.0)
        c_up, c_down, _ = oracles.trial_hop_rates(cfg, 28, 10, 1e6, 1e6,
                                                  750.0, 750.0)
        for got_t, expected in zip(got, oracles.relay_rate(2, 2, c_up, c_down)):
            assert math.isclose(got_t, expected, rel_tol=1e-9)

    def test_fixed_seed_reproducible(self):
        cfg = make_cfg(2, 2, antennas=2, relay_antennas=2, kappa_up_db=3.0,
                       kappa_down_db=3.0)
        a, b = (TrialEnsemble(cfg, 10, 29, include_baseline=True)
                for _ in range(2))
        np.testing.assert_array_equal(a.relay_rates(5.0, 5.0, 9000.0, 9000.0),
                                      b.relay_rates(5.0, 5.0, 9000.0, 9000.0))
        np.testing.assert_array_equal(a.baseline_rates(5.0),
                                      b.baseline_rates(5.0))

    def test_mean_frobenius_power(self):
        # E |h|^2 = (g/d^2)^2 for unit-power fading.
        cfg = make_cfg(1, 1, antennas=1, kappa_up_db=10.0 * math.log10(5.0),
                       kappa_down_db=10.0 * math.log10(5.0), ref_gain_up=3.0)
        path = (3.0 / LAYOUT.d_sd_m**2) ** 2
        power = direct_power(cfg, 10000, 30, 1.0 / path)
        assert np.mean(power) == pytest.approx(path, rel=0.02)


class TestChunking:
    """Trials are drawn and reduced in chunks; neither results nor memory
    may depend on how many trials there are per chunk."""

    @staticmethod
    def stored(ens: TrialEnsemble) -> list[bytes]:
        return [a.tobytes() for a in ens._q]

    @settings(max_examples=6, deadline=None, database=None)
    @given(chunk=st.integers(1, 64), trials=st.integers(1, 150),
           seed=st.integers(0, 2**64 - 1))
    @example(chunk=7, trials=150, seed=3)
    @example(chunk=64, trials=130, seed=3)
    def test_forms_do_not_depend_on_chunk_size(self, chunk, trials, seed):
        cfg = sweep_cfg(**PARTLY_SINGULAR)
        whole = TrialEnsemble(cfg, trials, seed, include_baseline=True)
        width = draw_width(cfg, include_baseline=True)
        assert simulator._CHUNK_DRAWS // width >= trials
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulator, "_CHUNK_DRAWS", chunk * width)
            chunked = TrialEnsemble(cfg, trials, seed, include_baseline=True)
        assert self.stored(chunked) == self.stored(whole)

    def test_one_matrix_chunk_matches_the_whole(self, monkeypatch):
        # One 9 x 9 link per hop and trials = 2 * chunk + 1, so the last
        # chunk hands each kernel call a single matrix.
        cfg = sweep_cfg(1, 1, antennas=9, relay_antennas=9, all_streams=True)
        whole = TrialEnsemble(cfg, 129, 3)
        monkeypatch.setattr(simulator, "_CHUNK_DRAWS", 64 * draw_width(cfg))
        assert self.stored(TrialEnsemble(cfg, 129, 3)) == self.stored(whole)

    @pytest.mark.parametrize("cfg,baseline,groups", [
        (load_scenario("scenarios/snr_sweep.yaml").network, True,
         [("first_stream_quadforms", 6, (4, 4)),
          ("all_stream_quadforms", 9, (4, 4))]),
        (sweep_cfg(4, 4, antennas=9, relay_antennas=9, all_streams=True),
         False, [("all_stream_quadforms", 8, (9, 9))]),
        (sweep_cfg(all_streams=True), True,
         [("all_stream_quadforms", 15, (4, 4))]),
        (sweep_cfg(relay_antennas=5), True,
         [("first_stream_quadforms", 3, (5, 4)),
          ("first_stream_quadforms", 3, (4, 5)),
          ("all_stream_quadforms", 9, (4, 4))]),
    ], ids=["snr-scenario", "9x9-all-streams", "3x3-all-streams-baseline",
            "3x3-wide-relay-baseline"])
    def test_kernel_calls_stay_within_the_budget(self, monkeypatch, cfg,
                                                 baseline, groups):
        # Two full chunks and a one-trial tail.  Each chunk makes one call
        # per group of consecutive hops that share a shape and a kernel:
        # the relay hops join, and with all streams the direct links too,
        # but hops of one kernel and different shapes do not.
        trials = 2 * (simulator._CHUNK_DRAWS // draw_width(cfg, baseline)) + 1
        calls = []
        for name in ("first_stream_quadforms", "all_stream_quadforms"):
            def spy(los, nlos, a, b, kernel=getattr(kernels, name), name=name):
                calls.append((name, nlos.shape))
                return kernel(los, nlos, a, b)
            monkeypatch.setattr(kernels, name, spy)
        TrialEnsemble(cfg, trials, 5, include_baseline=baseline)
        assert len(calls) == 3 * len(groups)
        for i, (name, links, shape) in enumerate(groups):
            group = calls[i::len(groups)]
            assert {call for call, _ in group} == {name}
            assert {nlos[1:] for _, nlos in group} == {(links, *shape)}
            assert sum(nlos[0] for _, nlos in group) == trials
        assert max(math.prod(nlos) for _, nlos in calls) <= (
            simulator._CHUNK_DRAWS // 2)

    @pytest.mark.parametrize("scenario", [
        "altitude_sweep", "altitude_sweep_symmetric", "snr_sweep", "array"])
    def test_kernel_calls_take_the_shared_line_of_sight(self, monkeypatch,
                                                        scenario):
        # Every call, one sweep of each shipped scenario and of a 4 x 4
        # network of 9-element arrays with all streams, gets the one (r, c)
        # line-of-sight matrix that its links share: los_channel's bits.
        calls = []
        for name in ("first_stream_quadforms", "all_stream_quadforms"):
            def spy(los, nlos, a, b, kernel=getattr(kernels, name)):
                calls.append((los, nlos.shape[2:]))
                return kernel(los, nlos, a, b)
            monkeypatch.setattr(kernels, name, spy)
        if scenario == "array":
            cfg = sweep_cfg(4, 4, antennas=9, relay_antennas=9,
                            all_streams=True)
            run_snr_sweep(cfg, SweepSpec(SNR_DB, 0.0, 30.0, 10.0, trials=40,
                                         master_seed=3))
        else:
            path = f"scenarios/{scenario}.yaml"
            cfg = load_scenario(path).network
            scenario_curves(path, 40, 3)
        assert calls
        for los, shape in calls:
            assert los.shape == shape
            assert los.tobytes() == los_channel(cfg, *shape).tobytes()

    def test_joined_calls_equal_one_call_per_hop(self):
        # One all-stream call serves all three hops of PARTLY_SINGULAR; each
        # hop's forms are the bits of a call on that hop alone, NaN exactly
        # on the links that call flags and finite and positive elsewhere.
        cfg = sweep_cfg(**PARTLY_SINGULAR)
        ens = TrialEnsemble(cfg, 150, 3, include_baseline=True)
        assert len(simulator._runs(ens._hops)) == 1
        x = np.empty((150, ens._hops[-1].span.stop))
        streams.fill_trials(3, 0, x)
        for hop, q in zip(ens._hops, ens._q):
            z = x[:, hop.span].reshape(150, hop.links, 2, *hop.shape)
            nlos = np.empty(z[:, :, 0].shape, dtype=np.complex128)
            nlos.real = z[:, :, 0] * simulator._INV_SQRT2
            nlos.imag = z[:, :, 1] * simulator._INV_SQRT2
            q_hop, singular = kernels.all_stream_quadforms(
                hop.los, nlos, hop.a, hop.b)
            flagged = np.repeat(singular, q_hop.shape[2], axis=1).T
            assert (np.isnan(q) == flagged).all()
            assert np.isfinite(q[~flagged]).all() and (q[~flagged] > 0.0).all()
            q_hop[singular] = np.nan
            assert q_hop.reshape(150, -1).T.tobytes() == q.tobytes()
        assert failed_trials(ens, 0).any() and failed_trials(ens, 2).any()

    @pytest.mark.parametrize("cfg,baseline", [
        (load_scenario("scenarios/snr_sweep.yaml").network, True),
        (load_scenario("scenarios/altitude_sweep.yaml").network, False),
        (sweep_cfg(4, 4, antennas=9, relay_antennas=9, all_streams=True),
         False),
    ], ids=["snr-baseline", "altitude", "9x9-all-streams"])
    def test_build_working_set_is_a_few_chunks(self, cfg, baseline):
        # Beyond the stored forms, a build holds one chunk's draws and its
        # kernel temporaries: at most four chunk budgets of float64, over
        # two full chunks and a tail.
        trials = 2 * (simulator._CHUNK_DRAWS // draw_width(cfg, baseline)) + 1
        TrialEnsemble(cfg, 1, 5, include_baseline=baseline)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ens = TrialEnsemble(cfg, trials, 5, include_baseline=baseline)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        kept = sum(a.nbytes for a in ens._q)
        assert peak - kept <= 4 * 8 * simulator._CHUNK_DRAWS

    def test_example_has_singular_and_regular_trials(self):
        ens = TrialEnsemble(sweep_cfg(**PARTLY_SINGULAR), 150, 3,
                            include_baseline=True)
        failed = failed_trials(ens, 0) | failed_trials(ens, 2)
        assert 0 < failed.sum() < failed.size

    def test_memory_grows_with_stored_forms_only(self, monkeypatch):
        # Four times the trials may only add about what the stored q adds;
        # the draws of a chunk are freed before the next one.
        # A smaller chunk keeps the traced runs short.
        cfg = load_scenario("scenarios/snr_sweep.yaml").network
        chunk = 256
        monkeypatch.setattr(simulator, "_CHUNK_DRAWS",
                            chunk * draw_width(cfg, include_baseline=True))
        n = 2 * chunk

        def traced(trials):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                ens = TrialEnsemble(cfg, trials, 7, include_baseline=True)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            return peak, sum(a.nbytes for a in ens._q)

        (peak_1, kept_1), (peak_4, kept_4) = traced(n), traced(4 * n)
        assert peak_4 - peak_1 <= 2 * (kept_4 - kept_1)


class TestHopRates:
    """A hop's per-trial rates come from its stored forms: the whole's bits
    for any block of points or leading trials, each trial's sum of
    log2(1 + f q) over its forms, and one hop-sized buffer a point."""

    @pytest.mark.parametrize("hop", [0, 1, 2], ids=["up", "down", "direct"])
    def test_rate_blocks_match_the_whole(self, hop):
        # Forms are stored trial-last, one row per link and stream.  Any
        # block of points, and any leading block of trials, must give the
        # whole's bits: 150 trials against 149 and a one-trial ensemble.
        cfg = sweep_cfg(**PARTLY_SINGULAR)
        ens = TrialEnsemble(cfg, 150, 3, include_baseline=True)
        # Every hop of PARTLY_SINGULAR counts all streams.
        kind = ens._hops[hop]
        assert ens._q[hop].shape == (kind.links * kind.shape[1], 150)
        scales = np.geomspace(1.0, 1e4, 7)
        dists = np.linspace(2000.0, 16000.0, 7)
        whole = ens._checked_rates((hop, scales, dists))[0]
        assert whole.shape == (7, 150)
        for size in (1, 2, 3, 7):
            parts = [ens._checked_rates((hop, scales[lo:lo + size],
                                         dists[lo:lo + size]))[0]
                     for lo in range(0, 7, size)]
            assert np.concatenate(parts).tobytes() == whole.tobytes(), size
        for trials in (149, 1):
            head = TrialEnsemble(cfg, trials, 3, include_baseline=True)
            assert head._checked_rates((hop, scales, dists))[0].tobytes() == (
                whole[:, :trials].copy().tobytes()), trials

    @pytest.mark.parametrize("scenario", ["altitude_sweep.yaml",
                                          "snr_sweep.yaml"])
    def test_hop_rate_is_the_per_trial_sum_of_its_forms(self, scenario):
        # A trial's hop rate sums log2(1 + f q) over its forms.  With fewer
        # than eight forms a trial numpy's sum over a (T, K) array runs in
        # index order, as the row-by-row sum does, so the bits agree; with
        # more it sums pairwise and may differ in the last place.
        # Python's float power squares the distance: for 8005.705 m it
        # rounds otherwise than d * d.
        d = 8005.705
        assert d ** 2 != d * d
        cfg = load_scenario(f"scenarios/{scenario}").network
        ens = TrialEnsemble(cfg, 300, 11, include_baseline=True)
        for index, hop in enumerate(ens._hops):
            q = ens._q[index]
            path = (hop.ref_gain / d ** 2) ** 2
            f = 30.0 * np.repeat(path, len(q) // hop.links)
            want = np.log1p(q.T * f).sum(axis=1) / math.log(2.0)
            got = ens._checked_rates((index, np.array([30.0]),
                                      np.array([d])))[0]
            if len(q) < 8:
                assert got[0].tobytes() == want.tobytes(), hop.distance
            else:
                np.testing.assert_allclose(got[0], want, rtol=1e-14, atol=0)

    def test_rate_evaluation_allocates_one_hop_buffer(self):
        # One operating point may hold about one temporary as large as a
        # hop's stored (K, T) forms; its (1, T) buffers are far smaller.
        cfg = load_scenario("scenarios/snr_sweep.yaml").network
        ens = TrialEnsemble(cfg, 2048, 7, include_baseline=True)
        for hop, q in zip(ens._hops, ens._q):
            streams = hop.shape[1] if hop.all_streams else 1
            assert q.shape == (hop.links * streams, 2048)
        largest = max(q.nbytes for q in ens._q)
        lay = cfg.layout
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ens.relay_rates(100.0, 100.0, lay.d_sr_m, lay.d_rd_m)
            ens.baseline_rates(100.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * largest


class TestGridPasses:
    """A sweep evaluates its grid in passes of many points; every pass must
    give the bits of one call per point, at any number of points a pass,
    and a sweep's memory is bounded by one pass's buffers."""

    @pytest.mark.parametrize("reference", ["pre_path_loss", "post_path_loss"])
    def test_grid_equals_single_points(self, reference):
        cfg = sweep_cfg(**PARTLY_SINGULAR, snr_reference=reference)
        ens = TrialEnsemble(cfg, 150, 3, include_baseline=True)
        failed = failed_trials(ens, 0) | failed_trials(ens, 1)
        assert 0 < failed.sum() < failed.size
        up = np.geomspace(0.5, 5e3, 9)
        dn = up[::-1].copy()
        d_sr = np.linspace(2000.0, 16000.0, 9)
        d_rd = 18000.0 - d_sr
        for index, (scale, dist) in enumerate([(up, d_sr), (dn, d_rd),
                                               (up, np.full(9, 1.8e4))]):
            grid = ens._checked_rates((index, scale, dist))[0]
            single = [ens._checked_rates((index, scale[i:i + 1],
                                          dist[i:i + 1]))[0]
                      for i in range(9)]
            assert grid.tobytes() == np.concatenate(single).tobytes(), index
        relay = ens.relay_rates(up, dn, d_sr, d_rd)
        base = ens.baseline_rates(up)
        assert relay.shape == base.shape == (9, 150)
        assert relay.tobytes() == np.array(
            [ens.relay_rates(*p) for p in zip(up, dn, d_sr, d_rd)]).tobytes()
        assert base.tobytes() == np.array(
            [ens.baseline_rates(g) for g in up]).tobytes()
        assert ens.relay_rates(up[:0], dn[:0], d_sr[:0], d_rd[:0]).shape == (
            0, 150)
        # Scalars broadcast against arrays of points.
        assert ens.relay_rates(up, 7.0, 9000.0, d_rd).tobytes() == np.array(
            [ens.relay_rates(g, 7.0, 9000.0, d) for g, d in zip(up, d_rd)]
        ).tobytes()

    @staticmethod
    def curves(cfg: NetworkConfig) -> list:
        snr = SweepSpec(SNR_DB, 0.0, 30.0, 2.5, trials=150, master_seed=3)
        alt = SweepSpec(RELAY_ALTITUDE_M, 4000.0, 14000.0, 500.0,
                        trials=150, master_seed=3)
        result = run_snr_sweep(cfg, snr, include_baseline=True)
        ens = ensemble_for(cfg, alt)
        curves = [result.relay, result.baseline, run_altitude_sweep(ens, alt)]
        got = [(c.xs.tobytes(), c.mean_rates.tobytes(), c.std_errs.tobytes(),
                c.trials_failed) for c in curves]
        return got + [np.float64(
            find_optimal_altitude(ens, 4000.0, 14000.0, 100.0)).tobytes()]

    @pytest.mark.parametrize("points", [1, 2, 3, 7])
    def test_sweeps_do_not_depend_on_points_per_pass(self, monkeypatch,
                                                      points):
        cfg = sweep_cfg(**PARTLY_SINGULAR, hap_power=4000.0,
                        relay_power=4000.0)
        whole = self.curves(cfg)
        assert simulator._CHUNK_DRAWS // 150 >= 41
        # Also splits the draws into chunks of a trial or a few.
        monkeypatch.setattr(simulator, "_CHUNK_DRAWS", points * 150)
        assert next(simulator._budget_slices(13, 150)) == slice(0, points)
        assert self.curves(cfg) == whole

    @pytest.mark.parametrize("trials", [2, 150, 9000])
    def test_rows_aggregate_as_one_point_each(self, trials):
        # Each row's mean and std err must carry the bits of the same
        # statistics over that row's finite trials alone.
        rng = np.random.default_rng(trials)
        rates = rng.exponential(7.0, (5, trials))
        rates[:, rng.random(trials) < 0.1] = np.nan
        rates[:, 0] = np.nan
        (curve,) = simulator._curves(np.arange(5.0), trials,
                                     lambda part: rates[part])
        for row, mean_rate, std_err in zip(rates, curve.mean_rates,
                                           curve.std_errs):
            finite = row[np.isfinite(row)]
            assert curve.trials_failed == trials - finite.size
            if finite.size == 1:
                assert (mean_rate, std_err) == (finite[0], 0.0)
                continue
            assert mean_rate == float(finite.mean())
            assert std_err == float(finite.std(ddof=1)
                                    / math.sqrt(finite.size))

    def test_grid_pass_memory_is_bounded_by_the_pass(self):
        # A 67-point altitude grid at 10^4 trials runs in passes of
        # _CHUNK_DRAWS // 10^4 = 13 points.  A relay pass holds three
        # (13, T) buffers at most: the uplink sums, the downlink sums and
        # one form's scratch; the whole grid at once would need five times
        # as much.
        cfg = load_scenario("scenarios/altitude_sweep.yaml").network
        trials = 10**4
        spec = SweepSpec(RELAY_ALTITUDE_M, 1000.0, 17500.0, 250.0,
                         trials=trials, master_seed=7)
        ens = ensemble_for(cfg, spec)
        points = simulator._CHUNK_DRAWS // trials
        assert spec.num_points == 67 and points == 13
        one_pass = points * trials * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_altitude_sweep(ens, spec)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * one_pass


class TestOperatingPoints:
    """Operating points reach the hop rates as numbers that broadcast as
    numpy's do; each point's distance must pass the far-field and square
    checks, and an overflow is named as one call per point names it."""

    def test_overflow_names_the_first_point_then_the_first_hop(self):
        # The downlink overflows from the second point on and the uplink
        # only at the last, as one call per point would find.
        # Path factors 1e6 and 1e10; the largest forms lie in (0.1, 100).
        cfg = sweep_cfg(ref_gain_up=8.1e10, ref_gain_down=8.1e12)
        ens = TrialEnsemble(cfg, 20, 4)
        assert all(0.1 < q.max() < 100.0 for q in ens._q)
        gammas = np.array([1e290, 1e300, 1e305])
        with pytest.raises(ValueError, match="^SNR on d_rd_m overflows"):
            ens.relay_rates(gammas, gammas, 9000.0, 9000.0)
        ens.relay_rates(gammas[0], gammas[0], 9000.0, 9000.0)
        with pytest.raises(ValueError, match="^SNR on d_rd_m overflows"):
            ens.relay_rates(gammas[1], gammas[1], 9000.0, 9000.0)
        with pytest.raises(ValueError, match="^SNR on d_sr_m overflows"):
            ens.relay_rates(gammas[2], gammas[2], 9000.0, 9000.0)

    def test_overflow_named_where_every_trial_is_singular(self):
        # Every uplink trial is singular and the uplink's path factor
        # overflows: the sweep names the overflow, not a failed trial.  An
        # infinite snr scale is named on these draws as on regular ones.
        cfg = make_cfg(kappa_up_db=200.0, ref_gain_up=1e200)
        spec = SweepSpec(SNR_DB, 0.0, 10.0, 5.0, trials=20, master_seed=4)
        with pytest.raises(ValueError, match="^SNR on d_sr_m overflows"):
            run_snr_sweep(cfg, spec)
        singular = TrialEnsemble(cfg, 20, 4)
        assert failed_trials(singular, simulator._UP).all()
        for ens in (singular, TrialEnsemble(sweep_cfg(), 20, 4)):
            with pytest.raises(ValueError, match="^SNR on d_sr_m overflows"):
                ens.relay_rates(np.inf, 1.0, 9000.0, 9000.0)

    def test_overflow_named_beside_an_always_singular_link(self):
        # The second platform's uplink is singular in every trial, so each
        # trial's uplink sum meets a NaN form.  The other two overflow at
        # snr scale 1e4 (path factor 1.5e304, largest forms about 1.5 and
        # 1.9), and that is still named, not taken for failed trials.
        cfg = make_cfg(kappa_up_db=[3.0, 200.0, 3.0], ref_gain_up=1e160)
        ens = TrialEnsemble(cfg, 50, 3)
        assert failed_trials(ens, simulator._UP).all()
        assert np.isnan(ens.relay_rates(1e3, 1e3, 9000.0, 9000.0)).all()
        with pytest.raises(ValueError, match="^SNR on d_sr_m overflows"):
            ens.relay_rates(1e4, 1e4, 9000.0, 9000.0)

    def test_overflow_raises_before_any_sum(self, monkeypatch):
        # At 1e300 only the downlink of the relay hops overflows, and the
        # direct links do (see the tests around this one): each call raises
        # before _hop_rate sums any hop, the uplink included.
        cfg = sweep_cfg(ref_gain_up=8.1e10, ref_gain_down=8.1e12,
                        ref_gain_direct=8.1e12)
        ens = TrialEnsemble(cfg, 20, 4, include_baseline=True)
        calls = []
        hop_rate = TrialEnsemble._hop_rate

        def counted(self, index, *args):
            calls.append(index)
            return hop_rate(self, index, *args)
        monkeypatch.setattr(TrialEnsemble, "_hop_rate", counted)
        ens.relay_rates(1e290, 1e290, 9000.0, 9000.0)
        ens.baseline_rates(1e290)
        assert calls == [simulator._UP, simulator._DOWN, simulator._DIRECT]
        calls.clear()
        with pytest.raises(ValueError, match="^SNR on d_rd_m overflows"):
            ens.relay_rates(1e300, 1e300, 9000.0, 9000.0)
        with pytest.raises(ValueError, match="^SNR on d_sd_m overflows"):
            ens.baseline_rates(1e300)
        assert calls == []

    @pytest.mark.parametrize("gammas,bad", [
        ([1.0, 0.0, -1.0], 1), ([2.0, 3.0, math.nan], 2),
        ([1e290, 1e300, 1e305], 1),
    ], ids=["zero", "nan", "overflow"])
    def test_baseline_raises_as_its_first_bad_point(self, gammas, bad):
        # Path factor 6.25e8 on the 18 km direct links; with the largest
        # form in (0.3, 100) the SNR overflows at 1e300 but not at 1e290.
        cfg = sweep_cfg(ref_gain_direct=8.1e12)
        ens = TrialEnsemble(cfg, 20, 4, include_baseline=True)
        assert 0.3 < ens._q[simulator._DIRECT].max() < 100.0
        with pytest.raises(ValueError) as one:
            ens.baseline_rates(gammas[bad])
        with pytest.raises(ValueError) as grid:
            ens.baseline_rates(np.array(gammas))
        assert str(grid.value) == str(one.value)
        ens.baseline_rates(np.array(gammas[:bad]))

    def test_far_field_checked_at_every_point(self):
        cfg = sweep_cfg(rx_spacing_m=0.5, tx_spacing_m=0.5)
        ens = TrialEnsemble(cfg, 3, 1)
        d = np.array([9000.0, 40.0, 9000.0])
        with pytest.raises(ValueError, match="d_rd_m = 40 m .* far-field"):
            ens.relay_rates(1.0, 1.0, 9000.0, d)
        with pytest.raises(ValueError, match="d_sr_m = 40 m .* far-field"):
            ens.relay_rates(1.0, 1.0, d, d)

    def test_distance_whose_square_overflows_rejected(self):
        ens = TrialEnsemble(sweep_cfg(), 3, 1)
        d = np.array([9000.0, 1e200])
        with pytest.raises(ValueError, match="d_rd_m = 1e.200 m is too long"):
            ens.relay_rates(1.0, 1.0, 9000.0, d)
        with pytest.raises(ValueError, match="d_sr_m = 1e.200 m is too long"):
            ens.relay_rates(1.0, 1.0, d, 9000.0)

    def test_two_dimensional_points_rejected(self):
        ens = TrialEnsemble(sweep_cfg(), 3, 1)
        with pytest.raises(ValueError, match="1-D"):
            ens.relay_rates(np.ones((2, 2)), 1.0, 9000.0, 9000.0)

    @pytest.mark.parametrize("values", [
        (2.0, 3.0), (np.arange(4.0), 3.0), ([5.0], np.arange(3.0)),
        (np.arange(2.0), [1.0, 2.0]), (np.zeros(0), 1.0), ([7.0], [8.0]),
        (np.arange(6.0)[::2], 1.0),
    ])
    def test_points_broadcast_as_numpy_does(self, values):
        scalar, got = simulator._operating_points(*values)
        want = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                     for v in values))
        assert scalar == (want[0].ndim == 0)
        for g, w in zip(got, want):
            assert g.dtype == np.float64 and g.ndim == 1
            assert g.tobytes() == w.reshape(-1).tobytes()

    @pytest.mark.parametrize("bad", [True, np.bool_(False), "2.0",
                                     np.array(["9000"]), None, [1.0, "x"],
                                     1.0 + 1.0j],
                             ids=["bool", "numpy-bool", "str", "str-array",
                                  "none", "mixed-list", "complex"])
    def test_points_that_are_not_numbers_rejected(self, bad):
        ens = TrialEnsemble(sweep_cfg(), 3, 1, include_baseline=True)
        good = (2.0, 3.0, 9000.0, 9000.0)
        for i in range(4):
            args = good[:i] + (bad,) + good[i + 1:]
            with pytest.raises(ValueError, match="must be numbers, got"):
                ens.relay_rates(*args)
        with pytest.raises(ValueError, match="must be numbers, got"):
            ens.baseline_rates(bad)

    def test_numpy_number_points_equal_python_floats(self):
        ens = TrialEnsemble(sweep_cfg(), 3, 1, include_baseline=True)
        want = ens.relay_rates(2.0, 3.0, 9000.0, 9000.0).tobytes()
        for got in (ens.relay_rates(np.float32(2.0), np.int64(3),
                                    np.float32(9000.0), np.int64(9000)),
                    ens.relay_rates(np.int64(2), np.float32(3.0),
                                    np.array([9000], dtype=np.int32),
                                    np.array([9000.0], dtype=np.float32))[0]):
            assert got.tobytes() == want
        want = ens.baseline_rates(3.0).tobytes()
        assert ens.baseline_rates(np.float32(3.0)).tobytes() == want
        assert ens.baseline_rates(np.int64(3)).tobytes() == want

    def test_points_of_different_lengths_rejected(self):
        with pytest.raises(ValueError, match="broadcast"):
            simulator._operating_points(np.ones(2), 1.0, np.ones(3))
        ens = TrialEnsemble(sweep_cfg(), 3, 1)
        with pytest.raises(ValueError, match="broadcast"):
            ens.relay_rates(np.ones(2), 1.0, np.full(3, 9000.0), 9000.0)


class TestOptimalAltitude:
    def test_symmetric_network_peaks_at_midpoint(self):
        cfg = sweep_cfg(kappa_up_db=20.0, kappa_down_db=20.0,
                        hap_power=4000.0, relay_power=4000.0)
        alt = find_optimal_altitude(TrialEnsemble(cfg, 300, 12345),
                                    4000.0, 14000.0, 50.0)
        assert abs(alt - 9000.0) <= 150.0

    def test_matches_exhaustive_grid(self):
        cfg = sweep_cfg(kappa_up_db=20.0, kappa_down_db=20.0,
                        ref_gain_down=3.24e8,
                        hap_power=4000.0, relay_power=4000.0)
        spec = SweepSpec(RELAY_ALTITUDE_M, 4000.0, 14000.0, 250.0,
                         trials=300, master_seed=99)
        ens = TrialEnsemble(cfg, 300, 99)
        grid_best = run_altitude_sweep(ens, spec).argmax_x
        searched = find_optimal_altitude(ens, 4000.0, 14000.0, 100.0)
        assert abs(searched - grid_best) <= 375.0

    def test_bad_bracket_rejected(self):
        with pytest.raises(ValueError, match="lo must be"):
            find_optimal_altitude(TrialEnsemble(sweep_cfg(), 2, 12345),
                                  9000.0, 9000.0, 10.0)

    @pytest.mark.parametrize("bad", ["4000", True])
    @pytest.mark.parametrize("key", ["lo", "hi", "tol"])
    def test_non_number_bracket_rejected(self, key, bad):
        ens = TrialEnsemble(sweep_cfg(), 2, 12345)
        bracket = {"lo": 4000.0, "hi": 14000.0, "tol": 500.0, key: bad}
        with pytest.raises(ValueError, match=f"^{key} must be a number"):
            check_altitude_bracket(ens.cfg, *bracket.values())
        with pytest.raises(ValueError, match=f"^{key} must be a number"):
            find_optimal_altitude(ens, *bracket.values())

    def test_non_finite_tol_rejected(self):
        # An infinite tol would end the search before its first step, at
        # the bracket's midpoint.  tol <= 0 and NaN keep their own message.
        ens = TrialEnsemble(sweep_cfg(), 2, 12345)
        for check in (partial(check_altitude_bracket, ens.cfg),
                      partial(find_optimal_altitude, ens)):
            with pytest.raises(ValueError,
                               match=r"^tol must be finite, got inf$"):
                check(4000.0, 14000.0, math.inf)
            for tol in (0.0, -math.inf, math.nan):
                with pytest.raises(ValueError, match="^tol must be positive"):
                    check(4000.0, 14000.0, tol)

    def test_tol_as_wide_as_the_bracket_takes_one_step(self, monkeypatch):
        # The first step compares the two probes and keeps the sub-bracket
        # of the better one; only then may the width stop the search.
        mean_relay_rate, calls = simulator._mean_relay_rate, []

        def recorded(ens):
            objective = mean_relay_rate(ens)

            def record(alt):
                calls.append((alt, objective(alt)))
                return calls[-1][1]
            return record

        monkeypatch.setattr(simulator, "_mean_relay_rate", recorded)
        cfg = sweep_cfg(kappa_up_db=30.0, kappa_down_db=15.0,
                        hap_power=400.0, relay_power=400.0)
        ens, lo, hi = TrialEnsemble(cfg, 50, 12345), 1000.0, 17500.0
        for tol in (hi - lo, 10.0 * (hi - lo)):
            calls.clear()
            got = find_optimal_altitude(ens, lo, hi, tol)
            assert len(calls) == 3
            (c, fc), (d, fd), _ = calls
            assert lo < c < d < hi
            assert got == (0.5 * (lo + d) if fc >= fd else 0.5 * (c + hi))
            assert got != 0.5 * (lo + hi)

    def test_bracket_returned_as_floats(self):
        got = check_altitude_bracket(sweep_cfg(), np.float64(4000.0), 14000,
                                     np.float32(500.0))
        assert got == (4000.0, 14000.0, 500.0)
        assert all(type(v) is float for v in got)

    def test_all_singular_returns_nan(self):
        cfg = sweep_cfg(kappa_up_db=200.0, kappa_down_db=200.0)
        alt = find_optimal_altitude(TrialEnsemble(cfg, 20, 4),
                                    4000.0, 14000.0, 250.0)
        assert math.isnan(alt)

    @pytest.mark.parametrize("overrides", [{}, PARTLY_SINGULAR])
    def test_objective_is_the_curve_points_mean(self, overrides):
        # The search's value at an altitude carries the bits of the mean
        # an altitude sweep reports there, with or without failed trials.
        ens = TrialEnsemble(sweep_cfg(**overrides), 150, 3)
        failed = failed_trials(ens, simulator._UP) | failed_trials(
            ens, simulator._DOWN)
        assert failed.any() == bool(overrides)
        objective = simulator._mean_relay_rate(ens)
        for alt in (4000.0, 7321.5, 9000.0, 13999.0):
            spec = SweepSpec(RELAY_ALTITUDE_M, alt, alt + 1.0, 1.0,
                             trials=150, master_seed=3)
            curve = run_altitude_sweep(ens, spec)
            assert curve.xs[0] == alt
            assert np.float64(objective(alt)).tobytes() == np.float64(
                curve.mean_rates[0]).tobytes()

    @pytest.mark.parametrize("tol", [1e-12, 1e-300, 5e-324])
    def test_tolerance_below_float64_spacing_ends(self, monkeypatch, tol):
        # Near the 13 km optimum float64 steps are 1.8e-12 m apart, so the
        # bracket stops shrinking before it is narrower than tol; the capped
        # objective makes a search that never ends fail instead of hang.
        mean_relay_rate = simulator._mean_relay_rate

        def capped(ens):
            objective, calls = mean_relay_rate(ens), iter(range(500))

            def bounded(alt):
                if next(calls, None) is None:
                    raise RuntimeError("golden-section search did not end")
                return objective(alt)
            return bounded

        monkeypatch.setattr(simulator, "_mean_relay_rate", capped)
        cfg = sweep_cfg(kappa_up_db=30.0, kappa_down_db=15.0,
                        hap_power=400.0, relay_power=400.0)
        ens = TrialEnsemble(cfg, 20, 7)
        coarse = find_optimal_altitude(ens, 1000.0, 17500.0, 1e-9)
        assert coarse > 8192.0  # where the float64 step exceeds 1e-12
        assert abs(find_optimal_altitude(ens, 1000.0, 17500.0, tol)
                   - coarse) <= 1e-9

    def test_objective_is_nan_without_valid_trials(self):
        cfg = sweep_cfg(kappa_up_db=200.0, kappa_down_db=200.0)
        objective = simulator._mean_relay_rate(TrialEnsemble(cfg, 20, 4))
        assert math.isnan(objective(9000.0))
