import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from helpers import bootstrap_mean_ci

from hapsim import kernels, simulator
from hapsim.network import (
    FAR_FIELD_FACTOR,
    NetworkConfig,
    ScenarioLayout,
    db_to_linear,
)
from hapsim.scenario import load_scenario
from hapsim.simulator import (
    RELAY_ALTITUDE_M,
    SNR_DB,
    CurvePoint,
    SumRateCurve,
    SweepSpec,
    TrialEnsemble,
    find_optimal_altitude,
    run_altitude_sweep,
    run_snr_sweep,
    trial_rng,
)


def ensemble_for(cfg: NetworkConfig, spec: SweepSpec) -> TrialEnsemble:
    """The trial ensemble that spec's trials and master seed ask for."""
    return TrialEnsemble(cfg, spec.trials, spec.master_seed)


def draw_width(cfg: NetworkConfig, include_baseline: bool = False) -> int:
    """Standard normals one trial draws: 2 r c for each link of each hop."""
    return sum(2 * hop.links * math.prod(hop.shape)
               for hop in simulator._hops(cfg, include_baseline))


def make_cfg(**kwargs) -> NetworkConfig:
    base = dict(
        num_haps=3, num_gs=3, antennas_per_node=4,
        layout=ScenarioLayout(hap_altitude_m=18000.0, relay_altitude_m=9000.0),
        kappa_up_db=10.0, kappa_down_db=10.0,
        ref_gain_up=8.1e7, ref_gain_down=8.1e7)
    base.update(kwargs)
    return NetworkConfig(**base)


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
    ])
    def test_validation(self, kwargs, msg):
        base = dict(variable=SNR_DB, start=0.0, stop=30.0, step=2.5)
        base.update(kwargs)
        with pytest.raises(ValueError, match=msg):
            SweepSpec(**base)


class TestTrialRng:
    def test_repeatable(self):
        a = trial_rng(123, 7).standard_normal(5)
        b = trial_rng(123, 7).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_trials_are_distinct(self):
        a = trial_rng(123, 0).standard_normal(5)
        b = trial_rng(123, 1).standard_normal(5)
        assert not np.array_equal(a, b)

    def test_seeds_are_distinct(self):
        a = trial_rng(123, 0).standard_normal(5)
        b = trial_rng(124, 0).standard_normal(5)
        assert not np.array_equal(a, b)


class TestChunkSeeding:
    """An ensemble seeds each chunk's streams in one pass; every row must
    equal trial_rng's fill bit for bit."""

    ROWS = 64

    @settings(max_examples=25, deadline=None, database=None)
    @given(seed=st.integers(0, 2**64 - 1), lo=st.integers(0, 2**32 - ROWS))
    @example(seed=0, lo=0)
    @example(seed=2**32 - 1, lo=992)         # trials 1023 and 1024
    @example(seed=2**32, lo=2**32 - ROWS)    # the last trial, 2**32 - 1
    @example(seed=2**64 - 1, lo=992)
    @example(seed=2**64 - 1, lo=2**32 - ROWS)
    def test_rows_equal_trial_rng(self, seed, lo):
        got = np.empty((self.ROWS, 13))
        simulator._fill_trials(seed, lo, got)
        want = np.empty_like(got)
        for t, row in enumerate(want, lo):
            trial_rng(seed, t).standard_normal(out=row)
        np.testing.assert_array_equal(got.view(np.uint64),
                                      want.view(np.uint64))

    def test_seeding_dtypes_are_explicit(self, monkeypatch):
        # The hash and mix run on uint32 words and the 128-bit limb
        # arithmetic on uint64 under any promotion rules for Python ints
        # (numpy 1.24's value-based casting or NEP 50), and no numpy scalar
        # overflows.
        dtypes = {"hash": set(), "mix": set(), "limbs": set()}
        hasher, mix = simulator._hasher, simulator._mix
        carry, mul_add = simulator._carry, simulator._mul_add
        pcg64_words = simulator._pcg64_words

        def spy_hasher(init, mult):
            hash_words = hasher(init, mult)

            def spied(value):
                out = hash_words(value)
                dtypes["hash"].update((value.dtype, out.dtype))
                return out
            return spied

        def spy_mix(x, y):
            out = mix(x, y)
            dtypes["mix"].update((x.dtype, y.dtype, out.dtype))
            return out

        def spy_carry(columns):
            out = carry(columns)
            dtypes["limbs"].update(a.dtype for a in columns + out)
            return out

        def spy_mul_add(x, const, y):
            out = mul_add(x, const, y)
            dtypes["limbs"].update(a.dtype for a in x + y + out)
            return out

        def spy_pcg64_words(half):
            out = pcg64_words(half)
            dtypes["limbs"].update(a.dtype for a in half + [out])
            return out

        monkeypatch.setattr(simulator, "_hasher", spy_hasher)
        monkeypatch.setattr(simulator, "_mix", spy_mix)
        monkeypatch.setattr(simulator, "_carry", spy_carry)
        monkeypatch.setattr(simulator, "_mul_add", spy_mul_add)
        monkeypatch.setattr(simulator, "_pcg64_words", spy_pcg64_words)
        with np.errstate(all="raise"):
            words = simulator._trial_states(2**64 - 1, 2**32 - 8, 2**32)
        assert dtypes == {"hash": {np.dtype(np.uint32)},
                          "mix": {np.dtype(np.uint32)},
                          "limbs": {np.dtype(np.uint64)}}
        assert words.shape == (8, 4)
        assert (words[:, 3] % 2 == 1).all()
        state_hi, state_lo, inc_hi, inc_lo = (int(w) for w in words[-1])
        rng = trial_rng(2**64 - 1, 2**32 - 1).bit_generator.state["state"]
        assert rng == {"state": state_hi << 64 | state_lo,
                       "inc": inc_hi << 64 | inc_lo}

    @settings(max_examples=200, deadline=None, database=None)
    @given(seeds=st.lists(st.tuples(*[st.one_of(
        st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]),
        st.integers(0, 2**64 - 1))] * 4), min_size=1, max_size=8))
    @example(seeds=[(0, 0, 0, 0)])
    @example(seeds=[(2**64 - 1,) * 4])
    @example(seeds=[(0, 2**64 - 1, 0, 2**64 - 1), (2**64 - 1, 0, 2**64 - 1, 0)])
    def test_limbs_match_python_ints(self, seeds):
        # PCG64's seeding on 32-bit limbs equals the same arithmetic on
        # Python ints mod 2**128, carries across every limb and word included.
        half = [np.array([word >> 32 * h & 0xFFFFFFFF
                          for word in (seed[k] for seed in seeds)],
                         dtype=np.uint64)
                for k in range(4) for h in range(2)]
        with np.errstate(all="raise"):
            got = simulator._pcg64_words(half)
        mask = 2**128 - 1
        for (s_hi, s_lo, q_hi, q_lo), row in zip(seeds, got.tolist()):
            inc = ((q_hi << 64 | q_lo) << 1 | 1) & mask
            state = (((s_hi << 64 | s_lo) + inc) * simulator._PCG64_MULT
                     + inc) & mask
            assert row == [state >> 64, state & 2**64 - 1,
                           inc >> 64, inc & 2**64 - 1]

    @settings(max_examples=25, deadline=None, database=None)
    @given(seed=st.integers(0, 2**64 - 1), lo=st.integers(0, 2**32 - 4))
    @example(seed=2**64 - 1, lo=2**32 - 4)
    def test_written_words_set_the_public_state(self, seed, lo):
        # Writing trial t's words into the pair leaves the generator in
        # trial_rng(seed, t)'s state, as the public state dict reads it.
        rng = trial_rng(seed, lo)
        pair = simulator._state_pair(rng.bit_generator)
        words = simulator._trial_states(seed, lo, lo + 4)
        for t, trial_words in enumerate(words[:, simulator._pair_order()], lo):
            rng.standard_normal(3)
            pair[:] = trial_words
            state = rng.bit_generator.state
            assert state == trial_rng(seed, t).bit_generator.state
            assert state["has_uint32"] == 0

    def test_unknown_state_layout_raises(self, monkeypatch):
        assert sorted(simulator._pair_order().tolist()) == [0, 1, 2, 3]
        monkeypatch.setattr(simulator, "_state_pair",
                            lambda bit_gen: np.array([1, 2, 3, 5], np.uint64))
        with pytest.raises(RuntimeError, match="unknown PCG64 state layout"):
            simulator._pair_order.__wrapped__()

    def test_at_most_one_seed_sequence_per_chunk(self, monkeypatch):
        made = []

        class Counted(np.random.SeedSequence):
            def __init__(self, *args, **kwargs):
                made.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", Counted)
        trial_rng(5, 0)
        assert len(made) == 1
        made.clear()
        trials, chunk = 2048, 1024
        monkeypatch.setattr(simulator, "_CHUNK_DRAWS",
                            chunk * draw_width(make_cfg()))
        TrialEnsemble(make_cfg(), trials, 5)
        assert len(made) <= -(-trials // chunk)

    @pytest.mark.parametrize("trials,seed,msg", [
        (0, 5, "trials"),
        (2**32 + 1, 5, "trials"),
        (1, -1, "master_seed"),
        (1, 2**64, "master_seed"),
    ])
    def test_budget_rejected_before_any_draw(self, monkeypatch, trials,
                                             seed, msg):
        def draw(*args):
            raise AssertionError("drew trials")

        monkeypatch.setattr(simulator, "_fill_trials", draw)
        with pytest.raises(ValueError, match=msg):
            TrialEnsemble(make_cfg(), trials, seed)

    def test_largest_trial_count_accepted(self):
        assert SweepSpec(SNR_DB, 0.0, 30.0, 2.5, trials=2**32).trials == 2**32


class TestHarnessTransparency:
    """Sweep points must reproduce the oracle on the same draws."""

    TRIALS = 4

    # 2 platforms, 3 ground stations: every link has its own Rician factor
    # and gain, so a hop whose links are permuted or mis-broadcast (the
    # direct links follow their platform) changes the rates.
    PER_LINK = dict(
        num_haps=2, num_gs=3, relay_antennas=4,
        kappa_up_db=[12.0, 25.0], kappa_down_db=[3.0, 9.0, 16.0],
        kappa_direct_db=[6.0, 18.0],
        ref_gain_up=[2.4e8, 3.6e8], ref_gain_down=[1.2e8, 1.6e8, 2.0e8],
        ref_gain_direct=[2.5e8, 3.5e8])

    @pytest.mark.parametrize("overrides,binding", [
        (dict(noise_power=2.0, ref_gain_down=1.62e8), None),
        (PER_LINK, "uplink"),
        (dict(PER_LINK, ref_gain_down=[1.2e7, 1.6e7, 2.0e7]), "downlink"),
    ], ids=["3x3-scalar", "per-link-uplink-binds", "per-link-downlink-binds"])
    def test_snr_points_match_direct_capacity(self, overrides, binding):
        cfg = make_cfg(**overrides)
        spec = SweepSpec(SNR_DB, 10.0, 20.0, 10.0, trials=self.TRIALS,
                         master_seed=777)
        result = run_snr_sweep(cfg, spec, include_baseline=True)
        lay = cfg.layout
        m, n = cfg.num_haps, cfg.num_gs
        links = [oracles.trial_links(cfg, 777, t, lay.d_sr_m, lay.d_rd_m,
                                     lay.d_sd_m)
                 for t in range(self.TRIALS)]
        for point, base_pt in zip(result.relay.points, result.baseline.points):
            gamma = db_to_linear(point.x)
            hops = [(oracles.hop_rate(up, gamma), oracles.hop_rate(dn, gamma))
                    for up, dn, _ in links]
            expected = np.mean([oracles.relay_rate(m, n, *h) for h in hops])
            assert point.mean_rate == pytest.approx(expected, rel=1e-9)
            if binding is not None:
                for c_up, c_down in hops:
                    assert (c_up < c_down) == (binding == "uplink")
            base_expected = np.mean([
                oracles.baseline_rate(m, n, direct, gamma)
                for _, _, direct in links])
            assert base_pt.mean_rate == pytest.approx(base_expected, rel=1e-9)

    def test_altitude_point_matches_direct_capacity(self):
        cfg = make_cfg(hap_power=50.0, relay_power=80.0, noise_power=2.0)
        spec = SweepSpec(RELAY_ALTITUDE_M, 8000.0, 10000.0, 1000.0,
                         trials=self.TRIALS, master_seed=778)
        curve = run_altitude_sweep(ensemble_for(cfg, spec), spec)
        scale_up = 50.0 / (2.0 * cfg.uplink_streams())
        scale_dn = 80.0 / (2.0 * cfg.downlink_streams())
        for point in curve.points:
            d_sr = cfg.layout.hap_altitude_m - point.x
            d_rd = point.x - cfg.layout.gs_altitude_m
            expected = []
            for t in range(self.TRIALS):
                up, dn, _ = oracles.trial_links(cfg, 778, t, d_sr, d_rd)
                expected.append(oracles.relay_rate(
                    cfg.num_haps, cfg.num_gs, oracles.hop_rate(up, scale_up),
                    oracles.hop_rate(dn, scale_dn)))
            assert point.mean_rate == pytest.approx(np.mean(expected),
                                                    rel=1e-9)


class TestSnrSweep:
    def test_deterministic_rerun(self):
        cfg = make_cfg()
        spec = SweepSpec(SNR_DB, 0.0, 10.0, 5.0, trials=50, master_seed=5)
        r1 = run_snr_sweep(cfg, spec, include_baseline=True)
        r2 = run_snr_sweep(cfg, spec, include_baseline=True)
        np.testing.assert_array_equal(r1.relay.mean_rates, r2.relay.mean_rates)
        np.testing.assert_array_equal(r1.baseline.mean_rates,
                                      r2.baseline.mean_rates)

    def test_common_draws_across_overlapping_sweeps(self):
        cfg = make_cfg()
        lo = SweepSpec(SNR_DB, 0.0, 10.0, 5.0, trials=40, master_seed=9)
        hi = SweepSpec(SNR_DB, 5.0, 15.0, 5.0, trials=40, master_seed=9)
        r_lo = run_snr_sweep(cfg, lo).relay
        r_hi = run_snr_sweep(cfg, hi).relay
        assert r_lo.points[1].mean_rate == r_hi.points[0].mean_rate
        assert r_lo.points[2].mean_rate == r_hi.points[1].mean_rate

    def test_mean_rate_monotone_in_snr(self):
        cfg = make_cfg()
        spec = SweepSpec(SNR_DB, 0.0, 30.0, 5.0, trials=60, master_seed=11)
        curve = run_snr_sweep(cfg, spec).relay
        diffs = np.diff(curve.mean_rates)
        assert (diffs > -1e-9).all()

    def test_std_err_shrinks_with_trials(self):
        cfg = make_cfg(num_haps=2, num_gs=2, antennas_per_node=1,
                       kappa_up_db=5.0, kappa_down_db=5.0)
        small = SweepSpec(SNR_DB, 10.0, 20.0, 10.0, trials=600, master_seed=3)
        big = SweepSpec(SNR_DB, 10.0, 20.0, 10.0, trials=2400, master_seed=3)
        se_small = run_snr_sweep(cfg, small).relay.points[0].std_err
        se_big = run_snr_sweep(cfg, big).relay.points[0].std_err
        assert 1.6 < se_small / se_big < 2.4

    def test_relay_curve_ignores_baseline_flag(self):
        cfg = make_cfg()
        spec = SweepSpec(SNR_DB, 0.0, 10.0, 5.0, trials=30, master_seed=21)
        alone = run_snr_sweep(cfg, spec, include_baseline=False)
        paired = run_snr_sweep(cfg, spec, include_baseline=True)
        np.testing.assert_array_equal(alone.relay.mean_rates,
                                      paired.relay.mean_rates)
        assert alone.baseline is None

    def test_one_finite_trial_has_zero_std_err(self):
        cfg = make_cfg()
        spec = SweepSpec(SNR_DB, 0.0, 10.0, 10.0, trials=1, master_seed=2)
        ens = TrialEnsemble(cfg, 1, 2)
        for point in run_snr_sweep(cfg, spec).relay.points:
            rate = ens.relay_rates(db_to_linear(point.x), db_to_linear(point.x),
                                   cfg.layout.d_sr_m, cfg.layout.d_rd_m)
            assert (point.mean_rate, point.std_err) == (rate[0], 0.0)
            assert point.trials_failed == 0

    def test_all_singular_point_reports_nan(self):
        cfg = make_cfg(kappa_up_db=200.0, kappa_down_db=200.0)
        spec = SweepSpec(SNR_DB, 0.0, 10.0, 10.0, trials=5, master_seed=2)
        curve = run_snr_sweep(cfg, spec).relay
        for point in curve.points:
            assert math.isnan(point.mean_rate)
            assert point.trials_failed == 5
        assert math.isnan(curve.argmax_x)

    def test_wrong_variable_rejected(self):
        spec = SweepSpec(RELAY_ALTITUDE_M, 1000.0, 2000.0, 500.0, trials=2)
        with pytest.raises(ValueError, match="snr_db"):
            run_snr_sweep(make_cfg(), spec)

    @pytest.mark.parametrize("key", ["ref_gain_up", "ref_gain_down",
                                     "ref_gain_direct"])
    def test_overflowing_gain_is_an_input_error(self, key):
        cfg = make_cfg(**{key: 1e200})
        spec = SweepSpec(SNR_DB, 0.0, 10.0, 10.0, trials=3, master_seed=2)
        with pytest.raises(ValueError, match=f"overflows.*{key}"):
            run_snr_sweep(cfg, spec, include_baseline=True)


class TestAltitudeSweep:
    def test_grid_and_symmetric_peak(self):
        cfg = make_cfg(kappa_up_db=20.0, kappa_down_db=20.0,
                       hap_power=4000.0, relay_power=4000.0)
        spec = SweepSpec(RELAY_ALTITUDE_M, 4000.0, 14000.0, 500.0,
                         trials=300, master_seed=12345)
        curve = run_altitude_sweep(ensemble_for(cfg, spec), spec)
        np.testing.assert_array_equal(curve.xs, spec.grid())
        assert abs(curve.argmax_x - 9000.0) <= 500.0

    def test_band_outside_layout_rejected(self):
        cfg = make_cfg()
        spec = SweepSpec(RELAY_ALTITUDE_M, 1000.0, 18000.0, 1000.0, trials=2)
        with pytest.raises(ValueError, match="strictly inside"):
            run_altitude_sweep(ensemble_for(cfg, spec), spec)

    def test_band_violating_far_field_rejected(self):
        cfg = make_cfg()
        spec = SweepSpec(RELAY_ALTITUDE_M, 0.1, 0.2, 0.1, trials=2)
        with pytest.raises(ValueError, match="far-field"):
            run_altitude_sweep(ensemble_for(cfg, spec), spec)

    def test_wrong_variable_rejected(self):
        spec = SweepSpec(SNR_DB, 0.0, 10.0, 5.0, trials=2)
        with pytest.raises(ValueError, match="relay_altitude_m"):
            run_altitude_sweep(ensemble_for(make_cfg(), spec), spec)

    def test_overflowing_power_is_an_input_error(self):
        cfg = make_cfg(hap_power=1e308, relay_power=1e308, noise_power=1e-300)
        spec = SweepSpec(RELAY_ALTITUDE_M, 8000.0, 10000.0, 1000.0, trials=3)
        with pytest.raises(ValueError, match="overflows.*hap_power"):
            run_altitude_sweep(ensemble_for(cfg, spec), spec)

    @pytest.mark.parametrize("trials,seed", [(4, 12345), (3, 12346)])
    def test_spec_must_match_the_ensemble(self, trials, seed):
        spec = SweepSpec(RELAY_ALTITUDE_M, 8000.0, 10000.0, 1000.0, trials=3)
        ens = TrialEnsemble(make_cfg(), trials, seed)
        with pytest.raises(ValueError, match="ensemble holds"):
            run_altitude_sweep(ens, spec)


class TestSumRateCurve:
    def test_argmax_tie_takes_smallest_x(self):
        curve = SumRateCurve((
            CurvePoint(1.0, 2.0, 0.0, 0),
            CurvePoint(2.0, 5.0, 0.0, 0),
            CurvePoint(3.0, 5.0, 0.0, 0),
        ))
        assert curve.argmax_x == 2.0

    def test_argmax_skips_nan(self):
        curve = SumRateCurve((
            CurvePoint(1.0, math.nan, 0.0, 10),
            CurvePoint(2.0, 1.5, 0.1, 0),
        ))
        assert curve.argmax_x == 2.0

    def test_unsorted_points_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            SumRateCurve((CurvePoint(2.0, 1.0, 0.0, 0),
                          CurvePoint(1.0, 1.0, 0.0, 0)))


class TestTrialEnsemble:
    def test_baseline_requires_flag(self):
        ens = TrialEnsemble(make_cfg(), trials=3, master_seed=1)
        with pytest.raises(RuntimeError, match="baseline"):
            ens.baseline_rates(10.0)

    def test_non_positive_scale_rejected(self):
        ens = TrialEnsemble(make_cfg(), trials=3, master_seed=1)
        with pytest.raises(ValueError, match="positive"):
            ens.relay_rates(0.0, 1.0, 9000.0, 9000.0)

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan])
    def test_non_positive_baseline_scale_rejected(self, scale):
        ens = TrialEnsemble(make_cfg(), 3, 1, include_baseline=True)
        with pytest.raises(ValueError, match="snr scale must be positive"):
            ens.baseline_rates(scale)

    def test_short_distance_rejected(self):
        ens = TrialEnsemble(make_cfg(), trials=3, master_seed=1)
        with pytest.raises(ValueError, match="far-field"):
            ens.relay_rates(1.0, 1.0, 0.05, 9000.0)

    def test_far_field_enforced(self):
        # A 40 m hop is well inside the far field of a 0.5 m array.
        cfg = make_cfg(rx_spacing_m=0.5, tx_spacing_m=0.5)
        ens = TrialEnsemble(cfg, trials=3, master_seed=1)
        with pytest.raises(ValueError, match="d_sr_m .* far-field"):
            ens.relay_rates(1.0, 1.0, 40.0, 9000.0)
        with pytest.raises(ValueError, match="d_rd_m .* far-field"):
            ens.relay_rates(1.0, 1.0, 9000.0, 40.0)

    def test_far_field_boundary(self):
        # Exactly at 100x the widest spacing is still too close, on either hop.
        cfg = make_cfg(rx_spacing_m=0.5, tx_spacing_m=0.1)
        ens = TrialEnsemble(cfg, trials=3, master_seed=1)
        edge = FAR_FIELD_FACTOR * 0.5
        with pytest.raises(ValueError, match="d_sr_m .* far-field"):
            ens.relay_rates(1.0, 1.0, edge, 9000.0)
        with pytest.raises(ValueError, match="d_rd_m .* far-field"):
            ens.relay_rates(1.0, 1.0, 9000.0, edge)
        ens.relay_rates(1.0, 1.0, edge + 1.0, edge + 1.0)

    def test_post_path_loss_ignores_distance(self):
        cfg = make_cfg(snr_reference="post_path_loss")
        ens = TrialEnsemble(cfg, trials=10, master_seed=6)
        a = ens.relay_rates(10.0, 10.0, 9000.0, 9000.0)
        b = ens.relay_rates(10.0, 10.0, 4000.0, 14000.0)
        np.testing.assert_array_equal(a, b)


class TestChunking:
    """Trials are drawn and reduced in chunks; neither results nor memory
    may depend on how many trials there are per chunk."""

    # Per-link factors and gains with all streams and the baseline; 90 dB on
    # the second platform's links makes a few trials singular.
    CFG = dict(TestHarnessTransparency.PER_LINK, all_streams=True,
               kappa_up_db=[12.0, 90.0], kappa_direct_db=[6.0, 90.0])

    @staticmethod
    def stored(ens: TrialEnsemble) -> list[bytes]:
        return [a.tobytes() for a in ens._q + ens._failed]

    @settings(max_examples=6, deadline=None, database=None)
    @given(chunk=st.integers(1, 64), trials=st.integers(1, 150),
           seed=st.integers(0, 2**64 - 1))
    @example(chunk=7, trials=150, seed=3)
    @example(chunk=64, trials=130, seed=3)
    def test_forms_do_not_depend_on_chunk_size(self, chunk, trials, seed):
        cfg = make_cfg(**self.CFG)
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
        cfg = make_cfg(num_haps=1, num_gs=1, antennas_per_node=9,
                       relay_antennas=9, all_streams=True)
        whole = TrialEnsemble(cfg, 129, 3)
        monkeypatch.setattr(simulator, "_CHUNK_DRAWS", 64 * draw_width(cfg))
        assert self.stored(TrialEnsemble(cfg, 129, 3)) == self.stored(whole)

    @pytest.mark.parametrize("cfg,baseline", [
        (load_scenario("scenarios/snr_sweep.yaml").network, True),
        (make_cfg(num_haps=4, num_gs=4, antennas_per_node=9,
                  relay_antennas=9, all_streams=True), False),
    ], ids=["snr-scenario", "9x9-all-streams"])
    def test_kernel_calls_stay_within_the_budget(self, monkeypatch, cfg,
                                                 baseline):
        # Two full chunks and a one-trial tail.
        trials = 2 * (simulator._CHUNK_DRAWS // draw_width(cfg, baseline)) + 1
        calls = []
        for name in ("first_stream_quadforms", "all_stream_quadforms"):
            def spy(los, nlos, a, b, kernel=getattr(kernels, name)):
                calls.append(nlos.shape)
                return kernel(los, nlos, a, b)
            monkeypatch.setattr(kernels, name, spy)
        hops = simulator._hops(cfg, baseline)
        TrialEnsemble(cfg, trials, 5, include_baseline=baseline)
        assert len(calls) == 3 * len(hops)
        for i, hop in enumerate(hops):
            shapes = calls[i::len(hops)]
            assert {shape[1:] for shape in shapes} == {(hop.links, *hop.shape)}
            assert sum(shape[0] for shape in shapes) == trials
        assert max(math.prod(shape) for shape in calls) <= (
            simulator._CHUNK_DRAWS // 2)

    @pytest.mark.parametrize("hop", [0, 1, 2], ids=["up", "down", "direct"])
    def test_rate_blocks_match_the_whole(self, hop):
        # Forms are stored trial-last, one row per link and stream.  Any
        # block of points, and any leading block of trials, must give the
        # whole's bits: 150 trials against 149 and a one-trial ensemble.
        cfg = make_cfg(**self.CFG)
        ens = TrialEnsemble(cfg, 150, 3, include_baseline=True)
        # Every hop of CFG counts all streams.
        kind = ens._hops[hop]
        assert ens._q[hop].shape == (kind.links * kind.shape[1], 150)
        scales = np.geomspace(1.0, 1e4, 7)
        dists = np.linspace(2000.0, 16000.0, 7)
        whole = ens._hop_rate(hop, scales, dists)
        assert whole.shape == (7, 150)
        for size in (1, 2, 3, 7):
            parts = [ens._hop_rate(hop, scales[lo:lo + size],
                                   dists[lo:lo + size])
                     for lo in range(0, 7, size)]
            assert np.concatenate(parts).tobytes() == whole.tobytes(), size
        for trials in (149, 1):
            head = TrialEnsemble(cfg, trials, 3, include_baseline=True)
            assert head._hop_rate(hop, scales, dists).tobytes() == (
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
            got = ens._hop_rate(index, np.array([30.0]), np.array([d]))
            if len(q) < 8:
                assert got[0].tobytes() == want.tobytes(), hop.distance
            else:
                np.testing.assert_allclose(got[0], want, rtol=1e-14, atol=0)

    def test_example_has_singular_and_regular_trials(self):
        ens = TrialEnsemble(make_cfg(**self.CFG), 150, 3,
                            include_baseline=True)
        failed = ens._failed[0] | ens._failed[2]
        assert 0 < failed.sum() < failed.size

    def test_memory_grows_with_stored_forms_only(self, monkeypatch):
        # Four times the trials may only add about what the stored q and
        # flags add; the draws of a chunk are freed before the next one.
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
            return peak, sum(a.nbytes for a in ens._q + ens._failed)

        (peak_1, kept_1), (peak_4, kept_4) = traced(n), traced(4 * n)
        assert peak_4 - peak_1 <= 2 * (kept_4 - kept_1)

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


class TestGridPasses:
    """A sweep evaluates its grid in passes of many points; every pass must
    give the bits of one call per point, at any number of points a pass."""

    @pytest.mark.parametrize("reference", ["pre_path_loss", "post_path_loss"])
    def test_grid_equals_single_points(self, reference):
        cfg = make_cfg(**TestChunking.CFG, snr_reference=reference)
        ens = TrialEnsemble(cfg, 150, 3, include_baseline=True)
        failed = ens._failed[0] | ens._failed[1]
        assert 0 < failed.sum() < failed.size
        up = np.geomspace(0.5, 5e3, 9)
        dn = up[::-1].copy()
        d_sr = np.linspace(2000.0, 16000.0, 9)
        d_rd = 18000.0 - d_sr
        for index, (scale, dist) in enumerate([(up, d_sr), (dn, d_rd),
                                               (up, np.full(9, 1.8e4))]):
            grid = ens._hop_rate(index, scale, dist)
            single = [ens._hop_rate(index, scale[i:i + 1], dist[i:i + 1])
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
    def curves(cfg: NetworkConfig) -> list[bytes]:
        snr = SweepSpec(SNR_DB, 0.0, 30.0, 2.5, trials=150, master_seed=3)
        alt = SweepSpec(RELAY_ALTITUDE_M, 4000.0, 14000.0, 500.0,
                        trials=150, master_seed=3)
        result = run_snr_sweep(cfg, snr, include_baseline=True)
        ens = ensemble_for(cfg, alt)
        curves = [result.relay, result.baseline, run_altitude_sweep(ens, alt)]
        got = [np.array([(p.x, p.mean_rate, p.std_err, p.trials_failed)
                         for p in c.points]).tobytes() for c in curves]
        return got + [np.float64(
            find_optimal_altitude(ens, 4000.0, 14000.0, 100.0)).tobytes()]

    @pytest.mark.parametrize("points", [1, 2, 3, 7])
    def test_sweeps_do_not_depend_on_points_per_pass(self, monkeypatch,
                                                      points):
        cfg = make_cfg(**TestChunking.CFG, hap_power=4000.0,
                       relay_power=4000.0)
        whole = self.curves(cfg)
        assert simulator._CHUNK_DRAWS // 150 >= 41
        # Also splits the draws into chunks of a trial or a few.
        monkeypatch.setattr(simulator, "_CHUNK_DRAWS", points * 150)
        assert next(simulator._passes(13, 150)) == slice(0, points)
        assert self.curves(cfg) == whole

    @pytest.mark.parametrize("trials", [2, 150, 9000])
    def test_rows_aggregate_as_one_point_each(self, trials):
        # Each row's mean and std err must carry the bits of the same
        # statistics over that row's finite trials alone.
        rng = np.random.default_rng(trials)
        rates = rng.exponential(7.0, (5, trials))
        rates[:, rng.random(trials) < 0.1] = np.nan
        rates[:, 0] = np.nan
        xs = np.arange(5.0)
        for x, row, got in zip(xs, rates, simulator._aggregate(xs, rates)):
            finite = row[np.isfinite(row)]
            assert got.trials_failed == trials - finite.size
            if finite.size == 1:
                assert (got.mean_rate, got.std_err) == (finite[0], 0.0)
                continue
            assert got.mean_rate == float(finite.mean())
            assert got.std_err == float(finite.std(ddof=1)
                                        / math.sqrt(finite.size))

    def test_overflow_names_the_first_point_then_the_first_hop(self):
        # The downlink overflows from the second point on and the uplink
        # only at the last, as one call per point would find.
        # Path factors 1e6 and 1e10; the largest forms lie in (0.1, 100).
        cfg = make_cfg(ref_gain_up=8.1e10, ref_gain_down=8.1e12)
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

    def test_far_field_checked_at_every_point(self):
        cfg = make_cfg(rx_spacing_m=0.5, tx_spacing_m=0.5)
        ens = TrialEnsemble(cfg, 3, 1)
        d = np.array([9000.0, 40.0, 9000.0])
        with pytest.raises(ValueError, match="d_rd_m = 40 m .* far-field"):
            ens.relay_rates(1.0, 1.0, 9000.0, d)
        with pytest.raises(ValueError, match="d_sr_m = 40 m .* far-field"):
            ens.relay_rates(1.0, 1.0, d, d)

    def test_two_dimensional_points_rejected(self):
        ens = TrialEnsemble(make_cfg(), 3, 1)
        with pytest.raises(ValueError, match="1-D"):
            ens.relay_rates(np.ones((2, 2)), 1.0, 9000.0, 9000.0)


class TestOptimalAltitude:
    def test_symmetric_network_peaks_at_midpoint(self):
        cfg = make_cfg(kappa_up_db=20.0, kappa_down_db=20.0,
                       hap_power=4000.0, relay_power=4000.0)
        alt = find_optimal_altitude(TrialEnsemble(cfg, 300, 12345),
                                    4000.0, 14000.0, 50.0)
        assert abs(alt - 9000.0) <= 150.0

    def test_matches_exhaustive_grid(self):
        cfg = make_cfg(kappa_up_db=20.0, kappa_down_db=20.0,
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
            find_optimal_altitude(TrialEnsemble(make_cfg(), 2, 12345),
                                  9000.0, 9000.0, 10.0)

    def test_all_singular_returns_nan(self):
        cfg = make_cfg(kappa_up_db=200.0, kappa_down_db=200.0)
        alt = find_optimal_altitude(TrialEnsemble(cfg, 20, 4),
                                    4000.0, 14000.0, 250.0)
        assert math.isnan(alt)


class TestBootstrapCi:
    def test_deterministic(self):
        x = np.random.default_rng(0).normal(size=200)
        assert bootstrap_mean_ci(x) == bootstrap_mean_ci(x)

    def test_brackets_the_mean(self):
        x = np.random.default_rng(1).normal(loc=3.0, size=500)
        lo, hi = bootstrap_mean_ci(x)
        assert lo < x.mean() < hi
        assert hi - lo < 0.5

    def test_ignores_nan(self):
        x = np.array([1.0, math.nan, 2.0, 3.0, math.nan, 4.0])
        lo, hi = bootstrap_mean_ci(x)
        assert lo <= 2.5 <= hi

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="finite samples"):
            bootstrap_mean_ci(np.array([1.0, math.nan]))

    def test_bad_confidence_rejected(self):
        with pytest.raises(ValueError, match="confidence"):
            bootstrap_mean_ci(np.arange(10.0), confidence=1.5)
