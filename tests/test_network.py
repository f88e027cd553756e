"""The network model in network.py, checked on its own.

The layout's distances and the platform spacing rule, every value check of
NetworkConfig and its derived fields, the far-field test of a distance,
the dB conversion and the line-of-sight matrix.  Nothing here draws
a trial: what the ensemble does with the config is checked in
test_simulator.py.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from helpers import LAYOUT, make_cfg

from hapsim.network import (
    NetworkConfig,
    ScenarioLayout,
    check_far_field,
    db_to_linear,
    los_channel,
    min_hap_separation,
)
from hapsim.scenario import load_scenario
from hapsim.simulator import SNR_DB, SweepSpec

SNR_SCENARIO = str(Path(__file__).resolve().parents[1] / "scenarios"
                   / "snr_sweep.yaml")

# The constructor tests' keywords; NetworkConfig(**NETWORK) is make_cfg().
NETWORK = dict(num_haps=3, num_gs=3, antennas_per_node=4, layout=LAYOUT)


class TestScenarioLayout:
    def test_distances(self):
        lay = ScenarioLayout(hap_altitude_m=18000.0, relay_altitude_m=15500.0)
        assert (lay.d_sd_m, lay.d_sr_m, lay.d_rd_m) == (18000.0, 2500.0, 15500.0)

    def test_gs_offset(self):
        lay = ScenarioLayout(hap_altitude_m=18000.0, relay_altitude_m=9000.0,
                             gs_altitude_m=1000.0)
        assert lay.d_sd_m == 17000.0
        assert lay.d_rd_m == 8000.0

    @pytest.mark.parametrize("hap,relay,gs", [
        (18000.0, 18000.0, 0.0),
        (18000.0, 19000.0, 0.0),
        (18000.0, 500.0, 1000.0),
    ])
    def test_ordering_rejected(self, hap, relay, gs):
        with pytest.raises(ValueError, match="altitude"):
            ScenarioLayout(hap_altitude_m=hap, relay_altitude_m=relay,
                           gs_altitude_m=gs)

    def test_negative_gs_altitude_rejected(self):
        with pytest.raises(ValueError,
                           match=r"^gs_altitude_m must be non-negative, got -1.0$"):
            ScenarioLayout(hap_altitude_m=18000.0, relay_altitude_m=9000.0,
                           gs_altitude_m=-1.0)

    @pytest.mark.parametrize("gs", [math.inf, -math.inf, math.nan])
    def test_non_finite_gs_altitude_rejected(self, gs):
        with pytest.raises(ValueError,
                           match=f"^gs_altitude_m must be finite, got {gs!r}$"):
            ScenarioLayout(hap_altitude_m=18000.0, relay_altitude_m=9000.0,
                           gs_altitude_m=gs)

    def test_fields_coerced_to_float(self):
        lay = ScenarioLayout(hap_altitude_m=18000, relay_altitude_m=9000)
        assert isinstance(lay.hap_altitude_m, float)
        assert lay == ScenarioLayout(hap_altitude_m=18000.0,
                                     relay_altitude_m=9000.0)


class TestNetworkConfig:
    def test_relay_antennas_default(self):
        assert make_cfg(3, 3).relay_antennas == 4
        assert make_cfg(2, 3).relay_antennas == 2
        assert make_cfg(1, 1, antennas=1).relay_antennas == 1

    def test_relay_antennas_floor_enforced(self):
        with pytest.raises(ValueError, match="relay_antennas"):
            make_cfg(3, 3, relay_antennas=3)

    def test_scalar_kappa_broadcasts(self):
        cfg = make_cfg(3, 2, kappa_up_db=12.0)
        assert cfg.kappa_up_db == (12.0, 12.0, 12.0)

    def test_per_link_length_checked(self):
        with pytest.raises(ValueError, match="kappa_up_db"):
            make_cfg(3, 3, kappa_up_db=[10.0, 20.0])

    def test_direct_values_default_to_uplink(self):
        cfg = make_cfg(2, 2, kappa_up_db=[10.0, 20.0], ref_gain_up=[2.0, 3.0])
        assert cfg.kappa_direct_db == (10.0, 20.0)
        assert cfg.ref_gain_direct == (2.0, 3.0)

    def test_spacings_default_to_half_wavelength(self):
        cfg = make_cfg(2, 2, wavelength_m=0.01)
        assert cfg.rx_spacing_m == 0.005
        assert cfg.tx_spacing_m == 0.005

    def test_far_field_limit_uses_widest_spacing(self):
        cfg = make_cfg(2, 2, rx_spacing_m=0.01, tx_spacing_m=0.02)
        assert cfg.far_field_m == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("key", ["wavelength_m", "rx_spacing_m",
                                     "tx_spacing_m"])
    def test_non_positive_fields_rejected(self, key):
        with pytest.raises(ValueError, match=key):
            make_cfg(2, 2, **{key: 0.0})

    @pytest.mark.parametrize("key", ["aoa_deg", "aod_deg", "wavelength_m",
                                     "rx_spacing_m", "tx_spacing_m",
                                     "kappa_up_db"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_fields_rejected(self, key, value):
        # A non-finite angle would make the line-of-sight matrix NaN.
        with pytest.raises(ValueError, match=key):
            make_cfg(2, 2, **{key: value})

    @pytest.mark.parametrize("kwargs,msg", [
        (dict(m=0), "num_haps, num_gs, antennas_per_node must be >= 1"),
        (dict(streams_per_tx=0), "streams_per_tx must be >= 1"),
    ], ids=["num_haps", "streams_per_tx"])
    def test_counts_below_one_rejected(self, kwargs, msg):
        with pytest.raises(ValueError, match=msg):
            make_cfg(**kwargs)

    def test_bad_snr_reference_rejected(self):
        with pytest.raises(ValueError, match="snr_reference"):
            make_cfg(2, 2, snr_reference="mid")

    def test_non_positive_power_rejected(self):
        with pytest.raises(ValueError, match="noise_power"):
            make_cfg(2, 2, noise_power=0.0)

    @pytest.mark.parametrize("gain", [0.0, -1.0])
    def test_non_positive_ref_gain_rejected(self, gain):
        for name in ("ref_gain_up", "ref_gain_down", "ref_gain_direct"):
            with pytest.raises(ValueError,
                               match=f"{name} entries must be positive"):
                make_cfg(2, 2, antennas=1, **{name: gain})


class TestStrictFields:
    """A library caller's values get the checks a scenario file's get:
    nothing is truncated, counted as a flag or parsed from a string."""

    @pytest.mark.parametrize("field,value,msg", [
        ("num_haps", 3.7, "an integer"),
        ("num_gs", True, "an integer"),
        ("relay_antennas", 4.2, "an integer"),
        ("streams_per_tx", 1.5, "an integer"),
        ("all_streams", "no", "true or false"),
        ("hap_power", "3", "a number"),
    ])
    def test_network_config_rejects(self, field, value, msg):
        with pytest.raises(ValueError, match=f"^{field} must be {msg}, got "):
            NetworkConfig(**{**NETWORK, field: value})

    def test_layout_rejects_a_string(self):
        with pytest.raises(ValueError, match="^hap_altitude_m must be a number"):
            ScenarioLayout(hap_altitude_m="18000", relay_altitude_m=9000.0)

    def test_sweep_rejects_a_string(self):
        with pytest.raises(ValueError, match="^start must be a number"):
            SweepSpec(SNR_DB, start="0", stop=30.0, step=2.5)

    @pytest.mark.parametrize("build,value,msg", [
        (lambda v: make_cfg(2, 2, snr_reference=v), "mid",
         "snr_reference must be one of ('pre_path_loss', 'post_path_loss'), "
         "got 'mid'"),
        (lambda v: SweepSpec(v, 0.0, 30.0, 2.5), "power",
         "variable must be one of ('snr_db', 'relay_altitude_m'), got 'power'"),
        (lambda v: SweepSpec(v, 0.0, 30.0, 2.5), 3,
         "variable must be a string, got 3"),
    ], ids=["snr_reference", "variable", "variable-type"])
    def test_choice_keys_name_their_choices(self, build, value, msg):
        with pytest.raises(ValueError) as info:
            build(value)
        assert str(info.value) == msg

    def test_dof_rejects_a_fraction(self):
        with pytest.raises(ValueError, match="^num_haps must be an integer"):
            make_cfg(2.5, 3, antennas=1)

    def test_numpy_values_keep_their_stored_values(self):
        cfg = NetworkConfig(
            num_haps=np.int64(3), num_gs=np.int64(3),
            antennas_per_node=np.int64(4), layout=LAYOUT,
            hap_power=np.float32(2.5), kappa_up_db=np.array([10.0, 20.0, 30.0]))
        assert cfg == NetworkConfig(**NETWORK, hap_power=2.5,
                                    kappa_up_db=(10.0, 20.0, 30.0))
        assert type(cfg.num_haps) is int and type(cfg.hap_power) is float
        assert all(type(v) is float for v in cfg.kappa_up_db)


class TestCheckFarField:
    @pytest.mark.parametrize("name", ["d_sr_m", "d_rd_m"])
    def test_non_finite_distance_rejected(self, name):
        cfg = load_scenario(SNR_SCENARIO).network
        with pytest.raises(ValueError, match=f"{name} must be finite, got inf"):
            check_far_field(cfg, name, math.inf)

    @pytest.mark.parametrize("bad", ["9000", True])
    def test_non_number_distance_rejected(self, bad):
        cfg = load_scenario(SNR_SCENARIO).network
        with pytest.raises(ValueError, match="^d_sr_m must be a number"):
            check_far_field(cfg, "d_sr_m", bad)
        check_far_field(cfg, "d_sr_m", np.float64(9000.0))

    def test_returns_the_float_power_square(self):
        # The path loss divides by this square; Python's float power rounds
        # it one ulp away from d * d here, and the curves' bits follow it.
        cfg = load_scenario(SNR_SCENARIO).network
        d = 10558.173008232141
        assert d * d == 111475017.27176175
        for value in (d, np.float64(d)):
            got = check_far_field(cfg, "d_sr_m", value)
            assert type(got) is float and got == 111475017.27176173 == d ** 2


class TestMinHapSeparation:
    def test_reference_spacing(self):
        # 18 km link at 6.25 mm wavelength with 0.1 m ground spacing.
        assert min_hap_separation(18000.0, 0.00625, 1.0, 0.1) == 1125.0

    def test_unit_inputs(self):
        assert min_hap_separation(1.0, 1.0, 1.0, 1.0) == 1.0

    def test_double_beta_halves_spacing(self):
        assert min_hap_separation(18000.0, 0.00625, 2.0, 0.1) == pytest.approx(
            562.5, rel=1e-12)

    @pytest.mark.parametrize("field", range(4))
    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_non_positive_inputs_rejected(self, field, bad):
        args = [18000.0, 0.00625, 1.0, 0.1]
        args[field] = bad
        names = ["link_distance_m", "wavelength_m", "dof_beta", "gs_spacing_m"]
        with pytest.raises(ValueError, match=names[field]):
            min_hap_separation(*args)

    def test_linear_in_distance_and_wavelength(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            dist, wl, beta, gs = rng.uniform(0.1, 100.0, size=4)
            c = rng.uniform(0.5, 8.0)
            base = min_hap_separation(dist, wl, beta, gs)
            assert min_hap_separation(c * dist, wl, beta, gs) == pytest.approx(
                c * base, rel=1e-12)
            assert min_hap_separation(dist, c * wl, beta, gs) == pytest.approx(
                c * base, rel=1e-12)

    def test_inverse_in_beta_and_gs_spacing(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            dist, wl, beta, gs = rng.uniform(0.1, 100.0, size=4)
            c = rng.uniform(0.5, 8.0)
            base = min_hap_separation(dist, wl, beta, gs)
            assert min_hap_separation(dist, wl, c * beta, gs) == pytest.approx(
                base / c, rel=1e-12)
            assert min_hap_separation(dist, wl, beta, c * gs) == pytest.approx(
                base / c, rel=1e-12)


class TestDof:
    @pytest.mark.parametrize("m,n,a,expected", [
        (1, 1, 1, 1.0), (3, 3, 1, 1.8), (2, 3, 2, 3.0),
    ])
    def test_reference_values(self, m, n, a, expected):
        cfg = make_cfg(m, n, antennas=a)
        assert cfg.dof_prefactor * cfg.antennas_per_node == pytest.approx(
            expected, rel=1e-15)

    def test_invalid_counts(self):
        with pytest.raises(ValueError, match=">= 1"):
            make_cfg(0, 3, antennas=1)


class TestDbToLinear:
    def test_reference_points(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-12)
        assert db_to_linear(-30.0) == pytest.approx(1e-3, rel=1e-12)

    def test_overflow_is_a_value_error(self):
        with pytest.raises(ValueError, match="4000.0 dB"):
            db_to_linear(4000.0)


class TestLosChannel:
    def test_single_element(self):
        out = los_channel(make_cfg(), 1, 1)
        assert out.shape == (1, 1)
        assert out[0, 0] == 1.0 + 0.0j

    def test_boresight_is_all_ones(self):
        out = los_channel(make_cfg(aoa_deg=0.0, aod_deg=0.0), 3, 2)
        np.testing.assert_allclose(out, np.ones((3, 2)), atol=1e-15)

    def test_half_wavelength_endfire_phase(self):
        # rx spacing of lambda/2 at 90 degrees arrival: phase step of pi.
        cfg = make_cfg(wavelength_m=1.0, aoa_deg=90.0, rx_spacing_m=0.5,
                      tx_spacing_m=0.5)
        out = los_channel(cfg, 2, 1)
        np.testing.assert_allclose(out, [[1.0], [-1.0]], atol=1e-12)

    def test_unit_modulus_and_rank_one(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            cfg = make_cfg(aoa_deg=math.degrees(rng.uniform(-1.5, 1.5)),
                          aod_deg=math.degrees(rng.uniform(-1.5, 1.5)))
            rows, cols = rng.integers(1, 7, size=2)
            out = los_channel(cfg, rows, cols)
            np.testing.assert_allclose(np.abs(out), 1.0, atol=1e-12)
            s = np.linalg.svd(out, compute_uv=False)
            if min(rows, cols) > 1:
                assert s[1] <= 1e-10 * s[0]

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError, match="array size"):
            los_channel(make_cfg(), 0, 2)
