import math
from pathlib import Path

import numpy as np
import pytest

from hapsim.network import (
    NetworkConfig,
    ScenarioLayout,
    check_far_field,
    dof,
    min_hap_separation,
)
from hapsim.scenario import load_scenario
from hapsim.simulator import SNR_DB, SweepSpec

SNR_SCENARIO = str(Path(__file__).resolve().parents[1] / "scenarios"
                   / "snr_sweep.yaml")


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
        with pytest.raises(ValueError, match="gs_altitude_m"):
            ScenarioLayout(hap_altitude_m=18000.0, relay_altitude_m=9000.0,
                           gs_altitude_m=-1.0)

    def test_fields_coerced_to_float(self):
        lay = ScenarioLayout(hap_altitude_m=18000, relay_altitude_m=9000)
        assert isinstance(lay.hap_altitude_m, float)
        assert lay == ScenarioLayout(hap_altitude_m=18000.0,
                                     relay_altitude_m=9000.0)


class TestStrictFields:
    """A library caller's values get the checks a scenario file's get:
    nothing is truncated, counted as a flag or parsed from a string."""

    LAYOUT = ScenarioLayout(hap_altitude_m=18000.0, relay_altitude_m=9000.0)
    NETWORK = dict(num_haps=3, num_gs=3, antennas_per_node=4, layout=LAYOUT)

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
            NetworkConfig(**{**self.NETWORK, field: value})

    def test_layout_rejects_a_string(self):
        with pytest.raises(ValueError, match="^hap_altitude_m must be a number"):
            ScenarioLayout(hap_altitude_m="18000", relay_altitude_m=9000.0)

    def test_sweep_rejects_a_string(self):
        with pytest.raises(ValueError, match="^start must be a number"):
            SweepSpec(SNR_DB, start="0", stop=30.0, step=2.5)

    def test_dof_rejects_a_fraction(self):
        with pytest.raises(ValueError, match="^num_tx must be an integer"):
            dof(2.5, 3, 1)

    def test_numpy_values_keep_their_stored_values(self):
        cfg = NetworkConfig(
            num_haps=np.int64(3), num_gs=np.int64(3),
            antennas_per_node=np.int64(4), layout=self.LAYOUT,
            hap_power=np.float32(2.5), kappa_up_db=np.array([10.0, 20.0, 30.0]))
        assert cfg == NetworkConfig(**self.NETWORK, hap_power=2.5,
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
