import math
from pathlib import Path

import numpy as np
import pytest

from hapsim.network import ScenarioLayout, check_far_field, min_hap_separation
from hapsim.scenario import load_scenario

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


class TestCheckFarField:
    @pytest.mark.parametrize("name", ["d_sr_m", "d_rd_m"])
    def test_non_finite_distance_rejected(self, name):
        cfg = load_scenario(SNR_SCENARIO).network
        with pytest.raises(ValueError, match=f"{name} must be finite, got inf"):
            check_far_field(cfg, name, math.inf)


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
