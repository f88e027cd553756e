import math
from pathlib import Path

import pytest

from hapsim.network import ScenarioLayout, check_far_field
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
