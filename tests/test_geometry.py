import numpy as np
import pytest

from hapsim.network import min_hap_separation


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
