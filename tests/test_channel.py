import math

import numpy as np
import pytest

from hapsim.channel import (
    RicianLink,
    apply_path_loss,
    db_to_linear,
    los_channel,
    rayleigh_channel,
    rician_mix,
    synth_link,
)
from hapsim.geometry import LinkGeometry


def geom(distance_m: float = 1000.0, wavelength_m: float = 0.00625,
         aoa_rad: float = 0.0, aod_rad: float = 0.0,
         rx_spacing_m: float | None = None,
         tx_spacing_m: float | None = None) -> LinkGeometry:
    half = wavelength_m / 2.0
    return LinkGeometry(distance_m, wavelength_m, aoa_rad, aod_rad,
                        rx_spacing_m if rx_spacing_m is not None else half,
                        tx_spacing_m if tx_spacing_m is not None else half)


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
        out = los_channel(geom(), 1, 1)
        assert out.shape == (1, 1)
        assert out[0, 0] == 1.0 + 0.0j

    def test_boresight_is_all_ones(self):
        out = los_channel(geom(aoa_rad=0.0, aod_rad=0.0), 3, 2)
        np.testing.assert_allclose(out, np.ones((3, 2)), atol=1e-15)

    def test_half_wavelength_endfire_phase(self):
        # rx spacing of lambda/2 at 90 degrees arrival: phase step of pi.
        g = geom(wavelength_m=1.0, aoa_rad=math.pi / 2.0, rx_spacing_m=0.5,
                 tx_spacing_m=0.5)
        out = los_channel(g, 2, 1)
        np.testing.assert_allclose(out, [[1.0], [-1.0]], atol=1e-12)

    def test_unit_modulus_and_rank_one(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            g = geom(distance_m=rng.uniform(500, 5e4),
                     aoa_rad=rng.uniform(-1.5, 1.5),
                     aod_rad=rng.uniform(-1.5, 1.5))
            rows, cols = rng.integers(1, 7, size=2)
            out = los_channel(g, rows, cols)
            np.testing.assert_allclose(np.abs(out), 1.0, atol=1e-12)
            s = np.linalg.svd(out, compute_uv=False)
            if min(rows, cols) > 1:
                assert s[1] <= 1e-10 * s[0]

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError, match="array size"):
            los_channel(geom(), 0, 2)


class TestRayleighChannel:
    def test_moments_over_million_draws(self):
        rng = np.random.default_rng(22)
        h = rayleigh_channel(1000, 1000, rng)
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, abs=0.01)
        assert abs(np.mean(h.real)) < 0.01
        assert abs(np.mean(h.imag)) < 0.01
        # Real and imaginary parts carry half the power each.
        assert np.mean(h.real ** 2) == pytest.approx(0.5, abs=0.01)

    def test_same_seed_is_deterministic(self):
        a = rayleigh_channel(8, 5, np.random.default_rng(23))
        b = rayleigh_channel(8, 5, np.random.default_rng(23))
        np.testing.assert_array_equal(a, b)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            rayleigh_channel(0, 3, np.random.default_rng(0))


class TestRicianMix:
    def setup_method(self):
        rng = np.random.default_rng(24)
        self.los = los_channel(geom(aoa_rad=0.4, aod_rad=0.7), 4, 3)
        self.nlos = rayleigh_channel(4, 3, rng)

    def test_kappa_zero_is_pure_scattering(self):
        np.testing.assert_array_equal(rician_mix(0.0, self.los, self.nlos),
                                      self.nlos)

    def test_kappa_huge_is_pure_los(self):
        out = rician_mix(1e12, self.los, self.nlos)
        assert np.max(np.abs(out - self.los)) < 1e-5

    def test_kappa_one_is_equal_weights(self):
        out = rician_mix(1.0, self.los, self.nlos)
        np.testing.assert_allclose(out, (self.los + self.nlos) / np.sqrt(2.0),
                                   rtol=1e-15)

    def test_per_entry_power_preserved(self):
        rng = np.random.default_rng(25)
        kappa = 4.0
        acc = 0.0
        draws = 400
        for _ in range(draws):
            nlos = rayleigh_channel(4, 3, rng)
            acc += np.mean(np.abs(rician_mix(kappa, self.los, nlos)) ** 2)
        assert acc / draws == pytest.approx(1.0, abs=0.05)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes"):
            rician_mix(1.0, self.los, self.nlos[:, :2])

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError, match="kappa"):
            rician_mix(-0.5, self.los, self.nlos)


class TestApplyPathLoss:
    def test_unit_reference(self):
        out = apply_path_loss(np.eye(2), 1.0, 1.0)
        np.testing.assert_array_equal(out, np.eye(2))

    def test_gain_four_distance_two(self):
        out = apply_path_loss(np.ones((2, 2)), 4.0, 2.0)
        np.testing.assert_array_equal(out, np.ones((2, 2)))

    def test_scale_factor_value(self):
        # alpha / d^2 = 2 / 1000^2.
        out = apply_path_loss(np.ones((3, 3)), 2.0, 1000.0)
        np.testing.assert_allclose(out, np.full((3, 3), 2e-6), rtol=1e-15)

    @pytest.mark.parametrize("gain,dist,key", [
        (0.0, 1.0, "ref_gain"), (-1.0, 1.0, "ref_gain"),
        (1.0, 0.0, "distance_m"), (1.0, -2.0, "distance_m"),
    ])
    def test_non_positive_rejected(self, gain, dist, key):
        with pytest.raises(ValueError, match=key):
            apply_path_loss(np.eye(2), gain, dist)

    def test_commutes_with_rician_mix(self):
        rng = np.random.default_rng(26)
        los = los_channel(geom(aoa_rad=0.9), 5, 4)
        nlos = rayleigh_channel(5, 4, rng)
        direct = apply_path_loss(rician_mix(3.0, los, nlos), 7.0, 321.0)
        mixed = rician_mix(3.0, apply_path_loss(los, 7.0, 321.0),
                           apply_path_loss(nlos, 7.0, 321.0))
        np.testing.assert_allclose(direct, mixed, rtol=1e-14)


class TestSynthLink:
    def link(self, kappa: float = 0.0, ref_gain: float = 1.0,
             distance_m: float = 1000.0, rows: int = 4, cols: int = 3
             ) -> RicianLink:
        return RicianLink(kappa=kappa, ref_gain=ref_gain, distance_m=distance_m,
                          rows=rows, cols=cols, geometry=geom(distance_m))

    def test_kappa_zero_unit_gain_is_rayleigh(self):
        link = self.link(kappa=0.0, ref_gain=1.0, distance_m=1.0)
        # Same stream consumed the same way gives the identical draw.
        out = synth_link(link, np.random.default_rng(27))
        ref = rayleigh_channel(4, 3, np.random.default_rng(27))
        np.testing.assert_array_equal(out, ref)

    def test_equals_explicit_composition(self):
        link = self.link(kappa=6.0, ref_gain=2.5, distance_m=750.0)
        out = synth_link(link, np.random.default_rng(28))
        rng = np.random.default_rng(28)
        los = los_channel(link.geometry, 4, 3)
        nlos = rayleigh_channel(4, 3, rng)
        ref = apply_path_loss(rician_mix(6.0, los, nlos), 2.5, 750.0)
        np.testing.assert_array_equal(out, ref)

    def test_fixed_seed_reproducible(self):
        link = self.link(kappa=2.0)
        a = synth_link(link, np.random.default_rng(29))
        b = synth_link(link, np.random.default_rng(29))
        np.testing.assert_array_equal(a, b)

    def test_mean_frobenius_power(self):
        # E ||H||_F^2 = (g/d^2)^2 * rows * cols for unit-power fading.
        link = self.link(kappa=5.0, ref_gain=3.0, distance_m=200.0)
        rng = np.random.default_rng(30)
        draws = 10000
        acc = 0.0
        for _ in range(draws):
            acc += np.sum(np.abs(synth_link(link, rng)) ** 2)
        expected = (3.0 / 200.0**2) ** 2 * 4 * 3
        assert acc / draws == pytest.approx(expected, rel=0.02)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="kappa"):
            self.link(kappa=-1.0)
        with pytest.raises(ValueError, match="ref_gain"):
            self.link(ref_gain=0.0)
        with pytest.raises(ValueError, match="distance_m"):
            RicianLink(kappa=1.0, ref_gain=1.0, distance_m=0.0, rows=2,
                       cols=2, geometry=geom())
