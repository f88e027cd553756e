from hapsim.network import min_hap_separation


class TestMinHapSeparation:
    def test_reference_spacing(self):
        # 18 km link at 6.25 mm wavelength with 0.1 m ground spacing.
        assert min_hap_separation(18000.0, 0.00625, 1.0, 0.1) == 1125.0

    def test_unit_inputs(self):
        assert min_hap_separation(1.0, 1.0, 1.0, 1.0) == 1.0
