import dataclasses
import math
import re
from pathlib import Path

import pytest
import yaml

from hapsim.network import NetworkConfig, ScenarioLayout
from hapsim.scenario import (
    DEFAULTS,
    Scenario,
    ScenarioError,
    _Loader,
    dump_scenario,
    effective_mapping,
    load_scenario,
    scenario_from_mapping,
)
from hapsim.simulator import SweepSpec

REPO = Path(__file__).resolve().parent.parent


class TestDefaults:
    def test_empty_mapping_uses_defaults(self):
        s = scenario_from_mapping({})
        assert s.network.num_haps == 3
        assert s.network.relay_antennas == 4
        assert s.network.kappa_up_db == (30.0, 30.0, 30.0)
        assert s.network.kappa_down_db == (15.0, 15.0, 15.0)
        assert s.network.layout.relay_altitude_m == 17000.0
        assert s.sweep.variable == "snr_db"
        assert s.sweep.num_points == 13
        assert s.sweep.trials == 1000
        assert s.include_baseline is True
        assert s.spacing_dof_beta == 1.0

    def test_none_document_means_empty(self):
        assert scenario_from_mapping(None) == scenario_from_mapping({})

    def test_defaults_cover_every_key(self):
        resolved = effective_mapping(scenario_from_mapping({}))
        assert set(resolved) == set(DEFAULTS)


class TestDefaultsDrift:
    """DEFAULTS, the README scenario table and the dataclass defaults agree."""

    def test_every_key_in_readme_table(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        documented = set()
        for line in readme.splitlines():
            if line.startswith("| `"):
                documented.update(re.findall(r"`(\w+)`", line.split("|")[1]))
        assert set(DEFAULTS) <= documented, set(DEFAULTS) - documented

    @pytest.mark.parametrize("cls", [NetworkConfig, ScenarioLayout, SweepSpec])
    def test_dataclass_defaults_match(self, cls):
        for field in dataclasses.fields(cls):
            if field.default is dataclasses.MISSING:
                continue
            for key in (field.name, f"sweep_{field.name}"):
                if key in DEFAULTS:
                    assert field.default == DEFAULTS[key], field.name


class TestValidation:
    def test_unknown_keys_listed_sorted(self):
        with pytest.raises(ScenarioError, match="unknown scenario keys: bar, foo"):
            scenario_from_mapping({"foo": 1, "bar": 2})

    def test_non_mapping_rejected(self):
        with pytest.raises(ScenarioError, match="key-value mapping"):
            scenario_from_mapping([1, 2, 3])

    @pytest.mark.parametrize("key,value,msg", [
        ("num_haps", "three", "num_haps must be an integer"),
        ("num_haps", 2.5, "num_haps must be an integer"),
        ("hap_power", True, "hap_power must be a number"),
        ("all_streams", "yes", "all_streams must be true or false"),
        ("snr_reference", 3, "snr_reference must be a string"),
        ("kappa_up_db", [10.0, "x"], "kappa_up_db entries must be numbers"),
        ("kappa_down_db", None, "kappa_down_db must be a number or a per-link"),
        pytest.param("hap_power", 10**400, "^hap_power is out of float64 range$",
                     id="hap_power-401-digits"),
    ])
    def test_bad_types_name_the_key(self, key, value, msg):
        with pytest.raises(ScenarioError, match=msg):
            scenario_from_mapping({key: value})

    def test_network_errors_become_scenario_errors(self):
        with pytest.raises(ScenarioError, match="kappa_up_db"):
            scenario_from_mapping({"kappa_up_db": [10.0, 20.0]})

    def test_sweep_errors_are_prefixed(self):
        with pytest.raises(ScenarioError, match="sweep: step must be positive"):
            scenario_from_mapping({"sweep_step": -1.0})

    def test_layout_ordering_enforced(self):
        with pytest.raises(ScenarioError, match="relay"):
            scenario_from_mapping({"relay_altitude_m": 19000.0})

    @pytest.mark.parametrize("beta", [-1.0, 0.0, math.inf, math.nan])
    def test_spacing_dof_beta_positive_and_finite(self, beta):
        with pytest.raises(ScenarioError, match="^spacing_dof_beta must be"):
            scenario_from_mapping({"spacing_dof_beta": beta})


class TestPerLinkValues:
    def test_lists_become_tuples(self):
        s = scenario_from_mapping({"kappa_up_db": [10, 20, 30],
                                   "ref_gain_down": [1.0, 2.0, 3.0]})
        assert s.network.kappa_up_db == (10.0, 20.0, 30.0)
        assert s.network.ref_gain_down == (1.0, 2.0, 3.0)

    def test_null_relay_antennas_resolved(self):
        s = scenario_from_mapping({"relay_antennas": None,
                                   "num_haps": 2, "num_gs": 3})
        assert s.network.relay_antennas == 2
        assert effective_mapping(s)["relay_antennas"] == 2

    def test_null_spacing_resolved_to_half_wavelength(self):
        s = scenario_from_mapping({"wavelength_m": 0.01})
        assert effective_mapping(s)["rx_spacing_m"] == 0.005


class TestOverrides:
    @pytest.fixture
    def empty(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("", encoding="utf-8")
        return str(path)

    def test_overrides_replace_sweep_fields(self, empty):
        s = load_scenario(empty)
        t = load_scenario(empty, trials=77, master_seed=42)
        assert t.sweep.trials == 77
        assert t.sweep.master_seed == 42
        assert s.sweep.trials == 1000
        assert t.network == s.network

    def test_no_overrides_is_noop(self, empty):
        assert load_scenario(empty, trials=None, master_seed=None) == \
            scenario_from_mapping({})

    def test_bad_override_rejected(self, empty):
        with pytest.raises(ScenarioError,
                           match=r"^sweep: trials must be in \[1, 2\*\*32\]"):
            load_scenario(empty, trials=0)

    @pytest.mark.parametrize("text,message", [
        ("- 1\n", "scenario document must be a key-value mapping"),
        ("bogus: 1\n", "unknown scenario keys: bogus")])
    def test_document_checked_before_overrides(self, tmp_path, text, message):
        path = tmp_path / "scenario.yaml"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ScenarioError, match=f"^{message}$"):
            load_scenario(str(path), trials=0, master_seed=-1)


class TestRoundTrip:
    MAPPING = {
        "num_haps": 2, "num_gs": 3, "antennas_per_node": 2,
        "kappa_up_db": [12.0, 18.0], "ref_gain_up": 2.89e8,
        "relay_altitude_m": 9000.0, "sweep_stop": 20.0, "trials": 50,
        "all_streams": True, "snr_reference": "post_path_loss",
    }

    def test_dump_then_reload_is_identical(self, tmp_path):
        original = scenario_from_mapping(self.MAPPING)
        path = tmp_path / "roundtrip.yaml"
        path.write_text(dump_scenario(original), encoding="utf-8")
        assert load_scenario(str(path)) == original

    def test_effective_mapping_reparses_to_same_scenario(self):
        original = scenario_from_mapping(self.MAPPING)
        assert scenario_from_mapping(effective_mapping(original)) == original


class TestLoading:
    def test_yaml_file(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text("num_haps: 2\nnum_gs: 2\ntrials: 10\n",
                        encoding="utf-8")
        s = load_scenario(str(path))
        assert s.network.num_haps == 2
        assert s.sweep.trials == 10

    def test_invalid_yaml_reported(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("num_haps: [unclosed\n", encoding="utf-8")
        with pytest.raises(ScenarioError, match="invalid YAML"):
            load_scenario(str(path))

    def test_invalid_yaml_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("num_haps: 2\nnum_gs: [unclosed\n", encoding="utf-8")
        with pytest.raises(ScenarioError) as err:
            load_scenario(str(path))
        assert str(err.value).startswith(f"invalid YAML in {path}: ")
        assert f'in "{path}", line 2' in str(err.value)

    def test_repeated_key_rejected(self, tmp_path):
        # PyYAML alone keeps the last value of a repeated key.
        path = tmp_path / "twice.yaml"
        path.write_text("trials: 50\nnum_haps: 2\ntrials: 7\n",
                        encoding="utf-8")
        with pytest.raises(ScenarioError) as err:
            load_scenario(str(path))
        assert str(err.value) == (f"invalid YAML in {path}: found duplicate "
                                  f"key 'trials'\n  in \"{path}\", line 3, "
                                  "column 1")

    def test_repeated_per_link_key_rejected(self, tmp_path):
        path = tmp_path / "twice.yaml"
        path.write_text("kappa_up_db: [30.0, 20.0, 10.0]\n"
                        "kappa_up_db: [5.0, 5.0, 5.0]\n", encoding="utf-8")
        with pytest.raises(ScenarioError) as err:
            load_scenario(str(path))
        assert str(err.value) == (f"invalid YAML in {path}: found duplicate "
                                  f"key 'kappa_up_db'\n  in \"{path}\", "
                                  "line 2, column 1")

    @pytest.mark.parametrize("text,trials", [
        ("<<: {trials: 7}\n", 7),
        ("<<: {trials: 7}\ntrials: 9\n", 9),
        ("trials: 9\n<<: {trials: 7}\n", 9),
    ], ids=["merged", "explicit-after", "explicit-before"])
    def test_merged_keys_are_not_repeats(self, tmp_path, text, trials):
        # A key written out beside a merge key overrides the merged one.
        path = tmp_path / "merged.yaml"
        path.write_text(text, encoding="utf-8")
        assert load_scenario(str(path)).sweep.trials == trials

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_scenario(str(tmp_path / "nope.yaml"))

    def test_scenario_error_is_value_error(self):
        assert issubclass(ScenarioError, ValueError)
        assert isinstance(ScenarioError("x"), ValueError)


class TestExponentFloats:
    """A float with an exponent but no dot or no exponent sign is a number,
    as in YAML 1.2 and Python; YAML 1.1's resolver alone reads a string."""

    @staticmethod
    def load(tmp_path, text: str) -> Scenario:
        path = tmp_path / "scenario.yaml"
        path.write_text(text, encoding="utf-8")
        return load_scenario(str(path))

    @pytest.mark.parametrize("key,text,value", [
        ("ref_gain_up", "8.1e7", 8.1e7),
        ("ref_gain_up", "1.0e8", 1.0e8),
        ("noise_power", "1e-3", 1e-3),
        ("ref_gain_up", "1E+8", 1e8),
        ("sweep_start", "-2e5", -2e5),
    ])
    def test_spelling_reads_as_a_float(self, tmp_path, key, text, value):
        mapping = effective_mapping(self.load(tmp_path, f"{key}: {text}\n"))
        assert mapping[key] in (value, [value] * 3)

    def test_per_link_list(self, tmp_path):
        s = self.load(tmp_path, "ref_gain_down: [6e7, 8.1e7, 1e8]\n")
        assert s.network.ref_gain_down == (6e7, 8.1e7, 1e8)

    def test_quoted_value_stays_a_string(self, tmp_path):
        with pytest.raises(ScenarioError, match="^ref_gain_up must be a number "
                           "or a per-link list, got '8.1e7'$"):
            self.load(tmp_path, "ref_gain_up: '8.1e7'\n")

    def test_exponent_count_rejected(self, tmp_path):
        with pytest.raises(ScenarioError,
                           match="^sweep: trials must be an integer"):
            self.load(tmp_path, "trials: 1e3\n")

    def test_dump_config_round_trip(self, tmp_path):
        # dump_scenario is the text --dump-config prints.
        s = self.load(tmp_path, "ref_gain_up: 8.1e7\nnoise_power: 1e-3\n"
                                "hap_power: 1E+8\n")
        text = dump_scenario(s)
        assert yaml.safe_load(text)["ref_gain_up"] == [8.1e7] * 3
        assert self.load(tmp_path, text) == s


class TestShippedScenarios:
    SCENARIO_DIR = REPO / "scenarios"

    def test_every_shipped_file_loads(self):
        paths = sorted(self.SCENARIO_DIR.glob("*.yaml"))
        assert len(paths) >= 3
        for path in paths:
            scenario = load_scenario(str(path))
            assert scenario.sweep.trials >= 1

    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"),
                        reason="PyYAML built without libyaml")
    def test_libyaml_reads_the_python_parsers_mapping(self):
        # load_scenario parses with libyaml where PyYAML has it; every
        # shipped file must give the pure-Python parser's keys, values and
        # value types, with load_scenario's resolvers on both.
        python_loader = type("PythonLoader", (yaml.SafeLoader,), {
            "yaml_implicit_resolvers": _Loader.yaml_implicit_resolvers})
        paths = sorted(self.SCENARIO_DIR.glob("*.yaml"))
        assert len(paths) >= 3
        for path in paths:
            text = path.read_text(encoding="utf-8")
            pure = yaml.load(text, Loader=python_loader)
            fast = yaml.load(text, Loader=_Loader)
            assert fast == pure, path.name
            assert {k: type(v) for k, v in fast.items()} == (
                {k: type(v) for k, v in pure.items()}), path.name
            assert load_scenario(str(path)) == scenario_from_mapping(pure)


class TestScenarioEquality:
    def test_distinct_seeds_differ(self):
        a = scenario_from_mapping({"master_seed": 1})
        b = scenario_from_mapping({"master_seed": 2})
        assert a != b
        assert isinstance(a, Scenario)
