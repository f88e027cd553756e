"""Scenario files: flat YAML key-value documents.

Every physical quantity carries its unit in the key name.  The key table
_SCHEMA lists each key once; DEFAULTS, the parsing in scenario_from_mapping()
and effective_mapping() all derive from it.  Unknown keys are rejected,
missing keys take their defaults, and validation failures name the key.
effective_mapping() resolves every default (and every derived value such as
the relay antenna count), so a dumped scenario re-parses identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import yaml

from .network import NetworkConfig, ScenarioLayout
from .simulator import SweepSpec


class ScenarioError(ValueError):
    """Scenario file failed to parse or validate."""


@dataclass(frozen=True)
class Scenario:
    """Validated scenario: network description plus sweep definition."""

    network: NetworkConfig
    sweep: SweepSpec
    include_baseline: bool
    spacing_dof_beta: float

    def __post_init__(self) -> None:
        if not 0.0 < self.spacing_dof_beta < math.inf:
            raise ValueError("spacing_dof_beta must be positive and finite, "
                             f"got {self.spacing_dof_beta!r}")

    def with_overrides(self, trials: int | None = None,
                       master_seed: int | None = None) -> "Scenario":
        sweep = self.sweep
        if trials is not None:
            sweep = replace(sweep, trials=trials)
        if master_seed is not None:
            sweep = replace(sweep, master_seed=master_seed)
        return replace(self, sweep=sweep)


def _number(key: str, v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ScenarioError(f"{key} must be a number, got {v!r}")
    return float(v)


def _integer(key: str, v) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ScenarioError(f"{key} must be an integer, got {v!r}")
    return v


def _optional(parse):
    return lambda key, v: None if v is None else parse(key, v)


def _boolean(key: str, v) -> bool:
    if not isinstance(v, bool):
        raise ScenarioError(f"{key} must be true or false, got {v!r}")
    return v


def _text(key: str, v) -> str:
    if not isinstance(v, str):
        raise ScenarioError(f"{key} must be a string, got {v!r}")
    return v


def _per_link(key: str, v):
    """Scalar or list of numbers; broadcasting happens in NetworkConfig."""
    if isinstance(v, (list, tuple)):
        out = []
        for item in v:
            if isinstance(item, bool) or not isinstance(item, (int, float)):
                raise ScenarioError(f"{key} entries must be numbers, got {item!r}")
            out.append(float(item))
        return tuple(out)
    return _optional(_number)(key, v)


# The schema: every scenario key as (key, default, parser), grouped by the
# object it configures and in the order the objects are built and the keys
# checked.  A key names its object's field, with a sweep_ prefix on the
# SweepSpec fields; a null default is resolved by that object.
_SCHEMA = {
    ScenarioLayout: (
        ("hap_altitude_m", 18000.0, _number),
        ("relay_altitude_m", 17000.0, _number),
        ("hap_spacing_m", 1125.0, _number),
        ("gs_spacing_m", 0.1, _number),
        ("gs_altitude_m", 0.0, _number),
    ),
    NetworkConfig: (
        ("num_haps", 3, _integer),
        ("num_gs", 3, _integer),
        ("antennas_per_node", 4, _integer),
        ("relay_antennas", None, _optional(_integer)),
        ("hap_power", 1.0, _number),
        ("relay_power", 1.0, _number),
        ("noise_power", 1.0, _number),
        ("streams_per_tx", None, _optional(_integer)),
        ("kappa_up_db", 30.0, _per_link),
        ("kappa_down_db", 15.0, _per_link),
        ("kappa_direct_db", None, _per_link),
        ("ref_gain_up", 1.0, _per_link),
        ("ref_gain_down", 1.0, _per_link),
        ("ref_gain_direct", None, _per_link),
        ("wavelength_m", 0.00625, _number),
        ("rx_spacing_m", None, _optional(_number)),
        ("tx_spacing_m", None, _optional(_number)),
        ("aoa_deg", 30.0, _number),
        ("aod_deg", 30.0, _number),
        ("all_streams", False, _boolean),
        ("snr_reference", "pre_path_loss", _text),
    ),
    SweepSpec: (
        ("sweep_variable", "snr_db", _text),
        ("sweep_start", 0.0, _number),
        ("sweep_stop", 30.0, _number),
        ("sweep_step", 2.5, _number),
        ("trials", 1000, _integer),
        ("master_seed", 12345, _integer),
    ),
    Scenario: (
        ("include_baseline", True, _boolean),
        ("spacing_dof_beta", 1.0, _number),
    ),
}

DEFAULTS: dict = {key: default for keys in _SCHEMA.values()
                  for key, default, _ in keys}


def _field(key: str) -> str:
    return key.removeprefix("sweep_")


def scenario_from_mapping(mapping: dict) -> Scenario:
    """Validate a parsed document and build the Scenario it describes."""
    if mapping is None:
        mapping = {}
    if not isinstance(mapping, dict):
        raise ScenarioError("scenario document must be a key-value mapping")
    unknown = sorted(set(mapping) - set(DEFAULTS))
    if unknown:
        raise ScenarioError(f"unknown scenario keys: {', '.join(unknown)}")
    values = {**DEFAULTS, **mapping}

    def build(cls, prefix: str = "", **parts):
        try:
            return cls(**parts, **{_field(key): parse(key, values[key])
                                   for key, _, parse in _SCHEMA[cls]})
        except ScenarioError:
            raise
        except ValueError as exc:
            raise ScenarioError(f"{prefix}{exc}") from exc

    network = build(NetworkConfig, layout=build(ScenarioLayout))
    return build(Scenario, network=network, sweep=build(SweepSpec, "sweep: "))


def load_scenario(path: str) -> Scenario:
    """Read and validate a scenario YAML file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            # libyaml's parser where PyYAML has it; the Python resolver and
            # constructors still type every value.
            document = yaml.load(
                fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
        except yaml.YAMLError as exc:
            raise ScenarioError(f"invalid YAML in {path}: {exc}") from exc
    return scenario_from_mapping(document)


def effective_mapping(scenario: Scenario) -> dict:
    """Fully resolved key-value view; every default and derivation applied."""
    objects = {ScenarioLayout: scenario.network.layout,
               NetworkConfig: scenario.network,
               SweepSpec: scenario.sweep, Scenario: scenario}
    out = {key: getattr(objects[cls], _field(key))
           for cls, keys in _SCHEMA.items() for key, _, _ in keys}
    return {k: list(v) if isinstance(v, tuple) else v for k, v in out.items()}


def dump_scenario(scenario: Scenario) -> str:
    """YAML text of the effective configuration, keys sorted."""
    return yaml.safe_dump(effective_mapping(scenario), sort_keys=True,
                          default_flow_style=False)
