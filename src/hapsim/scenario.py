"""Scenario files: flat YAML key-value documents.

Every physical quantity carries its unit in the key name.  The key table
_SCHEMA lists each key once with its default; DEFAULTS, the mapping in
scenario_from_mapping() and effective_mapping() all derive from it.  Unknown
keys are rejected and missing keys take their defaults.  Each value goes
unchanged to the object it configures, which checks its type and range the
same way for a file as for a library caller, and every failure names the
key (a SweepSpec failure names its field after a "sweep: " prefix).
effective_mapping() resolves every default (and every derived value such as
the relay antenna count), so a dumped scenario re-parses identically.
"""

from __future__ import annotations

import re
from dataclasses import MISSING, dataclass, fields

import yaml

from .network import NetworkConfig, ScenarioLayout, _flag, _require_positive
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
        object.__setattr__(self, "include_baseline",
                           _flag("include_baseline", self.include_baseline))
        object.__setattr__(self, "spacing_dof_beta", _require_positive(
            "spacing_dof_beta", self.spacing_dof_beta))


# The schema: every scenario key with its default, grouped by the object
# it configures and in the order the objects are built.  A key names its
# object's field, with a sweep_ prefix on the SweepSpec fields; that object
# checks the value's type and range, and resolves a null default.  Only
# the defaults that no dataclass holds are written here; every field that
# has a default is a key with that default.
_SCHEMA = {
    cls: {**keys, **{f.name: f.default for f in fields(cls)
                     if f.default is not MISSING}}
    for cls, keys in {
        ScenarioLayout: {"hap_altitude_m": 18000.0, "relay_altitude_m": 17000.0},
        NetworkConfig: {"num_haps": 3, "num_gs": 3, "antennas_per_node": 4},
        SweepSpec: {"sweep_variable": "snr_db", "sweep_start": 0.0,
                    "sweep_stop": 30.0, "sweep_step": 2.5},
        Scenario: {"include_baseline": True, "spacing_dof_beta": 1.0},
    }.items()
}

DEFAULTS: dict = {key: default for keys in _SCHEMA.values()
                  for key, default in keys.items()}


def _field(key: str) -> str:
    return key.removeprefix("sweep_")


def _keys(document) -> dict:
    """The document's mapping, {} for none; ScenarioError for another
    kind of document or an unknown key."""
    if document is None:
        return {}
    if not isinstance(document, dict):
        raise ScenarioError("scenario document must be a key-value mapping")
    unknown = sorted(set(document) - set(DEFAULTS))
    if unknown:
        raise ScenarioError(f"unknown scenario keys: {', '.join(unknown)}")
    return document


def scenario_from_mapping(mapping: dict) -> Scenario:
    """Validate a parsed document and build the Scenario it describes."""
    values = {**DEFAULTS, **_keys(mapping)}

    def build(cls, prefix: str = "", **parts):
        try:
            return cls(**parts, **{_field(key): values[key]
                                   for key in _SCHEMA[cls]})
        except ValueError as exc:
            raise ScenarioError(f"{prefix}{exc}") from exc

    network = build(NetworkConfig, layout=build(ScenarioLayout))
    return build(Scenario, network=network, sweep=build(SweepSpec, "sweep: "))


class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """libyaml's parser where PyYAML has it; the Python resolver and
    constructors still type every value."""

    def construct_yaml_int(self, node):
        """The int, or a ConstructorError at the node for one with more
        digits than Python converts."""
        try:
            return super().construct_yaml_int(node)
        except ValueError:
            raise yaml.constructor.ConstructorError(
                None, None, "integer has too many digits", node.start_mark
            ) from None

    def construct_mapping(self, node, deep=False):
        """The mapping, or a ConstructorError at the second mark of a key
        given twice, where PyYAML would keep the last value.  Merged keys
        are not checked, and an unhashable key is left to the parent."""
        seen = []
        pairs = node.value if isinstance(node, yaml.MappingNode) else ()
        for key_node, _ in pairs:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue
            key = self.construct_object(key_node, deep=deep)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    None, None, f"found duplicate key {key!r}",
                    key_node.start_mark)
            seen.append(key)
        return super().construct_mapping(node, deep=deep)


_Loader.add_constructor("tag:yaml.org,2002:int", _Loader.construct_yaml_int)
# YAML 1.1 reads a float only with a dot and a signed exponent, so 8.1e7 and
# 1e-3 would be strings; YAML 1.2 and Python read them as floats.
_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9][0-9_]*(?:\.[0-9_]*)?)"
               r"[eE][-+]?[0-9]+$"),
    list("-+.0123456789"))


def load_scenario(path: str, *, trials: int | None = None,
                  master_seed: int | None = None) -> Scenario:
    """Read and validate a scenario YAML file; trials and master_seed, where
    not None, replace the file's values before any value is checked."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            document = yaml.load(fh, Loader=_Loader)
        except yaml.YAMLError as exc:
            raise ScenarioError(f"invalid YAML in {path}: {exc}") from exc
    overrides = {"trials": trials, "master_seed": master_seed}
    return scenario_from_mapping({**_keys(document), **{
        key: value for key, value in overrides.items() if value is not None}})


def effective_mapping(scenario: Scenario) -> dict:
    """Fully resolved key-value view; every default and derivation applied."""
    objects = {ScenarioLayout: scenario.network.layout,
               NetworkConfig: scenario.network,
               SweepSpec: scenario.sweep, Scenario: scenario}
    out = {key: getattr(objects[cls], _field(key))
           for cls, keys in _SCHEMA.items() for key in keys}
    return {k: list(v) if isinstance(v, tuple) else v for k, v in out.items()}


def dump_scenario(scenario: Scenario) -> str:
    """YAML text of the effective configuration, keys sorted."""
    return yaml.safe_dump(effective_mapping(scenario), sort_keys=True,
                          default_flow_style=False)
