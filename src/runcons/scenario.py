"""Scenario files, and the one table of what each experiment kind reads.

A scenario file is flat text: `[section]` headers, `key = value` lines whose
values are scalars or comma-separated lists, and bare `i j` edge lines inside
`[topology]`.  `SCHEMA` holds one `Key` row per section and key: its type,
the experiment kinds that read it with each kind's default, the rule its
values obey (a range or the allowed names) and, in a section with a selector
(`model.family`, `topology.kind`), the selector's values that read it.
Everything else reads a scenario through `ScenarioFile.get`, which returns
the given value or the kind's default.

Checks run in two passes.  `parse` checks the file's own keys, with line
numbers: syntax, type, that the kind (and the section's selector) reads the
key, and the key's rule.  `apply_overrides` sets the `--set` values and then
`validate` checks the whole spec once: the same per-key checks, the required
keys, the trajectory measure's one design point, `detector.node` against the
network, and the topology's construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .analysis import CUSUM_FAMILIES
from .network import NetworkTopology, TopologyError, explicit_edges, full_ring, k_neighbor_ring


class ScenarioError(ValueError):
    """Raised for malformed or schema-violating scenario files."""


EXPERIMENT_KINDS = ("spectral", "bounds", "fss", "sequential", "change", "efficiency")
_SIMULATING = ("bounds", "fss", "sequential", "change")  # the kinds that run Monte Carlo
_NETWORKED = ("spectral", *_SIMULATING)  # the kinds that read [topology]
_DETECTING = ("fss", "sequential", "change")
_LOCATION = ("bounds", "fss", "sequential")  # the kinds that accept a location family
_MODELLED = (*_LOCATION, "change", "efficiency")


REQUIRED = object()  # the default of a key the kind must be given
SELECTORS = {"model": "family", "topology": "kind"}  # the key of a section whose value picks its other keys


@dataclass(frozen=True)
class Key:
    """One row of the table.

    `reads` maps each kind that reads the key to its default there: a value
    or REQUIRED.  `rule` is a (predicate, wording) pair that every value, and
    every item of a list, must pass; a {kind: pair} dict where the kinds
    differ.  Every float, and every item of a float list, must also be finite.
    `only` limits a key to the values of its section's selector that read it.
    """

    type: str
    reads: dict[str, object]
    rule: tuple | dict | None = None
    only: tuple[str, ...] | None = None


def _one_of(*names: str) -> tuple:
    return (lambda x: x in names, f"must be one of {', '.join(names)}")


_FINITE = (math.isfinite, "must be finite")
_COUNT = (lambda x: x >= 1, "must be >= 1")
_PAIR = (lambda x: x >= 2, "must be >= 2")  # bounds: 1 - rho compares two nodes, a covariance two trials
_NON_NEGATIVE = (lambda x: x >= 0, "must be >= 0")
_POSITIVE = (lambda x: x > 0.0, "must be positive")
_PROBABILITY = (lambda x: 0.0 < x < 1.0, "must be in (0, 1)")
_ERROR_PROBABILITY = (lambda x: 0.0 < x < 0.5, "must be in (0, 0.5)")
_LOCATION_FAMILIES = _one_of("gaussian", "gaussian_mixture")
_CHANGE_FAMILIES = _one_of("variance_change")
_TOPOLOGY_KINDS = _one_of("full_ring", "k_neighbor_ring", "explicit_edges")


SCHEMA: dict[str, dict[str, Key]] = {
    "experiment": {
        "kind": Key("str", dict.fromkeys(EXPERIMENT_KINDS, REQUIRED)),  # checked first: every other row depends on it
        "label": Key("str", {kind: kind for kind in _DETECTING}),  # the long table's scenario column
        "n_max": Key("int", {"bounds": 200}, _COUNT),
        "n_list": Key("int_list", {"fss": (100,)}, _COUNT),
        "v_list": Key("int_list", {"fss": (1,)}, _COUNT),  # fss's gossip counts: it reads no topology.v
        "gamma_scale": Key("float", {"fss": 1.0}),
        "include_new_sample": Key("bool", {"bounds": False}),
        "snr_db_list": Key("float_list", {"sequential": (-20.0,)}),
        "gamma_list": Key("float_list", {"change": REQUIRED}, _POSITIVE),
        "families": Key("str_list", {"change": ("centralized",)},
                        (lambda x: x in CUSUM_FAMILIES, f"must each name a CUSUM family: {', '.join(CUSUM_FAMILIES)}")),
        "measure": Key("str", {"sequential": "asn", "change": "both"},
                       {"sequential": _one_of("asn", "are", "trajectory"),
                        "change": _one_of("rate", "delay", "both")}),
        "rate_list": Key("float_list", {"efficiency": REQUIRED}, _POSITIVE),
        "m_list": Key("int_list", {"efficiency": REQUIRED}, _COUNT),
        "max_n_factor": Key("float", {"sequential": 100.0}, _POSITIVE),
        "include_sprt_baseline": Key("bool", {"sequential": False}),
    },
    "topology": {
        "kind": Key("str", dict.fromkeys(_NETWORKED, REQUIRED), _TOPOLOGY_KINDS),
        "m": Key("int", dict.fromkeys(_NETWORKED, REQUIRED),
                 {**dict.fromkeys(_NETWORKED, _COUNT), "bounds": _PAIR}),
        # k's range (even, 2 <= k < m) is checked by network.k_neighbor_ring
        "k": Key("int", dict.fromkeys(_NETWORKED, REQUIRED), None, ("k_neighbor_ring",)),
        "v": Key("int", {kind: 1 for kind in _SIMULATING if kind != "fss"}, _COUNT),
        "allow_disconnected": Key("bool", dict.fromkeys(_NETWORKED, False), None, ("explicit_edges",)),
    },
    "model": {
        "family": Key("str", dict.fromkeys(_MODELLED, REQUIRED), {
            "bounds": _one_of("gaussian", "gaussian_mixture", "variance_change"),
            "fss": _LOCATION_FAMILIES, "sequential": _LOCATION_FAMILIES,
            "change": _CHANGE_FAMILIES, "efficiency": _CHANGE_FAMILIES,
        }),
        "variance": Key("float", dict.fromkeys(_LOCATION, REQUIRED), _POSITIVE, ("gaussian",)),
        "weight": Key("float", dict.fromkeys(_LOCATION, REQUIRED), _PROBABILITY, ("gaussian_mixture",)),
        "variance1": Key("float", dict.fromkeys(_MODELLED, REQUIRED), _POSITIVE,
                         ("gaussian_mixture", "variance_change")),
        "variance2": Key("float", dict.fromkeys(_LOCATION, REQUIRED), _POSITIVE, ("gaussian_mixture",)),
        "variance0": Key("float", dict.fromkeys(("bounds", "change", "efficiency"), REQUIRED), _POSITIVE,
                         ("variance_change",)),
        "theta0": Key("float", dict.fromkeys(_LOCATION, 0.0), None, ("gaussian", "gaussian_mixture")),
        # bounds reads none: its covariance engine samples the raw null law; change and efficiency read the LLR
        "nonlinearity": Key("str", {"fss": "identity", "sequential": "identity"}, _one_of("identity", "score", "llr")),
    },
    "detector": {
        "kind": Key("str", {"fss": "fss", "sequential": "sequential", "change": "page"},
                    {"fss": _one_of("fss"), "sequential": _one_of("sequential"), "change": _one_of("page")}),
        "p_f": Key("float", {"fss": REQUIRED}, _PROBABILITY),
        "p_e_list": Key("float_list", {"sequential": REQUIRED}, _ERROR_PROBABILITY),
        "gamma_offset": Key("float", {"change": 0.0}),
        "node": Key("int", dict.fromkeys(_DETECTING, 0), _NON_NEGATIVE),  # and below topology.m: validate
    },
    "montecarlo": {
        "trials": Key("int", dict.fromkeys(_SIMULATING, 10000),
                      {**dict.fromkeys(_SIMULATING, _COUNT), "bounds": _PAIR}),
        "seed": Key("int", dict.fromkeys(_SIMULATING, 0), _NON_NEGATIVE),
        "threads": Key("int", dict.fromkeys(_SIMULATING, 1), _COUNT),
    },
    "output": {
        "path": Key("str", dict.fromkeys(EXPERIMENT_KINDS, REQUIRED)),
    },
}

@dataclass
class ScenarioFile:
    sections: dict[str, dict[str, object]] = field(default_factory=dict)
    edges: list[tuple[int, int]] = field(default_factory=list)

    @property
    def kind(self) -> str:
        return str(self.sections["experiment"]["kind"])

    def get(self, section: str, key: str):
        """The given value (an empty list counts as absent), else the kind's default; None if it has none."""
        value = self.sections.get(section, {}).get(key)
        if value is None or value == []:
            value = SCHEMA[section][key].reads.get(self.kind)
        return None if value is REQUIRED else value


def _parse_value(raw: str, type_tag: str, where: str):
    raw = raw.strip()
    try:
        if type_tag == "int":
            return int(raw)
        if type_tag == "float":
            return float(raw)
        if type_tag == "bool":
            if raw.lower() in ("true", "yes", "1"):
                return True
            if raw.lower() in ("false", "no", "0"):
                return False
            raise ValueError(raw)
        if type_tag == "str":
            return raw
        items = [item.strip() for item in raw.split(",") if item.strip()]
        if type_tag == "int_list":
            return [int(item) for item in items]
        if type_tag == "float_list":
            return [float(item) for item in items]
        return items  # str_list
    except ValueError:
        raise ScenarioError(f"{where}: cannot parse '{raw}' as {type_tag}") from None


def parse(text: str) -> ScenarioFile:
    scenario = ScenarioFile()
    lines: dict[str, int] = {}  # section.key -> its line, for the checks' messages
    current: str | None = None
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in SCHEMA:
                raise ScenarioError(f"line {line_no}: unknown section [{name}]")
            if name in scenario.sections:
                raise ScenarioError(f"line {line_no}: duplicate section [{name}]")
            scenario.sections[name] = {}
            current = name
            continue
        if current is None:
            raise ScenarioError(f"line {line_no}: content before any [section] header")
        if "=" in line:
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in SCHEMA[current]:
                raise ScenarioError(f"line {line_no}: unknown key '{key}' in section [{current}]")
            if key in scenario.sections[current]:
                raise ScenarioError(f"line {line_no}: duplicate key '{key}' in section [{current}]")
            scenario.sections[current][key] = _parse_value(value, SCHEMA[current][key].type, f"line {line_no}")
            lines[f"{current}.{key}"] = line_no
            continue
        if current == "topology":
            parts = line.split()
            if len(parts) == 2:
                try:
                    scenario.edges.append((int(parts[0]), int(parts[1])))
                    continue
                except ValueError:
                    pass
        raise ScenarioError(f"line {line_no}: cannot parse '{raw_line.strip()}'")
    _check_given(scenario, lines)
    return scenario


def _check_given(scenario: ScenarioFile, lines: dict[str, int]) -> None:
    """Every given key is read by the kind and the section's selector, and passes its rule."""
    kind = scenario.sections.get("experiment", {}).get("kind")
    if kind not in EXPERIMENT_KINDS:
        raise ScenarioError(f"experiment.kind must be one of {', '.join(EXPERIMENT_KINDS)}, got {kind!r}")
    for section, rows in SCHEMA.items():
        given = scenario.sections.get(section, {})
        selected = given.get(SELECTORS.get(section))
        for key, row in rows.items():
            if key not in given:
                continue
            dotted = f"{section}.{key}"
            where = f"line {lines[dotted]}: " if dotted in lines else ""
            if kind not in row.reads:
                raise ScenarioError(f"{where}{dotted} is not read by {kind} experiments")
            if selected is not None and row.only is not None and selected not in row.only:
                raise ScenarioError(f"{where}{dotted} is not read by {section}.{SELECTORS[section]} {selected!r}")
            rule = row.rule.get(kind) if isinstance(row.rule, dict) else row.rule
            rules = [_FINITE] if row.type in ("float", "float_list") else []
            if rule is not None:
                rules.append(rule)
            value = given[key]
            for item in value if isinstance(value, list) else [value]:
                for holds, wording in rules:
                    if not holds(item):
                        shown = repr(item) if isinstance(item, str) else format(item, "g")
                        raise ScenarioError(f"{where}{dotted} {wording}, got {shown}")
    if scenario.edges and scenario.sections.get("topology", {}).get("kind") != "explicit_edges":
        raise ScenarioError("edge lines are only valid for topology kind 'explicit_edges'")


def validate(scenario: ScenarioFile) -> None:
    """The whole spec: the given keys, the required ones, the trajectory's one design point, the network, its node."""
    _check_given(scenario, {})
    for section, rows in SCHEMA.items():
        selected = scenario.sections.get(section, {}).get(SELECTORS.get(section))
        for key, row in rows.items():
            if (row.reads.get(scenario.kind) is REQUIRED and scenario.get(section, key) is None
                    and (row.only is None or selected in row.only)):
                raise ScenarioError(f"missing required key '{key}' in section [{section}]")
    if scenario.get("experiment", "measure") == "trajectory":  # one path at one design point
        for section, key in (("detector", "p_e_list"), ("experiment", "snr_db_list")):
            count = len(scenario.get(section, key))
            if count > 1:
                raise ScenarioError(f"{section}.{key} takes one entry with measure 'trajectory', got {count}")
        if scenario.get("experiment", "include_sprt_baseline"):
            raise ScenarioError("experiment.include_sprt_baseline does not apply to measure 'trajectory'")
    if scenario.kind not in _NETWORKED:
        return
    M = topology_from_scenario(scenario).M
    node = scenario.get("detector", "node")
    if node is not None and node >= M:
        raise ScenarioError(f"detector.node must be in 0..{M - 1}, got {node}")


def load(path) -> ScenarioFile:
    with open(path, "r", encoding="utf-8") as handle:
        return parse(handle.read())


def apply_override(scenario: ScenarioFile, dotted_key: str, value: str) -> None:
    """Set one `section.key` from its text, parsed by the key's type; `validate` checks the result."""
    section, _, key = dotted_key.partition(".")
    if section not in SCHEMA or key not in SCHEMA[section]:
        raise ScenarioError(f"unknown override target '{dotted_key}'")
    parsed = _parse_value(value, SCHEMA[section][key].type, f"--set {dotted_key}")
    scenario.sections.setdefault(section, {})[key] = parsed


def apply_overrides(scenario: ScenarioFile, items: list[tuple[str, str]]) -> None:
    """Set every (section.key, text) in turn, then validate the whole spec once.

    An overridden selector (model.family, topology.kind) drops the file's keys
    of its section that the new value does not read, so a switch and its
    parameters may come in any order.
    """
    targets = {dotted for dotted, _ in items}
    for dotted, value in items:
        apply_override(scenario, dotted, value)
    for section, selector in SELECTORS.items():
        if f"{section}.{selector}" in targets:
            given = scenario.sections[section]
            for key in [key for key in given if f"{section}.{key}" not in targets]:
                only = SCHEMA[section][key].only
                if only is not None and given[selector] not in only:
                    del given[key]
    validate(scenario)


def topology_from_scenario(scenario: ScenarioFile) -> NetworkTopology:
    """The network that topology.kind names, from the keys that kind reads."""
    kind, M = scenario.get("topology", "kind"), scenario.get("topology", "m")
    if kind == "full_ring":
        return full_ring(M)
    if kind == "k_neighbor_ring":
        return k_neighbor_ring(M, scenario.get("topology", "k"))
    if not scenario.edges:
        raise TopologyError("explicit_edges requires an edge list")
    return explicit_edges(M, scenario.edges, scenario.get("topology", "allow_disconnected"))
