"""Scenario files, and the one table of what each experiment kind reads.

A scenario file is flat text: `[section]` headers, `key = value` lines whose
values are scalars or comma-separated lists, and bare `i j` edge lines inside
`[topology]`.  `SCHEMA` holds one `Key` row per section and key: its type,
the experiment kinds that read it with each kind's default, the rule its
values obey (a range or the allowed names) and, in `[model]`, the families
that read it.  Everything else reads a scenario through `ScenarioFile.get`,
which returns the given value or the kind's default.

Checks run in two passes.  `parse` checks the file's own keys, with line
numbers: syntax, type, that the kind (and in `[model]` the family) reads the
key, and the key's rule.  `apply_overrides` sets the `--set` values and then
`validate` checks the whole spec once: the same per-key checks, the required
keys, `detector.node` against the network, and the topology's construction.
Serialization is canonical, so parse -> serialize -> parse is the identity on
normalized content.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .analysis import CUSUM_FAMILIES
from .network import NetworkTopology, build_topology


class ScenarioError(ValueError):
    """Raised for malformed or schema-violating scenario files."""


EXPERIMENT_KINDS = ("spectral", "bounds", "fss", "sequential", "change", "efficiency")
_SIMULATING = ("bounds", "fss", "sequential", "change")  # the kinds that run Monte Carlo
_DETECTING = ("fss", "sequential", "change")
_LOCATION = ("bounds", "fss", "sequential")  # the kinds that accept a location family
_MODELLED = (*_LOCATION, "change", "efficiency")


@dataclass(frozen=True)
class Required:
    """The default of a key the kind must be given, unless the `unless` key of its section is."""

    unless: str | None = None


REQUIRED = Required()


@dataclass(frozen=True)
class Key:
    """One row of the table.

    `reads` maps each kind that reads the key to its default there: a value,
    REQUIRED, or None where an absent key means "not given" (the runner then
    falls back on another key).  `rule` is a (predicate, wording) pair that
    every value, and every item of a list, must pass; a {kind: pair} dict
    where the kinds differ.  `families` limits a [model] key to the model
    families that read it.
    """

    type: str
    reads: dict[str, object]
    rule: tuple | dict | None = None
    families: tuple[str, ...] | None = None


def _one_of(*names: str) -> tuple:
    return (lambda x: x in names, f"must be one of {', '.join(names)}")


_COUNT = (lambda x: x >= 1, "must be >= 1")
_PAIR = (lambda x: x >= 2, "must be >= 2")  # bounds: 1 - rho compares two nodes, a covariance two trials
_NON_NEGATIVE = (lambda x: x >= 0, "must be >= 0")
_POSITIVE = (lambda x: x > 0.0, "must be positive")
_PROBABILITY = (lambda x: 0.0 < x < 1.0, "must be in (0, 1)")
_ERROR_PROBABILITY = (lambda x: 0.0 < x < 0.5, "must be in (0, 0.5)")
_LOCATION_FAMILIES = _one_of("gaussian", "gaussian_mixture")
_CHANGE_FAMILIES = _one_of("variance_change")
_STATISTICS = _one_of("identity", "score", "llr")
_LLR = _one_of("llr")  # the statistic the CUSUM reads


SCHEMA: dict[str, dict[str, Key]] = {
    "experiment": {
        "kind": Key("str", dict.fromkeys(EXPERIMENT_KINDS, REQUIRED)),  # checked first: every other row depends on it
        "label": Key("str", {kind: kind for kind in _DETECTING}),  # the long table's scenario column
        "n_max": Key("int", {"bounds": 200, "fss": 100}, _COUNT),
        "n_list": Key("int_list", {"fss": None}, _COUNT),  # absent: [n_max]
        "v_list": Key("int_list", {"fss": None}, _COUNT),  # absent: [topology.v]
        "gamma_scale": Key("float", {"fss": 1.0}),
        "include_new_sample": Key("bool", {"bounds": False}),
        "snr_db_list": Key("float_list", {"sequential": (-20.0,)}),
        "gamma_list": Key("float_list", {"change": REQUIRED}, _POSITIVE),
        "families": Key("str_list", {"change": ("centralized",)},
                        (lambda x: x in CUSUM_FAMILIES, f"must each name a CUSUM family: {', '.join(CUSUM_FAMILIES)}")),
        "measure": Key("str", {"sequential": "asn", "change": "both"},
                       {"sequential": _one_of("asn", "error", "are", "trajectory"),
                        "change": _one_of("rate", "delay", "both")}),
        "rate_list": Key("float_list", {"efficiency": REQUIRED}, _POSITIVE),
        "m_list": Key("int_list", {"efficiency": None}, _COUNT),  # absent: the scenario's own network
        "max_n_factor": Key("float", {"sequential": 100.0}),
        "include_sprt_baseline": Key("bool", {"sequential": False}),
    },
    "topology": {
        "kind": Key("str", dict.fromkeys(EXPERIMENT_KINDS, REQUIRED)),  # its names: network.build_topology
        "m": Key("int", dict.fromkeys(EXPERIMENT_KINDS, REQUIRED),
                 {**dict.fromkeys(EXPERIMENT_KINDS, _COUNT), "bounds": _PAIR}),
        "k": Key("int", dict.fromkeys(EXPERIMENT_KINDS, None)),
        "v": Key("int", dict.fromkeys(_SIMULATING, 1), _COUNT),
        "allow_disconnected": Key("bool", dict.fromkeys(EXPERIMENT_KINDS, False)),
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
        # bounds reads none: its covariance engine samples the raw null law
        "nonlinearity": Key("str", {"fss": "identity", "sequential": "identity", "change": "llr", "efficiency": "llr"},
                            {"fss": _STATISTICS, "sequential": _STATISTICS, "change": _LLR, "efficiency": _LLR}),
    },
    "detector": {
        "kind": Key("str", {"fss": "fss", "sequential": "sequential", "change": "page"},
                    {"fss": _one_of("fss"), "sequential": _one_of("sequential"), "change": _one_of("page")}),
        "p_f": Key("float", {"fss": REQUIRED}, _PROBABILITY),
        "p_e": Key("float", {"sequential": Required(unless="p_e_list")}, _ERROR_PROBABILITY),
        "p_e_list": Key("float_list", {"sequential": None}, _ERROR_PROBABILITY),  # absent: [p_e]
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

SECTION_ORDER = ("experiment", "topology", "model", "detector", "montecarlo", "output")


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
        return None if isinstance(value, Required) else value


def _parse_value(raw: str, type_tag: str, line_no: int):
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
        raise ScenarioError(f"line {line_no}: cannot parse '{raw}' as {type_tag}") from None


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
            scenario.sections[current][key] = _parse_value(value, SCHEMA[current][key].type, line_no)
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
    """Every given key is read by the kind (in [model], by the family too) and passes its rule."""
    kind = scenario.sections.get("experiment", {}).get("kind")
    if kind not in EXPERIMENT_KINDS:
        raise ScenarioError(f"experiment.kind must be one of {', '.join(EXPERIMENT_KINDS)}, got {kind!r}")
    family = scenario.sections.get("model", {}).get("family")
    for section, rows in SCHEMA.items():
        given = scenario.sections.get(section, {})
        for key, row in rows.items():
            if key not in given:
                continue
            dotted = f"{section}.{key}"
            where = f"line {lines[dotted]}: " if dotted in lines else ""
            if kind not in row.reads:
                raise ScenarioError(f"{where}{dotted} is not read by {kind} experiments")
            if family is not None and row.families is not None and family not in row.families:
                raise ScenarioError(f"{where}{dotted} is not read by model.family {family!r}")
            rule = row.rule.get(kind) if isinstance(row.rule, dict) else row.rule
            if rule is None:
                continue
            value = given[key]
            for item in value if isinstance(value, list) else [value]:
                if not rule[0](item):
                    shown = repr(item) if isinstance(item, str) else format(item, "g")
                    raise ScenarioError(f"{where}{dotted} {rule[1]}, got {shown}")
    if scenario.edges and scenario.sections.get("topology", {}).get("kind") != "explicit_edges":
        raise ScenarioError("edge lines are only valid for topology kind 'explicit_edges'")


def validate(scenario: ScenarioFile) -> None:
    """The whole spec: the given keys, the required ones, the network and the node on it."""
    _check_given(scenario, {})
    family = scenario.get("model", "family")
    for section, rows in SCHEMA.items():
        for key, row in rows.items():
            need = row.reads.get(scenario.kind)
            if (isinstance(need, Required) and scenario.get(section, key) is None
                    and (row.families is None or family in row.families)
                    and (need.unless is None or scenario.get(section, need.unless) is None)):
                raise ScenarioError(f"missing required key '{key}' in section [{section}]")
    M = topology_from_scenario(scenario).M
    node = scenario.get("detector", "node")
    if node is not None and node >= M:
        raise ScenarioError(f"detector.node must be in 0..{M - 1}, got {node}")


def _format_value(value, type_tag: str) -> str:
    if type_tag == "bool":
        return "true" if value else "false"
    if type_tag.endswith("_list"):
        return ",".join(_format_value(item, type_tag[:-5]) for item in value)
    if type_tag == "float":
        return format(float(value), ".12g")
    return str(value)


def serialize(scenario: ScenarioFile) -> str:
    lines: list[str] = []
    for section in SECTION_ORDER:
        if section not in scenario.sections:
            continue
        lines.append(f"[{section}]")
        for key, row in SCHEMA[section].items():
            if key in scenario.sections[section]:
                lines.append(f"{key} = {_format_value(scenario.sections[section][key], row.type)}")
        if section == "topology":
            for i, j in scenario.edges:
                lines.append(f"{i} {j}")
        lines.append("")
    return "\n".join(lines)


def load(path) -> ScenarioFile:
    with open(path, "r", encoding="utf-8") as handle:
        return parse(handle.read())


def apply_override(scenario: ScenarioFile, dotted_key: str, value: str) -> None:
    """Set one `section.key` from its text, parsed by the key's type; `validate` checks the result."""
    section, _, key = dotted_key.partition(".")
    if section not in SCHEMA or key not in SCHEMA[section]:
        raise ScenarioError(f"unknown override target '{dotted_key}'")
    scenario.sections.setdefault(section, {})[key] = _parse_value(value, SCHEMA[section][key].type, 0)


def apply_overrides(scenario: ScenarioFile, items: list[tuple[str, str]]) -> None:
    """Set every (section.key, text) in turn, then validate the whole spec once.

    An overridden model.family drops the file's [model] keys that the new
    family does not read, so a family switch and its parameters may come in
    any order.
    """
    targets = {dotted for dotted, _ in items}
    for dotted, value in items:
        apply_override(scenario, dotted, value)
    if "model.family" in targets:
        model = scenario.sections["model"]
        for key in [key for key in model if f"model.{key}" not in targets]:
            families = SCHEMA["model"][key].families
            if families is not None and model["family"] not in families:
                del model[key]
    validate(scenario)


def topology_from_scenario(scenario: ScenarioFile) -> NetworkTopology:
    return build_topology(
        scenario.get("topology", "kind"),
        scenario.get("topology", "m"),
        k=scenario.get("topology", "k"),
        edges=scenario.edges or None,
        allow_disconnected=scenario.get("topology", "allow_disconnected"),
    )
