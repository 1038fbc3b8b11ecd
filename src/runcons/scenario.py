"""Flat, line-oriented scenario files: `[section]` headers plus `key = value`.

The format is deliberately primitive: every value is a scalar or a
comma-separated list, explicit edge lists appear as bare `i j` lines inside
the topology section, and unknown keys are rejected with line numbers.
Serialization is canonical, so parse -> serialize -> parse is the identity on
normalized content.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .network import NetworkTopology, build_topology


class ScenarioError(ValueError):
    """Raised for malformed or schema-violating scenario files."""


EXPERIMENT_KINDS = ("spectral", "bounds", "fss", "sequential", "change", "efficiency")

# key -> type tag; list types hold homogeneous comma-separated values
SCHEMA: dict[str, dict[str, str]] = {
    "experiment": {
        "kind": "str",
        "label": "str",
        "n_max": "int",
        "n_list": "int_list",
        "v_list": "int_list",
        "gamma_scale": "float",
        "include_new_sample": "bool",
        "snr_db_list": "float_list",
        "gamma_list": "float_list",
        "families": "str_list",
        "measure": "str",
        "rate_list": "float_list",
        "m_list": "int_list",
        "max_n_factor": "float",
        "include_sprt_baseline": "bool",
    },
    "topology": {
        "kind": "str",
        "m": "int",
        "k": "int",
        "v": "int",
        "allow_disconnected": "bool",
    },
    "model": {
        "family": "str",
        "variance": "float",
        "weight": "float",
        "variance1": "float",
        "variance2": "float",
        "variance0": "float",
        "theta0": "float",
        "nonlinearity": "str",
    },
    "detector": {
        "kind": "str",
        "p_f": "float",
        "p_e": "float",
        "p_e_list": "float_list",
        "gamma_offset": "float",
        "node": "int",
    },
    "montecarlo": {
        "trials": "int",
        "seed": "int",
        "threads": "int",
    },
    "output": {
        "path": "str",
    },
}

# range rules, checked after parse and after every override
_COUNT = (lambda x: x >= 1, "must be >= 1")
_POSITIVE = (lambda x: x > 0.0, "must be positive")
_PROBABILITY = (lambda x: 0.0 < x < 1.0, "must be in (0, 1)")
RANGES = {
    **dict.fromkeys(("experiment.n_max", "experiment.n_list", "experiment.v_list", "experiment.m_list",
                     "topology.v", "montecarlo.trials", "montecarlo.threads"), _COUNT),
    **dict.fromkeys(("experiment.gamma_list", "experiment.rate_list", "model.variance", "model.variance0",
                     "model.variance1", "model.variance2"), _POSITIVE),
    **dict.fromkeys(("model.weight", "detector.p_f"), _PROBABILITY),
    **dict.fromkeys(("detector.p_e", "detector.p_e_list"), (lambda x: 0.0 < x < 0.5, "must be in (0, 0.5)")),
}

DETECTOR_KINDS = {"fss": "fss", "sequential": "sequential", "change": "page"}  # a given detector.kind must match

SECTION_ORDER = ("experiment", "topology", "model", "detector", "montecarlo", "output")

REQUIRED_SECTIONS: dict[str, tuple[str, ...]] = {
    "spectral": ("experiment", "topology", "output"),
    "bounds": ("experiment", "topology", "model", "montecarlo", "output"),
    "fss": ("experiment", "topology", "model", "detector", "montecarlo", "output"),
    "sequential": ("experiment", "topology", "model", "detector", "montecarlo", "output"),
    "change": ("experiment", "topology", "model", "detector", "montecarlo", "output"),
    "efficiency": ("experiment", "topology", "model", "output"),
}


@dataclass
class ScenarioFile:
    sections: dict[str, dict[str, object]] = field(default_factory=dict)
    edges: list[tuple[int, int]] = field(default_factory=list)

    @property
    def kind(self) -> str:
        return str(self.sections["experiment"]["kind"])

    def get(self, section: str, key: str, default=None):
        return self.sections.get(section, {}).get(key, default)

    def require(self, section: str, key: str):
        try:
            return self.sections[section][key]
        except KeyError:
            raise ScenarioError(f"missing required key '{key}' in section [{section}]") from None


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
            scenario.sections[current][key] = _parse_value(value, SCHEMA[current][key], line_no)
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
    validate(scenario)
    return scenario


def validate(scenario: ScenarioFile) -> None:
    if "experiment" not in scenario.sections:
        raise ScenarioError("missing required section [experiment]")
    kind = scenario.sections["experiment"].get("kind")
    if kind not in EXPERIMENT_KINDS:
        raise ScenarioError(f"experiment kind must be one of {EXPERIMENT_KINDS}, got {kind!r}")
    for section in REQUIRED_SECTIONS[kind]:
        if section not in scenario.sections:
            raise ScenarioError(f"missing required section [{section}] for kind '{kind}'")
    if scenario.edges and scenario.sections.get("topology", {}).get("kind") != "explicit_edges":
        raise ScenarioError("edge lines are only valid for topology kind 'explicit_edges'")
    wanted, given = DETECTOR_KINDS.get(kind), scenario.get("detector", "kind")
    if given not in (None, wanted):
        raise ScenarioError(f"detector.kind must be {wanted!r} for {kind} experiments, got {given!r}")
    for dotted, (ok, wording) in RANGES.items():
        value = scenario.get(*dotted.split("."))
        for item in value if isinstance(value, list) else [] if value is None else [value]:
            if not ok(item):
                raise ScenarioError(f"{dotted} {wording}, got {item:g}")


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
        for key, type_tag in SCHEMA[section].items():
            if key in scenario.sections[section]:
                lines.append(f"{key} = {_format_value(scenario.sections[section][key], type_tag)}")
        if section == "topology":
            for i, j in scenario.edges:
                lines.append(f"{i} {j}")
        lines.append("")
    return "\n".join(lines)


def load(path) -> ScenarioFile:
    with open(path, "r", encoding="utf-8") as handle:
        return parse(handle.read())


def apply_override(scenario: ScenarioFile, dotted_key: str, value: str) -> None:
    """Apply a `section.key=value` override with schema-checked parsing."""
    if "." not in dotted_key:
        raise ScenarioError(f"override key must be section.key, got '{dotted_key}'")
    section, _, key = dotted_key.partition(".")
    if section not in SCHEMA or key not in SCHEMA[section]:
        raise ScenarioError(f"unknown override target '{dotted_key}'")
    scenario.sections.setdefault(section, {})[key] = _parse_value(value, SCHEMA[section][key], 0)
    validate(scenario)


def topology_from_scenario(scenario: ScenarioFile) -> NetworkTopology:
    section = scenario.sections.get("topology")
    if section is None:
        raise ScenarioError("missing required section [topology]")
    kind = section.get("kind")
    if kind is None:
        raise ScenarioError("missing required key 'kind' in section [topology]")
    M = section.get("m")
    if M is None:
        raise ScenarioError("missing required key 'm' in section [topology]")
    return build_topology(
        kind,
        int(M),
        k=section.get("k"),
        edges=scenario.edges or None,
        allow_disconnected=bool(section.get("allow_disconnected", False)),
    )
