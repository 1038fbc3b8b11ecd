import csv
import math
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from runcons import cli
from runcons.consensus import ConsensusRun, WeightMode
from runcons.montecarlo import chunk_rng
from runcons.network import TopologyError
from runcons.scenario import (
    SCHEMA, SELECTORS, ScenarioError, apply_override, apply_overrides, load, parse,
    topology_from_scenario, validate,
)

from dense_oracle import gossip_matrix

SCENARIOS = Path(cli.__file__).with_name("scenarios")
BENCH_SCENARIOS = Path(__file__).resolve().parents[1] / "bench" / "scenarios"
CHECKED_SCENARIOS = [*sorted(SCENARIOS.glob("*.scn")), *sorted(BENCH_SCENARIOS.glob("*.scn"))]

MINIMAL_SPECTRAL = """\
[experiment]
kind = spectral

[topology]
kind = full_ring
m = 15

[output]
path = spectral.csv
"""

MINIMAL_EDGES = """\
[experiment]
kind = spectral

[topology]
kind = explicit_edges
m = 3
0 1
1 2

[output]
path = o.csv
"""

MINIMAL_CHANGE = """\
[experiment]
kind = change
label = smoke
measure = rate
gamma_list = 1.5
families = centralized

[topology]
kind = full_ring
m = 4
v = 1

[model]
family = variance_change
variance0 = 1
variance1 = 1.4

[detector]
kind = page

[montecarlo]
trials = 200
seed = 5
threads = 1

[output]
path = change.csv
"""


def run_cli(args, cwd, monkeypatch):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(cwd))
    return cli.main(args)


# ---------------------------------------------------------------------------
# Scenario format
# ---------------------------------------------------------------------------

def test_parse_and_accessors():
    sc = parse(MINIMAL_SPECTRAL)
    assert sc.kind == "spectral"
    assert sc.get("topology", "m") == 15
    assert sc.get("output", "path") == "spectral.csv"


def test_parse_rejects_unknown_section_and_key():
    with pytest.raises(ScenarioError, match="line 1"):
        parse("[nonsense]\n")
    bad = MINIMAL_SPECTRAL.replace("m = 15", "m = 15\nwhatever = 3")
    with pytest.raises(ScenarioError, match="unknown key 'whatever'"):
        parse(bad)


def test_parse_rejects_missing_section():
    text = MINIMAL_CHANGE.replace("[model]", "[detector]").replace("family = variance_change", "")
    with pytest.raises(ScenarioError):
        parse(text)


def test_parse_reports_line_numbers():
    text = "[experiment]\nkind = spectral\nbroken line here\n"
    with pytest.raises(ScenarioError, match="line 3"):
        parse(text)


def test_parse_duplicate_key_rejected():
    text = MINIMAL_SPECTRAL + "\n[montecarlo]\ntrials = 5\ntrials = 6\n"
    with pytest.raises(ScenarioError, match="duplicate key"):
        parse(text)


def test_explicit_edges_block():
    sc = parse(MINIMAL_EDGES)
    assert sc.edges == [(0, 1), (1, 2)]
    from runcons.scenario import topology_from_scenario

    top = topology_from_scenario(sc)
    assert top.pairs == ((0, 1), (1, 2))


def test_edge_lines_only_for_explicit_kind():
    text = MINIMAL_SPECTRAL.replace("m = 15", "m = 15\n0 1")
    with pytest.raises(ScenarioError, match="explicit_edges"):
        parse(text)


def test_apply_override_parses_types():
    sc = parse(MINIMAL_CHANGE)
    apply_override(sc, "montecarlo.trials", "99")
    assert sc.get("montecarlo", "trials") == 99
    apply_override(sc, "experiment.gamma_list", "1.0,2.0")
    assert sc.get("experiment", "gamma_list") == [1.0, 2.0]
    with pytest.raises(ScenarioError):
        apply_override(sc, "montecarlo.bogus", "1")


def test_required_keys_are_checked_once_the_overrides_are_in():
    # a sequential run needs detector.p_e_list; an absent key reads its default
    text = (SCENARIOS / "fig_stopping.scn").read_text().replace("p_e_list = 0.05\n", "")
    with pytest.raises(ScenarioError, match="missing required key 'p_e_list' in section \\[detector\\]"):
        validate(parse(text))
    sc = parse(text)
    apply_overrides(sc, [("detector.p_e_list", "0.1")])  # the trajectory measure takes one entry
    assert sc.get("detector", "p_e_list") == [0.1]
    assert sc.get("experiment", "max_n_factor") == 100.0 and sc.get("experiment", "include_sprt_baseline") is False


_NAMES = ("spectral", "bounds", "fss", "sequential", "change", "efficiency", "full_ring", "k_neighbor_ring",
          "explicit_edges", "gaussian", "gaussian_mixture", "variance_change", "identity", "score", "llr", "page",
          "asn", "error", "are", "trajectory", "rate", "delay", "both", "centralized", "running", "bank", "single",
          "nonsense")
_ITEMS = {
    "int": st.integers(-1, 12).map(str),
    "float": st.one_of(st.floats(0.0, 1.0), st.floats()).map(repr),
    "bool": st.sampled_from(["true", "no", "1"]),
    "str": st.sampled_from(_NAMES),
}


def _override_text(type_tag: str):
    """A value of the key's type, in its range or out of it, or text that does not parse as that type."""
    item = _ITEMS[type_tag.removesuffix("_list")]
    typed = st.lists(item, max_size=3).map(",".join) if type_tag.endswith("_list") else item
    unparsable = st.sampled_from(["abc", "1.5.2", "1,,x"])
    return st.integers(0, 3).flatmap(lambda draw: typed if draw else unparsable)  # one in four does not parse


_KEYS = [(section, key) for section, rows in SCHEMA.items() for key in rows]


def _override(target: tuple[str, str]):
    section, key = target
    return st.tuples(st.just(f"{section}.{key}"), _override_text(SCHEMA[section][key].type))


@settings(max_examples=500, deadline=None)
@given(path=st.sampled_from(CHECKED_SCENARIOS), data=st.data())
def test_overrides_pass_the_table_or_raise_a_scenario_error(path, data):
    # the check path alone, no experiment: any other exception would reach the command line as a traceback
    sc = load(str(path))
    given_keys = st.sampled_from([(section, key) for section, keys in sc.sections.items() for key in keys])
    items = data.draw(st.lists(st.one_of(given_keys, st.sampled_from(_KEYS)).flatmap(_override), min_size=1,
                               max_size=4))
    try:
        apply_overrides(sc, items)
    except (ScenarioError, TopologyError):
        return
    for section, keys in sc.sections.items():
        selected = keys.get(SELECTORS.get(section))
        for key in keys:
            row = SCHEMA[section][key]
            assert sc.kind in row.reads and (row.only is None or selected in row.only), (section, key)


def test_readme_key_table_names_exactly_the_schema_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| key | read by: default | rule |", 1)[1].split("\n\n", 1)[0]
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    named = [name for row in rows for name in re.findall(r"`(\w+\.\w+)`", row.split("|")[1])]
    assert sorted(named) == sorted(".".join(target) for target in _KEYS)


# ---------------------------------------------------------------------------
# CLI behavior
# ---------------------------------------------------------------------------

def test_spectral_command_prints_eigenvalues(tmp_path, monkeypatch, capsys):
    scenario = tmp_path / "spectral.scn"
    scenario.write_text(MINIMAL_SPECTRAL)
    code = run_cli(["spectral", str(scenario)], tmp_path, monkeypatch)
    assert code == 0
    out = capsys.readouterr().out
    assert "lambda_U = 0.928571" in out
    content = (tmp_path / "spectral.csv").read_text()
    assert content.splitlines()[0] == "kind,m,n_pairs,lambda_U,lambda_L"
    assert "0.928571428571" in content


def test_missing_model_section_exits_2(tmp_path, monkeypatch, capsys):
    text = MINIMAL_CHANGE.replace("[model]\nfamily = variance_change\nvariance0 = 1\nvariance1 = 1.4\n\n", "")
    scenario = tmp_path / "broken.scn"
    scenario.write_text(text)
    code = run_cli(["change", str(scenario)], tmp_path, monkeypatch)
    assert code == 2
    assert "[model]" in capsys.readouterr().err


def test_kind_mismatch_exits_2(tmp_path, monkeypatch):
    scenario = tmp_path / "spectral.scn"
    scenario.write_text(MINIMAL_SPECTRAL)
    assert run_cli(["bounds", str(scenario)], tmp_path, monkeypatch) == 2


def test_unknown_reproduce_tag_exits_2(tmp_path, monkeypatch, capsys):
    assert run_cli(["reproduce", "fig:doesnotexist"], tmp_path, monkeypatch) == 2
    assert "unknown experiment tag" in capsys.readouterr().err


def test_change_command_runs_and_writes_both_tables(tmp_path, monkeypatch):
    scenario = tmp_path / "change.scn"
    scenario.write_text(MINIMAL_CHANGE)
    code = run_cli(["change", str(scenario)], tmp_path, monkeypatch)
    assert code == 0
    mc = (tmp_path / "change.csv").read_text().splitlines()
    assert mc[0] == "scenario,family,gamma,statistic,estimate,std_err,n_trials,n_truncated"
    theory = (tmp_path / "change_theory.csv").read_text().splitlines()
    assert theory[0] == "family,gamma,R_accurate,R_largegamma,D_accurate,D_largegamma"
    assert len(theory) == 5  # four families at one threshold


def test_same_seed_gives_byte_identical_output(tmp_path, monkeypatch):
    scenario = tmp_path / "change.scn"
    scenario.write_text(MINIMAL_CHANGE)
    run_cli(["change", str(scenario), "--out", "a.csv"], tmp_path, monkeypatch)
    run_cli(["change", str(scenario), "--out", "b.csv"], tmp_path, monkeypatch)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_seed_override_changes_output(tmp_path, monkeypatch):
    scenario = tmp_path / "change.scn"
    scenario.write_text(MINIMAL_CHANGE)
    run_cli(["change", str(scenario), "--out", "a.csv"], tmp_path, monkeypatch)
    run_cli(["change", str(scenario), "--out", "c.csv", "--seed", "123"], tmp_path, monkeypatch)
    assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "c.csv").read_bytes()


def test_set_override_changes_behavior(tmp_path, monkeypatch):
    scenario = tmp_path / "change.scn"
    scenario.write_text(MINIMAL_CHANGE)
    code = run_cli(
        ["change", str(scenario), "--set", "experiment.gamma_list=1.0,2.0", "--out", "two.csv"],
        tmp_path, monkeypatch,
    )
    assert code == 0
    lines = (tmp_path / "two.csv").read_text().splitlines()
    # two thresholds, two statistics per threshold for one family
    assert len(lines) == 1 + 4


def test_output_dir_env_honored(tmp_path, monkeypatch):
    scenario = tmp_path / "spectral.scn"
    scenario.write_text(MINIMAL_SPECTRAL)
    target = tmp_path / "nested"
    target.mkdir()
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(target))
    assert cli.main(["spectral", str(scenario)]) == 0
    assert (target / "spectral.csv").exists()


class _Unprintable:
    def __str__(self):
        raise RuntimeError("cell cannot be formatted")


@pytest.mark.parametrize("earlier", [None, b"a,b\n0,0.5\n"])
def test_write_csv_failing_mid_write_leaves_the_path_as_it_was(tmp_path, earlier):
    # the second row fails after the header and the first row are written
    table = tmp_path / "table.csv"
    if earlier is not None:
        table.write_bytes(earlier)
    with pytest.raises(RuntimeError, match="cannot be formatted"):
        cli.write_csv(str(table), ["a", "b"], [[1, 2.5], [2, _Unprintable()]])
    assert os.listdir(tmp_path) == ([] if earlier is None else ["table.csv"])
    if earlier is not None:
        assert table.read_bytes() == earlier
    cli.write_csv(str(table), ["a", "b"], [[1, 2.5], [2, None]])
    assert table.read_bytes() == b"a,b\n1,2.5\n2,\n"
    assert os.listdir(tmp_path) == ["table.csv"]


def test_dump_trajectory_flag(tmp_path, monkeypatch):
    scenario = tmp_path / "bounds.scn"
    scenario.write_text(
        """\
[experiment]
kind = bounds
n_max = 5

[topology]
kind = full_ring
m = 3
v = 1

[model]
family = gaussian
variance = 1
theta0 = 0

[montecarlo]
trials = 100
seed = 1

[output]
path = bounds.csv
"""
    )
    code = run_cli(
        ["bounds", str(scenario), "--dump-trajectory", "traj.csv"], tmp_path, monkeypatch
    )
    assert code == 0
    lines = (tmp_path / "traj.csv").read_text().splitlines()
    assert lines[0] == "n,node,state,centralized,error"
    assert len(lines) == 1 + 5 * 3


def test_dump_trials_flag_writes_per_trial_records(tmp_path, monkeypatch):
    scenario = tmp_path / "change.scn"
    scenario.write_text(MINIMAL_CHANGE)
    code = run_cli(
        ["change", str(scenario), "--dump-trials", "trials.csv"], tmp_path, monkeypatch
    )
    assert code == 0
    lines = (tmp_path / "trials.csv").read_text().splitlines()
    assert lines[0] == "mode,gamma,trial,alarm_time,decision"
    assert len(lines) == 1 + 200  # one rate run at 200 trials
    assert lines[1].startswith("centralized,1.5,0,")


def test_reproduce_small_bound_run_deterministic(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
    args = ["reproduce", "fig:bound1", "--trials", "60"]
    assert cli.main(args) == 0
    first = {
        name: (tmp_path / name).read_bytes()
        for name in ("fig_bound1_complete.csv", "fig_bound1_kneighbor.csv")
    }
    assert cli.main(args) == 0
    for name, content in first.items():
        assert (tmp_path / name).read_bytes() == content


def test_every_reproduce_tag_runs_end_to_end(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
    shrink = {
        "fig:bound1": ["--trials", "40", "--set", "experiment.n_max=30"],
        "fig:bound2": ["--trials", "40", "--set", "experiment.n_max=30"],
        "fig:FSS3": ["--trials", "40", "--set", "experiment.n_list=10,30",
                     "--set", "experiment.v_list=1"],
        "fig:NmedGauss": ["--trials", "40", "--set", "experiment.snr_db_list=-20",
                          "--set", "detector.p_e_list=0.1"],
        "fig:PerrGauss": ["--trials", "40", "--set", "experiment.snr_db_list=-20",
                          "--set", "detector.p_e_list=0.1"],
        "fig:AREGauss": ["--trials", "40", "--set", "experiment.snr_db_list=-20",
                         "--set", "detector.p_e_list=0.1"],
        "fig:NmedMixt": ["--trials", "40", "--set", "experiment.snr_db_list=-20"],
        "fig:PerrMixt": ["--trials", "40", "--set", "experiment.snr_db_list=-20"],
        "fig:stopping": [],
        "fig:sim2": ["--trials", "25", "--set", "experiment.gamma_list=1.2,2.0"],
        "fig:sim1": ["--trials", "25", "--set", "experiment.gamma_list=1.2,2.0"],
        "fig:RE1": [],
        "fig:RE2": [],
    }
    assert set(shrink) == set(cli.REPRODUCE_TAGS)
    for tag, extra in shrink.items():
        assert cli.main(["reproduce", tag, *extra]) == 0, tag
    produced = {p.name for p in tmp_path.iterdir()}
    assert "fig_stopping.csv" in produced
    assert "fig_nmed_mixt.csv" in produced
    # figure tables carry headers and at least one data row
    for name in produced:
        lines = (tmp_path / name).read_text().splitlines()
        assert len(lines) >= 2, name


def test_csv_floats_have_12_significant_digits():
    assert cli.format_cell(1.0 / 3.0) == "0.333333333333"
    assert cli.format_cell(123456789.123456) == "123456789.123"
    assert cli.format_cell(2) == "2"
    assert cli.format_cell(None) == ""


@pytest.mark.parametrize("command", [
    ["change", "fig_sim2.scn"],
    ["fss", "fig_fss3.scn"],
    ["sequential", "fig_nmed_gauss.scn"],
    ["reproduce", "fig:sim2"],
    ["reproduce", "fig:FSS3"],
    ["reproduce", "fig:PerrGauss"],
], ids=["change", "fss", "sequential", "reproduce-sim2", "reproduce-FSS3", "reproduce-PerrGauss"])
def test_node_out_of_range_exits_2_before_any_output(command, tmp_path, monkeypatch, capsys):
    if command[0] != "reproduce":
        command = [command[0], os.path.join(os.path.dirname(cli.__file__), "scenarios", command[1])]
    code = run_cli([*command, "--trials", "20", "--set", "detector.node=50"], tmp_path, monkeypatch)
    captured = capsys.readouterr()
    assert code == 2
    assert "detector.node" in captured.err and "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("extra, message", [
    (["--trials", "0"], "montecarlo.trials"),
    (["--set", "experiment.gamma_list=1.5,-1"], "gamma_list"),
    (["--set", "experiment.gamma_list=0"], "gamma_list"),
    (["--set", "experiment.families=centralized,nonsense"], "family"),
    (["--set", "experiment.measure=nonsense"], "measure"),
], ids=["zero-trials", "negative-gamma", "zero-gamma", "unknown-family", "unknown-measure"])
def test_change_validation_errors_exit_2_before_any_output(extra, message, tmp_path, monkeypatch, capsys):
    scenario = tmp_path / "in" / "change.scn"
    scenario.parent.mkdir()
    scenario.write_text(MINIMAL_CHANGE)
    out = tmp_path / "out"
    out.mkdir()
    assert run_cli(["change", str(scenario), *extra], out, monkeypatch) == 2
    assert message in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_efficiency_rejects_non_positive_rate(tmp_path, monkeypatch, capsys):
    code = run_cli(["reproduce", "fig:RE1", "--set", "experiment.rate_list=1e-4,0"], tmp_path, monkeypatch)
    assert code == 2
    assert "rate_list" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("runs", [
    [(["reproduce", "fig:PerrGauss", "--set", "detector.p_e_list=0.7"], "p_e")],
    [(["reproduce", "fig:RE1", "--set", "experiment.rate_list=10"], "rate_list")],
    [(["reproduce", "fig:FSS3", "--set", "experiment.v_list=1,0"], "v_list"),
     (["sequential", "fig_nmed_gauss.scn", "--set", "topology.v=0"], "topology.v")],
    [([kind, name, "--set", "model.family=variance_change", "--set", "model.variance0=1",
       "--set", "model.variance1=2"], "variance_change")
     for kind, name in (("fss", "fig_fss3.scn"), ("sequential", "fig_nmed_gauss.scn"))],
    [(["reproduce", "fig:FSS3", "--set", "detector.p_f=1.5"], "detector.p_f"),
     (["fss", "fig_fss3.scn", "--set", "detector.p_f=0"], "detector.p_f")],
    [(["reproduce", "fig:FSS3", "--set", "model.variance=0"], "model.variance"),
     (["reproduce", "fig:PerrMixt", "--set", "model.weight=1.5"], "model.weight"),
     (["reproduce", "fig:NmedMixt", "--set", "model.variance2=0"], "model.variance2"),
     (["reproduce", "fig:sim2", "--set", "model.variance0=-1"], "model.variance0"),
     (["change", "fig_sim1.scn", "--set", "model.variance1=0"], "model.variance1")],
    [(["reproduce", "fig:FSS3", "--set", "experiment.n_list=0", "--set", "experiment.v_list=1"], "n_list"),
     (["reproduce", "fig:FSS3", "--set", "experiment.n_list=10,-4"], "n_list"),
     (["reproduce", "fig:RE1", "--set", "experiment.m_list=0"], "m_list"),
     (["reproduce", "fig:bound1", "--set", "experiment.n_max=-1"], "n_max"),
     (["bounds", "fig_bound1_complete.scn", "--set", "experiment.n_max=0"], "n_max")],
    [(["reproduce", "fig:NmedGauss", "--set", "experiment.measure=aer"], "measure"),
     (["sequential", "fig_perr_gauss.scn", "--set", "experiment.measure=eror"], "measure"),
     (["reproduce", "fig:PerrGauss", "--set", "experiment.measure=error"], "measure")],
    [(["reproduce", "fig:FSS3", "--set", "detector.p_d=0.9"], "detector.p_d")],
    [(["reproduce", "fig:FSS3", "--set", "detector.kind=nonsense"], "detector.kind"),
     (["change", "fig_sim1.scn", "--set", "detector.kind=sequential"], "detector.kind"),
     (["sequential", "fig_nmed_gauss.scn", "--set", "detector.kind=page"], "detector.kind")],
    [(["reproduce", "fig:sim2", "--threads", "0"], "montecarlo.threads"),
     (["reproduce", "fig:sim2", "--threads", "-3"], "montecarlo.threads"),
     (["change", "fig_sim1.scn", "--set", "montecarlo.threads=-1"], "montecarlo.threads")],
    [(["reproduce", "fig:bound1", "--set", "topology.kind=nonsense"],
      "topology.kind must be one of full_ring, k_neighbor_ring, explicit_edges")],
    [(["reproduce", "fig:bound1", "--seed", "-1"], "montecarlo.seed")],
    # the tag's second scenario rejects the override, so the first must not be written either
    [(["reproduce", "fig:bound2", "--set", "topology.m=4"], "k must satisfy"),
     (["reproduce", "fig:bound1", "--set", "topology.m=4"], "k must satisfy")],
    # exp(gamma) overflows, so the predicted false-alarm rate is 0 and no horizon exists
    [(["reproduce", "fig:sim2", "--set", "experiment.gamma_list=1e6"], "experiment.gamma_list")],
    # 1 - rho between two nodes is undefined on a one-node network
    [(["bounds", "fig_bound1_complete.scn", "--set", "topology.m=1", "--set", "experiment.n_max=3"],
      "topology.m")],
    # a change is a variance change read through the LLR: a location family carries no theta there,
    # so its null and alternative coincide, as equal variances do
    [([kind, name, "--set", "model.family=gaussian", "--set", "model.variance=1"], "model.family")
     for kind, name in (("change", "fig_sim1.scn"), ("efficiency", "fig_re1.scn"))],
    [(["change", "fig_sim1.scn", "--set", "model.variance1=1"], "model.variance1"),
     (["reproduce", "fig:RE1", "--set", "model.variance1=1"], "model.variance1")],
    # variances so far apart that the squared LLR overflows in the quadrature of its variance
    [([kind, name, "--set", "model.variance1=1e-300"], "model.variance0 = 1 and model.variance1 = 1e-300")
     for kind, name in (("change", "fig_sim2.scn"), ("efficiency", "fig_re1.scn"))],
    # so far apart that the bank factor's Wald shape collapses: its survival integral is zero or unresolved
    [(["efficiency", "fig_re1.scn", "--set", f"model.variance1={value}"],
      f"model.variance0 = 1 and model.variance1 = {value}") for value in ("1e+100", "1e+07", "1000")]
    + [(["change", "fig_sim1.scn", "--set", "model.variance1=1e7"], "model.variance0 = 1 and model.variance1 = 1e+07")]
    # or the threshold so small that it collapses, named beside the variances; from gamma = 1e-9 on,
    # e^gamma - gamma - 1 rounds to 0 in the rate, which must not warn on the way to the message
    + [(["reproduce", "fig:sim1", "--set", f"experiment.gamma_list={gamma}"],
        f"experiment.gamma_list entry {gamma} with model.variance0 = 1 and model.variance1 = 1.06502")
       for gamma in ("1e-06", "1e-09")]
    + [(["reproduce", "fig:RE1", "--set", "experiment.m_list=1", "--set", "experiment.rate_list=0.0009716554605386208"],
        "experiment.rate_list entry 0.000971655 and experiment.m_list entry 1 (gamma = 1e-09) with model.variance0 = 1 "
        "and model.variance1 = 1.06502")],
    # so close that the closed-form divergences cancel to zero or below
    [([kind, name, "--set", "model.variance1=1.0000000000023"],
      "model.variance0 = 1 and model.variance1 = 1 are too close")
     for kind, name in (("change", "fig_sim1.scn"), ("efficiency", "fig_re1.scn"))],
    [(["change", "fig_sim1.scn", "--set", "model.nonlinearity=score"], "model.nonlinearity"),
     (["efficiency", "fig_re1.scn", "--set", "model.nonlinearity=identity"], "model.nonlinearity")],
    [(["bounds", "fig_bound1_complete.scn", "--set", "montecarlo.trials=abc"],
      "error: --set montecarlo.trials: cannot parse 'abc' as int")],
    # one --out file cannot hold a tag's two tables
    [(["reproduce", "fig:bound1", "--set", "experiment.n_max=3", "--out", "x.csv"], "--out")],
    # nor one output.path, nor a change table and its per-trial dump
    [(["reproduce", "fig:bound1", "--set", "output.path=one.csv"], "one.csv"),
     (["change", "fig_sim1.scn", "--dump-trials", "fig_sim1.csv"], "fig_sim1.csv"),
     (["change", "fig_sim1.scn", "--out", "x.csv", "--dump-trials", "x_theory.csv"], "x_theory.csv")],
    [(["change", "fig_sim1.scn", "--set", "detector.gamma_offset=nan"], "detector.gamma_offset must be finite"),
     (["reproduce", "fig:FSS3", "--set", "experiment.gamma_scale=inf"], "experiment.gamma_scale must be finite"),
     (["sequential", "fig_nmed_gauss.scn", "--set", "experiment.max_n_factor=nan"],
      "experiment.max_n_factor must be finite"),
     (["sequential", "fig_nmed_gauss.scn", "--set", "experiment.snr_db_list=-20,nan"],
      "experiment.snr_db_list must be finite")],
    [(["sequential", "fig_nmed_gauss.scn", "--set", "experiment.max_n_factor=0"],
      "experiment.max_n_factor must be positive")],
    # an output path must be able to name a file: not empty, no trailing separator, not a directory,
    # and not under an existing file
    [(["reproduce", "fig:RE1", "--set", "output.path="], "output path ''"),
     (["reproduce", "fig:RE1", "--set", "output.path=sub/"], "output path 'sub/'"),
     (["reproduce", "fig:RE1", "--out", "."], "output path '.'"),
     (["reproduce", "fig:RE1", "--out", str(SCENARIOS / "fig_re1.scn" / "x.csv")], "fig_re1.scn/x.csv"),
     (["change", "fig_sim1.scn", "--dump-trials", str(SCENARIOS / "fig_re1.scn" / "sub" / "x.csv")],
      "fig_re1.scn/sub/x.csv")],
    # the trajectory measure draws one path at one design point, without the baseline
    [(["sequential", "fig_stopping.scn", "--set", "detector.p_e_list=0.05,0.2"], "detector.p_e_list"),
     (["reproduce", "fig:stopping", "--set", "experiment.snr_db_list=-30,-10"], "experiment.snr_db_list"),
     (["sequential", "fig_stopping.scn", "--set", "experiment.include_sprt_baseline=true"],
      "experiment.include_sprt_baseline")],
], ids=["p_e-above-half", "rate-above-d01", "v-below-1", "no-location-family", "p_f-outside-unit",
        "model-parameters", "counts-below-1", "unknown-sequential-measure", "unread-p_d",
        "detector-kind-not-the-runners", "threads-below-1", "unknown-topology-kind", "negative-seed",
        "second-scenario-of-tag", "false-alarm-rate-underflows", "one-node-bounds",
        "change-on-location-family", "equal-variances", "llr-variance-overflows", "bank-survival-collapses",
        "variances-too-close", "change-nonlinearity", "unparsable-set-value",
        "one-out-for-two-tables", "one-path-for-two-outputs", "non-finite-float", "max-n-factor-not-positive",
        "output-path-not-a-file", "trajectory-one-design-point"])
@pytest.mark.filterwarnings("error::RuntimeWarning")  # e.g. an overflowing exp on the way to the message
def test_range_errors_exit_2_before_any_output(runs, tmp_path, monkeypatch, capsys):
    for command, message in runs:
        if command[0] != "reproduce":
            command = [command[0], str(SCENARIOS / command[1]), *command[2:]]
        code = run_cli([*command, "--trials", "20"], tmp_path, monkeypatch)
        err = capsys.readouterr().err
        assert code == 2, command
        assert message in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


@settings(max_examples=100, deadline=None)
@given(exponent=st.floats(-300.0, 300.0))
def test_efficiency_at_any_variance_ratio_writes_its_table_or_exits_2(exponent):
    # a range error the check path cannot see ends before any output, never as exit 1 or a traceback
    with tempfile.TemporaryDirectory() as out, pytest.MonkeyPatch.context() as monkeypatch:
        variance = f"model.variance1={10.0 ** exponent!r}"
        code = run_cli(["efficiency", str(SCENARIOS / "fig_re1.scn"), "--set", variance], out, monkeypatch)
        assert code in (0, 2)
        if code == 2:
            assert os.listdir(out) == []


@settings(max_examples=100, deadline=None)
@given(exponent=st.floats(-300.0, 300.0))
def test_change_at_any_variance_ratio_writes_its_tables_or_exits_2(exponent):
    # a written bank delay keeps its floor: the survival integral is at least q/e, q the Castillo
    # quantile, so D_accurate / D_largegamma >= (gamma + exp(-gamma) - 1) / (gamma e).  Runs stop
    # at slot 50: near-equal variances put 100 mean run lengths at 1e11 slots and more
    engine = cli.montecarlo.page_run_lengths
    with tempfile.TemporaryDirectory() as out, pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(cli.montecarlo, "page_run_lengths",
                            lambda *args, max_n, **kwargs: engine(*args, max_n=min(max_n, 50), **kwargs))
        variance = f"model.variance1={10.0 ** exponent!r}"
        code = run_cli(["change", str(SCENARIOS / "fig_sim1.scn"), "--trials", "2",
                        "--set", "experiment.gamma_list=1.2", "--set", variance], out, monkeypatch)
        assert code in (0, 2)
        if code == 2:
            assert os.listdir(out) == []
            return
        for row in _read_rows(Path(out) / "fig_sim1_theory.csv"):
            gamma = float(row["gamma"])
            floor = (gamma + math.exp(-gamma) - 1.0) / (gamma * math.e)
            assert float(row["D_accurate"]) >= floor * float(row["D_largegamma"]), row


def _exits_2_naming(command, message, out, monkeypatch, capsys) -> None:
    if command[0] != "reproduce":
        command = [command[0], str(SCENARIOS / command[1]), *command[2:]]
    code = run_cli(command, out, monkeypatch)
    err = capsys.readouterr().err
    assert code == 2, command
    assert message in err and "Traceback" not in err, err
    assert list(out.iterdir()) == []


# per case: a bundled scenario or a scenario's text, a key that its kind or its section's selector does
# not read, a value of the key's type, and who does not read it (None: a key the table no longer has)
UNREAD = {
    "spectral": (MINIMAL_SPECTRAL, "topology", "v", "1", "spectral experiments"),
    "bounds": ("fig_bound1_complete.scn", "model", "nonlinearity", "identity", "bounds experiments"),
    "fss": ("fig_fss3.scn", "experiment", "max_n_factor", "3", "fss experiments"),
    "sequential": ("fig_nmed_gauss.scn", "experiment", "gamma_scale", "2", "sequential experiments"),
    "change": ("fig_sim1.scn", "model", "theta0", "3", "change experiments"),
    "efficiency": ("fig_re1.scn", "montecarlo", "trials", "5", "efficiency experiments"),
    "sequential-family": ("fig_nmed_gauss.scn", "model", "weight", "0.3", "model.family 'gaussian'"),
    "bounds-family": ("fig_bound1_complete.scn", "model", "variance0", "1", "model.family 'gaussian'"),
    "bounds-k-full-ring": ("fig_bound1_complete.scn", "topology", "k", "4", "topology.kind 'full_ring'"),
    "spectral-k-explicit-edges": (MINIMAL_EDGES, "topology", "k", "2", "topology.kind 'explicit_edges'"),
    "bounds-allow-disconnected-k-ring": ("fig_bound1_kneighbor.scn", "topology", "allow_disconnected", "true",
                                         "topology.kind 'k_neighbor_ring'"),
    "fss-n_max": ("fig_fss3.scn", "experiment", "n_max", "50", "fss experiments"),
    "fss-topology-v": ("fig_fss3.scn", "topology", "v", "2", "fss experiments"),  # fss reads experiment.v_list
    "efficiency-m": ("fig_re1.scn", "topology", "m", "3", "efficiency experiments"),
    "sequential-p_e": ("fig_nmed_gauss.scn", "detector", "p_e", "0.3", None),
}


@pytest.mark.parametrize("case", sorted(UNREAD))
def test_keys_that_are_not_read_exit_2_before_any_output(case, tmp_path, monkeypatch, capsys):
    name, section, key, value, reader = UNREAD[case]
    kind = case.split("-")[0]
    text = (SCENARIOS / name).read_text() if name.endswith(".scn") else name
    unread = f"{section}.{key} is not read by {reader}"
    in_file, in_set = (unread, unread) if reader else (
        f"unknown key '{key}' in section [{section}]", f"unknown override target '{section}.{key}'")
    scenario = tmp_path / "in" / "unread.scn"
    scenario.parent.mkdir()
    out = tmp_path / "out"
    out.mkdir()
    lines = text.splitlines()
    if f"[{section}]" not in lines:
        lines += ["", f"[{section}]"]
    at = lines.index(f"[{section}]") + 1
    scenario.write_text("\n".join([*lines[:at], f"{key} = {value}", *lines[at:]]) + "\n")
    # --trials 20: a regression fails fast, and runs that simulate nothing ignore it
    _exits_2_naming([kind, str(scenario), "--trials", "20"],
                    f"line {at + 1}: {in_file}", out, monkeypatch, capsys)
    scenario.write_text(text)
    _exits_2_naming([kind, str(scenario), "--trials", "20", "--set", f"{section}.{key}={value}"],
                    in_set, out, monkeypatch, capsys)


@pytest.mark.parametrize("command, message", [
    # theta0 moves only a location family, max_n_factor only the sequential horizon
    (["change", "fig_sim1.scn", "--set", "model.theta0=3", "--set", "experiment.max_n_factor=0.001",
      "--trials", "20"],
     "is not read by change experiments"),
    (["bounds", "fig_bound1_complete.scn", "--trials", "1"], "montecarlo.trials must be >= 2"),
    (["bounds", "fig_bound1_complete.scn", "--set", "montecarlo.trials=1"], "montecarlo.trials must be >= 2"),
    # the covariance engine samples the raw null law, so bounds reads no statistic, not even for the dump
    (["bounds", "fig_bound1_complete.scn", "--set", "model.family=variance_change", "--set", "model.variance0=1",
      "--set", "model.variance1=2", "--set", "model.nonlinearity=score", "--dump-trajectory", "t.csv",
      "--trials", "20"],
     "model.nonlinearity is not read by bounds experiments"),
    # a kind switch cannot make efficiency read a network
    (["reproduce", "fig:RE1", "--set", "topology.m=3", "--set", "topology.kind=full_ring"],
     "topology.kind is not read by efficiency experiments"),
], ids=["change-unread-pair", "bounds-one-trial", "bounds-one-trial-set", "bounds-statistic", "efficiency-network"])
def test_table_rules_exit_2_before_any_output(command, message, tmp_path, monkeypatch, capsys):
    _exits_2_naming(command, message, tmp_path, monkeypatch, capsys)


def test_common_flags_are_ignored_where_no_monte_carlo_runs(tmp_path, monkeypatch):
    assert run_cli(["reproduce", "fig:RE1", "--seed", "3", "--trials", "5", "--threads", "2"],
                   tmp_path / "flags", monkeypatch) == 0
    assert run_cli(["reproduce", "fig:RE1"], tmp_path / "plain", monkeypatch) == 0
    assert (tmp_path / "flags" / "fig_re1.csv").read_bytes() == (tmp_path / "plain" / "fig_re1.csv").read_bytes()


def test_family_switch_by_overrides_works_in_either_order(tmp_path, monkeypatch):
    switch = ["--set", "model.family=gaussian_mixture", "--set", "model.weight=0.3",
              "--set", "model.variance1=1", "--set", "model.variance2=25"]
    base = ["bounds", str(SCENARIOS / "fig_bound1_complete.scn"), "--trials", "20", "--set", "experiment.n_max=5"]
    assert run_cli([*base, *switch, "--out", "first.csv"], tmp_path, monkeypatch) == 0
    assert run_cli([*base, *switch[2:], *switch[:2], "--out", "last.csv"], tmp_path, monkeypatch) == 0
    assert run_cli([*base, "--out", "gaussian.csv"], tmp_path, monkeypatch) == 0
    first, last = (tmp_path / "first.csv").read_bytes(), (tmp_path / "last.csv").read_bytes()
    assert first == last != (tmp_path / "gaussian.csv").read_bytes()


def test_topology_switch_by_overrides_works_in_either_order(tmp_path, monkeypatch):
    # a switched topology.kind drops the file's keys that the new kind does not read, here k
    common = ["--trials", "20", "--seed", "5", "--set", "experiment.n_max=5"]
    ring = ["--set", "topology.kind=k_neighbor_ring", "--set", "topology.k=4"]
    runs = {
        "complete.csv": ["fig_bound1_complete.scn"],
        "to-complete.csv": ["fig_bound1_kneighbor.scn", "--set", "topology.kind=full_ring"],
        "ring.csv": ["fig_bound1_kneighbor.scn"],
        "to-ring.csv": ["fig_bound1_complete.scn", *ring],
        "to-ring-k-first.csv": ["fig_bound1_complete.scn", *ring[2:], *ring[:2]],
    }
    for out, (name, *extra) in runs.items():
        assert run_cli(["bounds", str(SCENARIOS / name), *common, *extra, "--out", out], tmp_path, monkeypatch) == 0
    read = {out: (tmp_path / out).read_bytes() for out in runs}
    assert read["complete.csv"] == read["to-complete.csv"] != read["ring.csv"]
    assert read["ring.csv"] == read["to-ring.csv"] == read["to-ring-k-first.csv"]


@pytest.mark.parametrize("path", CHECKED_SCENARIOS,
                         ids=lambda path: f"{path.parent.parent.name}/{path.name}")
def test_bundled_and_benchmark_scenarios_pass_the_whole_check(path):
    # a key that the table stops reading fails here, not in a benchmark run
    validate(load(str(path)))


@pytest.mark.parametrize("command", [
    ["reproduce", "fig:FSS3", "--dump-trajectory", "t.csv"],
    ["reproduce", "fig:bound1", "--dump-trajectory", "t.csv"],
    ["reproduce", "fig:sim2", "--dump-trials", "t.csv"],
    ["change", "fig_sim2.scn", "--dump-trajectory", "t.csv"],
    ["bounds", "fig_bound1_complete.scn", "--dump-trials", "t.csv"],
    ["sequential", "fig_stopping.scn", "--dump-trajectory", "t.csv"],
], ids=["reproduce-fss", "reproduce-bounds", "reproduce-change", "change-trajectory", "bounds-trials",
        "sequential-trajectory-measure"])
def test_dump_flags_exit_2_where_not_honoured(command, tmp_path, monkeypatch, capsys):
    # each dump belongs to the subcommands that write it; elsewhere it is an error, not a no-op
    if command[0] != "reproduce":
        command = [command[0], str(SCENARIOS / command[1]), *command[2:]]
    try:
        code = run_cli([*command, "--trials", "20"], tmp_path, monkeypatch)
    except SystemExit as exc:  # argparse: unrecognized argument
        code = exc.code
    assert code == 2
    assert "dump-tr" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


_SIM_COLUMNS = {  # change: the simulated cells of a delay-only run
    "R_sim": ("false_alarm_rate", "estimate"), "R_sim_se": ("false_alarm_rate", "std_err"),
    "D_sim": ("mean_delay", "estimate"), "D_sim_se": ("mean_delay", "std_err"),
    "n_trials": ("mean_delay", "n_trials"), "n_truncated": ("mean_delay", "n_truncated"),
}


def _long_field(column: str) -> tuple[str, str]:
    """(statistic, long-table field) of a wide column: S, S_se, or n_truncated_X for en_X."""
    if column in _SIM_COLUMNS:
        return _SIM_COLUMNS[column]
    if column.startswith("n_truncated_"):
        return "en_" + column[len("n_truncated_"):], "n_truncated"
    if column.endswith("_se"):
        return column[:-len("_se")], "std_err"
    return column, "estimate"


def test_change_rows_follow_the_scenarios_threshold_order(tmp_path, monkeypatch):
    # one run per family and law serves the whole grid: the list's order and repeats only lay out the rows
    base = ["change", str(SCENARIOS / "fig_sim1.scn"), "--trials", "25",
            "--set", "experiment.families=centralized,bank"]
    for name, gammas in (("sorted", "1.2,1.8"), ("unsorted", "1.8,1.2"), ("repeated", "1.8,1.2,1.8")):
        code = run_cli([*base, "--set", f"experiment.gamma_list={gammas}", "--out", f"{name}.csv"],
                       tmp_path, monkeypatch)
        assert code == 0
    cells = {(r["family"], r["gamma"], r["statistic"]): r for r in _read_rows(tmp_path / "sorted.csv")}
    for name, order in (("unsorted", ["1.8", "1.2"]), ("repeated", ["1.8", "1.2", "1.8"])):
        rows = _read_rows(tmp_path / f"{name}.csv")
        assert [r["gamma"] for r in rows[::3]] == order * 2  # three statistics a point
        assert [r["family"] for r in rows] == ["centralized"] * 3 * len(order) + ["bank"] * 3 * len(order)
        for row in rows:  # a repeated threshold's rows are the sorted run's, cell for cell
            assert row == cells[row["family"], row["gamma"], row["statistic"]]
        theory = [(r["family"], r["gamma"]) for r in _read_rows(tmp_path / f"{name}_theory.csv")]
        assert theory == [(family, gamma) for family in ("centralized", "running", "bank", "single") for gamma in order]


def test_a_crossing_after_its_own_thresholds_horizon_counts_as_truncated(tmp_path, monkeypatch):
    # the grid runs to the largest horizon, the largest threshold's; a smaller threshold's crossing
    # after its own horizon is no alarm
    calls = []

    def every_lane_at_the_last_slot(model, mode, gammas, M, trials, seed, *, max_n, **kwargs):
        calls.append((mode, list(gammas), max_n))
        return np.full(len(gammas) * trials, max_n, dtype=np.int64)

    monkeypatch.setattr(cli.montecarlo, "page_run_lengths", every_lane_at_the_last_slot)
    code = run_cli(["change", str(SCENARIOS / "fig_sim1.scn"), "--trials", "5",
                    "--set", "experiment.gamma_list=1.8,1.2", "--set", "experiment.families=centralized",
                    "--set", "experiment.measure=rate", "--dump-trials", "trials.csv"], tmp_path, monkeypatch)
    assert code == 0
    [(mode, gammas, max_n)] = calls  # one run for the family's one law
    assert mode == "centralized" and gammas == [1.2, 1.8]
    theory = {r["gamma"]: float(r["R_accurate"]) for r in _read_rows(tmp_path / "fig_sim1_theory.csv")
              if r["family"] == "centralized"}
    own = {gamma: math.ceil(100.0 / rate) for gamma, rate in theory.items()}
    assert own["1.8"] == max_n > own["1.2"]
    dump = _read_rows(tmp_path / "trials.csv")
    assert {(r["gamma"], r["alarm_time"], r["decision"]) for r in dump} == {
        ("1.8", str(max_n), "false_alarm"), ("1.2", str(own["1.2"]), "truncated")}
    truncated = {r["gamma"]: r["n_truncated"] for r in _read_rows(tmp_path / "fig_sim1.csv")}
    assert truncated == {"1.8": "0", "1.2": "5"}


@pytest.mark.parametrize("command, scenario, extra, keys, exempt, statistics", [
    ("change", "fig_sim1.scn",
     ["--trials", "25", "--set", "experiment.gamma_list=1.2,2.0", "--set", "experiment.measure=delay"],
     ("family", "gamma"), {"R_accurate", "R_largegamma", "D_accurate", "D_largegamma"}, {"mean_delay"}),
    ("fss", "fig_fss3.scn",
     ["--trials", "40", "--set", "experiment.n_list=10,30", "--set", "experiment.v_list=1"],
     ("v", "n", "threshold"), {"p_d_limit"}, {"p_f_centralized", "p_f_node", "p_d_centralized", "p_d_node"}),
    ("sequential", "fig_are_gauss.scn",
     ["--trials", "40", "--set", "experiment.snr_db_list=-20", "--set", "detector.p_e_list=0.1",
      "--set", "experiment.include_sprt_baseline=true"],
     ("p_e", "snr_db", "snr"), set(),
     {*(f"{name}_{source}" for name in ("en", "en_snr", "pe") for source in ("centralized", "node")),
      "en_snr_asymptote", "en_snr_sprt", "pe_sprt", "en_matched_centralized", "are_node"}),
], ids=["change-delay", "fss", "sequential-are-sprt"])
def test_wide_cells_are_long_table_fields(command, scenario, extra, keys, exempt, statistics, tmp_path,
                                          monkeypatch):
    # a reproduce table lays out the named estimates of the subcommand's long table and nothing else
    sc = load(str(SCENARIOS / scenario))
    tag = next(tag for tag, names in cli.REPRODUCE_TAGS.items() if names == [scenario])
    assert run_cli(["reproduce", tag, *extra], tmp_path, monkeypatch) == 0
    assert run_cli([command, str(SCENARIOS / scenario), *extra, "--out", "long.csv"], tmp_path, monkeypatch) == 0
    long: dict[tuple, dict[str, dict]] = {}
    for row in _read_rows(tmp_path / "long.csv"):
        long.setdefault(tuple(row[k] for k in keys), {})[row["statistic"]] = row
    wide = [row for row in _read_rows(tmp_path / sc.get("output", "path"))
            if tuple(row[k] for k in keys) in long]  # change: the theory-only families drop out
    assert len(wide) == len(long) > 0
    assert all(set(named) == statistics for named in long.values())
    for row in wide:
        named = long[tuple(row[k] for k in keys)]
        for column in row.keys() - set(keys) - exempt:
            statistic, field = _long_field(column)
            expected = named[statistic][field] if statistic in named else ""
            assert row[column] == expected, (column, row)


def test_matched_row_reports_the_matched_runs_truncations(tmp_path, monkeypatch):
    # at a horizon of 3 asymptotic sample numbers the redesigned fusion test truncates
    code = run_cli(["sequential", str(SCENARIOS / "fig_are_gauss.scn"), "--trials", "200",
                    "--set", "experiment.snr_db_list=-20", "--set", "detector.p_e_list=0.01",
                    "--set", "experiment.max_n_factor=3"], tmp_path, monkeypatch)
    assert code == 0
    rows = {row["statistic"]: row for row in _read_rows(tmp_path / "fig_are_gauss.csv")}
    assert 0 < int(rows["en_matched_centralized"]["n_truncated"]) < 2 * 200


def test_sprt_and_matched_rows_carry_their_runs_std_err(tmp_path, monkeypatch):
    code = run_cli(["sequential", str(SCENARIOS / "fig_are_gauss.scn"), "--trials", "40",
                    "--set", "experiment.snr_db_list=-20", "--set", "detector.p_e_list=0.1",
                    "--set", "experiment.include_sprt_baseline=true"], tmp_path, monkeypatch)
    assert code == 0
    rows = {row["statistic"]: {field: float(row[field]) for field in ("estimate", "std_err")}
            for row in _read_rows(tmp_path / "fig_are_gauss.csv")}
    for name in ("en_snr_sprt", "pe_sprt", "en_matched_centralized", "are_node"):
        assert rows[name]["std_err"] > 0.0, name
    # the ratio of two independent runs, by the delta method
    matched, node, are = rows["en_matched_centralized"], rows["en_node"], rows["are_node"]
    assert math.isclose(are["estimate"], matched["estimate"] / node["estimate"], rel_tol=1e-9)
    assert math.isclose(are["std_err"], are["estimate"] * math.hypot(matched["std_err"] / matched["estimate"],
                                                                     node["std_err"] / node["estimate"]),
                        rel_tol=1e-9)


def test_both_sprt_rows_count_the_sprt_runs_truncations(tmp_path, monkeypatch):
    # a horizon of 0.3 times the asymptotic sample number truncates most SPRT
    # trials, and pe_sprt counts them as en_snr_sprt and pe_centralized count theirs
    code = run_cli(["sequential", str(SCENARIOS / "fig_perr_mixt.scn"), "--trials", "200",
                    "--set", "experiment.snr_db_list=-20", "--set", "detector.p_e_list=0.01",
                    "--set", "experiment.max_n_factor=0.3"], tmp_path, monkeypatch)
    assert code == 0
    truncated = {row["statistic"]: int(row["n_truncated"]) for row in _read_rows(tmp_path / "fig_perr_mixt.csv")}
    assert truncated["pe_sprt"] == truncated["en_snr_sprt"] == 389


def _dense_replay(sc, v: int, slots: int, dist, nonlin, stream: int, mode: WeightMode, include: bool):
    """(states, centralized statistics) of the dense recursion fed a dump's draws.

    Each slot draws W by the dense oracle's gossip_matrix and then the sample,
    from the generator the dump uses, so both sides see the same pairs and
    values.
    """
    topology = topology_from_scenario(sc)
    rng = chunk_rng(int(sc.get("montecarlo", "seed")), stream)
    run = ConsensusRun(topology.M, mode, include_new_sample_in_exchange=include)
    states, central = [], []
    for _ in range(slots):
        run.step(gossip_matrix(topology, v, rng),
                 nonlin(dist.sample(rng, topology.M)))
        states.append(run.state.copy())
        central.append(run.centralized_state())
    return np.array(states), np.array(central)


def _assert_close(actual, expected):
    # 1e-9 relative to the trajectory's scale, so that values near zero do
    # not turn last-bit differences of the pairwise sums into large ratios
    np.testing.assert_allclose(actual, expected, rtol=1e-9, atol=1e-9 * np.abs(expected).max())


def _scenario(name: str, overrides: list[str]):
    sc = load(str(SCENARIOS / name))
    for item in overrides:
        apply_override(sc, *item.split("=", 1))
    return sc


@pytest.mark.parametrize("command, mode, include", [
    (["bounds", "fig_bound1_kneighbor.scn", "experiment.n_max=30", "topology.v=3"], WeightMode.AVERAGING, False),
    # fss dumps at the first entry of its v_list
    (["fss", "fig_fss3.scn", "experiment.n_list=10,30", "experiment.v_list=3,1"], WeightMode.ACCUMULATING, True),
], ids=["bounds-new-sample-held", "fss-new-sample-exchanged"])
def test_dump_trajectory_matches_dense_recursion(command, mode, include, tmp_path, monkeypatch):
    kind, name, *overrides = command
    sets = [arg for item in overrides for arg in ("--set", item)]
    code = run_cli([kind, str(SCENARIOS / name), *sets, "--trials", "10", "--dump-trajectory", "traj.csv"],
                   tmp_path, monkeypatch)
    assert code == 0
    sc = _scenario(name, overrides)
    model = cli.model_from_scenario(sc)
    M = topology_from_scenario(sc).M
    dump = np.loadtxt(tmp_path / "traj.csv", delimiter=",", skiprows=1).reshape(-1, M, 5)
    assert dump.shape[0] == 30
    states, central = _dense_replay(sc, 3, 30, model.null, cli.nonlinearity_from_scenario(sc, model),
                                    10**6, mode, include)
    assert (dump[:, :, 0] == np.arange(1, 31)[:, None]).all() and (dump[:, :, 1] == np.arange(M)).all()
    _assert_close(dump[:, :, 2], states)
    _assert_close(dump[:, :, 3], np.repeat(central[:, None], M, axis=1))
    _assert_close(dump[:, :, 4], states - central[:, None])


def _stopping_design(sc):
    """(M, model, statistic, detector) of the trajectory measure's one design point."""
    M = topology_from_scenario(sc).M
    snr_db = float(sc.get("experiment", "snr_db_list")[0])
    r = 1.0 / (10.0 ** (snr_db / 10.0) * cli.model_from_scenario(sc).null.var)
    model, nonlin, detector, _, _ = cli._sequential_design(sc, M, sc.get("detector", "p_e_list")[0], r)
    return M, model, nonlin, detector


def test_sequential_trajectory_matches_dense_recursion(tmp_path, monkeypatch):
    assert run_cli(["sequential", str(SCENARIOS / "fig_stopping.scn"), "--set", "topology.v=3"],
                   tmp_path, monkeypatch) == 0
    sc = _scenario("fig_stopping.scn", ["topology.v=3"])
    M, model, nonlin, detector = _stopping_design(sc)
    dump = np.loadtxt(tmp_path / "fig_stopping.csv", delimiter=",", skiprows=1)
    states, central = _dense_replay(sc, 3, len(dump), model.alt, nonlin, 0, WeightMode.ACCUMULATING, True)
    shift = np.arange(1, len(dump) + 1) * M * detector.eta_r
    _assert_close(dump[:, 1], central - shift)
    _assert_close(dump[:, 2:], states - shift[:, None])


@pytest.mark.parametrize("overrides, horizon", [
    ([], None), (["montecarlo.seed=11"], None), (["experiment.max_n_factor=0.001"], 10),
], ids=["bundled", "seed-11", "horizon-first"])
def test_sequential_trajectory_stops_where_the_rule_does(overrides, horizon, tmp_path, monkeypatch, capsys):
    # each printed crossing slot is the first row where that column leaves (a_r, b_r), and the path ends
    # at the last of them; a horizon (max_n_factor's) that comes first ends it with no crossing printed
    sets = [arg for item in overrides for arg in ("--set", item)]
    assert run_cli(["sequential", str(SCENARIOS / "fig_stopping.scn"), *sets], tmp_path, monkeypatch) == 0
    printed = re.search(r"centralized=(\w+), nodes=\[(.*)\]", capsys.readouterr().out)
    _, _, _, detector = _stopping_design(_scenario("fig_stopping.scn", overrides))
    dump = np.loadtxt(tmp_path / "fig_stopping.csv", delimiter=",", skiprows=1, ndmin=2)
    assert (dump[:, 0] == np.arange(1, len(dump) + 1)).all()
    outside = (dump[:, 1:] >= detector.b_r) | (dump[:, 1:] <= detector.a_r)
    first = [str(column.argmax() + 1) if column.any() else "None" for column in outside.T]
    assert [printed[1], *printed[2].split(", ")] == first
    if horizon is None:
        assert len(dump) == max(map(int, first))
    else:
        assert len(dump) == horizon and set(first) == {"None"}
