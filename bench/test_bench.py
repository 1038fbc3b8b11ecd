"""Self-tests of the benchmark.  Run from the checkout root:

    python3 -m pytest -q bench/test_bench.py

Workloads run here at smoke size (fewer trials), one pass each.
"""

from __future__ import annotations

import dataclasses
import json
import shutil

import pytest

import check
import run
from tracing import LAYERS

SMOKE_TRIALS = 40


def smoke(workload: run.Workload) -> run.Workload:
    invocations = []
    for invocation in workload.invocations:
        args = list(invocation.args)
        if "--trials" in args:
            at = args.index("--trials") + 1
            args[at] = str(min(int(args[at]), SMOKE_TRIALS))
        invocations.append(run._invocation(*args))
    return dataclasses.replace(workload, invocations=tuple(invocations))


@pytest.fixture
def smoke_size(monkeypatch):
    for name, workload in run.WORKLOADS.items():
        monkeypatch.setitem(run.WORKLOADS, name, smoke(workload))


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_reports_every_metric(name, smoke_size, tmp_path):
    measured = run.measure(name, 5, 0.0, True, tmp_path, None)
    plain = run.summarize(measured, False)
    traced = run.summarize(measured, True)
    # the traced run also byte-compares its CSVs with the untraced pass
    assert plain["correct"] and traced["correct"], plain["failures"] + traced["failures"]
    assert {k: m["unit"] for k, m in plain["metrics"].items()} == run.END_TO_END
    assert {k: m["unit"] for k, m in traced["metrics"].items()} == run.PER_LAYER
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    self_s = sum(traced["metrics"][f"{layer}.self_s"]["value"] for layer in LAYERS)
    traced_wall = [p["child"]["wall_s"] for p in measured["traced"]]
    assert 0 < self_s <= sum(traced_wall) / len(traced_wall)


def test_result_is_the_last_line(smoke_size, monkeypatch, capsys):
    monkeypatch.setattr(run, "load_reference", lambda name: None)
    assert run.main(["--workload", "cusum_rate", "--seed", "2", "--seconds", "0", "--trace", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(json.loads(lines[-2])["environment"]) >= {"python", "numpy", "scipy", "nproc", "loadavg"}


def test_checker_accepts_a_pass_and_flags_shifted_values(tmp_path):
    reference = run.load_reference("cusum_rate")
    out = tmp_path / "pass"
    result = run.run_pass(run.WORKLOADS["cusum_rate"], 77, out, "plain", reference)
    assert result["failures"] == []

    def altered(column: str, change) -> list[str]:
        copy = tmp_path / column
        shutil.copytree(out, copy)
        header, rows = check.read_csv(copy / "fig_sim2.csv")
        rows[0][header.index(column)] = repr(change(header, rows[0]))
        (copy / "fig_sim2.csv").write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n")
        return check.check_outputs(copy, reference)[1]

    shifted = altered("R_sim", lambda h, r: float(r[h.index("R_sim")]) + 10 * float(r[h.index("R_sim_se")]))
    assert len(shifted) == 1 and "R_sim" in shifted[0]
    nudged = altered("R_accurate", lambda h, r: float(r[h.index("R_accurate")]) * (1 + 1e-6))
    assert len(nudged) == 1 and "R_accurate" in nudged[0]


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {n: w.why for n, w in run.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
