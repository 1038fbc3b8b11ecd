"""Shape of the committed benchmark records, BENCH_<label>.json (tools/bench_record.py).

Only the committed files are read; the benchmark itself never runs here.
"""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_a_baseline_record_is_committed():
    assert ROOT / "BENCH_baseline.json" in RECORDS


def test_every_record_names_its_revision_and_holds_every_workload():
    for path in RECORDS:
        record = json.loads(path.read_text(encoding="utf-8"))
        assert path.name == f"BENCH_{record['label']}.json"
        assert re.fullmatch(r"[0-9a-f]{40}", record["revision"]), path.name
        assert isinstance(record["dirty"], bool)
        assert set(record["workloads"]) == WORKLOADS, path.name
        for name, run in record["workloads"].items():
            assert {"environment", "passes"} <= set(run["environment"]), (path.name, name)
            assert "metrics" in run["result"] and "attempted" in run["result"], (path.name, name)
        assert record["tier1"]["seconds"] > 0, path.name


def test_line_counts_where_recorded_are_per_module():
    # records from before the field carry no src_lines
    for path in RECORDS:
        lines = json.loads(path.read_text(encoding="utf-8")).get("src_lines")
        if lines is not None:
            assert "montecarlo.py" in lines, path.name
            for name, count in lines.items():
                assert re.fullmatch(r"\w+\.py", name) and isinstance(count, int) and count >= 0, (path.name, name)
