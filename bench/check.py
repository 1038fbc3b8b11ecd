"""Correctness checks on the CSV outputs of one benchmark pass.

The reference for a workload is built from replicate passes at seeds the
benchmark never uses (see `make_reference.py`).  Each cell of each output is
classified by how it behaved across the replicates:

* identical text in every replicate: a deterministic value (threshold, rate
  or delay formula, asymptote, efficiency, grid coordinate, count).  A run
  must match it to near machine precision;
* varying: a Monte Carlo estimate.  The reference keeps its replicate mean,
  the standard error of that mean and the replicate standard deviation.  A
  run fails the check when its estimate is further from the reference mean
  than `Z_LIMIT` combined standard errors.  The run's own standard error is
  the larger of the one it printed next to the estimate (if any) and the
  replicate standard deviation.

A byte comparison is not used: a change of sampler legitimately changes the
streams.  Theory is not used either: some of it is known to disagree with the
simulation.  Outputs whose shape depends on the seed, or that restate another
output per trial, get invariant checks instead (`INVARIANTS`).
"""

from __future__ import annotations

import csv
import math
import statistics
from pathlib import Path

Z_LIMIT = 6.0
EXACT_RTOL = 1e-9
EXACT_ATOL = 1e-12


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def se_column(header: list[str], column: str) -> str | None:
    """Name of the column holding the standard error of `column`, if any."""
    for candidate in (f"{column}_se", column.removesuffix("_est") + "_se"):
        if candidate != column and candidate in header:
            return candidate
    if column == "estimate" and "std_err" in header:
        return "std_err"
    return None


def is_se_column(name: str) -> bool:
    return name.endswith("_se") or name == "std_err"


# ---------------------------------------------------------------------------
# Invariant checks (see the module docstring)
# ---------------------------------------------------------------------------

def _check_trajectory(out_dir: Path, name: str) -> tuple[int, list[str]]:
    """Gossip conserves the sum: the node states average to the oracle.

    The row count depends on the seed, so the whole file counts as one check.
    """
    header, rows = read_csv(out_dir / name)
    if header[:2] != ["n", "centralized"] or not rows:
        return 1, [f"{name}: unexpected header {header[:2]} or no rows"]
    failures = []
    for k, row in enumerate(rows, start=1):
        central = float(row[1])
        nodes = [float(cell) for cell in row[2:]]
        if int(row[0]) != k:
            failures.append(f"{name}: row {k} has slot {row[0]}")
        if abs(sum(nodes) / len(nodes) - central) > 1e-9 * max(1.0, abs(central), *map(abs, nodes)):
            failures.append(f"{name}: slot {k} node mean {sum(nodes) / len(nodes)} != centralized {central}")
    return 1, failures[:1] + ([f"{name}: {len(failures) - 1} more"] if len(failures) > 1 else [])


def _check_trial_dump(out_dir: Path, name: str) -> tuple[int, list[str]]:
    """Per-trial records agree with the summary table written beside them."""
    header, rows = read_csv(out_dir / name)
    if header != ["mode", "gamma", "trial", "alarm_time", "decision"]:
        return 1, [f"{name}: unexpected header {header}"]
    s_header, s_rows = read_csv(out_dir / "cusum_delay.csv")
    col = {c: i for i, c in enumerate(s_header)}
    failures = []
    checks = 0
    for srow in s_rows:
        family, gamma = srow[col["family"]], float(srow[col["gamma"]])
        times = [int(r[3]) for r in rows if r[0] == family and float(r[1]) == gamma and r[4] == "detection"]
        expected_count = int(srow[col["n_trials"]])
        mean = sum(times) / len(times) if times else float("nan")
        reported = float(srow[col["estimate"]])
        checks += 2
        if len(times) != expected_count:
            failures.append(f"{name}: {family} has {len(times)} detections, summary says {expected_count}")
        if not math.isclose(mean, reported, rel_tol=1e-10):
            failures.append(f"{name}: {family} mean alarm time {mean} != summary {reported}")
    checks += 1
    if len(rows) != sum(int(r[col["n_trials"]]) + int(r[col["n_truncated"]]) for r in s_rows):
        failures.append(f"{name}: {len(rows)} records do not match the summary trial counts")
    return checks, failures


INVARIANTS = {
    "fig_stopping.csv": _check_trajectory,
    "cusum_delay_trials.csv": _check_trial_dump,
}


# ---------------------------------------------------------------------------
# Reference building and comparison
# ---------------------------------------------------------------------------

def build_reference(replicate_dirs: list[Path]) -> dict:
    """Classify every cell of every output across replicate pass directories."""
    names = sorted(p.name for p in replicate_dirs[0].glob("*.csv"))
    reference: dict = {"replicates": len(replicate_dirs), "files": {}}
    for name in names:
        if name in INVARIANTS:
            reference["files"][name] = {"invariant": True}
            continue
        tables = [read_csv(d / name) for d in replicate_dirs]
        header, rows = tables[0]
        for other_header, other_rows in tables[1:]:
            if other_header != header or len(other_rows) != len(rows):
                raise ValueError(f"{name}: replicates differ in shape")
        cells = []
        for i in range(len(rows)):
            row_ref = []
            for j, column in enumerate(header):
                texts = [t[1][i][j] for t in tables]
                if len(set(texts)) == 1:
                    row_ref.append(texts[0])
                elif is_se_column(column):
                    row_ref.append(None)  # a standard error is checked through its estimate
                else:
                    values = [float(text) for text in texts]
                    sd = statistics.stdev(values)
                    row_ref.append([statistics.fmean(values), sd / math.sqrt(len(values)), sd])
            cells.append(row_ref)
        reference["files"][name] = {"header": header, "cells": cells}
    return reference


def _exact_match(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        return math.isclose(float(got), float(want), rel_tol=EXACT_RTOL, abs_tol=EXACT_ATOL)
    except ValueError:
        return False


def check_outputs(out_dir: Path, reference: dict) -> tuple[int, list[str]]:
    """Compare one pass's outputs with the reference; (checks run, failures)."""
    checks = 0
    failures: list[str] = []
    present = sorted(p.name for p in out_dir.glob("*.csv"))
    checks += 1
    if present != sorted(reference["files"]):
        failures.append(f"output files {present} != expected {sorted(reference['files'])}")
    for name, ref in reference["files"].items():
        if not (out_dir / name).exists():
            continue
        if ref.get("invariant"):
            n, bad = INVARIANTS[name](out_dir, name)
            checks += n
            failures += bad
            continue
        header, rows = read_csv(out_dir / name)
        checks += 1
        if header != ref["header"] or len(rows) != len(ref["cells"]):
            failures.append(f"{name}: header or row count differs from the reference")
            continue
        for i, (row, row_ref) in enumerate(zip(rows, ref["cells"])):
            for j, (got, want) in enumerate(zip(row, row_ref)):
                if want is None:
                    continue
                checks += 1
                where = f"{name} row {i + 1} {header[j]}"
                if isinstance(want, str):
                    if not _exact_match(got, want):
                        failures.append(f"{where}: {got} != {want}")
                    continue
                mean, se_ref, sd = want
                se_name = se_column(header, header[j])
                try:
                    value = float(got)
                    se_run = max(sd, float(row[header.index(se_name)])) if se_name else sd
                except ValueError:
                    failures.append(f"{where}: unreadable value {got!r}")
                    continue
                combined = math.hypot(se_run, se_ref)
                if not abs(value - mean) <= Z_LIMIT * combined:
                    failures.append(
                        f"{where}: {value} is {abs(value - mean) / combined:.1f} "
                        f"standard errors from the reference {mean}"
                    )
    return checks, failures


def compare_bytes(first: Path, second: Path) -> tuple[int, list[str]]:
    """Byte comparison of the CSVs of two passes at the same seed."""
    names = sorted(p.name for p in first.glob("*.csv"))
    failures = []
    if names != sorted(p.name for p in second.glob("*.csv")):
        return 1, [f"{first} and {second} hold different files"]
    for name in names:
        if (first / name).read_bytes() != (second / name).read_bytes():
            failures.append(f"{name} differs between {first.name} and {second.name}")
    return len(names), failures
