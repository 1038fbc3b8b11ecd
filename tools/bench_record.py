"""Record the benchmark of one or more source checkouts as BENCH_<label>.json.

    python3 tools/bench_record.py LABEL=CHECKOUT [LABEL=CHECKOUT ...]

For each checkout this runs its `bench/run.py` on every workload of
`BENCHMARK.json` at seed SEED for its `run_seconds`, and the Tier-1 suite with
`--durations=0`.  It writes `BENCH_<label>.json` at the root of the
repository that holds this script, with:

- the checkout's git revision and whether its tracked files differ from it;
- the line count of each `src/runcons/*.py` module, as `wc -l` gives it;
- the Python and numpy versions and the usable core count;
- each workload's two JSON lines as `bench/run.py` printed them (the
  environment with the passes, then the result);
- Tier-1 wall seconds, its pass/fail counts and the per-test durations of
  `tests/test_acceptance.py`.

With several checkouts, the runs alternate: workload k starts with checkout
k modulo their count, and so does Tier-1 after the last workload, so no
checkout always runs first on a warm or a cold machine.  Run the checkouts
on one machine in one session.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEED = 77
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=0"]
DURATION = re.compile(r"^([0-9.]+)s (setup|call|teardown)\s+(tests/test_acceptance\.py::.+)$")
COUNT = re.compile(r"(\d+) (passed|failed|errors?|skipped|xfailed|xpassed)")


def git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(checkout), *args], check=True, capture_output=True, text=True).stdout


def src_lines(checkout: Path) -> dict[str, int]:
    """Newline count of each src/runcons/*.py module of the checkout, by file name."""
    return {path.name: path.read_bytes().count(b"\n") for path in sorted((checkout / "src" / "runcons").glob("*.py"))}


def run_workload(checkout: Path, workload: str, seconds: float) -> dict:
    """The last two stdout lines of bench/run.py: environment with passes, then result."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True)
    environment, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    return {"exit_code": done.returncode, "environment": environment, "result": result}


def run_tier1(checkout: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))}
    start = time.perf_counter()
    done = subprocess.run(TIER1, cwd=checkout, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    durations: dict[str, dict[str, float]] = {}
    for line in done.stdout.splitlines():
        if match := DURATION.match(line):
            durations.setdefault(match[3], {})[match[2]] = float(match[1])
    summary = done.stdout.strip().splitlines()[-1]
    return {
        "seconds": round(seconds, 2),
        "exit_code": done.returncode,
        "counts": {kind: int(n) for n, kind in COUNT.findall(summary)},
        "summary": summary.strip("= "),
        "acceptance_durations_s": durations,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="+", metavar="LABEL=CHECKOUT")
    args = parser.parse_args(argv)
    checkouts = {}
    for item in args.checkouts:
        label, sep, path = item.partition("=")
        if not (sep and re.fullmatch(r"[A-Za-z0-9_.-]+", label)):
            parser.error(f"expected LABEL=CHECKOUT with a plain label, got {item!r}")
        checkouts[label] = Path(path).resolve()

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    records = {
        label: {
            "label": label,
            "revision": git(path, "rev-parse", "HEAD").strip(),
            "dirty": bool(git(path, "status", "--porcelain", "--untracked-files=no").strip()),
            "src_lines": src_lines(path),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cores": len(os.sched_getaffinity(0)),
            "seed": SEED,
            "seconds": seconds,
            "workloads": {},
        }
        for label, path in checkouts.items()
    }
    labels = list(checkouts)
    for k, step in enumerate([*(w["name"] for w in benchmark["workloads"]), "tier1"]):
        for label in labels[k % len(labels):] + labels[:k % len(labels)]:
            print(f"{label}: {step}", file=sys.stderr, flush=True)
            if step == "tier1":
                records[label]["tier1"] = run_tier1(checkouts[label])
            else:
                records[label]["workloads"][step] = run_workload(checkouts[label], step, seconds)
    for label, record in records.items():
        (ROOT / f"BENCH_{label}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"wrote BENCH_{label}.json", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
