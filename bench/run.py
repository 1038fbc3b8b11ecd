"""Benchmark of the runcons CLI: end-to-end times, or a traced per-layer breakdown.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from `src/`.
Each workload is a fixed sequence of `runcons` invocations (a *pass*).  Every
pass is a fresh child interpreter (`child.py`) that makes the invocations one
after another, started only after the previous pass ended: a closed loop with
one client.  Children are pinned to one BLAS/OpenMP thread, so the load stays
within the workload's own `--threads`.

A run repeats passes, each at its own seed derived from `--seed`, until
`--seconds` are spent.  End-to-end metrics (`--trace 0`) are medians over the
passes of the run.  With `--trace 1` the run alternates an untraced and a
traced pass at the same seed: the traced children wrap every public function
of each layer (`tracing.py`), and the CSVs of the two passes must be
byte-identical.

Times are reported at a reference speed.  On a host shared with other
tenants a core can run up to about 1.6 times slower for seconds to minutes at
a time, and CPU time grows with wall time, so neither shows the program's own
cost.  The parent therefore times a fixed kernel (`calibrate`) right before
and right after each child, and scales the child's times by
`CALIBRATION_REF_S` over the mean of the two: a time in seconds on a core
that runs the kernel in `CALIBRATION_REF_S`.  The kernel is benchmark code,
so a change to runcons cannot move it.  The unscaled times are in the record
line before the result.  Per-layer times are not scaled.

Every pass's outputs are checked against `reference/<workload>.json`
(`check.py`).  The last line of standard output is the result object; the line
before it records the measured code and the machine.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
from tracing import LAYERS, clock  # noqa: E402

WORK_DIR = ROOT / ".bench_work"
MIN_PASSES = 2
CHILD_TIMEOUT_S = 150.0
PIN_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# `calibrate` on an uncontended core of a 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4)
CALIBRATION_REF_S = 0.150


@dataclass(frozen=True)
class Invocation:
    args: tuple[str, ...]  # runcons arguments, without --seed
    trials: int  # the --trials given in args (0 if none), for trial-slot accounting


@dataclass(frozen=True)
class Workload:
    why: str
    invocations: tuple[Invocation, ...]


def _invocation(*args: str) -> Invocation:
    return Invocation(args, int(args[args.index("--trials") + 1]) if "--trials" in args else 0)


DELAY_SCENARIO = HERE / "scenarios" / "cusum_delay.scn"

WORKLOADS = {
    "cusum_rate": Workload(
        "false-alarm run lengths of three CUSUM families at 2 threads: the chi-square sampler, "
        "the lockstep tail of nearly exponential run lengths and the thread pool",
        (_invocation("reproduce", "fig:sim2", "--trials", "5000", "--threads", "2",
                     "--set", "experiment.gamma_list=1.2,1.8"),),
    ),
    "cusum_delay": Workload(
        "detection delays of the same engine with concentrated stops, so lane refill gains little "
        "while the sampler still shows; the per-trial dump loads the CSV writer",
        (_invocation("change", str(DELAY_SCENARIO), "--trials", "250", "--threads", "1",
                     "--dump-trials", "cusum_delay_trials.csv"),),
    ),
    "design_theory": Workload(
        "moment quadrature, the sequential and probability-ratio stopping engines, the "
        "relative-efficiency g-factor integral, eigensolve, covariance engine and trajectory "
        "path; bypasses the CUSUM engine",
        (
            _invocation("reproduce", "fig:PerrMixt", "--trials", "200", "--threads", "1",
                        "--set", "experiment.snr_db_list=-30,-20"),
            _invocation("reproduce", "fig:RE1"),
            _invocation("reproduce", "fig:RE2"),
            _invocation("reproduce", "fig:bound1", "--trials", "1000", "--threads", "1"),
            _invocation("reproduce", "fig:stopping"),
        ),
    ),
}

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "trial_slots_per_s": "1/s",
    "peak_rss_mb": "MB",
    "checks_run": "count",
}

# Which end-to-end metric each layer metric should move, on which workload:
# - page_run_lengths self time, calls and ns per lane slot by family (bank
#   isolates the sampler, running minus bank the gossip kernel): run_s and
#   trial_slots_per_s on cusum_rate and cusum_delay.  Lane and lockstep slots
#   and occupancy show the lockstep tail: large on cusum_rate, small on
#   cusum_delay.
# - estimate_stopping, estimate_sprt_stopping, estimate_covariance,
#   stats.moments and integrate_real_line (moment quadrature): run_s on
#   design_theory.
# - bank_delay: run_s on cusum_delay (its theory rows).  relative_efficiencies
#   (g_factor, survival_power_integral): run_s on design_theory.
# - expected_gossip_matrix, sample_gossip_matrix, ConsensusRun.step: run_s on
#   design_theory.  sequential_design: design_theory.
# - scenario.parse: setup_s everywhere.  write_csv: run_s on cusum_delay.
_SPAN_METRICS = (
    ("montecarlo.page_run_lengths", ("self_s", "calls")),
    ("montecarlo.estimate_stopping", ("self_s", "calls")),
    ("montecarlo.estimate_sprt_stopping", ("self_s",)),
    ("montecarlo.estimate_covariance", ("self_s",)),
    ("stats.moments", ("self_s", "total_s", "calls")),
    ("stats.integrate_real_line", ("self_s",)),
    ("analysis.bank_delay", ("self_s", "calls")),
    ("analysis.relative_efficiencies", ("self_s",)),
    ("network.expected_gossip_matrix", ("self_s",)),
    ("network.sample_gossip_matrix", ("self_s",)),
    ("consensus.ConsensusRun.step", ("self_s",)),
    ("detectors.sequential_design", ("self_s",)),
    ("scenario.parse", ("self_s",)),
    ("cli.write_csv", ("self_s",)),
)
RUN_FAMILIES = ("centralized", "running", "bank")

PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{span}.{field}": ("count" if field == "calls" else "s")
       for span, fields in _SPAN_METRICS for field in fields},
    "montecarlo.page_run_lengths.lane_slots": "count",
    "montecarlo.page_run_lengths.lockstep_slots": "count",
    "montecarlo.page_run_lengths.occupancy": "ratio",
    **{f"montecarlo.page_run_lengths.{family}.ns_per_lane_slot": "ns" for family in RUN_FAMILIES},
    "montecarlo.estimate_stopping.trials": "count",
    "cli.write_csv.rows": "count",
    "trace.run_s": "s",
    "trace.overhead_frac": "ratio",
}


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------

def calibrate() -> float:
    """Seconds taken by a fixed kernel of runcons' kinds of work, in about equal parts:
    an interpreted loop, many numpy calls on small arrays, chi-square draws and
    passes over an array larger than the caches."""
    start = clock()
    total = 0
    for i in range(450_000):
        total += i * i
    rng = np.random.default_rng(0)
    small = rng.standard_normal(2_500)
    for _ in range(3_000):
        small = np.sqrt(np.abs(small * 1.0001))
    for _ in range(300):
        rng.chisquare(1.0, 2_500)
    large = rng.standard_normal(200_000)
    for _ in range(30):
        large = np.sqrt(np.abs(large * 1.0001))
    return clock() - start


def run_child(steps: list[tuple[Path, list[str]]], out_dir: Path, mode: str) -> dict:
    """One child interpreter making each step (output directory, runcons arguments) in turn.

    Returns its exit code, timings and resource usage: `setup_s` up to the
    first scenario parse, `run_s` per step from its parse to its return.
    `scale` converts the child's times to the reference speed (module docstring).
    """
    out_dir.mkdir(parents=True)
    for step_dir, _ in steps:
        step_dir.mkdir()
    record_path = out_dir / "record.json"
    plan = json.dumps([[str(step_dir), args] for step_dir, args in steps])
    env = dict(os.environ, **PIN_THREADS)
    before = calibrate()
    with open(out_dir / "child.log", "wb") as log:
        start = clock()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(record_path), mode, plan],
            stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        end = clock()
        proc.returncode = os.waitstatus_to_exitcode(status)
    result = {
        "exit_code": proc.returncode,
        "wall_s": end - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "scale": CALIBRATION_REF_S / statistics.fmean((before, calibrate())),
    }
    if proc.returncode == 0 and record_path.exists():
        record = json.loads(record_path.read_text())
        result["setup_s"] = record["steps"][0]["parsed_at"] - start
        result["run_s"] = [step["returned_at"] - step["parsed_at"] for step in record["steps"]]
        result["trace"] = record.get("trace")
    else:
        result["log"] = (out_dir / "child.log").read_text(errors="replace")[-2000:]
    return result


def useful_trial_slots(out_dir: Path, invocation: Invocation) -> float:
    """Finished trials times mean stopping slot, summed over every estimate.

    This normalizes run time by the realized amount of simulation, which
    varies with the seed (run lengths are random) independently of speed.
    """
    total = 0.0
    for path in sorted(out_dir.glob("*.csv")):
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        if not rows:
            continue
        columns = rows[0].keys()
        if "R_sim" in columns:  # operating-characteristic table
            for row in rows:
                finished = int(row["n_trials"]) - int(row["n_truncated"])
                if row["R_sim"]:
                    total += finished / float(row["R_sim"])
                if row["D_sim"]:
                    total += int(row["n_trials"]) * float(row["D_sim"])
        elif "statistic" in columns and "gamma" in columns:  # long change table
            for row in rows:
                if row["statistic"] in ("mean_run_length_null", "mean_delay"):
                    total += int(row["n_trials"]) * float(row["estimate"])
        elif "en_snr_node" in columns:  # sequential table: both hypotheses ran
            for row in rows:
                for column in ("en_snr_centralized", "en_snr_node", "en_snr_sprt"):
                    if row.get(column):
                        total += 2 * invocation.trials * float(row[column]) / float(row["snr"])
        elif "gamma_est" in columns:  # covariance study: every trial runs every slot
            total += invocation.trials * len(rows)
        elif columns and next(iter(columns)) == "n" and "centralized" in columns:  # one trajectory
            total += len(rows)
    return total


def run_pass(workload: Workload, seed: int, out_dir: Path, mode: str, reference: dict | None) -> dict:
    """Every invocation of the workload at one seed; outputs checked if reference given.

    Times are at the reference speed, except the `measured_` ones.
    """
    step_dirs = [out_dir / f"step-{k}" for k in range(len(workload.invocations))]
    child = run_child(
        [(step_dir, [*invocation.args, "--seed", str(seed)])
         for step_dir, invocation in zip(step_dirs, workload.invocations)],
        out_dir, mode,
    )
    slots = 0.0
    checks, failures = 1, []
    if child["exit_code"] != 0:
        failures.append(f"child exited {child['exit_code']}: {child['log']}")
    else:
        slots = sum(useful_trial_slots(d, inv) for d, inv in zip(step_dirs, workload.invocations))
    for step_dir in step_dirs:
        for path in step_dir.glob("*.csv"):
            path.rename(out_dir / path.name)
    if not failures and reference is not None:
        n, bad = check.check_outputs(out_dir, reference)
        checks += n
        failures += bad
    measured_run_s = sum(child.get("run_s", [child["wall_s"]]))
    return {
        "seed": seed,
        "child": child,
        "setup_s": child.get("setup_s", child["wall_s"]) * child["scale"],
        "run_s": measured_run_s * child["scale"],
        "cpu_s": child["cpu_s"] * child["scale"],
        "measured_run_s": measured_run_s,
        "measured_cpu_s": child["cpu_s"],
        "rss_mb": child["rss_mb"],
        "trial_slots": slots,
        "checks": checks,
        "failures": failures,
    }


def pass_seed(seed: int, index: int) -> int:
    """Seed of pass `index` of a run; distinct runs never share a pass seed."""
    return seed * 1000 + index


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end_metrics(passes: list[dict]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "run_s": statistics.median(p["run_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "trial_slots_per_s": statistics.median(p["trial_slots"] / p["run_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "checks_run": statistics.median(p["checks"] for p in passes),
    }


def per_layer_metrics(traced: list[dict], plain: list[dict]) -> dict[str, float]:
    """Per-pass means of the traced children's span summaries and counters."""
    totals: dict[str, dict[str, dict[str, float]]] = {"spans": {}, "tagged": {}}
    counts: dict[str, float] = {}
    for p in traced:
        trace = p["child"]["trace"]
        for kind, into in totals.items():
            for name, entry in trace[kind].items():
                for field, value in entry.items():
                    into.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})[field] += value
        for name, value in trace["counts"].items():
            counts[name] = counts.get(name, 0) + value
    n = len(traced)
    spans, tagged = totals["spans"], totals["tagged"]
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    metrics = {
        f"{layer}.self_s": sum(e["self_s"] for name, e in spans.items() if name.split(".")[0] == layer) / n
        for layer in LAYERS
    }
    for span, fields in _SPAN_METRICS:
        for field in fields:
            metrics[f"{span}.{field}"] = spans.get(span, empty)[field] / n
    prefix = "montecarlo.page_run_lengths"
    capacity = counts.get(f"{prefix}.lane_capacity", 0)
    metrics[f"{prefix}.lane_slots"] = counts.get(f"{prefix}.lane_slots", 0) / n
    metrics[f"{prefix}.lockstep_slots"] = counts.get(f"{prefix}.lockstep_slots", 0) / n
    metrics[f"{prefix}.occupancy"] = counts.get(f"{prefix}.lane_slots", 0) / capacity if capacity else 0.0
    for family in RUN_FAMILIES:
        lane_slots = counts.get(f"{prefix}.{family}.lane_slots", 0)
        self_s = tagged.get(f"{prefix}.{family}", empty)["self_s"]
        metrics[f"{prefix}.{family}.ns_per_lane_slot"] = 1e9 * self_s / lane_slots if lane_slots else 0.0
    for name in ("montecarlo.estimate_stopping.trials", "cli.write_csv.rows"):
        metrics[name] = counts.get(name, 0) / n
    metrics["trace.run_s"] = statistics.median(p["run_s"] for p in traced)
    metrics["trace.overhead_frac"] = metrics["trace.run_s"] / statistics.median(p["run_s"] for p in plain) - 1.0
    return metrics


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    status = _git("status", "--porcelain", "--", "src")
    return {
        "git_rev": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def load_reference(name: str) -> dict:
    return json.loads((HERE / "reference" / f"{name}.json").read_text())


def validate_inputs() -> None:
    """Fail before any timing if the program or the benchmark's scenario is unusable."""
    if not (ROOT / "src" / "runcons").is_dir():
        raise SystemExit(f"error: no runcons sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    from runcons import scenario

    scenario.load(DELAY_SCENARIO)


def measure(workload_name: str, seed: int, seconds: float, trace: bool, work_dir: Path,
            reference: dict | None) -> dict:
    """Run passes until `seconds` are spent; raw records."""
    workload = WORKLOADS[workload_name]
    deadline = clock() + seconds
    passes: list[dict] = []
    traced: list[dict] = []
    while True:
        started = clock()
        index = len(passes)
        passes.append(run_pass(workload, pass_seed(seed, index), work_dir / f"pass-{index}", "plain", reference))
        if trace:
            tpass = run_pass(workload, pass_seed(seed, index), work_dir / f"traced-{index}", "trace", None)
            n, bad = check.compare_bytes(work_dir / f"pass-{index}", work_dir / f"traced-{index}")
            tpass["checks"] += n
            tpass["failures"] += bad
            traced.append(tpass)
        lap = clock() - started
        enough = len(passes) >= (1 if trace else MIN_PASSES)
        if any(p["failures"] for p in passes + traced) or (enough and clock() + lap > deadline):
            return {"passes": passes, "traced": traced}


def summarize(measured: dict, trace: bool) -> dict:
    """The result object: checks attempted and failed, and the metrics."""
    passes, traced = measured["passes"], measured["traced"]
    failures = [f for p in passes + traced for f in p["failures"]]
    if any(p["child"]["exit_code"] != 0 for p in passes + traced):
        metrics = {}
    elif trace:
        metrics = per_layer_metrics(traced, passes)
    else:
        metrics = end_to_end_metrics(passes)
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": not failures,
        "attempted": sum(p["checks"] for p in passes + traced),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "failures": failures,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    validate_inputs()

    work_dir = WORK_DIR / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    measured = measure(args.workload, args.seed, args.seconds, bool(args.trace), work_dir,
                       load_reference(args.workload))
    result = summarize(measured, bool(args.trace))
    for failure in result.pop("failures"):
        print(f"check failed: {failure}", file=sys.stderr)
    passes = [{k: v for k, v in p.items() if k != "child"} for p in measured["passes"] + measured["traced"]]
    print(json.dumps({"environment": environment(), "passes": passes}))
    print(json.dumps(result))
    if result["correct"]:
        shutil.rmtree(work_dir, ignore_errors=True)
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
