"""Byte identity of every CSV the command line writes, pinned by SHA-256.

Each case runs the CLI into a fresh directory and hashes every file it leaves
there.  The expected hashes live in ``golden_hashes.json`` beside this file.
A change that is meant to alter the bytes (a new sampler, say) re-baselines
by pasting the hashes that the failure message prints into that file.
"""

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from runcons import cli

HASH_FILE = Path(__file__).with_name("golden_hashes.json")
SCENARIOS = Path(cli.__file__).with_name("scenarios")
SPECTRAL = Path(__file__).with_name("spectral_ring_chord.scn")  # absolute, so SCENARIOS / SPECTRAL is itself

# reproduce tags at the sizes of test_cli.test_every_reproduce_tag_runs_end_to_end
_SEQUENTIAL_SMALL = ["--trials", "40", "--set", "experiment.snr_db_list=-20"]
_CHANGE_SMALL = ["--trials", "25", "--set", "experiment.gamma_list=1.2,2.0"]
REPRODUCE = {
    "fig:bound1": ["--trials", "40", "--set", "experiment.n_max=30"],
    "fig:bound2": ["--trials", "40", "--set", "experiment.n_max=30"],
    "fig:FSS3": ["--trials", "40", "--set", "experiment.n_list=10,30", "--set", "experiment.v_list=1"],
    "fig:NmedGauss": [*_SEQUENTIAL_SMALL, "--set", "detector.p_e_list=0.1"],
    "fig:PerrGauss": [*_SEQUENTIAL_SMALL, "--set", "detector.p_e_list=0.1"],
    "fig:AREGauss": [*_SEQUENTIAL_SMALL, "--set", "detector.p_e_list=0.1"],
    "fig:NmedMixt": _SEQUENTIAL_SMALL,
    "fig:PerrMixt": _SEQUENTIAL_SMALL,
    "fig:stopping": [],
    "fig:sim2": _CHANGE_SMALL,
    "fig:sim1": _CHANGE_SMALL,
    "fig:RE1": [],
    "fig:RE2": [],
}

# subcommands on bundled scenario files (spectral on its own, beside this file): the long tables and the dumps
_MULTI_CHUNK = ["change", "fig_sim1.scn", "--trials", "2600", "--set", "experiment.gamma_list=1.2"]
_FSS_SMALL = ["fss", "fig_fss3.scn", "--trials", "40", "--set", "experiment.n_list=10,30"]
SUBCOMMANDS = {
    "bounds": ["bounds", "fig_bound1_kneighbor.scn", "--trials", "40",
               "--set", "experiment.n_max=30", "--dump-trajectory", "trajectory.csv"],
    "fss": [*_FSS_SMALL, "--dump-trajectory", "trajectory.csv"],
    # the score's closed-form Gaussian moments; the LLR's moments move with theta, its slope is E_theta0[t s]
    "fss-score": [*_FSS_SMALL, "--set", "model.nonlinearity=score"],
    "fss-llr": [*_FSS_SMALL, "--set", "model.nonlinearity=llr"],
    # one node: no pair to gossip
    "fss-one-node": [*_FSS_SMALL, "--set", "topology.m=1"],
    # 47 trials: 11 groups of 4 and a ragged group of 3 in the covariance engine
    "bounds-ragged-group": ["bounds", "fig_bound1_kneighbor.scn", "--trials", "47", "--set", "experiment.n_max=30"],
    # several exchanges per slot in both dump branches: new sample held, exchanged
    "bounds-dump-v3": ["bounds", "fig_bound1_kneighbor.scn", "--trials", "40", "--set", "experiment.n_max=30",
                       "--set", "topology.v=3", "--dump-trajectory", "trajectory.csv"],
    "fss-dump-v3": [*_FSS_SMALL, "--set", "experiment.v_list=3", "--dump-trajectory", "trajectory.csv"],
    # two nodes: one gossip averages them exactly, so lambda_U = lambda_L = 0 in the bounds
    "bounds-two-nodes-held": ["bounds", "fig_bound1_complete.scn", "--trials", "40", "--set", "experiment.n_max=30",
                              "--set", "topology.m=2"],
    "bounds-two-nodes-exchanged": ["bounds", "fig_bound1_complete.scn", "--trials", "40",
                                   "--set", "experiment.n_max=30", "--set", "topology.m=2",
                                   "--set", "experiment.include_new_sample=true"],
    # the covariance engine over three chunks, the last one ragged, shared by two workers
    "bounds-multi-chunk-threads2": ["bounds", "fig_bound1_kneighbor.scn", "--trials", "5010", "--threads", "2",
                                    "--set", "experiment.n_max=20"],
    "sequential-asn": ["sequential", "fig_nmed_gauss.scn", *_SEQUENTIAL_SMALL,
                       "--set", "detector.p_e_list=0.05,0.1", "--dump-trajectory", "trajectory.csv"],
    "sequential-are": ["sequential", "fig_are_gauss.scn", *_SEQUENTIAL_SMALL,
                       "--set", "detector.p_e_list=0.1"],
    "sequential-sprt": ["sequential", "fig_perr_mixt.scn", *_SEQUENTIAL_SMALL],
    "sequential-llr-mixture": ["sequential", "fig_nmed_mixt.scn", *_SEQUENTIAL_SMALL,
                               "--set", "model.nonlinearity=llr"],
    "sequential-trajectory": ["sequential", "fig_stopping.scn"],
    "change-rate": ["change", "fig_sim2.scn", *_CHANGE_SMALL],
    "change-all-families": ["change", "fig_sim1.scn", *_CHANGE_SMALL,
                            "--set", "experiment.families=centralized,running,bank,single",
                            "--dump-trials", "trials.csv"],
    "change-multi-chunk-threads1": [*_MULTI_CHUNK, "--threads", "1"],
    "change-multi-chunk-threads2": [*_MULTI_CHUNK, "--threads", "2"],
    "spectral": ["spectral", SPECTRAL],
    "efficiency": ["efficiency", "fig_re1.scn"],
}

CASES = {
    **{f"reproduce-{tag}": ["reproduce", tag, *extra] for tag, extra in REPRODUCE.items()},
    **{name: [args[0], str(SCENARIOS / args[1]), *args[2:]] for name, args in SUBCOMMANDS.items()},
}


def run_case(name: str, out_dir: Path) -> dict[str, str]:
    """Run one case into out_dir; SHA-256 of every file written, by name."""
    previous = os.environ.get(cli.OUT_DIR_ENV)
    os.environ[cli.OUT_DIR_ENV] = str(out_dir)
    try:
        assert cli.main(CASES[name]) == 0, name
    finally:
        if previous is None:
            del os.environ[cli.OUT_DIR_ENV]
        else:
            os.environ[cli.OUT_DIR_ENV] = previous
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
    }


def numeric_platform() -> str:
    """Versions and SIMD targets the hashes rest on.

    The mixture density and the samplers go through numpy's own vectorised
    exp/log1p loops, whose last bit may differ between dispatch targets.
    """
    try:
        targets = np.lib.introspect.opt_func_info(func_name="^(exp|log1p)$", signature="float64")
    except AttributeError:  # numpy without the introspection module
        from numpy._core._multiarray_umath import __cpu_features__

        targets = sorted(name for name, active in __cpu_features__.items() if active)
    return f"numpy {np.__version__}, SIMD targets {targets}"


def test_every_reproduce_tag_is_pinned():
    assert set(REPRODUCE) == set(cli.REPRODUCE_TAGS)


def test_every_subcommand_is_pinned():
    assert {args[0] for args in SUBCOMMANDS.values()} == set(cli.RUNNERS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_bytes_match_golden_hashes(name, tmp_path):
    # a new case has no entry yet: it fails and prints the entry to paste
    expected = json.loads(HASH_FILE.read_text(encoding="utf-8")).get(name, {})
    actual = run_case(name, tmp_path)
    problems = [
        f"{name}/{file}: expected {expected.get(file)}, new hash {actual.get(file)}"
        for file in sorted(set(expected) | set(actual))
        if expected.get(file) != actual.get(file)
    ]
    assert not problems, "CSV bytes changed:\n" + "\n".join(problems) + (
        f"\non {numeric_platform()}"
        f"\nnew entry for {HASH_FILE.name}:\n" + json.dumps({name: actual}, indent=2)
    )


def test_thread_count_does_not_change_bytes(tmp_path):
    one = run_case("change-multi-chunk-threads1", tmp_path / "one")
    two = run_case("change-multi-chunk-threads2", tmp_path / "two")
    assert one == two
