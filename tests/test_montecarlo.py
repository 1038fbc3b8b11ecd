import dataclasses
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.stats import chi2, ks_2samp, kstest

from runcons.analysis import BoundVariant, false_alarm_rate_accurate, theorem_bounds
from runcons.consensus import ConsensusRun, WeightMode
from runcons.detectors import SequentialDetector, sequential_design
from runcons.montecarlo import (
    CHUNK_SIZE,
    Estimate,
    _gossip_batch,
    _lockstep,
    _llr_sampler,
    _pair_draws,
    _run_chunks,
    _slot,
    chunk_rng,
    estimate_covariance,
    estimate_error_moments,
    estimate_error_probabilities,
    estimate_expected_square,
    estimate_sprt_stopping,
    estimate_stopping,
    node_stopping_spread,
    page_run_lengths,
)
from runcons.network import full_ring, k_neighbor_ring
from runcons.stats import (
    Gaussian,
    Identity,
    gaussian_shift_model,
    moments,
    variance_change_model,
)

from cusum_oracle import run_length
from dense_oracle import gossip_matrix


def test_estimate_from_samples_and_bernoulli():
    est = Estimate.from_samples(np.array([1.0, 2.0, 3.0]), truncated=2)
    assert est.value == pytest.approx(2.0)
    assert est.std_err == pytest.approx(1.0 / math.sqrt(3.0))
    assert est.count == 3 and est.truncated_count == 2
    b = Estimate.from_bernoulli(25, 100)
    assert b.value == pytest.approx(0.25)
    assert b.std_err == pytest.approx(math.sqrt(0.25 * 0.75 / 100))


def test_gossip_batch_matches_sequential_application():
    # each row's pairs are drawn as one trial's, so twin generators give the
    # dense product W_v ... W_1 the same pairs in the same order
    for top, v in ((k_neighbor_ring(7, 4), 4), (full_ring(10), 5)):
        states = np.random.default_rng(3).standard_normal((5, top.M))
        engine_rng, oracle_rng = np.random.default_rng(4), np.random.default_rng(4)
        idx = np.concatenate([_pair_draws(engine_rng, top, v, 1) for _ in range(5)])
        expected = np.array([gossip_matrix(top, v, oracle_rng) @ states[b] for b in range(5)])
        batch = states.copy()
        _gossip_batch(batch, top.pair_array, idx)
        np.testing.assert_allclose(batch, expected, rtol=0, atol=1e-12)


def test_gossip_batch_rejects_non_contiguous_states():
    # a strided view would be copied by the flat reshape and the averages lost
    top = full_ring(10)
    idx = np.zeros((5, 1), dtype=np.int64)
    with pytest.raises(ValueError, match="C-contiguous"):
        _gossip_batch(np.zeros((10, 5)).T, top.pair_array, idx)


def test_lockstep_keeps_lanes_aligned_with_live_trials():
    # each trial's lane holds its own id and it finishes at slot finish[id];
    # trials 3 and 7 never finish before max_n
    size, max_n = 12, 9
    finish = np.array([2, 5, 5, 0, 1, 9, 3, 0, 2, 7, 4, 6])
    seen = []

    def advance(slot, alive, lanes):
        ids = lanes[0]
        assert np.array_equal(ids, alive)
        assert ((finish[alive] == 0) | (finish[alive] >= slot)).all()
        seen.append(alive.copy())
        done = finish[ids] == slot
        return done if done.any() else None

    stop = _lockstep(size, max_n, advance, [np.arange(size)])
    assert np.array_equal(stop, finish)
    # a slot that returned None kept every lane; a finished trial is never stepped again
    for slot in range(1, len(seen)):
        assert np.array_equal(seen[slot], seen[slot - 1][finish[seen[slot - 1]] != slot])
    assert len(seen) == max_n


def test_advance_state_matches_consensus_run():
    # the engine's slot replayed through the dense recursion: twin generators
    # give the oracle the same draws, v pair indices first, then the sample
    top = full_ring(4)
    for mode in WeightMode:
        for include in (True, False):
            engine_rng, oracle_rng = np.random.default_rng(5), np.random.default_rng(5)
            run = ConsensusRun(4, mode, include_new_sample_in_exchange=include)
            states = np.zeros((1, 4))
            for n in range(1, 8):
                states, t = _slot(engine_rng, top, 2, states, lambda rng, shape: rng.standard_normal(shape),
                                  n, mode, include)
                W = gossip_matrix(top, 2, oracle_rng)
                t_oracle = oracle_rng.standard_normal(4)
                run.step(W, t_oracle)
                assert np.array_equal(t[0], t_oracle)
                assert np.allclose(states[0], run.state, atol=1e-12)


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def test_run_length_estimates_are_bit_identical_across_runs_and_threads():
    model = variance_change_model(1.0, 1.3)
    kwargs = dict(under="null", max_n=50_000)
    a = Estimate.from_run_lengths(page_run_lengths(model, "centralized", 3.0, 5, 6000, 42, threads=1, **kwargs))
    b = Estimate.from_run_lengths(page_run_lengths(model, "centralized", 3.0, 5, 6000, 42, threads=1, **kwargs))
    c = Estimate.from_run_lengths(page_run_lengths(model, "centralized", 3.0, 5, 6000, 42, threads=3, **kwargs))
    assert a == b == c


def test_seed_changes_output():
    model = variance_change_model(1.0, 1.3)
    a = Estimate.from_run_lengths(page_run_lengths(model, "centralized", 3.0, 5, 2000, 1, under="null", max_n=50_000))
    b = Estimate.from_run_lengths(page_run_lengths(model, "centralized", 3.0, 5, 2000, 2, under="null", max_n=50_000))
    assert a.value != b.value


def test_covariance_study_deterministic():
    top = full_ring(5)
    a = estimate_covariance(top, 1, 20, 300, 9)
    b = estimate_covariance(top, 1, 20, 300, 9, threads=2)
    assert np.array_equal(a.gamma_est, b.gamma_est)
    assert np.array_equal(a.covariance, b.covariance)


# ---------------------------------------------------------------------------
# Covariance estimation
# ---------------------------------------------------------------------------

def test_covariance_two_nodes_single_slot_exact_enumeration():
    # with two nodes there is one admissible pair; without exchanging the new
    # sample the first state equals the raw draw, so its covariance is the
    # identity times the noise variance
    top = full_ring(2)
    study = estimate_covariance(top, 1, 1, 4000, 21, include_new_sample=False)
    C1 = study.covariance[0]
    se = 1.0 * math.sqrt(2.0 / 4000)
    assert C1[0, 0] == pytest.approx(1.0, abs=3 * se)
    assert C1[1, 1] == pytest.approx(1.0, abs=3 * se)
    assert C1[0, 1] == pytest.approx(0.0, abs=3 / math.sqrt(4000))
    assert study.gamma_est[0] == pytest.approx(2.0, abs=3 * study.gamma_se[0])

    # exchanging the new sample applies the full two-node average immediately:
    # both states equal the sample mean and match the oracle variance
    study2 = estimate_covariance(top, 1, 1, 4000, 22, include_new_sample=True)
    assert study2.gamma_est[0] == pytest.approx(1.0, abs=3 * study2.gamma_se[0])
    assert study2.rho_est[0] == pytest.approx(1.0, abs=1e-12)


def test_covariance_matches_coinciding_bounds_complete_graph():
    M = 8
    top = full_ring(M)
    n_max = 40
    study = estimate_covariance(top, 1, n_max, 2000, 77)
    lam = (M - 2) / (M - 1)
    bounds = theorem_bounds(lam, lam, M, n_max, BoundVariant.NEW_SAMPLE_HELD)
    gamma_exact = 1.0 + bounds.gamma_upper
    rho_exact = 1.0 - bounds.rho_upper
    inside_gamma = np.abs(study.gamma_est - gamma_exact) <= 3.0 * study.gamma_se
    inside_rho = np.abs(study.rho_est - rho_exact) <= 3.0 * study.rho_se
    assert inside_gamma.mean() > 0.95
    assert inside_rho.mean() > 0.95


def test_error_moments_zero_for_single_node():
    top = full_ring(1)
    study = estimate_error_moments(top, 1, [1, 5], 200, 3)
    for est in study.second_moment:
        assert est.value == pytest.approx(0.0, abs=1e-20)


# ---------------------------------------------------------------------------
# Fixed-sample-size estimates
# ---------------------------------------------------------------------------

def test_fss_threshold_minus_infinity_always_detects():
    model = gaussian_shift_model(1.0, theta=0.3)
    top = full_ring(3)
    study = estimate_error_probabilities(
        model, Identity(), top, 1, 5, -math.inf, 500, 5
    )
    assert study.p_f["centralized"].value == 1.0
    assert study.p_d["node"].value == 1.0


def test_fss_matches_closed_form_roc_centralized():
    # exact single-threshold performance of a Gaussian mean shift
    from runcons.stats import q_function, q_inverse

    n, M, sigma2, theta = 20, 4, 1.0, 0.25
    model = gaussian_shift_model(sigma2, theta=theta)
    m0 = moments(model, Identity(), 0.0)
    from runcons.detectors import fss_threshold

    threshold = fss_threshold(0.1, n, m0, M)
    study = estimate_error_probabilities(
        model, Identity(), top := full_ring(M), 1, n, threshold, 20_000, 17
    )
    predicted = float(q_function(q_inverse(0.1) - math.sqrt(theta**2 / sigma2 * n * M)))
    est = study.p_d["centralized"]
    assert est.value == pytest.approx(predicted, abs=3.5 * est.std_err)
    est_f = study.p_f["centralized"]
    assert est_f.value == pytest.approx(0.1, abs=3.5 * est_f.std_err)


def test_fss_single_node_equals_centralized_when_m_is_one():
    model = gaussian_shift_model(1.0, theta=0.4)
    top = full_ring(1)
    study = estimate_error_probabilities(model, Identity(), top, 1, 10, 1.0, 2000, 7)
    assert study.p_d["node"].value == study.p_d["centralized"].value
    assert study.p_f["node"].value == study.p_f["centralized"].value


# ---------------------------------------------------------------------------
# Sequential estimates
# ---------------------------------------------------------------------------

def _design(p_e, r, M):
    theta_r = 1.0 / math.sqrt(r)
    model = gaussian_shift_model(1.0, theta=theta_r)
    m0 = moments(model, Identity(), 0.0)
    mr = moments(model, Identity(), theta_r)
    return model, sequential_design(p_e, 1.0 - p_e, r, m0, mr, M)


def test_degenerate_thresholds_stop_immediately():
    model, _ = _design(0.1, 100.0, 3)
    detector = SequentialDetector(r=100.0, M=3, eta_r=0.0, a_r=-1e-12, b_r=1e-12)
    study = estimate_stopping(
        model, Identity(), full_ring(3), 1, detector, 400, 13, max_n=50
    )
    assert study.under_null["centralized"].mean_n.value == 1.0
    assert study.under_alt["node"].mean_n.value == 1.0


def test_sequential_error_rates_near_nominal_centralized():
    model, detector = _design(0.05, 400.0, 5)
    study = estimate_stopping(
        model, Identity(), full_ring(5), 1, detector, 6000, 29, max_n=200_000
    )
    pe = study.error_probability("centralized")
    assert 0.02 < pe < 0.08
    # scaled mean sample number near the two-barrier limit
    asn = study.mean_sample_number("centralized")
    from runcons.analysis import sequential_asymptotics
    from runcons.stats import efficacy

    m0 = moments(model, Identity(), 0.0)
    h0, _ = sequential_asymptotics(0.05, 0.95, efficacy(m0, 5))
    assert asn == pytest.approx(400.0 * h0, rel=0.08)


def test_sprt_baseline_stops_and_reports():
    model, _ = _design(0.1, 50.0, 4)
    study = estimate_sprt_stopping(model, 4, 0.1, 0.9, 2000, 3, max_n=100_000)
    assert study.under_null["centralized"].mean_n.value > 1.0
    assert 0.02 < study.error_probability() < 0.2


def test_node_spread_is_small_fraction_of_stopping_time():
    # individual stopping times cluster: relative spread well below one.
    # The clustering tightens with the design's error target; the 0.01 design
    # is used here (at 0.05 the median relative spread sits near 0.08).
    model, detector = _design(0.01, 1000.0, 5)
    spread = node_stopping_spread(
        model, Identity(), full_ring(5), 1, detector, 100, 31, max_n=500_000
    )
    assert spread.size == 100
    assert float(np.median(spread)) < 0.05


def test_std_err_shrinks_like_root_trials():
    model = variance_change_model(1.0, 1.5)
    kwargs = dict(under="null", max_n=100_000)
    small = Estimate.from_run_lengths(page_run_lengths(model, "centralized", 2.0, 4, 2000, 11, **kwargs))
    large = Estimate.from_run_lengths(page_run_lengths(model, "centralized", 2.0, 4, 8000, 11, **kwargs))
    ratio = small.std_err / large.std_err
    assert ratio == pytest.approx(2.0, rel=0.15)


def test_no_nan_in_estimates():
    model = variance_change_model(1.0, 1.3)
    est = Estimate.from_run_lengths(page_run_lengths(model, "bank", 2.5, 4, 1000, 19, under="alt", max_n=100_000))
    assert np.isfinite(est.value) and np.isfinite(est.std_err)
    assert est.truncated_count == 0


def test_truncation_excluded_from_mean():
    model = variance_change_model(1.0, 1.0001)  # nearly indistinguishable laws
    est = Estimate.from_run_lengths(page_run_lengths(model, "single", 50.0, 1, 50, 2, under="null", max_n=100))
    assert est.truncated_count > 0
    assert est.count + est.truncated_count == 50


# ---------------------------------------------------------------------------
# Run-length agreement with the approximate rate law
# ---------------------------------------------------------------------------

def test_page_false_alarm_interval_tracks_rate_formula():
    model = variance_change_model(1.0, 1.065024)
    from runcons.stats import kl_divergence

    d01 = kl_divergence(model.null, model.alt)
    M = 10
    for gamma in (2.0, 3.0):
        pred = float(false_alarm_rate_accurate(gamma, M, d01))
        est = Estimate.from_run_lengths(page_run_lengths(
            model, "centralized", gamma, M, 3000, 47, under="null",
            max_n=int(100 / pred),
        ))
        simulated = 1.0 / est.value
        assert 0.5 * pred <= simulated <= 2.0 * pred


@pytest.mark.parametrize("under", ["null", "alt"])
@pytest.mark.parametrize("family", ["centralized", "running", "bank", "single"])
def test_running_consensus_run_lengths_match_scalar_trial(family, under):
    # The vectorized engine (chi-square sampler, _gossip_batch, lane
    # compaction) against the scalar trial of tests/cusum_oracle.py (raw
    # Gaussian draws, pair-by-pair gossip): independent code for the same law.
    # Thresholds put every family's false-alarm interval at 30 to 60 slots.
    model = variance_change_model(1.0, 1.5)
    top, v, trials = full_ring(4), 2, 1500
    gamma = {"centralized": 2.0, "running": 3.0, "bank": 2.0, "single": 1.5}[family]
    engine = page_run_lengths(
        model, family, gamma, top.M, trials, 61, under=under,
        max_n=10**6, topology=top, v=v,
    )
    rng = np.random.default_rng(62)
    scalar = np.array([
        run_length(model, family, gamma, under, 10**6, rng, top.M, pairs=top.pair_array, v=v)
        for _ in range(trials)
    ])
    assert engine.min() > 0 and scalar.min() > 0
    se = math.hypot(engine.std(ddof=1), scalar.std(ddof=1)) / math.sqrt(trials)
    assert abs(engine.mean() - scalar.mean()) < 4.0 * se
    assert ks_2samp(engine, scalar).pvalue > 1e-3


@pytest.mark.parametrize("dof", [1, 10])
@pytest.mark.parametrize("under", ["null", "alt"])
def test_llr_sampler_draws_the_affine_chi_square_law(under, dof):
    # the summed variance-change increment is dof*a + scale*chi2(dof), with
    # a and scale from the two variances, whichever way the engine draws it
    v0, v1 = 1.0, 1.065024
    a = -0.5 * math.log(v1 / v0)
    scale = 0.5 * (1.0 / v0 - 1.0 / v1) * (v0 if under == "null" else v1)
    n = 100_000
    draws = _llr_sampler(variance_change_model(v0, v1), under, dof)(np.random.default_rng(17), (n,))
    assert kstest(draws, lambda x: chi2.cdf((x - dof * a) / scale, dof)).pvalue > 1e-3
    mean, se = dof * a + scale * dof, scale * math.sqrt(2.0 * dof / n)
    assert abs(draws.mean() - mean) < 4.0 * se


def test_expected_square_estimate_close_to_exact_for_single_exchange():
    top = full_ring(6)
    from runcons.network import expected_gossip_matrix

    exact = expected_gossip_matrix(top).expected_matrix
    approx = estimate_expected_square(top, 1, 4000, 8)
    assert np.abs(approx - exact).max() < 0.05


# ---------------------------------------------------------------------------
# Worker counts: every engine, byte for byte
# ---------------------------------------------------------------------------

_TWO_CHUNKS = CHUNK_SIZE + 100


def _engine_runs():
    """One call per engine at two chunks with short horizons, by name; each takes threads."""
    change = variance_change_model(1.0, 1.5)
    shift, detector = _design(0.1, 20.0, 3)
    top = full_ring(3)

    def run_lengths(family):
        return lambda threads: page_run_lengths(
            change, family, 2.0, top.M, _TWO_CHUNKS, 5, under="alt", max_n=200, topology=top, v=2, threads=threads)

    return {
        **{f"page_run_lengths-{family}": run_lengths(family) for family in ("centralized", "running", "bank", "single")},
        "estimate_stopping": lambda threads: estimate_stopping(
            shift, Identity(), top, 1, detector, _TWO_CHUNKS, 6, max_n=500, threads=threads),
        "node_stopping_spread": lambda threads: node_stopping_spread(
            shift, Identity(), top, 1, detector, _TWO_CHUNKS, 7, max_n=500, threads=threads),
        "estimate_sprt_stopping": lambda threads: estimate_sprt_stopping(
            shift, 3, 0.1, 0.9, _TWO_CHUNKS, 8, max_n=500, threads=threads),
        "estimate_error_probabilities": lambda threads: estimate_error_probabilities(
            shift, Identity(), top, 1, 5, 0.5, _TWO_CHUNKS, 9, threads=threads),
        "estimate_error_moments": lambda threads: estimate_error_moments(
            top, 1, [1, 5], _TWO_CHUNKS, 10, threads=threads),
        "estimate_covariance": lambda threads: estimate_covariance(top, 1, 5, _TWO_CHUNKS, 11, threads=threads),
    }


@pytest.mark.parametrize("engine", list(_engine_runs()))
def test_every_engine_is_byte_identical_across_worker_counts(engine):
    run = _engine_runs()[engine]
    one, two = run(1), run(2)
    if dataclasses.is_dataclass(one):
        one, two = dataclasses.asdict(one), dataclasses.asdict(two)
    np.testing.assert_equal(one, two)


# ---------------------------------------------------------------------------
# The chunk-worker contract
# ---------------------------------------------------------------------------

def _chunk_pid(chunk_index, size, rng):
    return os.getpid()


def _second_chunk_raises(chunk_index, size, rng):
    if chunk_index == 1:
        raise ValueError(f"chunk {chunk_index} of {size} trials failed")
    return size


def _second_chunk_exits(chunk_index, size, rng):
    if chunk_index == 1:
        os._exit(3)
    return size


def _first_chunk_raises_while_second_sleeps(chunk_index, size, rng):
    if chunk_index == 0:
        raise ValueError("chunk 0 failed")
    time.sleep(60.0)
    return size


@pytest.mark.parametrize("worker, error, message", [
    (_second_chunk_raises, ValueError, "chunk 1 of 100 trials failed"),
    (_second_chunk_exits, RuntimeError, "exited with code 3 and sent no result"),
    (_first_chunk_raises_while_second_sleeps, ValueError, "chunk 0 failed"),
])
def test_chunk_worker_failure_reraises_and_leaves_no_child(worker, error, message):
    start = time.monotonic()
    with pytest.raises(error, match=message):
        _run_chunks(_TWO_CHUNKS, 0, 2, worker)
    assert time.monotonic() - start < 30.0  # a sleeping child is killed, not awaited
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_count_is_capped_by_chunks_and_cpus():
    pids = _run_chunks(2 * CHUNK_SIZE, 0, 64, _chunk_pid)
    assert len(pids) == 2 and pids[0] == os.getpid()
    assert len(set(pids)) <= min(2, len(os.sched_getaffinity(0)))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


_CALLER = """\
import os, time
from runcons.montecarlo import CHUNK_SIZE, _run_chunks

def worker(chunk_index, size, rng):
    if chunk_index == 1:
        print(os.getpid(), flush=True)
        time.sleep(60.0)
    return size

_run_chunks(2 * CHUNK_SIZE, 0, 2, worker)
"""


def _runs(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_chunk_workers_die_with_a_killed_caller():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    caller = subprocess.Popen([sys.executable, "-c", _CALLER], stdout=subprocess.PIPE, text=True, env=env)
    try:
        child = int(caller.stdout.readline())
    finally:
        caller.kill()
        caller.wait(timeout=30)
        caller.stdout.close()
    deadline = time.monotonic() + 10.0
    while _runs(child) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _runs(child)
