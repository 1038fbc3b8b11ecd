import dataclasses
import math
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2, ks_2samp, kstest

from runcons.analysis import CUSUM_FAMILIES, false_alarm_rate_accurate, theorem_bounds
from runcons.consensus import ConsensusRun, WeightMode
from runcons.detectors import SequentialDetector, sequential_design
from runcons.montecarlo import (
    CHUNK_SIZE,
    Estimate,
    _gossip_batch,
    _lockstep,
    _pair_draws,
    _run_chunks,
    _slot,
    chunk_rng,
    estimate_covariance,
    estimate_error_probabilities,
    estimate_sprt_stopping,
    estimate_stopping,
    increment_sampler,
    page_run_lengths,
    sequential_trials,
)
from runcons.network import full_ring, k_neighbor_ring
from runcons.stats import (
    Gaussian,
    Identity,
    gaussian_shift_model,
    llr_nonlinearity,
    moments,
    variance_change_model,
)

from cusum_oracle import run_length
from dense_oracle import gossip_matrix, state_covariances


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
    for include in (True, False):
        engine_rng, oracle_rng = np.random.default_rng(5), np.random.default_rng(5)
        run = ConsensusRun(4, WeightMode.ACCUMULATING, include_new_sample_in_exchange=include)
        states = np.zeros((1, 4))
        for n in range(1, 8):
            states, t = _slot(engine_rng, top, 2, states, lambda rng, shape: rng.standard_normal(shape), include)
            W = gossip_matrix(top, 2, oracle_rng)
            t_oracle = oracle_rng.standard_normal(4)
            run.step(W, t_oracle)
            assert np.array_equal(t[0], t_oracle)
            assert np.allclose(states[0], run.state, atol=1e-12)


@pytest.mark.parametrize("v", [1, 3])
@pytest.mark.parametrize("include", [True, False], ids=["new-sample-exchanged", "new-sample-held"])
def test_running_sum_over_n_m_is_the_averaging_schedule(include, v):
    # the engine steps only the running sum s; the averaging schedule is s / (n M) under either
    # form, since W((n - 1)/n s/((n - 1) M) + t/n) = W(s + M t)/(n M), and likewise with W s held
    for M in (2, 5, 12):
        top = full_ring(M)
        engine_rng, oracle_rng = np.random.default_rng(M), np.random.default_rng(M)
        run = ConsensusRun(M, WeightMode.AVERAGING, include_new_sample_in_exchange=include)
        states = np.zeros((1, M))
        for n in range(1, 41):
            states, _ = _slot(engine_rng, top, v, states, lambda rng, shape: rng.standard_normal(shape), include)
            run.step(gossip_matrix(top, v, oracle_rng), oracle_rng.standard_normal(M))
            np.testing.assert_allclose(states[0] / (n * M), run.state, rtol=1e-12)


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def test_run_length_estimates_are_bit_identical_across_runs_and_threads():
    model = variance_change_model(1.0, 1.3)
    kwargs = dict(under="null", max_n=50_000)
    a = Estimate.from_run_lengths(page_run_lengths(model, "centralized", [3.0], 5, 6000, 42, threads=1, **kwargs))
    b = Estimate.from_run_lengths(page_run_lengths(model, "centralized", [3.0], 5, 6000, 42, threads=1, **kwargs))
    c = Estimate.from_run_lengths(page_run_lengths(model, "centralized", [3.0], 5, 6000, 42, threads=3, **kwargs))
    assert a == b == c


def test_seed_changes_output():
    model = variance_change_model(1.0, 1.3)
    a = Estimate.from_run_lengths(page_run_lengths(model, "centralized", [3.0], 5, 2000, 1, under="null", max_n=50_000))
    b = Estimate.from_run_lengths(page_run_lengths(model, "centralized", [3.0], 5, 2000, 2, under="null", max_n=50_000))
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
    bounds = theorem_bounds(lam, lam, M, n_max, include_new_sample=False)
    gamma_exact = 1.0 + bounds.gamma_upper
    rho_exact = 1.0 - bounds.rho_upper
    inside_gamma = np.abs(study.gamma_est - gamma_exact) <= 3.0 * study.gamma_se
    inside_rho = np.abs(study.rho_est - rho_exact) <= 3.0 * study.rho_se
    assert inside_gamma.mean() > 0.95
    assert inside_rho.mean() > 0.95


def _consensus_metrics(C: np.ndarray, topology, variance: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """gamma_n and rho_n of exact covariances C of shape (n_max, M, M)."""
    M = topology.M
    diag = np.diagonal(C, axis1=1, axis2=2)
    gamma = diag.mean(axis=1) / (variance / (np.arange(1, len(C) + 1) * M))
    pi, pj = topology.pair_array[:, 0], topology.pair_array[:, 1]
    rho = (2.0 * C[:, pi, pj] / (diag[:, pi] + diag[:, pj])).mean(axis=1)
    return gamma, rho


@pytest.mark.parametrize("include_new_sample", [False, True])
def test_mean_square_operator_matches_coinciding_bounds_complete_graph(include_new_sample):
    # the oracle's own check: where the theorem's two bounds coincide they are exact
    M, n_max = 8, 40
    top = full_ring(M)
    gamma, rho = _consensus_metrics(state_covariances(top, 1, n_max, include_new_sample), top)
    lam = (M - 2) / (M - 1)
    bounds = theorem_bounds(lam, lam, M, n_max, include_new_sample=include_new_sample)
    np.testing.assert_allclose(gamma, 1.0 + bounds.gamma_upper, rtol=1e-10)
    np.testing.assert_allclose(rho, 1.0 - bounds.rho_upper, rtol=1e-10)


@pytest.mark.parametrize("v, include_new_sample, seed", [(1, False, 4101), (5, True, 4105)])
def test_covariance_matches_exact_gossip_recursion_on_a_ring(v, include_new_sample, seed):
    # off the complete graph the bounds only bracket gamma and rho; the
    # mean-square gossip operator carries the exact covariance slot by slot.
    # rho_est is the ratio of the pooled covariance: a mean of per-group
    # ratios over groups of 50 trials kept a bias that does not shrink with
    # the trial count, and met this criterion at only 81% of slots at v = 5
    top = k_neighbor_ring(15, 4)
    n_max = 100
    study = estimate_covariance(top, v, n_max, 4000, seed, include_new_sample=include_new_sample)
    gamma, rho = _consensus_metrics(state_covariances(top, v, n_max, include_new_sample), top)
    assert (np.abs(study.gamma_est - gamma) <= 3.0 * study.gamma_se).mean() >= 0.95
    assert (np.abs(study.rho_est - rho) <= 3.0 * study.rho_se).mean() >= 0.95


def test_covariance_memory_does_not_scale_with_groups_times_slots():
    # 20 groups x 200 slots x 15 x 15 sums alone would take 7.2 MB
    tracemalloc.start()
    try:
        estimate_covariance(full_ring(15), 1, 200, 1000, 31)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


# ---------------------------------------------------------------------------
# Fixed-sample-size estimates
# ---------------------------------------------------------------------------

def test_fss_threshold_minus_infinity_always_detects():
    model = gaussian_shift_model(1.0, theta=0.3)
    top = full_ring(3)
    study = estimate_error_probabilities(
        model, Identity(), top, 1, 5, -math.inf, 500, 5
    )
    assert study.under_null["centralized"].declare_h1.value == 1.0
    assert study.under_alt["node"].declare_h1.value == 1.0


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
    predicted = q_function(q_inverse(0.1) - math.sqrt(theta**2 / sigma2 * n * M))
    est = study.under_alt["centralized"].declare_h1
    assert est.value == pytest.approx(predicted, abs=3.5 * est.std_err)
    est_f = study.under_null["centralized"].declare_h1
    assert est_f.value == pytest.approx(0.1, abs=3.5 * est_f.std_err)


def test_fss_single_node_equals_centralized_when_m_is_one():
    model = gaussian_shift_model(1.0, theta=0.4)
    top = full_ring(1)
    study = estimate_error_probabilities(model, Identity(), top, 1, 10, 1.0, 2000, 7)
    assert study.under_alt["node"].declare_h1.value == study.under_alt["centralized"].declare_h1.value
    assert study.under_null["node"].declare_h1.value == study.under_null["centralized"].declare_h1.value


def test_fss_record_stops_every_trial_at_n():
    # the fixed-sample test decides every trial at slot n and truncates none
    n, trials = 6, 300
    study = estimate_error_probabilities(gaussian_shift_model(1.0, theta=0.3), Identity(), full_ring(3), 1, n, 0.5,
                                         trials, 3)
    for source in ("centralized", "node"):
        for outcomes in (study.under_null, study.under_alt):
            assert outcomes[source].mean_n == Estimate(n, 0.0, trials, 0)
            assert outcomes[source].declare_h1.count == trials
        assert study.summary(source)[0].value == n


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
    detector = SequentialDetector(eta_r=0.0, a_r=-1e-12, b_r=1e-12)
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
    asn, pe = (est.value for est in study.summary("centralized"))
    assert 0.02 < pe < 0.08
    # scaled mean sample number near the two-barrier limit
    from runcons.analysis import sequential_asymptotics
    from runcons.stats import efficacy

    m0 = moments(model, Identity(), 0.0)
    h0, _ = sequential_asymptotics(0.05, 0.95, efficacy(m0, 5))
    assert asn == pytest.approx(400.0 * h0, rel=0.08)


def test_sprt_baseline_stops_and_reports():
    model, _ = _design(0.1, 50.0, 4)
    study = estimate_sprt_stopping(model, full_ring(4), 0.1, 0.9, 2000, 3, max_n=100_000)
    assert study.under_null["centralized"].mean_n.value > 1.0
    assert 0.02 < study.summary("centralized")[1].value < 0.2


@pytest.mark.parametrize("model", [gaussian_shift_model(1.0, theta=0.3), variance_change_model(1.0, 1.5)],
                         ids=["location", "variance"])
def test_sprt_baseline_does_not_depend_on_the_network(model):
    # the fusion center sums every sensor's ratio and never gossips, so two
    # networks of the same size give the same stops and decisions, chunk by chunk
    rings = full_ring(6), k_neighbor_ring(6, 2)
    assert rings[0].pairs != rings[1].pairs
    studies = [estimate_sprt_stopping(model, ring, 0.1, 0.9, CHUNK_SIZE + 7, 21, max_n=50) for ring in rings]
    assert studies[0] == studies[1]
    assert studies[0].under_null["centralized"].mean_n.count > CHUNK_SIZE  # both chunks decide


def _one_law_leaves_at_slot_1(model, statistic, eta_r: float, leaving: str, trials: int) -> None:
    """Both laws' trials step in one batch, the leaving law's out of (a_r, b_r) at slot 1.

    The other law's drift down to a_r over about 20 slots at eta_r.  A lane
    handed the leaving law's scale or shift after compaction, or a row split
    off into the other law's half, would stop at once or land in the wrong
    outcome.
    """
    detector = SequentialDetector(eta_r=eta_r, a_r=-30.0, b_r=50.0)
    study = estimate_stopping(model, statistic, full_ring(3), 1, detector, trials, 19, max_n=10_000)
    gone, running = (study.under_alt, study.under_null) if leaving == "alt" else (study.under_null, study.under_alt)
    for source in ("centralized", "node"):
        assert gone[source].mean_n == Estimate(1.0, 0.0, trials)
        assert gone[source].declare_h1 == Estimate.from_bernoulli(trials if leaving == "alt" else 0, trials)
        assert running[source].mean_n.count == trials  # none truncated
        assert 15.0 < running[source].mean_n.value < 30.0 and running[source].mean_n.std_err > 0.0
        assert running[source].declare_h1 == Estimate.from_bernoulli(0, trials)


@pytest.mark.parametrize("trials", [40, CHUNK_SIZE + 7], ids=["one-chunk", "two-chunks"])
@pytest.mark.parametrize("leaving", ["alt", "null"])
def test_lanes_keep_their_law_through_compaction(leaving, trials):
    # raw form: a shift of 1000 moves the leaving law's mean
    theta0, theta = (0.0, 1000.0) if leaving == "alt" else (-1000.0, 0.0)
    _one_law_leaves_at_slot_1(gaussian_shift_model(1.0, theta=theta, theta0=theta0), Identity(), 0.5, leaving, trials)


@pytest.mark.parametrize("trials", [40, CHUNK_SIZE + 7], ids=["one-chunk", "two-chunks"])
@pytest.mark.parametrize("leaving", ["alt", "null"])
def test_chi_square_lanes_keep_their_scale_through_compaction(leaving, trials):
    # chi-square form: a variance of 1e20 gives the leaving law's increments
    # a + scale chi2 a scale of about -+5e19, the running law's about +-0.5;
    # eta_r sits 0.5 above the running law's mean a + scale
    v0, v1 = (1.0, 1e20) if leaving == "alt" else (1e20, 1.0)
    model = variance_change_model(v0, v1)
    a, scale = -0.5 * math.log(v1 / v0), 0.5 * (1.0 / v0 - 1.0 / v1) * min(v0, v1)
    _one_law_leaves_at_slot_1(model, llr_nonlinearity(model), a + scale + 0.5, leaving, trials)


def test_raw_draws_need_a_location_family_before_any_draw():
    # one batch draws under the null law and moves each row by its own law's
    # shift; a variance change is no shift of its null law, so its raw-form
    # study raises instead of sampling the null law twice
    class NoDraws:
        def __getattr__(self, name):
            raise AssertionError(f"rng.{name} used before the check")

    model = variance_change_model(1.0, 2.0)
    detector = SequentialDetector(eta_r=0.0, a_r=-1.0, b_r=1.0)
    with pytest.raises(ValueError, match="location family"):
        sequential_trials((model.null, model.alt), Identity(), full_ring(3), 1, detector, 10, [0], 5, NoDraws())
    with pytest.raises(ValueError, match="location family"):
        estimate_stopping(model, Identity(), full_ring(3), 1, detector, 10, 1, max_n=10)


def test_std_err_shrinks_like_root_trials():
    model = variance_change_model(1.0, 1.5)
    kwargs = dict(under="null", max_n=100_000)
    small = Estimate.from_run_lengths(page_run_lengths(model, "centralized", [2.0], 4, 2000, 11, **kwargs))
    large = Estimate.from_run_lengths(page_run_lengths(model, "centralized", [2.0], 4, 8000, 11, **kwargs))
    ratio = small.std_err / large.std_err
    assert ratio == pytest.approx(2.0, rel=0.15)


def test_no_nan_in_estimates():
    model = variance_change_model(1.0, 1.3)
    est = Estimate.from_run_lengths(page_run_lengths(model, "bank", [2.5], 4, 1000, 19, under="alt", max_n=100_000))
    assert np.isfinite(est.value) and np.isfinite(est.std_err)
    assert est.truncated_count == 0


def test_truncation_excluded_from_mean():
    model = variance_change_model(1.0, 1.0001)  # nearly indistinguishable laws
    est = Estimate.from_run_lengths(page_run_lengths(model, "single", [50.0], 1, 50, 2, under="null", max_n=100))
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
            model, "centralized", [gamma], M, 3000, 47, under="null",
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
        model, family, [gamma], top.M, trials, 61, under=under,
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
    model = variance_change_model(v0, v1)
    law = model.null if under == "null" else model.alt
    draw, (p,) = increment_sampler((law,), llr_nonlinearity(model), dof)
    draws = draw(np.random.default_rng(17), (n,), p)
    assert kstest(draws, lambda x: chi2.cdf((x - dof * a) / scale, dof)).pvalue > 1e-3
    mean, se = dof * a + scale * dof, scale * math.sqrt(2.0 * dof / n)
    assert abs(draws.mean() - mean) < 4.0 * se


_SPLIT_SAMPLERS = {
    "standard_normal": lambda rng, shape: rng.standard_normal(shape),
    "chisquare": lambda rng, shape: rng.chisquare(10.0, shape),
    # 2**31 + 1 and 3 * 2**30 reject about half and a quarter of the 32-bit draws; 2**40 takes 64-bit draws
    **{f"integers-{high}": lambda rng, shape, high=high: rng.integers(0, high, size=shape)
       for high in (45, 2**31 + 1, 3 * 2**30, 2**32 - 5, 2**40)},
}


@pytest.mark.parametrize("n", [1, 3, 2501])
@pytest.mark.parametrize("sampler", list(_SPLIT_SAMPLERS))
def test_one_block_draw_consumes_the_stream_as_consecutive_draws(sampler, n):
    # a (K, n) draw equals K draws of n in a row, so a block of K slots can
    # stand for K lockstep slots of one sampler
    draw, K = _SPLIT_SAMPLERS[sampler], 7
    block = draw(np.random.default_rng(5), (K, n))
    rng = np.random.default_rng(5)
    np.testing.assert_array_equal(block, np.stack([draw(rng, n) for _ in range(K)]))


def test_slot_by_slot_pairs_and_samples_differ_from_all_pairs_then_all_samples():
    # a running-family slot draws its pairs, then its samples, so K slots do not
    # read the stream as one block of pairs followed by one block of samples
    K, lanes, v, top = 7, 3, 2, full_ring(5)
    rng = np.random.default_rng(5)
    slots = [(_pair_draws(rng, top, v, lanes), rng.standard_normal((lanes, top.M))) for _ in range(K)]
    rng = np.random.default_rng(5)
    pairs, samples = rng.integers(0, len(top.pairs), size=(K, lanes, v)), rng.standard_normal((K, lanes, top.M))
    assert not np.array_equal(np.stack([p for p, _ in slots]), pairs)
    assert not np.array_equal(np.stack([t for _, t in slots]), samples)


# ---------------------------------------------------------------------------
# CUSUM threshold grids: one run, every level's first crossing
# ---------------------------------------------------------------------------

_GRID_MODEL = variance_change_model(1.0, 1.5)
_GRID_TOP = full_ring(4)


def _grid_run(family, gammas, trials, seed, under, max_n=10**5, threads=1):
    """(K, trials) first-crossing slots, level by level."""
    return page_run_lengths(_GRID_MODEL, family, gammas, _GRID_TOP.M, trials, seed, under=under, max_n=max_n,
                            topology=_GRID_TOP, v=2, threads=threads).reshape(-1, trials)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("under", ["null", "alt"])
@pytest.mark.parametrize("family", CUSUM_FAMILIES)
def test_largest_level_of_a_grid_is_the_one_level_run(family, under, threads):
    # lanes finish only past the largest level, so they compact, and draw, as in a one-level run;
    # the result is level-major, so a one-level grid is one per-trial array
    trials = CHUNK_SIZE + 100
    grid = _grid_run(family, [0.5, 1.0, 1.0, 2.0, 3.0], trials, 5, under, max_n=3000, threads=threads)
    one = _grid_run(family, [3.0], trials, 5, under, max_n=3000, threads=threads)
    assert grid.shape == (5, trials) and one.shape == (1, trials)
    np.testing.assert_array_equal(grid[-1], one[0])
    np.testing.assert_array_equal(grid[1], grid[2])  # equal levels, one row each


@pytest.mark.parametrize("under", ["null", "alt"])
@pytest.mark.parametrize("family", CUSUM_FAMILIES)
def test_lower_levels_of_a_grid_agree_in_law_with_one_level_runs(family, under):
    # a lower column rides on the largest level's stream, so it is compared with an independent run
    trials = 1500
    grid = _grid_run(family, [1.0, 2.0, 3.0], trials, 41, under)
    for col, gamma in enumerate((1.0, 2.0)):
        own = _grid_run(family, [gamma], trials, 42, under)[0]
        lower = grid[col]
        assert lower.min() > 0 and own.min() > 0
        se = math.hypot(lower.std(ddof=1), own.std(ddof=1)) / math.sqrt(trials)
        assert abs(lower.mean() - own.mean()) < 3.0 * se, (gamma, lower.mean(), own.mean(), se)
        assert ks_2samp(lower, own).pvalue > 1e-3


@pytest.mark.parametrize("family", CUSUM_FAMILIES)
def test_a_grid_at_or_below_zero_stops_every_lane_at_slot_1(family):
    for gammas in ([-1.0, 0.0], [-3.0, -2.0, -2.0, 0.0]):
        assert (_grid_run(family, gammas, 30, 3, "null", max_n=10) == 1).all()


def test_a_level_not_crossed_by_max_n_reads_0_and_counts_as_truncated():
    stops = _grid_run("single", [0.5, 50.0], 200, 4, "null", max_n=40)
    assert (stops <= 40).all() and (stops[0] > 0).any() and (stops[1] == 0).all()
    for level in stops:
        est = Estimate.from_run_lengths(level)
        assert est.truncated_count == int((level == 0).sum()) and est.count + est.truncated_count == 200


@pytest.mark.parametrize("gammas", [[], [2.0, 1.0], [[1.0, 2.0]], 2.0])
def test_a_grid_must_be_one_nonempty_ascending_list(gammas):
    with pytest.raises(ValueError, match="ascending grid"):
        _grid_run("centralized", gammas, 10, 0, "null")


# ---------------------------------------------------------------------------
# Worker counts: every engine, byte for byte
# ---------------------------------------------------------------------------

_THREE_CHUNKS = 2 * CHUNK_SIZE + 7  # the last one ragged; two workers get shares of two chunks and one


def _engine_runs():
    """One call per engine at three chunks with short horizons, by name; each takes threads."""
    change = variance_change_model(1.0, 1.5)
    shift, detector = _design(0.1, 20.0, 3)
    top = full_ring(3)

    def run_lengths(family):  # a three-level grid: lanes record the lower crossings as they go
        return lambda threads: page_run_lengths(change, family, [1.0, 1.5, 2.0], top.M, _THREE_CHUNKS, 5, under="alt",
                                                max_n=200, topology=top, v=2, threads=threads)

    return {
        **{f"page_run_lengths-{family}": run_lengths(family) for family in CUSUM_FAMILIES},
        "estimate_stopping": lambda threads: estimate_stopping(
            shift, Identity(), top, 1, detector, _THREE_CHUNKS, 6, max_n=500, threads=threads),
        "estimate_sprt_stopping": lambda threads: estimate_sprt_stopping(
            shift, top, 0.1, 0.9, _THREE_CHUNKS, 8, max_n=500, threads=threads),
        "estimate_error_probabilities": lambda threads: estimate_error_probabilities(
            shift, Identity(), top, 1, 5, 0.5, _THREE_CHUNKS, 9, threads=threads),
        "estimate_covariance": lambda threads: estimate_covariance(top, 1, 5, _THREE_CHUNKS, 11, threads=threads),
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

_TWO_CHUNKS = CHUNK_SIZE + 100


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
