import math

import numpy as np
import pytest
from scipy.stats import chi2, ks_2samp, kstest

from runcons.analysis import BoundVariant, false_alarm_rate_accurate, theorem_bounds
from runcons.consensus import ConsensusRun, WeightMode
from runcons.detectors import SequentialDetector, sequential_design
from runcons.montecarlo import (
    Estimate,
    _gossip_batch,
    _llr_sampler,
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
from runcons.network import apply_pair_sequence, full_ring, k_neighbor_ring, sample_gossip_matrix
from runcons.stats import (
    Gaussian,
    Identity,
    gaussian_shift_model,
    moments,
    variance_change_model,
)

from cusum_oracle import run_length


def test_estimate_from_samples_and_bernoulli():
    est = Estimate.from_samples(np.array([1.0, 2.0, 3.0]), truncated=2)
    assert est.value == pytest.approx(2.0)
    assert est.std_err == pytest.approx(1.0 / math.sqrt(3.0))
    assert est.count == 3 and est.truncated_count == 2
    b = Estimate.from_bernoulli(25, 100)
    assert b.value == pytest.approx(0.25)
    assert b.std_err == pytest.approx(math.sqrt(0.25 * 0.75 / 100))


def test_gossip_batch_matches_sequential_application():
    top = k_neighbor_ring(7, 4)
    rng = np.random.default_rng(3)
    states = rng.standard_normal((5, 7))
    idx = rng.integers(0, len(top.pairs), size=(5, 4))
    expected = np.array([
        apply_pair_sequence(states[b], top.pair_array[idx[b]]) for b in range(5)
    ])
    batch = states.copy()
    _gossip_batch(batch, top.pair_array, idx)
    assert np.allclose(batch, expected, atol=1e-14)


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
                W = sample_gossip_matrix(top, 2, oracle_rng)
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
