"""Decision rules: the test designs of `runcons.detectors`, and the crossing,
reset and truncation rules of every detector as the Monte Carlo engines of
`runcons.montecarlo` apply them.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from runcons.detectors import (
    SequentialDetector,
    continuous_time_thresholds,
    fss_threshold,
    sequential_design,
)
from runcons.montecarlo import (
    Estimate,
    chunk_rng,
    estimate_error_probabilities,
    estimate_sprt_stopping,
    estimate_stopping,
    increment_sampler,
    page_run_lengths,
)
from runcons.network import full_ring
from runcons.stats import (
    Identity,
    gaussian_shift_model,
    llr_nonlinearity,
    mixture_shift_model,
    moments,
    q_inverse,
    variance_change_model,
)

FAMILIES = ("centralized", "running", "bank", "single")


def _constant(value):
    """Nonlinearity mapping every observation to the same value."""
    return lambda x: np.full(np.shape(x), float(value))


# ---------------------------------------------------------------------------
# Fixed sample size test
# ---------------------------------------------------------------------------

def test_fss_threshold_median_at_zero_mean():
    model = gaussian_shift_model(1.0, theta=0.1)
    m0 = moments(model, Identity(), 0.0)
    assert fss_threshold(0.5, 25, m0, 4) == pytest.approx(0.0, abs=1e-12)


def test_fss_threshold_gaussian_value():
    model = gaussian_shift_model(1.0, theta=0.1)
    m0 = moments(model, Identity(), 0.0)
    delta = fss_threshold(0.05, 100, m0, 10)
    assert delta == pytest.approx(math.sqrt(1000.0) * q_inverse(0.05), rel=1e-12)
    assert delta == pytest.approx(52.02, abs=0.01)


def test_fss_decide_threshold_rules():
    # every statistic is exactly 0: a threshold at 0 is crossed (closed
    # crossing), the next float above it is not
    model = gaussian_shift_model(1.0, theta=0.3)
    top = full_ring(3)
    for threshold, expected in ((0.0, 1.0), (math.nextafter(0.0, 1.0), 0.0)):
        study = estimate_error_probabilities(model, _constant(0.0), top, 2, 4, threshold, 50, 3)
        for outcomes in (study.under_null, study.under_alt):
            assert outcomes["centralized"].declare_h1.value == expected
            assert outcomes["node"].declare_h1.value == expected


def test_centralized_statistic_sums_everything():
    # t = 1 everywhere: the centralized sum over n slots and M sensors is n M,
    # and the accumulating node statistic tracks it exactly
    model = gaussian_shift_model(1.0, theta=0.3)
    n, top = 5, full_ring(3)
    at = estimate_error_probabilities(model, _constant(1.0), top, 1, n, float(n * 3), 50, 4)
    above = estimate_error_probabilities(model, _constant(1.0), top, 1, n, n * 3 + 1e-9, 50, 4)
    assert at.under_alt["centralized"].declare_h1.value == 1.0 and at.under_alt["node"].declare_h1.value == 1.0
    assert above.under_alt["centralized"].declare_h1.value == 0.0 and above.under_alt["node"].declare_h1.value == 0.0


def test_fss_detector_validation():
    model = gaussian_shift_model(1.0, theta=0.3)
    with pytest.raises(ValueError, match="sample count"):
        estimate_error_probabilities(model, Identity(), full_ring(3), 1, 0, 1.0, 10, 1)


# ---------------------------------------------------------------------------
# Sequential test
# ---------------------------------------------------------------------------

def _gaussian_detector(p_f, p_d, r, M, sigma2=1.0):
    theta_r = 1.0 / math.sqrt(r)
    model = gaussian_shift_model(sigma2, theta=theta_r)
    m0 = moments(model, Identity(), 0.0)
    mr = moments(model, Identity(), theta_r)
    return sequential_design(p_f, p_d, r, m0, mr, M)


def test_symmetric_error_targets_give_antisymmetric_thresholds():
    det = _gaussian_detector(0.05, 0.95, 100.0, 8)
    assert det.a_r == pytest.approx(-det.b_r, rel=1e-12)


def test_gaussian_threshold_closed_form():
    r, sigma2 = 400.0, 1.7
    det = _gaussian_detector(0.1, 0.8, r, 5, sigma2)
    assert det.b_r == pytest.approx(math.sqrt(r) * sigma2 * math.log(0.8 / 0.1), rel=1e-10)
    assert det.a_r == pytest.approx(math.sqrt(r) * sigma2 * math.log(0.2 / 0.9), rel=1e-10)
    assert det.eta_r == pytest.approx(0.5 / math.sqrt(r), rel=1e-12)


def test_continuous_time_thresholds():
    d = 2.0
    alpha, beta = continuous_time_thresholds(0.1, 0.9, d)
    assert alpha == pytest.approx(math.log(0.1 / 0.9) / d, rel=1e-12)
    assert beta == pytest.approx(math.log(0.9 / 0.1) / d, rel=1e-12)
    with pytest.raises(ValueError):
        continuous_time_thresholds(0.9, 0.1, d)


def test_sequential_design_rejects_bad_error_pair():
    with pytest.raises(ValueError):
        _gaussian_detector(0.5, 0.5, 10.0, 2)


def _stopping(nonlinearity, detector, M, max_n, trials=40, seed=5):
    model = gaussian_shift_model(1.0, theta=0.2)
    return estimate_stopping(
        model, nonlinearity, full_ring(M), 1, detector, trials, seed, max_n=max_n
    )


def test_sequential_run_immediate_crossing():
    det = SequentialDetector(eta_r=0.0, a_r=-1e-9, b_r=1e-9)
    study = _stopping(_constant(0.5), det, 1, max_n=10)
    for outcomes in (study.under_null, study.under_alt):
        for source in ("centralized", "node"):
            assert outcomes[source].mean_n.value == 1.0
            assert outcomes[source].declare_h1.value == 1.0


def test_sequential_run_truncation_is_a_result():
    det = SequentialDetector(eta_r=0.0, a_r=-100.0, b_r=100.0)
    study = _stopping(_constant(0.0), det, 1, max_n=5, trials=30)
    for outcomes in (study.under_null, study.under_alt):
        for source in ("centralized", "node"):
            assert outcomes[source].mean_n.count == 0
            assert outcomes[source].mean_n.truncated_count == 30
            assert outcomes[source].declare_h1.truncated_count == 30


def test_sequential_run_translation_invariance():
    # adding c to every t(x) and to eta_r leaves the centered statistics, and
    # so every stopping time and decision, unchanged
    det = SequentialDetector(eta_r=0.1, a_r=-5.0, b_r=7.0)
    shift = 0.25
    det_shifted = SequentialDetector(eta_r=0.1 + shift, a_r=-5.0, b_r=7.0)
    base = _stopping(Identity(), det, 3, max_n=5000, trials=300)
    shifted = _stopping(lambda x: np.asarray(x, dtype=float) + shift, det_shifted, 3, max_n=5000, trials=300)
    assert base.under_null == shifted.under_null
    assert base.under_alt == shifted.under_alt
    assert base.under_alt["node"].mean_n.value > 2.0


def test_sequential_run_matches_barrier_signs():
    det = SequentialDetector(eta_r=0.5, a_r=-2.0, b_r=2.0)
    # t = 0: the centered path is -n M eta_r = -n, inside at slot 1, on the
    # lower barrier at slot 2
    study = _stopping(_constant(0.0), det, 2, max_n=10)
    for outcomes in (study.under_null, study.under_alt):
        for source in ("centralized", "node"):
            assert outcomes[source].mean_n.value == 2.0
            assert outcomes[source].declare_h1.value == 0.0
    # a horizon of one slot truncates before the crossing
    assert _stopping(_constant(0.0), det, 2, max_n=1).under_alt["node"].mean_n.truncated_count == 40


def _sprt_replay(model, M, p_f, p_d, seed, max_n):
    """(exit slot, decision) of the null's, then the alternative's trial of a one-trial chunk, from its stream.

    The chunk steps both trials as one batch, the null's row first: each slot
    makes one (live, M) draw for the rows still inside.  A location family
    draws it under the null law and moves the alternative's row by
    theta - theta0; the variance change draws standard normals and scales
    each row by its own law's deviation.  The decision is "H1" above
    log(p_d/p_f), "H0" below log((1-p_d)/(1-p_f)), and (0, None) a trial still
    inside at max_n.
    """
    upper, lower = math.log(p_d / p_f), math.log((1.0 - p_d) / (1.0 - p_f))
    llr, laws = llr_nonlinearity(model), (model.null, model.alt)
    rng = chunk_rng(seed, 0)
    totals, outcomes = [0.0, 0.0], [(0, None), (0, None)]
    for slot in range(1, max_n + 1):
        live = [row for row in (0, 1) if outcomes[row][1] is None]
        if not live:
            break
        if model.location:
            x = model.null.sample(rng, (len(live), M))
            x[[row == 1 for row in live]] += model.theta - model.theta0
        else:
            x = rng.standard_normal((len(live), M)) * [[math.sqrt(laws[row].variance)] for row in live]
        for row, increments in zip(live, llr(x)):
            totals[row] += increments.sum()
            if totals[row] >= upper or totals[row] <= lower:
                outcomes[row] = (slot, "H1" if totals[row] >= upper else "H0")
    return outcomes


def test_sprt_step_rule():
    # one trial of each law per run, replayed from the engine's own stream
    # through a plain cumulative sum: the exit slot, the decision and the
    # truncation agree exactly, for location families (raw draws) and a
    # variance change (the chi-square form)
    M, p_f, p_d, max_n = 2, 0.1, 0.9, 20
    seen = set()
    for model in (gaussian_shift_model(1.0, theta=0.3), mixture_shift_model(0.3, 1.0, 25.0, theta=0.5),
                  variance_change_model(1.0, 1.5)):
        for seed in range(8):
            study = estimate_sprt_stopping(model, full_ring(M), p_f, p_d, 1, seed, max_n=max_n)
            replay = _sprt_replay(model, M, p_f, p_d, seed, max_n)
            for outcomes, (slot, decision) in zip((study.under_null, study.under_alt), replay):
                mean_n, declare_h1 = outcomes["centralized"].mean_n, outcomes["centralized"].declare_h1
                if decision is None:
                    assert (mean_n.count, mean_n.truncated_count, declare_h1.count) == (0, 1, 0)
                else:
                    assert (mean_n.value, mean_n.truncated_count) == (slot, 0)
                    assert declare_h1.value == (decision == "H1")
                seen.add(decision)
    assert seen == {"H0", "H1", None}


# ---------------------------------------------------------------------------
# CUSUM families (montecarlo.page_run_lengths)
# ---------------------------------------------------------------------------

def _reset_recursion(increments, gamma):
    """Alarm slot of S_n = max(0, S_{n-1} + z_n) per column, 0 if none; and resets."""
    stat = np.zeros(increments.shape[1])
    first = np.zeros(increments.shape[1], dtype=int)
    resets = 0
    for n, z in enumerate(increments, start=1):
        stat = np.maximum(0.0, stat + z)
        resets += int((stat == 0.0).sum())
        first[(first == 0) & (stat >= gamma)] = n
    return first, resets


def _replayed_increments(model, family, M, under, seed, slots):
    """The increments a one-trial chunk of the engine draws, slot by slot."""
    dof, width = {"centralized": (M, 1), "single": (1, 1), "bank": (1, M)}[family]
    draw, (p,) = increment_sampler((model.null if under == "null" else model.alt,), llr_nonlinearity(model), dof)
    rng = chunk_rng(seed, 0)
    return np.array([draw(rng, (1, width), p)[0] for _ in range(slots)])


def test_page_step_reset_rule():
    # one trial per run, replayed from the engine's own stream: the alarm
    # slot is that of the reset-at-zero recursion, and the bank's is its
    # first sensor's
    model = variance_change_model(1.0, 1.5)
    M, gamma, total_resets = 3, 2.5, 0
    for family in ("centralized", "single", "bank"):
        for seed in range(6):
            stop = page_run_lengths(model, family, [gamma], M, 1, seed, max_n=5000)
            increments = _replayed_increments(model, family, M, "null", seed, int(stop[0]))
            first, resets = _reset_recursion(increments, gamma)
            assert stop[0] > 0 and stop[0] == first[first > 0].min()
            total_resets += resets
    assert total_resets > 0


def test_page_grid_records_the_slot_of_every_level_passed():
    # levels closer than one slot's increment, so a lane often passes several at once: each level's
    # slot is that of the reset-at-zero recursion on the engine's own stream, replayed as above
    model = variance_change_model(1.0, 1.5)
    M, gammas, jumps = 3, [0.2, 0.25, 0.3, 0.35, 0.4, 2.5], 0
    for family in ("centralized", "single", "bank"):
        for seed in range(6):
            stops = page_run_lengths(model, family, gammas, M, 1, seed, max_n=5000)  # one slot per level
            increments = _replayed_increments(model, family, M, "null", seed, int(stops[-1]))
            for stop, gamma in zip(stops, gammas):
                first, _ = _reset_recursion(increments, gamma)
                assert stop > 0 and stop == first[first > 0].min()
            jumps += int((np.diff(stops) == 0).sum())
    assert jumps > 0


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    gamma=st.floats(min_value=-5.0, max_value=0.0),
    seed=st.integers(min_value=0, max_value=2**32),
    under=st.sampled_from(["null", "alt"]),
)
def test_page_cusum_never_negative(family, gamma, seed, under):
    # a statistic reset at zero is never below a threshold gamma <= 0
    model = variance_change_model(1.0, 1.5)
    stops = page_run_lengths(
        model, family, [gamma], 4, 20, seed, under=under, max_n=10, topology=full_ring(4), v=2
    )
    assert (stops == 1).all()


def test_page_bank_minimum_semantics():
    # a one-sensor bank is the single-sensor detector, trial by trial
    model = variance_change_model(1.0, 1.3)
    for under in ("null", "alt"):
        bank = page_run_lengths(model, "bank", [2.0], 1, 300, 8, under=under, max_n=10**5)
        single = page_run_lengths(model, "single", [2.0], 1, 300, 8, under=under, max_n=10**5)
        assert np.array_equal(bank, single) and bank.min() > 0


def test_zero_threshold_alarms_immediately():
    model = variance_change_model(1.0, 2.0)
    for family in FAMILIES:
        stops = page_run_lengths(model, family, [0.0], 3, 50, 0, max_n=100, topology=full_ring(3))
        assert (stops == 1).all(), family


def test_change_detection_truncation_reported():
    model = variance_change_model(1.0, 1.0001)
    for family in FAMILIES:
        stops = page_run_lengths(model, family, [1e6], 2, 40, 0, max_n=50, topology=full_ring(2))
        assert (stops == 0).all(), family
        est = Estimate.from_run_lengths(stops)
        assert est.count == 0 and est.truncated_count == 40


def test_single_node_running_equals_centralized_trial_by_trial():
    model = variance_change_model(1.0, 1.3)
    a = page_run_lengths(model, "centralized", [3.0], 1, 300, 9, max_n=10_000)
    b = page_run_lengths(model, "running", [3.0], 1, 300, 9, max_n=10_000, topology=full_ring(1), v=3)
    assert np.array_equal(a, b) and a.min() > 0


def test_two_node_full_averaging_keeps_states_identical():
    # with M=2 every pairwise exchange is full averaging, so both node
    # statistics coincide and either node alarms at the same slot
    model = variance_change_model(1.0, 1.5)
    top = full_ring(2)
    a = page_run_lengths(model, "running", [4.0], 2, 200, 5, max_n=10**5, topology=top, v=1, node=0)
    b = page_run_lengths(model, "running", [4.0], 2, 200, 5, max_n=10**5, topology=top, v=1, node=1)
    assert np.array_equal(a, b) and a.min() > 0


def test_change_time_splits_false_alarms_from_detections():
    # under="null" runs pre-change data only (false alarms), under="alt"
    # starts at the change (detections): the delay is far shorter
    model = variance_change_model(1.0, 4.0)
    false_alarm = page_run_lengths(model, "centralized", [5.0], 4, 400, 123, under="null", max_n=10**6)
    delay = page_run_lengths(model, "centralized", [5.0], 4, 400, 123, under="alt", max_n=10**6)
    assert false_alarm.min() > 0 and delay.min() > 0
    assert delay.mean() < 0.1 * false_alarm.mean()


def test_bank_mode_runs_disjoint_streams():
    # each filter of the bank sees its own sensor: its alarm is the first of
    # M independent single-sensor crossings, so it comes sooner than one
    # sensor's alone
    model = variance_change_model(1.0, 2.0)
    bank = page_run_lengths(model, "bank", [3.0], 5, 2000, 77, under="alt", max_n=100_000)
    single = page_run_lengths(model, "single", [3.0], 5, 2000, 78, under="alt", max_n=100_000)
    assert bank.min() > 0 and single.min() > 0
    assert bank.mean() < single.mean()


def test_negative_drift_under_null_resets_dominate():
    # pre-change increments summed over dof sensors have mean -dof * D(f0 || f1),
    # the LLR's mean under the null (by quadrature here), for the chi-square
    # form of the sampler and its raw-sample fallback alike (whose fusion sum
    # is a row of dof draws, summed), so the statistic keeps touching zero:
    # across a long run the reset state recurs often
    slots = 20_000
    cases = [
        (variance_change_model(1.0, 1.065024), 10, 1),  # chi-square form, fusion sum
        (variance_change_model(1.0, 1.065024), 1, 1),  # chi-square form, one sensor
        (gaussian_shift_model(1.0, theta=0.5), 1, 4),  # raw-sample fallback, fusion sum
        (mixture_shift_model(0.3, 1.0, 25.0, theta=0.5), 1, 1),
    ]
    for model, dof, row in cases:
        llr = llr_nonlinearity(model)
        draw, (p,) = increment_sampler((model.null,), llr, dof)
        increments = draw(np.random.default_rng(1), (slots, row), p).sum(axis=1)
        se = increments.std() / math.sqrt(slots)
        expected = dof * row * moments(model, llr, model.theta0).mu
        assert increments.mean() == pytest.approx(expected, abs=4 * se), dof * row
    model = cases[0][0]
    draw, (p,) = increment_sampler((model.null,), llr_nonlinearity(model), 10)
    fusion = draw(np.random.default_rng(1), (slots, 1), p)
    _, resets = _reset_recursion(fusion, math.inf)
    assert resets > 0.08 * slots


def test_only_the_chi_square_form_sums_over_sensors():
    # a raw-sample statistic has no summed form: its fusion sum is a row of draws
    model = gaussian_shift_model(1.0, theta=0.5)
    with pytest.raises(ValueError, match="dof 4"):
        increment_sampler((model.null,), llr_nonlinearity(model), 4)
