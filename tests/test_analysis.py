import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate as si

from runcons.analysis import (
    CUSUM_FAMILIES,
    bank_delay,
    delay_accurate,
    false_alarm_rate_accurate,
    false_alarm_rate_large_gamma,
    fss_asymptotic_pd,
    g_factor,
    operating_point,
    relative_efficiencies_large_gamma,
    sequential_asymptotics,
    survival_power_integral,
    theorem_bounds,
    threshold_for_rate_large_gamma,
)
from runcons.stats import QuadratureError, kl_binary, q_function, q_inverse, wald_cdf


# ---------------------------------------------------------------------------
# Convergence bounds
# ---------------------------------------------------------------------------

def test_bounds_first_slot_reaches_node_count():
    # held-sample variant at n=1: psi_U = 1, so gamma is bounded by M
    b = theorem_bounds(0.9868, 0.8921, 15, 5, include_new_sample=False)
    assert b.psi_U[0] == pytest.approx(1.0, rel=1e-12)
    assert b.gamma_upper[0] + 1.0 == pytest.approx(15.0, rel=1e-12)


def test_bounds_coincide_when_eigenvalues_match():
    lam = 13.0 / 14.0
    b = theorem_bounds(lam, lam, 15, 50, include_new_sample=False)
    assert np.allclose(b.gamma_lower, b.gamma_upper, rtol=1e-12)
    assert np.allclose(b.rho_lower, b.rho_upper, rtol=1e-12)


def test_bounds_decay_to_zero_like_one_over_n():
    b = theorem_bounds(0.95, 0.9, 10, 4000, include_new_sample=False)
    assert b.gamma_upper[-1] < 0.05
    assert b.rho_upper[-1] < 0.06
    # large-n: n * eps approaches the rate constant
    tail = b.n[-1] * b.gamma_upper[-1]
    assert tail == pytest.approx(b.rate * (10 - 1) / 10, rel=0.01)


def test_scaled_bound_approaches_rate_constant():
    # n * eps_n settles within 10% of the worst-case rate M/(1-lambda_U)
    # once n clears 50/(1-lambda_U)
    lam_u, lam_l, M = 0.9868, 0.8921, 15
    n_max = 8000
    b = theorem_bounds(lam_u, lam_l, M, n_max, include_new_sample=False)
    start = int(50.0 / (1.0 - lam_u))
    scaled = b.n[start:] * b.gamma_upper[start:]
    assert (np.abs(scaled - b.rate) / b.rate < 0.10).all()
    scaled_rho = b.n[start:] * b.rho_upper[start:]
    assert (np.abs(scaled_rho - b.rate) / b.rate < 0.10).all()


def test_bound_variants_differ_by_leading_eigenvalue_factor():
    held = theorem_bounds(0.9, 0.8, 6, 20, include_new_sample=False)
    mixed = theorem_bounds(0.9, 0.8, 6, 20, include_new_sample=True)
    assert np.allclose(mixed.psi_U, 0.9 * held.psi_U, rtol=1e-12)
    assert np.allclose(mixed.psi_L, 0.8 * held.psi_L, rtol=1e-12)
    assert held.rate == pytest.approx(6 / 0.1, rel=1e-12)
    assert mixed.rate == pytest.approx(6 * 0.9 / 0.1, rel=1e-12)


def test_bounds_reject_unit_eigenvalue():
    with pytest.raises(ValueError):
        theorem_bounds(1.0, 0.5, 4, 10, include_new_sample=False)


@settings(max_examples=40, deadline=None)
@given(
    lam_u=st.floats(min_value=0.05, max_value=0.995),
    gap=st.floats(min_value=0.0, max_value=0.5),
    M=st.integers(min_value=2, max_value=40),
)
def test_bounds_ordering_property(lam_u, gap, M):
    lam_l = max(lam_u - gap, 0.0)
    b = theorem_bounds(lam_u, lam_l, M, 64, include_new_sample=False)
    assert (b.gamma_lower <= b.gamma_upper + 1e-12).all()
    assert (b.rho_lower <= b.rho_upper + 1e-12).all()
    assert (b.gamma_lower >= -1e-12).all()
    assert b.psi_U[-1] < b.psi_U[0]


# ---------------------------------------------------------------------------
# Detection asymptotics
# ---------------------------------------------------------------------------

def test_fss_asymptotic_pd_edges():
    assert fss_asymptotic_pd(0.13, 0.0, 3.0) == pytest.approx(0.13, rel=1e-12)
    assert fss_asymptotic_pd(0.05, 1.0, 1e6) == pytest.approx(1.0, abs=1e-12)


def test_fss_asymptotic_pd_value():
    expected = q_function(q_inverse(0.05) - math.sqrt(10.0))
    assert fss_asymptotic_pd(0.05, 1.0, math.sqrt(10.0)) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.9354, abs=2e-4)


def test_sequential_asymptotics_symmetric():
    h0, h1 = sequential_asymptotics(0.05, 0.95, 2.0)
    assert h0 == pytest.approx(h1, rel=1e-12)
    assert h0 == pytest.approx(2 * kl_binary(0.05, 0.95) / 4.0, rel=1e-12)


def test_sequential_asymptotics_scaled_value():
    # symmetric design at p_e = 0.05 with d^2 = M * SNR: the limiting value
    # of E[N] * SNR is 2 D_b(0.95, 0.05) / M
    M = 10
    h0, _ = sequential_asymptotics(0.05, 0.95, math.sqrt(M))  # SNR = 1
    assert h0 == pytest.approx(2 * kl_binary(0.05, 0.95) / M, rel=1e-12)
    assert 2 * kl_binary(0.95, 0.05) / M == pytest.approx(0.9 * math.log(19.0) * 2 / M, rel=1e-12)


# ---------------------------------------------------------------------------
# CUSUM operating characteristics
# ---------------------------------------------------------------------------

def test_rate_large_gamma_limit():
    d01, M = 1e-3, 10
    for gamma in (8.0, 12.0):
        acc = false_alarm_rate_accurate(gamma, M, d01)
        large = false_alarm_rate_large_gamma(gamma, M, d01)
        assert large == pytest.approx(acc, rel=math.exp(-gamma) * (gamma + 3))


def test_single_sensor_rate_is_centralized_over_m():
    d01, M = 2e-3, 12
    gammas = np.array([1.0, 2.5, 4.0])
    assert np.allclose(
        false_alarm_rate_accurate(gammas, 1, d01),
        false_alarm_rate_accurate(gammas, M, d01) / M,
        rtol=1e-12,
    )


def test_operating_points_families_and_monotonicity():
    M, d01, d10, var1 = 10, 1e-3, 1.2e-3, 2.4e-3
    gammas = [1.0, 2.0, 3.0]
    for family in CUSUM_FAMILIES:
        points = [operating_point(family, g, M, d01, d10, var1) for g in gammas]
        assert all(p.family == family for p in points)
        for rates in ([p.rate_accurate for p in points], [p.rate_large_gamma for p in points]):
            assert all(a > b for a, b in zip(rates, rates[1:]))
        for delays in ([p.delay_accurate for p in points], [p.delay_large_gamma for p in points]):
            assert all(a < b for a, b in zip(delays, delays[1:]))
    # running consensus is credited with the fusion-center laws, a lone
    # sensor with the one-sensor laws, the bank with the survival integral
    g = 2.0
    central = operating_point("centralized", g, M, d01, d10, var1)
    running = operating_point("running", g, M, d01, d10, var1)
    single = operating_point("single", g, M, d01, d10, var1)
    bank = operating_point("bank", g, M, d01, d10, var1)
    assert running == replace(central, family="running")
    assert single.rate_accurate == pytest.approx(float(false_alarm_rate_accurate(g, 1, d01)), rel=1e-12)
    assert single.delay_accurate == pytest.approx(float(delay_accurate(g, 1, d10)), rel=1e-12)
    assert bank.rate_accurate == central.rate_accurate
    assert bank.delay_accurate == bank_delay(g, M, d10, var1).integral
    assert bank.delay_large_gamma == bank_delay(g, M, d10, var1).castillo
    with pytest.raises(ValueError):
        operating_point("centralized", 0.0, M, d01, d10, var1)
    with pytest.raises(ValueError):
        operating_point("nonsense", g, M, d01, d10, var1)


def test_threshold_inversion_round_trip():
    d01, M = 9.7e-4, 10
    for gamma in (1.5, 3.0, 5.0):
        R = float(false_alarm_rate_large_gamma(gamma, M, d01))
        assert threshold_for_rate_large_gamma(R, M, d01) == pytest.approx(gamma, rel=1e-12)


# ---------------------------------------------------------------------------
# Bank delay and efficiencies
# ---------------------------------------------------------------------------

def test_survival_integral_single_filter_is_unit_mean():
    for z in (2.0, 10.0, 50.0):
        assert survival_power_integral(z, 1) == pytest.approx(1.0, rel=1e-8)


def test_survival_integral_rejects_bad_shape_and_size():
    for z, M in ((0.0, 5), (-1.0, 5), (math.nan, 5), (2.0, 0)):
        with pytest.raises(ValueError):
            survival_power_integral(z, M)


def test_survival_integral_against_direct_quadrature():
    z, M = 7.0, 12
    direct, _ = si.quad(lambda x: (1.0 - wald_cdf(x, z)) ** M, 0.0, 50.0, limit=300)
    assert survival_power_integral(z, M) == pytest.approx(direct, rel=1e-6)


def test_bank_delay_single_filter_matches_lone_sensor():
    d10, var1 = 1.013e-3, 2.114e-3
    for gamma in (25.0, 40.0):
        delay = bank_delay(gamma, 1, d10, var1)
        lone = float(delay_accurate(gamma, 1, d10))
        assert delay.integral == pytest.approx(lone, rel=0.02)


def test_bank_delay_decreasing_in_m():
    d10, var1 = 1.013e-3, 2.114e-3
    gamma = 25.0
    values = [bank_delay(gamma, M, d10, var1).integral for M in (1, 5, 10, 30)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_bank_delay_castillo_agrees_for_large_m():
    d10, var1 = 1.013e-3, 2.114e-3
    delta = d10 / var1
    for M in (50, 100, 200):
        gamma = 12.0 / delta  # keeps gamma * delta at 12
        delay = bank_delay(gamma, M, d10, var1)
        assert delay.castillo == pytest.approx(delay.integral, rel=0.10)


def test_g_factor_at_least_one():
    d01, d10, var1 = 9.7166e-4, 1.0133e-3, 2.1141e-3
    for M in (1, 2, 10, 100, 300):
        for R in (1e-4, 1e-5, 1e-6):
            assert g_factor(M, R, d01, d10, var1) >= 1.0 - 1e-9


def test_g_factor_raises_where_the_survival_collapses_past_the_quadrature():
    # M = 500 sensors: at Wald shape z = 0.02 the survival integral resolves and matches scipy on a
    # log scale; at z = 0.015 its bulk lies short of the rule's first abscissa on [0, 2], and the
    # quadrature reads about 5e-17 against a true 1.47e-3
    M, R, d01 = 500, 1e-4, 1.0
    gamma = threshold_for_rate_large_gamma(R, M, d01)
    z = 0.02
    oracle, _ = si.quad(lambda s: (1.0 - wald_cdf(math.exp(s), z)) ** M * math.exp(s),
                        math.log(z) - 40.0, math.log(50.0), points=[math.log(z)], limit=500)
    assert 1.0 / g_factor(M, R, d01, z / gamma, 1.0) == pytest.approx(oracle, rel=1e-8)
    with pytest.raises(QuadratureError, match="below its floor"):
        g_factor(M, R, d01, 0.015 / gamma, 1.0)


def test_relative_efficiencies_structure():
    d01, d10, var1 = 9.7166e-4, 1.0133e-3, 2.1141e-3
    M = 10
    points = relative_efficiencies_large_gamma([1e-4, 1e-5, 1e-6, 1e-7], M, d01, d10, var1)
    for p in points:
        assert p.eta_cr == 1.0
        braces = 1 + math.log(M) / math.log(d01 / p.R)
        assert p.eta_sr == pytest.approx(braces / M, rel=1e-12)
        g = g_factor(M, p.R, d01, d10, var1)
        assert p.eta_br == pytest.approx(g / M, rel=1e-9)
        assert p.eta_bs == pytest.approx(g / braces, rel=1e-9)
    # scaled single-sensor efficiency decreases toward 1/M as R shrinks
    scaled = [p.eta_sr * M for p in points]
    assert all(a > b for a, b in zip(scaled, scaled[1:]))
    assert scaled[-1] < 1.3


def test_relative_efficiencies_reject_large_rate():
    d01, d10, var1 = 9.7166e-4, 1.0133e-3, 2.1141e-3
    for R in (d01, 1e-3):
        with pytest.raises(ValueError):
            relative_efficiencies_large_gamma([R], 10, d01, d10, var1)
