import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scistats

from runcons import stats as stats_module
from runcons.stats import (
    Gaussian,
    GaussianMixture,
    Identity,
    MomentSet,
    efficacy,
    fisher_information,
    gaussian_shift_model,
    integrate_real_line,
    kl_binary,
    kl_divergence,
    llr_nonlinearity,
    mixture_shift_model,
    moments,
    q_function,
    q_inverse,
    score_nonlinearity,
    variance_change_model,
    vector_third_moment,
    wald_cdf,
    wald_cdf_inverse,
)


# ---------------------------------------------------------------------------
# Gaussian tail
# ---------------------------------------------------------------------------

def test_q_function_at_zero():
    assert q_function(0.0) == pytest.approx(0.5, abs=1e-15)


def test_q_function_left_tail_limit():
    assert q_function(-6.0) == pytest.approx(1.0, abs=1e-9)


def test_q_function_standard_quantile():
    # independent route: stdlib complementary error function
    assert q_function(1.6449) == pytest.approx(math.erfc(1.6449 / math.sqrt(2)) / 2, rel=1e-12)
    assert q_function(1.6449) == pytest.approx(0.05, abs=1e-4)


def test_q_inverse_round_trip():
    # below about -5.4 the tail probability saturates toward 1.0 and float64
    # cannot carry enough resolution in p for a 1e-9 round trip
    for x in np.linspace(-5.4, 6.0, 25):
        assert q_inverse(float(q_function(x))) == pytest.approx(x, abs=1e-9)
    for x in np.linspace(-6.0, -5.4, 7):
        assert q_inverse(float(q_function(x))) == pytest.approx(x, abs=5e-8)


def test_q_inverse_domain():
    with pytest.raises(ValueError):
        q_inverse(0.0)
    with pytest.raises(ValueError):
        q_inverse(1.0)


# ---------------------------------------------------------------------------
# Binary divergence
# ---------------------------------------------------------------------------

def test_kl_binary_closed_form_value():
    assert kl_binary(0.9, 0.1) == pytest.approx(0.8 * math.log(9.0), rel=1e-12)


def test_kl_binary_zero_on_diagonal():
    for p in (0.1, 0.5, 0.93):
        assert kl_binary(p, p) == pytest.approx(0.0, abs=1e-15)


@settings(max_examples=50, deadline=None)
@given(
    p=st.floats(min_value=0.01, max_value=0.99),
    q=st.floats(min_value=0.01, max_value=0.99),
)
def test_kl_binary_nonnegative(p, q):
    value = kl_binary(p, q)
    assert value >= -1e-15
    if abs(p - q) > 1e-6:
        assert value > 0.0


def test_kl_binary_boundary_rejected():
    with pytest.raises(ValueError):
        kl_binary(0.0, 0.5)
    with pytest.raises(ValueError):
        kl_binary(0.5, 1.0)


# ---------------------------------------------------------------------------
# Wald / inverse Gaussian law
# ---------------------------------------------------------------------------

def test_wald_cdf_limits():
    assert wald_cdf(1e6, 3.0) == pytest.approx(1.0, abs=1e-9)
    assert wald_cdf(1e-6, 3.0) == pytest.approx(0.0, abs=1e-9)


def test_wald_cdf_monotone_and_bounded():
    for z in (0.5, 5.0, 50.0):
        xs = np.linspace(0.01, 10.0, 400)
        values = wald_cdf(xs, z)
        assert (np.diff(values) >= -1e-12).all()
        assert (values >= 0.0).all() and (values <= 1.0 + 1e-12).all()


def test_wald_cdf_stable_for_huge_shape():
    values = wald_cdf(np.array([0.5, 1.0, 2.0]), 500.0)
    assert np.isfinite(values).all()
    assert (values >= 0.0).all() and (values <= 1.0).all()


def test_wald_cdf_matches_scipy_inverse_gaussian():
    # unit-mean law with shape z == scipy invgauss(mu=1/z, scale=z)
    for z in (0.7, 4.0, 25.0):
        xs = np.linspace(0.05, 6.0, 60)
        ours = wald_cdf(xs, z)
        reference = scistats.invgauss.cdf(xs, mu=1.0 / z, scale=z)
        assert np.abs(ours - reference).max() < 1e-10


def test_wald_cdf_matches_random_walk_stopping_times():
    # single-barrier positive-drift Gaussian walk; scaled stopping times
    # should follow the unit-mean law with shape gamma * drift / variance
    drift, barrier = 0.1, 100.0
    z = barrier * drift  # unit-variance steps
    trials = 100_000
    rng = np.random.default_rng(31)
    steps = np.zeros(trials, dtype=np.int64)
    alive = np.arange(trials)
    position = np.zeros(trials)
    block = 256
    while alive.size:
        path = (
            position[alive, None]
            + drift * np.arange(1, block + 1)[None, :]
            + rng.standard_normal((alive.size, block)).cumsum(axis=1)
        )
        crossed = path >= barrier
        any_cross = crossed.any(axis=1)
        steps[alive[any_cross]] += crossed.argmax(axis=1)[any_cross] + 1
        steps[alive[~any_cross]] += block
        position[alive[~any_cross]] = path[~any_cross, -1]
        alive = alive[~any_cross]
    scaled = np.sort(steps / (barrier / drift))
    grid = np.unique(scaled)
    empirical = np.searchsorted(scaled, grid, side="right") / trials
    predicted = wald_cdf(grid, z)
    assert np.abs(empirical - predicted).max() < 0.02


def test_wald_cdf_rejects_nonpositive_time_and_shape():
    with pytest.raises(ValueError, match="x > 0"):
        wald_cdf(0.0, 3.0)
    with pytest.raises(ValueError, match="x > 0"):
        wald_cdf(-1.5, 3.0)
    with pytest.raises(ValueError, match="x > 0"):
        wald_cdf(np.array([0.5, 1.0, 0.0, 2.0]), 3.0)
    with pytest.raises(ValueError, match="x > 0"):
        wald_cdf(np.array([[0.5, 1.0], [2.0, -3.0]]), 3.0)
    with pytest.raises(ValueError, match="z > 0"):
        wald_cdf(1.0, 0.0)
    with pytest.raises(ValueError, match="z > 0"):
        wald_cdf(np.array([0.5, 1.0]), -2.0)


def test_wald_inverse_round_trip():
    for z in (0.8, 5.0, 40.0):
        y = float(wald_cdf(1.0, z))
        assert wald_cdf_inverse(y, z) == pytest.approx(1.0, abs=1e-7)


def test_wald_inverse_median_concentrates_for_large_shape():
    assert wald_cdf_inverse(0.5, 100.0) == pytest.approx(1.0, abs=0.01)


def test_wald_inverse_monotone():
    z = 4.0
    values = [wald_cdf_inverse(y, z) for y in (0.05, 0.2, 0.5, 0.8, 0.95)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_wald_inverse_domain():
    with pytest.raises(ValueError):
        wald_cdf_inverse(0.0, 1.0)
    with pytest.raises(ValueError):
        wald_cdf_inverse(1.0, 1.0)


# ---------------------------------------------------------------------------
# Distributions and sampling
# ---------------------------------------------------------------------------

def test_sampling_moments_gaussian():
    dist = Gaussian(1.5, 2.0)
    draws = dist.sample(np.random.default_rng(5), 1_000_000)
    se_mean = math.sqrt(2.0 / draws.size)
    assert draws.mean() == pytest.approx(1.5, abs=4 * se_mean)
    se_var = math.sqrt(2.0 * 2.0**2 / draws.size)
    assert draws.var(ddof=1) == pytest.approx(2.0, abs=4 * se_var)


def test_sampling_moments_mixture():
    dist = GaussianMixture(0.3, 0.0, 1.0, 25.0)
    draws = dist.sample(np.random.default_rng(6), 1_000_000)
    target_var = 0.3 * 1.0 + 0.7 * 25.0
    assert draws.mean() == pytest.approx(0.0, abs=4 * math.sqrt(target_var / draws.size))
    fourth = 3 * (0.3 * 1.0 + 0.7 * 625.0)  # mixture of Gaussian fourth moments
    se_var = math.sqrt((fourth - target_var**2) / draws.size)
    assert draws.var(ddof=1) == pytest.approx(target_var, abs=4 * se_var)


def test_mixture_logpdf_matches_scipy_logsumexp_bit_for_bit():
    from scipy.special import logsumexp

    def terms(dist, x):
        u = np.asarray(x, dtype=float) - dist.mean
        with np.errstate(over="ignore"):  # u * u overflows past |u| ~1e154
            a = np.log(dist.weight) - 0.5 * (np.log(2.0 * np.pi * dist.variance1) + u * u / dist.variance1)
            b = np.log(1.0 - dist.weight) - 0.5 * (np.log(2.0 * np.pi * dist.variance2) + u * u / dist.variance2)
        return a, b

    def same_bits(dist, x):
        value = dist.logpdf(x)
        expected = logsumexp(np.stack(terms(dist, x)), axis=0)
        assert type(value) is type(expected)
        return value.tobytes() == expected.tobytes()

    # |x| from 0.1 to 1e200 (past ~1e154 both terms are -inf), plus a random
    # spread on which np.logaddexp would differ from scipy in the last bit
    dist = GaussianMixture(0.3, 0.5, 1.0, 25.0)
    rng = np.random.default_rng(8)
    magnitudes = np.concatenate([10.0 ** np.linspace(-1.0, 200.0, 400), 10.0 ** rng.uniform(-1.0, 2.0, 3600)])
    xs = dist.mean + np.where(rng.random(magnitudes.size) < 0.5, -1.0, 1.0) * magnitudes
    xs[:2] = [dist.mean, np.nan]
    assert same_bits(dist, xs)
    assert same_bits(dist, xs.reshape(400, 10))
    for x in (*xs[:100], *xs[390:410], 1e200, -1e200):
        assert type(dist.logpdf(x)) is np.float64
        assert same_bits(dist, x)
    assert dist.logpdf(1e200) == -np.inf
    assert np.isnan(dist.logpdf(np.nan))

    # exact tie a == b: log1p(exp(0)) must equal scipy's log(2)
    tie = GaussianMixture(0.5, 0.0, 2.0, 2.0)
    grid = np.linspace(-5.0, 5.0, 101)
    a, b = terms(tie, grid)
    assert np.array_equal(a, b)
    assert same_bits(tie, grid)
    assert same_bits(tie, 1.25)


def test_logpdf_far_out_is_minus_inf_without_warnings():
    # past |x| ~1e154 the squared deviation overflows; -inf is the right result
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for dist in (Gaussian(0.3, 2.2), GaussianMixture(0.3, 0.5, 1.0, 25.0)):
            for x in (1e160, -1e160, 1e200, -1e200):
                assert dist.logpdf(x) == -np.inf
            assert (dist.logpdf(np.array([1e160, -1e160, 1e200, -1e200])) == -np.inf).all()


def test_pdfs_integrate_to_one():
    for dist in (Gaussian(0.3, 2.2), GaussianMixture(0.25, -1.0, 0.5, 9.0)):
        total = integrate_real_line(dist.pdf, dist.quad_hint())
        assert total == pytest.approx(1.0, rel=1e-8)


def test_variance_change_is_zero_mean_gaussian():
    dist = variance_change_model(1.0, 1.065024).alt
    assert isinstance(dist, Gaussian)
    assert dist.mean == 0.0 and dist.variance == pytest.approx(1.065024)


# ---------------------------------------------------------------------------
# Moments and efficacy
# ---------------------------------------------------------------------------

def test_identity_gaussian_moments_closed_form():
    model = gaussian_shift_model(2.0, theta=0.7)
    m = moments(model, Identity(), 0.7)
    assert m.mu == pytest.approx(0.7)
    assert m.sigma2 == pytest.approx(2.0)
    assert m.mu_prime_at_theta0 == pytest.approx(1.0)
    # single coordinate: sigma^3 times the absolute third moment of a unit normal
    xi3, se = vector_third_moment(model, Identity(), 0.7, 1)
    assert xi3 == pytest.approx(2.0**1.5 * math.sqrt(8.0 / math.pi), rel=1e-10)
    assert se == 0.0


def test_identity_gaussian_vector_third_moment_against_quadrature():
    # E[ chi_M^3 ] via the radial density as an independent oracle
    model = gaussian_shift_model(1.0, theta=0.0)
    for M in (1, 3, 10):
        xi3, _ = vector_third_moment(model, Identity(), 0.0, M)
        from scipy import integrate as si

        radial, _ = si.quad(
            lambda r: r**3 * (r ** (M - 1)) * np.exp(-r * r / 2.0), 0.0, np.inf
        )
        norm, _ = si.quad(lambda r: (r ** (M - 1)) * np.exp(-r * r / 2.0), 0.0, np.inf)
        assert xi3 == pytest.approx(radial / norm, rel=1e-9)


def test_moments_closed_form_agrees_with_quadrature():
    model = gaussian_shift_model(1.7, theta=0.4)
    closed = moments(model, Identity(), 0.4)
    dist = model.at(0.4)
    mu = integrate_real_line(lambda x: x * dist.pdf(x), dist.quad_hint())
    second = integrate_real_line(lambda x: x * x * dist.pdf(x), dist.quad_hint())
    assert closed.mu == pytest.approx(mu, abs=1e-6)
    assert closed.sigma2 == pytest.approx(second - mu * mu, abs=1e-6)


def test_score_gaussian_variance_is_fisher_information():
    model = gaussian_shift_model(2.5, theta=0.3)
    score = score_nonlinearity(model)
    m0 = moments(model, score, 0.0)
    assert m0.mu == pytest.approx(0.0, abs=1e-12)
    assert m0.sigma2 == pytest.approx(1 / 2.5, rel=1e-12)
    assert fisher_information(model) == pytest.approx(1 / 2.5, rel=1e-8)


def test_score_integrates_to_zero_under_null():
    model = mixture_shift_model(0.3, 1.0, 25.0, theta=0.2)
    score = score_nonlinearity(model)
    null = model.at(0.0)
    value = integrate_real_line(lambda x: score(x) * null.pdf(x), null.quad_hint())
    assert abs(value) < 1e-6


def test_mixture_score_fisher_information_stable():
    model = mixture_shift_model(0.3, 1.0, 25.0, theta=0.1)
    i0_a = fisher_information(model)
    i0_b = integrate_real_line(
        lambda x: score_nonlinearity(model)(x) ** 2 * model.null.pdf(x),
        model.null.quad_hint(),
        rel_tol=1e-10,
    )
    assert i0_a > 0.0
    assert i0_a == pytest.approx(i0_b, abs=1e-6)


def test_mixture_score_mu_prime_matches_central_difference():
    model = mixture_shift_model(0.3, 1.0, 25.0, theta=0.1)
    score = score_nonlinearity(model)
    m0 = moments(model, score, 0.0)
    h = 1e-4
    mu = []
    for theta in (-h, h):
        dist = model.at(theta)
        mu.append(integrate_real_line(lambda x: score(x) * dist.pdf(x), dist.quad_hint()))
    slope = (mu[1] - mu[0]) / (2 * h)
    assert m0.mu_prime_at_theta0 == pytest.approx(slope, rel=1e-4)


def test_mixture_score_moments_match_monte_carlo():
    model = mixture_shift_model(0.3, 1.0, 25.0, theta=0.25)
    score = score_nonlinearity(model)
    m = moments(model, score, 0.25)
    draws = model.at(0.25).sample(np.random.default_rng(8), 2_000_000)
    values = score(draws)
    assert m.mu == pytest.approx(values.mean(), abs=4 * values.std() / math.sqrt(values.size))
    assert m.sigma2 == pytest.approx(values.var(ddof=1), rel=0.01)


def test_vector_third_moment_monte_carlo_reports_std_err():
    model = mixture_shift_model(0.3, 1.0, 25.0, theta=0.0)
    xi3, se = vector_third_moment(model, Identity(), 0.0, 4)
    assert se > 0.0
    assert xi3 > moments(model, Identity(), 0.0).sigma2**1.5


def test_vector_third_moment_mixture_score_quadrature_matches_monte_carlo():
    # M = 1 on a nonlinearity without a closed form: the quadrature path
    model = mixture_shift_model(0.3, 1.0, 25.0, theta=0.25)
    score = score_nonlinearity(model)
    xi3, se = vector_third_moment(model, score, 0.25, 1)
    values = score(model.at(0.25).sample(np.random.default_rng(9), 2_000_000))
    cubes = np.abs(values - values.mean()) ** 3
    assert se == 0.0
    assert xi3 == pytest.approx(cubes.mean(), abs=4 * cubes.std() / math.sqrt(cubes.size))


def test_vector_third_moment_rejects_impossible_value(monkeypatch):
    # E|t - mu|^3 >= sigma^3 by Jensen; a broken closed form must not pass
    monkeypatch.setattr(stats_module, "_chi_third_moment", lambda M: 0.5)
    with pytest.raises(ValueError, match="xi3 below"):
        vector_third_moment(gaussian_shift_model(4.0, theta=0.0), Identity(), 0.0, 1)


def test_efficacy_gaussian_shift():
    model = gaussian_shift_model(1.0, theta=0.1)
    m0 = moments(model, Identity(), 0.0)
    assert efficacy(m0, 10) == pytest.approx(math.sqrt(10.0), rel=1e-12)
    assert efficacy(m0, 40) == pytest.approx(2 * efficacy(m0, 10), rel=1e-12)


def test_efficacy_mixture_score_attains_fisher_bound():
    model = mixture_shift_model(0.3, 1.0, 25.0, theta=0.1)
    m0 = moments(model, score_nonlinearity(model), 0.0)
    i0 = fisher_information(model)
    assert efficacy(m0, 10) == pytest.approx(math.sqrt(10 * i0), rel=1e-6)


def test_efficacy_rejects_flat_mean():
    m = MomentSet(mu=0.0, sigma2=1.0, mu_prime_at_theta0=0.0)
    with pytest.raises(ValueError):
        efficacy(m, 4)


# ---------------------------------------------------------------------------
# Divergences
# ---------------------------------------------------------------------------

def test_kl_divergence_identical_is_zero():
    dist = Gaussian(0.0, 1.3)
    assert kl_divergence(dist, dist) == pytest.approx(0.0, abs=1e-14)


def test_kl_divergence_variance_pair_closed_form():
    model = variance_change_model(1.0, 1.032**2)
    sig2 = 1.032**2
    expected_01 = 0.5 * (1 / sig2 - 1 + math.log(sig2))
    expected_10 = 0.5 * (sig2 - 1 - math.log(sig2))
    assert kl_divergence(model.null, model.alt) == pytest.approx(expected_01, rel=1e-12)
    assert kl_divergence(model.alt, model.null) == pytest.approx(expected_10, rel=1e-12)
    assert expected_01 == pytest.approx(9.716554615e-4, rel=1e-9)
    assert expected_01 != pytest.approx(expected_10, rel=1e-3)  # asymmetric


def test_kl_divergence_closed_form_matches_quadrature():
    a, b = Gaussian(0.1, 1.0), Gaussian(0.0, 1.4)
    quad = integrate_real_line(
        lambda x: a.pdf(x) * (a.logpdf(x) - b.logpdf(x)), (-15.0, 15.0)
    )
    assert kl_divergence(a, b) == pytest.approx(quad, rel=1e-8)


def test_llr_moments_variance_change():
    # variance of the log ratio under the post-change law, by quadrature
    model = variance_change_model(1.0, 1.065024)
    llr = llr_nonlinearity(model)
    m1 = moments(model, llr, model.theta)
    assert m1.sigma2 == pytest.approx((1.065024 - 1.0) ** 2 / 2.0, rel=1e-8)
    assert m1.mu == pytest.approx(kl_divergence(model.alt, model.null), rel=1e-8)
