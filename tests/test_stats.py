import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scistats
from scipy.special import log_ndtr, ndtr, ndtri

from runcons import stats as stats_module
from runcons.stats import (
    _log_q,
    Gaussian,
    GaussianMixture,
    Identity,
    MomentSet,
    efficacy,
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
    wald_cdf,
    wald_cdf_inverse,
)


# ---------------------------------------------------------------------------
# Gaussian tail, against scipy.special as the oracle
# ---------------------------------------------------------------------------

def _agrees(ours, oracle) -> bool:
    # relative 1e-12 wherever the oracle is above 1e-290, absolute 1e-302 below
    return ours == pytest.approx(oracle, rel=1e-12, abs=1e-302)


def test_q_function_matches_scipy_ndtr():
    for x in np.linspace(-8.0, 37.0, 4501):
        value = q_function(float(x))
        assert type(value) is float
        assert _agrees(value, float(ndtr(-x))), x


def test_log_q_matches_scipy_log_ndtr():
    near_zero = np.geomspace(1e-12, 1.0, 121)
    # the grid steps through 35, where erfc hands over to the asymptotic series
    for t in np.concatenate((np.linspace(-36.0, 200.0, 4721), near_zero, -near_zero, [0.0])):
        assert _agrees(_log_q(float(t)), float(log_ndtr(-t))), t


def test_q_inverse_matches_scipy_ndtri():
    for p in np.concatenate((np.geomspace(1e-300, 0.5, 1201), 1.0 - np.geomspace(1e-16, 0.5, 321))):
        value = q_inverse(float(p))
        assert type(value) is float
        assert _agrees(value, float(-ndtri(p))), p


def test_q_function_at_zero():
    assert q_function(0.0) == pytest.approx(0.5, abs=1e-15)


def test_q_function_left_tail_limit():
    assert q_function(-6.0) == pytest.approx(1.0, abs=1e-9)


def test_q_function_standard_quantile():
    assert q_function(1.6449) == pytest.approx(0.05, abs=1e-4)


def test_q_inverse_round_trip():
    # below about -5.4 the tail probability saturates toward 1.0 and float64
    # cannot carry enough resolution in p for a 1e-9 round trip
    for x in np.linspace(-5.4, 6.0, 25):
        assert q_inverse(q_function(float(x))) == pytest.approx(x, abs=1e-9)
    for x in np.linspace(-6.0, -5.4, 7):
        assert q_inverse(q_function(float(x))) == pytest.approx(x, abs=5e-8)


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

def _wald_cdf_oracle(x: float, z: float) -> float:
    # the law's two terms through scipy.special
    s = math.sqrt(z / x)
    return float(ndtr((x - 1.0) * s) + np.exp(2.0 * z + log_ndtr(-((x + 1.0) * s))))


def test_wald_cdf_limits():
    assert wald_cdf(1e6, 3.0) == pytest.approx(1.0, abs=1e-9)
    assert wald_cdf(1e-6, 3.0) == pytest.approx(0.0, abs=1e-9)
    for z in (0.1, 0.7, 3.0, 21.0, 50.0, 500.0):
        for x in np.geomspace(1e-6, 1e6, 121):
            value = wald_cdf(float(x), z)
            assert type(value) is float
            assert _agrees(value, _wald_cdf_oracle(float(x), z)), (x, z)


def test_wald_cdf_monotone_and_bounded():
    for z in (0.5, 5.0, 50.0):
        xs = np.linspace(0.01, 10.0, 400)
        values = np.array([wald_cdf(x, z) for x in xs])
        assert (np.diff(values) >= -1e-12).all()
        assert (values >= 0.0).all() and (values <= 1.0 + 1e-12).all()


def test_wald_cdf_stable_for_huge_shape():
    values = np.array([wald_cdf(x, 500.0) for x in (0.5, 1.0, 2.0)])
    assert np.isfinite(values).all()
    assert (values >= 0.0).all() and (values <= 1.0).all()


def test_wald_cdf_matches_scipy_inverse_gaussian():
    # unit-mean law with shape z == scipy invgauss(mu=1/z, scale=z)
    for z in (0.7, 4.0, 25.0):
        xs = np.linspace(0.05, 6.0, 60)
        ours = np.array([wald_cdf(x, z) for x in xs])
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
    predicted = np.array([wald_cdf(x, z) for x in grid])
    assert np.abs(empirical - predicted).max() < 0.02


def test_wald_cdf_rejects_nonpositive_time_and_shape():
    with pytest.raises(ValueError, match="x > 0"):
        wald_cdf(0.0, 3.0)
    with pytest.raises(ValueError, match="x > 0"):
        wald_cdf(-1.5, 3.0)
    with pytest.raises(ValueError, match="x > 0"):
        [wald_cdf(x, 3.0) for x in (0.5, 1.0, 0.0, 2.0)]
    with pytest.raises(ValueError, match="x > 0"):
        [wald_cdf(x, 3.0) for x in (0.5, 1.0, 2.0, -3.0)]
    with pytest.raises(ValueError, match="x > 0"):
        wald_cdf(math.nan, 3.0)
    with pytest.raises(ValueError, match="z > 0"):
        wald_cdf(1.0, 0.0)
    with pytest.raises(ValueError, match="z > 0"):
        [wald_cdf(x, -2.0) for x in (0.5, 1.0)]
    with pytest.raises(ValueError, match="z > 0"):
        wald_cdf(1.0, math.nan)


def test_wald_inverse_round_trip():
    for z in (0.8, 5.0, 40.0):
        y = wald_cdf(1.0, z)
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
    with pytest.raises(ValueError, match="z > 0"):
        wald_cdf_inverse(0.5, math.nan)
    with pytest.raises(ValueError, match="z > 0"):
        wald_cdf_inverse(0.5, 0.0)


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
# Adaptive quadrature, against scipy's QUADPACK as the oracle
# ---------------------------------------------------------------------------

def test_integrate_rule_is_gauss10_inside_kronrod21():
    nodes, weights = np.polynomial.legendre.leggauss(10)
    gauss = stats_module._GAUSS_WEIGHTS != 0.0
    np.testing.assert_allclose(stats_module._NODES[gauss], nodes, rtol=0, atol=1e-15)
    np.testing.assert_allclose(stats_module._GAUSS_WEIGHTS[gauss], weights, rtol=0, atol=1e-15)
    # K21 is exact on polynomials through degree 3*10 + 1
    for k in range(32):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert stats_module._NODES ** k @ stats_module._KRONROD_WEIGHTS == pytest.approx(exact, abs=1e-15)


def _agrees_with_quad(fn, a, b, *, abs_floor=0.0, **tolerances):
    from scipy import integrate as si

    value, err = stats_module.integrate(fn, a, b, **tolerances)
    expected, _ = si.quad(fn, a, b, **tolerances)
    assert value == pytest.approx(expected, rel=1e-12, abs=abs_floor)
    assert err <= max(tolerances["epsabs"], tolerances["epsrel"] * abs(value))


@pytest.mark.parametrize("fn, a, b", [
    (lambda x: np.exp(-0.5 * x * x) * np.cos(3.0 * x), -3.0, 5.0),
    (lambda x: np.exp(-0.5 * x * x) * np.cos(3.0 * x), -np.inf, 1.0),
    (lambda x: x * x * np.exp(-x), 0.5, np.inf),
    (lambda x: 1.0 / (1.0 + x * x), -np.inf, -2.0),
    (lambda x: 1.0 / (1.0 + x * x), 0.0, np.inf),
], ids=["finite", "lower-infinite", "upper-infinite", "algebraic-lower", "algebraic-upper"])
def test_integrate_matches_quad_on_finite_and_half_infinite_ranges(fn, a, b):
    _agrees_with_quad(fn, a, b, epsabs=1e-14, epsrel=1e-8, limit=300)


@pytest.mark.parametrize("theta", [0.0, 0.5])
@pytest.mark.parametrize("kind", ["score", "llr"])
def test_integrate_matches_quad_on_mixture_moment_integrands(kind, theta):
    model = mixture_shift_model(0.5, 1.0, 4.0, 0.5)
    t = score_nonlinearity(model) if kind == "score" else llr_nonlinearity(model)
    dist = model.at(theta)
    lo, hi = dist.quad_hint()
    for power in (1, 2):
        for a, b in ((-np.inf, lo), (lo, hi), (hi, np.inf)):
            # the tails hold about 1e-32 and the score's null mean is 0: the floor is far below epsabs
            _agrees_with_quad(lambda x: t(x) ** power * dist.pdf(x), a, b, abs_floor=1e-17,
                              epsabs=1e-14, epsrel=1e-8, limit=300)


def _survival_oracle(z, M):
    from scipy import integrate as si

    value, _ = si.quad(lambda x: (1.0 - wald_cdf(x, z)) ** M, 0.0, 64.0, epsabs=1e-12, epsrel=1e-10, limit=400)
    return value


def test_survival_power_integral_matches_quad_on_re1_corners_and_c11():
    from runcons import analysis

    model = variance_change_model(1.0, 1.065024)  # fig:RE1 and acceptance check C11
    d01, d10 = kl_divergence(model.null, model.alt), kl_divergence(model.alt, model.null)
    delta = d10 / moments(model, llr_nonlinearity(model), model.theta).sigma2
    cases = [(math.log(M * d01 / R) * delta, M) for M in (2, 500) for R in (1e-4, 1e-7)]
    cases += [(21.0 * delta, M) for M in (5, 10, 30)]
    for z, M in cases:
        assert analysis.survival_power_integral(z, M) == pytest.approx(_survival_oracle(z, M), rel=1e-12)


def test_integrate_returns_its_error_when_the_subdivision_limit_runs_out():
    # about 4e5 oscillations over the hinted bulk: 300 subintervals cannot resolve them
    dist = Gaussian(0.0, 1.0)
    calls = []

    def fn(x):
        calls.append(x.size)
        return np.cos(1e5 * x) * dist.pdf(x)

    value, err = stats_module.integrate(fn, -12.0, 12.0, epsabs=1e-14, epsrel=1e-8, limit=300)
    assert calls == [21] * (2 * 300 - 1)  # the first rule, then two per bisection
    assert err > max(1e-14, 1e-8 * abs(value))
    with pytest.raises(stats_module.QuadratureError):
        integrate_real_line(fn, dist.quad_hint())


def test_integrate_rejects_two_infinite_limits():
    with pytest.raises(ValueError, match="infinite"):
        stats_module.integrate(np.exp, -np.inf, np.inf, epsabs=1e-14, epsrel=1e-8, limit=50)


# ---------------------------------------------------------------------------
# Moments and efficacy
# ---------------------------------------------------------------------------

def test_identity_gaussian_moments_closed_form():
    model = gaussian_shift_model(2.0, theta=0.7)
    m = moments(model, Identity(), 0.7)
    assert m.mu == pytest.approx(0.7)
    assert m.sigma2 == pytest.approx(2.0)
    assert m.mu_prime_at_theta0 == pytest.approx(1.0)


def test_moments_closed_form_agrees_with_quadrature():
    model = gaussian_shift_model(1.7, theta=0.4)
    closed = moments(model, Identity(), 0.4)
    dist = model.at(0.4)
    mu = integrate_real_line(lambda x: x * dist.pdf(x), dist.quad_hint())
    second = integrate_real_line(lambda x: x * x * dist.pdf(x), dist.quad_hint())
    assert closed.mu == pytest.approx(mu, abs=1e-6)
    assert closed.sigma2 == pytest.approx(second - mu * mu, abs=1e-6)


def _fisher_information(model, rel_tol=1e-8) -> float:
    """I(theta0): the squared score integrated under the null law."""
    score = score_nonlinearity(model)
    return integrate_real_line(lambda x: score(x) ** 2 * model.null.pdf(x), model.null.quad_hint(), rel_tol)


def test_score_gaussian_variance_is_fisher_information():
    model = gaussian_shift_model(2.5, theta=0.3)
    score = score_nonlinearity(model)
    m0 = moments(model, score, 0.0)
    assert m0.mu == pytest.approx(0.0, abs=1e-12)
    assert m0.sigma2 == pytest.approx(1 / 2.5, rel=1e-12)
    assert _fisher_information(model) == pytest.approx(1 / 2.5, rel=1e-8)


def test_score_integrates_to_zero_under_null():
    model = mixture_shift_model(0.3, 1.0, 25.0, theta=0.2)
    score = score_nonlinearity(model)
    null = model.at(0.0)
    value = integrate_real_line(lambda x: score(x) * null.pdf(x), null.quad_hint())
    assert abs(value) < 1e-6


def test_mixture_score_fisher_information_stable():
    model = mixture_shift_model(0.3, 1.0, 25.0, theta=0.1)
    i0_a = moments(model, score_nonlinearity(model), 0.0).mu_prime_at_theta0
    i0_b = _fisher_information(model, rel_tol=1e-10)
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


def test_llr_slope_is_the_null_expectation_of_llr_times_score():
    # mu'(theta0) = E_theta0[t s] depends on the null law alone, so the slope is
    # the same whichever theta the moments are taken at
    model = gaussian_shift_model(2.0, theta=0.3)
    llr = llr_nonlinearity(model)
    slopes = [moments(model, llr, theta).mu_prime_at_theta0 for theta in (model.theta0, model.theta)]
    assert slopes[0] == slopes[1]
    assert slopes[0] == pytest.approx((model.theta - model.theta0) / 2.0, rel=1e-12)

    mixture = mixture_shift_model(0.3, 1.0, 25.0, theta=0.1)
    llr = llr_nonlinearity(mixture)
    h = 1e-4
    mu = []
    for theta in (-h, h):
        dist = mixture.at(theta)
        mu.append(integrate_real_line(lambda x: llr(x) * dist.pdf(x), dist.quad_hint()))
    slope = (mu[1] - mu[0]) / (2 * h)
    assert moments(mixture, llr, 0.0).mu_prime_at_theta0 == pytest.approx(slope, rel=1e-6)


def test_mixture_score_moments_match_monte_carlo():
    model = mixture_shift_model(0.3, 1.0, 25.0, theta=0.25)
    score = score_nonlinearity(model)
    m = moments(model, score, 0.25)
    draws = model.at(0.25).sample(np.random.default_rng(8), 2_000_000)
    values = score(draws)
    assert m.mu == pytest.approx(values.mean(), abs=4 * values.std() / math.sqrt(values.size))
    assert m.sigma2 == pytest.approx(values.var(ddof=1), rel=0.01)


def test_efficacy_gaussian_shift():
    model = gaussian_shift_model(1.0, theta=0.1)
    m0 = moments(model, Identity(), 0.0)
    assert efficacy(m0, 10) == pytest.approx(math.sqrt(10.0), rel=1e-12)
    assert efficacy(m0, 40) == pytest.approx(2 * efficacy(m0, 10), rel=1e-12)


def test_efficacy_mixture_score_attains_fisher_bound():
    model = mixture_shift_model(0.3, 1.0, 25.0, theta=0.1)
    m0 = moments(model, score_nonlinearity(model), 0.0)
    i0 = _fisher_information(model)
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
