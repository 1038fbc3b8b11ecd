"""Sampling distributions, detection nonlinearities, moments, special functions.

Everything here is pure and immutable after construction.  Closed forms are
used where they exist; otherwise adaptive quadrature over the real line at
relative tolerance 1e-8, with the vector third moment over M > 1 samples
falling back to Monte Carlo (its only consumer, the error-moment bound,
already carries Monte Carlo error bars).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import gammaln, log_ndtr, ndtr, ndtri

QUAD_REL_TOL = 1e-8
_XI3_MC_DRAWS = 1_000_000
_XI3_MC_SEED = 20240917  # fixed stream: xi3 for M > 1 has no closed form


class QuadratureError(RuntimeError):
    """Raised when adaptive quadrature fails to reach its tolerance."""


# ---------------------------------------------------------------------------
# Gaussian tail, binary divergence, Wald/inverse-Gaussian law
# ---------------------------------------------------------------------------

def q_function(x):
    """Area under the right tail of a standard Gaussian."""
    return ndtr(-np.asarray(x, dtype=float))


def q_inverse(p: float) -> float:
    """Inverse of q_function on (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"q_inverse requires p in (0,1), got {p}")
    return float(-ndtri(p))


def kl_binary(p: float, q: float) -> float:
    """Divergence between Bernoulli(p) and Bernoulli(q), natural log."""
    if not (0.0 < p < 1.0 and 0.0 < q < 1.0):
        raise ValueError(f"kl_binary requires p,q in (0,1), got p={p}, q={q}")
    return p * math.log(p / q) + (1.0 - p) * math.log((1.0 - p) / (1.0 - q))


def wald_cdf(x, z):
    """CDF of the unit-mean Wald (inverse Gaussian) law with shape z.

    This is the approximate law of a single-barrier positive-drift random-walk
    stopping time scaled to unit mean.  The e^{2z} Q(...) term is evaluated in
    the log domain so thresholds as large as z ~ 500 stay finite.
    """
    x = np.asarray(x, dtype=float)
    if (x <= 0.0).any():
        raise ValueError("wald_cdf requires x > 0")
    if z <= 0.0:
        raise ValueError(f"wald_cdf requires z > 0, got {z}")
    s = np.sqrt(z / x)
    first = 1.0 - np.exp(log_ndtr(-((x - 1.0) * s)))
    second = np.exp(2.0 * z + log_ndtr(-((x + 1.0) * s)))
    return first + second


def wald_cdf_inverse(y: float, z: float) -> float:
    """Quantile of the unit-mean Wald law by bracketing bisection."""
    if not 0.0 < y < 1.0:
        raise ValueError(f"wald_cdf_inverse requires y in (0,1), got {y}")
    lo, hi = 1e-8, 1.0
    while wald_cdf(hi, z) < y:
        lo = hi
        hi *= 2.0
        if hi > 1e12:
            raise QuadratureError("wald_cdf_inverse bracket exceeded 1e12")
    if wald_cdf(lo, z) > y:
        lo = 1e-300
    for _ in range(2000):
        mid = 0.5 * (lo + hi)
        f = wald_cdf(mid, z)
        if abs(f - y) < 1e-10:
            return float(mid)
        if f < y:
            lo = mid
        else:
            hi = mid
    return float(0.5 * (lo + hi))


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Gaussian:
    mean: float
    variance: float

    def __post_init__(self) -> None:
        if self.variance <= 0.0:
            raise ValueError(f"variance must be positive, got {self.variance}")

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        return self.mean + math.sqrt(self.variance) * rng.standard_normal(size)

    def logpdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):  # |x| past ~1e154 squares to inf: the right -inf
            return -0.5 * (np.log(2.0 * np.pi * self.variance) + (x - self.mean) ** 2 / self.variance)

    def pdf(self, x) -> np.ndarray:
        return np.exp(self.logpdf(x))

    @property
    def var(self) -> float:
        return self.variance

    def quad_hint(self) -> tuple[float, float]:
        s = math.sqrt(self.variance)
        return self.mean - 12.0 * s, self.mean + 12.0 * s


@dataclass(frozen=True)
class GaussianMixture:
    """Two-component Gaussian mixture with a common mean."""

    weight: float
    mean: float
    variance1: float
    variance2: float

    def __post_init__(self) -> None:
        if not 0.0 < self.weight < 1.0:
            raise ValueError(f"mixture weight must be in (0,1), got {self.weight}")
        if self.variance1 <= 0.0 or self.variance2 <= 0.0:
            raise ValueError("mixture variances must be positive")

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        pick = rng.random(size) < self.weight
        sd = np.where(pick, math.sqrt(self.variance1), math.sqrt(self.variance2))
        return self.mean + sd * rng.standard_normal(size)

    def logpdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        u = x - self.mean
        # log-sum-exp in scipy's order of operations, so bit-identical to its logsumexp
        # (np.logaddexp is not); past |u| ~1e154, u * u overflows and both terms are
        # -inf, where -inf - -inf gives NaN
        with np.errstate(over="ignore", invalid="ignore"):
            a = np.log(self.weight) - 0.5 * (np.log(2.0 * np.pi * self.variance1) + u * u / self.variance1)
            b = np.log(1.0 - self.weight) - 0.5 * (np.log(2.0 * np.pi * self.variance2) + u * u / self.variance2)
            hi = np.maximum(a, b)
            out = np.log1p(np.exp(np.minimum(a, b) - hi)) + hi
        return np.where(hi == -np.inf, -np.inf, out)[()]

    def pdf(self, x) -> np.ndarray:
        return np.exp(self.logpdf(x))

    @property
    def var(self) -> float:
        return self.weight * self.variance1 + (1.0 - self.weight) * self.variance2

    def quad_hint(self) -> tuple[float, float]:
        s = math.sqrt(max(self.variance1, self.variance2))
        return self.mean - 12.0 * s, self.mean + 12.0 * s


# ---------------------------------------------------------------------------
# Location families and hypothesis models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianLocationFamily:
    variance: float

    def at(self, theta: float) -> Gaussian:
        return Gaussian(theta, self.variance)

    def score(self, x, theta0: float) -> np.ndarray:
        """d/dtheta log f_theta(x) at theta0."""
        return (np.asarray(x, dtype=float) - theta0) / self.variance


@dataclass(frozen=True)
class MixtureLocationFamily:
    weight: float
    variance1: float
    variance2: float

    def at(self, theta: float) -> GaussianMixture:
        return GaussianMixture(self.weight, theta, self.variance1, self.variance2)

    def score(self, x, theta0: float) -> np.ndarray:
        # -f'/f for the location mixture; component weights carry the
        # 1/sigma normalization of each Gaussian density
        u = np.asarray(x, dtype=float) - theta0
        s1 = np.sqrt(self.variance1)
        s2 = np.sqrt(self.variance2)
        a1 = -0.5 * u * u / self.variance1
        a2 = -0.5 * u * u / self.variance2
        m = np.maximum(a1, a2)
        w1 = self.weight / s1 * np.exp(a1 - m)
        w2 = (1.0 - self.weight) / s2 * np.exp(a2 - m)
        num = w1 / self.variance1 + w2 / self.variance2
        return u * num / (w1 + w2)


@dataclass(frozen=True)
class HypothesisModel:
    """Pair of sampling laws, optionally backed by a location family."""

    null: Gaussian | GaussianMixture
    alt: Gaussian | GaussianMixture
    theta0: float
    theta: float
    family: GaussianLocationFamily | MixtureLocationFamily | None = None

    def at(self, theta: float):
        """Sampling law at an arbitrary parameter value (family required)."""
        if self.family is not None:
            return self.family.at(theta)
        if theta == self.theta0:
            return self.null
        if theta == self.theta:
            return self.alt
        raise ValueError("model has no parametric family; only theta0/theta are available")


def gaussian_shift_model(variance: float, theta: float, theta0: float = 0.0) -> HypothesisModel:
    fam = GaussianLocationFamily(variance)
    return HypothesisModel(fam.at(theta0), fam.at(theta), theta0, theta, fam)


def mixture_shift_model(
    weight: float, variance1: float, variance2: float, theta: float, theta0: float = 0.0
) -> HypothesisModel:
    fam = MixtureLocationFamily(weight, variance1, variance2)
    return HypothesisModel(fam.at(theta0), fam.at(theta), theta0, theta, fam)


def variance_change_model(variance0: float, variance1: float) -> HypothesisModel:
    """Zero-mean Gaussian pair differing only in variance (change detection)."""
    return HypothesisModel(Gaussian(0.0, variance0), Gaussian(0.0, variance1), 0.0, 1.0, None)


# ---------------------------------------------------------------------------
# Nonlinearities t(x)
# ---------------------------------------------------------------------------

class Identity:
    def __call__(self, x) -> np.ndarray:
        return np.asarray(x, dtype=float)


@dataclass(frozen=True)
class Score:
    """Derivative of the log density in the location parameter, at theta0."""

    family: GaussianLocationFamily | MixtureLocationFamily
    theta0: float = 0.0

    def __call__(self, x) -> np.ndarray:
        return self.family.score(x, self.theta0)


@dataclass(frozen=True)
class LogLikelihoodRatio:
    null: Gaussian | GaussianMixture
    alt: Gaussian | GaussianMixture

    def __call__(self, x) -> np.ndarray:
        return self.alt.logpdf(x) - self.null.logpdf(x)


def score_nonlinearity(model: HypothesisModel) -> Score:
    if model.family is None:
        raise ValueError("score nonlinearity requires a parametric family")
    return Score(model.family, model.theta0)


def llr_nonlinearity(model: HypothesisModel) -> LogLikelihoodRatio:
    return LogLikelihoodRatio(model.null, model.alt)


# ---------------------------------------------------------------------------
# Quadrature over the real line
# ---------------------------------------------------------------------------

def integrate_real_line(fn, hint: tuple[float, float], rel_tol: float = QUAD_REL_TOL) -> float:
    """Adaptive integral of fn over R, split at the hinted bulk interval."""
    lo, hi = hint
    total = 0.0
    total_err = 0.0
    for a, b in ((-np.inf, lo), (lo, hi), (hi, np.inf)):
        val, err = integrate.quad(fn, a, b, epsabs=1e-14, epsrel=rel_tol, limit=300)
        total += val
        total_err += err
    # absolute floor keeps legitimately zero integrals from tripping the check
    if total_err > abs(total) * rel_tol * 100.0 + 1e-9:
        raise QuadratureError(
            f"quadrature error {total_err:.3e} too large for value {total:.6e}"
        )
    return total


# ---------------------------------------------------------------------------
# Moments of t(x)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentSet:
    """Mean, variance and local mean slope of t(x)."""

    mu: float
    sigma2: float
    mu_prime_at_theta0: float

    def __post_init__(self) -> None:
        if self.sigma2 <= 0.0:
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")


def moments(model: HypothesisModel, nonlinearity, theta: float) -> MomentSet:
    """Moments of t(x) under the sampling law at parameter theta.

    Closed forms cover the identity and the score on Gaussian data; the rest
    runs through quadrature.
    """
    dist = model.at(theta)
    if isinstance(nonlinearity, Identity):
        return MomentSet(dist.mean, dist.var, 1.0)

    if isinstance(nonlinearity, Score) and isinstance(model.family, GaussianLocationFamily):
        v = model.family.variance
        return MomentSet((theta - model.theta0) / v, 1.0 / v, 1.0 / v)

    # quadrature path
    hint = dist.quad_hint()
    t = nonlinearity
    mu = integrate_real_line(lambda x: t(x) * dist.pdf(x), hint)
    second = integrate_real_line(lambda x: t(x) ** 2 * dist.pdf(x), hint)

    if isinstance(t, Score):
        # slope of the mean at theta0: the score's second moment, just taken if theta is theta0
        mu_prime = second if theta == model.theta0 else fisher_information(model)
    elif model.family is None:
        mu_prime = float("nan")  # no parametric family: the slope is undefined
    else:
        mu_prime = _mu_prime_central_difference(model, t, hint)

    return MomentSet(mu, second - mu * mu, mu_prime)


def _chi_third_moment(M: int) -> float:
    """E[chi_M^3]: third moment of the norm of M iid standard normals."""
    return math.exp(1.5 * math.log(2.0) + gammaln((M + 3) / 2.0) - gammaln(M / 2.0))


def vector_third_moment(model: HypothesisModel, nonlinearity, theta: float, M: int) -> tuple[float, float]:
    """(xi3, standard error): E||t(x) - mu||^3 over an M-vector of iid samples at theta.

    Closed forms cover the identity and the score on Gaussian data, and the
    identity on mixture data at M = 1; otherwise quadrature at M = 1 and Monte
    Carlo on a fixed stream for the M-dimensional norm integral.
    """
    m = moments(model, nonlinearity, theta)
    dist = model.at(theta)
    t = nonlinearity
    linear = isinstance(t, Identity) or (isinstance(t, Score) and isinstance(model.family, GaussianLocationFamily))
    xi3_se = 0.0
    if linear and isinstance(dist, Gaussian):
        xi3 = m.sigma2 ** 1.5 * _chi_third_moment(M)
    elif isinstance(t, Identity) and M == 1:
        # mixture: each component's absolute third moment, weighted
        c = _chi_third_moment(1)
        p = dist.weight
        xi3 = p * (dist.variance1 ** 1.5 * c) + (1.0 - p) * (dist.variance2 ** 1.5 * c)
    elif M == 1:
        xi3 = integrate_real_line(lambda x: np.abs(t(x) - m.mu) ** 3 * dist.pdf(x), dist.quad_hint())
    else:
        draws = _XI3_MC_DRAWS // M
        x = dist.sample(np.random.default_rng(_XI3_MC_SEED), (draws, M))
        norms = np.linalg.norm(t(x) - m.mu, axis=1) ** 3
        xi3, xi3_se = float(norms.mean()), float(norms.std(ddof=1) / math.sqrt(draws))
    if xi3 + 3.0 * xi3_se < m.sigma2 ** 1.5:
        raise ValueError("xi3 below the single-coordinate lower bound sigma^3")
    return xi3, xi3_se


def _mu_prime_central_difference(model: HypothesisModel, t, hint) -> float:
    h = 1e-5 * max(1.0, abs(model.theta0))
    lo = model.at(model.theta0 - h)
    hi = model.at(model.theta0 + h)
    mu_lo = integrate_real_line(lambda x: t(x) * lo.pdf(x), hint)
    mu_hi = integrate_real_line(lambda x: t(x) * hi.pdf(x), hint)
    return (mu_hi - mu_lo) / (2.0 * h)


def efficacy(moments_at_theta0: MomentSet, M: int) -> float:
    """sqrt(M) mu'(theta0) / sigma(theta0): the local detection slope."""
    m = moments_at_theta0
    if m.mu_prime_at_theta0 == 0.0:
        raise ValueError("efficacy undefined: mu'(theta0) is zero")
    return math.sqrt(M) * m.mu_prime_at_theta0 / math.sqrt(m.sigma2)


def fisher_information(model: HypothesisModel) -> float:
    """Second moment of the score under the null, by quadrature."""
    score = score_nonlinearity(model)
    null = model.at(model.theta0)
    return integrate_real_line(lambda x: score(x) ** 2 * null.pdf(x), null.quad_hint())


# ---------------------------------------------------------------------------
# Divergences between sampling laws
# ---------------------------------------------------------------------------

def kl_divergence(dist_a, dist_b) -> float:
    """KL(dist_a || dist_b), closed form for Gaussian pairs, else quadrature."""
    if isinstance(dist_a, Gaussian) and isinstance(dist_b, Gaussian):
        va, vb = dist_a.variance, dist_b.variance
        dm = dist_a.mean - dist_b.mean
        return 0.5 * ((va + dm * dm) / vb - 1.0 + math.log(vb / va))
    hint_a = dist_a.quad_hint()
    hint_b = dist_b.quad_hint()
    hint = (min(hint_a[0], hint_b[0]), max(hint_a[1], hint_b[1]))
    return integrate_real_line(
        lambda x: dist_a.pdf(x) * (dist_a.logpdf(x) - dist_b.logpdf(x)), hint
    )
