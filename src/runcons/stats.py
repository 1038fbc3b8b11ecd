"""Sampling distributions, detection nonlinearities, moments, special functions.

Everything here is pure and immutable after construction.  Closed forms are
used where they exist; otherwise adaptive quadrature over the real line at
relative tolerance 1e-8, by the package's own Gauss-Kronrod rule
(:func:`integrate`), which calls each integrand on 21 abscissae at a time.
The slope mu'(theta0) of a statistic's mean is E_theta0[t s], s the null
law's location score: a closed form where one exists, one quadrature
otherwise, and nan for a model with no location family.  The divergence
between two sampling laws is needed only for the change model's Gaussian
pair, so it exists in closed form only.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

QUAD_REL_TOL = 1e-8


class QuadratureError(RuntimeError):
    """Raised when adaptive quadrature fails to reach its tolerance."""


# ---------------------------------------------------------------------------
# Gaussian tail, binary divergence, Wald/inverse-Gaussian law
# ---------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_STANDARD_NORMAL = NormalDist()


def q_function(x: float) -> float:
    """Area under the right tail of a standard Gaussian."""
    return 0.5 * math.erfc(x / _SQRT2)


def q_inverse(p: float) -> float:
    """Inverse of q_function on (0, 1), by Wichura's AS241 (full double precision)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"q_inverse requires p in (0,1), got {p}")
    return -_STANDARD_NORMAL.inv_cdf(p)


def _log_q(t: float) -> float:
    """log Q(t) on the whole line, finite far past where Q(t) underflows.

    Left of 0 through log1p, so log Q(t) near 0 keeps its digits; right of 0
    through erfc up to t = 35, short of where erfc turns subnormal (t ~ 37.5);
    beyond, the asymptotic series of Q(t) t sqrt(2 pi) e^{t^2/2}, whose first
    omitted term is about 3e-17 at t = 35.
    """
    if t < 0.0:
        return math.log1p(-0.5 * math.erfc(-t / _SQRT2))
    if t <= 35.0:
        return math.log(0.5 * math.erfc(t / _SQRT2))
    r = 1.0 / (t * t)
    series = 1.0 + r * (-1.0 + r * (3.0 + r * (-15.0 + r * (105.0 + r * (-945.0 + r * 10395.0)))))
    return -0.5 * t * t - math.log(t) - _LOG_SQRT_2PI + math.log(series)


def kl_binary(p: float, q: float) -> float:
    """Divergence between Bernoulli(p) and Bernoulli(q), natural log."""
    if not (0.0 < p < 1.0 and 0.0 < q < 1.0):
        raise ValueError(f"kl_binary requires p,q in (0,1), got p={p}, q={q}")
    return p * math.log(p / q) + (1.0 - p) * math.log((1.0 - p) / (1.0 - q))


def wald_cdf(x: float, z: float) -> float:
    """CDF of the unit-mean Wald (inverse Gaussian) law with shape z, at one point.

    This is the approximate law of a single-barrier positive-drift random-walk
    stopping time scaled to unit mean.  The e^{2z} Q(...) term is evaluated in
    the log domain so thresholds as large as z ~ 500 stay finite.

    It takes and returns Python floats: its callers are the bank survival
    integrand, which maps it over the abscissae of each :func:`integrate`
    subinterval one point at a time, and a bisection; a 0-d array would cost
    several times the arithmetic.  The first term, Phi((x - 1) sqrt(z/x)),
    comes straight from erfc, so it keeps its digits where it is tiny instead of
    cancelling in 1 - Q.
    """
    if not x > 0.0:
        raise ValueError(f"wald_cdf requires x > 0, got {x}")
    if not z > 0.0:
        raise ValueError(f"wald_cdf requires z > 0, got {z}")
    s = math.sqrt(z / x)
    return 0.5 * math.erfc((1.0 - x) * s / _SQRT2) + math.exp(2.0 * z + _log_q((x + 1.0) * s))


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

    def at(self, theta: float) -> Gaussian:
        """The same law moved to mean theta."""
        return Gaussian(theta, self.variance)

    def score(self, x) -> np.ndarray:
        """d/dtheta log f_theta(x) at the law's own mean."""
        return (np.asarray(x, dtype=float) - self.mean) / self.variance

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

    def at(self, theta: float) -> GaussianMixture:
        """The same law moved to mean theta."""
        return GaussianMixture(self.weight, theta, self.variance1, self.variance2)

    def score(self, x) -> np.ndarray:
        """d/dtheta log f_theta(x) at the law's own mean: -f'/f, each component's
        weight carrying the 1/sigma normalization of its Gaussian density."""
        u = np.asarray(x, dtype=float) - self.mean
        s1 = np.sqrt(self.variance1)
        s2 = np.sqrt(self.variance2)
        a1 = -0.5 * u * u / self.variance1
        a2 = -0.5 * u * u / self.variance2
        m = np.maximum(a1, a2)
        w1 = self.weight / s1 * np.exp(a1 - m)
        w2 = (1.0 - self.weight) / s2 * np.exp(a2 - m)
        num = w1 / self.variance1 + w2 / self.variance2
        return u * num / (w1 + w2)

    @property
    def var(self) -> float:
        return self.weight * self.variance1 + (1.0 - self.weight) * self.variance2

    def quad_hint(self) -> tuple[float, float]:
        s = math.sqrt(max(self.variance1, self.variance2))
        return self.mean - 12.0 * s, self.mean + 12.0 * s


# ---------------------------------------------------------------------------
# Hypothesis models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HypothesisModel:
    """Pair of sampling laws; with `location`, the alternative is the null law moved to theta."""

    null: Gaussian | GaussianMixture
    alt: Gaussian | GaussianMixture
    theta0: float
    theta: float
    location: bool = False

    def at(self, theta: float):
        """Sampling law at an arbitrary parameter value (a location model required)."""
        if self.location:
            return self.null.at(theta)
        if theta == self.theta0:
            return self.null
        if theta == self.theta:
            return self.alt
        raise ValueError("model has no location family; only theta0/theta are available")


def gaussian_shift_model(variance: float, theta: float, theta0: float = 0.0) -> HypothesisModel:
    null = Gaussian(theta0, variance)
    return HypothesisModel(null, null.at(theta), theta0, theta, location=True)


def mixture_shift_model(
    weight: float, variance1: float, variance2: float, theta: float, theta0: float = 0.0
) -> HypothesisModel:
    null = GaussianMixture(weight, theta0, variance1, variance2)
    return HypothesisModel(null, null.at(theta), theta0, theta, location=True)


def variance_change_model(variance0: float, variance1: float) -> HypothesisModel:
    """Zero-mean Gaussian pair differing only in variance (change detection)."""
    return HypothesisModel(Gaussian(0.0, variance0), Gaussian(0.0, variance1), 0.0, 1.0)


# ---------------------------------------------------------------------------
# Nonlinearities t(x)
# ---------------------------------------------------------------------------

class Identity:
    def __call__(self, x) -> np.ndarray:
        return np.asarray(x, dtype=float)


@dataclass(frozen=True)
class Score:
    """Derivative of the log density in the location parameter, at the null law's mean theta0."""

    null: Gaussian | GaussianMixture

    def __call__(self, x) -> np.ndarray:
        return self.null.score(x)


@dataclass(frozen=True)
class LogLikelihoodRatio:
    null: Gaussian | GaussianMixture
    alt: Gaussian | GaussianMixture

    def __call__(self, x) -> np.ndarray:
        return self.alt.logpdf(x) - self.null.logpdf(x)


def score_nonlinearity(model: HypothesisModel) -> Score:
    if not model.location:
        raise ValueError("score nonlinearity requires a location family")
    return Score(model.null)


def llr_nonlinearity(model: HypothesisModel) -> LogLikelihoodRatio:
    return LogLikelihoodRatio(model.null, model.alt)


# ---------------------------------------------------------------------------
# Adaptive quadrature
# ---------------------------------------------------------------------------

# QUADPACK's qk21 rule on [-1, 1] (Kronrod, 1965): the 21-point Kronrod
# abscissae from the outermost to the center, the Kronrod weights in the same
# order, and the 10-point Gauss weights of the Gauss abscissae among them
# (every other one, from the second).
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452, 0.930157491355708226001207180059508,
    0.865063366688984510732096688423493, 0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784, 0.294392862701460198131126603103866,
    0.148874338981631210884826001129720, 0.0,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390, 0.054755896574351996031381300244580,
    0.075039674810919952767043140916190, 0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208745380261, 0.134709217311473325928054001771707, 0.142775938577060080797094273138717,
    0.147739104901338491374841515972068, 0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697, 0.219086362515982043995534934228163,
    0.269266719309996355091226921569469, 0.295524224714752870173892994651338,
)
_NODES = np.concatenate((-np.array(_XGK), _XGK[-2::-1]))
_KRONROD_WEIGHTS = np.concatenate((_WGK, _WGK[-2::-1]))
_GAUSS_WEIGHTS = np.zeros(21)
_GAUSS_WEIGHTS[1::2] = _WG + _WG[::-1]


def _kronrod(fn, a: float, b: float) -> tuple[float, float, float, float]:
    """(-|K21 - G10|, a, b, K21) of fn on [a, b]: a heap entry, largest error first."""
    half = 0.5 * (b - a)
    f = fn(0.5 * (a + b) + half * _NODES)
    kronrod = half * float(f @ _KRONROD_WEIGHTS)
    return -abs(kronrod - half * float(f @ _GAUSS_WEIGHTS)), a, b, kronrod


def integrate(fn, a: float, b: float, *, epsabs: float, epsrel: float, limit: int) -> tuple[float, float]:
    """Globally adaptive Gauss-Kronrod integral of fn over [a, b]: (value, error).

    The G10/K21 pair of QUADPACK's qags (Piessens et al., 1983): each step
    bisects the subinterval whose |K21 - G10| is largest, until the summed
    estimate is within max(epsabs, epsrel |value|) or `limit` subintervals
    exist.  At the limit the error is returned as it stands, for the caller
    to judge.  A half-infinite range maps onto t in (0, 1], as in QUADPACK's
    qagi: x = a + (1 - t)/t for [a, inf) and x = b - (1 - t)/t for
    (-inf, b], with Jacobian 1/t^2; no abscissa lands on t = 0.

    fn takes the 21 abscissae of one subinterval as a 1-D array and returns
    their values as an array.
    """
    if math.isinf(a) and math.isinf(b):
        raise ValueError("integrate takes at most one infinite limit")
    if math.isinf(a) or math.isinf(b):
        finite, sign = (b, -1.0) if math.isinf(a) else (a, 1.0)
        inner = fn

        def fn(t):
            return inner(finite + sign * (1.0 - t) / t) / (t * t)

        a, b = 0.0, 1.0
    heap = [_kronrod(fn, a, b)]
    while True:
        value = math.fsum(part[3] for part in heap)
        error = -math.fsum(part[0] for part in heap)
        if error <= max(epsabs, epsrel * abs(value)) or len(heap) >= limit:
            return value, error
        _, lo, hi, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        heapq.heappush(heap, _kronrod(fn, lo, mid))
        heapq.heappush(heap, _kronrod(fn, mid, hi))


def integrate_real_line(fn, hint: tuple[float, float], rel_tol: float = QUAD_REL_TOL) -> float:
    """Adaptive integral of fn over R, split at the hinted bulk interval."""
    lo, hi = hint
    total = 0.0
    total_err = 0.0
    for a, b in ((-np.inf, lo), (lo, hi), (hi, np.inf)):
        val, err = integrate(fn, a, b, epsabs=1e-14, epsrel=rel_tol, limit=300)
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
    runs through quadrature.  The slope of the mean at theta0 is
    mu'(theta0) = E_theta0[t s] for every statistic t, with s the null law's
    location score: differentiate mu(theta) = int t f_theta under the
    integral sign.  A model with no location family has no slope (nan).
    """
    dist = model.at(theta)
    if isinstance(nonlinearity, Identity):
        return MomentSet(dist.mean, dist.var, 1.0)

    if isinstance(nonlinearity, Score) and model.location and isinstance(model.null, Gaussian):
        v = model.null.variance
        return MomentSet((theta - model.theta0) / v, 1.0 / v, 1.0 / v)

    # quadrature path
    hint = dist.quad_hint()
    t = nonlinearity
    mu = integrate_real_line(lambda x: t(x) * dist.pdf(x), hint)
    second = integrate_real_line(lambda x: t(x) ** 2 * dist.pdf(x), hint)
    if model.location:
        null = model.null
        mu_prime = integrate_real_line(lambda x: t(x) * null.score(x) * null.pdf(x), null.quad_hint())
    else:
        mu_prime = float("nan")  # no location family: the slope is undefined
    return MomentSet(mu, second - mu * mu, mu_prime)


def efficacy(moments_at_theta0: MomentSet, M: int) -> float:
    """sqrt(M) mu'(theta0) / sigma(theta0): the local detection slope."""
    m = moments_at_theta0
    if m.mu_prime_at_theta0 == 0.0:
        raise ValueError("efficacy undefined: mu'(theta0) is zero")
    return math.sqrt(M) * m.mu_prime_at_theta0 / math.sqrt(m.sigma2)


# ---------------------------------------------------------------------------
# Divergences between sampling laws
# ---------------------------------------------------------------------------

def kl_divergence(dist_a: Gaussian, dist_b: Gaussian) -> float:
    """KL(dist_a || dist_b) of two Gaussians, in closed form."""
    va, vb = dist_a.variance, dist_b.variance
    dm = dist_a.mean - dist_b.mean
    return 0.5 * ((va + dm * dm) / vb - 1.0 + math.log(vb / va))
