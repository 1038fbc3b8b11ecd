"""Closed-form predictions: convergence bounds for the consensus metrics,
asymptotic detection characteristics, CUSUM operating characteristics, the
parallel-bank delay integral, and relative efficiencies.

The CUSUM laws come in an accurate and a large-threshold form.  The change
theory table writes both, labeled.  The efficiency table (`fig:RE1`,
`fig:RE2`) writes the large-threshold relative efficiencies; their accurate
form is a composition of :func:`false_alarm_rate_accurate`,
:func:`delay_accurate` and :func:`bank_delay` that no table writes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stats import QuadratureError, integrate, kl_binary, q_function, q_inverse, wald_cdf, wald_cdf_inverse


# ---------------------------------------------------------------------------
# Consensus performance metrics and their bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundSet:
    """Per-slot bounds for gamma_i - 1 and 1 - rho_ij plus large-n forms."""

    n: np.ndarray
    psi_U: np.ndarray
    psi_L: np.ndarray
    gamma_lower: np.ndarray
    gamma_upper: np.ndarray
    rho_lower: np.ndarray
    rho_upper: np.ndarray
    approx_B_L: np.ndarray
    approx_B_U: np.ndarray
    rate: float


def _psi(lam: float, n: np.ndarray, include_new_sample: bool) -> np.ndarray:
    geometric = (1.0 - lam ** n) / (1.0 - lam)
    if include_new_sample:
        return lam * geometric / n
    return geometric / n


def theorem_bounds(
    lambda_U: float, lambda_L: float, M: int, n_max: int, include_new_sample: bool
) -> BoundSet:
    """Upper/lower envelopes for both consensus metrics on slots 1..n_max.

    include_new_sample says which slot-update form the bounds describe.  True:
    fresh measurements enter the same slot's gossip average, so even the
    newest term is mixed once (psi carries a leading eigenvalue factor).
    False: fresh measurements are added after the averaging step and stay
    unmixed for one slot.

    The 1 - rho upper envelope uses psi_U in the numerator and psi_L in the
    denominator, the widest ratio the covariance sandwich allows.
    """
    if not 0.0 <= lambda_L <= lambda_U:
        raise ValueError(f"need 0 <= lambda_L <= lambda_U, got {lambda_L}, {lambda_U}")
    if lambda_U >= 1.0:
        raise ValueError(f"bounds require lambda_U < 1, got {lambda_U}")
    n = np.arange(1, n_max + 1, dtype=float)
    psi_U = _psi(lambda_U, n, include_new_sample)
    psi_L = _psi(lambda_L, n, include_new_sample)
    gamma_lower = (M - 1) * psi_L
    gamma_upper = (M - 1) * psi_U
    rho_lower = M * psi_L / (1.0 + (M - 1) * psi_U)
    rho_upper = M * psi_U / (1.0 + (M - 1) * psi_L)
    if include_new_sample:
        approx_B_L = (M / n) * lambda_L / (1.0 - lambda_L)
        approx_B_U = (M / n) * lambda_U / (1.0 - lambda_U)
        rate = M * lambda_U / (1.0 - lambda_U)
    else:
        approx_B_L = (M / n) / (1.0 - lambda_L)
        approx_B_U = (M / n) / (1.0 - lambda_U)
        rate = M / (1.0 - lambda_U)
    return BoundSet(
        n=n,
        psi_U=psi_U,
        psi_L=psi_L,
        gamma_lower=gamma_lower,
        gamma_upper=gamma_upper,
        rho_lower=rho_lower,
        rho_upper=rho_upper,
        approx_B_L=approx_B_L,
        approx_B_U=approx_B_U,
        rate=rate,
    )


# ---------------------------------------------------------------------------
# Fixed-sample-size and sequential asymptotics
# ---------------------------------------------------------------------------

def fss_asymptotic_pd(p_f: float, gamma_scale: float, d: float) -> float:
    """Limiting detection probability Q(Q^{-1}(p_f) - gamma d)."""
    return q_function(q_inverse(p_f) - gamma_scale * d)


def sequential_asymptotics(p_f: float, p_d: float, d: float) -> tuple[float, float]:
    """Scaled expected sample sizes under each hypothesis, Wiener limit."""
    if not 0.0 < p_f < p_d < 1.0:
        raise ValueError(f"need 0 < p_f < p_d < 1, got p_f={p_f}, p_d={p_d}")
    return 2.0 * kl_binary(p_f, p_d) / d**2, 2.0 * kl_binary(p_d, p_f) / d**2


# ---------------------------------------------------------------------------
# CUSUM operating characteristics
# ---------------------------------------------------------------------------

def false_alarm_rate_accurate(gamma, M: int, delta01: float):
    g = np.asarray(gamma, dtype=float)
    with np.errstate(over="ignore"):  # exp overflows to inf at a huge threshold: the rate is 0
        return M * delta01 / (np.exp(g) - g - 1.0)


def false_alarm_rate_large_gamma(gamma, M: int, delta01: float):
    return M * delta01 * np.exp(-np.asarray(gamma, dtype=float))


def delay_accurate(gamma, M: int, delta10: float):
    g = np.asarray(gamma, dtype=float)
    return (g + np.exp(-g) - 1.0) / (M * delta10)


def delay_large_gamma(gamma, M: int, delta10: float):
    return np.asarray(gamma, dtype=float) / (M * delta10)


def threshold_for_rate_large_gamma(R: float, M: int, delta01: float) -> float:
    """log(M delta01 / R): the large-threshold inversion."""
    value = M * delta01 / R
    if value <= 1.0:
        raise ValueError(f"rate {R} too large for the large-threshold form")
    return math.log(value)


# ---------------------------------------------------------------------------
# Parallel-bank delay
# ---------------------------------------------------------------------------

def survival_power_integral(z: float, M: int) -> float:
    """Integral of [1 - F_W(.; z)]^M over (0, inf), log-domain inside.

    The range is cut where the integrand falls below 1e-14, and the scalar
    integrand is mapped over each subinterval's abscissae for
    :func:`stats.integrate`.
    """
    if not z > 0.0 or M < 1:
        raise ValueError(f"need z > 0 and M >= 1, got z={z}, M={M}")

    def integrand(xi: float) -> float:
        if xi <= 0.0:
            return 1.0
        F = wald_cdf(xi, z)
        if F >= 1.0:
            return 0.0
        return math.exp(M * math.log1p(-F))

    hi = 2.0
    while integrand(hi) > 1e-14:
        hi *= 2.0
        if hi > 1e9:
            raise QuadratureError("bank-delay integrand does not decay")
    value, err = integrate(lambda xs: np.fromiter(map(integrand, xs.tolist()), float, xs.size),
                           0.0, hi, epsabs=1e-12, epsrel=1e-10, limit=400)
    if err > max(abs(value), 1e-10) * 1e-6:
        raise QuadratureError(f"bank-delay integral error {err:.3e} for value {value:.6e}")
    return float(value)


@dataclass(frozen=True)
class BankDelay:
    integral: float
    castillo: float


def bank_delay(gamma: float, M: int, delta10: float, var1_of_llr: float) -> BankDelay:
    """Expected first alarm of M parallel filters after the change.

    The main route integrates the M-th power of the Wald survival; the
    companion value replaces the minimum's expectation with the 1/(M+1)
    quantile, a shortcut that works for moderately large M.
    """
    if gamma <= 0.0 or delta10 <= 0.0 or var1_of_llr <= 0.0 or M < 1:
        raise ValueError("bank_delay needs positive gamma, delta10, var1 and M >= 1")
    delta = delta10 / var1_of_llr
    z = gamma * delta
    base = (gamma + math.exp(-gamma) - 1.0) / delta10
    integral = base * survival_power_integral(z, M)
    castillo = (gamma / delta10) * wald_cdf_inverse(1.0 / (M + 1.0), z)
    return BankDelay(integral=integral, castillo=castillo)


CUSUM_FAMILIES = ("centralized", "running", "bank", "single")


@dataclass(frozen=True)
class OperatingPoint:
    """Predicted false-alarm rate and detection delay, accurate and large-threshold."""

    family: str
    gamma: float
    rate_accurate: float
    rate_large_gamma: float
    delay_accurate: float
    delay_large_gamma: float


def operating_point(
    family: str, gamma: float, M: int, delta01: float, delta10: float, var1_of_llr: float
) -> OperatingPoint:
    """Rate and delay laws of one CUSUM family of M sensors at threshold gamma.

    The fusion center and running consensus follow the M-sensor laws, a lone
    sensor the one-sensor laws.  The bank alarms at the rate of M filters; its
    delay is the survival integral of :func:`bank_delay`, with the Castillo
    quantile as the large-threshold companion.
    """
    if family not in CUSUM_FAMILIES:
        raise ValueError(f"unknown CUSUM family {family!r}")
    if gamma <= 0.0:
        raise ValueError(f"threshold must be positive, got {gamma}")
    m = 1 if family == "single" else M
    if family == "bank":
        delay = bank_delay(gamma, M, delta10, var1_of_llr)
        d_acc, d_large = delay.integral, delay.castillo
    else:
        d_acc = float(delay_accurate(gamma, m, delta10))
        d_large = float(delay_large_gamma(gamma, m, delta10))
    return OperatingPoint(
        family, gamma,
        float(false_alarm_rate_accurate(gamma, m, delta01)),
        float(false_alarm_rate_large_gamma(gamma, m, delta01)),
        d_acc, d_large,
    )


def g_factor(M: int, R: float, delta01: float, delta10: float, var1_of_llr: float) -> float:
    """Bank speed-up factor at matched false-alarm rate (>= 1).

    The survival integrand falls from 1 and is still (M/(M+1))^M > 1/e at
    the Castillo quantile q, so the integral is at least q/e.  A smaller
    value, zero included, means the Wald shape z has collapsed onto an
    interval too short for the quadrature to resolve: QuadratureError.
    """
    gamma = threshold_for_rate_large_gamma(R, M, delta01)
    z = gamma * (delta10 / var1_of_llr)
    integral = survival_power_integral(z, M)
    floor = wald_cdf_inverse(1.0 / (M + 1.0), z) / math.e
    if not integral >= floor:
        raise QuadratureError(f"bank survival integral {integral:.3e} below its floor {floor:.3e} "
                              f"at Wald shape {z:.3e}, M = {M}")
    return 1.0 / integral


@dataclass(frozen=True)
class EfficiencyPoint:
    R: float
    eta_cr: float
    eta_sr: float
    eta_br: float
    eta_bs: float


def relative_efficiencies_large_gamma(
    R_values, M: int, delta01: float, delta10: float, var1_of_llr: float
) -> list[EfficiencyPoint]:
    """Delay ratios of the four architectures at matched false-alarm rate R.

    Large-threshold form: thresholds are log(M delta01 / R), delays are linear
    in the threshold, so the single-versus-fusion ratio reduces to braces =
    gamma_c / gamma_s and the bank enters only through :func:`g_factor`.
    Running consensus is credited with the fusion delay, so eta_cr = 1.
    """
    points = []
    for R in np.asarray(R_values, dtype=float):
        if math.log(delta01 / R) <= 0.0:
            raise ValueError(f"rate {R} too large: log(delta01/R) must be positive")
        braces = 1.0 + math.log(M) / math.log(delta01 / R)
        g = g_factor(M, R, delta01, delta10, var1_of_llr)
        points.append(EfficiencyPoint(
            R=float(R),
            eta_cr=1.0,
            eta_sr=braces / M,
            eta_br=g / M,
            eta_bs=g / braces,
        ))
    return points
