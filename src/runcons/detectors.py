"""Test designs: the fixed-sample-size threshold and the two-threshold
sequential test, with the exit levels of its Wiener limit.

The detectors run inside the Monte Carlo engines of :mod:`runcons.montecarlo`,
which also hold the CUSUM families.  Crossing convention everywhere: a
threshold counts as crossed when the statistic is greater than or equal to it.
Sequential truncation is a result, never an error, and truncated trials are
reported separately downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .stats import MomentSet, efficacy, q_inverse


def fss_threshold(p_f: float, n: int, moments_at_theta0: MomentSet, M: int) -> float:
    """Threshold putting the asymptotically normal statistic at size p_f."""
    m0 = moments_at_theta0
    return n * M * m0.mu + math.sqrt(n * M * m0.sigma2) * q_inverse(p_f)


# ---------------------------------------------------------------------------
# Sequential test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SequentialDetector:
    eta_r: float
    a_r: float
    b_r: float

    def __post_init__(self) -> None:
        if not self.a_r < self.b_r:
            raise ValueError(f"thresholds must satisfy a_r < b_r, got {self.a_r}, {self.b_r}")


def continuous_time_thresholds(p_f: float, p_d: float, d: float) -> tuple[float, float]:
    """Exit levels for the drifted Wiener limit at the target error pair."""
    if not 0.0 < p_f < p_d < 1.0:
        raise ValueError(f"need 0 < p_f < p_d < 1, got p_f={p_f}, p_d={p_d}")
    alpha = math.log((1.0 - p_d) / (1.0 - p_f)) / d
    beta = math.log(p_d / p_f) / d
    return alpha, beta


def sequential_design(
    p_f: float,
    p_d: float,
    r: float,
    moments_at_theta0: MomentSet,
    moments_at_theta_r: MomentSet,
    M: int,
) -> SequentialDetector:
    """Two-threshold test centered halfway between the hypothesis means.

    Thresholds scale the Wiener-limit exit levels by sqrt(r M) sigma(theta0).
    """
    m0 = moments_at_theta0
    d = efficacy(m0, M)
    scale = math.sqrt(r * M * m0.sigma2)
    alpha, beta = continuous_time_thresholds(p_f, p_d, d)
    eta_r = 0.5 * (moments_at_theta_r.mu + m0.mu)
    return SequentialDetector(eta_r=eta_r, a_r=scale * alpha, b_r=scale * beta)
