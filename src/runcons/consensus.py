"""Dense reference of the running-consensus recursion and its two weight schedules.

Each slot mixes neighbor states through a doubly stochastic gossip matrix and
injects the slot's new measurements, so sensing and communication happen
simultaneously.  The centralized oracle is the statistic a fusion center with
every raw sample would hold; the per-node error is the difference between the
two and is tracked by definition, never through its theoretical product
expansion.  The engines step only the running sum (:mod:`runcons.montecarlo`),
the averaging schedule being that sum over n M; these schedules serve
:class:`ConsensusRun`, the same recursion with dense matrices, which only the
tests replay draws through and the benchmark tracer wraps by name.
"""

from __future__ import annotations

from enum import Enum

import numpy as np


class WeightMode(Enum):
    """Weight schedule selecting what the shared state estimates.

    AVERAGING keeps the state near the grand sample mean of t(x);
    ACCUMULATING keeps M times the running sum, so each node tracks the
    centralized sum statistic.
    """

    AVERAGING = "averaging"
    ACCUMULATING = "accumulating"


def step_weights(mode: WeightMode, n: int, M: int) -> tuple[float, float]:
    """(alpha_n, beta_n) applied at slot n >= 1."""
    if n < 1:
        raise ValueError(f"slot index must be >= 1, got {n}")
    if mode is WeightMode.AVERAGING:
        return (n - 1) / n, 1.0 / n
    return 1.0, float(M)


def centralized_weight(mode: WeightMode, n: int, M: int) -> float:
    """chi_n scaling the centralized running sum of t(x)."""
    if n < 1:
        raise ValueError(f"slot index must be >= 1, got {n}")
    if mode is WeightMode.AVERAGING:
        return 1.0 / (n * M)
    return 1.0


class ConsensusRun:
    """Dense reference recursion of one running-consensus trajectory.

    Each step multiplies by an explicit M x M gossip matrix; the tests replay
    the engine's draws through it to check the batched slot.
    """

    def __init__(
        self,
        M: int,
        mode: WeightMode = WeightMode.ACCUMULATING,
        include_new_sample_in_exchange: bool = True,
    ):
        if M < 1:
            raise ValueError(f"node count must be >= 1, got {M}")
        self.M = M
        self.mode = mode
        self.include_new_sample_in_exchange = include_new_sample_in_exchange
        self.n = 0
        self.state = np.zeros(M)
        self._t_running_sum = 0.0  # sum over slots of 1^T t(x_i)

    def step(self, W: np.ndarray, t_of_x: np.ndarray) -> "ConsensusRun":
        """Advance one slot with gossip matrix W and nonlinearity values t(x_n).

        With the new sample exchanged the update is W (alpha s + beta t);
        otherwise the fresh term is added after averaging: alpha W s + beta t.
        """
        t = np.asarray(t_of_x, dtype=float)
        if t.shape != (self.M,):
            raise ValueError(f"t(x) must have shape ({self.M},), got {t.shape}")
        if W.shape != (self.M, self.M):
            raise ValueError(f"gossip matrix must be {self.M}x{self.M}, got {W.shape}")
        n = self.n + 1
        alpha, beta = step_weights(self.mode, n, self.M)
        if self.include_new_sample_in_exchange:
            self.state = W @ (alpha * self.state + beta * t)
        else:
            self.state = alpha * (W @ self.state) + beta * t
        self._t_running_sum += float(t.sum())
        self.n = n
        return self

    def centralized_state(self) -> float:
        """Ideal fusion-center statistic chi_n * sum_i 1^T t(x_i)."""
        if self.n < 1:
            raise ValueError("centralized state is undefined before the first slot")
        return centralized_weight(self.mode, self.n, self.M) * self._t_running_sum

    def error_vector(self) -> np.ndarray:
        """Per-node deviation from the centralized statistic, by definition."""
        return self.state - self.centralized_state()
