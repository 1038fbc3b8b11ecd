"""Dense-matrix reference of the randomized pairwise gossip, in plain numpy.

Every gossip step is an explicit M x M matrix: an oracle for the batched,
in-place gossip of `runcons.montecarlo`, which never forms one.  The sampler
draws the same pair indices, in the same order, as the engine does for one
trial, so a test can replay the engine's draws through these matrices.
`state_covariances` carries the state covariance itself forward with the
exact mean-square gossip operator, with no sampling at all.
"""

import numpy as np

from runcons.consensus import WeightMode, step_weights


def pairwise_matrix(i: int, j: int, M: int) -> np.ndarray:
    """Symmetric, idempotent, doubly stochastic matrix averaging entries i and j."""
    d = np.zeros(M)
    d[i] = 1.0
    d[j] = -1.0
    return np.eye(M) - 0.5 * np.outer(d, d)


def gossip_matrix(topology, v: int, rng: np.random.Generator) -> np.ndarray:
    """W_v ... W_2 W_1 for v admissible pairs drawn uniformly with replacement.

    Draws rng.integers(0, J, size=v), the stream `montecarlo._pair_draws`
    consumes for one trial, and applies the first draw first.
    """
    W = np.eye(topology.M)
    for i, j in topology.pair_array[rng.integers(0, len(topology.pairs), size=v)]:
        W = pairwise_matrix(i, j, topology.M) @ W
    return W


def phi_product_state(gossip_matrices, t_values, mode: WeightMode) -> np.ndarray:
    """Direct evaluation of the state as a weighted sum of matrix products.

    Term i carries the product W_n ... W_i applied to t(x_i); this is the
    brute-force expansion the recursion must reproduce.
    """
    n = len(gossip_matrices)
    M = t_values[0].size
    total = np.zeros(M)
    for i in range(1, n + 1):
        phi = np.eye(M)
        for k in range(i, n + 1):
            phi = gossip_matrices[k - 1] @ phi
        total += phi @ t_values[i - 1]
    return total / n if mode is WeightMode.AVERAGING else M * total


def mean_square_operator(topology) -> np.ndarray:
    """The M^2 x M^2 matrix of L(X) = mean over admissible pairs of P X P on row-major vec(X).

    For v exchanges per slot E[W X W^T] = L^v(X), since the v pairs are drawn
    independently and each P is symmetric (Boyd, Ghosh, Prabhakar and Shah,
    "Randomized gossip algorithms", 2006).
    """
    M = topology.M
    total = np.zeros((M * M, M * M))
    for i, j in topology.pair_array:
        P = pairwise_matrix(i, j, M)
        total += np.kron(P, P)
    return total / len(topology.pairs)


def state_covariances(topology, v: int, n_max: int, include_new_sample: bool, variance: float = 1.0):
    """Exact covariance C_n of the averaging-schedule state at slots 1..n_max, shape (n_max, M, M).

    The state starts at rest and every node senses variance; with the new
    sample held C_n = alpha^2 L^v(C_{n-1}) + beta^2 variance I, and with it
    exchanged C_n = L^v(alpha^2 C_{n-1} + beta^2 variance I).
    """
    M = topology.M
    Lv = np.linalg.matrix_power(mean_square_operator(topology), v)
    noise = variance * np.eye(M).reshape(-1)
    C = np.zeros(M * M)
    out = np.empty((n_max, M, M))
    for n in range(1, n_max + 1):
        alpha, beta = step_weights(WeightMode.AVERAGING, n, M)
        if include_new_sample:
            C = Lv @ (alpha**2 * C + beta**2 * noise)
        else:
            C = alpha**2 * (Lv @ C) + beta**2 * noise
        out[n - 1] = C.reshape(M, M)
    return out
