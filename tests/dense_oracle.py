"""Dense-matrix reference of the randomized pairwise gossip, in plain numpy.

Every gossip step is an explicit M x M matrix: an oracle for the batched,
in-place gossip of `runcons.montecarlo`, which never forms one.  The sampler
draws the same pair indices, in the same order, as the engine does for one
trial, so a test can replay the engine's draws through these matrices.
"""

import numpy as np

from runcons.consensus import WeightMode


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
