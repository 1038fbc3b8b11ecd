"""Sensor-network topologies and the spectrum of the expected gossip matrix.

A topology is a node count plus the set of admissible communication pairs.
Each communication slot averages v uniformly selected admissible pairs, one
after another (the batched gossip of :mod:`runcons.montecarlo`).  The
spectral summary of the expected matrix (second-largest and smallest
eigenvalues) drives every convergence bound in :mod:`runcons.analysis`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

Pair = tuple[int, int]


class TopologyError(ValueError):
    """Raised for invalid node pairs, disconnected graphs, or bad parameters."""


@dataclass(frozen=True)
class NetworkTopology:
    """Immutable node count plus admissible unordered communication pairs."""

    M: int
    pairs: tuple[Pair, ...]
    allow_disconnected: bool = False

    def __post_init__(self) -> None:
        if self.M < 1:
            raise TopologyError(f"node count must be >= 1, got {self.M}")
        seen = set()
        for i, j in self.pairs:
            if not (0 <= i < self.M and 0 <= j < self.M):
                raise TopologyError(f"pair ({i},{j}) references a node outside [0,{self.M})")
            if i == j:
                raise TopologyError(f"self-pair ({i},{j}) is not admissible")
            if i > j:
                raise TopologyError(f"pair ({i},{j}) must be stored with i < j")
            if (i, j) in seen:
                raise TopologyError(f"duplicate pair ({i},{j})")
            seen.add((i, j))
        if self.M > 1 and not self.allow_disconnected and not is_connected(self.M, self.pairs):
            raise TopologyError(
                "admissible pairs leave the graph disconnected "
                "(pass allow_disconnected=True for deliberate experiments)"
            )

    @cached_property
    def pair_array(self) -> np.ndarray:
        """Pairs as a read-only integer array of shape (J, 2), built once."""
        array = np.array(self.pairs, dtype=np.int64).reshape(len(self.pairs), 2)
        array.flags.writeable = False
        return array


def is_connected(M: int, pairs: tuple[Pair, ...]) -> bool:
    """Breadth-first connectivity of the undirected graph on M nodes."""
    if M <= 1:
        return True
    adjacency: list[list[int]] = [[] for _ in range(M)]
    for i, j in pairs:
        adjacency[i].append(j)
        adjacency[j].append(i)
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in adjacency[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == M


def full_ring(M: int) -> NetworkTopology:
    """Completely connected ring: all M(M-1)/2 pairs are admissible."""
    pairs = tuple((i, j) for i in range(M) for j in range(i + 1, M))
    return NetworkTopology(M, pairs)


def k_neighbor_ring(M: int, k: int) -> NetworkTopology:
    """Ring where each node talks to k neighbors, k/2 in each direction."""
    if k % 2 != 0:
        raise TopologyError(f"k must be even, got {k}")
    if k < 2 or k >= M:
        raise TopologyError(f"k must satisfy 2 <= k < M, got k={k}, M={M}")
    pairs = set()
    for i in range(M):
        for d in range(1, k // 2 + 1):
            j = (i + d) % M
            pairs.add((min(i, j), max(i, j)))
    return NetworkTopology(M, tuple(sorted(pairs)))


def explicit_edges(M: int, edges: list[Pair], allow_disconnected: bool = False) -> NetworkTopology:
    """Validate and store a user-provided edge list."""
    normalized = tuple(sorted({(min(i, j), max(i, j)) for i, j in edges}))
    if len(normalized) != len(edges):  # an edge repeated, as given or reversed
        raise TopologyError("duplicate edges in explicit edge list")
    return NetworkTopology(M, normalized, allow_disconnected=allow_disconnected)


@dataclass(frozen=True)
class SpectralSummary:
    """Eigen-summary of the expected squared gossip matrix E[W W^T]."""

    lambda_U: float
    lambda_L: float
    expected_matrix: np.ndarray

    def __post_init__(self) -> None:
        if not (0.0 <= self.lambda_L <= self.lambda_U <= 1.0 + 1e-12):
            raise ValueError(
                f"eigenvalues out of order: lambda_L={self.lambda_L}, lambda_U={self.lambda_U}"
            )


def expected_gossip_matrix(topology: NetworkTopology) -> SpectralSummary:
    """Exact E[W] for the single-exchange protocol, with its eigen-summary.

    Each admissible pair (i, j) is drawn with probability 1/J and averages
    nodes i and j, so E[W] = I - L/(2J) with L the graph Laplacian: diagonal
    (J - deg/2)/J, and 0.5/J in both cells of each pair.  The numerators are
    exact, so each cell is rounded once.  Pairwise matrices are symmetric
    idempotent, so for v=1 the expectation of W W^T equals E[W]; a dense
    symmetric eigensolver gives its spectrum.  Tiny negative eigenvalues from
    roundoff are clamped at zero (E[W W^T] is PSD).
    """
    M = topology.M
    if M == 1:
        return SpectralSummary(0.0, 0.0, np.eye(1))
    J = len(topology.pairs)
    if not J:
        raise TopologyError("topology has no admissible pairs")
    i, j = topology.pair_array.T
    E = np.zeros((M, M))
    E[i, j] = E[j, i] = 0.5
    E[np.diag_indices(M)] = J - 0.5 * np.bincount(topology.pair_array.ravel(), minlength=M)
    E /= J
    eigenvalues = np.linalg.eigvalsh(E)
    lambda_U = float(min(eigenvalues[-2], 1.0))
    lambda_L = float(max(eigenvalues[0], 0.0))
    return SpectralSummary(lambda_U, lambda_L, E)


def effective_eigenvalues(summary: SpectralSummary, v: int) -> tuple[float, float]:
    """Eigenvalue substitution for v exchanges per slot: (xi_U^v, xi_L^v)."""
    if v < 1:
        raise TopologyError(f"v must be >= 1, got {v}")
    return summary.lambda_U ** v, summary.lambda_L ** v
