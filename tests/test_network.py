import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scistats

from runcons.montecarlo import _gossip_batch, _pair_draws
from runcons.network import (
    NetworkTopology,
    TopologyError,
    build_topology,
    effective_eigenvalues,
    expected_gossip_matrix,
    explicit_edges,
    full_ring,
    is_connected,
    k_neighbor_ring,
)

from dense_oracle import pairwise_matrix


def assert_doubly_stochastic(W: np.ndarray, tol: float = 1e-12) -> None:
    assert W.min() >= -tol
    assert np.abs(W.sum(axis=1) - 1.0).max() < tol
    assert np.abs(W.sum(axis=0) - 1.0).max() < tol


def engine_gossip_matrices(top, v: int, trials: int, rng: np.random.Generator) -> np.ndarray:
    """The gossip matrix W of each of `trials` engine draws, shape (trials, M, M).

    Gossiping the identity's rows with one trial's pairs turns row r into
    W e_r, so the batch holds W^T.
    """
    idx = np.repeat(_pair_draws(rng, top, v, trials), top.M, axis=0)
    rows = np.tile(np.eye(top.M), (trials, 1))
    _gossip_batch(rows, top.pair_array, idx)
    return rows.reshape(trials, top.M, top.M).transpose(0, 2, 1)


def test_full_ring_three_nodes_is_complete_graph():
    top = full_ring(3)
    assert set(top.pairs) == {(0, 1), (0, 2), (1, 2)}


def test_k_neighbor_ring_degree_and_pair_count():
    top = k_neighbor_ring(15, 4)
    assert len(top.pairs) == 30
    degree = np.zeros(15, dtype=int)
    for i, j in top.pairs:
        degree[i] += 1
        degree[j] += 1
    assert (degree == 4).all()


def test_explicit_edges_rejects_disconnected_graph():
    with pytest.raises(TopologyError):
        explicit_edges(3, [(0, 1)])
    top = explicit_edges(3, [(0, 1)], allow_disconnected=True)
    assert top.M == 3 and top.pairs == ((0, 1),)


def test_topology_validation_errors():
    with pytest.raises(TopologyError):
        NetworkTopology(3, ((0, 3),))
    with pytest.raises(TopologyError):
        NetworkTopology(3, ((1, 1),))
    with pytest.raises(TopologyError):
        k_neighbor_ring(15, 3)  # odd k
    with pytest.raises(TopologyError):
        k_neighbor_ring(4, 4)  # k >= M
    with pytest.raises(TopologyError):
        build_topology("full_ring", 0)


def test_is_connected_small_cases():
    assert is_connected(1, ())
    assert is_connected(3, ((0, 1), (1, 2)))
    assert not is_connected(4, ((0, 1), (2, 3)))


def test_pairwise_matrix_two_nodes_full_average():
    W = pairwise_matrix(0, 1, 2)
    assert np.allclose(W, 0.5 * np.ones((2, 2)), atol=1e-15)


def test_pairwise_matrix_averages_selected_entries():
    W = pairwise_matrix(0, 1, 3)
    out = W @ np.array([4.0, 2.0, 9.0])
    assert np.allclose(out, [3.0, 3.0, 9.0], atol=1e-14)


def test_pairwise_matrix_symmetric_idempotent():
    for (i, j, M) in [(0, 1, 3), (1, 3, 4), (0, 4, 5)]:
        W = pairwise_matrix(i, j, M)
        assert np.abs(W - W.T).max() < 1e-15
        assert np.abs(W @ W - W).max() < 1e-12
        assert_doubly_stochastic(W)


def test_single_pair_topology_sample_is_deterministic():
    W = engine_gossip_matrices(full_ring(2), 1, 3, np.random.default_rng(0))
    assert np.allclose(W, 0.5 * np.ones((3, 2, 2)), atol=1e-15)


@settings(max_examples=25, deadline=None)
@given(
    M=st.integers(min_value=2, max_value=8),
    v=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_sampled_matrices_are_doubly_stochastic(M, v, seed):
    W = engine_gossip_matrices(full_ring(M), v, 4, np.random.default_rng(seed))
    for w in W:
        assert_doubly_stochastic(w)


def test_full_ring_spectrum_closed_form():
    for M in range(3, 31):
        summary = expected_gossip_matrix(full_ring(M))
        expected = (M - 2) / (M - 1)
        assert abs(summary.lambda_U - expected) < 1e-12
        assert abs(summary.lambda_L - expected) < 1e-12


def test_full_ring_two_nodes_spectrum():
    summary = expected_gossip_matrix(full_ring(2))
    assert np.allclose(summary.expected_matrix, 0.5 * np.ones((2, 2)), atol=1e-15)
    assert summary.lambda_U == pytest.approx(0.0, abs=1e-12)
    assert summary.lambda_L == pytest.approx(0.0, abs=1e-12)


def test_k_neighbor_spectrum_against_circulant_formula():
    # E[W] = I - L/(2J) is circulant for the symmetric ring, so its spectrum
    # follows from cosines; the eigensolver route must agree.
    M, k = 15, 4
    summary = expected_gossip_matrix(k_neighbor_ring(M, k))
    freqs = np.arange(M)
    laplacian_eigs = k - 2 * np.cos(2 * np.pi * freqs / M) - 2 * np.cos(4 * np.pi * freqs / M)
    eigs = np.sort(1.0 - laplacian_eigs / (2 * M * k / 2))
    assert summary.lambda_U == pytest.approx(eigs[-2], abs=1e-12)
    assert summary.lambda_L == pytest.approx(eigs[0], abs=1e-12)


def test_expected_matrix_is_symmetric_doubly_stochastic():
    summary = expected_gossip_matrix(k_neighbor_ring(12, 4))
    E = summary.expected_matrix
    assert np.abs(E - E.T).max() < 1e-14
    assert_doubly_stochastic(E)
    assert np.linalg.eigvalsh(E)[-1] == pytest.approx(1.0, abs=1e-12)


def test_connected_topologies_have_lambda_u_below_one():
    for top in (full_ring(6), k_neighbor_ring(10, 2), explicit_edges(4, [(0, 1), (1, 2), (2, 3)])):
        assert expected_gossip_matrix(top).lambda_U < 1.0 - 1e-9


def test_disconnected_topology_has_unit_lambda_u():
    top = explicit_edges(4, [(0, 1), (2, 3)], allow_disconnected=True)
    assert expected_gossip_matrix(top).lambda_U == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(TopologyError, match="no admissible pairs"):
        expected_gossip_matrix(NetworkTopology(3, (), allow_disconnected=True))


def test_effective_eigenvalues_power():
    summary = expected_gossip_matrix(full_ring(10))
    xi_u, xi_l = effective_eigenvalues(summary, 5)
    assert xi_u == pytest.approx(summary.lambda_U**5, rel=1e-12)
    assert xi_l == pytest.approx(summary.lambda_L**5, rel=1e-12)


def test_pair_selection_is_uniform_chi_square():
    top = k_neighbor_ring(15, 4)
    draws = _pair_draws(np.random.default_rng(2024), top, 1, 100_000)
    counts = np.bincount(draws.ravel(), minlength=len(top.pairs))
    assert counts.size == len(top.pairs) and counts.sum() == 100_000
    _, p_value = scistats.chisquare(counts)
    assert p_value > 0.001


def test_sampled_mean_matches_expected_matrix():
    top = full_ring(15)
    summary = expected_gossip_matrix(top)
    rng = np.random.default_rng(2024)
    trials, batch = 100_000, 10_000
    acc = np.zeros((15, 15))
    acc_sq = np.zeros((15, 15))
    for _ in range(trials // batch):
        W = engine_gossip_matrices(top, 1, batch, rng)
        acc += W.sum(axis=0)
        acc_sq += (W * W).sum(axis=0)
    mean = acc / trials
    var = acc_sq / trials - mean**2
    std_err = np.sqrt(np.maximum(var, 0.0) / trials)
    assert (np.abs(mean - summary.expected_matrix) <= 3.0 * std_err + 1e-12).all()
