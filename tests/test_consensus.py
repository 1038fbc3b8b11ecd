import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from runcons.consensus import ConsensusRun, WeightMode, centralized_weight, step_weights
from runcons.montecarlo import NEVER_STOPS, sequential_trials
from runcons.network import full_ring
from runcons.stats import Gaussian, Identity

from dense_oracle import gossip_matrix, pairwise_matrix, phi_product_state


def running_sums(rng: np.random.Generator, topology, v: int, lanes: int, n_max: int, include: bool = True):
    """Each slot's (lanes, 1 + M) running sums of standard normal draws: the centralized column, then each node's."""
    sums = []
    sequential_trials((Gaussian(0.0, 1.0),), Identity(), topology, v, NEVER_STOPS, n_max, range(topology.M), lanes,
                      rng, record=sums.append, include_new_sample=include)
    return sums


def test_weights_match_schedule():
    assert step_weights(WeightMode.AVERAGING, 4, 3) == (0.75, 0.25)
    assert step_weights(WeightMode.ACCUMULATING, 4, 3) == (1.0, 3.0)
    assert centralized_weight(WeightMode.AVERAGING, 4, 3) == pytest.approx(1 / 12)
    assert centralized_weight(WeightMode.ACCUMULATING, 4, 3) == 1.0


def test_single_node_state_equals_centralized():
    run = ConsensusRun(1, WeightMode.AVERAGING)
    rng = np.random.default_rng(1)
    for _ in range(20):
        run.step(np.eye(1), rng.standard_normal(1))
        assert run.state[0] == pytest.approx(run.centralized_state(), rel=1e-12)
        assert run.error_vector()[0] == pytest.approx(0.0, abs=1e-12)


def test_hand_computed_accumulating_step():
    run = ConsensusRun(3, WeightMode.ACCUMULATING, include_new_sample_in_exchange=True)
    run.step(pairwise_matrix(0, 1, 3), np.array([1.0, 2.0, 3.0]))
    assert np.allclose(run.state, [4.5, 4.5, 9.0], atol=1e-14)
    assert run.centralized_state() == pytest.approx(6.0, abs=1e-14)
    assert run.state.mean() == pytest.approx(6.0, abs=1e-14)


def test_first_averaging_step_ignores_initial_state():
    run = ConsensusRun(3, WeightMode.AVERAGING, include_new_sample_in_exchange=True)
    run.state = np.array([5.0, -7.0, 2.0])  # must be wiped: alpha_1 = 0
    W = pairwise_matrix(1, 2, 3)
    t = np.array([0.5, 1.5, -2.0])
    run.step(W, t)
    assert np.allclose(run.state, W @ t, atol=1e-14)


def test_centralized_state_requires_first_slot():
    run = ConsensusRun(2, WeightMode.AVERAGING)
    with pytest.raises(ValueError):
        run.centralized_state()


def test_centralized_state_constant_inputs():
    run = ConsensusRun(4, WeightMode.AVERAGING)
    for _ in range(7):
        run.step(np.eye(4), np.full(4, 3.25))
    assert run.centralized_state() == pytest.approx(3.25, rel=1e-12)

    run = ConsensusRun(4, WeightMode.ACCUMULATING)
    for _ in range(7):
        run.step(np.eye(4), np.ones(4))
    assert run.centralized_state() == pytest.approx(7 * 4, rel=1e-12)


def test_full_averaging_every_slot_gives_zero_error():
    M = 5
    W = np.full((M, M), 1.0 / M)
    run = ConsensusRun(M, WeightMode.ACCUMULATING, include_new_sample_in_exchange=True)
    rng = np.random.default_rng(7)
    for _ in range(30):
        run.step(W, rng.standard_normal(M))
        assert np.abs(run.error_vector()).max() < 1e-10


@settings(max_examples=20, deadline=None)
@given(
    M=st.integers(min_value=2, max_value=8),
    n=st.integers(min_value=1, max_value=30),
    v=st.integers(min_value=1, max_value=4),
    include=st.booleans(),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_conservation_invariant(M, n, v, include, seed):
    # gossip preserves column sums, so the state mean tracks the oracle exactly
    for sums in running_sums(np.random.default_rng(seed), full_ring(M), v, 3, n, include):
        central, states = sums[:, 0], sums[:, 1:]
        gap = np.abs(states.mean(axis=1) - central) / np.maximum(1.0, np.abs(central))
        assert gap.max() < 1e-10


@settings(max_examples=20, deadline=None)
@given(
    M=st.integers(min_value=2, max_value=4),
    n=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_recursion_equals_matrix_product_expansion(M, n, seed):
    # twin generators give the expansion the engine's draws: the pair index, then the sample
    top = full_ring(M)
    engine_rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    *_, last = running_sums(engine_rng, top, 1, 1, n)
    states = last[:, 1:]
    matrices, t_values = [], []
    for _ in range(n):
        matrices.append(gossip_matrix(top, 1, oracle_rng))
        t_values.append(oracle_rng.standard_normal(M))
    expected = phi_product_state(matrices, t_values, WeightMode.ACCUMULATING)
    assert np.abs(states[0] - expected).max() < 1e-10


def test_error_vector_is_zero_mean_monte_carlo():
    trials, n = 4000, 10
    *_, last = running_sums(np.random.default_rng(12), full_ring(4), 1, trials, n)
    errors = last[:, 1:] - last[:, :1]
    mean = errors.mean(axis=0)
    std_err = errors.std(axis=0, ddof=1) / np.sqrt(trials)
    assert (np.abs(mean) <= 3.0 * std_err).all()


def test_dimension_mismatch_rejected():
    run = ConsensusRun(3, WeightMode.AVERAGING)
    with pytest.raises(ValueError):
        run.step(np.eye(2), np.zeros(3))
    with pytest.raises(ValueError):
        run.step(np.eye(3), np.zeros(2))
