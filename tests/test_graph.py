import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmchain.graph import EncounterGraph, gen_interval_graph


def test_p_zero_gives_empty_graph():
    g = gen_interval_graph(10, 0.0, np.random.default_rng(1))
    assert g.edges == frozenset()


def test_p_one_gives_complete_graph():
    n = 9
    g = gen_interval_graph(n, 1.0, np.random.default_rng(1))
    assert len(g.edges) == n * (n - 1) // 2


def test_generation_is_deterministic_given_stream():
    a = gen_interval_graph(20, 0.4, np.random.default_rng(7))
    b = gen_interval_graph(20, 0.4, np.random.default_rng(7))
    assert a == b


def test_invalid_probability_rejected():
    with pytest.raises(ValueError):
        gen_interval_graph(5, 1.5, np.random.default_rng(0))
    with pytest.raises(ValueError):
        gen_interval_graph(5, -0.1, np.random.default_rng(0))


def test_empty_swarm_rejected():
    with pytest.raises(ValueError):
        gen_interval_graph(0, 0.5, np.random.default_rng(0))


def test_malformed_edges_rejected():
    with pytest.raises(ValueError):
        EncounterGraph(n=3, interval=1, edges=frozenset({(2, 2)}))
    with pytest.raises(ValueError):
        EncounterGraph(n=3, interval=1, edges=frozenset({(3, 1)}))


@settings(max_examples=30)
@given(n=st.integers(2, 15), p=st.floats(0, 1), seed=st.integers(0, 2**32 - 1))
def test_edge_symmetry_and_degree_sum(n, p, seed):
    """Each meeting is one unordered pair, so it adds one to both degrees."""
    g = gen_interval_graph(n, p, np.random.default_rng(seed))
    adjacency = {v: set() for v in range(1, n + 1)}
    for u, v in g.edges:
        assert 1 <= u < v <= n
        adjacency[u].add(v)
        adjacency[v].add(u)
    for u in adjacency:
        for v in adjacency[u]:
            assert u in adjacency[v]
    assert sum(len(nb) for nb in adjacency.values()) == 2 * len(g.edges)


def test_mean_degree_matches_exact_expectation():
    """Sampled mean degree over 10^4 graphs sits at (n-1)*p = 7.92 for the
    25-robot operating point (exact small-n value, not the n*p shorthand)."""
    n, p, samples = 25, 0.33, 10_000
    rng = np.random.default_rng(424242)
    total = 0
    for _ in range(samples):
        g = gen_interval_graph(n, p, rng)
        total += 2 * len(g.edges) / n
    mean_degree = total / samples
    assert abs(mean_degree - (n - 1) * p) <= 0.1


def test_empirical_edge_frequency_converges_to_p():
    n, p, samples = 10, 0.27, 4_000
    pairs = n * (n - 1) // 2
    rng = np.random.default_rng(7)
    edges = sum(len(gen_interval_graph(n, p, rng).edges) for _ in range(samples))
    freq = edges / (pairs * samples)
    std_err = (p * (1 - p) / (pairs * samples)) ** 0.5
    assert abs(freq - p) <= 3 * std_err
