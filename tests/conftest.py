import numpy as np
import pytest

from hierspect import Graph, Partition


@pytest.fixture
def k3():
    return Graph.from_edges([(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def k4():
    return Graph.from_edges([(i, j) for i in range(4) for j in range(i + 1, 4)])


@pytest.fixture
def two_cliques():
    """Two disjoint 5-cliques on nodes 0..4 and 5..9."""
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    edges += [(i + 5, j + 5) for i in range(5) for j in range(i + 1, 5)]
    return Graph.from_edges(edges)


@pytest.fixture
def two_cliques_partition():
    return Partition.from_labels([0] * 5 + [1] * 5)


def random_graph(rng, n, p=0.3, weighted=False):
    """Simple symmetric random graph helper for property tests."""
    mask = np.triu(rng.random((n, n)) < p, k=1)
    adj = np.zeros((n, n))
    adj[mask] = rng.random(mask.sum()) + 0.5 if weighted else 1.0
    adj = adj + adj.T
    return Graph.from_dense(adj)


# Graphs with some other weight than 1 per edge (a self-loop stores 2):
# neither the edge-list writer nor detection takes them.
NON_UNIT_EDGES = [
    pytest.param([(0, 1, 0.5), (1, 2)], id="half"),
    pytest.param([(0, 1), (1, 0)], id="pair-summed-to-two"),
    pytest.param([(0, 1), (2, 2, 0.5)], id="half-loop"),
    pytest.param([(0, 1), (2, 2, 2.0)], id="double-loop"),
    pytest.param([(0, 1), (1, 2, 0.0)], id="stored-zero"),
    pytest.param([(0, 1), (2, 2, 0.0)], id="stored-zero-loop"),
]
