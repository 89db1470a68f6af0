import dataclasses

import numpy as np
import pytest

from edgelens import Graph, init_gcn
from edgelens.models import Classifier, GINLayer, ModelSpec


@pytest.fixture
def triangle():
    return Graph.undirected(np.ones((3, 2)), [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def path3():
    # a--b--c
    return Graph.undirected(np.ones((3, 2)), [(0, 1), (1, 2)])


@pytest.fixture
def path4():
    return Graph.undirected(np.ones((4, 2)), [(0, 1), (1, 2), (2, 3)])


@pytest.fixture
def small_model():
    return init_gcn(input_dim=2, num_layers=2, hidden_dim=4, num_classes=2, seed=1)


def reweighted(g, edges, value):
    """Copy of g's (E,) edge weights with the given edges set to value."""
    w = g.edge_weight.copy()
    w[list(edges)] = value
    return w


def gin_model(seed, feature_dim, hidden, num_layers, num_classes=2):
    """GIN with uniform(-0.3, 0.3) parameters, epsilon 0.25 and mean pooling."""
    rng = np.random.default_rng(seed)
    u = lambda *shape: rng.uniform(-0.3, 0.3, size=shape)
    dims = [feature_dim] + [hidden] * num_layers
    layers = tuple(
        GINLayer(w1=u(dims[i], hidden), b1=u(hidden), w2=u(hidden, dims[i + 1]),
                 b2=u(dims[i + 1]), epsilon=0.25)
        for i in range(num_layers)
    )
    classifier = Classifier(w1=u(hidden, hidden), b1=u(hidden), w2=u(hidden, num_classes),
                            b2=u(num_classes))
    return ModelSpec("gin", layers, classifier, "mean", num_classes)


def overflowing(m):
    """m with every layer's weight matrices scaled by 1e200: its parameters
    are finite, but every pass overflows float64."""
    names = ("weight",) if m.conv_kind == "gcn" else ("w1", "w2")
    layers = tuple(
        dataclasses.replace(layer, **{k: getattr(layer, k) * 1e200 for k in names})
        for layer in m.layers
    )
    return dataclasses.replace(m, layers=layers)


def path_graph(num_edges, feature_dim):
    """Path 0 - 1 - ... - num_edges with all-ones features."""
    features = np.ones((num_edges + 1, feature_dim))
    return Graph.undirected(features, [(i, i + 1) for i in range(num_edges)])


def random_graph(rng, max_nodes=8, max_extra_edges=6, feature_dim=3):
    """Connected-ish random graph: spanning tree plus extra edges."""
    n = int(rng.integers(2, max_nodes + 1))
    edges = set()
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.add((u, v))
    for _ in range(int(rng.integers(0, max_extra_edges + 1))):
        u, v = rng.choice(n, size=2, replace=False)
        u, v = (int(u), int(v)) if u < v else (int(v), int(u))
        edges.add((u, v))
    features = rng.uniform(0, 1, size=(n, feature_dim))
    return Graph.undirected(features, sorted(edges))


def random_model(rng, feature_dim=3, num_layers=2, hidden_dim=4, num_classes=2):
    return init_gcn(
        input_dim=feature_dim,
        num_layers=num_layers,
        hidden_dim=hidden_dim,
        num_classes=num_classes,
        seed=int(rng.integers(0, 2**31)),
    )
