"""Explain a single graph end to end.

Builds a small motif graph, scores every edge by the slope of the class
probability between the graph and the graph with that edge removed, ranks
the edges, sweeps the ranked prefixes, and prints the chosen subgraph with
its fidelity numbers. Also writes a DOT file you can render with graphviz.
"""

import numpy as np

from edgelens import Graph, explain, export_dot, init_gcn
from edgelens.models import forward

# pentagon motif hanging off a 3-node path
edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (3, 7)]
g = Graph.undirected(np.ones((8, 4)), edges)

model = init_gcn(input_dim=4, num_layers=2, hidden_dim=16, num_classes=2, seed=3)
pred = forward(model, g)
print(f"prediction: class {pred.predicted_class}, probs {np.round(pred.probabilities, 4)}")

e = explain(model, g)  # target defaults to the predicted class
print()
print("edge ranking (score = probability change per unit of removed weight):")
for idx in e.ranked_edges:
    u, v = g.undirected_endpoints(idx)
    marker = "*" if idx in e.subgraph.edges else " "
    print(f" {marker} edge {idx} ({u}-{v})  score {e.scores[idx]:+.6f}")

print()
print(f"chosen prefix size: {e.chosen_k} of {g.num_undirected_edges} edges")
print(f"fidelity+ {e.fidelity_plus:+.6f}  fidelity- {e.fidelity_minus:+.6f}")
print(f"overall   {e.overall:+.6f}  sparsity {e.sparsity:.4f}")
print(f"forward passes used: {e.forward_passes_used} (budget 3|E|+2 = {3 * g.num_undirected_edges + 2})")

export_dot(e, "explanation.dot")
print()
print("wrote explanation.dot (chosen edges in red)")
