"""edgelens: training-free subgraph explanations for GNN graph classifiers.

The pipeline is: score every undirected edge by the slope from a zeroed
base point, rank, then search the ranked prefixes for the subgraph with the
best overall fidelity. Everything runs on a small self-contained numpy
GCN/GIN inference engine so results are deterministic and cheap to verify.
"""

from .data import (
    DatasetRecord,
    dataset_checksum,
    edge_mask_auc,
    gen_ba2motifs_mini,
    gen_varsize_motifs,
    load_dataset,
    save_dataset,
)
from .errors import (
    DataFormatError,
    EdgeLensError,
    EnumerationTooLargeError,
    InvalidSelectionError,
    ModelFormatError,
    NumericalFailureError,
    UndefinedMetricError,
)
from .evaluate import (
    compare_methods,
    export_dot,
    fidelity_curve,
    oracle_report,
)
from .explain import (
    EdgeScores,
    Explanation,
    brute_force_best_subgraph,
    explain,
    fidelity_minus,
    fidelity_plus,
    ig_edge_scores,
    linear_gradient_scores,
    linear_search,
    overall_fidelity,
    rank_edges,
    sa_edge_scores,
    save_explanation,
)
from .graphs import (
    Graph,
    InducedSubgraph,
    enumerate_connected_edge_subgraphs,
    exhaustiveness,
    induce_by_edges,
    induce_by_nodes,
    induce_by_nodes_and_edges,
    intuitiveness,
    load_graph,
    save_graph,
    sparsity,
)
from .models import (
    ModelSpec,
    Prediction,
    forward,
    forward_on_induced,
    load_model,
    save_model,
)
from .training import (
    TrainConfig,
    TrainResult,
    init_gcn,
    train_gcn,
)

__version__ = "0.1.0"
