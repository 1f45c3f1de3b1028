"""Hierarchical community detection via spectral methods.

Detects nested community structure in networks: Bethe Hessian clustering
finds the finest partition, coarser levels are proposed by minimizing the
projection error of random-walk eigenvectors, and an analytic null model of
expected projection errors rejects spurious levels.  Ships synthetic
hierarchical benchmark generators and partition-evaluation metrics.
"""

from .errors import (
    DegenerateGraphError,
    EdgeListError,
    HierspectError,
    InfeasibleSNRError,
    SchemaError,
    SolverError,
)
from .evaluation import ScoreReport, ami, score_hierarchy, score_matrix
from .graph import (
    AffinityMatrix,
    Graph,
    Partition,
    QuotientGraph,
    aggregate,
    coarse_affinity_update,
    estimate_affinity,
    is_exact_eep,
    quotient,
    read_edge_list,
    write_edge_list,
)
from .hierarchy import (
    HierarchyResult,
    Level,
    LevelCandidates,
    MsleFit,
    find_relevant_minima,
    fit_msle,
    bootstrap_perturb_affinity,
    identify_partitions_and_errors,
    infer_hierarchy,
    null_curve,
    structural_eigenvectors,
)
from .partition_search import best_eep_partition, kmeans, projection_error
from .spectral import (
    BetheClustering,
    bethe_hessian,
    cluster_bethe_hessian,
)
from .synthetic import (
    GroundTruth,
    SynthSpec,
    generate_hierarchical,
    generate_planted_partition,
    sample_block_model,
    solve_planted_params,
)

__version__ = "0.1.0"

__all__ = [
    "AffinityMatrix",
    "BetheClustering",
    "DegenerateGraphError",
    "EdgeListError",
    "Graph",
    "GroundTruth",
    "HierarchyResult",
    "HierspectError",
    "InfeasibleSNRError",
    "Level",
    "LevelCandidates",
    "MsleFit",
    "Partition",
    "QuotientGraph",
    "SchemaError",
    "ScoreReport",
    "SolverError",
    "SynthSpec",
    "aggregate",
    "ami",
    "best_eep_partition",
    "bethe_hessian",
    "bootstrap_perturb_affinity",
    "cluster_bethe_hessian",
    "coarse_affinity_update",
    "estimate_affinity",
    "find_relevant_minima",
    "fit_msle",
    "generate_hierarchical",
    "generate_planted_partition",
    "identify_partitions_and_errors",
    "infer_hierarchy",
    "is_exact_eep",
    "kmeans",
    "null_curve",
    "projection_error",
    "quotient",
    "read_edge_list",
    "sample_block_model",
    "score_hierarchy",
    "score_matrix",
    "solve_planted_params",
    "structural_eigenvectors",
    "write_edge_list",
]
