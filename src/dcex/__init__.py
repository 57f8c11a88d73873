"""Local community extraction in directed networks.

Finds dense node subsets whose boundary edges point consistently in one
direction, one community at a time, by Metropolis-Hastings search over
subsets.  Ships a planted-benchmark generator, direction-blind and
modularity-partitioning baselines, evaluation metrics, and a null-model
significance stop rule.
"""

from .baselines import DmmConfig, run_dmm, run_uce
from .benchmark import BenchmarkSpec, GroundTruth
from .benchmark import generate as generate_benchmark
from .criterion import (
    CommunityState,
    CriterionDomainError,
    CriterionParams,
    MoveRejected,
    Score,
    is_admissible_size,
    max_admissible_size,
    move_delta,
    score,
)
from .evaluation import (
    PartitionLabels,
    adjusted_jaccard,
    best_pair_adjusted_jaccard,
    jaccard,
    load_membership,
    save_membership,
)
from .extraction import (
    ExtractedCommunity,
    ExtractionConfig,
    ExtractionReport,
    empirical_p_value,
    extract_all,
    randomize,
)
from .graph import (
    DirectedGraph,
    EdgeListParseError,
    GraphError,
    GraphValidationError,
    load_edge_list,
    save_edge_list,
    subgraph_complement,
    symmetrize,
)
from .sampler import (
    ChainConfig,
    ChainConfigError,
    ChainResult,
    run_chain,
)
from .seeding import derive_seed

__version__ = "0.1.0"

__all__ = [
    "BenchmarkSpec",
    "ChainConfig",
    "ChainConfigError",
    "ChainResult",
    "CommunityState",
    "CriterionDomainError",
    "CriterionParams",
    "DirectedGraph",
    "DmmConfig",
    "EdgeListParseError",
    "ExtractedCommunity",
    "ExtractionConfig",
    "ExtractionReport",
    "GraphError",
    "GraphValidationError",
    "GroundTruth",
    "MoveRejected",
    "PartitionLabels",
    "Score",
    "adjusted_jaccard",
    "best_pair_adjusted_jaccard",
    "derive_seed",
    "empirical_p_value",
    "extract_all",
    "generate_benchmark",
    "is_admissible_size",
    "jaccard",
    "load_edge_list",
    "load_membership",
    "max_admissible_size",
    "move_delta",
    "randomize",
    "run_chain",
    "run_dmm",
    "run_uce",
    "save_edge_list",
    "save_membership",
    "score",
    "subgraph_complement",
    "symmetrize",
    "__version__",
]
