"""Statistical validation of graph partitions as community structures.

Partition quality is measured by families of one-tailed hypergeometric
enrichment tests (within-community over-representation, between-community
under-representation) with mid-p-values and Benjamini-Hochberg adjustment,
aggregated into unweighted and weighted validation indices. Networks are
compared through relative indices, similarity and distance matrices, and
complete-linkage dendrograms. A degree-corrected planted-partition
generator and a simulation harness support calibration studies.
"""

from __future__ import annotations

from ._rng import derive_rng
from .clustering import (
    Dendrogram,
    DistanceMatrix,
    complete_linkage,
    cut_dendrogram,
    fast_greedy,
    from_newick,
    louvain,
    louvain_with_history,
    modularity,
    to_newick,
)
from .compare import (
    ComparisonResult,
    PairComparison,
    compare_all,
    filter_small_communities,
    matrix_tsv,
)
from .dcsbm import (
    DcsbmConfig,
    degrade_partition,
    equal_block_sizes,
    planted_partition,
    powerlaw_weights,
    sample_dcsbm,
    sample_graph,
    sample_theta_within,
    theta_matrix,
)
from .enrichment import (
    EnrichmentMatrix,
    EnrichmentResult,
    enrichment_matrix,
)
from .graph import (
    Graph,
    GraphFormatError,
    Partition,
    induced_subgraph,
    load_graph,
    load_partition,
    partition_from_mapping,
    save_graph,
    save_partition,
)
from .indices import (
    CommunityScore,
    CsvReport,
    csv_report,
    report_to_json,
    report_to_tsv,
    ucsv,
    wcsv,
)
from .simharness import (
    SimResultRow,
    rows_to_tsv,
    run_sim1,
    run_sim2,
    run_sim3,
)
from .stats import (
    bh_adjust,
    lower_mid_p,
    mid_p_family,
    upper_mid_p,
)

__version__ = "0.1.0"

__all__ = [
    "CommunityScore", "ComparisonResult", "CsvReport", "DcsbmConfig",
    "Dendrogram", "DistanceMatrix", "EnrichmentMatrix", "EnrichmentResult",
    "Graph", "GraphFormatError", "PairComparison",
    "Partition", "SimResultRow", "bh_adjust", "compare_all",
    "complete_linkage", "csv_report", "cut_dendrogram", "degrade_partition",
    "derive_rng", "enrichment_matrix", "equal_block_sizes", "fast_greedy",
    "filter_small_communities", "from_newick",
    "induced_subgraph", "load_graph", "load_partition", "louvain",
    "louvain_with_history", "lower_mid_p", "matrix_tsv", "mid_p_family", "modularity",
    "partition_from_mapping", "planted_partition", "powerlaw_weights",
    "report_to_json", "report_to_tsv", "rows_to_tsv",
    "run_sim1", "run_sim2", "run_sim3", "sample_dcsbm", "sample_graph",
    "sample_theta_within", "save_graph", "save_partition", "theta_matrix",
    "to_newick", "ucsv", "upper_mid_p", "wcsv",
]
