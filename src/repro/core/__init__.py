"""The paper's core contribution: significant-subgraph mining pipeline.

Public surface:

* :func:`~repro.core.solver.mine` / :func:`~repro.core.solver.find_mscs` —
  the end-to-end algorithm (super-graph construction, reduction, exhaustive
  search, top-t iterative deletion);
* :func:`~repro.core.construct_discrete.build_discrete_supergraph`
  (Algorithm 1) and
  :func:`~repro.core.construct_continuous.build_continuous_supergraph`
  (Algorithm 2);
* :func:`~repro.core.reduce.reduce_supergraph` (Algorithm 5);
* :func:`~repro.core.local_search.lmcs_local_search` (Definition 3 LMCS);
* the :class:`~repro.core.supergraph.SuperGraph` structure and result types.
"""

from repro.core.construct_continuous import build_continuous_supergraph
from repro.core.construct_discrete import build_discrete_supergraph
from repro.core.contracting import (
    continuous_merge_if_contracting,
    is_contracting_continuous,
    is_contracting_discrete,
)
from repro.core.local_search import best_single_vertex, lmcs_local_search
from repro.core.queries import (
    chi_square_threshold_for_alpha,
    mine_above_threshold,
    mine_significant_at_level,
    mine_with_min_size,
)
from repro.core.randomization import PermutationTestResult, permutation_test
from repro.core.reduce import reduce_supergraph
from repro.core.result import (
    MiningResult,
    PipelineReport,
    SignificantSubgraph,
    SubgraphComponent,
)
from repro.core.solver import (
    DEFAULT_N_THETA,
    CachedPrefix,
    PrefixCache,
    find_mscs,
    mine,
)
from repro.core.supergraph import Payload, SuperGraph, SuperVertex

__all__ = [
    "CachedPrefix",
    "DEFAULT_N_THETA",
    "MiningResult",
    "Payload",
    "PermutationTestResult",
    "PipelineReport",
    "PrefixCache",
    "SignificantSubgraph",
    "SubgraphComponent",
    "SuperGraph",
    "SuperVertex",
    "best_single_vertex",
    "build_continuous_supergraph",
    "build_discrete_supergraph",
    "chi_square_threshold_for_alpha",
    "continuous_merge_if_contracting",
    "find_mscs",
    "is_contracting_continuous",
    "is_contracting_discrete",
    "lmcs_local_search",
    "mine",
    "mine_above_threshold",
    "mine_significant_at_level",
    "mine_with_min_size",
    "permutation_test",
    "reduce_supergraph",
]
