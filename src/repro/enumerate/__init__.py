"""Exhaustive connected-subgraph enumeration and search (naïve algorithm).

The paper's baseline examines every connected subgraph; this package makes
that tractable on small graphs via bitmask recursion with incremental
chi-square accumulators, and is reused by the solver as the final stage on
reduced super-graphs.
"""

from repro.enumerate.accumulators import (
    ContinuousAccumulator,
    DiscreteAccumulator,
)
from repro.enumerate.bitset import BitsetGraph, iter_bits, mask_of, popcount
from repro.enumerate.bounds import continuous_upper_bound, discrete_upper_bound
from repro.enumerate.connected import (
    DEFAULT_LIMIT,
    connected_subgraph_masks,
    count_connected_subgraphs,
    enumerate_connected_subsets,
    reference_connected_subsets,
)
from repro.enumerate.kernel import (
    KERNEL_CHUNK,
    MAX_KERNEL_VERTICES,
)
from repro.enumerate.search import (
    ABORT_CHECK_MASK,
    PRUNE_MODES,
    SEARCH_BACKENDS,
    SearchOutcome,
    exhaustive_best_mask,
)

__all__ = [
    "ABORT_CHECK_MASK",
    "BitsetGraph",
    "ContinuousAccumulator",
    "DEFAULT_LIMIT",
    "DiscreteAccumulator",
    "KERNEL_CHUNK",
    "MAX_KERNEL_VERTICES",
    "PRUNE_MODES",
    "SEARCH_BACKENDS",
    "SearchOutcome",
    "connected_subgraph_masks",
    "continuous_upper_bound",
    "count_connected_subgraphs",
    "discrete_upper_bound",
    "enumerate_connected_subsets",
    "exhaustive_best_mask",
    "iter_bits",
    "mask_of",
    "popcount",
    "reference_connected_subsets",
]
