"""Graph substrate: data structure, connectivity, generators, and I/O.

This package is self-contained (no dependency on the statistics or mining
layers) and provides everything the paper's algorithms need from a graph
library: an adjacency-set :class:`~repro.graph.graph.Graph`, connected
components and bi-connectivity, partition checks for contraction, the
paper's Algorithm 3 / Algorithm 4 random-graph constructions plus spatial
generators, and edge-list / JSON persistence.
"""

from repro.graph.biconnectivity import (
    articulation_points,
    biconnected_components,
    is_biconnected,
    is_biconnected_subset,
)
from repro.graph.components import (
    bfs_order,
    connected_component,
    connected_components,
    is_connected,
    is_connected_subset,
    number_of_components,
)
from repro.graph.contraction import validate_partition
from repro.graph.generators import (
    barabasi_albert_graph,
    connect_components,
    erdos_renyi_until_connected,
    gnm_random_graph,
    gnp_random_graph,
    grid_graph,
    holme_kim_graph,
    knn_geometric_graph,
    resolve_rng,
)
from repro.graph.graph import Graph
from repro.graph.io import (
    graph_from_json_dict,
    graph_to_json_dict,
    read_edge_list,
    read_json_graph,
    write_edge_list,
    write_json_graph,
)
from repro.graph.properties import (
    average_degree,
    degree_histogram,
    density,
    density_threshold_edges,
    is_dense_enough,
    max_degree,
)

__all__ = [
    "Graph",
    "articulation_points",
    "average_degree",
    "barabasi_albert_graph",
    "bfs_order",
    "biconnected_components",
    "connect_components",
    "connected_component",
    "connected_components",
    "degree_histogram",
    "density",
    "density_threshold_edges",
    "erdos_renyi_until_connected",
    "gnm_random_graph",
    "gnp_random_graph",
    "graph_from_json_dict",
    "graph_to_json_dict",
    "grid_graph",
    "holme_kim_graph",
    "is_biconnected",
    "is_biconnected_subset",
    "is_connected",
    "is_connected_subset",
    "is_dense_enough",
    "knn_geometric_graph",
    "max_degree",
    "number_of_components",
    "read_edge_list",
    "read_json_graph",
    "resolve_rng",
    "validate_partition",
    "write_edge_list",
    "write_json_graph",
]
