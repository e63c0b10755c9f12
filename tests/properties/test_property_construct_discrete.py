"""Algorithm 1 against a networkx oracle on hypothesis-drawn graphs.

The oracle is the definition itself: the super-vertices are the connected
components of the same-label edge subgraph, and the super-edges are the
quotient of the remaining edges.  Vertex names are ints, strings or
tuples, graphs have isolated vertices, and vertices are inserted in a
drawn order, so the construction cannot lean on any one of them.
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.construct_discrete import build_discrete_supergraph
from repro.graph.graph import Graph
from repro.labels.discrete import DiscreteLabeling, uniform_probabilities

pytestmark = pytest.mark.properties

NAMINGS = {
    "int": lambda i: i,
    "str": lambda i: f"v{i}",
    "tuple": lambda i: (i % 3, f"v{i}"),
}


@st.composite
def labeled_graphs(draw):
    n = draw(st.integers(1, 24))
    name = NAMINGS[draw(st.sampled_from(sorted(NAMINGS)))]
    order = draw(st.permutations(range(n)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=3 * n) if pairs
                 else st.just([]))
    num_labels = draw(st.integers(2, 5))
    labels = draw(st.lists(
        st.integers(0, num_labels - 1), min_size=n, max_size=n
    ))
    # Vertices first, in the drawn order, so some stay isolated and the
    # first-seen order is not the naming order.
    graph = Graph(name(i) for i in order)
    for i, j in edges:
        graph.add_edge(name(i), name(j), exist_ok=True)
    labeling = DiscreteLabeling(
        uniform_probabilities(num_labels),
        {name(i): labels[i] for i in range(n)},
    )
    return graph, labeling


def _oracle(graph, labeling):
    """Components of the same-label edge subgraph, and the quotient edges."""
    same = nx.Graph()
    same.add_nodes_from(graph.vertices())
    same.add_edges_from(
        (u, v) for u, v in graph.edges()
        if labeling.label_of(u) == labeling.label_of(v)
    )
    blocks = {frozenset(c) for c in nx.connected_components(same)}
    block_of = {v: block for block in blocks for v in block}
    quotient = {
        frozenset((block_of[u], block_of[v]))
        for u, v in graph.edges() if block_of[u] != block_of[v]
    }
    return blocks, quotient


@settings(max_examples=150, deadline=None)
@given(labeled_graphs())
def test_supergraph_matches_networkx_oracle(instance):
    graph, labeling = instance
    sg = build_discrete_supergraph(graph, labeling)
    blocks, quotient = _oracle(graph, labeling)

    members = {sv.id: frozenset(sv.members) for sv in sg.super_vertices()}
    assert set(members.values()) == blocks
    assert {
        frozenset((members[u], members[v])) for u, v in sg.topology.edges()
    } == quotient
    for sv in sg.super_vertices():
        label = labeling.label_of(next(iter(sv.members)))
        expected = [0] * labeling.num_labels
        expected[label] = sv.size
        assert sv.payload.counts == tuple(expected)

    # Ids follow the graph order of each block's first-seen vertex.
    position = {v: i for i, v in enumerate(graph.vertices())}
    assert sorted(members) == list(range(len(members)))
    firsts = [min(position[v] for v in members[i]) for i in sorted(members)]
    assert firsts == sorted(firsts)
