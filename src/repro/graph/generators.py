"""Random and structured graph generators.

The paper's synthetic evaluation (Section 5.4) uses two random-graph models:

* **Erdős–Rényi**, built exactly as the paper's Algorithm 3 — start from
  ``n`` isolated vertices and add uniformly random edges until the graph is
  connected (:func:`erdos_renyi_until_connected`).  Parameter sweeps over the
  edge count use the classic ``G(n, m)`` model (:func:`gnm_random_graph`).
* **Barabási–Albert** preferential attachment, built exactly as the paper's
  Algorithm 4 (:func:`barabasi_albert_graph`).

We also provide 2-D grids and symmetrised k-nearest-neighbour graphs over
points (the spatial substrate behind the North-East and WNV datasets).

All generators take an explicit ``seed``/``rng`` and are deterministic given
one, which the experiment harness relies on.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence

from repro.exceptions import GraphError
from repro.graph.components import connected_components, is_connected
from repro.graph.graph import Graph

__all__ = [
    "barabasi_albert_graph",
    "connect_components",
    "erdos_renyi_until_connected",
    "gnm_random_graph",
    "gnp_random_graph",
    "grid_graph",
    "holme_kim_graph",
    "knn_geometric_graph",
    "resolve_rng",
]


def resolve_rng(seed: int | random.Random | None) -> random.Random:
    """Turn ``seed`` (int, Random, or None) into a :class:`random.Random`."""
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def _check_n(n: int) -> None:
    if n < 1:
        raise GraphError(f"need at least 1 vertex, got n={n}")


def erdos_renyi_until_connected(
    n: int, *, seed: int | random.Random | None = None
) -> Graph:
    """Algorithm 3 of the paper: add random edges until the graph connects.

    Lemma 3 shows the expected number of edges needed is below ``n ln n``.
    A union-find structure tracks the component count so each candidate edge
    costs near-constant time.
    """
    _check_n(n)
    rng = resolve_rng(seed)
    graph = Graph(range(n))
    if n == 1:
        return graph
    parent = list(range(n))
    rank = [0] * n

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    components = n
    while components > 1:
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j or graph.has_edge(i, j):
            continue
        graph.add_edge(i, j)
        ri, rj = find(i), find(j)
        if ri != rj:
            if rank[ri] < rank[rj]:
                ri, rj = rj, ri
            parent[rj] = ri
            if rank[ri] == rank[rj]:
                rank[ri] += 1
            components -= 1
    return graph


def gnm_random_graph(
    n: int, m: int, *, seed: int | random.Random | None = None
) -> Graph:
    """Uniform random graph with exactly ``n`` vertices and ``m`` edges."""
    _check_n(n)
    max_edges = n * (n - 1) // 2
    if not 0 <= m <= max_edges:
        raise GraphError(f"m={m} impossible for n={n} (max {max_edges})")
    rng = resolve_rng(seed)
    graph = Graph(range(n))
    if m > max_edges // 2:
        # Dense regime: sample the complement instead to avoid rejection
        # thrashing near saturation.
        forbidden: set[tuple[int, int]] = set()
        while len(forbidden) < max_edges - m:
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u == v:
                continue
            forbidden.add((min(u, v), max(u, v)))
        for u in range(n):
            for v in range(u + 1, n):
                if (u, v) not in forbidden:
                    graph.add_edge(u, v)
        return graph
    while graph.num_edges < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or graph.has_edge(u, v):
            continue
        graph.add_edge(u, v)
    return graph


def gnp_random_graph(
    n: int, p: float, *, seed: int | random.Random | None = None
) -> Graph:
    """Classic Erdős–Rényi ``G(n, p)``: each edge present independently."""
    _check_n(n)
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"edge probability must be in [0, 1], got {p}")
    rng = resolve_rng(seed)
    graph = Graph(range(n))
    if p == 0.0:
        return graph
    if p == 1.0:
        return Graph.complete(n)
    # Geometric skipping (Batagelj-Brandes) keeps this O(n + m).
    log_q = math.log(1.0 - p)
    v = 1
    w = -1
    while v < n:
        r = rng.random()
        w = w + 1 + int(math.log(1.0 - r) / log_q)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            graph.add_edge(v, w)
    return graph


def barabasi_albert_graph(
    n: int, d: int, *, seed: int | random.Random | None = None
) -> Graph:
    """Algorithm 4 of the paper: basic Barabási–Albert preferential attachment.

    Starts from ``d`` disconnected vertices; each of the remaining ``n - d``
    vertices attaches to ``d`` distinct existing vertices chosen with
    probability proportional to degree.  The very first arrival attaches to
    all ``d`` seed vertices (they have degree zero, so the choice is uniform
    — we follow the standard convention of treating degree-0 vertices as
    weight 1 until the first edges exist).
    """
    _check_n(n)
    if d < 1:
        raise GraphError(f"attachment parameter d must be >= 1, got d={d}")
    if n <= d:
        raise GraphError(f"need n > d, got n={n}, d={d}")
    rng = resolve_rng(seed)
    graph = Graph(range(n))
    # repeated_nodes holds one copy of each endpoint per edge, so uniform
    # sampling from it is degree-proportional sampling.
    repeated_nodes: list[int] = []
    for new in range(d, n):
        if repeated_nodes:
            targets: set[int] = set()
            while len(targets) < d:
                targets.add(rng.choice(repeated_nodes))
        else:
            targets = set(range(d))
        for t in targets:
            graph.add_edge(new, t)
            repeated_nodes.append(t)
            repeated_nodes.append(new)
    return graph


def holme_kim_graph(
    n: int,
    d: int,
    triad_probability: float,
    *,
    seed: int | random.Random | None = None,
) -> Graph:
    """Holme-Kim model: Barabási-Albert with a triad-formation step.

    Discussed in the paper's related work as the standard fix for BA's low
    clustering coefficient: after each preferential attachment to a vertex
    ``w``, with probability ``triad_probability`` the *next* attachment
    goes to a random neighbour of ``w`` (closing a triangle) instead of a
    fresh preferential draw.
    """
    _check_n(n)
    if d < 1:
        raise GraphError(f"attachment parameter d must be >= 1, got d={d}")
    if n <= d:
        raise GraphError(f"need n > d, got n={n}, d={d}")
    if not 0.0 <= triad_probability <= 1.0:
        raise GraphError(
            f"triad probability must be in [0, 1], got {triad_probability}"
        )
    rng = resolve_rng(seed)
    graph = Graph(range(n))
    repeated_nodes: list[int] = []
    for new in range(d, n):
        targets: set[int] = set()
        last_target: int | None = None
        while len(targets) < d:
            candidate: int | None = None
            if (
                last_target is not None
                and rng.random() < triad_probability
            ):
                neighbours = [
                    w
                    for w in graph.neighbors(last_target)
                    if w != new and w not in targets
                ]
                if neighbours:
                    candidate = rng.choice(neighbours)
            if candidate is None:
                if repeated_nodes:
                    candidate = rng.choice(repeated_nodes)
                    if candidate in targets or candidate == new:
                        continue
                else:
                    candidate = rng.choice(
                        [v for v in range(d) if v not in targets]
                    )
            targets.add(candidate)
            last_target = candidate
        for t in targets:
            graph.add_edge(new, t)
            repeated_nodes.append(t)
            repeated_nodes.append(new)
    return graph


def grid_graph(rows: int, cols: int) -> Graph:
    """A ``rows x cols`` 4-neighbour grid with vertices ``(r, c)``."""
    if rows < 1 or cols < 1:
        raise GraphError(f"grid needs positive dimensions, got {rows}x{cols}")
    graph = Graph((r, c) for r in range(rows) for c in range(cols))
    for r in range(rows):
        for c in range(cols):
            if r + 1 < rows:
                graph.add_edge((r, c), (r + 1, c))
            if c + 1 < cols:
                graph.add_edge((r, c), (r, c + 1))
    return graph


def knn_geometric_graph(points: Sequence[tuple[float, float]], k: int) -> Graph:
    """Symmetrised k-nearest-neighbour graph over 2-D points.

    An edge joins ``i`` and ``j`` if either is among the other's ``k``
    nearest points — a common way to guarantee spatial graphs without
    isolated vertices.  A uniform grid-bucket index with an expanding ring
    search keeps the cost near O(n k) for well-spread points instead of
    the naive O(n^2 log n).
    """
    n = len(points)
    if k < 1:
        raise GraphError(f"k must be >= 1, got k={k}")
    if n <= 1:
        return Graph(range(n))
    if k >= n:
        return Graph.complete(n)

    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    span = max(max(xs) - min(xs), max(ys) - min(ys)) or 1.0
    # Aim for ~k points per cell so one ring usually suffices.
    cells_per_side = max(1, int((n / max(k, 1)) ** 0.5))
    cell = span / cells_per_side
    buckets: dict[tuple[int, int], list[int]] = {}
    origin_x, origin_y = min(xs), min(ys)

    def cell_of(x: float, y: float) -> tuple[int, int]:
        return (int((x - origin_x) / cell), int((y - origin_y) / cell))

    for i, (x, y) in enumerate(points):
        buckets.setdefault(cell_of(x, y), []).append(i)

    graph = Graph(range(n))
    for i, (xi, yi) in enumerate(points):
        cx, cy = cell_of(xi, yi)
        candidates: list[tuple[float, int]] = []
        ring = 0
        while True:
            # Collect the cells of the current ring (ring 0 = home cell).
            for dx in range(-ring, ring + 1):
                for dy in range(-ring, ring + 1):
                    if max(abs(dx), abs(dy)) != ring:
                        continue
                    for j in buckets.get((cx + dx, cy + dy), ()):
                        if j != i:
                            xj, yj = points[j]
                            d2 = (xi - xj) ** 2 + (yi - yj) ** 2
                            candidates.append((d2, j))
            # Points in un-scanned cells are at least (ring * cell) away;
            # stop once the k-th candidate is certainly closer than that.
            if len(candidates) >= k:
                candidates.sort()
                safe = (ring * cell) ** 2
                if candidates[k - 1][0] <= safe or ring > cells_per_side:
                    break
            elif ring > cells_per_side:
                break
            ring += 1
        for _, j in candidates[:k]:
            graph.add_edge(i, j, exist_ok=True)
    return graph


def connect_components(graph: Graph, *, seed: int | random.Random | None = None) -> Graph:
    """Add a minimal set of random edges so the graph becomes connected.

    Mutates and returns ``graph``.  Useful for post-processing geometric
    graphs whose radius left stragglers.
    """
    rng = resolve_rng(seed)
    while not is_connected(graph) and graph.num_vertices > 1:
        comps = connected_components(graph)
        a = rng.choice(sorted(comps[0]))
        b = rng.choice(sorted(comps[1]))
        graph.add_edge(a, b)
    return graph
