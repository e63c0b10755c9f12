"""Synthetic stand-in for the ISRO North-East biodiversity dataset (§5.1).

The real dataset — 1202 surveyed sites in North-East India with four
attributes quantised to the 14 symbols A-N of Table 1 — is proprietary, so
we synthesise a field with the same schema and the same *analysable
structure*:

* 1202 spatial points with a k-NN neighbourhood graph (the paper's largest
  rule graph has average degree ~13.7, matching k=12 symmetric k-NN);
* four spatially auto-correlated attributes quantised exactly as Table 1
  (biodiversity A-D, disturbance E-H, medicinal I-K, economic L-N); the
  random fields are deliberately fine-grained so natural same-label clumps
  stay small and the planted anomalies dominate, as in the survey data;
* planted contiguous anomalies mirroring the Table 2 findings:

  - ``i_no_h`` — a large region of medicinal-I sites with *no* very-high
    disturbance while H is common at I sites elsewhere (the ``I => H``
    ratio-0.00 row);
  - ``i_with_d`` — a region where I co-occurs with very-high biodiversity
    D, rare elsewhere (the ``I => D`` ratio-1.00 row);
  - ``bridge_left / bridge_mid / bridge_right`` — two low-biodiversity
    I-regions connected *only* by a thin strip of biodiversity-A sites
    (the ``I => A`` {48, 3, 42} bridge row); a non-I moat isolates the
    structure so the strip is the unique connector;
  - ``ak`` and ``cg`` — the rare combined-label regions (low biodiversity
    with high medicinal value; high biodiversity despite high
    disturbance) of the Section 5.1 narrative.

Each planted rule comes with a *calibrated null probability* (the paper
allows ``p`` to be "provided by the co-location rule" instead of estimated
empirically); using those probabilities the pipeline provably prefers the
planted structures over percolation artefacts of the background.

Planted ground truth is returned so tests and benchmarks can check that
the pipeline actually recovers the regions.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from repro.datasets.spatial import (
    SmoothField,
    nearest_indices,
    quantize_by_thresholds,
    rank_normalize,
    uniform_points,
)
from repro.exceptions import DatasetError
from repro.graph.generators import knn_geometric_graph, resolve_rng
from repro.graph.graph import Graph
from repro.colocation.features import SpatialDataset
from repro.colocation.rules import ColocationRule

__all__ = [
    "ATTRIBUTE_SYMBOLS",
    "DEFAULT_NUM_SITES",
    "NortheastDataset",
    "northeast_dataset",
]

ATTRIBUTE_SYMBOLS: dict[str, tuple[str, ...]] = {
    "biodiversity": ("A", "B", "C", "D"),
    "disturbance": ("E", "F", "G", "H"),
    "medicinal": ("I", "J", "K"),
    "economic": ("L", "M", "N"),
}
"""Table 1: quantised symbols per attribute (Low..Very High / Low..High)."""

_MEDICINAL_THRESHOLDS = (0.4, 0.8)
_ECONOMIC_THRESHOLDS = (0.65, 0.9)
_QUARTILES = (0.25, 0.5, 0.75)

DEFAULT_NUM_SITES = 1202
"""Site count of the real survey."""

_H_BACKGROUND_RATE = 0.85
_A_BACKGROUND_RATE = 0.70
_MOAT_WIDTH = 0.10


@dataclass(frozen=True, slots=True)
class NortheastDataset:
    """The synthetic survey: spatial dataset + planted ground truth.

    ``planted`` maps a structure name to the set of site indices it covers
    (see the module docstring for names).  ``calibrated_rules`` are the
    size-2 rules whose significant regions the planted structures realise,
    with their rule-supplied null probabilities.
    """

    dataset: SpatialDataset
    planted: dict[str, frozenset[int]]
    attributes: dict[str, tuple[str, ...]]
    calibrated_rules: tuple[ColocationRule, ...]

    @property
    def graph(self) -> Graph:
        """The neighbourhood graph (convenience accessor)."""
        return self.dataset.graph

    def rule(self, antecedent: str, consequent: str) -> ColocationRule:
        """Look up a calibrated rule by its feature pair."""
        for rule in self.calibrated_rules:
            if rule.antecedent == antecedent and rule.consequent == consequent:
                return rule
        raise DatasetError(
            f"no calibrated rule {antecedent} => {consequent}; available: "
            f"{[str(r) for r in self.calibrated_rules]}"
        )

    @property
    def bridge_vertices(self) -> frozenset[int]:
        """All sites of the planted I => A bridge structure."""
        return (
            self.planted["bridge_left"]
            | self.planted["bridge_mid"]
            | self.planted["bridge_right"]
        )


def _quantize_attribute(raw: list[float], attribute: str) -> list[str]:
    symbols = ATTRIBUTE_SYMBOLS[attribute]
    normalised = rank_normalize(raw)
    if attribute == "medicinal":
        thresholds = _MEDICINAL_THRESHOLDS
    elif attribute == "economic":
        thresholds = _ECONOMIC_THRESHOLDS
    else:
        thresholds = _QUARTILES
    return [symbols[quantize_by_thresholds(v, thresholds)] for v in normalised]


def northeast_dataset(
    seed: int = 7, *, num_sites: int = DEFAULT_NUM_SITES, knn: int = 12
) -> NortheastDataset:
    """Generate the synthetic North-East survey.

    Deterministic given ``seed``.  ``num_sites`` can be reduced (>= 300)
    for quick tests; planted-region sizes scale proportionally.
    """
    if num_sites < 300:
        raise DatasetError(
            f"need at least 300 sites to plant all structures, got {num_sites}"
        )
    rng = resolve_rng(seed)
    points = uniform_points(num_sites, seed=rng)
    graph = knn_geometric_graph(points, knn)

    # Fine-grained fields: many small bumps keep natural same-label clumps
    # to a few dozen sites, as in the fragmented survey landscape.
    fields = {
        name: SmoothField.random(
            num_bumps=30, seed=rng, scale_range=(0.03, 0.08)
        )
        for name in ATTRIBUTE_SYMBOLS
    }
    symbols = {
        name: _quantize_attribute(field.sample(points), name)
        for name, field in fields.items()
    }

    scale = num_sites / DEFAULT_NUM_SITES
    planted = _plant_structures(points, graph, symbols, rng, scale)

    features = {
        i: {
            symbols["biodiversity"][i],
            symbols["disturbance"][i],
            symbols["medicinal"][i],
            symbols["economic"][i],
        }
        for i in range(num_sites)
    }
    dataset = SpatialDataset(points, graph, features)
    rules = (
        ColocationRule("I", "H", _H_BACKGROUND_RATE, dataset.feature_count("I")),
        ColocationRule("I", "D", 0.10, dataset.feature_count("I")),
        ColocationRule("I", "A", _A_BACKGROUND_RATE, dataset.feature_count("I")),
    )
    return NortheastDataset(
        dataset=dataset,
        planted=planted,
        attributes=dict(ATTRIBUTE_SYMBOLS),
        calibrated_rules=rules,
    )


def _plant_structures(
    points: list[tuple[float, float]],
    graph: Graph,
    symbols: dict[str, list[str]],
    rng: random.Random,
    scale: float,
) -> dict[str, frozenset[int]]:
    """Override quantised symbols inside chosen balls to plant anomalies."""

    def size(base: int) -> int:
        return max(3, round(base * scale))

    # Well-separated centres keep the planted regions apart; fresh-ball
    # selection below additionally skips any already-planted site, so the
    # regions are disjoint even where balls would graze each other.
    centres = {
        "i_no_h": (0.18, 0.82),
        "i_with_d": (0.82, 0.82),
        "bridge": (0.50, 0.16),
        "ak": (0.08, 0.45),
        "cg": (0.92, 0.45),
    }
    planted: dict[str, frozenset[int]] = {}
    taken: set[int] = set()

    def fresh_ball(center: tuple[float, float], count: int) -> list[int]:
        candidates = nearest_indices(points, center, count + len(taken))
        return [i for i in candidates if i not in taken][:count]

    # I => H ratio-0 region: medicinal low (I) but disturbance *not* very
    # high; the background calibration below makes H common elsewhere.
    members = fresh_ball(centres["i_no_h"], size(98))
    for i in members:
        symbols["medicinal"][i] = "I"
        symbols["disturbance"][i] = rng.choice(("E", "F"))
    planted["i_no_h"] = frozenset(members)
    taken.update(members)

    # I => D ratio-1 region: medicinal low and biodiversity very high.
    members = fresh_ball(centres["i_with_d"], size(75))
    for i in members:
        symbols["medicinal"][i] = "I"
        symbols["biodiversity"][i] = "D"
    planted["i_with_d"] = frozenset(members)
    taken.update(members)

    bridge = _plant_bridge(points, graph, symbols, centres["bridge"], size, taken)
    planted.update(bridge)
    for block in bridge.values():
        taken.update(block)

    # Combined-label region AK: low biodiversity with high medicinal value
    # (the rare ~5% label of the Section 5.1 narrative, found in Mizoram).
    members = fresh_ball(centres["ak"], size(32))
    for i in members:
        symbols["biodiversity"][i] = "A"
        symbols["medicinal"][i] = "K"
    planted["ak"] = frozenset(members)
    taken.update(members)

    # Combined-label region CG: high biodiversity despite high disturbance
    # (the ~6% label found in Manipur).
    members = fresh_ball(centres["cg"], size(30))
    for i in members:
        symbols["biodiversity"][i] = "C"
        symbols["disturbance"][i] = "G"
    planted["cg"] = frozenset(members)
    taken.update(members)

    _calibrate_background(points, symbols, planted, rng)
    return planted


def _plant_bridge(
    points: list[tuple[float, float]],
    graph: Graph,
    symbols: dict[str, list[str]],
    centre: tuple[float, float],
    size,
    already_taken: set[int],
) -> dict[str, frozenset[int]]:
    """Two label-0 balls joined only by a thin label-1 strip (I => A)."""
    bx, by = centre

    def fresh(center: tuple[float, float], count: int, exclude: set[int]) -> list[int]:
        blocked = already_taken | exclude
        candidates = nearest_indices(points, center, count + len(blocked))
        return [i for i in candidates if i not in blocked][:count]

    left = fresh((bx - 0.19, by), size(62), set())
    left_set = set(left)
    right = fresh((bx + 0.19, by), size(54), left_set)
    taken = left_set | set(right)
    strip = fresh((bx, by), size(3), taken)
    members = taken | set(strip)

    for i in left + right:
        symbols["medicinal"][i] = "I"
        symbols["biodiversity"][i] = "B"
    for i in strip:
        symbols["medicinal"][i] = "I"
        symbols["biodiversity"][i] = "A"

    # Connectivity repair: if the strip does not yet join the balls inside
    # the I-induced graph, recruit the full-graph shortest path between the
    # balls (through the bridge gap) into the strip.
    strip = _repair_bridge_connectivity(
        graph, symbols, set(left), set(right), set(strip)
    )
    members = taken | strip

    # Moat: every non-member site within _MOAT_WIDTH of a member loses the
    # I label, so the structure is an island of the I-induced graph.
    member_points = [points[i] for i in members]
    for i, (x, y) in enumerate(points):
        if i in members:
            continue
        if symbols["medicinal"][i] != "I":
            continue
        near = any(
            (x - mx) ** 2 + (y - my) ** 2 < _MOAT_WIDTH * _MOAT_WIDTH
            for mx, my in member_points
        )
        if near:
            symbols["medicinal"][i] = "J"

    return {
        "bridge_left": frozenset(left),
        "bridge_mid": frozenset(strip),
        "bridge_right": frozenset(right),
    }


def _repair_bridge_connectivity(
    graph: Graph,
    symbols: dict[str, list[str]],
    left: set[int],
    right: set[int],
    strip: set[int],
) -> set[int]:
    """Ensure left -> strip -> right is connected in the I-induced graph.

    BFS over the full graph from the left ball, preferring existing members,
    recruiting the discovered path's outside vertices into the strip
    (setting them to medicinal I / biodiversity A).
    """
    members = left | right | strip
    parent: dict[int, int | None] = {v: None for v in left}
    queue: deque[int] = deque(left)
    reached: int | None = None
    while queue and reached is None:
        u = queue.popleft()
        for w in graph.neighbors(u):
            if w in parent:
                continue
            parent[w] = u
            if w in right:
                reached = w
                break
            queue.append(w)
    if reached is None:
        raise DatasetError("bridge balls are unreachable; increase knn")
    node: int | None = reached
    while node is not None:
        if node not in members:
            strip.add(node)
            symbols["medicinal"][node] = "I"
            symbols["biodiversity"][node] = "A"
        node = parent[node]
    return strip


def _calibrate_background(
    points: list[tuple[float, float]],
    symbols: dict[str, list[str]],
    planted: dict[str, frozenset[int]],
    rng: random.Random,
) -> None:
    """Make the calibrated rule probabilities hold outside the plantings.

    At medicinal-I sites, very-high disturbance H occurs with probability
    ~0.85 and low biodiversity A with probability ~0.70 — the backdrops
    against which the ``i_no_h`` absence region and the bridge's B-balls
    are statistically significant.  Each calibration skips exactly the
    planted regions that *constrain* that attribute, so a region planted
    for one rule reads as ordinary background for the others.
    """
    disturbance_frozen = planted["i_no_h"] | planted["cg"]
    bio_frozen = (
        planted["i_with_d"]
        | planted["bridge_left"]
        | planted["bridge_mid"]
        | planted["bridge_right"]
        | planted["ak"]
        | planted["cg"]
    )
    for i in range(len(points)):
        if symbols["medicinal"][i] != "I":
            continue
        if i not in disturbance_frozen:
            if rng.random() < _H_BACKGROUND_RATE:
                symbols["disturbance"][i] = "H"
            elif symbols["disturbance"][i] == "H":
                symbols["disturbance"][i] = "G"
        if i not in bio_frozen:
            if rng.random() < _A_BACKGROUND_RATE:
                symbols["biodiversity"][i] = "A"
            elif symbols["biodiversity"][i] == "A":
                symbols["biodiversity"][i] = "B"
