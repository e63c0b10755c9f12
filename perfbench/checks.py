"""Correctness checks applied to every op the benchmark times.

Each check returns a list of problems (empty when the op is correct) so a
failing op is counted, not fatal: the run still reports how many ops
failed, then exits non-zero.
"""

from __future__ import annotations

import json
import math
from collections import deque
from typing import Any

from repro.core.result import MiningResult


def _connected(graph: Any, vertices: frozenset) -> bool:
    start = next(iter(vertices))
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w in graph.neighbors(u):
            if w in vertices and w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(vertices)


def check_regions(result: MiningResult, graph: Any, labeling: Any) -> list[str]:
    """Problems with a result on its own terms, independent of any reference.

    Every region is a non-empty connected vertex set of ``graph``, regions
    are pairwise disjoint, and each reported chi-square matches the
    statistic recomputed from the raw vertex labels.
    """
    problems = []
    used: set = set()
    for index, region in enumerate(result.subgraphs):
        vertices = frozenset(region.vertices)
        if not vertices or any(not graph.has_vertex(v) for v in vertices):
            problems.append(f"region {index}: vertices outside the graph")
            continue
        if used & vertices:
            problems.append(f"region {index}: overlaps an earlier region")
        used |= vertices
        if not _connected(graph, vertices):
            problems.append(f"region {index}: not connected")
        recomputed = labeling.chi_square(vertices)
        if not math.isclose(
            recomputed, region.chi_square, rel_tol=1e-9, abs_tol=1e-9
        ):
            problems.append(
                f"region {index}: chi-square {region.chi_square!r} but the "
                f"labels give {recomputed!r}"
            )
    return problems


def check_equal(result: MiningResult, reference: MiningResult) -> list[str]:
    """Problems with ``result`` relative to the set-up reference run.

    Same regions in the same order, with bit-identical statistics and
    p-values, and the same correction outcome.
    """
    if len(result.subgraphs) != len(reference.subgraphs):
        return [
            f"{len(result.subgraphs)} regions, reference has "
            f"{len(reference.subgraphs)}"
        ]
    problems = []
    for index, (got, want) in enumerate(
        zip(result.subgraphs, reference.subgraphs)
    ):
        if frozenset(got.vertices) != frozenset(want.vertices):
            problems.append(f"region {index}: vertex set differs")
        for field in ("chi_square", "p_value", "corrected_p_value"):
            a, b = getattr(got, field), getattr(want, field)
            if a != b:
                problems.append(f"region {index}: {field} {a!r} != {b!r}")
    if result.correction != reference.correction:
        problems.append(
            f"correction report {result.correction} != {reference.correction}"
        )
    return problems


def check_posthoc(corrected: MiningResult, uncorrected: MiningResult) -> list[str]:
    """FWER mining must equal post-hoc filtering of uncorrected mining.

    Keeps the uncorrected regions whose raw p-value clears ``delta*`` and
    compares them, in order, with the corrected result.
    """
    report = corrected.correction
    if report is None:
        return ["corrected run carries no correction report"]
    kept = [
        region for region in uncorrected.subgraphs
        if report.delta_star > 0.0 and region.p_value <= report.delta_star
    ]
    problems = []
    if [frozenset(r.vertices) for r in kept] != [
        frozenset(r.vertices) for r in corrected.subgraphs
    ]:
        problems.append("corrected regions differ from post-hoc filtering")
    if [r.chi_square for r in kept] != [
        r.chi_square for r in corrected.subgraphs
    ]:
        problems.append("corrected statistics differ from post-hoc filtering")
    filtered = len(uncorrected.subgraphs) - len(kept)
    if report.regions_filtered != filtered:
        problems.append(
            f"regions_filtered {report.regions_filtered} != {filtered}"
        )
    return problems


def canonical_payload(payload: dict[str, Any]) -> dict[str, Any]:
    """The deterministic part of a result payload: everything but timings.

    Round-tripped through JSON so a payload built in-process compares
    equal to one decoded from an HTTP response.
    """
    doc = json.loads(json.dumps(payload))
    doc["report"] = {
        key: value for key, value in doc["report"].items()
        if not key.endswith("_seconds")
    }
    return doc
