"""The JSON request/response schema of the mining service.

One request document describes a complete mining instance plus its search
parameters::

    {
      "graph": {"edges": [[0, 1], [1, 2]], "vertices": [3]},
      "labels": {"type": "discrete", "probabilities": [0.8, 0.2],
                 "symbols": ["common", "rare"],
                 "assignment": {"0": 1, "1": 0, "2": 1, "3": 0}},
      "vertex_type": "int",
      "params": {"top_t": 1, "n_theta": 20, "method": "supergraph",
                 "edge_order": "input", "seed": null,
                 "search_limit": null, "min_size": 1,
                 "polish": false, "prune": "none",
                 "backend": "auto", "correction": "none",
                 "alpha": 0.05},
      "async": false,
      "deadline_seconds": null,
      "trace": true
    }

``graph.vertices`` lists extra isolated vertices (edges imply their
endpoints); ``vertex_type`` selects how label keys and edge entries are
coerced, matching the CLI's ``--vertex-type``.  ``params`` mirrors
:func:`repro.core.solver.mine` keyword-for-keyword, so a service answer is
byte-comparable with a direct library call.  ``trace`` (default true)
controls whether the worker runs the job under a telemetry session and
ships spans/metrics back for ``GET /jobs/<id>/trace``; switch it off for
latency-critical fire-and-forget jobs.

:func:`validate_request` normalises and type-checks a decoded document
(raising :class:`~repro.exceptions.RequestValidationError` with a
field-specific message), :func:`build_instance` materialises the graph and
labeling, and :func:`result_to_payload` renders a
:class:`~repro.core.result.MiningResult` into the JSON document that the
CLI's ``mine --json`` extends.
"""

from __future__ import annotations

import re
from typing import Any

from repro.core.result import MiningResult
from repro.core.solver import PARAM_DEFAULTS, check_params
from repro.exceptions import GraphError, ReproError, RequestValidationError
from repro.graph.graph import Graph
from repro.labels.continuous import ContinuousLabeling
from repro.labels.discrete import DiscreteLabeling

__all__ = [
    "DEFAULT_PARAMS",
    "build_instance",
    "labeling_from_doc",
    "result_to_payload",
    "validate_graph_document",
    "validate_request",
]

_VERTEX_TYPES = {"int": int, "str": str}

_DIGEST_RE = re.compile(r"^[0-9a-f]{64}$")

DEFAULT_PARAMS = PARAM_DEFAULTS
"""Defaults applied to ``params`` fields a request leaves out: the keyword
defaults of :func:`repro.core.solver.mine`, which the CLI's ``repro mine``
shares."""

_TOP_LEVEL_KEYS = {
    "graph", "graph_digest", "labels", "vertex_type", "params", "async",
    "deadline_seconds", "trace",
}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise RequestValidationError(message)


def _validate_instance_fields(
    doc: dict[str, Any],
) -> tuple[dict[str, Any], dict[str, Any], str]:
    """Validate the ``graph``/``labels``/``vertex_type`` trio of a document.

    Returns the normalised ``(graph_doc, labels_doc, vertex_type)``; shared
    by inline ``POST /mine`` requests and ``PUT /graphs`` registry uploads.
    """
    _require("graph" in doc, "request is missing the 'graph' field")
    _require("labels" in doc, "request is missing the 'labels' field")

    graph_doc = doc["graph"]
    _require(isinstance(graph_doc, dict), "'graph' must be an object")
    unknown = set(graph_doc) - {"edges", "vertices"}
    _require(not unknown, f"unknown graph fields: {sorted(unknown)}")
    edges = graph_doc.get("edges", [])
    _require(isinstance(edges, list), "'graph.edges' must be a list")
    for index, edge in enumerate(edges):
        _require(
            isinstance(edge, list) and len(edge) == 2,
            f"'graph.edges[{index}]' must be a two-element list",
        )
    vertices = graph_doc.get("vertices", [])
    _require(isinstance(vertices, list), "'graph.vertices' must be a list")

    labels_doc = doc["labels"]
    _require(isinstance(labels_doc, dict), "'labels' must be an object")
    _require(
        labels_doc.get("type") in ("discrete", "continuous"),
        "'labels.type' must be 'discrete' or 'continuous', got "
        f"{labels_doc.get('type')!r}",
    )

    vertex_type = doc.get("vertex_type", "int")
    _require(
        vertex_type in _VERTEX_TYPES,
        f"'vertex_type' must be one of {sorted(_VERTEX_TYPES)}, "
        f"got {vertex_type!r}",
    )
    return {"edges": edges, "vertices": vertices}, labels_doc, vertex_type


def validate_graph_document(doc: Any) -> dict[str, Any]:
    """Normalise and type-check a ``PUT /graphs`` registry document.

    The document carries exactly the instance trio of an inline mining
    request — ``graph``, ``labels``, and optional ``vertex_type`` — with no
    search parameters (those stay per-request).  Returns the normalised
    ``{"graph": ..., "labels": ..., "vertex_type": ...}``.
    """
    _require(isinstance(doc, dict), "request body must be a JSON object")
    unknown = set(doc) - {"graph", "labels", "vertex_type"}
    _require(not unknown, f"unknown request fields: {sorted(unknown)}")
    graph_doc, labels_doc, vertex_type = _validate_instance_fields(doc)
    return {
        "graph": graph_doc,
        "labels": labels_doc,
        "vertex_type": vertex_type,
    }


def validate_request(doc: Any) -> dict[str, Any]:
    """Normalise and type-check a decoded ``POST /mine`` document.

    Returns a new dict with every defaulted field filled in:
    ``{"graph": ..., "labels": ..., "vertex_type": str,
    "graph_digest": str | None, "params": {...}, "async": bool,
    "deadline_seconds": float | None}``.  Raises
    :class:`~repro.exceptions.RequestValidationError` naming the offending
    field otherwise.  Graph/label *contents* are validated later by
    :func:`build_instance` (they need the instance constructors).

    A request names its instance either inline (``graph`` + ``labels``) or
    by registry reference (``graph_digest``, the 64-hex digest returned by
    ``PUT /graphs``) — never both.
    """
    _require(isinstance(doc, dict), "request body must be a JSON object")
    unknown = set(doc) - _TOP_LEVEL_KEYS
    _require(not unknown, f"unknown request fields: {sorted(unknown)}")

    graph_digest = doc.get("graph_digest")
    if graph_digest is not None:
        _require(
            isinstance(graph_digest, str) and _DIGEST_RE.match(graph_digest)
            is not None,
            "'graph_digest' must be a 64-character lowercase hex digest, "
            f"got {graph_digest!r}",
        )
        conflicting = {"graph", "labels", "vertex_type"} & set(doc)
        _require(
            not conflicting,
            "'graph_digest' selects a registered instance — it cannot be "
            f"combined with inline fields {sorted(conflicting)}",
        )
        graph_doc = labels_doc = None
        vertex_type = "int"
    else:
        graph_doc, labels_doc, vertex_type = _validate_instance_fields(doc)

    params_doc = doc.get("params", {})
    _require(isinstance(params_doc, dict), "'params' must be an object")
    unknown = set(params_doc) - set(DEFAULT_PARAMS)
    _require(not unknown, f"unknown params fields: {sorted(unknown)}")
    params = dict(DEFAULT_PARAMS)
    params.update(params_doc)
    try:
        check_params(params)
    except GraphError as exc:
        raise RequestValidationError(f"params.{exc}") from exc
    params["alpha"] = float(params["alpha"])

    if (
        params["correction"] == "fwer"
        and labels_doc is not None
        and labels_doc.get("type") == "continuous"
    ):
        # Digest requests resolve their labeling later; the solver raises
        # the same constraint then.
        raise RequestValidationError(
            "params.correction='fwer' requires a discrete labeling "
            "(Tarone testability is undefined for the continuous statistic)"
        )

    run_async = doc.get("async", False)
    _require(
        isinstance(run_async, bool),
        f"'async' must be a boolean, got {run_async!r}",
    )

    trace = doc.get("trace", True)
    _require(
        isinstance(trace, bool),
        f"'trace' must be a boolean, got {trace!r}",
    )

    deadline = doc.get("deadline_seconds")
    if deadline is not None:
        _require(
            isinstance(deadline, (int, float)) and not isinstance(deadline, bool)
            and deadline > 0,
            f"'deadline_seconds' must be a positive number, got {deadline!r}",
        )
        deadline = float(deadline)

    return {
        "graph": graph_doc,
        "labels": labels_doc,
        "vertex_type": vertex_type,
        "graph_digest": graph_digest,
        "params": params,
        "async": run_async,
        "deadline_seconds": deadline,
        "trace": trace,
    }


def labeling_from_doc(
    doc: dict[str, Any], vertex_type: type
) -> DiscreteLabeling | ContinuousLabeling:
    """Materialise a labeling from its JSON document.

    The one loader for service requests and the CLI's labeling files;
    keys of ``assignment``/``scores`` are coerced with ``vertex_type``.
    """
    kind = doc.get("type")
    try:
        if kind == "discrete":
            assignment = {
                vertex_type(key): int(value)
                for key, value in doc["assignment"].items()
            }
            return DiscreteLabeling(
                doc["probabilities"], assignment, symbols=doc.get("symbols")
            )
        if kind == "continuous":
            scores = {
                vertex_type(key): value for key, value in doc["scores"].items()
            }
            return ContinuousLabeling(scores)
    except RequestValidationError:
        raise
    except (ReproError, KeyError, TypeError, ValueError) as exc:
        raise RequestValidationError(f"invalid 'labels' document: {exc}") from exc
    raise RequestValidationError(
        f"'labels.type' must be 'discrete' or 'continuous', got {kind!r}"
    )


def build_instance(
    request: dict[str, Any],
) -> tuple[Graph, DiscreteLabeling | ContinuousLabeling]:
    """Materialise the (graph, labeling) pair of a validated request.

    Only for inline requests — a ``graph_digest`` request is resolved
    against the :class:`~repro.service.registry.GraphRegistry` instead.
    """
    if request.get("graph") is None:
        raise RequestValidationError(
            "request carries no inline instance (resolve its 'graph_digest' "
            "against the graph registry instead)"
        )
    vertex_type = _VERTEX_TYPES[request["vertex_type"]]
    try:
        edges = [
            (vertex_type(u), vertex_type(v))
            for u, v in request["graph"]["edges"]
        ]
        extra = [vertex_type(v) for v in request["graph"]["vertices"]]
    except (TypeError, ValueError) as exc:
        raise RequestValidationError(f"invalid 'graph' document: {exc}") from exc
    try:
        graph = Graph.from_edges(edges, vertices=extra)
    except ReproError as exc:
        raise RequestValidationError(f"invalid 'graph' document: {exc}") from exc
    labeling = labeling_from_doc(request["labels"], vertex_type)
    return graph, labeling


def result_to_payload(result: MiningResult) -> dict[str, Any]:
    """Render a :class:`MiningResult` as the service's JSON result payload.

    ``repro mine --json`` prints this same document plus its CLI-only
    keys, so clients can switch between the CLI and the service without
    reparsing.  ``p_value_raw`` always mirrors ``p_value`` so corrected
    and uncorrected runs diff cleanly field-by-field;
    ``corrected_p_value`` is null unless FWER correction kept the region.
    """
    report = result.report
    payload = {
        "subgraphs": [
            {
                "vertices": sorted(map(str, sub.vertices)),
                "size": sub.size,
                "chi_square": sub.chi_square,
                "p_value": sub.p_value,
                "p_value_raw": sub.p_value,
                "corrected_p_value": sub.corrected_p_value,
                "component_sizes": list(sub.component_sizes),
                "component_labels": list(sub.component_labels),
            }
            for sub in result.subgraphs
        ],
        "report": {
            "num_vertices": report.num_vertices,
            "num_edges": report.num_edges,
            "supergraph_vertices": report.supergraph_vertices,
            "supergraph_edges": report.supergraph_edges,
            "reduced_vertices": report.reduced_vertices,
            "contractions": report.contractions,
            "explored_subgraphs": report.explored_subgraphs,
            "rounds": report.rounds,
            "dense_enough": report.dense_enough,
            "construction_seconds": report.construction_seconds,
            "reduction_seconds": report.reduction_seconds,
            "search_seconds": report.search_seconds,
            "total_seconds": report.total_seconds,
        },
    }
    if result.correction is not None:
        corr = result.correction
        payload["correction"] = {
            "method": corr.method,
            "alpha": corr.alpha,
            "delta_star": corr.delta_star,
            "num_testable": corr.num_testable,
            "testable_min_size": corr.testable_min_size,
            "counts_mode": corr.counts_mode,
            "regions_filtered": corr.regions_filtered,
        }
    return payload
