"""Exception hierarchy for the :mod:`repro` library.

All library-raised errors derive from :class:`ReproError` so that callers can
catch everything coming out of this package with a single ``except`` clause
while still being able to discriminate finer failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class GraphError(ReproError):
    """Base class for errors raised by the graph substrate."""


class VertexNotFoundError(GraphError, KeyError):
    """A vertex referenced by an operation does not exist in the graph."""

    def __init__(self, vertex: object) -> None:
        super().__init__(f"vertex {vertex!r} is not in the graph")
        self.vertex = vertex


class EdgeNotFoundError(GraphError, KeyError):
    """An edge referenced by an operation does not exist in the graph."""

    def __init__(self, u: object, v: object) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) is not in the graph")
        self.u = u
        self.v = v


class DuplicateVertexError(GraphError, ValueError):
    """A vertex being added already exists in the graph."""

    def __init__(self, vertex: object) -> None:
        super().__init__(f"vertex {vertex!r} is already in the graph")
        self.vertex = vertex


class SelfLoopError(GraphError, ValueError):
    """Self loops are not permitted in the undirected simple graphs we model."""

    def __init__(self, vertex: object) -> None:
        super().__init__(f"self loop on vertex {vertex!r} is not allowed")
        self.vertex = vertex


class NotConnectedError(GraphError, ValueError):
    """An operation requiring a connected (sub)graph received a disconnected one."""


class LabelingError(ReproError, ValueError):
    """A vertex labeling is inconsistent with the graph or the label model."""


class ProbabilityError(ReproError, ValueError):
    """A probability model is malformed (negative mass, does not sum to 1, ...)."""


class EnumerationLimitError(ReproError, RuntimeError):
    """Connected-subgraph enumeration exceeded its configured budget."""

    def __init__(self, limit: int) -> None:
        super().__init__(
            f"enumeration exceeded the configured limit of {limit} subgraphs; "
            "reduce the graph further (lower n_theta) or raise the limit"
        )
        self.limit = limit


class SearchAbortedError(ReproError, RuntimeError):
    """Cooperative cancellation: a ``check_abort`` callback requested a stop.

    Raised from inside the exhaustive search (and between TSSS rounds) when
    the callback passed to :func:`repro.core.solver.mine` returns True —
    typically because a serving deadline expired.  The partially explored
    state is discarded; callers translate this into a structured timeout.
    """

    def __init__(
        self,
        message: str = "the search was aborted by its check_abort callback",
    ) -> None:
        super().__init__(message)


class ServiceError(ReproError):
    """Base class for errors raised by the :mod:`repro.service` subsystem."""


class DigestError(ServiceError, TypeError):
    """A graph/labeling/parameter combination cannot be content-addressed."""


class BackpressureError(ServiceError, RuntimeError):
    """The service job queue is full; the request was rejected."""


class RequestValidationError(ServiceError, ValueError):
    """An inbound service request document failed schema validation."""


class DatasetError(ReproError, ValueError):
    """A synthetic dataset was requested with invalid parameters."""


class ExperimentError(ReproError, RuntimeError):
    """An experiment harness failure (bad sweep configuration, empty results)."""


class TelemetryError(ReproError, ValueError):
    """Telemetry misuse: bad metric kinds, malformed traces, span misnesting."""
