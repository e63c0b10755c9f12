"""Outside-in layer timing: spans recorded around the layers' entry points.

Nothing inside ``src/`` is instrumented for the benchmark.  Instead a
:class:`LayerProbe` replaces the names that :mod:`repro.core.solver`
imported from each layer with timing wrappers for the duration of one
traced op, and a :class:`SpanRecorder` keeps every span in memory until
the run ends, when :meth:`SpanRecorder.write_jsonl` dumps them.

A span is ``{"name", "op", "id", "parent", "start", "end", "attrs"}``;
``parent`` is the id of the span that was open when this one started (the
op's ``mine`` span for a layer call).  A layer's self time is its duration
minus the time its child spans cover (:func:`self_seconds`).
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator


class SpanRecorder:
    """In-memory span store with a stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []
        self.op: int | None = None
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict[str, Any]]:
        record = {
            "name": name,
            "op": self.op,
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "start": 0.0,
            "end": 0.0,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(
        self, name: str, op: int | None, start: float, end: float, **attrs: Any
    ) -> dict[str, Any]:
        """Record a finished top-level span (safe from several threads)."""
        record = {
            "name": name, "op": op, "id": None, "parent": None,
            "start": start, "end": end, "attrs": attrs,
        }
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        return record

    def of_op(self, op: int) -> list[dict[str, Any]]:
        return [s for s in self.spans if s["op"] == op]

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, default=float) + "\n")


def duration(span: dict[str, Any]) -> float:
    return span["end"] - span["start"]


def self_seconds(span: dict[str, Any], spans: list[dict[str, Any]]) -> float:
    """Duration of ``span`` minus the (sequential) children it contains."""
    children = [s for s in spans if s["parent"] == span["id"]]
    return duration(span) - sum(duration(c) for c in children)


# What each wrapped name records: its layer, and the span attributes read
# off its return value — the layer's work counts.
def _construct_attrs(result: Any) -> dict[str, Any]:
    return {"super_vertices": result.num_super_vertices}


def _reduce_attrs(result: Any) -> dict[str, Any]:
    return {"contractions": result}


def _search_attrs(result: Any) -> dict[str, Any]:
    return {
        "states": result.explored,
        "bound_cuts": result.bound_cuts,
        "testability_cuts": result.testability_cuts,
    }


def _no_attrs(result: Any) -> dict[str, Any]:
    return {}


LAYER_TARGETS: dict[str, tuple[str, Callable[[Any], dict]]] = {
    "build_continuous_supergraph": ("construct", _construct_attrs),
    "build_discrete_supergraph": ("construct", _construct_attrs),
    "reduce_supergraph": ("reduce", _reduce_attrs),
    "exhaustive_best_mask": ("search", _search_attrs),
    "lmcs_local_search": ("polish", _no_attrs),
    "TestabilityEnvelope": ("correction", _no_attrs),
    "hypothesis_count_envelope": ("correction", _no_attrs),
    "tarone_threshold": ("correction", _no_attrs),
    "conservative_statistic_floor": ("correction", _no_attrs),
    "corrected_p_value": ("correction", _no_attrs),
}
"""Names in :mod:`repro.core.solver`'s namespace -> (layer, attrs)."""


class ProbeError(RuntimeError):
    """A wrapped name is missing, or an expected layer was never called."""


class LayerProbe:
    """Timing wrappers over a module's imported layer entry points.

    ``targets`` are the names to wrap; every one must exist in ``module``
    (a refactor that renames one fails here instead of silently zeroing a
    layer).  Wrappers are installed only inside :meth:`installed`, so
    untraced ops run the original functions.  :meth:`check_called` raises
    unless every target ran at least once over the traced ops.
    """

    def __init__(
        self, module: Any, targets: list[str], recorder: SpanRecorder
    ) -> None:
        missing = [name for name in targets if not hasattr(module, name)]
        if missing:
            raise ProbeError(
                f"{module.__name__} has no {missing}: the layer probe "
                "targets must be updated alongside the pipeline"
            )
        unknown = [name for name in targets if name not in LAYER_TARGETS]
        if unknown:
            raise ProbeError(f"no layer mapping for {unknown}")
        self.module = module
        self.recorder = recorder
        self.originals = {name: getattr(module, name) for name in targets}
        self.calls = dict.fromkeys(targets, 0)

    def _wrap(self, name: str, original: Callable) -> Callable:
        layer, attrs = LAYER_TARGETS[name]
        recorder = self.recorder
        calls = self.calls

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            calls[name] += 1
            with recorder.span(layer, fn=name) as record:
                result = original(*args, **kwargs)
            record["attrs"].update(attrs(result))
            return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        return wrapper

    @contextmanager
    def installed(self) -> Iterator[None]:
        for name, original in self.originals.items():
            if getattr(self.module, name) is not original:
                raise ProbeError(f"{name} was replaced while probing")
            setattr(self.module, name, self._wrap(name, original))
        try:
            yield
        finally:
            for name, original in self.originals.items():
                setattr(self.module, name, original)

    def check_called(self) -> None:
        idle = sorted(name for name, n in self.calls.items() if n == 0)
        if idle:
            raise ProbeError(
                f"layer entry points never called on this workload: {idle}"
            )
