"""Live search-progress snapshots and their cross-call aggregation.

A long exhaustive search is a black box between invocation and return;
this module gives it a heartbeat.  Both search backends — the python walk
in :mod:`repro.enumerate.search` and the numpy batch kernel in
:mod:`repro.enumerate.kernel` — already pause every few hundred states to
poll their ``check_abort`` callback; when a ``progress`` callback is also
supplied they publish a :class:`SearchProgress` snapshot at the same
cadence, so live telemetry costs nothing the cancellation hook was not
already paying.

Snapshots published by a single search call are cumulative *within that
call* and reset to zero at the next one, but one :func:`repro.core.solver.
mine` run issues many search calls (one per TSSS round, plus, under
``prune="bounds"`` with ``correction="fwer"``, a search without the
Tarone statistic floor when the floor-seeded one misses the corrected
threshold).  :class:`ProgressAggregator` sits between the search and the
consumer and folds the per-call streams into job-cumulative snapshots
whose counters advance monotonically — the property pollers
(``GET /jobs/<id>/progress``, the ``repro mine --progress`` ticker) rely
on.  It also rate-limits publishing so a per-256-state hook never floods a
pipe or a terminal.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

__all__ = [
    "DEFAULT_PUBLISH_INTERVAL",
    "ProgressAggregator",
    "ProgressCallback",
    "SearchProgress",
]

DEFAULT_PUBLISH_INTERVAL = 0.1
"""Default minimum seconds between published snapshots — frequent enough
for any live view, far below the rate the search offers updates at."""


@dataclass(frozen=True, slots=True)
class SearchProgress:
    """One point-in-time view of a running exhaustive search.

    Counters are cumulative over the scope that produced the snapshot: a
    search backend emits per-call totals, a :class:`ProgressAggregator`
    re-emits job-cumulative ones.  ``best_chi_square`` is None until the
    first evaluable set has been scored; ``kernel_batches`` stays 0 on
    the python backend.
    """

    states_visited: int = 0
    bound_cuts: int = 0
    best_chi_square: float | None = None
    kernel_batches: int = 0
    elapsed_seconds: float = 0.0

    def combined(self, other: "SearchProgress") -> "SearchProgress":
        """Fold two progress scopes: counters add, bests max, elapsed max."""
        if other.best_chi_square is None:
            best = self.best_chi_square
        elif self.best_chi_square is None:
            best = other.best_chi_square
        else:
            best = max(self.best_chi_square, other.best_chi_square)
        return SearchProgress(
            states_visited=self.states_visited + other.states_visited,
            bound_cuts=self.bound_cuts + other.bound_cuts,
            best_chi_square=best,
            kernel_batches=self.kernel_batches + other.kernel_batches,
            elapsed_seconds=max(self.elapsed_seconds, other.elapsed_seconds),
        )

    def to_payload(self) -> dict[str, Any]:
        """JSON-able dict (the ``GET /jobs/<id>/progress`` body shape)."""
        return {
            "states_visited": self.states_visited,
            "bound_cuts": self.bound_cuts,
            "best_chi_square": self.best_chi_square,
            "kernel_batches": self.kernel_batches,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "SearchProgress":
        """Inverse of :meth:`to_payload` (tolerates missing fields)."""
        return cls(
            states_visited=int(payload.get("states_visited", 0)),
            bound_cuts=int(payload.get("bound_cuts", 0)),
            best_chi_square=payload.get("best_chi_square"),
            kernel_batches=int(payload.get("kernel_batches", 0)),
            elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
        )


ProgressCallback = Callable[[SearchProgress], None]
"""What search backends accept: called with per-call cumulative snapshots."""


class ProgressAggregator:
    """Folds per-search-call snapshots into monotone job-cumulative ones.

    The aggregator is itself a :data:`ProgressCallback`, so it can be
    handed directly to a search backend.  The orchestrator (the solver)
    calls :meth:`finish_call` after each search invocation returns, which
    banks that call's final counters; snapshots from the next call then
    stack on top of the banked base.  Publishing to the wrapped consumer
    is throttled to ``min_interval`` seconds; :meth:`flush` forces a final
    publish regardless.

    Not thread-safe — searches are sequential within one job, and each
    job owns its own aggregator.
    """

    __slots__ = (
        "_publish",
        "_min_interval",
        "_clock",
        "_started",
        "_last_emit",
        "_base",
        "_current",
        "published",
    )

    def __init__(
        self,
        publish: ProgressCallback,
        *,
        min_interval: float = DEFAULT_PUBLISH_INTERVAL,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._publish = publish
        self._min_interval = min_interval
        self._clock = clock
        self._started = clock()
        self._last_emit = float("-inf")
        self._base = SearchProgress()
        self._current: SearchProgress | None = None
        self.published = 0

    def __call__(self, snapshot: SearchProgress) -> None:
        """Receive a per-call snapshot; publish if the throttle allows."""
        self._current = snapshot
        now = self._clock()
        if now - self._last_emit >= self._min_interval:
            self._emit(now)

    def finish_call(self) -> None:
        """Bank the finished call's counters into the cumulative base."""
        if self._current is not None:
            self._base = self._base.combined(self._current)
            self._current = None

    def cumulative(self) -> SearchProgress:
        """The job-cumulative snapshot as of now."""
        progress = self._base
        if self._current is not None:
            progress = progress.combined(self._current)
        return SearchProgress(
            states_visited=progress.states_visited,
            bound_cuts=progress.bound_cuts,
            best_chi_square=progress.best_chi_square,
            kernel_batches=progress.kernel_batches,
            elapsed_seconds=self._clock() - self._started,
        )

    def flush(self) -> None:
        """Publish the cumulative snapshot unconditionally."""
        self._emit(self._clock())

    def _emit(self, now: float) -> None:
        self._last_emit = now
        self._publish(self.cumulative())
        self.published += 1
