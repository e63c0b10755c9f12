"""Tarone-bound multiple-testing correction for subgraph significance.

Mining reports the most significant connected subgraphs out of an
exponentially large candidate family; testing every candidate at level
``alpha`` without correction invites false discoveries.  Tarone's
insight (Sugiyama, Llinares-Lopez & Borgwardt, *Significant Subgraph
Mining with Multiple Testing Correction*) is that a *discrete* test
statistic has a minimum attainable p-value ``psi(n)`` that depends only
on the subgraph's vertex mass ``n`` — a hypothesis with ``psi(n) >
delta`` can never be significant at level ``delta`` and therefore does
not need to be counted in a Bonferroni-style correction.  Writing
``m(delta)`` for the number of hypotheses with ``psi(n) <= delta``
(*testable* at ``delta``), every threshold with

    m(delta) * delta <= alpha

controls the family-wise error rate at ``alpha``; Tarone's corrected
threshold ``delta*`` is the largest such threshold.

For the paper's discrete chi-square statistic (Eq. 2,
``X^2 = sum_i Y_i^2 / (n p_i) - n`` with null ``chi2(l - 1)``), the
envelope is closed-form: at mass ``n`` the statistic is maximised by
putting every vertex on the rarest label ``p_min``, giving

    x_max(n) = n * (1 / p_min - 1)        and
    psi(n)   = chi2_sf(x_max(n), l - 1),

which is *strictly decreasing* in ``n`` — so the testable masses at any
threshold form an up-set ``{n >= K}``, which is what lets
:func:`tarone_threshold` scan one regime per mass.  The search sees the
correction only through :func:`conservative_statistic_floor`, which seeds
its branch-and-bound incumbent (see ``docs/correction.md``).

The hypothesis family counted here is the set of connected vertex sets
of the *original* graph per mass: either the exact per-size census (via
:func:`repro.enumerate.connected.connected_subgraph_masks`) or a cheap
conservative envelope ``c_n <= min(C(N, n), N * (e * D)^(n-1))`` with
``D`` the maximum degree — over-counting keeps the correction valid, it
only costs power.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from repro.stats.chi_square import validate_probabilities
from repro.stats.distributions import chi2_sf

__all__ = [
    "CorrectionReport",
    "TaroneResult",
    "TestabilityEnvelope",
    "conservative_statistic_floor",
    "corrected_p_value",
    "exact_hypothesis_counts",
    "hypothesis_count_envelope",
    "tarone_threshold",
]


class TestabilityEnvelope:
    """Per-mass minimum attainable p-values of the discrete statistic.

    ``min_p_value(n)`` is ``psi(n)``: the smallest p-value any connected
    subgraph of ``n`` original vertices can attain under the null model
    ``probabilities``.  Values are cached; the envelope is strictly
    decreasing in ``n`` (proved in ``docs/correction.md``), which
    :func:`tarone_threshold` relies on.
    """

    __slots__ = ("_probs", "_df", "_rate", "_cache")

    def __init__(self, probabilities: Sequence[float]) -> None:
        self._probs = validate_probabilities(probabilities)
        self._df = len(self._probs) - 1
        # x_max(n) = n * (1/p_min - 1): all mass on the rarest label.
        self._rate = 1.0 / min(self._probs) - 1.0
        self._cache: dict[int, float] = {}

    @property
    def probabilities(self) -> tuple[float, ...]:
        """The discrete null model the envelope is computed against."""
        return self._probs

    def max_statistic(self, n: int) -> float:
        """Largest chi-square value attainable at original-vertex mass n."""
        if n < 0:
            raise ValueError(f"mass must be non-negative, got {n}")
        return n * self._rate

    def min_p_value(self, n: int) -> float:
        """``psi(n)``: the minimum attainable p-value at mass ``n``.

        ``psi(0) == 1`` (an empty subgraph deviates from nothing).
        """
        if n < 0:
            raise ValueError(f"mass must be non-negative, got {n}")
        if n == 0:
            return 1.0
        cached = self._cache.get(n)
        if cached is None:
            cached = chi2_sf(self.max_statistic(n), self._df)
            self._cache[n] = cached
        return cached


def hypothesis_count_envelope(
    num_vertices: int, max_degree: int
) -> tuple[int, ...]:
    """Conservative per-mass counts of connected subgraphs, ``c[0..N]``.

    ``c[n] = min(C(N, n), N * (e * D)^(n-1))`` — the binomial bound counts
    all vertex sets, the degree bound counts rooted bounded-degree trees
    (every connected set of size ``n`` contains a spanning tree, and the
    number of size-``n`` trees through a fixed vertex of a max-degree-D
    graph is at most ``(e * D)^(n-1)``).  Both over-count, which keeps
    the Tarone correction valid; ``c[0] = 0`` by convention.
    """
    if num_vertices < 0:
        raise ValueError(f"num_vertices must be >= 0, got {num_vertices}")
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    counts = [0] * (num_vertices + 1)
    for n in range(1, num_vertices + 1):
        binom = math.comb(num_vertices, n)
        if n > 1 and max_degree == 0:
            counts[n] = 0  # isolated vertices: no connected set beyond size 1
            continue
        try:
            tree = num_vertices * (math.e * max_degree) ** (n - 1)
        except OverflowError:
            tree = math.inf
        counts[n] = binom if binom <= tree else math.ceil(tree)
    return tuple(counts)


def exact_hypothesis_counts(
    adjacency: Sequence[int], *, limit: int | None = 2_000_000
) -> tuple[int, ...]:
    """Exact per-mass census of connected subgraphs, ``c[0..N]``.

    Enumerates every connected vertex set of the graph (``adjacency[i]``
    is vertex ``i``'s neighbour bitmask) — exponential in general, so
    ``limit`` aborts with :class:`~repro.exceptions.EnumerationLimitError`
    the way all enumeration entry points do; fall back to
    :func:`hypothesis_count_envelope` then.
    """
    from repro.enumerate.connected import connected_subgraph_masks

    counts = [0] * (len(adjacency) + 1)
    for mask in connected_subgraph_masks(adjacency, limit=limit):
        counts[mask.bit_count()] += 1
    return tuple(counts)


@dataclass(frozen=True, slots=True)
class TaroneResult:
    """The corrected threshold produced by :func:`tarone_threshold`.

    ``delta_star`` is the largest threshold with
    ``num_testable * delta_star <= alpha`` (0.0 when no mass regime fits
    the budget — then nothing can pass); ``testable_min_size`` is the
    smallest original-vertex mass that is testable at ``delta_star``;
    ``num_testable`` is ``m(delta_star)``, the Bonferroni factor of the
    corrected p-values (see :func:`corrected_p_value`).
    """

    alpha: float
    delta_star: float
    num_testable: int
    testable_min_size: int

    def passes(self, p_value: float) -> bool:
        """Whether a raw p-value is significant after correction."""
        return self.delta_star > 0.0 and p_value <= self.delta_star


def corrected_p_value(p_value: float, num_testable: int) -> float:
    """Tarone/Bonferroni-corrected p-value: ``min(1, m * p)``."""
    if num_testable < 0:
        raise ValueError(f"num_testable must be >= 0, got {num_testable}")
    try:
        scaled = num_testable * p_value
    except OverflowError:
        # Exact big-int families past float range: the product is only
        # reachable with p == 0.0 anyway; anything else clamps to 1.
        scaled = math.inf if p_value > 0.0 else 0.0
    return min(1.0, scaled)


def tarone_threshold(
    envelope: TestabilityEnvelope,
    counts: Sequence[int],
    alpha: float,
) -> TaroneResult:
    """Find the largest ``delta*`` with ``m(delta*) * delta* <= alpha``.

    ``counts[n]`` is the number of hypotheses (connected subgraphs) of
    mass ``n`` (``counts[0]`` ignored).  Because ``psi`` is strictly
    decreasing, thresholds partition into regimes: for ``delta`` in
    ``[psi(K), psi(K-1))`` exactly the masses ``>= K`` are testable and
    ``m(delta) = m_K = sum_{n >= K} counts[n]`` is constant.  The regime
    ``K`` admits a valid threshold iff ``alpha / m_K >= psi(K)``, and
    feasibility is monotone in ``K`` (growing ``K`` only shrinks ``m_K``
    and ``psi(K)``), so the optimum sits at the *smallest* feasible
    ``K``; there ``delta* = min(alpha / m_K, just-below psi(K-1))`` — the
    cap keeps ``delta*`` strictly inside its regime so that
    ``m(delta*) = m_K`` really holds.  ``K = 1`` recovers plain
    Bonferroni.  If no regime is feasible, ``delta* = 0`` (nothing is
    testable within the budget).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    n_max = len(counts) - 1
    if n_max < 1:
        return TaroneResult(
            alpha=alpha, delta_star=0.0, num_testable=0, testable_min_size=0
        )
    # Suffix sums: m_K = number of hypotheses of mass >= K.
    suffix = [0] * (n_max + 2)
    for n in range(n_max, 0, -1):
        count = counts[n]
        if count < 0:
            raise ValueError(f"counts[{n}] must be >= 0, got {count}")
        suffix[n] = suffix[n + 1] + count
    for k in range(1, n_max + 1):
        m_k = suffix[k]
        psi_k = envelope.min_p_value(k)
        # Envelope counts are exact big ints and can exceed float range;
        # an unrepresentable family is treated as infinite.  The budget
        # check is phrased so ``inf * 0.0 == nan`` lands on the
        # conservative (infeasible) side.
        try:
            m_f = float(m_k)
        except OverflowError:
            m_f = math.inf
        if not m_f * psi_k <= alpha:
            continue  # infeasible regime; larger K may still fit
        if m_k == 0:
            # No hypotheses this large exist at all: any threshold below
            # psi(K-1) is vacuously valid but nothing can ever pass it.
            return TaroneResult(
                alpha=alpha, delta_star=0.0, num_testable=0,
                testable_min_size=k,
            )
        delta = alpha / m_f  # m_f == inf underflows to 0: nothing passes
        ceiling = envelope.min_p_value(k - 1)  # psi(0) == 1
        if delta >= ceiling:
            delta = math.nextafter(ceiling, 0.0)
        # ``m * (alpha / m)`` can round one ulp *above* alpha; nudge
        # down until the budget holds exactly in floating point too.
        while m_f * delta > alpha:
            delta = math.nextafter(delta, 0.0)
        return TaroneResult(
            alpha=alpha, delta_star=delta, num_testable=m_k,
            testable_min_size=k,
        )
    return TaroneResult(
        alpha=alpha, delta_star=0.0, num_testable=0,
        testable_min_size=n_max + 1,
    )


def conservative_statistic_floor(delta_star: float, df: int) -> float:
    """A chi-square floor ``tau`` that is safe to prune below.

    Returns ``tau`` with ``chi2_sf(tau, df) > delta_star`` — i.e. ``tau``
    sits strictly on the *failing* side of the exact threshold — so a
    search state whose statistic upper bound is ``< tau`` provably cannot
    reach any subgraph with ``p <= delta_star``.  Implemented as a
    bisection on the survival function that maintains the invariant
    ``sf(lo) > delta_star >= sf(hi)`` and returns ``lo`` (rounding *down*
    where :func:`~repro.stats.distributions.chi2_isf` would return the
    midpoint): float error can only make the floor laxer, never unsound.
    """
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if not 0.0 < delta_star < 1.0:
        raise ValueError(
            f"delta_star must be in (0, 1) for a floor, got {delta_star}"
        )
    lo, hi = 0.0, df + 10.0 * math.sqrt(2.0 * df) + 10.0
    while chi2_sf(hi, df) > delta_star:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chi2_sf(mid, df) > delta_star:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    return lo


@dataclass(frozen=True, slots=True)
class CorrectionReport:
    """What the solver did about multiple testing, attached to results.

    ``counts_mode`` names how the hypothesis family was counted
    (``"envelope"`` or ``"exact"``); ``regions_filtered`` is how many
    round winners were raw-reported but failed the corrected threshold.
    """

    method: str
    alpha: float
    delta_star: float
    num_testable: int
    testable_min_size: int
    counts_mode: str
    regions_filtered: int = 0
