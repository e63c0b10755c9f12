"""Admissible chi-square upper bounds for branch-and-bound search.

The exhaustive search explores the connected-subgraph recursion tree; at
any tree node the vertices that can still join the current set form a
*candidate* set (the connected closure of the extension frontier).  An
*admissible* upper bound never underestimates the best statistic reachable
in the subtree, so a branch whose bound cannot beat the incumbent can be
cut without changing the optimum — the same bound-and-prune scheme
significant-subgraph miners use to tame the enumeration tree (Sugiyama et
al., *Significant Subgraph Mining with Multiple Testing Correction*).

The bounds here are deliberately cheap (one pass over the candidate set):

Discrete (Eq. 2)
    For the current counts ``Y`` with ``W = sum_i Y_i^2 / p_i`` and size
    ``n``, adding ``A_i <= c_i`` vertices per label (``c_i`` = label counts
    available in the candidate set, ``m = sum_i A_i``) satisfies::

        sum_i [(Y_i + A_i)^2 - Y_i^2] / p_i  <=  m * rho,
        rho = max_{i: c_i > 0} (2 Y_i + c_i) / p_i

    because each convex per-label gain ``h_i(a)`` is below its chord
    ``a * h_i(c_i) / c_i``.  The relaxed statistic ``g(m) = (W + m rho) /
    (n + m) - (n + m)`` is maximised over the integer mass ``m in [0,
    sum_i c_i]`` in closed form (it is convex or unimodal in ``n + m``),
    giving an admissible bound.

Continuous (Eq. 8)
    ``X^2 = sum_j R_j^2 / n`` can only grow to ``sum_j (|R_j| + T_j)^2``
    in the numerator, where ``T_j`` sums ``|z_j|`` over the candidate
    payloads, while the denominator never drops below the current ``n`` —
    so ``sum_j (|R_j| + T_j)^2 / n`` is admissible.

Both bounds are exact-arithmetic-safe in the sense that they carry strict
mathematical slack except in degenerate one-extension cases, where the
discrete bound coincides with the true statistic — which is why the search
prunes strictly (``bound < incumbent``), keeping every optimal state
reachable.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.stats.chi_square import weighted_square_sum

__all__ = [
    "continuous_upper_bound",
    "discrete_upper_bound",
]


def discrete_upper_bound(
    size: int,
    probabilities: Sequence[float],
    counts: Sequence[int],
    candidate_counts: Sequence[int],
) -> float:
    """Admissible Eq. 2 bound for supersets of the current count state.

    Parameters
    ----------
    size:
        Current total count ``n`` (0 for the empty set).
    probabilities / counts:
        The null model and current per-label counts ``Y``.
    candidate_counts:
        Per-label counts ``c_i`` available in the candidate set; their
        sum is the most mass any superset can add.
    """
    weighted = weighted_square_sum(counts, probabilities)
    current = weighted / size - size if size else 0.0
    m_cap = sum(candidate_counts)
    if m_cap <= 0:
        return current
    rho = max(
        (2 * y + c) / p
        for y, c, p in zip(counts, candidate_counts, probabilities)
        if c > 0
    )

    def relaxed(m: int) -> float:
        t = size + m
        return (weighted + m * rho) / t - t

    m_lo = 1 if size == 0 else 0
    best = max(relaxed(m_lo), relaxed(m_cap))
    # g(t) = (W - n rho)/t + rho - t over t = n + m is concave when
    # W < n rho, with its real maximum at t* = sqrt(n rho - W); the integer
    # optimum then sits at floor/ceil of t*.  (Convex case: endpoints.)
    interior = size * rho - weighted
    if interior > 0.0:
        t_star = math.sqrt(interior)
        for t in (math.floor(t_star), math.ceil(t_star)):
            m = t - size
            if m_lo < m < m_cap:
                best = max(best, relaxed(m))
    return best


def continuous_upper_bound(
    sums: Sequence[float],
    frontier_abs_sums: Sequence[float],
    size: int,
) -> float:
    """Admissible Eq. 8 bound for supersets of the current region state.

    ``sums`` are the current per-dimension raw z-sums ``R_j``;
    ``frontier_abs_sums`` are ``T_j = sum |z_j|`` over the candidate
    payloads; ``size`` is the current original-vertex count ``n``.
    """
    if size == 0:
        # Any non-empty reachable set has numerator <= sum_j T_j^2 and
        # size >= 1.
        return math.fsum(t * t for t in frontier_abs_sums)
    return (
        math.fsum((abs(r) + t) * (abs(r) + t)
                  for r, t in zip(sums, frontier_abs_sums))
        / size
    )
