"""Canonical content digests for graphs, labelings, and prefix parameters.

The construct + reduce prefix of the pipeline is a pure function of
``(graph, labeling, n_theta, edge_order[, seed])``, so its output can be
content-addressed: two requests whose inputs digest identically may share
one cached super-graph.  The digests here are

* **order-independent** — a graph built by inserting vertices/edges in any
  order digests the same, because everything is sorted canonically before
  hashing;
* **type-faithful** — vertex ids are encoded with a type tag (``i`` for
  int, ``s`` for str, ``t`` for tuple, ...), so the int vertex ``1`` and
  the str vertex ``"1"`` never collide;
* **float-exact** — probabilities and z-scores hash their ``float.hex``
  form, so two models digest equal iff they are bit-identical (no
  formatting round-trips).

Continuous construction (Algorithm 2) is the one input that is *not*
order-free: it scans the graph's vertices and edges in iteration order,
and that order depends on vertex insertion order and on adjacency-set
layout.  :func:`scan_order_digest` hashes exactly that sequence, and the
prefix cache keys continuous prefixes on it instead of on
:func:`graph_digest` (see :meth:`repro.service.cache.SuperGraphCache.key`).

Unsupported vertex types raise :class:`~repro.exceptions.DigestError`, as
does a ``shuffled`` edge order with a non-reproducible seed — the cache
treats both as uncacheable and falls through to a fresh computation.

:func:`graph_digest` and :func:`labeling_digest` are memoised per object:
a repeat call on the same object returns the stored digest without
hashing.  A graph entry holds for one :attr:`~repro.graph.graph.Graph.
version` only, so a mutated graph is hashed afresh; labelings are
immutable.  Entries hold weak references and die with their object, so
an object allocated at a dead one's address can never inherit its digest.
The graph registry seeds the memo through :func:`remember_digest` with
the component digests it stored at upload, so a resolved instance is
never hashed at all.
"""

from __future__ import annotations

import hashlib
import weakref
from collections.abc import Callable, Hashable

from repro.exceptions import DigestError
from repro.graph.graph import Graph
from repro.labels.continuous import ContinuousLabeling
from repro.labels.discrete import DiscreteLabeling

__all__ = [
    "encode_vertex",
    "graph_digest",
    "labeling_digest",
    "prefix_digest",
    "prefix_digest_from_parts",
    "remember_digest",
    "scan_order_digest",
]

Labeling = DiscreteLabeling | ContinuousLabeling

# id(obj) -> (weak reference to obj, its Graph.version or None, digest).
# No lock: two threads digesting one object store the same value, and an
# entry's weakref callback runs before its object's address can be reused,
# so it can never drop a newer object's entry.
_MEMO: dict[int, tuple[weakref.ref, int | None, str]] = {}


def encode_vertex(vertex: Hashable) -> str:
    """A canonical, collision-free string encoding of a vertex id.

    Supports the vertex types the library actually uses — int, str, tuples
    (recursively), plus bool/float/bytes/None for completeness.  Encodings
    are type-tagged and length-prefixed where needed so distinct values can
    never produce the same string (``1`` -> ``i:1``, ``"1"`` -> ``s:1:1``,
    ``(1,)`` -> ``t:1[i:1]``).
    """
    # bool before int: bool is an int subclass but hashes/compares equal to
    # 0/1, and Graph treats them as distinct dictionary keys only when the
    # hash matches too — tag them separately to be safe.
    if vertex is None:
        return "n:"
    if isinstance(vertex, bool):
        return f"b:{int(vertex)}"
    if isinstance(vertex, int):
        return f"i:{vertex}"
    if isinstance(vertex, float):
        return f"f:{vertex.hex()}"
    if isinstance(vertex, str):
        return f"s:{len(vertex)}:{vertex}"
    if isinstance(vertex, bytes):
        return f"y:{len(vertex)}:{vertex.hex()}"
    if isinstance(vertex, tuple):
        inner = ",".join(encode_vertex(item) for item in vertex)
        return f"t:{len(vertex)}[{inner}]"
    if isinstance(vertex, frozenset):
        inner = ",".join(sorted(encode_vertex(item) for item in vertex))
        return f"z:{len(vertex)}[{inner}]"
    raise DigestError(
        f"cannot canonically encode vertex of type {type(vertex).__name__}: "
        f"{vertex!r}"
    )


def _hash_lines(kind: str, lines: list[str]) -> str:
    """sha256 over ``kind`` plus a length-prefixed encoding of each line.

    Every line contributes ``len(utf8(line)) ":" utf8(line)`` to the
    stream, so line boundaries are unambiguous: a single line containing a
    newline can never digest like two separate lines (the ``*/v1`` formats
    joined lines with a bare ``\\n`` separator, which an adversarial
    ``\\n``-bearing str vertex or label symbol could forge — the ``*/v2``
    format tags mark the fixed scheme).
    """
    digest = hashlib.sha256()
    digest.update(kind.encode("utf-8"))
    for line in lines:
        encoded = line.encode("utf-8")
        digest.update(b"\n")
        digest.update(f"{len(encoded)}:".encode("ascii"))
        digest.update(encoded)
    return digest.hexdigest()


def _version(obj: Graph | Labeling) -> int | None:
    return obj.version if isinstance(obj, Graph) else None


def remember_digest(obj: Graph | Labeling, digest: str) -> None:
    """Record ``digest`` as the content digest of ``obj`` as it is now.

    Later :func:`graph_digest`/:func:`labeling_digest` calls on the same
    object return it without hashing, until a graph is mutated or the
    object dies.  The caller vouches for the digest: the graph registry
    seeds it from the digests it computed when the instance was uploaded.
    """
    key = id(obj)

    def forget(ref: weakref.ref) -> None:
        if _MEMO.get(key, (None,))[0] is ref:
            _MEMO.pop(key, None)

    _MEMO[key] = (weakref.ref(obj, forget), _version(obj), digest)


def _memoised(obj: Graph | Labeling, compute: Callable[..., str]) -> str:
    entry = _MEMO.get(id(obj))
    if entry is not None and entry[0]() is obj and entry[1] == _version(obj):
        return entry[2]
    digest = compute(obj)
    remember_digest(obj, digest)
    return digest


def graph_digest(graph: Graph) -> str:
    """Content digest of a graph's vertex and edge sets (memoised).

    Stable across insertion order: vertices and edges are sorted by their
    canonical encodings, and each edge is encoded with its endpoints in
    sorted order (the graphs are undirected).
    """
    return _memoised(graph, _graph_digest)


def _graph_digest(graph: Graph) -> str:
    vertex_codes = sorted(encode_vertex(v) for v in graph.vertices())
    edge_codes = []
    for u, v in graph.edges():
        cu, cv = encode_vertex(u), encode_vertex(v)
        edge_codes.append(f"{cu}--{cv}" if cu <= cv else f"{cv}--{cu}")
    edge_codes.sort()
    return _hash_lines("graph/v2", vertex_codes + ["#edges#"] + edge_codes)


def scan_order_digest(graph: Graph) -> str:
    """Digest of the sequence in which Algorithm 2 scans ``graph``.

    Hashes the vertices in graph order (they fix the super-vertex ids) and
    then every edge in :meth:`~repro.graph.graph.Graph.edges` order, each
    with its endpoints as yielded (the first endpoint's side wins merge
    ties).  Two graphs digest equal iff they have the same content *and*
    Algorithm 2 would see it in the same order, so every ``edge_order``
    mode would build the same super-graph from both.
    """
    lines = [encode_vertex(v) for v in graph.vertices()]
    lines.append("#edges#")
    lines.extend(
        f"{encode_vertex(u)}--{encode_vertex(v)}" for u, v in graph.edges()
    )
    return _hash_lines("graph/scan/v1", lines)


def labeling_digest(labeling: Labeling) -> str:
    """Content digest of a labeling (model parameters + full assignment).

    Memoised like :func:`graph_digest`.
    """
    return _memoised(labeling, _labeling_digest)


def _labeling_digest(labeling: Labeling) -> str:
    if isinstance(labeling, DiscreteLabeling):
        lines = [
            "probs:" + ",".join(p.hex() for p in labeling.probabilities),
            "symbols:" + ",".join(
                f"{len(s)}:{s}" for s in labeling.symbols
            ),
        ]
        lines.extend(
            sorted(
                f"{encode_vertex(v)}={labeling.label_of(v)}"
                for v in labeling.vertices()
            )
        )
        return _hash_lines("labeling/discrete/v2", lines)
    if isinstance(labeling, ContinuousLabeling):
        lines = [f"dimensions:{labeling.dimensions}"]
        lines.extend(
            sorted(
                f"{encode_vertex(v)}="
                + ",".join(z.hex() for z in labeling.z_score_of(v))
                for v in labeling.vertices()
            )
        )
        return _hash_lines("labeling/continuous/v2", lines)
    raise DigestError(
        f"cannot digest labeling of type {type(labeling).__name__}"
    )


def prefix_digest(
    graph: Graph,
    labeling: DiscreteLabeling | ContinuousLabeling,
    *,
    n_theta: int,
    edge_order: str = "input",
    seed: object = None,
) -> str:
    """Digest keying the cacheable construct + reduce pipeline prefix.

    Parameters that provably do not affect the prefix are normalised out of
    the key to maximise hit rates: discrete construction (Algorithm 1) is
    edge-order-independent, so ``edge_order``/``seed`` are ignored for
    :class:`DiscreteLabeling`; continuous construction only consults the
    seed when ``edge_order="shuffled"``.

    Raises :class:`~repro.exceptions.DigestError` for a ``shuffled`` order
    without a reproducible (int) seed — the prefix is then not a pure
    function of its inputs and must not be cached.
    """
    return prefix_digest_from_parts(
        graph_digest(graph),
        labeling_digest(labeling),
        discrete=isinstance(labeling, DiscreteLabeling),
        n_theta=n_theta,
        edge_order=edge_order,
        seed=seed,
    )


def prefix_digest_from_parts(
    graph_key: str,
    labeling_key: str,
    *,
    discrete: bool,
    n_theta: int,
    edge_order: str = "input",
    seed: object = None,
) -> str:
    """:func:`prefix_digest` from already-computed graph/labeling digests.

    The graph registry stores both component digests next to each graph
    document, so a worker resolving a ``graph_digest`` request can derive
    the prefix cache key from two 64-character strings instead of
    re-hashing a megabyte instance.  Applies the same normalisation as
    :func:`prefix_digest` (``edge_order``/``seed`` dropped for discrete
    labelings) and raises the same :class:`~repro.exceptions.DigestError`
    for a non-reproducible shuffled order.  ``graph_key`` may also be a
    :func:`scan_order_digest`, which is how the prefix cache keys
    continuous prefixes.
    """
    if discrete:
        order_code = "-"
        seed_code = "-"
    else:
        order_code = edge_order
        if edge_order == "shuffled":
            if not isinstance(seed, int) or isinstance(seed, bool):
                raise DigestError(
                    "edge_order='shuffled' without an int seed is not "
                    "reproducible and cannot be content-addressed"
                )
            seed_code = str(seed)
        else:
            seed_code = "-"
    lines = [
        f"graph:{graph_key}",
        f"labeling:{labeling_key}",
        f"n_theta:{n_theta}",
        f"edge_order:{order_code}",
        f"seed:{seed_code}",
    ]
    return _hash_lines("prefix/v2", lines)
