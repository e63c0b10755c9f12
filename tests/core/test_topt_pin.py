"""Top-t results pinned bit for bit.

Each case mines an int-named Barabási–Albert instance with ``top_t=4``
and compares the sha256 of its canonical
:func:`~repro.service.protocol.result_to_payload` document (timings
stripped) with a digest recorded before TSSS rounds stopped copying and
shrinking the input graph.  The payload holds every region's vertices,
chi-square, p-values and component breakdown, plus the report's
super-graph sizes, contractions and explored-state count, so a change in
any round's construction, search or polish shows here.

Int vertex names keep the digests independent of ``PYTHONHASHSEED``:
int hashing is unseeded, so adjacency-set layout, and with it Algorithm
2's scan order and polish's tie-breaks, is the same in every process.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.solver import mine
from repro.graph.generators import barabasi_albert_graph
from repro.labels.continuous import ContinuousLabeling
from repro.labels.discrete import DiscreteLabeling
from repro.service.cache import SuperGraphCache
from repro.service.protocol import result_to_payload

PROBS = (0.4, 0.3, 0.2, 0.1)


def _instance(kind: str, seed: int, n: int = 90, d: int = 3):
    """A BA graph with a discrete, 1-d continuous or planted labeling.

    ``"planted"`` relabels the 25 vertices nearest vertex 0 with the
    rarest label, so that some region clears the FWER threshold.
    """
    graph = barabasi_albert_graph(n, d, seed=seed)
    if kind == "continuous":
        return graph, ContinuousLabeling.random(graph, 1, seed=seed + 1)
    labeling = DiscreteLabeling.random(graph, PROBS, seed=seed + 1)
    if kind == "planted":
        assignment = labeling.as_dict()
        ball = [0]
        for u in ball:
            ball.extend(sorted(set(graph.neighbors(u)) - set(ball)))
            if len(ball) >= 25:
                break
        for v in ball[:25]:
            assignment[v] = len(PROBS) - 1
        labeling = DiscreteLabeling(PROBS, assignment)
    return graph, labeling


def _digest(result) -> str:
    payload = result_to_payload(result)
    payload["report"] = {
        key: value for key, value in payload["report"].items()
        if not key.endswith("_seconds")
    }
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _matrix() -> dict[str, tuple[str, int, dict]]:
    """Case id -> (labeling kind, instance seed, mine() keywords)."""
    cases = {}
    for kind in ("discrete", "continuous"):
        for seed in (11, 12):
            for prune in ("none", "bounds"):
                for polish in (False, True):
                    cases[f"{kind}-{seed}-{prune}-polish{int(polish)}"] = (
                        kind, seed, dict(prune=prune, polish=polish),
                    )
    for seed in (11, 12):
        for prune in ("none", "bounds"):
            for polish in (False, True):
                cases[f"fwer-{seed}-{prune}-polish{int(polish)}"] = (
                    "planted", seed,
                    dict(prune=prune, polish=polish, correction="fwer",
                         alpha=0.2),
                )
    return cases


MATRIX = _matrix()

PINNED = {
    "continuous-11-bounds-polish0":
        "7afe917449c8e1cd6b65d4c7f488133d89316d5dc169bd8f317c63e999c87168",
    "continuous-11-bounds-polish1":
        "bf9fda299388447f23c3882343a710338cd73ddcab5e9129c627a88dbf39f82c",
    "continuous-11-none-polish0":
        "6fed1fde0fa9d353ca43251bc0d5d7ec90be0c290369bb5f731677016ea2ba8e",
    "continuous-11-none-polish1":
        "c0b3b6ba577d3ad433ae9a58f539c9b122c7e4ae19d468ac1f817eae2931f717",
    "continuous-12-bounds-polish0":
        "a85b1f04e4f2ae3fcb8f496ef333dd53aa93d783d54540725f6f442d354669b5",
    "continuous-12-bounds-polish1":
        "7a681976e66fa6700a231a3af7c080d50a94bbbd92abbbc69a00bade5bb99f20",
    "continuous-12-none-polish0":
        "3922787a4a3defb153ca0fcea93445d9f3e0dbb8be3219978c58155929d326c4",
    "continuous-12-none-polish1":
        "1a673e7ab3ec6fba19ae361a8a0e55ac1815919d379206c396328f3715cb06f9",
    "discrete-11-bounds-polish0":
        "7baa960e94e13f474489c7d157d9d0af05b84f1d5de6f318d30c80e034f668aa",
    "discrete-11-bounds-polish1":
        "8bafda03ddf5fe1b674dd92da3700b55a71bca9aa467b32d5a253936c349490e",
    "discrete-11-none-polish0":
        "a49d9007a2c25fe7854438ce084288ed04917316a36e24e14115a745c5348688",
    "discrete-11-none-polish1":
        "3b95512155e9ba859545d01b8742c174c423457fe306a86b290b8db0b37bdac8",
    "discrete-12-bounds-polish0":
        "82537a0c2050217f00384b3d30e5785a55074264f67c9fe95982215be338909e",
    "discrete-12-bounds-polish1":
        "ceae4846ae7b69fa9e84d654958090bd56c88fa0de62271daca104c0a947e1c5",
    "discrete-12-none-polish0":
        "8d764727efe552a8848d84584d6f33d3dde17007b1ed279591bfed0a15d3d87d",
    "discrete-12-none-polish1":
        "5c45944ab2579c752cf33641b33271540c45418662d1f038fef942bad6bb3e04",
    "fwer-11-bounds-polish0":
        "33a02089008610298ac8e6d53b239ed180676054ebfcc3391611a111de398772",
    "fwer-11-bounds-polish1":
        "05ef1b6766bb2b42d3d189b3686ca438a217c6bc11f68aeb421a089adbe8a445",
    "fwer-11-none-polish0":
        "70a3803cf5ad8a6ef44696f1b9ace4f49975fcaa3ec504113845e03f05198f7a",
    "fwer-11-none-polish1":
        "45bfa5770f8d18f83bdca8f5185796abe06b35a2a2706c3b0b02e5dd385502bb",
    "fwer-12-bounds-polish0":
        "025795120d4d393c8928845e0cff20fd0bbaadcde392dbcff6502820dce5b127",
    "fwer-12-bounds-polish1":
        "025795120d4d393c8928845e0cff20fd0bbaadcde392dbcff6502820dce5b127",
    "fwer-12-none-polish0":
        "2dce7309cfee06e8179f31d16d72e6a900065a8ae98acbc3c99b6e591571b6cb",
    "fwer-12-none-polish1":
        "2dce7309cfee06e8179f31d16d72e6a900065a8ae98acbc3c99b6e591571b6cb",
}
"""sha256 of each case's canonical payload, recorded at the commit before
TSSS rounds stopped copying and shrinking the input graph."""

NAIVE_PINNED = {
    "discrete-polish0":
        "0d5c3854e40a2b1425df3191e5b7a8377054fa1fecc4926c614e35ae0b170394",
    "discrete-polish1":
        "cbd98fc1f52d6f909771cca0245fab28540254cf8cc4a8085d526651b581e7bc",
    "continuous-polish0":
        "f42e81c9769f8ea1828843c67caea50f1629aacb85f665ea686979d94fcf437f",
    "continuous-polish1":
        "f42e81c9769f8ea1828843c67caea50f1629aacb85f665ea686979d94fcf437f",
}
"""The same for ``method="naive"`` on 14-vertex instances."""

CACHED_PINNED = {
    "discrete-none": (
        "b3efb799a058c5c206c6a9a7e66b57eba7e17657b21cf95e7c606149219088a5",
        "b3efb799a058c5c206c6a9a7e66b57eba7e17657b21cf95e7c606149219088a5",
    ),
    "discrete-bounds": (
        "1582f9c3d5cadd42411b9fdd49499e562579c207fd4df090e2ae7416705d108a",
        "1582f9c3d5cadd42411b9fdd49499e562579c207fd4df090e2ae7416705d108a",
    ),
    "continuous-none": (
        "21f1df0303487ea4f6780bab9ca41b22dac4246673f6f985bfb8c5fe6a88f779",
        "21f1df0303487ea4f6780bab9ca41b22dac4246673f6f985bfb8c5fe6a88f779",
    ),
    "continuous-bounds": (
        "690d2024a591abceb8a8ebc79a27bc9a1878ce0344b03bc8b0a4eac2581c256f",
        "690d2024a591abceb8a8ebc79a27bc9a1878ce0344b03bc8b0a4eac2581c256f",
    ),
}
"""The same for a cold and then a warm :class:`SuperGraphCache` run."""


@pytest.mark.parametrize("case", sorted(MATRIX))
def test_supergraph_results_pinned(case):
    kind, seed, params = MATRIX[case]
    graph, labeling = _instance(kind, seed)
    result = mine(graph, labeling, top_t=4, n_theta=12, **params)
    assert _digest(result) == PINNED[case]


@pytest.mark.parametrize("kind", ["discrete", "continuous"])
@pytest.mark.parametrize("polish", [False, True])
def test_naive_results_pinned(kind, polish):
    graph, labeling = _instance(kind, 13, n=14, d=2)
    result = mine(graph, labeling, top_t=4, method="naive", polish=polish)
    assert _digest(result) == NAIVE_PINNED[f"{kind}-polish{int(polish)}"]


@pytest.mark.parametrize("kind", ["discrete", "continuous"])
@pytest.mark.parametrize("prune", ["none", "bounds"])
def test_cached_results_pinned(kind, prune):
    graph, labeling = _instance(kind, 14)
    cache = SuperGraphCache()
    cold, warm = (
        mine(graph, labeling, top_t=4, n_theta=12, prune=prune,
             prefix_cache=cache)
        for _ in range(2)
    )
    expected = CACHED_PINNED[f"{kind}-{prune}"]
    assert (_digest(cold), _digest(warm)) == expected
