"""Top-t results pinned bit for bit.

Each case mines an int-named Barabási–Albert instance with ``top_t=4``
and compares the sha256 of its canonical
:func:`~repro.service.protocol.result_to_payload` document (timings
stripped) with a recorded digest.  The digests were recorded before TSSS
rounds stopped copying and shrinking the input graph.  17 of them were
re-recorded when every reported chi-square and p-value became the
labeling's statistic of the region's vertices: the vertex sets stayed
the same, while last-bit statistics, two ``explored_subgraphs`` counts and
one polished component breakdown moved.  The 10 ``bounds`` cases on seeds
11 and 12 other than ``discrete-11`` and the two cached ``bounds`` cases
were re-recorded when ``backend="auto"`` began running the level kernel on
bounds searches of at most 24 super-vertices: only
``explored_subgraphs`` moved, because the kernel's cut accounting
differs from the walk's.  The payload holds every region's vertices,
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
        "6d34592934782d049c8829aeb8ccac041f8a205ba78a28d15689ef0b9b2a6796",
    "continuous-11-bounds-polish1":
        "b12a8548019dd1a14c994fdd647316462154bac6a2b349f55a08cd23bbea769a",
    "continuous-11-none-polish0":
        "de9f9f7bba8bc1099aa8c8383fd7101edda4a85a75c8c5b7ed4da911568e3ef3",
    "continuous-11-none-polish1":
        "5e6ff05162f287ec96484738a622fa4d38db88c2c028f4fd37561f5192fade7a",
    "continuous-12-bounds-polish0":
        "5cd423d7872d980038fd775921593fbd88730c65607cf101787c3a645e5c4add",
    "continuous-12-bounds-polish1":
        "fccc479c984963f1a6b58ff2d5b402d32408e6032fd4649ba8de2ce9cec484a0",
    "continuous-12-none-polish0":
        "29cc0cf121a8e09b802a1c8ffc2433d044e90413b0af706ff9956fa772e7fcfb",
    "continuous-12-none-polish1":
        "94d7c25bd6a78aa8dc9c562c33f3066196dd4e47360b6c99f299315d5dbafa5e",
    "discrete-11-bounds-polish0":
        "7baa960e94e13f474489c7d157d9d0af05b84f1d5de6f318d30c80e034f668aa",
    "discrete-11-bounds-polish1":
        "8bafda03ddf5fe1b674dd92da3700b55a71bca9aa467b32d5a253936c349490e",
    "discrete-11-none-polish0":
        "a49d9007a2c25fe7854438ce084288ed04917316a36e24e14115a745c5348688",
    "discrete-11-none-polish1":
        "3b95512155e9ba859545d01b8742c174c423457fe306a86b290b8db0b37bdac8",
    "discrete-12-bounds-polish0":
        "7a77753d52ae7354dbbfe9927dedad3b9efd0c82212178fa01d5ca7bd686e40e",
    "discrete-12-bounds-polish1":
        "9c7f8cc5c1a450c3253f03632c0828c726a8dc70f660b5636de73051a465c487",
    "discrete-12-none-polish0":
        "8d764727efe552a8848d84584d6f33d3dde17007b1ed279591bfed0a15d3d87d",
    "discrete-12-none-polish1":
        "5517d592aedc4a9614b0ec29ac5fdc26b99ea319daee9bd47901d9347c6a6ae0",
    "fwer-11-bounds-polish0":
        "b7408ba9b2268362b6bc9d5089a810cdfaa7a8c3278a695b6e49775b80a9a154",
    "fwer-11-bounds-polish1":
        "182c1688111d912cf2fe4d399c4a97531829f6641a1a11728202fd56be5f765a",
    "fwer-11-none-polish0":
        "70a3803cf5ad8a6ef44696f1b9ace4f49975fcaa3ec504113845e03f05198f7a",
    "fwer-11-none-polish1":
        "45bfa5770f8d18f83bdca8f5185796abe06b35a2a2706c3b0b02e5dd385502bb",
    "fwer-12-bounds-polish0":
        "4241ca0cb3f1d13fcc7e16e0ac71df25c2e3321d9f6265308209a1522d7c330e",
    "fwer-12-bounds-polish1":
        "4241ca0cb3f1d13fcc7e16e0ac71df25c2e3321d9f6265308209a1522d7c330e",
    "fwer-12-none-polish0":
        "2dce7309cfee06e8179f31d16d72e6a900065a8ae98acbc3c99b6e591571b6cb",
    "fwer-12-none-polish1":
        "2dce7309cfee06e8179f31d16d72e6a900065a8ae98acbc3c99b6e591571b6cb",
}
"""sha256 of each case's canonical payload (see the module docstring for
when each was recorded)."""

NAIVE_PINNED = {
    "discrete-polish0":
        "0d5c3854e40a2b1425df3191e5b7a8377054fa1fecc4926c614e35ae0b170394",
    "discrete-polish1":
        "0d5c3854e40a2b1425df3191e5b7a8377054fa1fecc4926c614e35ae0b170394",
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
        "e47bb5c83b0b3104e4b3f3370ebb5ffbe8e19f59010092083dfe142aaa05e9a5",
        "e47bb5c83b0b3104e4b3f3370ebb5ffbe8e19f59010092083dfe142aaa05e9a5",
    ),
    "continuous-none": (
        "b186b8b7c4236ea825291c70ac036916f279a5a4a29b8274ef54c869b81fa193",
        "b186b8b7c4236ea825291c70ac036916f279a5a4a29b8274ef54c869b81fa193",
    ),
    "continuous-bounds": (
        "fb82bdc8838210ed55cabc2f3c0a0d75e4fdfdfcdd95350c43b51ddfe10f9b7e",
        "fb82bdc8838210ed55cabc2f3c0a0d75e4fdfdfcdd95350c43b51ddfe10f9b7e",
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
