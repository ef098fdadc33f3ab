"""Golden plan-cache keys: the bytes ``build_cache_key`` produces are pinned.

Persisted plan stores are only servable while every key the code builds
today is byte-identical to the key it built when the store was written
(:data:`repro.cache.keys.KEY_VERSION` is the fuse for deliberate
changes).  This module pins the digest, permutation, and ``canonical``
flag of a fixed query set, so any edit to the canonical-labeling code
(:mod:`repro.core.canonical`) that moves a key fails here even when
the ``key-version-fingerprint`` gate was re-recorded.

The query set covers chain, cycle, star, clique, and a hypergraph with
complex and flex hyperedges, each under three statistics regimes:

* ``skewed`` — distinct cardinalities, so the initial coloring is
  already a discrete partition;
* ``uniform`` — one cardinality and one selectivity everywhere, so
  refinement alone cannot separate symmetric nodes and the search
  individualizes;
* ``duplicate`` — cardinalities in equal pairs, forcing refinement to
  split classes and individualization to break the remaining ties.

Plus a uniform 8-clique (budget exhausted: the non-canonical fallback),
signed zero selectivities (``0.0`` and ``-0.0`` key differently because
their ``repr`` tokens differ), and integer cardinalities (which key like
their float values).

The expected values were recorded from the implementation before the
discrete-partition shortcut and the exact-repeat key memo existed; if
this test fails, keys moved and ``KEY_VERSION`` must be bumped.
"""

import pytest

from repro.cache.keys import KEY_VERSION, build_cache_key
from repro.core import bitset
from repro.core.hypergraph import Hyperedge, Hypergraph

CONFIG_KEY = ("golden", "config", 1.5)


def _graph(n, edges):
    """``edges``: ``(left nodes, right nodes, flex nodes, selectivity)``."""
    graph = Hypergraph(n_nodes=n)
    for left, right, flex, selectivity in edges:
        graph.add_edge(Hyperedge(
            left=bitset.from_iterable(left),
            right=bitset.from_iterable(right),
            flex=bitset.from_iterable(flex),
            selectivity=selectivity,
        ))
    return graph


def _shape(name):
    """``(n_nodes, [(left, right, flex)])`` of one base shape."""
    if name == "chain":
        return 7, [((i,), (i + 1,), ()) for i in range(6)]
    if name == "cycle":
        return 6, [((i,), ((i + 1) % 6,), ()) for i in range(6)]
    if name == "star":
        return 6, [((0,), (i,), ()) for i in range(1, 6)]
    if name == "clique":
        return 5, [
            ((i,), (j,), ()) for i in range(5) for j in range(i + 1, 5)
        ]
    if name == "hyper":
        ring = [((i,), ((i + 1) % 6,), ()) for i in range(6)]
        return 6, ring + [((0, 1), (3, 4), ()), ((2,), (5,), (0,))]
    raise AssertionError(name)


def _stats(n, n_edges, regime):
    """``(cardinalities, selectivities)`` for one statistics regime."""
    if regime == "skewed":
        return (
            [float(10 * 3 ** i) for i in range(n)],
            [0.5 / (i + 2) for i in range(n_edges)],
        )
    if regime == "uniform":
        return [1000.0] * n, [0.1] * n_edges
    if regime == "duplicate":
        return (
            [float(100 * (1 + i // 2)) for i in range(n)],
            [0.1 if i % 2 else 0.2 for i in range(n_edges)],
        )
    raise AssertionError(regime)


def _case(shape, regime):
    n, structure = _shape(shape)
    cards, sels = _stats(n, len(structure), regime)
    edges = [
        (left, right, flex, sel)
        for (left, right, flex), sel in zip(structure, sels)
    ]
    return _graph(n, edges), cards


def build_cases():
    """Every pinned query: name -> ``(graph, cardinalities)``."""
    cases = {}
    for shape in ("chain", "cycle", "star", "clique", "hyper"):
        for regime in ("skewed", "uniform", "duplicate"):
            cases[f"{shape}-{regime}"] = _case(shape, regime)
    cases["clique8-uniform-fallback"] = (
        _graph(8, [
            ((i,), (j,), (), 0.1) for i in range(8) for j in range(i + 1, 8)
        ]),
        [1000.0] * 8,
    )
    chain4 = [((0,), (1,), ()), ((1,), (2,), ()), ((2,), (3,), ())]
    for label, zero in (("positive", 0.0), ("negative", -0.0)):
        cases[f"chain4-zero-{label}"] = (
            _graph(4, [
                (left, right, flex, sel)
                for (left, right, flex), sel in zip(chain4, (0.5, zero, 0.25))
            ]),
            [10.0, 20.0, 30.0, 40.0],
        )
    cases["chain4-int-cards"] = (
        _graph(4, [
            (left, right, flex, 0.5) for left, right, flex in chain4
        ]),
        [10, 20, 30, 40],
    )
    return cases


#: name -> (digest, permutation, canonical), recorded before the change
GOLDEN = {
    "chain-duplicate": (
        "b7f28792c7634fbcd6917071483e24b8ef67cdab1e43f0a24ded04517a05d4c5",
        (1, 0, 2, 3, 4, 5, 6),
        True,
    ),
    "chain-skewed": (
        "a047af49e314e9edb90522b8b53158bb414d47936cc6a49edb1e76c28d08bad1",
        (0, 3, 6, 2, 5, 1, 4),
        True,
    ),
    "chain-uniform": (
        "9addd7c6e2d5332e86d70f3c350faa1106758c250c654cb35b60d78d7a7323bd",
        (0, 2, 4, 6, 5, 3, 1),
        True,
    ),
    "chain4-int-cards": (
        "719161f5d964a60075d79a2ef82b46ba0e760c32736fbd106c4ed53f34669811",
        (0, 1, 2, 3),
        True,
    ),
    "chain4-zero-negative": (
        "bade667c1dab103ad4a188e956959fb16706894645615d6c7894d147b6b66f20",
        (0, 1, 2, 3),
        True,
    ),
    "chain4-zero-positive": (
        "40508f3df12ecab1dd0771c0b9da5b95d28022072184ad8dea180546da0544f8",
        (0, 1, 2, 3),
        True,
    ),
    "clique-duplicate": (
        "ddcd7d2b3ff72c766fe26f55e3378bc11b37f101299ac16a9d36f91c9a148b65",
        (0, 1, 3, 2, 4),
        True,
    ),
    "clique-skewed": (
        "22822db70ccfc8d80080998b45e89447923377d60f8aca3499bc0dcb7f90b344",
        (0, 2, 4, 1, 3),
        True,
    ),
    "clique-uniform": (
        "d6c9e173f3721cee4634e41785597333c28ad93a9f3844208b707494769cef42",
        (0, 1, 2, 3, 4),
        True,
    ),
    "clique8-uniform-fallback": (
        "2786ad3b8a382e04849cd2b319ee394e1d489ab5a7a10b6c2a1324d221b0e35e",
        (0, 1, 2, 3, 4, 5, 6, 7),
        False,
    ),
    "cycle-duplicate": (
        "e51d0b5540a24ea2bb94e1df92981fd87468749018c4519feb85c4a439593d09",
        (1, 0, 2, 3, 5, 4),
        True,
    ),
    "cycle-skewed": (
        "5056009ad6f3ff4133e9768a70b4c76610bf5b62917e0a2d1f03cf6bd8219f56",
        (0, 3, 5, 2, 4, 1),
        True,
    ),
    "cycle-uniform": (
        "0b61761561f6a95b6040a3dc5e2ba363d01432d457c6930d1adb4fa6edbb9a20",
        (0, 1, 3, 5, 4, 2),
        True,
    ),
    "hyper-duplicate": (
        "b05b73b68288eb0c36790b405682497101a64821230ab2b8213b44cf5be3698e",
        (1, 0, 2, 3, 5, 4),
        True,
    ),
    "hyper-skewed": (
        "6a59054b349000494b2c6c8d501e95be0d731f78c0d467b620ae0016d2f8cf3d",
        (0, 3, 5, 2, 4, 1),
        True,
    ),
    "hyper-uniform": (
        "ee50e3e7314f039c9fcdb42f74e14131db04cb9b4700e1647c7145fe3ac94685",
        (5, 4, 0, 2, 3, 1),
        True,
    ),
    "star-duplicate": (
        "ec48a810104ae0a3e48fbb62aa8e764d82eec836665ec7a5c4dacd0873609a6a",
        (0, 1, 2, 3, 4, 5),
        True,
    ),
    "star-skewed": (
        "a5fbbeeb28fe4119c6e2c39d53aaf01a89eee8ccbcc97ae7da810ae6a24cc7c4",
        (0, 3, 5, 2, 4, 1),
        True,
    ),
    "star-uniform": (
        "52c46a0e96ef04f2224336e04ebb63249609af9b4710b7aadb6bbe1b72788dc1",
        (5, 0, 1, 2, 3, 4),
        True,
    ),
}


def test_key_version_is_still_one():
    assert KEY_VERSION == 1


def test_every_case_is_pinned():
    assert set(GOLDEN) == set(build_cases())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_key_bytes_are_pinned(name):
    graph, cards = build_cases()[name]
    info = build_cache_key(graph, cards, CONFIG_KEY)
    digest, permutation, canonical = GOLDEN[name]
    assert info.key == (KEY_VERSION, digest, CONFIG_KEY)
    assert repr(info.key) == repr((1, digest, CONFIG_KEY))
    assert info.permutation == permutation
    assert info.canonical is canonical


def test_regimes_exercise_what_they_claim():
    # the fallback case really exhausts the budget, the others do not
    assert [name for name, (_d, _p, canonical) in GOLDEN.items()
            if not canonical] == ["clique8-uniform-fallback"]
    # signed zeros key apart; int and float cardinalities key together
    assert GOLDEN["chain4-zero-positive"][0] != \
        GOLDEN["chain4-zero-negative"][0]
    graph, _cards = build_cases()["chain4-int-cards"]
    as_floats = build_cache_key(graph, [10.0, 20.0, 30.0, 40.0], CONFIG_KEY)
    assert as_floats.key[1] == GOLDEN["chain4-int-cards"][0]
