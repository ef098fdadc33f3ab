"""Seeded query generator with skewed statistics, and the request streams.

Every query the benchmark sends is a pure function of ``(seed, stream,
index)``, so a run can be replayed, and the oracle pass can rebuild a
query from its index instead of keeping it in memory while the clock
runs.  Statistics are skewed the way real catalogs are: cardinalities
are log-uniform over six decades and selectivities log-uniform over
about four, which is what makes greedy ordering lose on some queries.

Sizes are drawn from fixed *decks* of ``(shape, n)`` pairs, dealt in
seeded shuffled rounds, so every seed sends the same size mix in a
different order and stats; percentiles then move with the program,
not with the seed.  Decks respect the oracle's limits: stars have at
most 12 satellites and cliques at most 9 relations.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.core import bitset
from repro.core.hypergraph import Hyperedge, Hypergraph
from repro.workloads.generators import Query
from repro.workloads.repeated import relabeled

#: log10 range of base-relation cardinalities
CARD_DECADES = (1.0, 7.0)
#: log10 range of join selectivities
SEL_DECADES = (-4.0, -0.3)

Deck = Sequence["tuple[str, int]"]

#: the 64-query hot working set: 16 shapes, four members each
HOT_DECK: Deck = (
    ("chain", 6), ("chain", 9), ("chain", 12), ("chain", 14),
    ("cycle", 7), ("cycle", 10), ("cycle", 13),
    ("star", 6), ("star", 8), ("star", 10),
    ("clique", 5), ("clique", 6), ("clique", 7),
    ("hyper", 8), ("hyper", 10), ("hyper", 12),
)
WORKING_SET = 64

#: lib-cold: n from 6 to 18; 15-16 reach dphyp-kernel once their
#: structure bucket is hot, 17-18 stay greedy, small simple graphs
#: go to dpccp and hypergraphs to dphyp
COLD_DECK: Deck = (
    ("chain", 6), ("chain", 9), ("chain", 12),
    ("chain", 15), ("chain", 16), ("chain", 18),
    ("cycle", 7), ("cycle", 10), ("cycle", 13),
    ("cycle", 15), ("cycle", 16), ("cycle", 17),
    ("star", 6), ("star", 8), ("clique", 6), ("clique", 7),
    ("hyper", 8), ("hyper", 10), ("hyper", 12),
)

#: serve-open misses: n from 8 to 13
SERVE_MISS_DECK: Deck = (
    ("chain", 10), ("chain", 12), ("chain", 13),
    ("cycle", 9), ("cycle", 11), ("cycle", 13),
    ("star", 8), ("star", 9), ("clique", 7),
    ("hyper", 9), ("hyper", 11), ("hyper", 13),
)

#: batch-store unique queries
BATCH_DECK: Deck = (
    ("chain", 8), ("chain", 10), ("chain", 12),
    ("cycle", 8), ("cycle", 10), ("cycle", 12),
    ("star", 7), ("star", 8), ("clique", 6),
    ("hyper", 8), ("hyper", 10), ("hyper", 12),
)


def seeded(*parts: object) -> random.Random:
    """A generator seeded by ``parts``, stable across processes and runs."""
    # str seeds hash through sha512, unlike hash() of other objects
    return random.Random(":".join(str(part) for part in parts))


def _card(rng: random.Random) -> float:
    return float(round(10.0 ** rng.uniform(*CARD_DECADES)))


def _sel(rng: random.Random) -> float:
    return 10.0 ** rng.uniform(*SEL_DECADES)


def _side(rng: random.Random, pool: int, size: int) -> int:
    nodes = list(bitset.iter_nodes(pool))
    return bitset.from_iterable(rng.sample(nodes, min(size, len(nodes))))


def make_query(shape: str, n: int, rng: random.Random) -> Query:
    """One query of ``shape`` over ``n`` relations with skewed stats.

    ``hyper`` is a chain plus two random complex hyperedges whose
    sides hold two or three relations each.
    """
    pairs: "list[tuple[int, int]]" = []
    if shape in ("chain", "cycle"):
        pairs = [(i, i + 1) for i in range(n - 1)]
        if shape == "cycle":
            pairs.append((n - 1, 0))
    elif shape == "star":
        pairs = [(0, i) for i in range(1, n)]
    elif shape == "clique":
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    elif shape == "hyper":
        # a chain backbone keeps the enumeration work of one size
        # comparable across seeds; the hyperedges are what is random
        pairs = [(i, i + 1) for i in range(n - 1)]
    else:
        raise ValueError(f"unknown shape {shape!r}")
    edges = [
        Hyperedge(
            left=bitset.singleton(a), right=bitset.singleton(b),
            selectivity=_sel(rng),
        )
        for a, b in pairs
    ]
    if shape == "hyper":
        universe = (1 << n) - 1
        for _ in range(2):
            left = _side(rng, universe, rng.randint(2, 3))
            right = _side(rng, universe & ~left, rng.randint(2, 3))
            edges.append(Hyperedge(left=left, right=right,
                                   selectivity=_sel(rng)))
    cards = [_card(rng) for _ in range(n)]
    return Query(Hypergraph(n_nodes=n, edges=edges), cards, f"{shape}-{n}")


def dealt(deck: Deck, seed: int, stream: str, index: int) -> "tuple[str, int]":
    """The deck entry at ``index`` of a stream dealt in shuffled rounds."""
    rounds, position = divmod(index, len(deck))
    order = list(range(len(deck)))
    seeded(seed, stream, "round", rounds).shuffle(order)
    return deck[order[position]]


def unique_query(deck: Deck, seed: int, stream: str, index: int) -> Query:
    """Query ``index`` of a stream of never-repeating queries."""
    shape, n = dealt(deck, seed, stream, index)
    return make_query(shape, n, seeded(seed, stream, index))


def member(seed: int, index: int) -> Query:
    """Working-set query ``index``."""
    return make_query(*HOT_DECK[index % len(HOT_DECK)],
                      seeded(seed, "hot", index))


def working_set(seed: int) -> "list[Query]":
    """The 64 hot queries served from the warm store."""
    return [member(seed, i) for i in range(WORKING_SET)]


def hot_request(
    members: "list[Query]", seed: int, stream: str, index: int
) -> "tuple[int, Optional[int]]":
    """``(member, relabel_seed)``: half exact repeats, half relabelings.

    ``relabel_seed is None`` means the member's own bytes are sent.
    """
    rng = seeded(seed, stream, "req", index)
    pick = rng.randrange(len(members))
    if rng.random() < 0.5:
        return pick, None
    return pick, rng.randrange(1 << 31)


def materialize(members: "list[Query]", member: int,
                relabel_seed: Optional[int]) -> Query:
    """A fresh query object for a hot request (no warmed lazy state)."""
    base = members[member]
    if relabel_seed is None:
        graph = base.graph
        copy = Hypergraph(n_nodes=graph.n_nodes, edges=list(graph.edges))
        return Query(copy, list(base.cardinalities), base.description)
    return relabeled(base, seed=relabel_seed)


def query_digest(query: Query) -> "tuple":
    """The query's exact content (what an exact-repeat memo would key on)."""
    return (
        tuple(query.cardinalities),
        tuple((e.left, e.right, e.flex, e.selectivity)
              for e in query.graph.edges),
    )
