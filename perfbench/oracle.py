"""Exact reference costs, computed outside every timed region.

The reference is the ``dphyp-recursive`` oracle: the seed recursion of
the paper's algorithm, kept in the registry for exactly this purpose.
Answers are checked per query: an exact algorithm must return the
oracle's cost, greedy must not beat it (it would be a wrong cost).
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Optional, Sequence

from repro import Optimizer
from repro.registry import get_algorithm

from . import gen

#: relative float tolerance: relabeled queries sum costs in another order
REL_TOL = 1e-9
#: processes of the reference pass
WORKERS = 2


def reference(query: object) -> "tuple[float, float]":
    """``(optimal cost, greedy cost)`` of one query."""
    exact = Optimizer(algorithm="dphyp-recursive", cache="off")
    greedy = Optimizer(algorithm="greedy", cache="off")
    return exact.optimize(query).cost, greedy.optimize(query).cost


def _unique_references(
    deck_name: str, seed: int, stream: str, indices: Sequence[int]
) -> "list[tuple[float, float]]":
    deck = getattr(gen, deck_name)
    return [
        reference(gen.unique_query(deck, seed, stream, index))
        for index in indices
    ]


def unique_references(
    deck_name: str, seed: int, stream: str, count: int
) -> "list[tuple[float, float]]":
    """References of queries ``0..count-1`` of a unique stream, in order.

    Queries are rebuilt from their index in :data:`WORKERS` processes,
    so nothing but indices and costs crosses the pipe.  The pool forks:
    no thread is alive when the oracle pass runs, and a spawning pool
    would leave multiprocessing's resource tracker running after it.
    """
    if count <= 0:
        return []
    chunk = max(1, min(64, count // (WORKERS * 4) or 1))
    starts = list(range(0, count, chunk))
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=WORKERS,
                             mp_context=context) as pool:
        futures = [
            pool.submit(_unique_references, deck_name, seed, stream,
                        list(range(s, min(s + chunk, count))))
            for s in starts
        ]
        out: "list[tuple[float, float]]" = []
        for future in futures:
            out.extend(future.result())
    return out


def check(cost: Optional[float], algorithm: str, optimum: float) -> bool:
    """Is ``cost`` a correct answer from ``algorithm`` for this optimum?"""
    if cost is None:
        return False
    if get_algorithm(algorithm).exact:
        return abs(cost - optimum) <= REL_TOL * optimum
    return cost >= optimum * (1.0 - REL_TOL)
