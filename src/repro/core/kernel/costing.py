"""Precomputed cost/cardinality coefficients for the kernel search.

The kernel's inner loop prices a candidate join with a handful of
float operations instead of Plan construction plus cost-model method
dispatch.  Everything that can be derived once per solve is derived
here:

* :class:`EdgeCoefficients` — per-edge ``(node-mask, selectivity)``
  pairs in ``edges``-list order;
* :func:`make_cardinality_fn` — a closure computing the *bit-identical*
  equivalent of :meth:`repro.cost.cardinality.SetCardinalityEstimator.
  cardinality`;
* :func:`classify_model` — maps the builder's cost model onto an
  inline-evaluation kind so the search loop prices candidates without
  a method call for every shipped model.

Everything is plain Python: selectivities multiply sequentially in
``edges``-list order, the same order the estimator uses, which keeps
the kernel's bit-identical-cost contract with ``dphyp``.
"""

from __future__ import annotations

from typing import Callable

from ...cost.models import (
    CoutModel,
    HashJoinModel,
    NestedLoopModel,
    SortMergeModel,
)
from ..bitset import NodeSet
from ..hypergraph import Hypergraph

#: inline-evaluation kinds for :func:`classify_model`
KIND_COUT = 0
KIND_NLJ = 1
KIND_HASH = 2
KIND_SMJ = 3
KIND_GENERIC = 4

#: kinds whose two candidate orders provably price identically
#: (their cost expressions commute operand-for-operand in float
#: arithmetic), so the search may skip the second offer entirely.
#: SortMergeModel is *not* symmetric: ``(a+b)+s1+s2`` and
#: ``(b+a)+s2+s1`` round differently in general.
SYMMETRIC_KINDS = frozenset({KIND_COUT, KIND_NLJ})


def classify_model(model) -> int:
    """Map a cost model instance onto an inline-evaluation kind.

    Exact type checks on purpose: a subclass may override
    ``join_cost``, so anything that is not literally one of the
    shipped models takes :data:`KIND_GENERIC`, which calls the model's
    own ``join_cost`` through :class:`PlanProxy` stand-ins and stays
    exact for arbitrary models.
    """
    kind_of = {
        CoutModel: KIND_COUT,
        NestedLoopModel: KIND_NLJ,
        HashJoinModel: KIND_HASH,
        SortMergeModel: KIND_SMJ,
    }
    return kind_of.get(type(model), KIND_GENERIC)


class PlanProxy:
    """Mutable stand-in for a :class:`~repro.core.plans.Plan`.

    The generic costing path reuses two proxies across all candidates
    instead of building throwaway plans.  It carries every attribute a
    cost model may reasonably consult (``cost``, ``cardinality``,
    ``nodes``); models that inspect plan *structure* (children, edges)
    cannot be priced slot-wise and should run through ``dphyp``
    instead.
    """

    __slots__ = ("nodes", "cardinality", "cost")

    def __init__(self) -> None:
        self.nodes: NodeSet = 0
        self.cardinality = 0.0
        self.cost = 0.0


class EdgeCoefficients:
    """Per-edge ``(node-mask, selectivity)`` pairs, precomputed once.

    ``masks[i]`` / ``selectivities[i]`` follow ``graph.edges`` order.
    """

    __slots__ = ("masks", "selectivities")

    def __init__(self, graph: Hypergraph) -> None:
        self.masks = [edge.nodes for edge in graph.edges]
        self.selectivities = [edge.selectivity for edge in graph.edges]


def make_cardinality_fn(
    base: "list[float]",
    coefficients: EdgeCoefficients,
    cache: "dict[NodeSet, float]",
) -> Callable[[NodeSet], float]:
    """Build ``card_of(s)``: clamped set cardinality, cached in ``cache``.

    Bit-identical to ``SetCardinalityEstimator.cardinality``: base
    cardinalities multiply in increasing node order, then the
    selectivities of every spanned edge in ``edges``-list order, then
    the one-row clamp.
    """
    masks = coefficients.masks
    selectivities = coefficients.selectivities

    def card_of(s: NodeSet) -> float:
        card = 1.0
        remaining = s
        while remaining:
            low = remaining & -remaining
            card *= base[low.bit_length() - 1]
            remaining ^= low
        for mask, selectivity in zip(masks, selectivities):
            if mask & s == mask:
                card *= selectivity
        card = max(card, 1.0)
        cache[s] = card
        return card

    return card_of
