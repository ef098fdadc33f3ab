"""Allocation-free DPhyp backend (``dphyp-kernel``).

A two-phase rewrite of the hot path for inner-join queries: the
search runs over flat parallel arrays keyed by an interning dict (no
Plan objects per candidate), then the winning decomposition is
materialized back into an ordinary :class:`~repro.core.plans.Plan`
tree through the caller's builder.  Same traversal, same csg-cmp-pairs,
bit-identical costs — see :mod:`repro.core.kernel.solver` for the
argument and ``docs/kernel.md`` for the array layout.

Capabilities are deliberately narrow: the kernel prices pure
inner-join plans only, so :func:`solve_dphyp_kernel` falls back to
:func:`repro.core.dphyp.solve_dphyp` for any builder other than a
plain :class:`~repro.core.plans.JoinPlanBuilder` (operator trees,
non-inner joins, custom builders), and the registry entry advertises
``supports_operator_trees=False``.
"""

from __future__ import annotations

from typing import Optional

from ..hypergraph import Hypergraph
from ..plans import JoinPlanBuilder, Plan, PlanBuilder
from ..stats import SearchStats
from .solver import KernelDPhyp


def solve_dphyp_kernel(
    graph: Hypergraph,
    builder: PlanBuilder,
    stats: Optional[SearchStats] = None,
) -> Optional[Plan]:
    """Run the two-phase kernel; fall back to ``dphyp`` when it cannot.

    The flat-array search assumes commutative inner joins priced from
    ``(cost, cardinality)`` alone, which is exactly what
    :class:`~repro.core.plans.JoinPlanBuilder` provides.  Any other
    builder (the operator builder of Section 5, or a subclass that
    overrides plan construction) is handed to
    :func:`~repro.core.dphyp.solve_dphyp` unchanged — same plans,
    without the kernel's speedup.
    """
    if type(builder) is not JoinPlanBuilder:
        from ..dphyp import solve_dphyp

        return solve_dphyp(graph, builder, stats)
    return KernelDPhyp(graph, builder, stats).run()


__all__ = ["KernelDPhyp", "solve_dphyp_kernel"]
