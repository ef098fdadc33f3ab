"""Tests for EXPLAIN rendering and the closed-form counting module."""

import pytest

from repro import optimize
from repro.core import counting
from repro.core.stats import SearchStats
from repro.explain import explain, explain_dot, plan_summary
from repro.workloads import chain, clique, cycle, star


class TestExplain:
    def _plan(self):
        query = chain(4, seed=1)
        result = optimize(query.graph, query.cardinalities)
        return result.plan

    def test_explain_mentions_all_relations(self):
        text = explain(self._plan())
        for i in range(4):
            assert f"scan R{i}" in text

    def test_explain_shows_costs_and_rows(self):
        text = explain(self._plan())
        assert "cost=" in text and "rows=" in text
        assert "├──" in text and "└──" in text

    def test_explain_with_names(self):
        text = explain(self._plan(), names=["a", "b", "c", "d"])
        assert "scan a" in text

    def test_explain_with_predicates(self):
        from repro.algebra import Equals, JOIN, attr, leaf, node
        from repro.algebra import optimize_operator_tree
        from repro.algebra.optree import Relation

        tree = node(JOIN, leaf(Relation("R", 10)), leaf(Relation("S", 10)),
                    Equals(attr("R.a"), attr("S.a")))
        result = optimize_operator_tree(tree)
        assert "R.a = S.a" in explain(result.plan, result.relation_names)

    def test_dot_output_well_formed(self):
        dot = explain_dot(self._plan())
        assert dot.startswith("digraph plan {")
        assert dot.endswith("}")
        assert dot.count("->") == 6  # 3 joins x 2 children

    def test_plan_summary(self):
        summary = plan_summary(self._plan())
        assert summary["joins"] == 3
        assert summary["cost"] > 0
        assert summary["max_intermediate_rows"] >= summary["output_rows"]
        assert 2 <= summary["depth"] <= 3


#: the paper's DPhyp, and the production path: ``auto`` must resolve
#: to ``dphyp-kernel`` at these sizes and emit the same pairs
COUNTING_ALGORITHMS = ("dphyp", "auto")


def optimize_counted(query, algorithm):
    result = optimize(query.graph, query.cardinalities, algorithm=algorithm)
    if algorithm == "auto":
        assert result.algorithm == "dphyp-kernel"
    return result


class TestCountingFormulas:
    """[17]'s closed forms must match the live algorithm exactly."""

    @pytest.mark.parametrize("algorithm", COUNTING_ALGORITHMS)
    @pytest.mark.parametrize("n", range(2, 9))
    def test_chain(self, n, algorithm):
        result = optimize_counted(chain(n, seed=0), algorithm)
        assert result.stats.ccp_emitted == counting.chain_ccp(n)
        assert result.stats.table_entries == counting.chain_csg(n)

    @pytest.mark.parametrize("algorithm", COUNTING_ALGORITHMS)
    @pytest.mark.parametrize("n", range(3, 9))
    def test_cycle(self, n, algorithm):
        result = optimize_counted(cycle(n, seed=0), algorithm)
        assert result.stats.ccp_emitted == counting.cycle_ccp(n)
        assert result.stats.table_entries == counting.cycle_csg(n)

    @pytest.mark.parametrize("algorithm", COUNTING_ALGORITHMS)
    @pytest.mark.parametrize("n", range(2, 9))
    def test_star(self, n, algorithm):
        # n relations total
        result = optimize_counted(star(n - 1, seed=0), algorithm)
        assert result.stats.ccp_emitted == counting.star_ccp(n)
        assert result.stats.table_entries == counting.star_csg(n)

    @pytest.mark.parametrize("algorithm", COUNTING_ALGORITHMS)
    @pytest.mark.parametrize("n", range(2, 8))
    def test_clique(self, n, algorithm):
        result = optimize_counted(clique(n, seed=0), algorithm)
        assert result.stats.ccp_emitted == counting.clique_ccp(n)
        assert result.stats.table_entries == counting.clique_csg(n)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_dpsub_budget(self, n):
        query = clique(n, seed=0)
        stats = SearchStats()
        result = optimize(query.graph, query.cardinalities,
                          algorithm="dpsub")
        assert result.stats.pairs_considered == counting.dpsub_pair_budget(n)

    def test_dpsize_ordered_pairs(self):
        query = star(5, seed=0)
        hyp = optimize(query.graph, query.cardinalities)
        size = optimize(query.graph, query.cardinalities, algorithm="dpsize")
        assert size.stats.ccp_emitted == counting.dpsize_ordered_pairs(
            hyp.stats.ccp_emitted
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            counting.cycle_ccp(2)
        with pytest.raises(ValueError):
            counting.chain_csg(0)

    def test_registry(self):
        assert set(counting.FORMULAS) == {"chain", "cycle", "star", "clique"}
        csg, ccp = counting.FORMULAS["chain"]
        assert csg(3) == 6 and ccp(3) == 4
