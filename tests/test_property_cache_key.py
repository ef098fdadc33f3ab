"""Property-based audit of the plan-cache key surface (hypothesis).

``OptimizerConfig.cache_key()``, the companion to the static
``cache-key-completeness`` rule: for any valid configuration,
perturbing any single *keyed* field must change ``cache_key()``, and
perturbing any field in ``CACHE_KEY_EXCLUDED`` must leave it untouched
(so configs differing only in plumbing share plan-cache entries).
Together the two guarantees pin the key surface exactly — no silent
leak in either direction.

The exact-repeat key memo (``PlanCache.memoized_key``): every key it
serves is the key ``build_cache_key`` builds, content it must not
conflate bypasses it, it stays a bounded LRU under thread contention,
and it never leaves the process.
"""

import itertools
import os
import sys
import threading
from collections import OrderedDict
from dataclasses import fields, replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import persist
from repro.cache.keys import build_cache_key
from repro.cache.plan_cache import KEY_MEMO_CAPACITY, PlanCache
from repro.cache.store import PlanStore
from repro.core.hypergraph import Hyperedge, Hypergraph
from repro.cost.models import (
    CoutModel,
    HashJoinModel,
    MinOfModel,
    NestedLoopModel,
    SortMergeModel,
)
from repro.optimizer import (
    DispatchStage,
    NormalizeStage,
    Optimizer,
    OptimizerConfig,
    PipelineContext,
    PipelineStages,
)
from repro.registry import registration_fingerprint
from repro.workloads.random_queries import random_hypergraph_query

COMMON = dict(deadline=None, max_examples=60)

ALGORITHMS = ("auto", "dphyp", "dpccp", "dpsize", "dpsub", "greedy")
MODES = ("hyperedges", "tes-filter")
COST_MODELS = st.sampled_from([
    None,
    CoutModel(),
    NestedLoopModel(),
    SortMergeModel(),
    HashJoinModel(1.5),
    HashJoinModel(2.5),
    MinOfModel(),
])


@st.composite
def configs(draw):
    # algorithm stays "auto" so exact_threshold participates in the
    # key; the algorithm field itself is perturbed explicitly below.
    return OptimizerConfig(
        algorithm="auto",
        cost_model=draw(COST_MODELS),
        mode=draw(st.sampled_from(MODES)),
        default_cardinality=draw(
            st.floats(min_value=1.0, max_value=1e6, allow_nan=False)
        ),
        on_disconnected=draw(
            st.sampled_from(("raise", "connect", "plan-none"))
        ),
        exact_threshold=draw(st.integers(min_value=1, max_value=30)),
        minimize_neighborhoods=draw(st.booleans()),
        memoize_neighborhoods=draw(st.booleans()),
        cache=draw(st.sampled_from(("auto", "on", "off"))),
        cache_size=draw(st.integers(min_value=1, max_value=4096)),
        cache_path=draw(st.sampled_from((None, "a.json", "b.json"))),
        cache_autosave=draw(st.booleans()),
        parallel_workers=draw(st.sampled_from((None, 1, 2, 8))),
        executor=draw(st.sampled_from(("thread", "process"))),
    )


def perturb(config: OptimizerConfig, name: str) -> OptimizerConfig:
    """Return a valid config differing from ``config`` in exactly ``name``."""
    current = getattr(config, name)
    if name == "algorithm":
        value = "dphyp" if current == "auto" else "auto"
    elif name == "cost_model":
        value = HashJoinModel(9.75) if (
            current is None or current.cache_key() != HashJoinModel(9.75).cache_key()
        ) else NestedLoopModel()
    elif name == "mode":
        value = MODES[1 - MODES.index(current)]
    elif name == "on_disconnected":
        value = "connect" if current == "raise" else "raise"
    elif name == "cache":
        value = "on" if current == "off" else "off"
    elif name == "cache_path":
        value = "other.json" if current != "other.json" else None
    elif name == "cache_ttl":
        value = 60.0 if current != 60.0 else 120.0
    elif name == "cache_size_budget":
        value = 1 << 20 if current != 1 << 20 else 1 << 21
    elif name == "cache_namespace":
        # deliberately keyed (the one plumbing-looking exception):
        # namespaces exist to partition a shared cache
        value = "tenant-x" if current != "tenant-x" else "tenant-y"
    elif name == "parallel_workers":
        value = 3 if current != 3 else None
    elif name == "executor":
        value = "process" if current == "thread" else "thread"
    elif name == "pipeline":
        # a fresh stage instance: unequal to the shared default
        # singleton under dataclass equality
        value = PipelineStages(dispatch=DispatchStage())
    elif isinstance(current, bool):
        value = not current
    elif isinstance(current, int):
        value = current + 1
    elif isinstance(current, float):
        value = current + 1.0
    else:  # pragma: no cover - new field types must be added here
        raise AssertionError(f"no perturbation for field {name!r}")
    return replace(config, **{name: value})


KEYED = sorted(
    {f.name for f in fields(OptimizerConfig)}
    - set(OptimizerConfig.CACHE_KEY_EXCLUDED)
)
EXCLUDED = sorted(OptimizerConfig.CACHE_KEY_EXCLUDED)


def test_every_field_is_classified():
    assert set(KEYED) | set(EXCLUDED) == {
        f.name for f in fields(OptimizerConfig)
    }
    assert not set(KEYED) & set(EXCLUDED)


@settings(**COMMON)
@given(config=configs(), name=st.sampled_from(KEYED))
def test_perturbing_any_keyed_field_changes_the_key(config, name):
    changed = perturb(config, name)
    assert getattr(changed, name) != getattr(config, name)
    assert changed.cache_key() != config.cache_key()


@settings(**COMMON)
@given(config=configs(), name=st.sampled_from(EXCLUDED))
def test_perturbing_any_excluded_field_keeps_the_key(config, name):
    changed = perturb(config, name)
    assert getattr(changed, name) != getattr(config, name)
    assert changed.cache_key() == config.cache_key()


@settings(**COMMON)
@given(config=configs())
def test_key_is_reprable_and_stable(config):
    # persisted cache files round-trip keys through repr/literal_eval,
    # so every key must be a printable literal and deterministic
    import ast

    key = config.cache_key()
    assert ast.literal_eval(repr(key)) == key
    assert config.cache_key() == key


# -- the exact-repeat key memo ------------------------------------------------

MEMO = dict(deadline=None, max_examples=40)

#: few distinct values, so duplicates (refinement, individualization)
#: are common; ints mixed in to exercise int/float equivalence
CARDS = st.sampled_from([10, 10.0, 250.0, 4000.0, 4000, 1e6])
SELS = st.sampled_from([0.5, 0.1, 0.1, 0.01, 0.9])


@st.composite
def memo_queries(draw):
    """``(graph, cardinalities)``: random hypergraph, drawn statistics."""
    n = draw(st.integers(min_value=2, max_value=8))
    base = random_hypergraph_query(
        n, seed=draw(st.integers(0, 10_000)), n_hyperedges=draw(
            st.integers(0, 2)), flex_probability=0.3,
    ).graph
    graph = Hypergraph(n_nodes=n)
    for edge in base.edges:
        graph.add_edge(Hyperedge(edge.left, edge.right, edge.flex,
                                 draw(SELS)))
    cards = [draw(CARDS) for _ in range(n)]
    return graph, cards


def copy_graph(graph, selectivities=None):
    """A fresh graph object with the same (or replaced) statistics."""
    if selectivities is None:
        selectivities = [edge.selectivity for edge in graph.edges]
    return Hypergraph(n_nodes=graph.n_nodes, edges=[
        Hyperedge(edge.left, edge.right, edge.flex, selectivity)
        for edge, selectivity in zip(graph.edges, selectivities)
    ])


def fingerprint(cache, graph, cards, config=None):
    """Run the normalize and fingerprint stages; return the context."""
    config = config or OptimizerConfig(cache="on")
    ctx = PipelineContext(config=config, query=graph, cardinalities=cards,
                          builder_arg=None, cache=cache)
    NormalizeStage()(ctx)
    config.pipeline.fingerprint(ctx)
    return ctx


def fresh_key(ctx):
    """What build_cache_key builds for the context, memo or no memo."""
    config_key = ctx.config.cache_key() + (
        registration_fingerprint(ctx.info.name),
    )
    return build_cache_key(ctx.graph, ctx.resolved_cardinalities, config_key)


@settings(**MEMO)
@given(query=memo_queries())
def test_memo_hit_returns_the_freshly_built_key(query):
    graph, cards = query
    cache = PlanCache()
    first = fingerprint(cache, graph, cards)
    assert len(cache._key_memo) == 1
    # a byte-for-byte repeat in a new graph object: served by the memo
    repeat = fingerprint(cache, copy_graph(graph), list(cards))
    assert repeat.key_info is first.key_info
    expected = fresh_key(repeat)
    assert repeat.key_info == expected
    assert repr(repeat.key_info.key) == repr(expected.key)
    assert len(cache._key_memo) == 1


@settings(**MEMO)
@given(query=memo_queries(), position=st.integers(min_value=0),
       card=CARDS, sel=SELS)
def test_memo_never_conflates_other_statistics(query, position, card, sel):
    graph, cards = query
    sels = [edge.selectivity for edge in graph.edges]
    other_cards = list(cards)
    other_cards[position % len(cards)] = card
    other_sels = list(sels)
    other_sels[position % len(sels)] = sel
    cache = PlanCache()
    for variant_graph, variant_cards in (
        (graph, cards),
        (copy_graph(graph), other_cards),
        (copy_graph(graph, other_sels), cards),
        (copy_graph(graph, other_sels), other_cards),
        (copy_graph(graph), cards),
    ):
        ctx = fingerprint(cache, variant_graph, variant_cards)
        assert ctx.key_info == fresh_key(ctx)
        assert repr(ctx.key_info.key) == repr(fresh_key(ctx).key)


@settings(**MEMO)
@given(query=memo_queries(), position=st.integers(min_value=0))
def test_signed_zero_selectivities_key_apart(query, position):
    graph, cards = query
    position %= len(graph.edges)
    sels = [edge.selectivity for edge in graph.edges]
    cache = PlanCache()
    keys = []
    for zero in (0.0, -0.0, 0.0, -0.0):
        sels[position] = zero
        ctx = fingerprint(cache, copy_graph(graph, sels), cards)
        assert ctx.key_info == fresh_key(ctx)
        keys.append(repr(ctx.key_info.key))
    assert keys[0] == keys[2] != keys[1] == keys[3]
    # zero statistics bypass the memo entirely
    assert len(cache._key_memo) == 0


@settings(**MEMO)
@given(query=memo_queries())
def test_int_and_float_cardinalities_share_a_key(query):
    graph, cards = query
    as_ints = [int(card) for card in cards]
    as_floats = [float(card) for card in cards]
    cache = PlanCache()
    first = fingerprint(cache, graph, as_ints)
    second = fingerprint(cache, copy_graph(graph), as_floats)
    assert second.key_info is first.key_info
    assert repr(second.key_info.key) == repr(fresh_key(second).key)
    assert len(cache._key_memo) == 1


@settings(deadline=None, max_examples=60)
@given(ops=st.lists(st.tuples(st.booleans(), st.integers(0, 400)),
                    max_size=1200))
def test_memo_is_a_bounded_lru(ops):
    """Against a reference LRU: True = memoize, False = look up."""
    cache = PlanCache()
    model: "OrderedDict[tuple, str]" = OrderedDict()
    for write, item in ops:
        content = ("content", item)
        if write:
            cache.memoize_key(content, f"info-{item}")
            model[content] = f"info-{item}"
            model.move_to_end(content)
            if len(model) > KEY_MEMO_CAPACITY:
                model.popitem(last=False)
        else:
            assert cache.memoized_key(content) == model.get(content)
            if content in model:
                model.move_to_end(content)
        assert len(cache._key_memo) <= KEY_MEMO_CAPACITY
    assert list(cache._key_memo.items()) == list(model.items())


def test_memo_survives_thread_contention():
    """More threads than cores, a short switch interval: the memo stays
    bounded and never maps content to another content's info."""
    cache = PlanCache()
    errors = []

    def worker(offset):
        try:
            for round_ in range(3):
                for item in range(300):
                    content = ("content", (item * 7 + offset) % 400)
                    info = cache.memoized_key(content)
                    if info is None:
                        cache.memoize_key(content, ("info", content))
                    elif info != ("info", content):
                        errors.append((content, info))
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(offset,))
                   for offset in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(cache._key_memo) == KEY_MEMO_CAPACITY
    assert all(info == ("info", content)
               for content, info in cache._key_memo.items())


def test_clear_empties_the_memo():
    cache = PlanCache()
    graph, cards = Hypergraph(n_nodes=2), [10.0, 20.0]
    graph.add_simple_edge(0, 1, selectivity=0.5)
    fingerprint(cache, graph, cards)
    assert len(cache._key_memo) == 1
    cache.clear()
    assert len(cache._key_memo) == 0


def test_fallback_counter_counts_memo_hits_too():
    graph = Hypergraph(n_nodes=8)
    for i, j in itertools.combinations(range(8), 2):
        graph.add_simple_edge(i, j, selectivity=0.5)
    optimizer = Optimizer(OptimizerConfig(cache="on", algorithm="dphyp"))
    for _ in range(3):
        optimizer.optimize(copy_graph(graph), cardinalities=[100.0] * 8)
    counters = optimizer.plan_cache.counters()
    assert counters["canonical_fallbacks"] == 3
    assert counters["hits"] == 2
    assert len(optimizer.plan_cache._key_memo) == 1


@settings(deadline=None, max_examples=10)
@given(seeds=st.lists(st.integers(0, 10_000), min_size=1, max_size=4))
def test_threaded_exact_repeats_match_the_oracle(seeds):
    queries = [random_hypergraph_query(6, seed, flex_probability=0.3)
               for seed in seeds]
    oracle = Optimizer(algorithm="dphyp-recursive", cache="off")
    expected = [oracle.optimize(query).cost for query in queries]
    optimizer = Optimizer(cache="on")
    batch = queries * 6
    results = optimizer.optimize_many(batch, parallel=4, executor="thread")
    assert [result.cost for result in results] == expected * 6


def test_memo_never_reaches_documents_deltas_or_stores(tmp_path):
    """Two caches with identical entries, one with a full memo."""
    queries = [random_hypergraph_query(5, seed) for seed in range(6)]
    plain, with_memo = PlanCache(), PlanCache()
    for cache in (plain, with_memo):
        optimizer = Optimizer(cache="on", plan_cache=cache)
        for query in queries:
            optimizer.optimize(query)
    plain._key_memo.clear()
    for seed in range(KEY_MEMO_CAPACITY):
        with_memo.memoize_key(("filler", seed), "info")
    assert len(with_memo._key_memo) == KEY_MEMO_CAPACITY
    assert with_memo.mutations == plain.mutations
    assert persist.dump_document(with_memo) == persist.dump_document(plain)
    assert with_memo.sync_since(0, include_order=True) == \
        plain.sync_since(0, include_order=True)
    documents = []
    for name, cache in (("plain", plain), ("memo", with_memo)):
        store = PlanStore(os.fspath(tmp_path / f"{name}.sqlite"))
        try:
            assert store.sync_from(cache, force=True) == len(queries)
            documents.append(store.export_document())
        finally:
            store.close()
    assert documents[0] == documents[1]
