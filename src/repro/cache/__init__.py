"""Plan-cache serving layer.

Turns the optimizer from "re-plan every call" into a serving system
for repeated workloads: queries are canonically fingerprinted
(:mod:`repro.cache.keys`), optimal join orders are stored as compact
canonical-space recipes (:mod:`repro.cache.recipe`), and a size-bounded
epoch-aware LRU (:mod:`repro.cache.plan_cache`) serves isomorphic
repeats by replaying the recipe through the requesting query's own
plan builder.

Two process boundaries are first-class (:mod:`repro.cache.persist`):
the cache serializes to a versioned on-disk document, so a restarted
server starts warm (``OptimizerConfig(cache_path=...)``), and the same
document format ships read-only warm-up snapshots to
``optimize_many(executor="process")`` workers.  At production
capacities the document's rewrite-everything shape gives way to the
embedded SQLite store (:mod:`repro.cache.store`): WAL-mode,
incremental per-mutation upserts, TTL/size-budget compaction, safe
multi-process access — selected simply by a ``.sqlite`` cache path
(:func:`~repro.cache.store.open_persister`), with the JSON document
retained as the import/export interchange format.

The :class:`~repro.optimizer.Optimizer` pipeline wires these together;
this package has no dependency on the facade and can be reused by
other serving layers (e.g. a future cross-process shared store).
"""

from .keys import (
    KEY_VERSION,
    CacheKeyInfo,
    build_cache_key,
    exact_key_content,
    structure_bucket,
)
from .persist import (
    CachePersistenceWarning,
    DocumentPersister,
    DocumentSync,
    dump_document,
    load,
    restore_document,
    save,
    save_document,
)
from .plan_cache import DEFAULT_CAPACITY, CacheDelta, CacheEntry, PlanCache
from .recipe import PlanRecipe, plan_recipe, replay_recipe
from .store import PlanStore, StorePersister, is_store_path, open_persister

__all__ = [
    "KEY_VERSION",
    "CacheKeyInfo",
    "build_cache_key",
    "exact_key_content",
    "structure_bucket",
    "CachePersistenceWarning",
    "DocumentPersister",
    "DocumentSync",
    "dump_document",
    "load",
    "restore_document",
    "save",
    "save_document",
    "DEFAULT_CAPACITY",
    "CacheDelta",
    "CacheEntry",
    "PlanCache",
    "PlanStore",
    "StorePersister",
    "is_store_path",
    "open_persister",
    "PlanRecipe",
    "plan_recipe",
    "replay_recipe",
]
