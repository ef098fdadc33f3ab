"""Worker-process side of the serving daemon's persistent pool.

Module-level functions (they must pickle by reference under every
multiprocessing start method) plus the per-process state they share.
Unlike the batch backend in :mod:`repro.optimizer` — whose workers are
born with one full snapshot and die with the batch — serving workers
live for the daemon's lifetime and are kept warm **incrementally**:
every task carries a :class:`~repro.cache.plan_cache.CacheDelta` (the
entries written to the parent cache since the pool's sync floor), and
the worker absorbs only what is newer than its own cursor.  That delta
is the only way a worker learns about plans computed elsewhere; its
own pipeline's cache probe then serves anything it already holds.

Epoch handling: a delta whose ``epoch`` differs from the last one this
worker saw means the parent's statistics moved (``bump-epoch`` op).
The worker bumps its local cache first, so everything it absorbed
earlier turns stale exactly like the parent's entries did, then
absorbs the delta's entries fresh — they were fresh at the parent's
new epoch by :meth:`~repro.cache.plan_cache.PlanCache.sync_since`'s
contract.

Namespaces: the key-space isolation lives in
``OptimizerConfig.cache_namespace`` (folded into every cache key), so
one process-local cache serves all namespaces; the worker just keeps
one ``Optimizer`` per namespace so each request is keyed under the
right one.
"""

from __future__ import annotations

import os
import socket
from dataclasses import replace
from typing import Any, Optional

from ..cache.plan_cache import PlanCache
from ..cache.recipe import plan_recipe
from ..registry import restore_registrations
from .protocol import wire_to_spec

#: per-worker-process state, populated by :func:`serving_worker_init`
_SERVING_STATE: "dict[str, Any]" = {}


def _close_inherited_inet_sockets() -> None:
    """Drop the parent's TCP file descriptors from this worker.

    Under the ``fork`` start method a worker inherits every open fd of
    the daemon — including the *listening* socket and any accepted
    client connections alive at fork time.  Workers never serve those
    fds, but holding them has real consequences: the kernel keeps
    accepting connections on the daemon's port after the parent closed
    the listener (shutdown looks incomplete to clients), and a client
    waiting for EOF never sees the FIN until the worker exits.
    Multiprocessing's own control channels are pipes and unix-domain
    sockets, so closing only the inet families is always safe; under
    ``spawn``/``forkserver`` nothing is inherited and this is a no-op.
    """
    try:
        fd_names = os.listdir("/proc/self/fd")
    except OSError:  # pragma: no cover - non-procfs platform
        return
    for name in fd_names:
        try:
            sock = socket.socket(fileno=int(name))
        except (OSError, ValueError):
            continue  # not a socket (or already gone)
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            sock.close()
        else:
            sock.detach()  # release ownership without closing


def serving_worker_init(config: Any, registrations: list) -> None:
    """Pool initializer: one optimizer home + cold cache per worker.

    ``config`` is the daemon's base :class:`~repro.optimizer.
    OptimizerConfig`; persistence and autosave are stripped — the
    parent owns the cache file, workers must never touch it.  Custom
    solver registrations are restored before any config validation
    resolves algorithm names.
    """
    _close_inherited_inet_sockets()
    restore_registrations(registrations)
    base = replace(
        config, cache_path=None, cache_autosave=False, cache="on"
    )
    _SERVING_STATE["config"] = base
    _SERVING_STATE["cache"] = PlanCache(base.cache_size)
    _SERVING_STATE["optimizers"] = {}
    _SERVING_STATE["synced_to"] = 0
    _SERVING_STATE["parent_epoch"] = 0


def _apply_delta(delta: "dict[str, Any]") -> None:
    """Absorb the parent's delta, filtered by this worker's cursor."""
    cache: PlanCache = _SERVING_STATE["cache"]
    synced_to: int = _SERVING_STATE["synced_to"]
    if delta["epoch"] != _SERVING_STATE["parent_epoch"]:
        # parent statistics moved: stale-ify everything local first
        cache.bump_epoch()
        _SERVING_STATE["parent_epoch"] = delta["epoch"]
    fresh = [
        (key, recipe, structure, cost)
        for mutation_id, key, recipe, structure, cost in delta["entries"]
        if mutation_id > synced_to
    ]
    if fresh:
        cache.absorb(fresh)
    if delta["now"] > synced_to:
        _SERVING_STATE["synced_to"] = delta["now"]


def _optimizer_for(namespace: Optional[str]) -> Any:
    """The per-namespace Optimizer, all sharing this worker's cache."""
    from ..optimizer import Optimizer  # local: import cycle

    optimizers: dict = _SERVING_STATE["optimizers"]
    if namespace not in optimizers:
        config = _SERVING_STATE["config"]
        if namespace is not None:
            config = replace(config, cache_namespace=namespace)
        optimizers[namespace] = Optimizer(
            config, plan_cache=_SERVING_STATE["cache"]
        )
    return optimizers[namespace]


def serving_worker_run(task: "dict[str, Any]") -> "dict[str, Any]":
    """Optimize one request in this worker; return a portable payload.

    Like the batch backend, the payload is not a plan but the join
    tree as an identity-space recipe the parent replays through the
    requesting query's own builder — plus this worker's pid and
    synced-to cursor, which the parent's
    :class:`~repro.serving.sync.DeltaTracker` folds into the pool's
    sync floor.
    """
    _apply_delta(task["delta"])
    spec = wire_to_spec(task["query"])
    optimizer = _optimizer_for(task.get("namespace"))
    # the pipeline's own cache probe serves anything an earlier delta
    # (or an earlier task in this worker) already delivered
    result = optimizer._run_pipeline(
        spec, None, None, _SERVING_STATE["cache"]
    )
    payload: "dict[str, Any]" = {
        "pid": os.getpid(),
        "synced_to": _SERVING_STATE["synced_to"],
        "stats": result.stats.as_dict(),
    }
    if result.plan is None or result.graph is None:
        payload["recipe"] = None
    else:
        identity = tuple(range(result.graph.n_nodes))
        payload["recipe"] = plan_recipe(result.plan, identity)
    return payload


def serving_worker_kill() -> None:
    """Debug op: die without cleanup, as a crashed worker would.

    ``os._exit`` skips every handler and atexit hook — the pool sees
    an abrupt worker death, exactly what the failure-path tests need
    to provoke ``BrokenProcessPool`` deterministically.
    """
    os._exit(1)
