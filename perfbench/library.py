"""The in-process workloads: ``lib-hot``, ``lib-cold`` and ``batch-store``.

Each drives the public library surface (``Optimizer.optimize`` or
``Optimizer.optimize_many``) in a closed loop on one thread.  Queries
are built between timed calls, never inside them, and every answer is
checked against the oracle after the clock stops.
"""

from __future__ import annotations

import itertools
import os
import shutil
import time
from typing import Any, Callable, Optional

from repro import Optimizer
from repro.optimizer import OptimizerConfig

from . import gen, oracle
from .common import (
    Outcome,
    Run,
    calibrate,
    file_bytes,
    peak_rss_mb,
    probe_setup,
    time_setup,
)
from .layers import Layers
from .stats import geomean, histogram, percentile, summarize, windowed
from .tracing import Recorder, Span, traced_config

#: requests built per untimed batch of the closed loops
CHUNK = 256
#: the closed loops re-measure host speed this often (between requests)
CAL_INTERVAL_S = 0.1
#: fixed request counts of the traced run (exact repeat between runs)
TRACE_COUNT = {"lib-hot": 3000, "lib-cold": 600, "batch-store": 24}
#: latency limit of ``goodput_frac``, per workload (ms)
LIMIT_MS = {"lib-hot": 5.0, "lib-cold": 100.0, "batch-store": 500.0}
#: tail percentile reported as ``latency_tail_ms``
TAIL_Q = {"lib-hot": 95.0, "lib-cold": 95.0, "batch-store": 75.0}

BATCH_SIZE = 32
#: untimed batches that fill the 512-entry cache from the 64 warm ones
WARMUP_BATCHES = 28
#: a repeat in batch-store relabels one of the last this-many uniques
REPEAT_WINDOW = 128


# -- preparation (untimed) ---------------------------------------------------


def prepare_hot(seed: int, tmp: str) -> "tuple[list, list[float], str]":
    """Working set, its optimal costs, and the pristine warm store."""
    members = gen.working_set(seed)
    optima = [oracle.reference(query)[0] for query in members]
    warm = Optimizer(cache="on")
    for query in members:
        warm.optimize(query)
    pristine = os.path.join(tmp, "pristine.sqlite")
    warm.save_cache(pristine)
    return members, optima, pristine


# -- the closed loop ---------------------------------------------------------


class Answer:
    """What the checker needs from one answered request."""

    __slots__ = ("ns", "factor", "cost", "algorithm", "ccp", "ref")

    def __init__(self, ns: int, factor: float, result: Any,
                 ref: Any) -> None:
        self.ns = ns
        self.factor = factor
        self.cost = result.cost if result.plan is not None else None
        self.algorithm = result.algorithm
        # process-executor misses are enumerated in a worker
        worker = result.stats.extra.get("process_worker")
        self.ccp = (worker["ccp_emitted"] if worker
                    else result.stats.ccp_emitted)
        self.ref = ref


def closed_loop(
    optimizer: Optimizer,
    requests: Callable[[int], "tuple[Any, Any]"],
    seconds: Optional[float],
    count: Optional[int],
    recorder: Optional[Recorder] = None,
) -> "list[Answer]":
    """Send requests back to back for ``seconds`` or ``count`` requests.

    ``requests(i)`` returns ``(query, ref)``; ``ref`` names the oracle
    entry the answer is checked against.  Host speed is measured every
    :data:`CAL_INTERVAL_S` between requests, and each answer gets the
    mean of the measurements that bracket it.
    """
    answers: "list[Answer]" = []
    deadline = None if seconds is None else time.perf_counter() + seconds
    index = 0
    marks: "list[tuple[int, float]]" = []  # (first answer after, factor)
    calibrated_at = 0.0
    while (count is None or index < count) and (
            deadline is None or time.perf_counter() < deadline):
        for query, ref in [requests(index + k) for k in range(CHUNK)]:
            now = time.perf_counter()
            if count is not None and index >= count:
                break
            if deadline is not None and now >= deadline:
                break
            if now - calibrated_at >= CAL_INTERVAL_S:
                marks.append((index, calibrate()))
                calibrated_at = time.perf_counter()
            if recorder is None:
                start = time.perf_counter_ns()
                result = optimizer.optimize(query)
                took = time.perf_counter_ns() - start
            else:
                with Span(recorder, "request", index) as span:
                    result = optimizer.optimize(query)
                took = time.perf_counter_ns() - span.start
            answers.append(Answer(took, 1.0, result, ref))
            index += 1
    marks.append((index, calibrate()))
    for (first, before), (end, after) in zip(marks, marks[1:]):
        for answer in answers[first:end]:
            answer.factor = (before + after) / 2
    return answers


def checked(answers: "list[Answer]", optimum: Callable[[Any], float],
            limit_ms: float) -> "tuple[int, int, list[float]]":
    """``(wrong, good, ratios)``: wrong answers, answers within limit."""
    wrong = good = 0
    ratios = []
    for answer in answers:
        best = optimum(answer.ref)
        if not oracle.check(answer.cost, answer.algorithm, best):
            wrong += 1
            continue
        ratios.append(answer.cost / best)
        if answer.ns / 1e6 <= limit_ms:
            good += 1
    return wrong, good, ratios


# -- request streams -------------------------------------------------------


def hot_stream(members: list, seed: int) -> Callable[[int], "tuple"]:
    def request(index: int) -> "tuple":
        member, relabel = gen.hot_request(members, seed, "lib-hot", index)
        return gen.materialize(members, member, relabel), ("m", member)

    return request


def cold_stream(seed: int) -> Callable[[int], "tuple"]:
    def request(index: int) -> "tuple":
        return gen.unique_query(gen.COLD_DECK, seed, "cold", index), (
            "u", index
        )

    return request


def batch_items(members: list, seed: int, batch: int) -> "list[tuple]":
    """One batch-store batch: 16 unique queries and 16 relabeled repeats.

    Items are ``(query, ref, kind)``; a repeat relabels a working-set
    member or one of the last :data:`REPEAT_WINDOW` unique queries.
    """
    rng = gen.seeded(seed, "batch-mix", batch)
    half = BATCH_SIZE // 2
    first = batch * half
    items = []
    for k in range(half):
        index = first + k
        items.append((gen.unique_query(gen.BATCH_DECK, seed, "batch", index),
                      ("u", index), "unique"))
    for _ in range(half):
        window = min(first, REPEAT_WINDOW)
        pick = rng.randrange(len(members) + window)
        relabel = rng.randrange(1 << 31)
        if pick < len(members):
            source, ref = members[pick], ("m", pick)
        else:
            index = first - window + (pick - len(members))
            source = gen.unique_query(gen.BATCH_DECK, seed, "batch", index)
            ref = ("u", index)
        items.append((gen.relabeled(source, seed=relabel), ref, "relabel"))
    rng.shuffle(items)
    return items


# -- workload runners ------------------------------------------------------


def _optimum_lookup(optima: "list[float]",
                    uniques: "list[tuple[float, float]]") -> Callable:
    def optimum(ref: "tuple[str, int]") -> float:
        kind, index = ref
        return optima[index] if kind == "m" else uniques[index][0]

    return optimum


def _shares_hot(members: list, seed: int, count: int) -> "dict[str, Any]":
    """Measured shares: a request is an exact repeat when its bytes were
    sent (or stored warm) before, else a relabeling of a stored query."""
    seen = {hash(gen.query_digest(m)) for m in members}
    exact = relabel = 0
    labels = []
    for index in range(count):
        member, relabel_seed = gen.hot_request(members, seed, "lib-hot",
                                               index)
        labels.append(members[member].description)
        digest = hash(gen.query_digest(
            gen.materialize(members, member, relabel_seed)))
        if digest in seen:
            exact += 1
        else:
            relabel += 1
            seen.add(digest)
    return {"exact_repeat": exact / count, "relabeling": relabel / count,
            "unique": 0.0, "requests": count,
            "shape_n": histogram(labels)}


def run_lib(run: Run) -> Outcome:
    hot = run.workload == "lib-hot"
    detail: "dict[str, Any]" = {}
    members: list = []
    optima: "list[float]" = []
    pristine = ""
    if hot:
        members, optima, pristine = prepare_hot(run.seed, run.tmp)
        stream = hot_stream(members, run.seed)
    else:
        stream = cold_stream(run.seed)
    copies = itertools.count()

    def fresh_optimizer(recorder: Optional[Recorder] = None) -> Optimizer:
        config = OptimizerConfig(cache="on")
        if hot:
            path = shutil.copyfile(pristine, os.path.join(
                run.tmp, f"store-{next(copies)}.sqlite"))
            config = OptimizerConfig(cache="on", cache_path=path)
        if recorder is not None:
            config = traced_config(config, recorder)
        return Optimizer(config)

    if run.trace:
        return _trace_lib(run, fresh_optimizer, stream, members, optima)

    optimizer = fresh_optimizer()
    optimizer.plan_cache  # load the warm store before the clock starts
    answers = closed_loop(optimizer, stream, run.seconds, None)
    rss = peak_rss_mb()
    counters = optimizer.plan_cache.counters()

    store_arg = pristine if hot else "-"
    setup_s, setup_samples = time_setup(
        lambda: probe_setup([run.workload, str(run.seed), store_arg,
                             run.tmp]))
    uniques = [] if hot else oracle.unique_references(
        "COLD_DECK", run.seed, "cold", len(answers))
    wrong, good, ratios = checked(
        answers, _optimum_lookup(optima, uniques), LIMIT_MS[run.workload])
    latencies = [a.ns / a.factor / 1e6 for a in answers]
    tail_q = TAIL_Q[run.workload]
    summary = windowed(latencies, tail_q)
    busy_s = sum(a.ns / a.factor for a in answers) / 1e9
    n = len(answers)
    if hot:
        detail["shares"] = _shares_hot(members, run.seed, n)
        misses = counters["misses"]
        if misses:
            detail["unexpected_misses"] = misses
    else:
        labels = [gen.dealt(gen.COLD_DECK, run.seed, "cold", i)
                  for i in range(n)]
        detail["shares"] = {
            "exact_repeat": 0.0, "relabeling": 0.0, "unique": 1.0,
            "requests": n,
            "greedy_loses": sum(
                1 for _opt, greedy in uniques
                if greedy > _opt * (1 + oracle.REL_TOL)) / max(1, n),
            "shape_n": histogram([f"{s}-{k}" for s, k in labels]),
        }
        detail["auto_picks"] = histogram([a.algorithm for a in answers])
    detail.update(latency=summary, setup_samples_s=setup_samples,
                  cache=counters, wrong=wrong,
                  raw_latency=summarize([a.ns / 1e6 for a in answers],
                                        tail_q))
    metrics = {
        "setup_s": (setup_s, "s"),
        "latency_p50_ms": (summary["window_p50"], "ms"),
        "latency_tail_ms": (summary["window_tail"], "ms"),
        "throughput_qps": (n / busy_s, "1/s"),
        "goodput_frac": (good / n, "frac"),
        "plan_cost_ratio": (geomean(ratios) if ratios else 1.0, "ratio"),
        "peak_rss_mb": (rss, "MB"),
    }
    return Outcome(n, wrong, wrong == 0 and n > 0, metrics, detail)


def _trace_lib(run: Run, fresh_optimizer: Callable, stream: Callable,
               members: list, optima: "list[float]") -> Outcome:
    count = TRACE_COUNT[run.workload]
    plain = closed_loop(fresh_optimizer(), stream, None, count)
    recorder = Recorder()
    optimizer = fresh_optimizer(recorder)
    start = time.perf_counter()
    optimizer.plan_cache
    load_ms = (time.perf_counter() - start) * 1e3
    traced = closed_loop(optimizer, stream, None, count, recorder)
    hot = run.workload == "lib-hot"
    uniques = [] if hot else oracle.unique_references(
        "COLD_DECK", run.seed, "cold", count)
    wrong = 0
    for answers in (plain, traced):
        wrong += checked(answers, _optimum_lookup(optima, uniques),
                         LIMIT_MS[run.workload])[0]
    layers = Layers(recorder.as_dicts())
    layers.optimizer(traced, optimizer.plan_cache.counters())
    layers.overhead(plain, traced)
    if hot:
        layers.set("store.load_ms", load_ms)
        layers.set("store.bytes_on_disk",
                   file_bytes(optimizer.config.cache_path))
    return Outcome(2 * count, wrong, wrong == 0, layers.metrics(),
                   layers.detail)


def run_batch(run: Run) -> Outcome:
    members, optima, pristine = prepare_hot(run.seed, run.tmp)
    copies = itertools.count()

    def store_copy() -> str:
        return shutil.copyfile(pristine, os.path.join(
            run.tmp, f"batch-{next(copies)}.sqlite"))

    if run.trace:
        return _trace_batch(run, members, optima, store_copy)
    optimizer = Optimizer(executor="process", parallel_workers=2,
                          cache_path=store_copy())
    optimizer.plan_cache  # load the warm store before the clock starts
    batches, answers, warm = batch_loop(optimizer, members, run.seed,
                                        run.seconds, None)
    rss = peak_rss_mb()
    counters = optimizer.plan_cache.counters()
    setup_s, setup_samples = time_setup(
        lambda: probe_setup(["batch-store", str(run.seed), pristine,
                             run.tmp]))
    n_unique = (WARMUP_BATCHES + len(batches)) * (BATCH_SIZE // 2)
    uniques = oracle.unique_references("BATCH_DECK", run.seed, "batch",
                                       n_unique)
    optimum = _optimum_lookup(optima, uniques)
    wrong, good_queries, ratios = checked(answers, optimum,
                                          LIMIT_MS["batch-store"])
    wrong += checked(warm, optimum, LIMIT_MS["batch-store"])[0]
    batch_ms = [ns / factor / 1e6 for ns, factor in batches]
    summary = windowed(batch_ms, TAIL_Q["batch-store"])
    n = len(answers)
    metrics = {
        "setup_s": (setup_s, "s"),
        "latency_p50_ms": (summary["window_p50"], "ms"),
        "latency_tail_ms": (summary["window_tail"], "ms"),
        "throughput_qps": (n / (sum(ms for ms in batch_ms) / 1e3), "1/s"),
        "goodput_frac": (good_queries / n, "frac"),
        "plan_cost_ratio": (geomean(ratios), "ratio"),
        "peak_rss_mb": (rss, "MB"),
    }
    detail = {
        "latency": summary, "setup_samples_s": setup_samples,
        "raw_latency": summarize([ns / 1e6 for ns, _f in batches],
                                 TAIL_Q["batch-store"]),
        "cache": counters, "wrong": wrong,
        "shares": _shares_batch(members, run.seed, len(batches)),
    }
    return Outcome(n + len(warm), wrong, wrong == 0 and n > 0, metrics,
                   detail)


def _shares_batch(members: list, seed: int, timed: int) -> "dict[str, Any]":
    """Measured shares of the timed batches (relabelings are fresh bytes)."""
    kinds, labels = [], []
    for batch in range(WARMUP_BATCHES, WARMUP_BATCHES + timed):
        for query, ref, kind in batch_items(members, seed, batch):
            kinds.append(kind if kind == "unique" else f"relabel-{ref[0]}")
            labels.append(query.description.split("~")[0])
    n = max(1, len(kinds))
    return {
        "exact_repeat": 0.0,
        "relabeling": 1.0 - kinds.count("unique") / n,
        "relabeling_of_working_set": kinds.count("relabel-m") / n,
        "unique": kinds.count("unique") / n,
        "requests": len(kinds),
        "shape_n": histogram(labels),
    }


def batch_loop(optimizer: Optimizer, members: list, seed: int,
               seconds: Optional[float], count: Optional[int],
               recorder: Optional[Recorder] = None,
               ) -> "tuple[list[tuple[int, float]], list[Answer], list[Answer]]":
    """Closed loop of ``optimize_many`` calls after an untimed warm-up.

    The first :data:`WARMUP_BATCHES` batches fill the cache to capacity
    untimed, so every timed batch ships the same size of snapshot to
    its pool and evicts as it stores.  Returns ``(ns, speed factor)``
    per timed batch, one answer per timed query, and the warm-up
    answers (checked like the rest).
    """
    warm: "list[Answer]" = []
    if recorder is not None:
        recorder.enabled = False
    for batch in range(WARMUP_BATCHES):
        items = batch_items(members, seed, batch)
        results = optimizer.optimize_many([q for q, _r, _k in items])
        warm.extend(Answer(0, 1.0, result, ref)
                    for (_q, ref, _k), result in zip(items, results))
    if recorder is not None:
        recorder.enabled = True
    batches: "list[tuple[int, float]]" = []
    answers: "list[Answer]" = []
    deadline = None if seconds is None else time.perf_counter() + seconds
    batch = WARMUP_BATCHES
    while True:
        if count is not None and len(batches) >= count:
            break
        if deadline is not None and time.perf_counter() >= deadline:
            break
        items = batch_items(members, seed, batch)
        queries = [query for query, _ref, _kind in items]
        before = calibrate()
        if recorder is None:
            start = time.perf_counter_ns()
            results = optimizer.optimize_many(queries)
            took = time.perf_counter_ns() - start
        else:
            with Span(recorder, "batch", batch) as span:
                results = optimizer.optimize_many(queries)
            took = time.perf_counter_ns() - span.start
        # a batch lasts ~0.1 s: bracket it with two speed measurements
        factor = (before + calibrate()) / 2
        batches.append((took, factor))
        for (_query, ref, _kind), result in zip(items, results):
            answers.append(Answer(took, factor, result, ref))
        batch += 1
    return batches, answers, warm


class _TracedBatchOptimizer(Optimizer):
    """Times the batch-end autosave, the one seam with no public hook."""

    recorder: Recorder

    def _autosave(self, cache: Any) -> None:
        start = time.perf_counter_ns()
        try:
            super()._autosave(cache)
        finally:
            self.recorder.add("store.save", start, time.perf_counter_ns())


def _trace_batch(run: Run, members: list, optima: "list[float]",
                 store_copy: Callable[[], str]) -> Outcome:
    count = TRACE_COUNT["batch-store"]
    plain_opt = Optimizer(executor="process", parallel_workers=2,
                          cache_path=store_copy())
    plain_batches, plain, plain_warm = batch_loop(
        plain_opt, members, run.seed, None, count)
    recorder = Recorder()
    config = traced_config(OptimizerConfig(
        executor="process", parallel_workers=2, cache_path=store_copy()),
        recorder)
    optimizer = _TracedBatchOptimizer(config)
    optimizer.recorder = recorder
    start = time.perf_counter()
    optimizer.plan_cache
    load_ms = (time.perf_counter() - start) * 1e3
    traced_batches, traced, traced_warm = batch_loop(
        optimizer, members, run.seed, None, count, recorder)
    uniques = oracle.unique_references(
        "BATCH_DECK", run.seed, "batch",
        (WARMUP_BATCHES + count) * BATCH_SIZE // 2)
    wrong = sum(
        checked(answers, _optimum_lookup(optima, uniques), 1e9)[0]
        for answers in (plain, traced, plain_warm, traced_warm))
    layers = Layers(recorder.as_dicts())
    layers.optimizer(traced, optimizer.plan_cache.counters())
    layers.batch([ns for ns, _factor in traced_batches])
    layers.overhead_values(
        percentile([ns / f / 1e6 for ns, f in plain_batches], 50),
        percentile([ns / f / 1e6 for ns, f in traced_batches], 50))
    store = optimizer._persister().counters()
    layers.set("store.load_ms", load_ms)
    layers.set("store.rows_written", store["rows_written"])
    layers.set("store.bytes_on_disk", file_bytes(config.cache_path))
    checked_answers = len(plain) + len(traced) + len(plain_warm) + len(
        traced_warm)
    return Outcome(checked_answers, wrong, wrong == 0,
                   layers.metrics(), layers.detail)
