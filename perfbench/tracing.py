"""Spans around the optimizer's pipeline stages, recorded from outside.

The optimizer's documented hook ``OptimizerConfig(pipeline=
PipelineStages(...))`` takes the stage objects; the classes here wrap
each built-in stage and record one span per call.  The hook is
excluded from ``OptimizerConfig.cache_key()``, so keys and plans are
unchanged.  The classes are module-level because the daemon and the
process executor pickle the config for their workers; a pickled
:class:`Recorder` arrives empty and disabled, so worker processes
neither ship spans back nor pay for recording them.
"""

from __future__ import annotations

import contextvars
import time
from dataclasses import replace
from typing import Any, Optional

from repro.optimizer import (
    CacheStage,
    DispatchStage,
    FingerprintStage,
    FinalizeStage,
    NormalizeStage,
    OptimizerConfig,
    PipelineStages,
)


def _disabled_recorder() -> "Recorder":
    return Recorder(enabled=False)


class Recorder:
    """In-memory span list: ``(name, start_ns, end_ns, parent, rid)``.

    ``rid`` and ``parent`` come from context variables the caller sets
    around each request, so concurrent asyncio tasks keep their own.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: "list[tuple[str, int, int, Optional[str], Any]]" = []
        self.rid: "contextvars.ContextVar[Any]" = contextvars.ContextVar(
            "perfbench_rid", default=None
        )
        self.parent: "contextvars.ContextVar[Optional[str]]" = (
            contextvars.ContextVar("perfbench_parent", default=None)
        )

    def __reduce__(self) -> "tuple":
        return (_disabled_recorder, ())

    def add(self, name: str, start: int, end: int) -> None:
        if self.enabled:
            self.spans.append(
                (name, start, end, self.parent.get(), self.rid.get())
            )

    def as_dicts(self) -> "list[dict]":
        return [
            {"name": n, "start": s, "end": e, "parent": p, "rid": r}
            for n, s, e, p, r in self.spans
        ]


class TimedStage:
    """A callable pipeline stage that records one span per call."""

    def __init__(self, name: str, inner: Any, recorder: Recorder) -> None:
        self.name = name
        self.inner = inner
        self.recorder = recorder

    def __call__(self, ctx: Any) -> Any:
        start = time.perf_counter_ns()
        try:
            return self.inner(ctx)
        finally:
            self.recorder.add(self.name, start, time.perf_counter_ns())


class TimedCacheStage(CacheStage):
    """``CacheStage`` whose ``lookup`` (probe + replay) and ``store`` are timed."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder

    def lookup(self, ctx: Any) -> None:
        start = time.perf_counter_ns()
        try:
            super().lookup(ctx)
        finally:
            self.recorder.add("cache.lookup", start, time.perf_counter_ns())

    def store(self, ctx: Any) -> None:
        start = time.perf_counter_ns()
        try:
            super().store(ctx)
        finally:
            self.recorder.add("cache.store", start, time.perf_counter_ns())


#: the five stage spans whose p50s should add up to a hit's latency
STAGE_SPANS = (
    "optimizer.normalize",
    "optimizer.fingerprint",
    "cache.lookup",
    "optimizer.dispatch",
    "optimizer.finalize",
)


def traced_stages(recorder: Recorder) -> PipelineStages:
    return PipelineStages(
        normalize=TimedStage("optimizer.normalize", NormalizeStage(),
                             recorder),
        fingerprint=TimedStage("optimizer.fingerprint", FingerprintStage(),
                               recorder),
        cache=TimedCacheStage(recorder),
        dispatch=TimedStage("optimizer.dispatch", DispatchStage(), recorder),
        finalize=TimedStage("optimizer.finalize", FinalizeStage(), recorder),
    )


def traced_config(config: OptimizerConfig,
                  recorder: Recorder) -> OptimizerConfig:
    return replace(config, pipeline=traced_stages(recorder))


class Span:
    """Context manager recording one span and making it the parent."""

    def __init__(self, recorder: Recorder, name: str, rid: Any) -> None:
        self.recorder = recorder
        self.name = name
        self.rid = rid

    def __enter__(self) -> "Span":
        self._tokens = (
            self.recorder.rid.set(self.rid),
            self.recorder.parent.set(self.name),
        )
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        end = time.perf_counter_ns()
        rid_token, parent_token = self._tokens
        self.recorder.parent.reset(parent_token)
        self.recorder.add(self.name, self.start, end)
        self.recorder.rid.reset(rid_token)
