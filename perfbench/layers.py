"""Per-layer metrics of a traced run, reduced from spans and counters.

Every traced run reports every name in :data:`PER_LAYER`; a layer a
workload does not reach reads 0.  Span names match the metric names:
``optimizer.normalize`` gives ``optimizer.normalize_us.p50``.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.registry import get_algorithm

from .stats import percentile, self_times, summarize
from .tracing import STAGE_SPANS

#: ``(name, unit, better)`` of every per-layer metric, in report order
PER_LAYER: "tuple[tuple[str, str, str], ...]" = (
    ("optimizer.normalize_us.p50", "us", "lower"),
    ("optimizer.fingerprint_us.p50", "us", "lower"),
    ("optimizer.fingerprint_us.p99", "us", "lower"),
    ("cache.lookup_us.p50", "us", "lower"),
    ("optimizer.dispatch_ms.p50", "ms", "lower"),
    ("optimizer.dispatch_ms.p99", "ms", "lower"),
    ("core.ns_per_ccp", "ns", "lower"),
    ("core.ccp_per_query", "count", "lower"),
    # auto's slower exact picks; the kernel is the fastest exact one
    ("registry.auto.dpccp_frac", "frac", "lower"),
    ("registry.auto.dphyp_frac", "frac", "lower"),
    ("registry.auto.dphyp-kernel_frac", "frac", "higher"),
    ("registry.auto.greedy_frac", "frac", "lower"),
    ("cache.store_us.p50", "us", "lower"),
    ("optimizer.finalize_us.p50", "us", "lower"),
    ("cache.hit_ratio", "frac", "higher"),
    ("cache.evictions", "count", "lower"),
    ("cache.canonical_fallbacks", "count", "lower"),
    ("cache.replay_failures", "count", "lower"),
    ("serving.overhead_ms.p50", "ms", "lower"),
    ("serving.pool_roundtrip_ms.p50", "ms", "lower"),
    ("serving.pool_roundtrip_ms.p99", "ms", "lower"),
    ("serving.delta_entries", "count", "lower"),
    ("serving.delta_bytes", "B", "lower"),
    ("serving.tier_hit_ratio", "frac", "higher"),
    ("serving.served_pool_frac", "frac", "lower"),
    ("serving.rejected", "count", "lower"),
    ("serving.window_rejections", "count", "lower"),
    ("serving.pool_rebuilds", "count", "lower"),
    ("store.load_ms", "ms", "lower"),
    ("store.save_ms.p50", "ms", "lower"),
    ("store.save_ms.p99", "ms", "lower"),
    ("store.rows_written", "count", "lower"),
    ("store.bytes_on_disk", "B", "lower"),
    ("optimizer.batch_offload_ms.p50", "ms", "lower"),
    ("loadgen.lag_ms.p99", "ms", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)
UNITS = {name: unit for name, unit, _better in PER_LAYER}
AUTO_PICKS = ("dpccp", "dphyp", "dphyp-kernel", "greedy")


class Layers:
    """Accumulates per-layer values and the detail table of one run."""

    def __init__(self, spans: "list[dict]") -> None:
        self.spans = spans
        self.own = self_times(spans)
        self.values: "dict[str, float]" = {}
        self.detail: "dict[str, Any]" = {"self_time_us": {
            name: summarize([ns / 1e3 for ns in times], 99)
            for name, times in sorted(self.own.items())
        }}

    def set(self, name: str, value: float) -> None:
        if name not in UNITS:
            raise KeyError(f"unknown per-layer metric {name!r}")
        self.values[name] = float(value)

    def _pct(self, span: str, q: float, scale: float) -> float:
        times = self.own.get(span)
        return percentile(times, q) / scale if times else 0.0

    def optimizer(self, answers: Sequence[Any],
                  counters: "dict[str, Any]") -> None:
        """Stage spans, enumeration work, auto picks and cache counters."""
        us, ms = 1e3, 1e6
        self.set("optimizer.normalize_us.p50",
                 self._pct("optimizer.normalize", 50, us))
        self.set("optimizer.fingerprint_us.p50",
                 self._pct("optimizer.fingerprint", 50, us))
        self.set("optimizer.fingerprint_us.p99",
                 self._pct("optimizer.fingerprint", 99, us))
        self.set("cache.lookup_us.p50", self._pct("cache.lookup", 50, us))
        self.set("cache.store_us.p50", self._pct("cache.store", 50, us))
        self.set("optimizer.dispatch_ms.p50",
                 self._pct("optimizer.dispatch", 50, ms))
        self.set("optimizer.dispatch_ms.p99",
                 self._pct("optimizer.dispatch", 99, ms))
        self.set("optimizer.finalize_us.p50",
                 self._pct("optimizer.finalize", 50, us))
        dispatch_ns: "dict[Any, int]" = {}
        for span in self.spans:
            if span["name"] == "optimizer.dispatch":
                dispatch_ns[span["rid"]] = (
                    dispatch_ns.get(span["rid"], 0)
                    + span["end"] - span["start"]
                )
        exact_ns = exact_ccp = 0
        for rid, answer in enumerate(answers):
            if rid in dispatch_ns and get_algorithm(answer.algorithm).exact:
                exact_ns += dispatch_ns[rid]
                exact_ccp += answer.ccp
        self.set("core.ns_per_ccp", exact_ns / exact_ccp if exact_ccp else 0)
        n = max(1, len(answers))
        self.set("core.ccp_per_query", sum(a.ccp for a in answers) / n)
        for pick in AUTO_PICKS:
            self.set(f"registry.auto.{pick}_frac",
                     sum(1 for a in answers if a.algorithm == pick) / n)
        self.cache_counters(counters)

    def cache_counters(self, counters: "dict[str, Any]") -> None:
        probes = counters["hits"] + counters["misses"] + counters[
            "revalidations"]
        self.set("cache.hit_ratio", counters["hits"] / probes if probes else 0)
        self.set("cache.evictions", counters["evictions"])
        self.set("cache.canonical_fallbacks", counters["canonical_fallbacks"])
        self.set("cache.replay_failures", counters["replay_failures"])
        self.detail["cache"] = counters

    def batch(self, batch_ns: Iterable[int]) -> None:
        """Batch self time (offload) and the autosave spans."""
        self.set("optimizer.batch_offload_ms.p50",
                 self._pct("batch", 50, 1e6))
        self.set("store.save_ms.p50", self._pct("store.save", 50, 1e6))
        self.set("store.save_ms.p99", self._pct("store.save", 99, 1e6))
        self.detail["batch_ms"] = summarize(
            [ns / 1e6 for ns in batch_ns], 90)

    def overhead(self, plain: Sequence[Any], traced: Sequence[Any]) -> None:
        """Tracing cost, and how well the stage spans explain a request."""
        def p50(answers: Sequence[Any]) -> float:
            return percentile([a.ns / a.factor / 1e6 for a in answers], 50)

        self.overhead_values(p50(plain), p50(traced))
        # spans are raw times, so compare them with the raw request p50
        raw_p50 = percentile([a.ns / 1e6 for a in traced], 50)
        stage_sum = sum(self._pct(name, 50, 1e6) for name in STAGE_SPANS)
        self.detail["stage_p50_sum_ms"] = stage_sum
        self.detail["stage_p50_sum_frac"] = stage_sum / raw_p50

    def overhead_values(self, plain_p50: float, traced_p50: float) -> None:
        """Both p50s speed-normalized, from the untraced and traced pass."""
        self.set("trace.overhead_frac", traced_p50 / plain_p50 - 1.0)
        self.detail["latency_p50_ms"] = {"untraced": plain_p50,
                                         "traced": traced_p50}

    def metrics(self) -> "dict[str, tuple[float, str]]":
        return {
            name: (self.values.get(name, 0.0), unit)
            for name, unit, _better in PER_LAYER
        }
