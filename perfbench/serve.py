"""The ``serve-open`` workload: the daemon under open-loop Poisson load.

The daemon runs as its own process (``python -m repro.serving
--workers 2``, or its traced variant, both started through
:mod:`perfbench.launcher`), from a byte-identical copy of the pristine
warm store.  One asyncio load generator sends
protocol-v2 frames over two connections at seeded Poisson arrival
times and times each request from when it was due, so a stall also
charges the requests queued behind it.

The run is cut into segments of about half a second.  After each
segment the generator waits for every answer, lets the daemon settle,
and measures the host speed factor while the daemon has nothing to do;
a segment's latencies are divided by the mean of the factors measured
on either side of it.  The daemon's own CPU use therefore cannot move
the factor.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import re
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Optional

from repro.optimizer import QuerySpec
from repro.serving.client import PlanClient
from repro.serving.protocol import encode_frame, read_frame, spec_to_wire

from . import gen, oracle
from .common import (
    ROOT,
    SETUP_REPEATS,
    Outcome,
    Run,
    alive,
    calibrate,
    child_env,
    children,
    file_bytes,
    peak_rss_mb,
)
from .layers import Layers
from .library import prepare_hot
from .stats import (
    geomean,
    histogram,
    percentile,
    summarize,
    window_bounds,
    windowed,
)

#: offered load (requests per second) and connections
RATE = 120.0
CONNECTIONS = 2
#: one ``save`` op per this many optimize requests
SAVE_EVERY = 100
#: requests of each traced-run pass
TRACE_COUNT = 600
#: goodput latency limit (ms) and the tail percentile reported
LIMIT_MS = 50.0
TAIL_Q = 95.0
#: per block of 8 requests: 2 unique misses, 6 working-set hits
BLOCK, MISSES_PER_BLOCK = 8, 2
#: segments per percentile window; the load pauses between segments
SEGMENTS = 4
#: windows whose steal share exceeds this are left out of the medians
STEAL_LIMIT = 0.05
#: wait after a segment's last answer before calibrating, and before
#: a segment's first request is due (s)
SETTLE_S, LEAD_S = 0.02, 0.01

_LISTENING = re.compile(r"listening on ([^\s:]+):(\d+)")
_FACTOR = re.compile(r"^speed factor (\S+)")


# -- the schedule ----------------------------------------------------------


class Request:
    __slots__ = ("rid", "due", "frame", "ref", "kind", "label", "conn",
                 "segment", "sent", "done", "response")

    def __init__(self, rid: Any, due: float, frame: bytes, ref: Any,
                 kind: str, label: str, conn: int, segment: int) -> None:
        self.rid, self.due, self.frame = rid, due, frame
        self.ref, self.kind, self.label, self.conn = ref, kind, label, conn
        self.segment = segment
        self.sent = self.done = 0.0
        self.response: "Optional[dict]" = None


def _wire(query: Any) -> "dict[str, Any]":
    return spec_to_wire(QuerySpec.from_hypergraph(query.graph,
                                                  query.cardinalities))


def schedule(members: list, seed: int, count: int) -> "list[Request]":
    """``count`` optimize requests plus one ``save`` per SAVE_EVERY.

    ``count`` is rounded down to whole percentile windows, each cut
    into :data:`SEGMENTS` segments; due times restart at 0 in each.
    """
    bounds = window_bounds(count, TAIL_Q)
    size = bounds[0][1]
    rng = gen.seeded(seed, "serve-arrivals")
    due = 0.0
    out: "list[Request]" = []
    misses = 0
    for index in range(len(bounds) * size):
        window, offset = divmod(index, size)
        segment = window * SEGMENTS + offset * SEGMENTS // size
        if out and segment != out[-1].segment:
            due = 0.0
        due += rng.expovariate(RATE)
        block, slot = divmod(index, BLOCK)
        miss_slots = gen.seeded(seed, "serve-block", block).sample(
            range(BLOCK), MISSES_PER_BLOCK)
        if slot in miss_slots:
            query = gen.unique_query(gen.SERVE_MISS_DECK, seed, "serve",
                                     misses)
            ref, kind = ("u", misses), "miss"
            misses += 1
        else:
            member, relabel = gen.hot_request(members, seed, "serve", index)
            query = gen.materialize(members, member, relabel)
            ref = ("m", member)
            kind = "exact" if relabel is None else "relabel"
        frame = encode_frame({"op": "optimize", "query": _wire(query),
                              "id": index})
        out.append(Request(index, due, frame, ref, kind,
                           query.description.split("~")[0],
                           index % CONNECTIONS, segment))
        if (index + 1) % SAVE_EVERY == 0:
            rid = f"save-{index}"
            out.append(Request(rid, due, encode_frame(
                {"op": "save", "id": rid}), None, "save", "save", 0,
                segment))
    return out


# -- the load generator ----------------------------------------------------


class Segment:
    """Host facts around one segment of the schedule."""

    __slots__ = ("before", "after", "busy", "steal")

    def __init__(self, before: float, after: float, busy: int,
                 steal: int) -> None:
        self.before, self.after = before, after
        self.busy, self.steal = busy, steal

    @property
    def factor(self) -> float:
        return (self.before + self.after) / 2


def idle_factor() -> float:
    """Host speed factor; call it only while the daemon is idle."""
    return statistics.median(calibrate() for _ in range(3))


def cpu_ticks() -> "tuple[int, int]":
    """Cumulative ``(busy, steal)`` clock ticks of all vCPUs.

    Steal is time the hypervisor ran other guests while a vCPU of this
    one was runnable; busy is user, nice, system, irq and softirq time.
    """
    with open("/proc/stat") as fh:
        fields = [int(f) for f in fh.readline().split()[1:9]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return user + nice + system + irq + softirq, steal


async def _exchange(reader: asyncio.StreamReader,
                    writer: asyncio.StreamWriter,
                    requests: "list[Request]") -> None:
    """Send ``requests`` at their due times and read every answer."""
    pending = {request.rid: request for request in requests}

    async def send() -> None:
        for request in requests:
            delay = request.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            request.sent = time.perf_counter()
            writer.write(request.frame)
            await writer.drain()

    sender = asyncio.ensure_future(send())
    try:
        while pending:
            response = await read_frame(reader)
            if response is None:
                raise ConnectionError("daemon closed the connection")
            request = pending.pop(response.get("id"))
            request.done = time.perf_counter()
            request.response = response
        await sender
    finally:
        if not sender.done():
            sender.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await sender


async def _drive(address: "tuple[str, int]",
                 requests: "list[Request]") -> "list[Segment]":
    """Run the schedule segment by segment; ``due`` becomes absolute.

    Between segments every answer is in, so the host speed is measured
    with the daemon idle.
    """
    streams = [await asyncio.open_connection(*address)
               for _ in range(CONNECTIONS)]
    segments: "list[Segment]" = []
    try:
        factor = idle_factor()
        for number in range(requests[-1].segment + 1):
            part = [r for r in requests if r.segment == number]
            busy, steal = cpu_ticks()
            start = time.perf_counter() + LEAD_S
            for request in part:
                request.due += start
            await asyncio.wait_for(asyncio.gather(*(
                _exchange(reader, writer,
                          [r for r in part if r.conn == conn])
                for conn, (reader, writer) in enumerate(streams)
            )), timeout=part[-1].due - start + 60.0)
            busy_end, steal_end = cpu_ticks()
            await asyncio.sleep(SETTLE_S)
            after = idle_factor()
            segments.append(Segment(factor, after, busy_end - busy,
                                    steal_end - steal))
            factor = after
    finally:
        for _reader, writer in streams:
            writer.close()
            with contextlib.suppress(OSError):
                await writer.wait_closed()
    return segments


# -- the daemon process ----------------------------------------------------


class Daemon:
    """A daemon subprocess with a bound address and its descendants.

    ``ready_s`` is the time from spawn until the first ``ping`` is
    answered; ``factor`` the host speed the daemon measured at start.
    """

    def __init__(self, store: str, log: str,
                 spans_out: Optional[str] = None) -> None:
        cmd = [sys.executable, "-m", "perfbench.launcher",
               "--cache-path", store]
        if spans_out is not None:
            cmd += ["--spans-out", spans_out]
        self.factor = 1.0
        self.started = time.perf_counter()
        self._log = open(log, "ab")
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=self._log,
        )
        try:
            self.address = self._await_listening(30.0)
            with PlanClient(self.address) as client:
                client.ping()
                self.ready_s = time.perf_counter() - self.started
                self.tier = client.hello().get("shared_tier")
        except BaseException:
            self.kill()
            raise

    def _await_listening(self, timeout: float) -> "tuple[str, int]":
        deadline = time.monotonic() + timeout
        assert self.proc.stdout is not None
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not sel.select(deadline - time.monotonic()):
                    break
                line = self.proc.stdout.readline().decode()
                if not line:
                    break
                factor = _FACTOR.match(line)
                if factor:
                    self.factor = float(factor.group(1))
                match = _LISTENING.search(line)
                if match:
                    return match.group(1), int(match.group(2))
        raise RuntimeError("daemon did not report a listening address")

    def descendants(self) -> "list[int]":
        found: "list[int]" = []
        todo = [self.proc.pid]
        while todo:
            kids = children(todo.pop())
            found.extend(kids)
            todo.extend(kids)
        return found

    def stop(self) -> "list[str]":
        """Graceful shutdown; returns leaks (live processes, tier segment)."""
        kids = self.descendants()
        try:
            with PlanClient(self.address) as client:
                client.shutdown()
            self.proc.wait(timeout=30)
        finally:
            self.kill()
        # pool workers and the resource tracker exit after their parent
        deadline = time.monotonic() + 10.0
        living = kids
        while living and time.monotonic() < deadline:
            living = [pid for pid in living if alive(pid)]
            if living:
                time.sleep(0.05)
        leaks = [f"process {pid}" for pid in living]
        if self.tier and os.path.exists("/dev/shm/" + self.tier.lstrip("/")):
            leaks.append(f"shared-memory segment {self.tier}")
        return leaks

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


# -- the workload ----------------------------------------------------------


class _Answer:
    """Adapter so :class:`~perfbench.layers.Layers` reads daemon answers."""

    __slots__ = ("algorithm", "ccp")

    def __init__(self, algorithm: str) -> None:
        self.algorithm = algorithm
        self.ccp = 0


def window_steal(segments: "list[Segment]") -> "list[float]":
    """Per window, stolen ticks over stolen plus busy ticks.

    Steal accrues only while a vCPU is runnable, so the raw count grows
    with the work done in a window; this share of runnable time does
    not, and ranks windows by the host's contention alone.
    """
    out = []
    for lo in range(0, len(segments), SEGMENTS):
        part = segments[lo:lo + SEGMENTS]
        busy = sum(s.busy for s in part)
        steal = sum(s.steal for s in part)
        out.append(steal / (busy + steal) if busy + steal else 0.0)
    return out


def clean_windows(steal: "list[float]") -> "list[int]":
    """Windows with a steal share of at most :data:`STEAL_LIMIT`.

    Every request crosses four or more process wakeups; while the
    hypervisor deschedules a vCPU each of them can stall for tens of
    milliseconds, which no speed factor corrects.  Windows stolen from
    beyond the limit are left out of the reported medians.  When more
    than half are, the cleaner half (rounded up) is kept instead.  The
    medians over all windows and the number dropped go to the detail.
    """
    keep = [i for i, share in enumerate(steal) if share <= STEAL_LIMIT]
    if 2 * len(keep) >= len(steal):
        return keep
    order = sorted(range(len(steal)), key=lambda i: (steal[i], i))
    return sorted(order[:(len(steal) + 1) // 2])


def _serve_pass(run: Run, members: list, pristine: str, count: int,
                tag: str, traced: bool) -> "dict[str, Any]":
    """One daemon lifetime driven by ``count`` scheduled requests."""
    store = shutil.copyfile(pristine, os.path.join(run.tmp, f"{tag}.sqlite"))
    spans_out = os.path.join(run.tmp, f"{tag}-spans.json") if traced else None
    daemon = Daemon(store, os.path.join(run.tmp, "daemon.log"), spans_out)
    try:
        requests = schedule(members, run.seed, count)
        segments = asyncio.run(_drive(daemon.address, requests))
        with PlanClient(daemon.address) as client:
            stats = client.stats()
    except BaseException:
        daemon.kill()
        raise
    leaks = daemon.stop()
    out = {"requests": requests, "segments": segments, "stats": stats,
           "leaks": leaks, "setup": (daemon.ready_s, daemon.factor),
           "bytes_on_disk": file_bytes(store)}
    if spans_out is not None:
        with open(spans_out, encoding="utf-8") as fh:
            out["trace"] = json.load(fh)
    return out


def _check(run: Run, requests: "list[Request]", optima: "list[float]",
           ) -> "tuple[int, int, list[float], int]":
    """``(wrong, good, ratios, failed)`` over the optimize requests."""
    misses = [r for r in requests if r.kind == "miss"]
    uniques = oracle.unique_references("SERVE_MISS_DECK", run.seed, "serve",
                                       len(misses))
    wrong = good = failed = 0
    ratios = []
    for request in requests:
        if request.kind == "save":
            failed += 0 if request.response and request.response.get(
                "ok") else 1
            continue
        response = request.response or {}
        if not response.get("ok"):
            failed += 1
            continue
        kind, index = request.ref
        best = optima[index] if kind == "m" else uniques[index][0]
        if not oracle.check(response.get("cost"), response["algorithm"],
                            best):
            wrong += 1
            continue
        ratios.append(response["cost"] / best)
        if (request.done - request.due) * 1e3 <= LIMIT_MS:
            good += 1
    return wrong, good, ratios, failed


def _optimize_requests(requests: "list[Request]") -> "list[Request]":
    return [r for r in requests if r.kind != "save"]


def _latencies(result: "dict[str, Any]") -> "list[float]":
    """Speed-normalized latencies (ms) of a pass's optimize requests."""
    segments = result["segments"]
    return [(r.done - r.due) * 1e3 / segments[r.segment].factor
            for r in _optimize_requests(result["requests"])]


def run_serve(run: Run) -> Outcome:
    members, optima, pristine = prepare_hot(run.seed, run.tmp)
    if run.trace:
        return _trace_serve(run, members, optima, pristine)
    count = int(RATE * run.seconds)
    # set-up: start from a fresh store copy until the first ping answers,
    # each start divided by the speed factor its daemon measured; the
    # last start is the one measured under load
    setups = []
    for attempt in range(SETUP_REPEATS - 1):
        store = shutil.copyfile(pristine, os.path.join(
            run.tmp, f"setup-{attempt}.sqlite"))
        daemon = Daemon(store, os.path.join(run.tmp, "daemon.log"))
        setups.append((daemon.ready_s, daemon.factor))
        leaks = daemon.stop()
        if leaks:
            raise RuntimeError(f"daemon left behind: {leaks}")
    result = _serve_pass(run, members, pristine, count, "measured", False)
    rss = peak_rss_mb()
    setups.append(result["setup"])
    requests = result["requests"]
    wrong, good, ratios, failed = _check(run, requests, optima)
    optimize = _optimize_requests(requests)
    segments = result["segments"]
    factors = [segments[r.segment].factor for r in optimize]
    raw = [(r.done - r.due) * 1e3 for r in optimize]
    latencies = _latencies(result)
    steal = window_steal(segments)
    summary = windowed(latencies, TAIL_Q, keep=clean_windows(steal))
    every = windowed(latencies, TAIL_Q)
    # the pauses between segments are not serving time
    span = sum(
        max(r.done for r in part) - min(r.sent for r in part)
        for part in ([r for r in optimize if r.segment == k]
                     for k in range(len(segments)))
    )
    n = len(optimize)
    saves = [r for r in requests if r.kind == "save"]
    server = result["stats"]["server"]
    metrics = {
        "setup_s": (statistics.median(r / f for r, f in setups), "s"),
        "latency_p50_ms": (summary["window_p50"], "ms"),
        "latency_tail_ms": (summary["window_tail"], "ms"),
        # open loop: completions per second follow the offered rate
        "throughput_qps": (n / span, "1/s"),
        "goodput_frac": (good / n, "frac"),
        "plan_cost_ratio": (geomean(ratios) if ratios else 1.0, "ratio"),
        "peak_rss_mb": (rss, "MB"),
    }
    kinds = [r.kind for r in optimize]
    detail = {
        "latency": summary, "raw_latency": summarize(raw, TAIL_Q),
        "latency_all_windows": {"window_p50": every["window_p50"],
                                "window_tail": every["window_tail"]},
        "setup_samples_s": [r for r, _f in setups],
        "setup_factors": [f for _r, f in setups], "wrong": wrong,
        "speed_factor": summarize(factors, 95),
        "window_steal_share": steal,
        "leaks": result["leaks"], "saves": len(saves),
        "offered_rate_qps": RATE,
        "lag_ms": summarize([(r.sent - r.due) * 1e3 for r in optimize],
                            TAIL_Q),
        "shares": {
            "exact_repeat": kinds.count("exact") / n,
            "relabeling": kinds.count("relabel") / n,
            "unique": kinds.count("miss") / n, "requests": n,
            "shape_n": histogram(
                [f"{r.kind}:{r.label}" for r in optimize]),
        },
        "served": {"parent": server["served_parent"],
                   "pool": server["served_pool"]},
    }
    failed += wrong
    correct = wrong == 0 and not result["leaks"]
    return Outcome(len(requests), failed, correct, metrics, detail)


def _trace_serve(run: Run, members: list, optima: "list[float]",
                 pristine: str) -> Outcome:
    plain = _serve_pass(run, members, pristine, TRACE_COUNT, "plain", False)
    traced = _serve_pass(run, members, pristine, TRACE_COUNT, "traced", True)
    failed = leaks = 0
    for result in (plain, traced):
        wrong, _good, _ratios, bad = _check(run, result["requests"], optima)
        failed += wrong + bad
        leaks += len(result["leaks"])
    trace = traced["trace"]
    layers = Layers(trace["spans"])
    stats = traced["stats"]
    requests = _optimize_requests(traced["requests"])
    answers = [_Answer(r.response["algorithm"]) for r in requests
               if r.response and r.response.get("ok")]
    layers.optimizer(answers, stats["cache"])
    # the stage spans of one request, by protocol id
    by_rid: "dict[Any, list[dict]]" = {}
    for span in trace["spans"]:
        by_rid.setdefault(span["rid"], []).append(span)
    overhead, roundtrip = [], []
    for request in requests:
        spans = by_rid.get(request.rid, [])
        via = (request.response or {}).get("via")
        if via == "parent":
            stage_ns = sum(s["end"] - s["start"] for s in spans
                           if s["parent"] == "serving.dispatch")
            overhead.append((request.done - request.sent) * 1e3
                            - stage_ns / 1e6)
        elif via == "pool":
            fp_end = max(s["end"] for s in spans
                         if s["name"] == "optimizer.fingerprint")
            absorb = min(s["start"] for s in spans
                         if s["name"] == "cache.lookup"
                         and s["start"] >= fp_end)
            roundtrip.append((absorb - fp_end) / 1e6)
    server, sync = stats["server"], stats["sync"]
    tasks = sync["full_syncs"] + sync["delta_syncs"]
    tier = (stats.get("shared_tier") or {}).get("workers", {})
    served = server["served_parent"] + server["served_pool"]
    if overhead:
        layers.set("serving.overhead_ms.p50", percentile(overhead, 50))
    if roundtrip:
        layers.set("serving.pool_roundtrip_ms.p50", percentile(roundtrip, 50))
        layers.set("serving.pool_roundtrip_ms.p99", percentile(roundtrip, 99))
    layers.set("serving.delta_entries",
               sync["delta_entries"] / tasks if tasks else 0)
    layers.set("serving.delta_bytes",
               sync["snapshot_bytes"] / tasks if tasks else 0)
    layers.set("serving.tier_hit_ratio",
               tier.get("tier_hits", 0) / server["served_pool"]
               if server["served_pool"] else 0)
    layers.set("serving.served_pool_frac",
               server["served_pool"] / served if served else 0)
    for name in ("rejected", "window_rejections", "pool_rebuilds"):
        layers.set(f"serving.{name}", server[name])
    saves = [(r.done - r.sent) * 1e3 for r in traced["requests"]
             if r.kind == "save"]
    layers.set("store.load_ms", trace["load_ms"])
    layers.set("store.save_ms.p50", percentile(saves, 50))
    layers.set("store.save_ms.p99", percentile(saves, 99))
    layers.set("store.rows_written", (stats.get("store") or {}).get(
        "rows_written", 0))
    layers.set("store.bytes_on_disk", traced["bytes_on_disk"])
    layers.set("loadgen.lag_ms.p99", percentile(
        [(r.sent - r.due) * 1e3 for r in requests], 99))
    layers.overhead_values(percentile(_latencies(plain), 50),
                           percentile(_latencies(traced), 50))
    layers.detail.update(
        served={"parent": server["served_parent"],
                "pool": server["served_pool"]},
        sync=sync, shared_tier=stats.get("shared_tier"),
        overhead_ms=summarize(overhead, 99) if overhead else None,
        pool_roundtrip_ms=summarize(roundtrip, 99) if roundtrip else None,
    )
    correct = failed == 0 and leaks == 0
    attempted = len(plain["requests"]) + len(traced["requests"])
    return Outcome(attempted, failed, correct, layers.metrics(),
                   layers.detail)
