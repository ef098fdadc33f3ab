"""Percentiles, the sample-count rule, and span self-time arithmetic."""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Optional, Sequence

#: a percentile is reported only with at least this many samples above it
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``) of ``samples``."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``q``-th."""
    return count - max(1, math.ceil(q / 100.0 * count))


def supported(count: int, q: float) -> bool:
    """The percentile rule: at least :data:`MIN_BEYOND` samples beyond."""
    return samples_beyond(count, q) >= MIN_BEYOND


def summarize(samples: Sequence[float], tail_q: float) -> dict:
    """Median and tail percentile with their sample count and rule check."""
    out = {
        "n": len(samples),
        "p50": percentile(samples, 50),
        f"p{tail_q:g}": percentile(samples, tail_q),
        "tail_q": tail_q,
        "tail_supported": supported(len(samples), tail_q),
    }
    if supported(len(samples), 99):
        out["p99"] = percentile(samples, 99)
    return out


#: most windows :func:`windowed` splits a run into
MAX_WINDOWS = 15


def window_bounds(count: int, tail_q: float) -> "list[tuple[int, int]]":
    """Index ranges of the equal windows :func:`windowed` uses.

    As many windows as keep :data:`MIN_BEYOND` samples beyond
    ``tail_q`` in every window, at most :data:`MAX_WINDOWS`.
    """
    need = math.ceil(MIN_BEYOND / (1.0 - tail_q / 100.0)) + 1
    windows = max(1, min(MAX_WINDOWS, count // need))
    size = count // windows
    return [(i * size, (i + 1) * size) for i in range(windows)]


def windowed(samples: Sequence[float], tail_q: float,
             keep: "Optional[Sequence[int]]" = None) -> dict:
    """Per-window p50 and tail, and the median of each over the windows.

    ``samples`` are in arrival order.  A burst of host noise then moves
    one window's figure, not the median.  ``keep`` restricts the median
    to those window numbers.
    """
    bounds = window_bounds(len(samples), tail_q)
    chosen = range(len(bounds)) if keep is None else keep
    windows = [samples[bounds[i][0]:bounds[i][1]] for i in chosen]
    out = summarize(samples, tail_q)
    out.update(
        windows=len(bounds),
        windows_used=len(windows),
        tail_supported=supported(len(windows[0]), tail_q),
        window_p50=statistics.median(percentile(w, 50) for w in windows),
        window_tail=statistics.median(
            percentile(w, tail_q) for w in windows),
    )
    return out


def histogram(labels: "list[str]") -> "dict[str, int]":
    """Occurrences of each label, sorted by label."""
    counts: "dict[str, int]" = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    return dict(sorted(counts.items()))


def geomean(values: Iterable[float]) -> float:
    logs = [math.log(v) for v in values]
    if not logs:
        raise ValueError("geometric mean of no values")
    return math.exp(sum(logs) / len(logs))


def covered(intervals: Iterable["tuple[int, int]"], lo: int, hi: int) -> int:
    """Length of ``[lo, hi)`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[dict]) -> "dict[str, list[float]]":
    """Self time in ns of every span, grouped by span name.

    A span's self time is its duration minus the part of its interval
    covered by its child spans (same request, ``parent`` naming it).
    """
    children: "dict[tuple, list[tuple[int, int]]]" = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault((span["rid"], span["parent"]), []).append(
                (span["start"], span["end"])
            )
    out: "dict[str, list[float]]" = {}
    for span in spans:
        kids = children.get((span["rid"], span["name"]), ())
        own = (span["end"] - span["start"]) - covered(
            kids, span["start"], span["end"]
        )
        out.setdefault(span["name"], []).append(float(own))
    return out
