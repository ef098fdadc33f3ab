"""The daemon process of the ``serve-open`` workload.

    python -m perfbench.launcher --cache-path P [--spans-out F]

First prints ``speed factor <f>``: the host speed factor, measured in
this process before it imports the optimizer, as the library set-up
probes do, so the daemon's start-up is priced at the speed of the core
it starts on.  Without ``--spans-out`` it then runs ``python -m
repro.serving --workers 2 --cache-path P`` in this process.  With it,
the daemon CLI's own ``_serve`` runs a ``PlanServer`` that adds one
``serving.dispatch`` span per request id, with the traced pipeline
stages in its config; at shutdown the spans and the server
construction time (which is the store load) are written to
``--spans-out``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import runpy
import sys
import time

from .common import calibrate

#: pool workers of the daemon
WORKERS = 2


def _serve_traced(cache_path: str, spans_out: str) -> None:
    from typing import Any, Optional

    from repro.optimizer import OptimizerConfig
    from repro.serving.__main__ import _serve
    from repro.serving.server import PlanServer

    from .tracing import Recorder, Span, traced_config

    class TracedPlanServer(PlanServer):
        """One ``serving.dispatch`` span per request, by protocol id."""

        async def _dispatch(
            self, request: "dict[str, Any]", writer: Optional[Any] = None
        ) -> "dict[str, Any]":
            with Span(recorder, "serving.dispatch", request.get("id")):
                return await super()._dispatch(request, writer)

    recorder = Recorder()
    config = traced_config(OptimizerConfig(
        algorithm="auto", cache="on", cache_path=cache_path), recorder)
    start = time.perf_counter()
    server = TracedPlanServer(config, workers=WORKERS)
    load_ms = (time.perf_counter() - start) * 1e3
    asyncio.run(_serve(server))
    with open(spans_out, "w", encoding="utf-8") as out:
        json.dump({"load_ms": load_ms, "spans": recorder.as_dicts()}, out)


def main(argv: "list[str]") -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.launcher")
    parser.add_argument("--cache-path", required=True)
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)
    print(f"speed factor {calibrate()}", flush=True)
    if args.spans_out is not None:
        _serve_traced(args.cache_path, args.spans_out)
        return 0
    sys.argv = ["repro.serving", "--workers", str(WORKERS),
                "--cache-path", args.cache_path]
    runpy.run_module("repro.serving", run_name="__main__", alter_sys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
