"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the workload's inputs from ``--seed``, measures for
``--seconds`` (``--trace 0``: end-to-end metrics) or runs the fixed
traced request sequence (``--trace 1``: per-layer metrics), checks
every answer against the exact oracle, and prints one JSON object as
the last line of standard output.  A detail object (property shares,
sample counts, host facts, self times) is printed on the line before.
Exits non-zero without a result when the optimizer sources are absent.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = ("lib-hot", "lib-cold", "serve-open", "batch-store")


def main(argv: "list[str]") -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no optimizer sources under src/repro",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    from perfbench import common

    os.makedirs(common.TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=common.TMP_ROOT)
    try:
        run = common.Run(args.workload, args.seed, args.seconds,
                         bool(args.trace), tmp)
        if args.workload == "serve-open":
            from perfbench.serve import run_serve as runner
        elif args.workload == "batch-store":
            from perfbench.library import run_batch as runner
        else:
            from perfbench.library import run_lib as runner
        outcome = runner(run)
        # no process the run started may outlive it
        leaked = [pid for pid in common.children(os.getpid())
                  if common.alive(pid)]
        if leaked:
            outcome.correct = False
            outcome.detail["leaked_processes"] = leaked
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(common.TMP_ROOT)
        except OSError:
            pass  # another run still owns a directory under it
    from perfbench.layers import PER_LAYER

    expected = (
        [(name, unit) for name, unit, _better in PER_LAYER] if args.trace
        else list(common.END_TO_END)
    )
    reported = [(name, unit) for name, (_v, unit) in outcome.metrics.items()]
    if reported != expected:
        raise RuntimeError(f"metrics {reported} differ from {expected}")
    detail = dict(outcome.detail, host=common.host_facts(),
                  workload=args.workload, seed=args.seed,
                  trace=args.trace)
    print(json.dumps({"detail": detail}, sort_keys=True, default=str))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
