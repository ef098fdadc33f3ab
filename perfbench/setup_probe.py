"""One cold start of a library workload, in a fresh interpreter.

``python -m perfbench.setup_probe <workload> <seed> <store|-> <tmp>``
imports the optimizer, builds the workload's ``Optimizer`` (loading a
copy of the warm store where the workload has one) and answers its
first query.  The caller times the whole process, so import time and
work moved into construction or loading both count as set-up.  The
first line printed is the host speed factor measured at start.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile


def main(argv: "list[str]") -> int:
    workload, seed_text, store, tmp = argv
    seed = int(seed_text)
    from .common import calibrate

    # the speed of the core this interpreter runs on, before the work
    print(calibrate(), flush=True)
    from repro import Optimizer

    from . import gen

    workdir = tempfile.mkdtemp(dir=tmp)
    try:
        path = None
        if store != "-":
            path = os.path.join(workdir, "store.sqlite")
            shutil.copyfile(store, path)
        if workload == "lib-hot":
            optimizer = Optimizer(cache="on", cache_path=path)
            optimizer.optimize(gen.member(seed, 0))
        elif workload == "lib-cold":
            optimizer = Optimizer(cache="on")
            optimizer.optimize(gen.unique_query(gen.COLD_DECK, seed, "cold",
                                                0))
        elif workload == "batch-store":
            optimizer = Optimizer(executor="process", parallel_workers=2,
                                  cache_path=path)
            optimizer.optimize_many([
                gen.unique_query(gen.BATCH_DECK, seed, "setup", i)
                for i in range(4)
            ])
        else:
            raise SystemExit(f"no set-up probe for {workload!r}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
