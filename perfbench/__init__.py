"""End-to-end and per-layer benchmark of the join-order optimizer.

Run from the repository root::

    python3 perfbench/run.py --workload lib-hot --seed 1 --seconds 10 --trace 0

See ``BENCHMARK.json`` for the workloads and metrics, and
``perfbench/README.md`` for what each number means.
"""
