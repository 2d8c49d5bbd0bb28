"""The repository benchmark: Algorithm-1 training and HTTP serving workloads.

Run one workload (the command ``BENCHMARK.json`` names)::

    python3 perfbench/run.py --workload serve-online --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics from untraced processes;
``--trace 1`` runs the workload once untraced and once traced and prints
the per-layer ledger.  The last line of standard output is always one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for the workloads, the metric definitions and
which end-to-end metric each per-layer row is expected to move.
"""
