"""The repository benchmark: three workloads through the public API.

``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` runs one workload (see :mod:`perfbench.run`).  The
workloads live in :mod:`perfbench.ingest`, :mod:`perfbench.flagship`
and :mod:`perfbench.serve`; :mod:`perfbench.harness` holds the shared
series, facts and report plumbing and :mod:`perfbench.tracing` the
span recorder used by traced runs.
"""
