"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ingest-szlike --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
metrics (see :mod:`perfbench.tracing`).  The seed makes the inputs:
the same seed gives the same inputs.  Every output is checked; a
failed check counts as a failed operation.

Every workload reports every end-to-end metric of ``BENCHMARK.json``,
each from a series of its own.  The time metrics among them
(:data:`perfbench.harness.HOST_SCALED`) are reported at a nominal host
speed: before every timed operation the run times a fixed reference
kernel that runs none of the program's code, and the measured value is
scaled by the run's median kernel time over its nominal time.  On a
2-vCPU shared VM whose speed drifted by up to 1.9x over minutes, the
scaled values of ten runs spread 0.04-0.07 (IQR over median) where the
measured ones spread 0.13-0.21; the measured value stays in the report.

Output: a summary table (metric, value, unit, sample count, measured
value, tail percentile) and the run facts, then, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
full report — facts, raw series, failures and, when traced, the
spans — is written to ``.perfbench_out/<workload>-seed<N>-trace<T>.json``
(``-toy.json`` for ``--toy`` runs, so a toy run never replaces a real
report).

The program under test is ``src/`` of the same checkout, which is
imported from there and nowhere else; without it the run exits with
status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import List

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

from perfbench import harness  # noqa: E402  (needs the path above)


def _workloads():
    from perfbench import flagship, ingest, serve
    return {m.NAME: m for m in (ingest, flagship, serve)}


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` or exit 2."""
    init = os.path.join(harness.SRC, "repro", "__init__.py")
    if not os.path.isfile(init):
        harness.stderr(f"perfbench: no program to measure: {init} is "
                       f"missing (run from the root of a checkout)")
        raise SystemExit(2)
    sys.path.insert(0, harness.SRC)
    import repro
    if os.path.dirname(os.path.abspath(repro.__file__)) != os.path.dirname(
            init):
        harness.stderr(f"perfbench: imported repro from {repro.__file__}, "
                       f"not from {harness.SRC}")
        raise SystemExit(2)


def probe_setup(workload: str, seed: int, toy: bool, work: str) -> float:
    """Wall time from launching a fresh interpreter to the end of the
    workload's set-up (imports and input generation)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           workload, "--seed", str(seed), "--probe-setup", "--work", work]
    if toy:
        cmd.append("--toy")
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                          env=harness.child_env()) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}): {line!r}")
    return elapsed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="tiny inputs, for the harness self-test")
    p.add_argument("--probe-setup", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--work", default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    harness.pin_threads()
    _import_program()
    workloads = _workloads()
    if args.workload not in workloads:
        harness.stderr(f"perfbench: unknown workload {args.workload!r}; "
                       f"one of {', '.join(sorted(workloads))}")
        return 2
    module = workloads[args.workload]
    trace = bool(args.trace)

    if args.probe_setup:
        os.makedirs(args.work, exist_ok=True)
        module.setup(args.work, args.seed, args.toy)
        print("ready", flush=True)
        return 0

    scratch = os.path.join(harness.ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    report = harness.Report(args.workload, args.seed, trace)
    try:
        state = module.setup(work, args.seed, args.toy)
        probing = not trace and getattr(module, "PROBE_SETUP", True)
        samples: List[float] = []

        def probe(until: int) -> None:
            while len(samples) < until:
                samples.append(probe_setup(
                    args.workload, args.seed, args.toy,
                    os.path.join(work, f"probe{len(samples)}")))

        if probing:
            probe(harness.SETUP_BEFORE)
        module.measure(state, report, args.seconds, trace, args.toy)
        if probing:
            probe(harness.SETUP_REPEATS)
            report.series["setup_s"] = samples
            report.metric("setup_s", statistics.median(samples), "s",
                          len(samples))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not trace:
        report.at_host_speed()

    report.facts = harness.run_facts(
        args.workload, args.seed, seconds=args.seconds, trace=trace,
        toy=args.toy, executor="thread",
        executor_width=harness.executor_width(),
        samples={n: m["samples"] for n, m in report.metrics.items()},
        **report.facts)
    toy = "-toy" if args.toy else ""
    path = os.path.join(harness.ROOT, ".perfbench_out",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}"
                        f"{toy}.json")
    harness.write_json(path, report.to_dict())
    for line in report.summary():
        print(line)
    print("  facts " + json.dumps({k: v for k, v in report.facts.items()
                                    if k != "samples"}))
    print(f"  report {os.path.relpath(path, harness.ROOT)}")
    print(report.result_line(), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
