"""Self-test of the benchmark harness: every workload at toy size.

Runs ``perfbench/run.py --toy`` the way the benchmark is run and checks
the output contract: every workload reports every end-to-end metric
of ``BENCHMARK.json`` once, with its unit and a sample count; the
traced run reports every per-layer metric; no two series of one run
are identical; spans nest; and a directory holding only the benchmark
refuses to run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _no_duplicate_keys(pairs):
    keys = [k for k, _ in pairs]
    assert len(keys) == len(set(keys)), f"duplicate keys in {keys}"
    return dict(pairs)


def _run(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def _report(workload: str, trace: int) -> dict:
    """The full report the toy run just wrote."""
    name = f"{workload}-seed3-trace{trace}-toy.json"
    with open(os.path.join(ROOT, ".perfbench_out", name)) as fh:
        return json.load(fh)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1],
                      object_pairs_hook=_no_duplicate_keys)


@pytest.mark.parametrize("workload",
                         [w["name"] for w in _bench()["workloads"]])
def test_workload_contract(workload):
    bench = _bench()
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}

    # timed run: every end-to-end metric, each from its own series
    res = _result(_run(workload, 0))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    report = _report(workload, 0)
    for name, metric in res["metrics"].items():
        assert metric["unit"] == units[name]
        assert metric["value"] > 0, name
        assert report["metrics"][name]["samples"] >= 1
    assert report["facts"]["seed"] == 3
    for fact in ("python", "numpy", "blas", "blas_threads", "nproc",
                 "executor_width", "entropy_backend", "src_sha256"):
        assert fact in report["facts"], fact
    series = {n: tuple(v) for n, v in report["series"].items()}
    assert len(set(series.values())) == len(series), \
        "two series of one run hold the same samples"

    # traced run: every per-layer metric, and spans that nest
    res = _result(_run(workload, 1))
    assert res["correct"] and res["failed"] == 0
    assert list(res["metrics"]) == [m["name"] for m in bench["per_layer"]]
    for name, metric in res["metrics"].items():
        assert metric["unit"] == units[name]
    assert res["metrics"]["trace.overhead"]["value"] > 0
    assert 0 <= res["metrics"]["trace.unattributed_share"]["value"] <= 1
    spans = _report(workload, 1)["spans"]
    assert spans
    _check_nesting(spans)


def _check_nesting(spans):
    """Same-thread children lie inside their parent; self times are
    non-negative; per thread, self times sum to at most the wall time
    that thread spent in spans."""
    by_id = {s["id"]: s for s in spans}
    eps = 1e-6
    kids = {}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["thread"] == s["thread"]:
            assert parent["start"] - eps <= s["start"] <= s["end"] \
                <= parent["end"] + eps
            kids.setdefault(parent["id"], []).append(s)
    per_thread = {}
    for s in spans:
        own = kids.get(s["id"], ())
        wall_self = (s["end"] - s["start"]) - sum(
            k["end"] - k["start"] for k in own)
        cpu_self = s["cpu"] - sum(k["cpu"] for k in own)
        assert wall_self >= -eps and cpu_self >= -eps, s
        t = per_thread.setdefault(s["thread"], [0.0, []])
        t[0] += wall_self
        t[1].append((s["start"], s["end"]))
    for total, intervals in per_thread.values():
        intervals.sort()
        covered, end = 0.0, None
        for a, b in intervals:
            if end is None or a > end:
                covered += b - a
                end = b
            elif b > end:
                covered += b - end
                end = b
        assert total <= covered + eps


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("ingest-szlike", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
