"""``serve-mixed``: ``repro serve`` as deployed, under a closed loop.

The server runs in its own process (``repro serve --port 0``, default
workers and executor, a fresh cache directory) and counts as ready once
``/health`` answers.  One load-generator process drives it over HTTP
with two closed-loop clients — the service's real callers, scripts and
sweeps, wait for each reply — sending a seeded mix of:

* ``cold`` compress jobs: a fresh dataset seed and a small shape,
  rotating over e3sm/s3d/jhtdb, so they miss the cache;
* ``warm`` resubmits of the client's earlier compress requests, which
  hit the cache;
* ``select`` decompress-with-select jobs on an earlier compress result,
  a fresh (source, time range) pair each time; the range always
  straddles the boundary of the archive's two shards, so every select
  decodes two members.

The clients run in lockstep rounds: in each round each client sends
one job, the two kinds an ordered pair from a seeded schedule that
runs every pair but two cache hits (cold+warm, cold+select,
warm+select, the reverse orders, cold+cold and select+select) once
per block of rounds, and the next round starts when both replies are
in.  So in every run half the cache hits overlap a cold compress and
half a select, and a third of the cold compresses and of the selects
overlap each kind: the latency of a cache hit, which runs no codec,
shows what the other client's compute costs it through the interpreter
lock and request handling, in the same proportion each run.
Free-running clients overlap at random instead; between runs on a
2-vCPU host that made the cache-hit median move two to three times as
much as the host's own speed did.

The server process runs on one CPU and the load generator on another.
Unpinned, the server's threads hand the interpreter lock back and
forth across CPUs; on a 2-vCPU virtual machine those cross-CPU wakeups
cost what the hypervisor makes them cost at the moment, and every
serve metric moved 24-40 % between runs of the same code (IQR over
median of ten runs).  Pinned, the server's CPU per job fell by a third
and the serve metrics spread about as little as the in-process
workloads' do.  The cost: a server change that spreads its work over
more cores (a process pool, say) cannot show that gain here.  The two
swap CPUs every block of rounds, because the vCPUs of a shared host
run at speeds that differ and change within seconds: so every run
samples each of them equally in either role.

A round trip is POST, polls of the job record a fixed interval apart
(the first one a seeded fraction of it after the POST) until the job
is terminal, then GET of the result bytes.  Every output is checked
after the loop, in process: each cold archive decodes within its
pointwise bound, a seeded sample of cold requests compresses to the
same bytes in process (served = in-process), warm results equal their
cold originals, and each select equals the slice of the full decode.
HTTP 429/503 answers and failed jobs count as failed operations, as
does a SIGTERM drain that exits non-zero.

Each end-to-end metric has its own series: ``compress_MBps`` the cold
jobs' round trips, ``decompress_MBps`` the select jobs' (each decodes
a whole stack), ``ratio`` the cold archives and ``goodput_ops_s`` the
jobs that passed their checks per second of the loop.  Each kind's
median round trip and the tail of all of them go to the report as
properties.

Traced runs serve the same work twice: the same rounds on a plain
server, then on one whose layer entry points are wrapped
(:mod:`perfbench.traced_server`).
"""

from __future__ import annotations

import bisect
import http.client
import io
import itertools
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Dict, List, Optional, Set, Tuple

from .harness import (MB, SETUP_BEFORE, SETUP_REPEATS, Deadline, Report,
                      child_env, executor_width, host_reference, peak_rss_mb,
                      pin_process, tail)
from .tracing import (Span, clip, emit_layer_metrics, interval_union,
                      span_metrics)

NAME = "serve-mixed"
#: set-up is the server's spawn-to-healthy time, measured here
PROBE_SETUP = False

DATASETS = ("e3sm", "s3d", "jhtdb")
NRMSE_BOUND = 1e-2
KINDS = ("cold", "warm", "select")
#: one round per ordered pair of kinds, client 0 running the first and
#: client 1 the second; rounds come in blocks of every pair once but
#: two cache hits, shuffled per block, and a run ends on a block
#: boundary.  Two hits together take ~3 ms against 10-15 ms beside a
#: compress or a select; at a third of the hits they put the hit median
#: in the gap between the two modes, where it jumped from run to run.
BLOCK = tuple(pair for pair in itertools.product(KINDS, repeat=2)
              if pair != ("warm", "warm"))
POLL_INTERVAL_S = 0.01
#: warm and select jobs reuse one of the client's last this-many cold
#: results, which the service's LRU result cache (256 entries by
#: default) still holds
RECENT = 16
CLIENTS = 2
#: identity of the client that runs the untimed warm-up jobs
WARMUP_CLIENT = 9
SIZES = {
    False: dict(t=12, hw=16, shards=2, min_jobs=200, verify_samples=4),
    True: dict(t=6, hw=12, shards=2, min_jobs=12, verify_samples=2),
}
TERMINAL = ("done", "failed", "cancelled")
_LISTENING = re.compile(rb"listening on http://([\d.]+):(\d+)")


def setup(work: str, seed: int, toy: bool) -> dict:
    """Imports for the in-process checks; the server spawn is the
    workload's real set-up and is timed in :func:`measure`."""
    import numpy  # noqa: F401
    import repro.api  # noqa: F401
    return {"work": work}


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------
class Server:
    """One ``repro serve --port 0`` process with its own cache dir."""

    def __init__(self, work: str, tag: str, traced: bool = False):
        self.dir = os.path.join(work, tag)
        os.makedirs(self.dir)
        self.spans_path = os.path.join(self.dir, "spans.json")
        argv = ["serve", "--port", "0", "--cache-dir",
                os.path.join(self.dir, "cache")]
        if traced:
            launcher = os.path.join(os.path.dirname(__file__),
                                    "traced_server.py")
            cmd = [sys.executable, launcher, self.spans_path] + argv
        else:
            cmd = [sys.executable, "-m", "repro.cli"] + argv
        self.log_path = os.path.join(self.dir, "serve.log")
        t0 = time.perf_counter()
        with open(self.log_path, "wb") as log, pinned(split_cpus()[1]):
            self.proc = subprocess.Popen(cmd, stdout=log,
                                         stderr=subprocess.STDOUT,
                                         cwd=self.dir, env=child_env())
        try:
            self.host, self.port = self._wait_ready(t0 + 120.0)
        except BaseException:
            self.kill()
            raise
        self.ready_s = time.perf_counter() - t0

    def _wait_ready(self, give_up: float):
        address = None
        while time.perf_counter() < give_up:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited {self.proc.returncode}"
                                   f" before it was healthy; see "
                                   f"{self.log_path}")
            if address is None:
                with open(self.log_path, "rb") as fh:
                    found = _LISTENING.search(fh.read())
                if found:
                    address = found.group(1).decode(), int(found.group(2))
            if address is not None:
                try:
                    status, _ = get(address, "/health")
                except OSError:
                    status = None
                if status == 200:
                    return address
            time.sleep(0.005)
        raise RuntimeError("server not healthy within 120 s")

    def stop(self) -> int:
        """SIGTERM and wait for the graceful drain; the exit code."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            return -1

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def split_cpus() -> Tuple[Set[int], Set[int]]:
    """``(load generator CPUs, server CPUs)`` at start: one CPU each
    (the same one on a one-CPU host)."""
    cpus = sorted(os.sched_getaffinity(0))
    return {cpus[0]}, {cpus[-1]}


@contextmanager
def pinned(cpus: Set[int]):
    """Run the calling thread, and the threads and processes it starts
    meanwhile, on ``cpus``."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


def process_cpu(pid: int) -> float:
    """User + system CPU seconds a process has used so far."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def get(address, path: str):
    conn = http.client.HTTPConnection(*address, timeout=30)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


# ----------------------------------------------------------------------
# the load generator
# ----------------------------------------------------------------------
class Client:
    """One closed-loop client.

    Like the service's documented callers (``curl``, ``urllib``) it
    opens a connection per request.  Its requests depend only on
    ``(seed, ident)``, the kinds it is asked for and its own completed
    jobs, so replaying the same rounds on another server does the same
    work.
    """

    def __init__(self, address, seed: int, ident: int, size: dict):
        import numpy as np
        self.address = address
        self.seed = seed
        self.ident = ident
        self.size = size
        self.rng = np.random.default_rng([seed, 2, ident])
        self.dither = np.random.default_rng([seed, 5, ident])
        self.cold: List[dict] = []       # completed cold job records
        self.used_selects = set()
        self.jobs: List[dict] = []
        self.counter = 0

    def _call(self, method: str, path: str, body: Optional[dict] = None):
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if data else {}
        conn = http.client.HTTPConnection(*self.address, timeout=120)
        try:
            conn.request(method, path, body=data, headers=headers)
            resp = conn.getresponse()
            return resp.status, resp.getheader("X-Repro-Digest"), \
                resp.read()
        finally:
            conn.close()

    def _cold_request(self) -> dict:
        size = self.size
        name = DATASETS[self.counter % len(DATASETS)]
        data_seed = (self.seed * 10 + self.ident) * 100_000 + self.counter
        self.counter += 1
        return {"type": "compress", "dataset": name,
                "shape": {"t": size["t"], "h": size["hw"],
                          "w": size["hw"]},
                "dataset_params": {"seed": data_seed}, "variables": [0],
                "codec": "szlike", "bound": f"nrmse:{NRMSE_BOUND}",
                "shards": size["shards"]}

    def _next(self, kind: str):
        """``(kind, request, source record, select range)``."""
        if not self.cold:
            kind = "cold"
        recent = self.cold[-RECENT:]
        if kind == "warm":
            src = recent[int(self.rng.integers(len(recent)))]
            return kind, src["request"], src, None
        if kind == "select":
            half = self.size["t"] // 2
            for _ in range(10):
                src = recent[int(self.rng.integers(len(recent)))]
                a = int(self.rng.integers(0, half))
                b = int(self.rng.integers(half + 1, 2 * half + 1))
                if (src["id"], a, b) not in self.used_selects:
                    self.used_selects.add((src["id"], a, b))
                    return kind, {"type": "decompress", "job": src["id"],
                                  "select": f"{a}:{b}"}, src, (a, b)
        return "cold", self._cold_request(), None, None

    def job(self, kind: str, timed: bool = True,
            partner: Optional[str] = None) -> dict:
        """Run one job round trip, the other client running a job of
        kind ``partner`` at the same time; returns its record."""
        kind, request, src, window = self._next(kind)
        rec = {"kind": kind, "partner": partner, "request": request,
               "src": src, "window": window, "timed": timed, "polls": 0,
               "problems": [], "id": None, "data": None}
        # the first poll comes a seeded fraction of the interval after
        # the submit, so when a poll finds the job done is not locked to
        # a 10 ms grid: on a grid a job a little slower waits a whole
        # interval longer and the median moves in steps
        wait = float(self.dither.uniform(0.0, POLL_INTERVAL_S))
        t0 = time.perf_counter()
        try:
            status, _, body = self._call("POST", "/v1/jobs", request)
            if status in (429, 503):
                rec["problems"].append(f"HTTP {status} on submit")
                rec["rejected"] = True
            elif status not in (200, 202):
                rec["problems"].append(f"HTTP {status}: {body[:200]!r}")
            else:
                record = json.loads(body)
                while record["state"] not in TERMINAL:
                    time.sleep(wait)
                    wait = POLL_INTERVAL_S
                    rec["polls"] += 1
                    status, _, body = self._call(
                        "GET", f"/v1/jobs/{record['id']}")
                    if status != 200:
                        raise ValueError(f"poll answered HTTP {status}")
                    record = json.loads(body)
                rec["id"], rec["record"] = record["id"], record
                if record["state"] != "done":
                    rec["problems"].append(
                        f"job {record['state']}: {record.get('error')}")
                else:
                    status, digest, data = self._call(
                        "GET", f"/v1/jobs/{record['id']}/result")
                    rec["data"] = data
                    if status != 200 or digest != record["digest"]:
                        rec["problems"].append(
                            f"result HTTP {status}, digest {digest}")
        except (OSError, http.client.HTTPException, ValueError) as exc:
            rec["problems"].append(f"{type(exc).__name__}: {exc}")
        rec["t0"], rec["t1"] = t0, time.perf_counter()
        if kind == "cold" and rec["data"] is not None \
                and not rec["problems"]:
            self.cold.append(rec)
        if kind == "warm" and rec["data"] is not None:
            if not rec["record"]["cache_hit"]:
                rec["problems"].append("resubmit missed the cache")
            if rec["data"] != src["data"]:
                rec["problems"].append("warm result differs from its "
                                       "cold original")
        self.jobs.append(rec)
        return rec


def run_phase(server: Server, seed: int, size: dict,
              deadline: Optional[Deadline] = None,
              rounds: Optional[int] = None) -> dict:
    """Warm up, then run lockstep rounds: whole blocks until
    ``deadline`` (and at least ``min_jobs`` jobs), or exactly ``rounds``
    of them.  Ends with the server drained; returns the phase record."""
    import numpy as np
    address = (server.host, server.port)
    warm = Client(address, seed, WARMUP_CLIENT, size)
    clients = [Client(address, seed, i, size) for i in range(CLIENTS)]
    rng = np.random.default_rng([seed, 4])
    block: List[tuple] = []
    done = blocks = 0
    roles = split_cpus()
    host_ref: List[float] = []
    paused = 0.0
    with pinned(roles[0]), ThreadPoolExecutor(max_workers=CLIENTS) as pool:
        for kind in ("cold", "cold", "cold", "warm", "select"):
            warm.job(kind, timed=False)
        # each client's first job is cold (it has nothing to reuse yet)
        list(pool.map(lambda c: c.job("cold", timed=False), clients))
        cpu0, t0 = process_cpu(server.proc.pid), time.perf_counter()
        while (done < rounds if rounds is not None else
               block or not deadline.passed()
               or done * CLIENTS < size["min_jobs"]):
            if not block:
                block = [BLOCK[i] for i in rng.permutation(len(BLOCK))]
                # the load generator and the server swap CPUs every block
                client_cpus, server_cpus = (roles if blocks % 2 == 0
                                            else roles[::-1])
                pin_process(client_cpus)
                pin_process(server_cpus, server.proc.pid)
                blocks += 1
                # the host's speed on both CPUs, while both sides idle
                r0 = time.perf_counter()
                host_ref.append(host_reference(roles[0] | roles[1]))
                paused += time.perf_counter() - r0
            pair = block.pop()
            list(pool.map(lambda c, kind, other: c.job(kind, partner=other),
                          clients, pair, pair[::-1]))
            done += 1
        wall = time.perf_counter() - t0 - paused
        cpu = process_cpu(server.proc.pid) - cpu0
    _, metrics_text = get(address, "/metrics")
    _, health = get(address, "/health")
    rss = peak_rss_mb(server.proc.pid)
    code = server.stop()
    return {"jobs": warm.jobs + [j for c in clients for j in c.jobs],
            "rounds": done, "wall": wall, "cpu": cpu, "host_ref": host_ref,
            "metrics": metrics_text.decode(),
            "health": json.loads(health), "rss": rss, "exit_code": code}


def verify(phase: dict, report: Report, seed: int, size: dict) -> None:
    """Check every served output in process; one outcome per job."""
    import numpy as np
    from repro.api import Archive, Bound, Session
    from repro.data import get_dataset_spec

    bound = Bound.nrmse(NRMSE_BOUND)
    jobs = phase["jobs"]
    cold = [j for j in jobs if j["kind"] == "cold" and j["data"]]
    rng = np.random.default_rng([seed, 3])
    sample = set(rng.choice(len(cold), size=min(size["verify_samples"],
                                                len(cold)), replace=False)
                 .tolist()) if cold else set()
    full: Dict[str, object] = {}
    with Session(codec="szlike", executor="thread",
                 workers=executor_width()) as session:
        codec = session.resolve_codec("szlike")
        for i, job in enumerate(cold):
            req = job["request"]
            spec = get_dataset_spec(req["dataset"], **req["shape"],
                                    **req["dataset_params"])
            frames = spec.build().frames(0)
            job["nbytes"] = frames.nbytes
            try:
                archive = Archive(job["data"])
                restored = session.decompress(archive)
                full[job["id"]] = restored
                for m in archive.index():
                    x = frames[m.t0:m.t1]
                    limit = bound.native_for(codec, x)
                    err = float(np.max(np.abs(x - restored[m.t0:m.t1])))
                    if not err <= limit:
                        job["problems"].append(
                            f"shard {m.key} error {err:.6g} > {limit:.6g}")
                if i in sample:
                    local = session.compress(
                        spec, codec="szlike", bound=bound, variables=[0],
                        shards=req["shards"])
                    if local.to_bytes() != job["data"]:
                        job["problems"].append(
                            "served archive differs from in-process")
            except Exception as exc:  # a bad archive fails its job only
                job["problems"].append(f"{type(exc).__name__}: {exc}")
    for job in jobs:
        if job["kind"] == "select" and job["data"] is not None:
            a, b = job["window"]
            ref = full.get(job["src"]["id"])
            got = np.load(io.BytesIO(job["data"]))
            if ref is None or not np.array_equal(got, ref[a:b]):
                job["problems"].append(f"select {a}:{b} differs from the "
                                       f"full decode")
        report.outcome(f"{job['kind']} job", job["problems"])
    report.outcome("drain", [] if phase["exit_code"] == 0 else [
        f"SIGTERM drain exited {phase['exit_code']}"])


def _prom_total(text: str, name: str) -> float:
    """Sum of every sample of one Prometheus metric family."""
    total = 0.0
    for line in text.splitlines():
        if line.startswith(name) and line[len(name):len(name) + 1] in " {":
            total += float(line.rsplit(" ", 1)[1])
    return total


def measure(state: dict, report: Report, seconds: float, trace: bool,
            toy: bool) -> None:
    size = SIZES[toy]
    work = state["work"]
    if trace:
        return _measure_traced(work, report, seconds, size)
    servers: List[Server] = []
    spawns: List[float] = []

    def spawn() -> Server:
        """A fresh server, once the previous one (if still up) drained."""
        if servers and servers[-1].proc.poll() is None:
            code = servers[-1].stop()
            report.outcome("drain", [] if code == 0 else [
                f"SIGTERM drain exited {code}"])
        servers.append(Server(work, f"server{len(servers)}"))
        spawns.append(servers[-1].ready_s)
        return servers[-1]

    try:
        # like the set-up probes of the other workloads, some spawns
        # come before the measured window and the rest after it
        while len(spawns) < SETUP_BEFORE:
            server = spawn()
        phase = run_phase(server, report.seed, size,
                          deadline=Deadline(seconds))
        while len(spawns) < SETUP_REPEATS:
            spawn()
        spawn_stop = servers[-1].stop()
        report.outcome("drain", [] if spawn_stop == 0 else [
            f"SIGTERM drain exited {spawn_stop}"])
    finally:
        for server in servers:
            server.kill()
    report.series["setup_s"] = spawns
    report.series["host_ref_s"] = phase["host_ref"]
    report.metric("setup_s", statistics.median(spawns), "s", len(spawns))
    verify(phase, report, report.seed, size)

    timed = [j for j in phase["jobs"] if j["timed"] and not j["problems"]]
    for job in timed:
        ms = 1e3 * (job["t1"] - job["t0"])
        report.sample(f"{job['kind']}_ms", ms)
        # by pairing too, for reading contention off the report
        report.sample(f"{job['kind']}+{job['partner']}_ms", ms)
        report.sample("all_ms", ms)
    # every cold job compresses, and every select decodes, a whole
    # stack of the same shape and dtype
    cold = [j for j in timed if j["kind"] == "cold"]
    scale = 1e3 * cold[0]["nbytes"] / MB
    report.median_metric("compress_MBps", "cold_ms", "MB/s", scale,
                         invert=True)
    report.median_metric("decompress_MBps", "select_ms", "MB/s", scale,
                         invert=True)
    report.metric("ratio", sum(j["nbytes"] for j in cold)
                  / sum(len(j["data"]) for j in cold), "x", len(cold))
    report.metric("peak_rss_MB", phase["rss"], "MB", 1)
    report.metric("goodput_ops_s", len(timed) / phase["wall"], "ops/s",
                  len(timed))
    for kind in KINDS:
        report.properties[f"serve.{kind}_p50_ms"] = statistics.median(
            report.series[f"{kind}_ms"])
    # the highest percentile of all jobs with >= 10 samples beyond it
    found = tail(report.series["all_ms"])
    if found is not None:
        report.properties[f"serve.p{found[0]}_ms"] = found[1]
    report.properties["service.cache_hit_share"] = _hit_share(phase)
    _facts(report, phase)


def _facts(report: Report, phase: dict) -> None:
    """The server's and load generator's configuration, for the run
    facts."""
    client_cpus, server_cpus = split_cpus()
    report.facts.update(server_workers=phase["health"]["workers"],
                        server_executor=phase["health"]["executor"],
                        server_cpus=sorted(server_cpus),
                        client_cpus=sorted(client_cpus),
                        cpus_swap="every block of rounds",
                        clients=CLIENTS, poll_interval_s=POLL_INTERVAL_S)


def _hit_share(phase: dict) -> float:
    text = phase["metrics"]
    hits = _prom_total(text, "repro_cache_hits_total")
    misses = _prom_total(text, "repro_cache_misses_total")
    return hits / (hits + misses) if hits + misses else 0.0


def _measure_traced(work: str, report: Report, seconds: float,
                    size: dict) -> None:
    """Same per-client job sequences on a plain, then a traced server."""
    servers: List[Server] = []
    try:
        servers.append(Server(work, "plain"))
        plain = run_phase(servers[-1], report.seed, dict(size, min_jobs=0),
                          deadline=Deadline(seconds / 2))
        servers.append(Server(work, "traced", traced=True))
        traced = run_phase(servers[-1], report.seed, size,
                           rounds=plain["rounds"])
    finally:
        for server in servers:
            server.kill()
    verify(plain, report, report.seed, size)
    verify(traced, report, report.seed, size)
    with open(servers[-1].spans_path) as fh:
        spans = [Span(**s) for s in json.load(fh)]

    jobs = [j for j in traced["jobs"] if j["timed"] and j.get("record")]
    windows = [(j["t0"], j["t1"]) for j in jobs]
    values = span_metrics(spans, len(jobs), windows, executor_width(),
                          traced["cpu"])
    values["trace.unattributed_share"] = _unattributed(spans, jobs)
    records = [j["record"] for j in jobs]
    started = [r for r in records if r["started"] is not None]
    values["service.queue_wait_ms"] = _p50(
        1e3 * (r["started"] - r["created"]) for r in started)
    for job_type in ("compress", "decompress"):
        values[f"service.run_ms.{job_type}"] = _p50(
            1e3 * (r["finished"] - r["started"]) for r in started
            if r["type"] == job_type)
    values["service.overhead_ms"] = _p50(
        1e3 * ((j["t1"] - j["t0"]) - (j["record"]["finished"]
                                      - j["record"]["created"]))
        for j in jobs)
    values["service.polls_per_job"] = (sum(j["polls"] for j in jobs)
                                       / len(jobs))
    values["service.cache_hit_share"] = _hit_share(traced)
    values["service.rejected"] = sum(
        1 for j in traced["jobs"] if j.get("rejected")) + _prom_total(
        traced["metrics"], "repro_jobs_rejected_total")
    values["trace.overhead"] = traced["wall"] / plain["wall"]
    report.properties["service.cache_hit_share"] = (
        values["service.cache_hit_share"])
    report.spans = [s.__dict__ for s in spans]
    _facts(report, traced)
    emit_layer_metrics(report, values, {}, len(jobs))


def _unattributed(spans: List[Span], jobs: List[dict]) -> float:
    """Share of the jobs' round trips that no server span covers.

    Two clients overlap, so a union over all spans would cover one
    client's HTTP time with the other's work.  A round trip counts as
    covered only where a span lies inside its own job's lifetime (the
    record's created..finished, wall clock); a cache hit, whose
    lifetime holds no codec work, stays uncovered.  Spans of the other
    client's job may still fill gaps in this job's lifetime.
    """
    offset = time.time() - time.perf_counter()
    spans = sorted(spans, key=lambda s: s.start)
    starts = [s.start for s in spans]
    longest = max((s.duration for s in spans), default=0.0)
    covered = 0.0
    for job in jobs:
        lo = max(job["t0"], job["record"]["created"] - offset)
        hi = min(job["t1"], job["record"]["finished"] - offset)
        if hi > lo:
            near = spans[bisect.bisect_left(starts, lo - longest):
                         bisect.bisect_left(starts, hi)]
            covered += interval_union(clip(
                [(s.start, s.end) for s in near], [(lo, hi)]))
    return 1.0 - covered / sum(j["t1"] - j["t0"] for j in jobs)


def _p50(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
