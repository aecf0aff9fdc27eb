"""Concurrent jobs never change each other's output.

The entropy-backend selection and the autodiff grad mode are per
thread, so jobs that run side by side — service workers, threads
sharing one ``Session``, a training loop beside inference — must each
produce exactly what they produce alone.
"""

import os
import sys
import threading
import time

import numpy as np

from repro.api import Bound, Session
from repro.data import get_dataset
from repro.data.registry import get_dataset_spec
from repro.nn import Linear, Tensor, is_grad_enabled, no_grad
from repro.service import CompressionService, ServiceClient

SHAPE = {"t": 12, "h": 16, "w": 16}
SMALL = {"t": 8, "h": 12, "w": 12}
BOUND = "nrmse:0.02"
#: upper bound on any single wait or join in this module
JOIN_TIMEOUT = 120.0


def _join_all(threads):
    for t in threads:
        t.join(timeout=JOIN_TIMEOUT)
    stuck = [t.name for t in threads if t.is_alive()]
    assert not stuck, f"threads did not finish: {stuck}"


def _served(service, requests):
    """Submit every request at once; return results in request order."""
    client = ServiceClient(service)
    ids = [client.submit(dict(r))["id"] for r in requests]
    results = []
    for job_id in ids:
        done = client.wait(job_id, timeout=JOIN_TIMEOUT)
        assert done["state"] == "done", done
        results.append((done, client.result(job_id)))
    return results


class TestServedJobs:
    def test_interleaved_backends_match_in_process(self, tmp_path):
        """Default and ``trans`` requests interleaved on four workers
        each return the in-process archive for the same facts."""
        requests = []
        for i in range(12):
            req = {"type": "compress", "dataset": "e3sm",
                   "shape": SMALL, "codec": "szlike", "bound": BOUND,
                   "shards": 2, "seed": i}
            if i % 2:
                req["entropy_backend"] = "trans"
            requests.append(req)
        with CompressionService(tmp_path / "cache", workers=4,
                                max_queue=len(requests)) as service:
            served = _served(service, requests)
        spec = get_dataset_spec("e3sm", **SMALL)
        with Session() as session:
            for req, (_, data) in zip(requests, served):
                ref = session.compress(
                    spec, codec="szlike", bound=Bound.parse(BOUND),
                    shards=2, seed=req["seed"],
                    entropy_backend=req.get("entropy_backend"))
                assert data == ref.to_bytes(), req

    def test_train_beside_learned_compress_keeps_state_hash(
            self, tmp_path):
        """Inference jobs enter ``no_grad`` in their own threads; a
        training job beside them must still record every gradient."""
        artifact = tmp_path / "vae-sr.npz"
        with Session(seed=1) as session:
            session.train("vae-sr", "e3sm", save=artifact,
                          dataset_overrides=SHAPE, vae_iters=5,
                          sr_iters=3)
        train = {"type": "train", "codec": "vae-sr", "dataset": "e3sm",
                 "shape": SHAPE, "seed": 2,
                 "train": {"vae_iters": 30, "sr_iters": 10}}
        compress = [{"type": "compress", "dataset": "e3sm",
                     "shape": SHAPE, "shards": 2, "seed": i}
                    for i in range(9)]
        hashes = []
        for tag, requests in (("alone", [train]),
                              ("beside", [train] + compress)):
            with CompressionService(tmp_path / tag, workers=4,
                                    max_queue=len(requests),
                                    artifact=str(artifact)) as service:
                done, _ = _served(service, requests)[0]
            hashes.append(done["result"]["state_hash"])
        assert hashes[0] == hashes[1]


class TestThreadStress:
    #: wall-clock budget for each stress loop
    SECONDS = 3.0

    def test_thread_stress(self):
        """More threads than cores and a short switch interval, so that
        jobs interleave at fine grain."""
        frames = get_dataset("e3sm", t=8, h=12, w=12, seed=4).frames(0)
        bound = Bound.parse(BOUND)
        cases = [(backend, shards) for backend in (None, "trans")
                 for shards in (None, 2)]
        with Session(codec="szlike", executor="serial") as serial:
            refs = {case: serial.compress(frames, bound=bound,
                                          shards=case[1],
                                          entropy_backend=case[0]
                                          ).to_bytes()
                    for case in cases}
        assert refs[(None, None)] != refs[("trans", None)]

        n_threads = 2 * (os.cpu_count() or 1) + 2
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with Session(codec="szlike", workers=2) as shared:
                self._backends_interleaved(shared, frames, bound, cases,
                                           refs, n_threads)
            self._training_beside_no_grad(n_threads)
        finally:
            sys.setswitchinterval(previous)

    def _backends_interleaved(self, session, frames, bound, cases, refs,
                              n_threads):
        """Two backends interleaved on one Session: every archive
        equals its serial reference."""
        deadline = time.monotonic() + self.SECONDS
        mismatches, errors, counts = [], [], [0] * n_threads
        start = threading.Barrier(n_threads)

        def worker(i):
            try:
                start.wait(timeout=JOIN_TIMEOUT)
                k = i
                while time.monotonic() < deadline:
                    case = cases[k % len(cases)]
                    data = session.compress(frames, bound=bound,
                                            shards=case[1],
                                            entropy_backend=case[0]
                                            ).to_bytes()
                    if data != refs[case]:
                        mismatches.append(case)
                    counts[i] += 1
                    k += 1
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(repr(exc))

        threads = [threading.Thread(target=worker, args=(i,),
                                    name=f"compress-{i}")
                   for i in range(n_threads)]
        for t in threads:
            t.start()
        _join_all(threads)
        assert not errors, errors
        assert all(counts), counts
        assert not mismatches, (f"{len(mismatches)} of {sum(counts)} "
                                f"archives differ from their reference")

    def _training_beside_no_grad(self, n_threads):
        """A training loop records a gradient on every step while other
        threads sit inside ``no_grad`` — each entering one instance
        twice, which must still restore the flag on exit."""
        parked = [threading.Event() for _ in range(n_threads - 1)]
        stop = threading.Event()
        flags, errors = [], []

        def park(event):
            try:
                ctx = no_grad()
                with ctx:
                    with ctx:
                        event.set()
                        stop.wait(timeout=JOIN_TIMEOUT)
                        inner = is_grad_enabled()
                    outer = is_grad_enabled()
                flags.append((inner, outer, is_grad_enabled()))
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(repr(exc))

        rng = np.random.default_rng(0)
        layer = Linear(6, 3)
        x = rng.normal(size=(8, 6))
        threads = [threading.Thread(target=park, args=(event,),
                                    name=f"no-grad-{i}")
                   for i, event in enumerate(parked)]
        steps = with_grad = 0
        try:
            for t in threads:
                t.start()
            for event in parked:
                assert event.wait(timeout=JOIN_TIMEOUT)
            deadline = time.monotonic() + self.SECONDS
            while steps < 200 and time.monotonic() < deadline:
                for p in layer.parameters():
                    p.grad = None
                loss = (layer(Tensor(x)) ** 2).mean()
                loss.backward()
                steps += 1
                with_grad += all(p.grad is not None and np.any(p.grad)
                                 for p in layer.parameters())
        finally:
            stop.set()
            _join_all(threads)
        assert not errors, errors
        assert steps and with_grad == steps, (
            f"gradient recorded on {with_grad} of {steps} steps")
        assert flags == [(False, False, True)] * len(threads)
