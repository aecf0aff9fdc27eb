"""CompressionService end-to-end (in-process): the acceptance
criteria of the service tentpole — served results byte-identical to
the facade, cache hit/miss accounting, backpressure, cancellation,
and the graceful-drain shutdown contract."""

import numpy as np
import pytest

from repro.api import Archive, Bound, Session
from repro.data.registry import get_dataset_spec
from repro.service import (CompressionService, QueueFullError,
                           RateLimitedError, ServiceClient,
                           ServiceClosedError, ServiceError,
                           UnknownJobError)

REQUEST = {"type": "compress", "dataset": "e3sm",
           "shape": {"t": 6, "h": 8, "w": 8}, "codec": "szlike",
           "bound": "nrmse:0.05", "shards": 2, "seed": 7}


@pytest.fixture()
def service(tmp_path):
    svc = CompressionService(tmp_path / "cache", workers=2,
                             max_queue=8)
    yield svc
    svc.close()


@pytest.fixture()
def client(service):
    return ServiceClient(service)


class TestCompressJobs:
    def test_submit_poll_result(self, client):
        job = client.submit(dict(REQUEST))
        assert job["state"] in ("queued", "running", "done")
        done = client.wait(job["id"])
        assert done["state"] == "done"
        assert done["result"]["bytes"] > 0
        assert done["result"]["codec"] == "szlike"
        data = client.result(job["id"])
        assert len(data) == done["result"]["bytes"]

    def test_served_bytes_identical_to_in_process(self, client):
        """The headline determinism guarantee: a served compress is
        byte-identical to the same Session.compress call."""
        job = client.submit(dict(REQUEST))
        client.wait(job["id"])
        served = client.result(job["id"])
        with Session(seed=7) as session:
            spec = get_dataset_spec("e3sm", t=6, h=8, w=8)
            archive = session.compress(
                spec, codec="szlike", bound=Bound.parse("nrmse:0.05"),
                shards=2, seed=7)
            assert served == archive.to_bytes()

    def test_job_ids_are_deterministic(self, tmp_path):
        ids = []
        for run in range(2):
            with CompressionService(tmp_path / f"c{run}",
                                    workers=1) as svc:
                c = ServiceClient(svc)
                ids.append([c.submit(dict(REQUEST))["id"],
                            c.submit(dict(REQUEST), seed=8)["id"]])
        assert ids[0] == ids[1]

    def test_failed_job_reports_error(self, client):
        # variable 99 resolves nowhere at execution time: the job must
        # fail cleanly (worker survives, error lands on the record)
        job = client.submit(dict(REQUEST, variables=[99]))
        done = client.wait(job["id"])
        assert done["state"] == "failed"
        assert done["error"]

    def test_invalid_bound_rejected_at_submit(self, client):
        with pytest.raises(ServiceError, match="bad bound"):
            client.submit(dict(REQUEST,
                               bound={"kind": "nrmse", "value": -1}))

    def test_unresolvable_request_rejected_at_submit(self, client):
        with pytest.raises(ServiceError, match="unknown dataset"):
            client.submit(dict(REQUEST, dataset="nope"))
        with pytest.raises(ServiceError, match="codec"):
            client.submit(dict(REQUEST, codec="nope"))
        for codec in ("OURS", "vae_sr"):   # untrained, in any spelling
            with pytest.raises(ServiceError, match="learning-based"):
                client.submit(dict(REQUEST, codec=codec))


class TestCache:
    def test_resubmit_hits_cache(self, service, client):
        first = client.submit(dict(REQUEST))
        client.wait(first["id"])
        hits0 = service.cache.stats()["hits"]
        second = client.submit(dict(REQUEST))
        assert second["state"] == "done"
        assert second["cache_hit"] is True
        assert second["digest"] == first["digest"]
        assert service.cache.stats()["hits"] == hits0 + 1
        assert client.result(second["id"]) == client.result(first["id"])

    def test_cache_metrics_counters(self, service, client):
        job = client.submit(dict(REQUEST))
        client.wait(job["id"])
        client.submit(dict(REQUEST))
        text = service.metrics_text()
        assert "repro_cache_hits_total 1" in text
        assert "repro_cache_misses_total 1" in text

    def test_different_requests_different_digests(self, client):
        a = client.submit(dict(REQUEST))
        b = client.submit(dict(REQUEST, seed=8))
        assert a["digest"] != b["digest"]

    def test_equivalent_spellings_share_a_digest(self, client):
        """The digest is over resolved facts, not raw spelling."""
        a = client.submit(dict(REQUEST))
        b = client.submit(dict(REQUEST,
                               bound={"kind": "nrmse", "value": 0.05}))
        assert a["digest"] == b["digest"]


class TestBoundedState:
    """Finished jobs and result metadata do not grow without bound."""

    CAP = 8

    @pytest.fixture()
    def capped(self, monkeypatch):
        from repro.service import core
        monkeypatch.setattr(core, "MAX_FINISHED_JOBS", self.CAP)

    def test_finished_jobs_capped_newest_kept(self, capped, service,
                                              client):
        first = client.submit(dict(REQUEST))
        client.wait(first["id"])
        hits = [client.submit(dict(REQUEST))["id"]
                for _ in range(3 * self.CAP)]
        assert len(service.jobs()) == self.CAP
        for job_id in hits[-self.CAP:]:
            assert client.job(job_id)["state"] == "done"
            assert client.result(job_id)
        for job_id in [first["id"]] + hits[:-self.CAP]:
            with pytest.raises(UnknownJobError):
                client.job(job_id)
        assert service.health()["jobs"]["done"] == self.CAP

    def test_queued_jobs_never_evicted(self, capped, tmp_path):
        svc = CompressionService(tmp_path / "cache", workers=1,
                                 max_queue=64, start=False)
        try:
            c = ServiceClient(svc)
            queued = [c.submit(dict(REQUEST, seed=s))["id"]
                      for s in range(2 * self.CAP)]
            assert [c.job(i)["state"] for i in queued] == \
                ["queued"] * len(queued)
        finally:
            svc.close(drain=False)

    def test_result_meta_follows_cache(self, tmp_path):
        with CompressionService(tmp_path / "cache", workers=1,
                                cache_entries=2) as svc:
            c = ServiceClient(svc)
            for seed in range(4):
                c.wait(c.submit(dict(REQUEST, seed=seed))["id"])
            assert len(svc._result_meta) <= 2
            assert all(d in svc.cache for d in svc._result_meta)


class TestDecompressAndTrain:
    def test_decompress_chained_off_compress(self, client):
        src = client.submit(dict(REQUEST))
        client.wait(src["id"])
        job = client.submit({"type": "decompress", "job": src["id"],
                             "select": "0:3"})
        done = client.wait(job["id"])
        assert done["state"] == "done"
        assert done["result"]["media_type"] == "application/x-npy"
        import io
        restored = np.load(io.BytesIO(client.result(job["id"])))
        assert restored.shape[-3:] == (3, 8, 8)

    def test_decompress_unknown_source_job(self, client):
        with pytest.raises(UnknownJobError):
            client.submit({"type": "decompress", "job": "j999999-x"})


class TestAdmissionControl:
    def test_queue_full_rejects(self, tmp_path):
        svc = CompressionService(tmp_path / "cache", workers=1,
                                 max_queue=2, start=False)
        try:
            c = ServiceClient(svc)
            c.submit(dict(REQUEST))
            c.submit(dict(REQUEST, seed=1))
            with pytest.raises(QueueFullError) as exc:
                c.submit(dict(REQUEST, seed=2))
            assert exc.value.http_status == 429
            # the rejected job leaves no trace
            assert svc.queue.depth == 2
            assert len(svc.jobs()) == 2
        finally:
            svc.close(drain=False)

    def test_rate_limit_rejects(self, tmp_path):
        svc = CompressionService(tmp_path / "cache", workers=1,
                                 max_queue=32, rate_limit=0.001,
                                 rate_burst=2, start=False)
        try:
            c = ServiceClient(svc, client="hammer")
            c.submit(dict(REQUEST))
            c.submit(dict(REQUEST, seed=1))
            with pytest.raises(RateLimitedError):
                c.submit(dict(REQUEST, seed=2))
            # other clients are unaffected
            ServiceClient(svc, client="other").submit(
                dict(REQUEST, seed=3))
        finally:
            svc.close(drain=False)

    def test_cancel_queued_job(self, tmp_path):
        svc = CompressionService(tmp_path / "cache", workers=1,
                                 max_queue=8, start=False)
        try:
            c = ServiceClient(svc)
            job = c.submit(dict(REQUEST))
            cancelled = c.cancel(job["id"])
            assert cancelled["state"] == "cancelled"
            assert svc.queue.depth == 0
            # cancelling an already-cancelled job is a no-op
            assert c.cancel(job["id"])["state"] == "cancelled"
        finally:
            svc.close(drain=False)

    def test_cancel_done_job_rejected(self, service, client):
        job = client.submit(dict(REQUEST))
        client.wait(job["id"])
        with pytest.raises(ServiceError, match="only queued"):
            client.cancel(job["id"])


class TestLifecycle:
    def test_drain_finishes_queued_work(self, tmp_path):
        svc = CompressionService(tmp_path / "cache", workers=1,
                                 max_queue=8, start=False)
        c = ServiceClient(svc)
        jobs = [c.submit(dict(REQUEST, seed=s)) for s in range(3)]
        svc.start()
        svc.close(drain=True)
        for job in jobs:
            assert svc.job(job["id"]).state == "done"

    def test_draining_rejects_new_submissions(self, tmp_path):
        svc = CompressionService(tmp_path / "cache", workers=1)
        svc.close()
        with pytest.raises(ServiceClosedError) as exc:
            ServiceClient(svc).submit(dict(REQUEST))
        assert exc.value.http_status == 503

    def test_close_is_idempotent(self, tmp_path):
        svc = CompressionService(tmp_path / "cache", workers=1)
        svc.close()
        svc.close()

    def test_close_without_drain_cancels_queued(self, tmp_path):
        svc = CompressionService(tmp_path / "cache", workers=1,
                                 max_queue=8, start=False)
        c = ServiceClient(svc)
        job = c.submit(dict(REQUEST))
        svc.close(drain=False)
        assert svc.job(job["id"]).state == "cancelled"

    def test_owned_session_is_closed(self, tmp_path):
        svc = CompressionService(tmp_path / "cache", workers=1)
        svc.close()
        # idempotent-by-contract close; a second explicit close of the
        # released session must also be harmless
        svc.session.close()


class TestObservability:
    def test_health_shape(self, service, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["workers_alive"] == 2
        assert health["queue_capacity"] == 8
        assert health["store_writable"] is True
        assert set(health["jobs"]) == {"queued", "running", "done",
                                       "failed", "cancelled"}

    def test_health_reports_draining(self, tmp_path):
        svc = CompressionService(tmp_path / "cache", workers=1)
        svc.close()
        assert svc.health()["status"] == "draining"

    def test_metrics_text_has_core_families(self, service, client):
        job = client.submit(dict(REQUEST))
        client.wait(job["id"])
        text = client.metrics_text()
        for family in ("repro_jobs_submitted_total",
                       "repro_jobs_completed_total",
                       "repro_queue_depth", "repro_jobs_inflight",
                       "repro_cache_hits_total", "repro_job_seconds",
                       "repro_bytes_out_total", "repro_jobs"):
            assert f"# TYPE {family} " in text, family
        assert 'repro_jobs_completed_total{state="done",' \
            'type="compress"} 1' in text

    def test_unknown_job_raises(self, client):
        with pytest.raises(UnknownJobError):
            client.job("j000099-missing")
