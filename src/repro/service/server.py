"""Stdlib HTTP front end for :class:`CompressionService`.

A deliberately small JSON API over ``http.server`` (no web framework —
zero-dependency is a hard constraint of this repo):

========  ==========================  =====================================
method    path                        meaning
========  ==========================  =====================================
POST      ``/v1/jobs``                submit a job (JSON body); ``202`` +
                                      job record, or ``200`` on a cache
                                      hit (the job is born ``done``)
GET       ``/v1/jobs``                list known jobs (most recent first)
GET       ``/v1/jobs/<id>``           job record (state, timings, result
                                      metadata)
GET       ``/v1/jobs/<id>/result``    the result bytes, streamed from the
                                      content-addressed cache
DELETE    ``/v1/jobs/<id>``           cancel a queued job
GET       ``/health``                 liveness JSON (``503`` while
                                      draining)
GET       ``/metrics``                Prometheus text exposition
========  ==========================  =====================================

Error mapping is uniform: admission-control rejections
(:class:`~repro.service.queue.ServiceRejection`) become their carried
status (429/503) with a ``Retry-After`` header; malformed requests
(:class:`~repro.service.jobs.JobError`,
:class:`~repro.service.core.ServiceError`) become 400; unknown jobs
404.  Every error body is ``{"error": ...}`` JSON.

:func:`serve` is the blocking entry point behind ``repro serve``: it
installs SIGTERM/SIGINT handlers that stop accepting, drain queued and
running jobs, and close the service — the graceful-shutdown contract
the CI smoke job exercises.
"""

from __future__ import annotations

import json
import logging
import shutil
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from .core import (CompressionService, ServiceError, UnknownJobError)
from .jobs import JobError
from .queue import ServiceRejection
from .telemetry import METRICS_CONTENT_TYPE

__all__ = ["ServiceHTTPServer", "make_server", "serve"]

logger = logging.getLogger("repro.serve")

#: request bodies beyond this are rejected outright (413)
MAX_BODY_BYTES = 1 << 20


class _Handler(BaseHTTPRequestHandler):
    """One HTTP request → one service call."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1.0"
    # headers and body go out in separate writes; with Nagle on, a
    # keep-alive client's delayed ACK stalls every response ~40 ms
    disable_nagle_algorithm = True

    # the service instance hangs off the server object
    @property
    def service(self) -> CompressionService:
        return self.server.service  # type: ignore[attr-defined]

    # -- plumbing -------------------------------------------------------
    def log_message(self, fmt: str, *args) -> None:
        logger.info("%s %s", self.address_string(), fmt % args)

    def _client_key(self) -> str:
        """Rate-limit key: explicit header, else peer address."""
        return (self.headers.get("X-Client")
                or self.client_address[0])

    def _send_json(self, status: int, payload: Dict[str, Any],
                   headers: Tuple[Tuple[str, str], ...] = ()) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str,
                         retry_after: Optional[float] = None) -> None:
        headers = ()
        if retry_after is not None:
            headers = (("Retry-After",
                        str(max(1, int(round(retry_after))))),)
        self._send_json(status, {"error": message}, headers)

    def _read_body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise ServiceError(
                f"request body too large ({length} bytes; max "
                f"{MAX_BODY_BYTES})")
        raw = self.rfile.read(length) if length else b""
        self.service._c_bytes_in.inc(len(raw))
        if not raw:
            raise JobError("empty request body; POST a JSON job "
                           "request")
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise JobError(f"request body is not valid JSON: "
                           f"{exc}") from None

    def _dispatch(self, method: str) -> None:
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            handler = self._route(method, path)
            if handler is None:
                self._send_error_json(404, f"no route {method} {path}")
                return
            handler()
        except ServiceRejection as exc:
            self._send_error_json(exc.http_status, str(exc),
                                  retry_after=exc.retry_after)
        except (JobError, ServiceError) as exc:
            self._send_error_json(400, str(exc))
        except UnknownJobError as exc:
            self._send_error_json(
                404, exc.args[0] if exc.args else str(exc))
        except BrokenPipeError:
            pass  # client went away mid-response
        except Exception as exc:  # pragma: no cover - defensive
            logger.exception("unhandled error on %s %s", method, path)
            try:
                self._send_error_json(
                    500, f"internal error: {type(exc).__name__}")
            except OSError:
                pass

    def _route(self, method: str, path: str):
        if path == "/health" and method == "GET":
            return self._handle_health
        if path == "/metrics" and method == "GET":
            return self._handle_metrics
        if path == "/v1/jobs":
            if method == "POST":
                return self._handle_submit
            if method == "GET":
                return self._handle_list
            return None
        if path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/"):]
            if rest.endswith("/result") and method == "GET":
                return lambda: self._handle_result(
                    rest[:-len("/result")])
            if "/" not in rest:
                if method == "GET":
                    return lambda: self._handle_job(rest)
                if method == "DELETE":
                    return lambda: self._handle_cancel(rest)
        return None

    # -- endpoints ------------------------------------------------------
    def _handle_submit(self) -> None:
        request = self._read_body()
        job = self.service.submit(request, client=self._client_key())
        status = 200 if job.cache_hit else 202
        self._send_json(status, job.to_dict())

    def _handle_list(self) -> None:
        jobs = sorted(self.service.jobs(), key=lambda j: j.created,
                      reverse=True)
        self._send_json(200, {"jobs": [j.to_dict() for j in jobs]})

    def _handle_job(self, job_id: str) -> None:
        self._send_json(200, self.service.job(job_id).to_dict())

    def _handle_cancel(self, job_id: str) -> None:
        self._send_json(200, self.service.cancel(job_id).to_dict())

    def _handle_result(self, job_id: str) -> None:
        job = self.service.job(job_id)
        path = self.service.result_path(job_id)
        media = (job.result or {}).get("media_type",
                                       "application/octet-stream")
        with open(path, "rb") as fh:
            fh.seek(0, 2)
            size = fh.tell()
            fh.seek(0)
            self.send_response(200)
            self.send_header("Content-Type", media)
            self.send_header("Content-Length", str(size))
            self.send_header("X-Repro-Digest", job.digest)
            self.end_headers()
            shutil.copyfileobj(fh, self.wfile)
        self.service._c_bytes_out.inc(size)

    def _handle_health(self) -> None:
        health = self.service.health()
        status = 503 if health["status"] == "draining" else 200
        self._send_json(status, health)

    def _handle_metrics(self) -> None:
        body = self.service.metrics_text().encode()
        self.send_response(200)
        self.send_header("Content-Type", METRICS_CONTENT_TYPE)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    # http.server entry points
    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def do_DELETE(self) -> None:
        self._dispatch("DELETE")


class ServiceHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`CompressionService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int],
                 service: CompressionService):
        super().__init__(address, _Handler)
        self.service = service


def make_server(service: CompressionService, host: str = "127.0.0.1",
                port: int = 0) -> ServiceHTTPServer:
    """Bind (but do not run) the HTTP server; ``port=0`` picks a free
    port (``server.server_address`` has the real one) — what the e2e
    tests use."""
    return ServiceHTTPServer((host, port), service)


def serve(service: CompressionService, host: str = "127.0.0.1",
          port: int = 8090, *,
          install_signals: bool = True) -> int:
    """Run the service until SIGTERM/SIGINT; returns an exit code.

    Shutdown is graceful: stop accepting new jobs (503), let queued
    and running work finish, then release the workers, the cache and
    the session.  The ``finally`` path always closes the service, so
    even a crashed accept loop cannot leak the session's executor.
    """
    httpd = make_server(service, host, port)
    bound_host, bound_port = httpd.server_address[:2]
    stop = threading.Event()

    def _shutdown(signum, frame):  # noqa: ARG001 - signal signature
        logger.info("signal %d: draining and shutting down", signum)
        stop.set()
        # shutdown() must come from another thread than serve_forever
        threading.Thread(target=httpd.shutdown, daemon=True).start()

    previous = {}
    if install_signals:
        for sig in (signal.SIGTERM, signal.SIGINT):
            previous[sig] = signal.signal(sig, _shutdown)
    logger.info("repro serve listening on http://%s:%d "
                "(workers=%d queue=%d cache=%s)", bound_host,
                bound_port, service._num_workers, service.queue.maxsize,
                service.cache.root)
    try:
        httpd.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)
        httpd.server_close()
        service.close(drain=True)
        logger.info("repro serve stopped cleanly")
    return 0
