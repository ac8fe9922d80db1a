"""The HTTP transport: stdlib ``ThreadingHTTPServer`` around the router.

No framework, no new dependency: ``http.server`` gives one thread per
connection (HTTP/1.1 keep-alive), the :class:`~repro.serve.routes.Router`
gives thread-safe dispatch, and the tenant layer serialises writes — so
concurrency here is just "hand the parsed request to the router".

Every request is timed under a ``serve.request`` span and lands in two
instruments: ``serve.requests{route,status}`` (counter) and
``serve.request_seconds{route}`` (histogram).  The obs registry is the
process-wide default one, so ``GET /v1/metrics`` scrapes the same
counters the rest of the pipeline reports to.

>>> from repro.serve import AnalysisServer
>>> with AnalysisServer(port=0) as server:
...     server.url.startswith("http://127.0.0.1:")
True
"""

from __future__ import annotations

import ctypes
import gc
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..obs import registry as _obs_registry
from .routes import Router

__all__ = ["AnalysisServer"]

#: Refuse request bodies beyond this size (64 MiB) before reading them.
MAX_BODY_BYTES = 64 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    """Thin adapter from ``http.server`` callbacks to the router."""

    protocol_version = "HTTP/1.1"
    server_version = "ddos-repro-serve"

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Silence the default stderr access log (metrics replace it)."""

    def _respond(self, method: str) -> None:
        reg = _obs_registry()
        started = time.perf_counter()
        with reg.span("serve.request"):
            body = b""
            if method == "POST":
                length = int(self.headers.get("Content-Length") or 0)
                if length > MAX_BODY_BYTES:
                    self.send_error(413, explain="request body too large")
                    self.close_connection = True
                    return
                body = self.rfile.read(length) if length else b""
            response = self.server.router.handle(method, self.path, body)
            payload = response.body
            self.send_response(response.status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            for name, value in response.headers.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(payload)
        reg.counter(
            "serve.requests", route=response.route, status=str(response.status)
        ).inc()
        reg.histogram("serve.request_seconds", route=response.route).observe(
            time.perf_counter() - started
        )

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        """Serve a GET through the router."""
        self._respond("GET")

    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        """Serve a POST through the router."""
        self._respond("POST")

    def do_PUT(self) -> None:  # noqa: N802 (http.server naming)
        """Reject with the router's 405 (PUT is never allowed)."""
        self._respond("PUT")

    def do_DELETE(self) -> None:  # noqa: N802 (http.server naming)
        """Reject with the router's 405 (DELETE is never allowed)."""
        self._respond("DELETE")


class _HTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the router for its handlers."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], router: Router) -> None:
        super().__init__(address, _Handler)
        self.router = router


class AnalysisServer:
    """A running (or startable) analysis service over the facade.

    The object is both the handle :func:`repro.api.serve` returns and a
    context manager; ``with api.serve(port=0) as server`` yields a bound,
    listening service and tears it down on exit.  ``port=0`` asks the OS
    for a free port — read it back from :attr:`port` / :attr:`url`.

    >>> from repro.serve import AnalysisServer
    >>> server = AnalysisServer(port=0).start()
    >>> server.port > 0
    True
    >>> server.stop()
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_size: int = 64,
        keep_epochs: int = 4,
        max_tenant_bytes: int | None = None,
    ) -> None:
        from .tenants import TenantRegistry

        self.host = host
        self._requested_port = port
        self.router = Router(
            TenantRegistry(
                queue_size=queue_size,
                keep_epochs=keep_epochs,
                max_tenant_bytes=max_tenant_bytes,
            )
        )
        self._httpd: _HTTPServer | None = None
        self._thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "AnalysisServer":
        """Bind, spawn the accept loop, return ``self`` (idempotent)."""
        if self._httpd is not None:
            return self
        self._httpd = _HTTPServer((self.host, self._requested_port), self.router)
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"serve-accept-{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the accept loop down, stop every tenant writer and release
        the tenants' memory (see :func:`_release_memory`)."""
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.router.close()
        _release_memory()

    def __enter__(self) -> "AnalysisServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- addressing --------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._httpd is not None:
            return self._httpd.server_address[1]
        return self._requested_port

    @property
    def url(self) -> str:
        """The service base URL, e.g. ``http://127.0.0.1:8321``."""
        return f"http://{self.host}:{self.port}"

    @property
    def tenants(self):
        """The tenant registry (handy for tests and flow control)."""
        return self.router.tenants


def _release_memory() -> None:
    """Free the dropped tenants now and hand the freed heap to the OS.

    Epoch snapshots are reference cycles, so they wait for a full
    collection.  glibc then keeps the freed memory in the arenas of the
    threads that allocated it, where the threads of a later service in
    the same process rarely reuse it: without ``malloc_trim`` a process
    grows by about one service's working set per service it starts and
    stops.  Where libc has no ``malloc_trim`` only the collection runs.
    """
    gc.collect()
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    trim(0)
