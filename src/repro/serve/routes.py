"""URL routing: the ``/v1`` endpoint table, parsed and dispatched.

The router is transport-free — it maps ``(method, path, query, body)``
to a :class:`Response` and never touches sockets, so the whole endpoint
surface is testable without binding a port.  Exceptions raised anywhere
below a handler are converted through
:func:`repro.serve.errors.http_status` into JSON error responses, which
is how a :class:`~repro.errors.FormatError` thrown by the row codec
becomes a 400 and a full ingest queue becomes a 429.

============================  ======================================
endpoint                      meaning
============================  ======================================
``POST /v1/ingest``           append a batch of Table I rows
``GET  /v1/snapshot``         epoch-tagged snapshot metadata
``GET  /v1/sketch``           bounded-memory approximate summary
``GET  /v1/experiments``      the full rendered battery for an epoch
``GET  /v1/experiments/{id}`` one experiment's rendered output
``GET  /v1/metrics``          the process obs-registry snapshot
``GET  /v1/healthz``          liveness + tenant directory
============================  ======================================

All tenant-scoped endpoints take ``?tenant=`` (default ``"default"``);
the read endpoints additionally take ``?epoch=`` to pin a retained
snapshot, and ingest takes ``?wait=0`` to return 202 on admission
instead of blocking for the fold.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from urllib.parse import parse_qs, urlsplit

from .. import __version__ as _repro_version
from ..errors import FormatError
from ..obs import registry as _obs_registry
from .codec import decode_ingest, encode_body
from .errors import MethodNotAllowedError, NotFoundError, error_payload, http_status
from .tenants import TenantRegistry

__all__ = ["Response", "Router"]

_DEFAULT_TENANT = "default"


@dataclass
class Response:
    """One routed outcome: status code, JSON payload, extra headers.

    ``route`` is the stable label the request metrics are tagged with
    (``serve.requests{route=...}``) — the endpoint name, never the raw
    path, so tenant/experiment ids do not explode the label space.
    """

    status: int
    payload: dict
    route: str
    headers: dict = field(default_factory=dict)

    @property
    def body(self) -> bytes:
        """The encoded JSON body."""
        return encode_body(self.payload)


def _one(query: dict, key: str, default: str | None = None) -> str | None:
    values = query.get(key)
    return values[-1] if values else default


def _epoch_of(query: dict) -> int | None:
    raw = _one(query, "epoch")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise FormatError(f"epoch must be an integer, got {raw!r}") from None


class Router:
    """Dispatches parsed requests against a :class:`TenantRegistry`.

    >>> from repro.serve.routes import Router
    >>> router = Router()
    >>> router.handle("GET", "/v1/healthz", b"").status
    200
    >>> router.handle("GET", "/v1/nowhere", b"").status
    404
    >>> router.close()
    """

    def __init__(self, tenants: TenantRegistry | None = None) -> None:
        self.tenants = tenants if tenants is not None else TenantRegistry()
        self.started_at = time.time()

    def close(self) -> None:
        """Stop every tenant's writer thread and drop the tenants."""
        self.tenants.close()

    # -- dispatch ----------------------------------------------------------

    def handle(self, method: str, target: str, body: bytes) -> Response:
        """Route one request; exceptions become JSON error responses."""
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        query = parse_qs(split.query)
        try:
            return self._dispatch(method, path, query, body)
        except BaseException as exc:
            status = http_status(exc)
            headers = {}
            retry_after = getattr(exc, "retry_after", None)
            if retry_after is not None:
                headers["Retry-After"] = f"{retry_after:g}"
            return Response(
                status=status,
                payload=error_payload(exc),
                route=self._route_label(path),
                headers=headers,
            )

    def _dispatch(self, method: str, path: str, query: dict, body: bytes) -> Response:
        if path == "/v1/ingest":
            self._require(method, "POST", path)
            return self._ingest(query, body)
        if path == "/v1/snapshot":
            self._require(method, "GET", path)
            return self._snapshot(query)
        if path == "/v1/sketch":
            self._require(method, "GET", path)
            return self._sketch(query)
        if path == "/v1/experiments":
            self._require(method, "GET", path)
            return self._experiments(query)
        if path.startswith("/v1/experiments/"):
            self._require(method, "GET", path)
            return self._experiment(path[len("/v1/experiments/"):], query)
        if path == "/v1/metrics":
            self._require(method, "GET", path)
            return self._metrics()
        if path == "/v1/healthz":
            self._require(method, "GET", path)
            return self._healthz()
        raise NotFoundError(f"no route for {path!r} (the API lives under /v1)")

    @staticmethod
    def _require(method: str, allowed: str, path: str) -> None:
        if method != allowed:
            raise MethodNotAllowedError(f"{path} only accepts {allowed}")

    @staticmethod
    def _route_label(path: str) -> str:
        if path == "/v1/ingest":
            return "ingest"
        if path == "/v1/snapshot":
            return "snapshot"
        if path == "/v1/sketch":
            return "sketch"
        if path == "/v1/experiments":
            return "experiments"
        if path.startswith("/v1/experiments/"):
            return "experiment"
        if path == "/v1/metrics":
            return "metrics"
        if path == "/v1/healthz":
            return "healthz"
        return "unknown"

    # -- handlers ----------------------------------------------------------

    def _ingest(self, query: dict, body: bytes) -> Response:
        tenant_name = _one(query, "tenant", _DEFAULT_TENANT)
        wait = _one(query, "wait", "1") not in ("0", "false", "no")
        columns = decode_ingest(body)
        tenant = self.tenants.get_or_create(tenant_name)
        result = tenant.ingest(columns, wait=wait)
        return Response(
            status=200 if wait else 202, payload=result, route="ingest"
        )

    def _snapshot(self, query: dict) -> Response:
        with _obs_registry().span("serve.snapshot"):
            tenant = self.tenants.get(_one(query, "tenant", _DEFAULT_TENANT))
            epoch = _epoch_of(query)
            if epoch is None:
                payload = tenant.snapshot_info()
            else:
                pinned, ctx = tenant.context_at(epoch)
                ds = ctx.dataset
                payload = tenant.snapshot_info()
                payload.update(
                    epoch=pinned,
                    n_attacks=int(ds.n_attacks),
                    n_families=len(ds.active_families),
                    families=list(ds.active_families),
                    window={
                        "start": float(ds.window.start),
                        "end": float(ds.window.end),
                        "n_days": int(ds.window.n_days),
                    },
                )
        return Response(status=200, payload=payload, route="snapshot")

    def _sketch(self, query: dict) -> Response:
        with _obs_registry().span("serve.sketch"):
            tenant = self.tenants.get(_one(query, "tenant", _DEFAULT_TENANT))
            epoch, sketch = tenant.sketch_at(_epoch_of(query))
            payload = {
                "tenant": tenant.name,
                "epoch": epoch,
                "n_records": sketch.n_records,
                "estimate": sketch.estimate(),
                "contract": sketch.contract(),
                "sketch_bytes": sketch.memory_bytes(),
                "resident_bytes": tenant.resident_bytes,
            }
        return Response(status=200, payload=payload, route="sketch")

    def _experiments(self, query: dict) -> Response:
        with _obs_registry().span("serve.experiments"):
            tenant = self.tenants.get(_one(query, "tenant", _DEFAULT_TENANT))
            epoch, rendered = tenant.experiments(_epoch_of(query))
        return Response(
            status=200,
            payload={
                "tenant": tenant.name,
                "epoch": epoch,
                "experiments": [
                    {"id": exp_id, "render": text} for exp_id, text in rendered
                ],
            },
            route="experiments",
        )

    def _experiment(self, exp_id: str, query: dict) -> Response:
        with _obs_registry().span("serve.experiments"):
            tenant = self.tenants.get(_one(query, "tenant", _DEFAULT_TENANT))
            epoch, rendered = tenant.experiments(_epoch_of(query))
            for candidate, text in rendered:
                if candidate == exp_id:
                    payload = {
                        "tenant": tenant.name,
                        "epoch": epoch,
                        "id": exp_id,
                        "render": text,
                    }
                    break
            else:
                raise NotFoundError(
                    f"unknown experiment {exp_id!r} "
                    f"(known: {[i for i, _ in rendered]})"
                )
        return Response(status=200, payload=payload, route="experiment")

    def _metrics(self) -> Response:
        return Response(
            status=200, payload=_obs_registry().snapshot(), route="metrics"
        )

    def _healthz(self) -> Response:
        return Response(
            status=200,
            payload={
                "status": "ok",
                "version": _repro_version,
                "uptime_seconds": round(time.time() - self.started_at, 3),
                "tenants": self.tenants.names(),
            },
            route="healthz",
        )
