"""Per-tenant streaming state: bounded ingest, epoch snapshots, renders.

Each :class:`Tenant` owns one :class:`~repro.stream.StreamingDataset`
and a single **writer thread** — the only thread that ever mutates the
stream.  Requests enqueue batches onto a bounded queue (a full queue is
backpressure: :class:`~repro.serve.errors.BackpressureError`, HTTP 429);
the writer drains them in order, folds each batch, and *publishes* the
new epoch's immutable :class:`~repro.core.context.AnalysisContext`
snapshot.  Readers never touch the stream itself — they pick up a
published context (the last ``keep_epochs`` are retained so an epoch a
client is paging through survives a few more appends) and run against
it, which is exactly the isolation contract the streaming layer already
guarantees: a snapshot's views are immutable once materialised, so a
reader mid-battery is unaffected by concurrent appends.

Prewarm-on-ingest: the writer builds the snapshot's views *before*
publishing (``StreamingDataset.context()`` then
:meth:`~repro.core.context.AnalysisContext.prewarm` — the O(batch)
carry plus an eager rebuild of the views it dropped), so by the time a
reader can see an epoch, its expensive views are already warm and a
battery render is cheap.  Rendered experiment output is additionally
cached per epoch, shared by every reader of that epoch.
"""

from __future__ import annotations

import queue
import re
import threading
import time
from collections import OrderedDict
from collections.abc import Mapping
from concurrent.futures import Future

from ..core.context import AnalysisContext
from ..errors import FormatError
from ..obs import registry as _obs_registry
from .errors import BackpressureError, ConflictError, NotFoundError

__all__ = ["Tenant", "TenantRegistry"]

_STOP = object()

_TENANT_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class Tenant:
    """One tenant's stream, writer thread, and epoch snapshot shelf.

    Not constructed directly in normal use — ask the server's
    :class:`TenantRegistry` (`get_or_create`).  All methods are safe to
    call from any request thread.

    >>> from repro.serve.tenants import Tenant
    >>> t = Tenant("demo", queue_size=4)
    >>> t.snapshot_info()["epoch"]
    0
    >>> t.close()
    """

    def __init__(
        self,
        name: str,
        *,
        queue_size: int = 64,
        keep_epochs: int = 4,
        max_tenant_bytes: int | None = None,
    ) -> None:
        if not _TENANT_NAME.match(name):
            raise FormatError(
                f"bad tenant name {name!r}: expected 1-64 chars of "
                "[A-Za-z0-9_.-], starting alphanumeric"
            )
        from ..stream import StreamingDataset  # late: keeps import cycle-free

        self.name = name
        self.created_at = time.time()
        self._keep_epochs = max(1, keep_epochs)
        self._max_tenant_bytes = max_tenant_bytes
        self._stream = StreamingDataset(sketches=True)
        self._queue: queue.Queue = queue.Queue(maxsize=queue_size)
        self._running = threading.Event()
        self._running.set()
        self._lock = threading.Lock()
        #: The snapshot shelf: epoch -> (context, frozen sketch summary).
        self._epochs: "OrderedDict[int, tuple[AnalysisContext, object]]" = OrderedDict()
        self._render_lock = threading.Lock()
        self._renders: dict[int, list[tuple[str, str]]] = {}
        self._writer = threading.Thread(
            target=self._drain, name=f"serve-writer-{name}", daemon=True
        )
        self._writer.start()

    # -- the write side ----------------------------------------------------

    def ingest(self, batch, *, wait: bool = True, timeout: float = 60.0) -> dict:
        """Enqueue one batch; with ``wait`` return the applied epoch.

        ``batch`` is what :meth:`StreamingDataset.append_batch
        <repro.stream.StreamingDataset.append_batch>` takes: the columns
        the codec decodes, or records.

        The queue is bounded: a full queue raises
        :class:`~repro.serve.errors.BackpressureError` (HTTP 429 with
        ``Retry-After``) *without* blocking the request thread.  With
        ``wait`` (the default) the call returns after the writer has
        folded the batch and published the snapshot —
        ``{"accepted": n, "epoch": e, "n_attacks": total}`` — so the
        client can immediately query the epoch it just created; a
        validation failure inside the fold (e.g. a record that ends
        before it starts) re-raises here.  ``wait=False`` returns
        ``{"queued": True, ...}`` as soon as the batch is admitted.
        """
        if not isinstance(batch, Mapping):
            batch = list(batch)
        if (
            self._max_tenant_bytes is not None
            and self._stream.resident_bytes() >= self._max_tenant_bytes
        ):
            _obs_registry().counter("serve.ingest.rejected").inc()
            raise BackpressureError(
                f"tenant {self.name!r} is at its memory ceiling "
                f"({self._stream.resident_bytes()} of {self._max_tenant_bytes} "
                "resident bytes); query /v1/sketch for the bounded-memory "
                "summary, or retry after eviction"
            )
        future: Future = Future()
        try:
            self._queue.put_nowait((batch, future))
        except queue.Full:
            _obs_registry().counter("serve.ingest.rejected").inc()
            raise BackpressureError(
                f"tenant {self.name!r} ingest queue is full "
                f"({self._queue.maxsize} pending batches); retry later"
            ) from None
        self._gauge_depth()
        if not wait:
            return {
                "tenant": self.name,
                "queued": True,
                "queue_depth": self._queue.qsize(),
            }
        return future.result(timeout=timeout)

    def _drain(self) -> None:
        """Writer loop: fold batches in order, publish epoch snapshots."""
        reg = _obs_registry()
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            self._running.wait()
            batch, future = item
            try:
                with reg.span("serve.ingest"):
                    n = self._stream.append_batch(batch)
                    ctx = self._stream.context()
                    ctx.prewarm()
                epoch = self._stream.epoch
                if n:
                    self._publish(epoch, ctx)
                    reg.counter("serve.ingest.records").inc(n)
                    reg.gauge("serve.tenant_bytes", tenant=self.name).set(
                        self._stream.resident_bytes()
                    )
                result = {
                    "tenant": self.name,
                    "accepted": n,
                    "epoch": epoch,
                    "n_attacks": int(ctx.dataset.n_attacks),
                }
                future.set_result(result)
            except BaseException as exc:  # surfaces on the waiting request
                # A ``wait=0`` batch has no waiting request: the counter
                # is the only trace its failure leaves.
                reg.counter("serve.ingest.failed").inc()
                future.set_exception(exc)
            finally:
                self._gauge_depth()

    def _publish(self, epoch: int, ctx: AnalysisContext) -> None:
        sketch = self._stream.sketch_snapshot()
        with self._lock:
            self._epochs[epoch] = (ctx, sketch)
            while len(self._epochs) > self._keep_epochs:
                evicted, _ = self._epochs.popitem(last=False)
                self._renders.pop(evicted, None)

    def _gauge_depth(self) -> None:
        _obs_registry().gauge("serve.queue_depth", tenant=self.name).set(
            self._queue.qsize()
        )

    # -- flow control ------------------------------------------------------

    def pause(self) -> None:
        """Stop the writer from draining (admission continues until full).

        Maintenance valve: paused, the bounded queue fills and further
        ingests surface as 429 backpressure while readers keep serving
        the published epochs.
        """
        self._running.clear()

    def resume(self) -> None:
        """Let a paused writer drain again."""
        self._running.set()

    @property
    def queue_depth(self) -> int:
        """Batches admitted but not yet folded."""
        return self._queue.qsize()

    @property
    def epoch(self) -> int:
        """The latest published epoch (0 before any data)."""
        with self._lock:
            return next(reversed(self._epochs)) if self._epochs else 0

    # -- the read side -----------------------------------------------------

    def _shelf(self, epoch: int | None) -> tuple[int, AnalysisContext, object]:
        """A published epoch's context and sketch (latest when ``None``)."""
        with self._lock:
            if not self._epochs:
                raise ConflictError(
                    f"tenant {self.name!r} has no data yet; POST /v1/ingest first"
                )
            if epoch is None:
                epoch = next(reversed(self._epochs))
            shelved = self._epochs.get(epoch)
        if shelved is None:
            raise NotFoundError(
                f"epoch {epoch} of tenant {self.name!r} is not on the "
                f"snapshot shelf (retained: {self.retained_epochs()})"
            )
        return (epoch, *shelved)

    def context_at(self, epoch: int | None = None) -> tuple[int, AnalysisContext]:
        """A published epoch's immutable context (latest when ``None``).

        Raises :class:`~repro.serve.errors.ConflictError` on a tenant
        with no data yet, and
        :class:`~repro.serve.errors.NotFoundError` for an epoch that was
        never published or has been evicted from the shelf.
        """
        epoch, ctx, _ = self._shelf(epoch)
        return epoch, ctx

    def sketch_at(self, epoch: int | None = None) -> tuple[int, object]:
        """A published epoch's frozen sketch summary (latest when ``None``).

        Each sketch shares its shelf slot with the context, so any epoch
        :meth:`context_at` can serve, this can too, with the same errors.
        """
        epoch, _, sketch = self._shelf(epoch)
        return epoch, sketch

    @property
    def resident_bytes(self) -> int:
        """The stream's resident buffer bytes (the ceiling's measure)."""
        return self._stream.resident_bytes()

    def retained_epochs(self) -> list[int]:
        """The epochs currently on the shelf, oldest first."""
        with self._lock:
            return list(self._epochs)

    def snapshot_info(self) -> dict:
        """Epoch-tagged snapshot metadata (the ``/v1/snapshot`` payload)."""
        with self._lock:
            epoch = next(reversed(self._epochs)) if self._epochs else 0
            ctx = self._epochs[epoch][0] if self._epochs else None
        info = {
            "tenant": self.name,
            "epoch": epoch,
            "n_attacks": 0,
            "n_families": 0,
            "families": [],
            "window": None,
            "retained_epochs": self.retained_epochs(),
            "queue_depth": self.queue_depth,
            "paused": not self._running.is_set(),
        }
        if ctx is not None:
            ds = ctx.dataset
            info.update(
                n_attacks=int(ds.n_attacks),
                n_families=len(ds.active_families),
                families=list(ds.active_families),
                window={
                    "start": float(ds.window.start),
                    "end": float(ds.window.end),
                    "n_days": int(ds.window.n_days),
                },
            )
        return info

    def experiments(self, epoch: int | None = None) -> tuple[int, list[tuple[str, str]]]:
        """The battery's rendered output for one epoch, from the cache.

        First reader of an epoch pays the render (against the already
        prewarmed context); everyone after is a dict lookup.  The
        rendered strings are exactly ``result.render()`` of a local
        :func:`repro.api.run_all` over the same snapshot — the parity
        the service tests pin byte-for-byte.
        """
        epoch, ctx = self.context_at(epoch)
        with self._render_lock:
            cached = self._renders.get(epoch)
            if cached is None:
                from ..experiments.registry import run_all

                cached = [(r.experiment_id, r.render()) for r in run_all(ctx)]
                with self._lock:
                    if epoch in self._epochs:  # do not cache for evicted epochs
                        self._renders[epoch] = cached
        return epoch, cached

    def close(self) -> None:
        """Stop the writer thread (pending admitted batches still fold)."""
        self._running.set()
        self._queue.put(_STOP)
        self._writer.join(timeout=10.0)


class TenantRegistry:
    """The server's tenant directory; creates tenants on first ingest.

    >>> from repro.serve.tenants import TenantRegistry
    >>> reg = TenantRegistry(queue_size=4)
    >>> reg.get_or_create("a") is reg.get("a")
    True
    >>> reg.names()
    ['a']
    >>> reg.close()
    """

    def __init__(
        self,
        *,
        queue_size: int = 64,
        keep_epochs: int = 4,
        max_tenant_bytes: int | None = None,
    ) -> None:
        self._config = dict(
            queue_size=queue_size,
            keep_epochs=keep_epochs,
            max_tenant_bytes=max_tenant_bytes,
        )
        self._lock = threading.Lock()
        self._tenants: dict[str, Tenant] = {}

    def get(self, name: str) -> Tenant:
        """The named tenant, or 404 if it never ingested anything."""
        tenant = self._tenants.get(name)
        if tenant is None:
            raise NotFoundError(
                f"unknown tenant {name!r} (known: {self.names() or 'none yet'})"
            )
        return tenant

    def get_or_create(self, name: str) -> Tenant:
        """The named tenant, created with the server's limits on first use."""
        tenant = self._tenants.get(name)
        if tenant is not None:
            return tenant
        with self._lock:
            tenant = self._tenants.get(name)
            if tenant is None:
                tenant = Tenant(name, **self._config)
                self._tenants[name] = tenant
                _obs_registry().gauge("serve.tenants").set(len(self._tenants))
        return tenant

    def names(self) -> list[str]:
        """Tenant names, sorted."""
        return sorted(self._tenants)

    def close(self) -> None:
        """Stop every tenant's writer thread and drop the tenants."""
        with self._lock:
            tenants, self._tenants = list(self._tenants.values()), {}
        for tenant in tenants:
            tenant.close()
        _obs_registry().gauge("serve.tenants").set(0)
