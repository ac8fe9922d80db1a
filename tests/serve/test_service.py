"""Service tests over a real socket: round-trips, isolation, parity.

Everything here talks HTTP to a live :class:`repro.serve.AnalysisServer`
bound to a loopback port — no mocked transport — because the contract
under test is the served byte stream: status codes, ``Retry-After``,
and renders byte-identical to a local :func:`repro.api.run_all`.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import api
from repro.serve import AnalysisServer
from repro.serve.codec import record_to_json


def _call(base: str, method: str, path: str, payload: dict | None = None):
    """One HTTP round-trip; returns (status, decoded-JSON-body, headers)."""
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(base + path, data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=120) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read()), dict(err.headers)


@pytest.fixture(scope="module")
def rows(tiny_ds):
    """The tiny dataset as Table I row dicts (the wire schema)."""
    return [record_to_json(r) for r in tiny_ds.iter_attacks()]


@pytest.fixture()
def server():
    with AnalysisServer(port=0, queue_size=4, keep_epochs=4) as srv:
        yield srv


class TestRoundTrips:
    def test_healthz(self, server):
        status, body, _ = _call(server.url, "GET", "/v1/healthz")
        assert status == 200
        assert body["status"] == "ok"
        import repro

        assert body["version"] == repro.__version__

    def test_ingest_then_snapshot(self, server, rows):
        status, body, _ = _call(
            server.url, "POST", "/v1/ingest?tenant=t", {"records": rows[:50]}
        )
        assert status == 200
        assert body == {
            "tenant": "t",
            "accepted": 50,
            "epoch": 1,
            "n_attacks": 50,
        }
        status, snap, _ = _call(server.url, "GET", "/v1/snapshot?tenant=t")
        assert status == 200
        assert snap["epoch"] == 1
        assert snap["n_attacks"] == 50
        assert snap["window"]["n_days"] >= 1
        assert snap["retained_epochs"] == [1]

    def test_async_ingest_returns_202(self, server, rows):
        status, body, _ = _call(
            server.url, "POST", "/v1/ingest?tenant=t&wait=0", {"records": rows[:5]}
        )
        assert status == 202
        assert body["queued"] is True

    def test_single_experiment(self, server, rows):
        _call(server.url, "POST", "/v1/ingest?tenant=t", {"records": rows[:50]})
        status, listing, _ = _call(server.url, "GET", "/v1/experiments?tenant=t")
        assert status == 200
        exp_id = listing["experiments"][0]["id"]
        status, single, _ = _call(
            server.url, "GET", f"/v1/experiments/{exp_id}?tenant=t"
        )
        assert status == 200
        assert single["id"] == exp_id
        assert single["render"] == listing["experiments"][0]["render"]

    def test_metrics_scrape(self, server, rows):
        _call(server.url, "POST", "/v1/ingest?tenant=t", {"records": rows[:5]})
        status, metrics, _ = _call(server.url, "GET", "/v1/metrics")
        assert status == 200
        assert "serve.requests" in metrics
        assert "serve.ingest.records" in metrics


class TestErrorMapping:
    def test_unknown_route_404(self, server):
        status, body, _ = _call(server.url, "GET", "/v1/nowhere")
        assert (status, body["error"]) == (404, "NotFoundError")

    def test_unknown_tenant_404(self, server):
        status, body, _ = _call(server.url, "GET", "/v1/snapshot?tenant=ghost")
        assert (status, body["error"]) == (404, "NotFoundError")

    def test_unknown_experiment_404(self, server, rows):
        _call(server.url, "POST", "/v1/ingest?tenant=t", {"records": rows[:50]})
        status, body, _ = _call(server.url, "GET", "/v1/experiments/nope?tenant=t")
        assert (status, body["error"]) == (404, "NotFoundError")

    def test_wrong_method_405(self, server):
        status, body, _ = _call(server.url, "DELETE", "/v1/snapshot")
        assert (status, body["error"]) == (405, "MethodNotAllowedError")
        status, body, _ = _call(server.url, "GET", "/v1/ingest")
        assert status == 405

    def test_bad_json_400(self, server):
        req = urllib.request.Request(
            server.url + "/v1/ingest", data=b"not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 400

    def test_empty_batch_400(self, server):
        status, body, _ = _call(server.url, "POST", "/v1/ingest", {"records": []})
        assert (status, body["error"]) == (400, "FormatError")

    def test_malformed_row_400_names_the_index(self, server, rows):
        status, body, _ = _call(
            server.url, "POST", "/v1/ingest", {"records": [rows[0], {"bogus": 1}]}
        )
        assert (status, body["error"]) == (400, "FormatError")
        assert "records[1]" in body["detail"]

    def test_invalid_record_422(self, server, rows):
        bad = dict(rows[0])
        bad["end_time"] = bad["timestamp"] - 10.0  # ends before it starts
        status, body, _ = _call(
            server.url, "POST", "/v1/ingest?tenant=t", {"records": [bad]}
        )
        assert (status, body["error"]) == (422, "IngestError")

    def test_non_finite_time_422_leaves_the_tenant_serving(self, server, rows, tiny_ds):
        """JSON's NaN and Infinity parse as floats; such a row is malformed
        (422), nothing of its batch is folded, and later batches answer."""
        bad = dict(rows[3], timestamp=float("nan"))
        status, body, _ = _call(
            server.url, "POST", "/v1/ingest?tenant=nan", {"records": rows[:3] + [bad]}
        )
        assert (status, body["error"]) == (422, "IngestError")
        assert "record #3" in body["detail"]
        status, _, _ = _call(
            server.url, "POST", "/v1/ingest?tenant=nan", {"records": rows[:60]}
        )
        assert status == 200
        status, served, _ = _call(server.url, "GET", "/v1/experiments?tenant=nan")
        assert status == 200
        good = list(tiny_ds.iter_attacks())[:60]
        local = [(r.experiment_id, r.render()) for r in api.run_all(api.context(api.ingest(good)))]
        assert [(e["id"], e["render"]) for e in served["experiments"]] == local

    def test_failed_async_ingest_is_counted(self, server, rows):
        import repro.obs as obs

        failed = obs.registry().counter("serve.ingest.failed")
        _call(server.url, "POST", "/v1/ingest?tenant=late", {"records": rows[:5]})
        epoch = server.tenants.get("late").epoch
        before = failed.value
        bad = dict(rows[5], end_time=rows[5]["timestamp"] - 10.0)
        status, _, _ = _call(
            server.url, "POST", "/v1/ingest?tenant=late&wait=0", {"records": [bad]}
        )
        assert status == 202
        deadline = time.monotonic() + 60
        while failed.value == before and time.monotonic() < deadline:
            time.sleep(0.02)
        assert failed.value == before + 1
        status, snap, _ = _call(server.url, "GET", "/v1/snapshot?tenant=late")
        assert (snap["epoch"], snap["n_attacks"]) == (epoch, 5)
        # The writer survived the failed fold.
        status, body, _ = _call(
            server.url, "POST", "/v1/ingest?tenant=late", {"records": rows[5:10]}
        )
        assert status == 200
        assert (body["epoch"], body["n_attacks"]) == (epoch + 1, 10)

    def test_query_before_any_ingest_409(self, server, rows):
        # The tenant exists (created by an admission that never folded:
        # pause first) but has no published epoch yet.
        tenant = server.tenants.get_or_create("empty")
        tenant.pause()
        status, body, _ = _call(
            server.url, "POST", "/v1/ingest?tenant=empty&wait=0", {"records": rows[:1]}
        )
        assert status == 202
        status, body, _ = _call(server.url, "GET", "/v1/experiments?tenant=empty")
        assert (status, body["error"]) == (409, "ConflictError")
        tenant.resume()

    def test_non_integer_epoch_400(self, server, rows):
        _call(server.url, "POST", "/v1/ingest?tenant=t", {"records": rows[:5]})
        status, body, _ = _call(server.url, "GET", "/v1/snapshot?tenant=t&epoch=x")
        assert (status, body["error"]) == (400, "FormatError")


class TestBackpressure:
    def test_full_queue_returns_429_with_retry_after(self, server, rows):
        tenant = server.tenants.get_or_create("bp")
        tenant.pause()
        try:
            statuses = []
            last_headers = {}
            # queue_size=4 plus the one batch the paused writer already
            # holds: admissions stop within a bounded number of posts.
            for _ in range(10):
                status, body, headers = _call(
                    server.url, "POST", "/v1/ingest?tenant=bp&wait=0",
                    {"records": rows[:1]},
                )
                statuses.append(status)
                last_headers = headers
            assert statuses[-1] == 429
            assert 202 in statuses
            assert float(last_headers["Retry-After"]) > 0
        finally:
            tenant.resume()
        # Once resumed, the held batches fold and ingest works again.
        deadline = time.monotonic() + 60
        while tenant.queue_depth and time.monotonic() < deadline:
            time.sleep(0.05)
        status, body, _ = _call(
            server.url, "POST", "/v1/ingest?tenant=bp", {"records": rows[:1]}
        )
        assert status == 200

    def test_rejected_counter_increments(self, server, rows):
        import repro.obs as obs

        tenant = server.tenants.get_or_create("bp2")
        tenant.pause()
        try:
            before = obs.registry().counter("serve.ingest.rejected").value
            for _ in range(10):
                _call(
                    server.url, "POST", "/v1/ingest?tenant=bp2&wait=0",
                    {"records": rows[:1]},
                )
            after = obs.registry().counter("serve.ingest.rejected").value
            assert after > before
        finally:
            tenant.resume()


class TestEpochIsolation:
    def test_pinned_epoch_is_immutable_across_appends(self, server, rows):
        base = server.url
        _call(base, "POST", "/v1/ingest?tenant=iso", {"records": rows[:80]})
        status, first, _ = _call(base, "GET", "/v1/experiments?tenant=iso&epoch=1")
        assert status == 200
        _call(base, "POST", "/v1/ingest?tenant=iso", {"records": rows[80:]})
        status, pinned, _ = _call(base, "GET", "/v1/experiments?tenant=iso&epoch=1")
        assert status == 200
        assert pinned == first  # epoch 1 unchanged by the epoch-2 append
        status, latest, _ = _call(base, "GET", "/v1/experiments?tenant=iso")
        assert latest["epoch"] == 2
        assert latest != first

    def test_evicted_epoch_404(self, rows):
        with AnalysisServer(port=0, keep_epochs=1) as srv:
            for lo in (0, 10, 20):
                _call(
                    srv.url, "POST", "/v1/ingest?tenant=t",
                    {"records": rows[lo:lo + 10]},
                )
            status, body, _ = _call(srv.url, "GET", "/v1/snapshot?tenant=t&epoch=1")
            assert (status, body["error"]) == (404, "NotFoundError")
            status, snap, _ = _call(srv.url, "GET", "/v1/snapshot?tenant=t")
            assert snap["retained_epochs"] == [3]

    def test_concurrent_readers_see_consistent_epochs(self, server, rows):
        """Readers hammering the service mid-append never see a torn state."""
        base = server.url
        _call(base, "POST", "/v1/ingest?tenant=c", {"records": rows[:20]})
        errors: list = []
        stop = threading.Event()

        def read_loop():
            while not stop.is_set():
                status, snap, _ = _call(base, "GET", "/v1/snapshot?tenant=c")
                if status != 200:
                    errors.append(("snapshot", status, snap))
                    return
                # A snapshot is internally consistent: its epoch is served
                # from the shelf, so a pinned read of it must succeed or
                # the epoch must have been evicted (404) — never a 500.
                status, pinned, _ = _call(
                    base, "GET", f"/v1/snapshot?tenant=c&epoch={snap['epoch']}"
                )
                if status not in (200, 404):
                    errors.append(("pinned", status, pinned))
                    return
                if status == 200 and pinned["n_attacks"] != snap["n_attacks"]:
                    errors.append(("torn", snap, pinned))
                    return

        readers = [threading.Thread(target=read_loop) for _ in range(4)]
        for t in readers:
            t.start()
        for lo in range(20, 120, 10):
            status, _, _ = _call(
                base, "POST", "/v1/ingest?tenant=c", {"records": rows[lo:lo + 10]}
            )
            assert status == 200
        stop.set()
        for t in readers:
            t.join(timeout=60)
        assert not errors, errors[:3]


class TestParity:
    def test_served_battery_matches_local_run_all(self, server, rows, tiny_ds):
        """GET /v1/experiments is byte-identical to a local api.run_all."""
        base = server.url
        records = list(tiny_ds.iter_attacks())
        _call(base, "POST", "/v1/ingest?tenant=p", {"records": rows[:100]})
        _call(base, "POST", "/v1/ingest?tenant=p", {"records": rows[100:]})
        status, served, _ = _call(base, "GET", "/v1/experiments?tenant=p")
        assert status == 200

        stream = api.stream()
        stream.append_batch(records[:100])
        stream.append_batch(records[100:])
        local = [
            (r.experiment_id, r.render()) for r in api.run_all(stream.context())
        ]
        assert [(e["id"], e["render"]) for e in served["experiments"]] == local

    def test_render_cache_is_stable_across_reads(self, server, rows):
        base = server.url
        _call(base, "POST", "/v1/ingest?tenant=p2", {"records": rows[:30]})
        _, first, _ = _call(base, "GET", "/v1/experiments?tenant=p2")
        _, second, _ = _call(base, "GET", "/v1/experiments?tenant=p2")
        assert first == second


class TestLifecycle:
    def test_context_manager_binds_and_stops(self):
        with AnalysisServer(port=0) as srv:
            assert srv.port > 0
            assert srv.url.startswith("http://127.0.0.1:")
            status, _, _ = _call(srv.url, "GET", "/v1/healthz")
            assert status == 200
        # After stop the port no longer accepts connections.
        with pytest.raises(OSError):
            urllib.request.urlopen(srv.url + "/v1/healthz", timeout=2)

    def test_stop_drops_the_tenants(self, rows):
        """A stopped service releases its tenants' streams and epochs."""
        server = api.serve(port=0, queue_size=8)
        try:
            status, _, _ = _call(
                server.url, "POST", "/v1/ingest?tenant=gone", {"records": rows[:5]}
            )
            assert status == 200
            assert server.tenants.names() == ["gone"]
        finally:
            server.stop()
        assert server.tenants.names() == []

    def test_facade_serve_returns_started_server(self):
        server = api.serve(port=0, queue_size=8)
        try:
            assert server.port > 0
            status, _, _ = _call(server.url, "GET", "/v1/healthz")
            assert status == 200
        finally:
            server.stop()

    def test_bad_tenant_name_400(self, server, rows):
        status, body, _ = _call(
            server.url, "POST", "/v1/ingest?tenant=no/slash", {"records": rows[:1]}
        )
        assert (status, body["error"]) == (400, "FormatError")
