"""/v1/sketch and the per-tenant memory ceiling, over a real socket."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.serve import AnalysisServer
from repro.serve.codec import record_to_json


def _call(base: str, method: str, path: str, payload: dict | None = None):
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(base + path, data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=120) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read()), dict(err.headers)


@pytest.fixture(scope="module")
def rows(tiny_ds):
    return [record_to_json(r) for r in tiny_ds.iter_attacks()]


@pytest.fixture()
def server():
    with AnalysisServer(port=0, queue_size=4, keep_epochs=4) as srv:
        yield srv


class TestSketchEndpoint:
    def test_sketch_after_ingest(self, server, rows):
        status, body, _ = _call(
            server.url, "POST", "/v1/ingest?tenant=t", {"records": rows[:50]}
        )
        assert status == 200
        status, sketch, _ = _call(server.url, "GET", "/v1/sketch?tenant=t")
        assert status == 200
        assert sketch["tenant"] == "t"
        assert sketch["epoch"] == body["epoch"]
        assert sketch["n_records"] == 50
        assert sketch["estimate"]["n_records"] == 50
        assert set(sketch["contract"]) == {"hll", "kll"}
        assert 0 < sketch["sketch_bytes"] <= sketch["resident_bytes"]

    def test_epoch_pinning(self, server, rows):
        _call(server.url, "POST", "/v1/ingest?tenant=t", {"records": rows[:20]})
        _call(server.url, "POST", "/v1/ingest?tenant=t", {"records": rows[20:50]})
        status, pinned, _ = _call(server.url, "GET", "/v1/sketch?tenant=t&epoch=1")
        assert status == 200
        assert pinned["epoch"] == 1
        assert pinned["n_records"] == 20
        status, latest, _ = _call(server.url, "GET", "/v1/sketch?tenant=t")
        assert latest["epoch"] == 2
        assert latest["n_records"] == 50

    def test_unknown_tenant_404(self, server):
        status, body, _ = _call(server.url, "GET", "/v1/sketch?tenant=nobody")
        assert (status, body["error"]) == (404, "NotFoundError")

    def test_tenant_before_publish_409(self, server):
        server.tenants.get_or_create("empty")
        status, body, _ = _call(server.url, "GET", "/v1/sketch?tenant=empty")
        assert (status, body["error"]) == (409, "ConflictError")

    def test_evicted_epoch_404(self, server, rows):
        for i in range(6):  # keep_epochs=4 -> epoch 1 falls off
            _call(
                server.url,
                "POST",
                "/v1/ingest?tenant=t",
                {"records": rows[i * 5 : i * 5 + 5]},
            )
        status, body, _ = _call(server.url, "GET", "/v1/sketch?tenant=t&epoch=1")
        assert (status, body["error"]) == (404, "NotFoundError")
        assert "not on the snapshot shelf" in body["detail"]

    def test_post_not_allowed(self, server):
        status, _, _ = _call(server.url, "POST", "/v1/sketch?tenant=t", {})
        assert status == 405

    def test_tenant_isolation(self, server, rows):
        _call(server.url, "POST", "/v1/ingest?tenant=a", {"records": rows[:10]})
        _call(server.url, "POST", "/v1/ingest?tenant=b", {"records": rows[:30]})
        _, a, _ = _call(server.url, "GET", "/v1/sketch?tenant=a")
        _, b, _ = _call(server.url, "GET", "/v1/sketch?tenant=b")
        assert a["n_records"] == 10
        assert b["n_records"] == 30


class TestMemoryCeiling:
    def test_ingest_429_past_ceiling(self, rows):
        # A fresh sketch-enabled tenant sits around 14 KiB resident and
        # its columns grow with every batch, so a 1 MiB ceiling trips
        # after a bounded number of batches.
        with AnalysisServer(port=0, max_tenant_bytes=1 << 20) as srv:
            code = headers = None
            for _ in range(2_000):
                status, body, hdrs = _call(
                    srv.url, "POST", "/v1/ingest?tenant=t", {"records": rows}
                )
                if status != 200:
                    code, headers, err = status, hdrs, body
                    break
            assert code == 429
            assert "Retry-After" in headers
            assert err["error"] == "BackpressureError"
            assert "memory ceiling" in err["detail"]
            assert "/v1/sketch" in err["detail"]
            # The sketch endpoint still answers past the ceiling.
            status, sketch, _ = _call(srv.url, "GET", "/v1/sketch?tenant=t")
            assert status == 200
            assert sketch["n_records"] > 0

    def test_no_ceiling_by_default(self, server, rows):
        status, _, _ = _call(
            server.url, "POST", "/v1/ingest?tenant=t", {"records": rows}
        )
        assert status == 200
