"""The metric catalogue in docs/OBSERVABILITY.md is a tested contract.

Exercise every instrumented path, then diff the set of metric names the
run emitted against the names documented in the catalogue table.  A new
metric without a catalogue row — or a documented metric nothing emits —
fails here.
"""

import re
from pathlib import Path

import pytest

import repro.obs as obs

DOC = Path(__file__).resolve().parents[2] / "docs" / "OBSERVABILITY.md"

#: Catalogue rows look like ``| `metric.name` | type | ...``.
_ROW = re.compile(r"^\| `([a-z][a-z0-9_.]+)` \|", re.MULTILINE)


def _echo(payload, item):
    """Module-level worker for the capped-fan-out probe."""
    return item


def documented_metrics() -> set[str]:
    """Metric names from the catalogue table in docs/OBSERVABILITY.md."""
    text = DOC.read_text()
    section = text.split("## Metric catalogue", 1)[1].split("\n## ", 1)[0]
    return set(_ROW.findall(section))


def test_catalogue_table_parses():
    names = documented_metrics()
    assert len(names) >= 15, f"catalogue table looks broken, parsed only {names}"


def test_documented_metrics_match_emitted(tiny_config, tmp_path, monkeypatch):
    from repro import api
    from repro.io.jsonlio import append_attacks_jsonl

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    obs.reset()
    try:
        # generation + dataset cache (miss, then hit)
        ds = api.generate(config=tiny_config)
        api.generate(config=tiny_config)

        # experiment battery: context views + experiment spans
        api.run_all(api.context(ds))

        # sharded map-reduce: store round-trip, per-shard builds, merge
        from repro.io.colstore import save_sharded_npz

        save_sharded_npz(ds, tmp_path / "store", shards=2)
        sctx = api.context(api.load(tmp_path / "store"))
        api.run_all(sctx)

        # ingest round-trip
        api.ingest(ds.iter_attacks(), window=ds.window)

        # streaming: in-order appends with a carry (of the scans and the
        # duration rank windows too) and a spill, then an out-of-order
        # batch (the spill must precede it: a late batch marks the
        # spilled prefix dirty)
        from repro.core.durations import duration_summary

        records = list(ds.iter_attacks())
        stream = api.stream(window=ds.window)
        stream.append_batch(records[:50])
        stream.context().chains()
        duration_summary(stream.context())
        stream.append_batch(records[50:100])
        stream.context()
        stream.spill_shards(tmp_path / "spill-store")
        stream.append_batch(records[:10])

        # watch: tail a real log, in both memory models
        log = tmp_path / "attacks.jsonl"
        append_attacks_jsonl(records[:20], log)
        session = api.watch(log)
        assert session.poll() is not None
        sketch_session = api.watch(log, sketch=True)
        assert sketch_session.poll() is not None

        # sketch layer: updates, memory/error-budget gauges, one merge
        from repro.core.merge import sketch_summaries
        from repro.sketch import summarize_dataset

        sketch_summaries([summarize_dataset(ds), summarize_dataset(ds)])

        # a capped fan-out: more jobs than CPUs on a multi-item map
        import warnings

        from repro.par.pool import parallel_map

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("os.cpu_count", lambda: 1)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                parallel_map(_echo, [1, 2], jobs=2)

        # serve: one HTTP ingest round-trip (requests, request_seconds,
        # ingest.records, queue_depth, tenants), one batch whose fold
        # raises (ingest.failed) plus a forced 429 on a paused writer
        # (ingest.rejected)
        import json
        import urllib.error
        import urllib.request

        from repro.serve.codec import record_to_json

        rows = [record_to_json(r) for r in records[:20]]
        with api.serve(port=0, queue_size=1) as server:
            body = json.dumps({"records": rows}).encode()
            req = urllib.request.Request(
                server.url + "/v1/ingest?tenant=cat", data=body, method="POST"
            )
            with urllib.request.urlopen(req, timeout=120) as resp:
                assert resp.status == 200
            bad = dict(rows[0], end_time=rows[0]["timestamp"] - 10.0)
            req = urllib.request.Request(
                server.url + "/v1/ingest?tenant=cat",
                data=json.dumps({"records": [bad]}).encode(), method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as failed:
                urllib.request.urlopen(req, timeout=120)
            assert failed.value.code == 422
            tenant = server.tenants.get("cat")
            tenant.pause()
            rejected = 0
            for _ in range(4):
                req = urllib.request.Request(
                    server.url + "/v1/ingest?tenant=cat&wait=0",
                    data=body, method="POST",
                )
                try:
                    urllib.request.urlopen(req, timeout=120).close()
                except urllib.error.HTTPError as err:
                    assert err.code == 429
                    rejected += 1
            assert rejected, "expected at least one 429 on the paused tenant"
            tenant.resume()

        emitted = obs.registry().names()
    finally:
        obs.reset()

    documented = documented_metrics()
    undocumented = emitted - documented
    stale = documented - emitted
    assert not undocumented, f"emitted metrics missing from the catalogue: {sorted(undocumented)}"
    assert not stale, f"catalogue rows nothing emitted: {sorted(stale)}"


@pytest.mark.parametrize("anchor", ["RunManifest JSON schema", "ddos-repro profile"])
def test_doc_sections_present(anchor):
    assert anchor in DOC.read_text()
