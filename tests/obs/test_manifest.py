"""Unit tests for RunManifest collection and serialisation."""

import json

from repro.obs import ObsRegistry, RunManifest, peak_rss_bytes


def _populated_registry():
    reg = ObsRegistry()
    with reg.span("experiments") as battery:
        with reg.span("table2_protocols", parent=battery):
            pass
        with reg.span("fig2_daily", parent=battery):
            pass
    reg.counter("ingest.records").inc(10)
    reg.gauge("par.jobs").set(2)
    reg.histogram("context.view.build_seconds", view="durations").observe(0.01)
    return reg


def test_collect_shapes(tiny_ds):
    reg = _populated_registry()
    m = RunManifest.collect(
        reg, seed=7, scale=0.005, config_key="abc123", dataset=tiny_ds,
        argv=["ddos-repro", "profile"],
    )
    assert m.schema_version == 1
    assert m.seed == 7 and m.scale == 0.005 and m.config_key == "abc123"
    assert m.argv == ["ddos-repro", "profile"]
    assert m.dataset_shape["n_attacks"] == tiny_ds.n_attacks
    assert m.dataset_shape["n_bots"] == tiny_ds.bots.n_bots
    assert {e["id"] for e in m.experiments} == {"table2_protocols", "fig2_daily"}
    assert all(e["n_runs"] == 1 for e in m.experiments)
    assert "ingest.records" in m.metrics
    rss = peak_rss_bytes()
    assert m.peak_rss_bytes == rss or (m.peak_rss_bytes is None and rss is None)


def test_collect_without_dataset():
    m = RunManifest.collect(_populated_registry())
    assert m.dataset_shape == {}
    assert m.seed is None and m.config_key is None


def test_json_round_trip(tmp_path):
    m = RunManifest.collect(_populated_registry(), seed=7)
    path = m.write(tmp_path / "sub" / "manifest.json")
    data = json.loads(path.read_text())
    assert data["schema_version"] == 1
    assert data["seed"] == 7
    assert "experiments" in data["stages"]["children"]
    assert data["metrics"]["par.jobs"][0]["value"] == 2.0


def test_stage_tree_rehydrates():
    m = RunManifest.collect(_populated_registry())
    tree = m.stage_tree()
    assert tree.find("experiments", "table2_protocols").n_calls == 1
