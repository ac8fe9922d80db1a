"""Integration: the pipeline layers actually emit into the default registry."""

import pytest

import repro.obs as obs
from repro.core.context import AnalysisContext
from repro.datagen.config import DatasetConfig
from repro.datagen.generator import generate_dataset
from repro.experiments.registry import ALL_EXPERIMENTS, run_all
from repro.io.ingest import dataset_from_records
from repro.stream.builder import StreamingDataset


@pytest.fixture(autouse=True)
def fresh_registry():
    obs.reset()
    yield
    obs.reset()


def test_generation_emits_phase_spans():
    ds = generate_dataset(DatasetConfig.tiny())
    reg = obs.registry()
    assert reg.counter("generate.attacks").value == ds.n_attacks
    gen = reg.stage_tree().find("generate")
    assert gen is not None and gen.n_calls == 1
    assert set(gen.children) == {
        "world", "rosters", "victims", "pool_plans", "inter",
        "par.shards", "merge", "par.participants", "assemble",
    }
    assert reg.counter("par.tasks", phase="shards").value == len(ds.families)
    assert reg.counter("par.tasks", phase="participants").value >= 1
    assert reg.gauge("par.jobs").value == 1.0  # serial fallback still reports
    # phases are sequential slices of the generate span
    assert sum(c.wall_seconds for c in gen.children.values()) <= gen.wall_seconds * 1.01


def test_context_counts_hits_and_misses(tiny_ds):
    ctx = AnalysisContext(tiny_ds)  # unshared: session fixtures stay clean
    reg = obs.registry()
    ctx.view(("probe",), lambda: 41)
    ctx.view(("probe",), lambda: 41)
    ctx.view(("probe",), lambda: 41)
    assert reg.counter("context.view.miss", view="probe").value == 1
    assert reg.counter("context.view.hit", view="probe").value == 2
    assert reg.histogram("context.view.build_seconds", view="probe").count == 1


def test_run_all_emits_experiment_spans(tiny_ds):
    ctx = AnalysisContext(tiny_ds)
    run_all(ctx)
    reg = obs.registry()
    assert reg.counter("experiments.completed").value == len(ALL_EXPERIMENTS)
    battery = reg.stage_tree().find("experiments")
    # every experiment span lands under the battery
    assert set(battery.children) >= {e.id for e in ALL_EXPERIMENTS}


def test_ingest_emits_span_and_count(tiny_ds):
    ds = dataset_from_records(tiny_ds.iter_attacks(), window=tiny_ds.window)
    reg = obs.registry()
    assert reg.counter("ingest.records").value == ds.n_attacks
    assert reg.stage_tree().find("ingest").n_calls == 1


def test_cache_counters(tiny_config, tmp_path):
    from repro.io.cache import load_or_generate

    reg = obs.registry()
    load_or_generate(tiny_config, tmp_path)
    assert reg.counter("cache.dataset.miss").value == 1
    load_or_generate(tiny_config, tmp_path)
    assert reg.counter("cache.dataset.hit").value == 1


def test_stream_append_and_carry_metrics(tiny_ds):
    records = list(tiny_ds.iter_attacks())
    reg = obs.registry()
    stream = StreamingDataset(window=tiny_ds.window)

    assert stream.append_batch(records[:50]) == 50
    ctx = stream.context()
    ctx.view(("probe",), lambda: 1)  # something for the carry to seed
    assert stream.append_batch(records[50:100]) == 50
    stream.context()

    assert reg.counter("stream.records_appended").value == 100
    assert reg.counter("stream.batches", in_order="true").value == 2
    assert reg.gauge("stream.epoch").value == 2.0
    assert reg.histogram("stream.append_seconds").count == 2
    assert reg.histogram("stream.carry_seconds").count == 1
    carried = reg.counter("stream.views_carried").value
    invalidated = reg.counter("stream.views_invalidated").value
    assert carried + invalidated == ctx.n_views

    # an out-of-order batch takes the merge path
    assert stream.append_batch(records[:10]) == 10
    assert reg.counter("stream.batches", in_order="false").value == 1


def test_watch_metrics(tiny_ds, tmp_path):
    from repro.io.jsonlio import append_attacks_jsonl
    from repro.stream.watch import WatchSession

    log = tmp_path / "attacks.jsonl"
    session = WatchSession(log)
    reg = obs.registry()

    assert session.poll() is None  # no file yet: lag gauge still refreshed
    assert session.lag_seconds == 0.0

    records = list(tiny_ds.iter_attacks())[:20]
    append_attacks_jsonl(records, log)
    rendered = session.poll()
    assert rendered is not None
    assert reg.counter("watch.lines_ingested").value == 20
    assert reg.histogram("watch.render_seconds").count == 1
    assert reg.gauge("watch.lag_seconds").value >= 0.0
    assert session.lag_seconds >= 0.0
