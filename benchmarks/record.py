"""Record or check a benchmark baseline (cold path or warm path).

The **cold path** (``--section cold``, baseline ``BENCH_coldpath.json``)
is everything that runs before the first analysis result: dataset
generation, the on-disk round trip, and the first experiment battery.
The **warm path** (``--section warm``, baseline ``BENCH_warmpath.json``)
is everything downstream of a loaded dataset: the derived-view builds,
the sweep-line scan kernels, and the experiment battery cold vs warm.
This script times each leg at one or more scales and either

* writes the measurements (plus a machine manifest) as a committed
  baseline::

      python benchmarks/record.py --out BENCH_coldpath.json
      python benchmarks/record.py --section warm --out BENCH_warmpath.json

* or re-measures and compares against a committed baseline, failing
  when any timing regressed beyond the tolerance factor (the CI
  bench-smoke step; machine variance is what the generous default
  tolerance absorbs)::

      python benchmarks/record.py --scales small \
          --check BENCH_coldpath.json --tolerance 3

Cold-path legs per scale:

* ``generate_jobs1`` / ``generate_jobs{N}`` — cold generation, serial
  vs the process-parallel shards (``repro.par``); the two datasets are
  asserted array-identical before either number is accepted;
* ``colstore_save`` / ``colstore_load_mmap`` / ``colstore_load_buffered``
  — the columnar binary store round trip (mmap opens lazily, the
  buffered load reads every byte and is the conservative comparison);
* ``jsonl_export`` / ``jsonl_ingest`` — the text round trip the
  colstore replaces on the cold path;
* ``table4_cold`` — the ARIMA prediction experiment on a fresh context;
* ``run_all_cold`` — the full battery on a fresh context.

Warm-path legs per scale (generation is untimed setup here):

* ``context_build`` — a fresh :class:`AnalysisContext` plus the
  participant CSR gather for every active family;
* ``collab_scan`` / ``chain_scan`` — the sweep-line collaboration and
  consecutive-chain kernels over the raw dataset;
* ``snapshot_dispersions`` — the batched hourly-snapshot dispersion
  kernel on the busiest family;
* ``prewarm_jobs1`` — :meth:`AnalysisContext.prewarm` on a fresh
  context (the key keeps its name so older baselines still compare);
* ``run_all_cold`` / ``run_all_warm`` — the battery on a fresh context,
  then again on the now-warm one; the rendered outputs are asserted
  byte-identical.

The **scale-out path** (``--section scaleout``, baseline
``BENCH_scaleout.json``) measures the sharded map-reduce stack at 10x
the paper's volume: a synthetic attack table (5M rows at ``full``,
riding on a real generated world/registry base) is partitioned into
time shards on disk, every shard's mergeable views are built and timed
individually (after an untimed warmup build, so the first shard is not
billed the process warmup), and the merge that seeds the global context
is timed as the reduce leg.  The merged battery is asserted
byte-identical to the unsharded one at every scale before any number
is accepted.  Scale-out legs per scale:

* ``synthesize`` — building the synthetic attack table (untimed base
  generation aside, this is array work); one extra shard's worth of
  rows is held back for the append leg;
* ``partition_save`` / ``store_open`` — writing the sharded store and
  reopening it from the manifest;
* ``shard_build_total`` / ``shard_build_max`` — the map phase: the sum
  and the slowest of the per-shard view builds (their ratio is the
  scale-out headroom on a multi-core box; the full per-shard list is
  stored next to the timings);
* ``merge_views`` — the reduce phase: one left fold of the extend
  rules over the shards plus the vectorised boundary stitch;
* ``run_all_merged`` / ``run_all_flat`` — the battery on the merged
  context vs a fresh unsharded context, asserted byte-identical;
* ``append_shard_build`` / ``remerge_after_append`` — the held-back
  shard is appended to the store and the merge re-run: the previous
  merged context is extended by the new shard only and only the new
  seams are stitched (the merge stats are stored under ``derived``, and the
  appended battery is asserted against the unsharded full table at
  ``small`` scale).

The **stream path** (``--section stream``, baseline ``BENCH_stream.json``)
measures the bounded-memory sketch layer against the exact streaming
path at scale-out volume (5M synthetic attacks at ``full``).  Before any
timing is accepted, the sketch answers are asserted against exact
numpy-computed truth under the documented contracts (``docs/STREAMING.md``)
and the sketch's resident memory is asserted flat between the first
quarter of the stream and the end — the fixed-memory ceiling the ISSUE's
acceptance criterion names.  Stream legs per scale:

* ``synthesize`` — the synthetic attack table (same builder as the
  scale-out section);
* ``sketch_append`` — folding every row into an
  :class:`repro.sketch.AttackStreamSummary` in batches via the
  vectorised array path (the sustained sketch append rate);
* ``exact_append`` — folding a capped prefix of real record objects
  into an exact :class:`repro.stream.StreamingDataset` (capped because
  exact mode is object-bound; the cap and measured resident bytes are
  recorded for the memory comparison);
* ``watch_sketch_session`` — a real ``WatchSession(sketch=True)`` fed
  the same capped prefix through ``fold`` (the CLI ``watch --sketch``
  code path).

Derived ratios (``generate_speedup``, ``load_speedup``, ``warm_speedup``,
``map_parallel_potential``, ``sketch_rows_per_sec``,
``exact_to_sketch_memory``) are stored next to the raw timings;
``docs/PERFORMANCE.md`` quotes them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

try:
    import repro  # noqa: F401  (installed package)
except ImportError:  # running from a source checkout
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.context import AnalysisContext
from repro.datagen.config import DatasetConfig
from repro.datagen.generator import generate_dataset
from repro.experiments.registry import run_all
from repro.experiments.table4_prediction import EXPERIMENT as TABLE4
from repro.io import colstore
from repro.io.ingest import dataset_from_records
from repro.io.jsonlio import export_attacks_jsonl, iter_attacks_jsonl

SCHEMA_VERSION = 1
SCALES = {"small": 0.02, "full": 1.0}
PARALLEL_JOBS = 4
DEFAULT_OUT = {
    "cold": "BENCH_coldpath.json",
    "warm": "BENCH_warmpath.json",
    "scaleout": "BENCH_scaleout.json",
    "stream": "BENCH_stream.json",
}
#: The scale-out section's ``full`` volume: ~10x the paper's 50,704
#: attacks, partitioned into SCALEOUT_SHARDS time shards.
SCALEOUT_ATTACKS = 5_000_000
SCALEOUT_SHARDS = 8
#: Exact mode materialises record objects, so the stream section caps
#: its exact-path comparison legs at this many rows; the sketch leg
#: always folds the full volume.
STREAM_EXACT_CAP = 200_000
#: Rows per append batch in the stream section (both modes).
STREAM_BATCH = 100_000


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return round(time.perf_counter() - t0, 4), out


def machine_manifest() -> dict:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        # parallel legs ask for PARALLEL_JOBS workers but repro.par caps
        # at the CPU count; this is the worker count that actually ran,
        # so baseline readers can tell a capped (serialised) fan-out
        # from a real one.
        "effective_parallel_jobs": min(PARALLEL_JOBS, os.cpu_count() or 1),
    }


def measure_scale(name: str, scale: float, workdir: Path) -> dict:
    config = DatasetConfig(seed=7, scale=scale)
    print(f"[{name}] generate jobs=1 ...", flush=True)
    t_gen1, ds = _timed(lambda: generate_dataset(config, jobs=1))
    print(f"[{name}] generate jobs={PARALLEL_JOBS} ...", flush=True)
    t_genN, ds_par = _timed(lambda: generate_dataset(config, jobs=PARALLEL_JOBS))
    assert ds.attack_columns_equal(ds_par), "parallel generation diverged"

    npz = workdir / f"{name}.npz"
    t_save, _ = _timed(lambda: colstore.save_dataset_npz(ds, npz))
    t_mmap, _ = _timed(lambda: colstore.load_dataset_npz(npz))
    t_buffered, _ = _timed(lambda: colstore.load_dataset_npz(npz, mmap=False))

    jsonl = workdir / f"{name}.jsonl"
    t_export, _ = _timed(lambda: export_attacks_jsonl(ds, jsonl))
    t_ingest, ingested = _timed(
        lambda: dataset_from_records(iter_attacks_jsonl(jsonl), window=ds.window)
    )
    assert ingested.n_attacks == ds.n_attacks

    print(f"[{name}] experiments ...", flush=True)
    t_table4, _ = _timed(lambda: TABLE4.run(AnalysisContext(ds)))
    t_run_all, results = _timed(lambda: run_all(AnalysisContext(ds)))

    timings = {
        "generate_jobs1": t_gen1,
        f"generate_jobs{PARALLEL_JOBS}": t_genN,
        "colstore_save": t_save,
        "colstore_load_mmap": t_mmap,
        "colstore_load_buffered": t_buffered,
        "jsonl_export": t_export,
        "jsonl_ingest": t_ingest,
        "table4_cold": t_table4,
        "run_all_cold": t_run_all,
    }
    derived = {
        "generate_speedup": round(t_gen1 / max(t_genN, 1e-9), 2),
        "load_speedup": round(t_ingest / max(t_buffered, 1e-9), 2),
    }
    entry = {
        "scale": scale,
        "n_attacks": int(ds.n_attacks),
        "n_experiments": len(results),
        "archive_bytes": npz.stat().st_size,
        "timings": timings,
        "derived": derived,
    }
    print(f"[{name}] {json.dumps(timings)}")
    print(f"[{name}] speedups: {json.dumps(derived)}")
    return entry


def measure_warm_scale(name: str, scale: float) -> dict:
    from repro.core.collaboration import (
        DURATION_WINDOW_SECONDS,
        START_WINDOW_SECONDS,
        _detect_collaborations,
    )
    from repro.core.consecutive import CHAIN_MARGIN_SECONDS, _detect_chains
    from repro.core.geolocation import snapshot_dispersions

    config = DatasetConfig(seed=7, scale=scale)
    print(f"[{name}] generate (untimed setup) ...", flush=True)
    ds = generate_dataset(config, jobs=1)

    def build_context() -> AnalysisContext:
        ctx = AnalysisContext(ds)
        for family in ds.active_families:
            ctx.family_participants(family)
        return ctx

    print(f"[{name}] warm-path kernels ...", flush=True)
    t_ctx, ctx = _timed(build_context)
    t_collab, events = _timed(
        lambda: _detect_collaborations(ds, START_WINDOW_SECONDS, DURATION_WINDOW_SECONDS)
    )
    t_chains, chains = _timed(lambda: _detect_chains(ds, CHAIN_MARGIN_SECONDS, 2))
    busiest = max(ds.active_families, key=lambda f: ctx.family_attacks(f).size)
    t_snap, _ = _timed(lambda: snapshot_dispersions(ctx, busiest))

    timings = {
        "context_build": t_ctx,
        "collab_scan": t_collab,
        "chain_scan": t_chains,
        "snapshot_dispersions": t_snap,
    }
    print(f"[{name}] prewarm ...", flush=True)
    timings["prewarm_jobs1"], seeded = _timed(lambda: AnalysisContext(ds).prewarm())

    print(f"[{name}] battery cold/warm ...", flush=True)
    battery_ctx = AnalysisContext(ds)
    timings["run_all_cold"], results = _timed(lambda: run_all(battery_ctx))
    timings["run_all_warm"], rerun = _timed(lambda: run_all(battery_ctx))
    assert [r.render() for r in results] == [r.render() for r in rerun], (
        "warm battery output diverged from cold"
    )

    derived = {
        "warm_speedup": round(
            timings["run_all_cold"] / max(timings["run_all_warm"], 1e-9), 2
        ),
        "prewarm_seeded_views": seeded,
    }
    entry = {
        "scale": scale,
        "n_attacks": int(ds.n_attacks),
        "n_experiments": len(results),
        "n_collaborations": len(events),
        "n_chains": len(chains),
        "timings": timings,
        "derived": derived,
    }
    print(f"[{name}] {json.dumps(timings)}")
    print(f"[{name}] derived: {json.dumps(derived)}")
    return entry


def _synthetic_scaleout_dataset(n_attacks: int):
    """A synthetic attack table at scale-out volume on a real tiny base.

    The world, registries, families and botnets come from a generated
    tiny dataset (so every joined view has real entities to resolve);
    the attack rows are synthesized directly as sorted columns — start
    times uniform over the observation window, families/botnets/targets
    drawn from the base's active sets, two participants per attack.
    Generating 5M attacks through the full simulation pipeline would
    dominate the benchmark; the map-reduce stack under test only sees
    columns either way.
    """
    import dataclasses

    import numpy as np

    base = generate_dataset(DatasetConfig.tiny(seed=7))
    rng = np.random.default_rng(1207)
    w = base.window

    start = np.sort(rng.uniform(float(w.start), float(w.end), n_attacks))
    duration = rng.exponential(1800.0, n_attacks) + 1.0
    family_ids = np.array(
        sorted(base.families.index(f) for f in base.active_families), dtype=np.int16
    )
    family_idx = rng.choice(family_ids, n_attacks)
    botnet_id = rng.choice(
        np.array([b.botnet_id for b in base.botnets], dtype=np.int32), n_attacks
    )
    order = np.lexsort((botnet_id, start))
    start, family_idx, botnet_id = start[order], family_idx[order], botnet_id[order]

    n_bots = base.bots.ip.size
    return dataclasses.replace(
        base,
        start=start,
        end=start + duration,
        family_idx=family_idx,
        botnet_id=botnet_id,
        protocol=rng.choice(np.unique(base.protocol), n_attacks),
        target_idx=rng.integers(
            0, base.victims.ip.size, n_attacks, dtype=np.int32
        ),
        magnitude=rng.integers(1, 10, n_attacks, dtype=np.int32),
        part_offsets=np.arange(0, 2 * n_attacks + 1, 2, dtype=np.int64),
        participants=rng.integers(0, n_bots, 2 * n_attacks, dtype=np.int64),
        truth_collab_group=np.full(n_attacks, -1, dtype=np.int32),
        truth_collab_kind=np.zeros(n_attacks, dtype=np.int8),
        truth_chain_id=np.full(n_attacks, -1, dtype=np.int32),
        truth_symmetric=np.zeros(n_attacks, dtype=bool),
        truth_residual_km=np.zeros(n_attacks, dtype=np.float64),
    )


def measure_scaleout_scale(name: str, scale: float, workdir: Path) -> dict:
    from repro.core.context import ShardedAnalysisContext

    n_rows = int(SCALEOUT_ATTACKS * scale)
    tail_rows = n_rows // SCALEOUT_SHARDS
    print(f"[{name}] synthesize {n_rows}+{tail_rows} attacks ...", flush=True)
    # One extra shard's worth of rows is synthesized up front and held
    # back: the incremental-remerge leg appends it after the headline
    # merge, exactly as a streaming spill would grow the store.
    t_synth, ds_all = _timed(lambda: _synthetic_scaleout_dataset(n_rows + tail_rows))
    ds = colstore._slice_dataset(ds_all, 0, n_rows)
    tail = colstore._slice_dataset(ds_all, n_rows, n_rows + tail_rows)

    store_dir = workdir / f"{name}-store"
    print(f"[{name}] partition into {SCALEOUT_SHARDS} shards ...", flush=True)
    t_save, _ = _timed(
        lambda: colstore.save_sharded_npz(ds, store_dir, shards=SCALEOUT_SHARDS)
    )
    t_open, store = _timed(lambda: colstore.ShardedDatasetStore(store_dir))

    # Warm the lazy imports, mmap pages and view machinery on a
    # throwaway context first: without this, shard 0's timing bills the
    # whole process warmup to the first task (2.19s vs ~0.14s at the
    # small scale) and the per-shard list misreads as build skew.
    warm = ShardedAnalysisContext(colstore.ShardedDatasetStore(store_dir))
    warm.build_shard(0)
    del warm

    sctx = ShardedAnalysisContext(store)
    per_shard = []
    for k in range(store.n_shards):
        t_k, _ = _timed(lambda k=k: sctx.build_shard(k))
        per_shard.append(t_k)
        print(f"[{name}] shard {k}: {t_k:.3f}s", flush=True)
    print(f"[{name}] merge ...", flush=True)
    t_merge, merged = _timed(sctx.merged)

    timings = {
        "synthesize": t_synth,
        "partition_save": t_save,
        "store_open": t_open,
        "shard_build_total": round(sum(per_shard), 4),
        "shard_build_max": round(max(per_shard), 4),
        "merge_views": t_merge,
    }

    # Parity gate: the merged battery must render byte-identical to the
    # unsharded one before any timing is accepted — at every scale.
    print(f"[{name}] parity battery (merged vs flat) ...", flush=True)
    timings["run_all_merged"], sharded_results = _timed(
        lambda: [r.render() for r in run_all(merged)]
    )
    timings["run_all_flat"], flat_results = _timed(
        lambda: [r.render() for r in run_all(AnalysisContext(ds))]
    )
    assert sharded_results == flat_results, "sharded battery output diverged"

    # Append one shard and re-merge: the previous merged context is
    # extended by it and only the new seams are stitched.
    print(f"[{name}] append {tail_rows} rows, incremental re-merge ...", flush=True)
    colstore.append_shard(store_dir, tail)
    assert sctx.refresh() == 1, "store refresh did not adopt the appended shard"
    t_append_build, _ = _timed(lambda: sctx.build_shard(sctx.n_shards - 1))
    t_remerge, remerged = _timed(sctx.merged)
    merge_stats = dict(sctx.last_merge_stats)
    assert merge_stats["mode"] == "incremental", merge_stats
    timings["append_shard_build"] = t_append_build
    timings["remerge_after_append"] = t_remerge
    if scale < 1.0:
        appended_results = [r.render() for r in run_all(remerged)]
        flat_all = [r.render() for r in run_all(AnalysisContext(ds_all))]
        assert appended_results == flat_all, "incremental re-merge output diverged"

    derived = {
        "map_parallel_potential": round(
            timings["shard_build_total"] / max(timings["shard_build_max"], 1e-9), 2
        ),
        "remerge_speedup": round(
            timings["merge_views"] / max(timings["remerge_after_append"], 1e-9), 2
        ),
        "merge_stats": merge_stats,
    }
    entry = {
        "scale": scale,
        "n_attacks": int(ds.n_attacks),
        "n_shards": SCALEOUT_SHARDS,
        "append_rows": tail_rows,
        "per_shard_build_seconds": per_shard,
        "timings": timings,
        "derived": derived,
    }
    print(f"[{name}] {json.dumps(timings)}")
    print(f"[{name}] derived: {json.dumps(derived)}")
    return entry


def measure_stream_scale(name: str, scale: float) -> dict:
    import itertools

    import numpy as np

    from repro.sketch import AttackStreamSummary
    from repro.stream import StreamingDataset, WatchSession

    n_rows = int(SCALEOUT_ATTACKS * scale)
    print(f"[{name}] synthesize {n_rows} attacks ...", flush=True)
    t_synth, ds = _timed(lambda: _synthetic_scaleout_dataset(n_rows))

    # Per-attack string/int arrays, gathered once (the stream layer does
    # the same gather per batch from record objects).
    family = np.asarray(ds.families, dtype=object)[ds.family_idx]
    codes = np.asarray([c.code for c in ds.world.countries], dtype=object)
    country = codes[np.asarray(ds.victims.country_idx)[ds.target_idx]]
    victim = np.asarray(ds.victims.ip)[ds.target_idx]
    start, end, botnet = np.asarray(ds.start), np.asarray(ds.end), ds.botnet_id

    print(f"[{name}] sketch append ({n_rows} rows) ...", flush=True)
    summary = AttackStreamSummary()
    quarter_bytes = 0

    def sketch_append() -> None:
        nonlocal quarter_bytes
        quarter_row = max(1, n_rows // 4)
        for lo in range(0, n_rows, STREAM_BATCH):
            hi = min(lo + STREAM_BATCH, n_rows)
            summary.update_arrays(
                start=start[lo:hi], end=end[lo:hi], family=family[lo:hi],
                country=country[lo:hi], victim=victim[lo:hi],
                botnet=botnet[lo:hi],
            )
            if quarter_bytes == 0 and hi >= quarter_row:
                quarter_bytes = summary.memory_bytes()

    t_sketch, _ = _timed(sketch_append)
    sketch_bytes = summary.memory_bytes()

    # The acceptance criterion: resident sketch memory is flat past the
    # first quarter of the stream (KLL may add a level — a few hundred
    # bytes of logarithmic headroom — hence the 1.25 slack, far below
    # the 4x an exact column would grow by).
    assert summary.n_records == n_rows
    assert sketch_bytes <= quarter_bytes * 1.25, (
        f"sketch memory grew {quarter_bytes} -> {sketch_bytes} bytes "
        "between the first quarter and the end of the stream"
    )

    # Accuracy gates against exact numpy truth, under docs/STREAMING.md
    # contracts — no timing is accepted unless these hold.
    est = summary.estimate()
    fams, fam_counts = np.unique(family, return_counts=True)
    slack = summary.cms_family.epsilon * summary.cms_family.total
    for fam, true in zip(fams.tolist(), fam_counts.tolist()):
        got = est["families"][fam]
        assert true <= got <= true + slack, (
            f"family {fam}: estimate {got} outside [{true}, {true + slack}]"
        )
    for key, column in (("botnets", botnet), ("victims", victim)):
        true = len(np.unique(column))
        got = est["distinct"][key]
        rse = summary.hll_botnets.relative_error
        assert abs(got - true) <= max(3 * rse * true, 3.0), (
            f"distinct {key}: estimate {got} vs true {true} beyond 3*rse"
        )
    durations = np.sort(end - start)
    for q in (0.1, 0.5, 0.9):
        value = summary.kll_duration.quantile(q)
        rank = np.searchsorted(durations, value, side="right") / durations.size
        assert abs(rank - q) <= summary.kll_duration.rank_error, (
            f"duration q={q}: estimate {value} has true rank {rank:.4f}"
        )

    cap = min(n_rows, STREAM_EXACT_CAP)
    print(f"[{name}] exact append (capped at {cap} rows) ...", flush=True)
    records = list(itertools.islice(ds.iter_attacks(), cap))
    exact = StreamingDataset()

    def exact_append() -> None:
        for lo in range(0, cap, STREAM_BATCH):
            exact.append_batch(records[lo:lo + STREAM_BATCH])

    t_exact, _ = _timed(exact_append)
    exact_bytes = exact.resident_bytes()

    print(f"[{name}] watch --sketch session ({cap} rows) ...", flush=True)
    session = WatchSession(os.devnull, sketch=True)

    def drive_session() -> None:
        for lo in range(0, cap, STREAM_BATCH):
            session.fold(records[lo:lo + STREAM_BATCH])

    t_watch, _ = _timed(drive_session)
    assert session.n_attacks == cap
    assert len(session.render()) > 0

    timings = {
        "synthesize": t_synth,
        "sketch_append": t_sketch,
        "exact_append": t_exact,
        "watch_sketch_session": t_watch,
    }
    derived = {
        "sketch_rows_per_sec": round(n_rows / max(t_sketch, 1e-9)),
        "exact_rows_per_sec": round(cap / max(t_exact, 1e-9)),
        # Memory the exact path spends per row the sketch path never
        # will: at full scale the exact side would be 25x its capped
        # figure while the sketch side stays at sketch_bytes.
        "exact_to_sketch_memory": round(exact_bytes / max(sketch_bytes, 1), 1),
    }
    entry = {
        "scale": scale,
        "n_attacks": n_rows,
        "memory": {
            "sketch_bytes_quarter": int(quarter_bytes),
            "sketch_bytes_end": int(sketch_bytes),
            "exact_rows_measured": int(cap),
            "exact_resident_bytes": int(exact_bytes),
        },
        "timings": timings,
        "derived": derived,
    }
    print(f"[{name}] {json.dumps(timings)}")
    print(f"[{name}] derived: {json.dumps(derived)}")
    return entry


def check(baseline: dict, current: dict, tolerance: float) -> list[str]:
    """Timings that regressed beyond ``tolerance``x the baseline."""
    failures = []
    for name, entry in current.items():
        base = baseline.get("scales", {}).get(name)
        if base is None:
            continue
        for leg, seconds in entry["timings"].items():
            ref = base["timings"].get(leg)
            if ref is not None and seconds > ref * tolerance:
                failures.append(
                    f"{name}.{leg}: {seconds:.3f}s > {tolerance:.1f}x "
                    f"baseline {ref:.3f}s"
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scales", nargs="+", choices=sorted(SCALES), default=sorted(SCALES),
        help="which scales to measure",
    )
    parser.add_argument(
        "--section", choices=sorted(DEFAULT_OUT), default="cold",
        help="which benchmark section to measure (cold or warm path)",
    )
    parser.add_argument("--out", default=None, help="write the baseline JSON here")
    parser.add_argument(
        "--check", default=None, metavar="BASELINE",
        help="compare against this committed baseline instead of recording",
    )
    parser.add_argument(
        "--tolerance", type=float, default=3.0,
        help="allowed slowdown factor in --check mode (absorbs machine variance)",
    )
    parser.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="write the observability RunManifest here after measuring",
    )
    args = parser.parse_args(argv)

    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.scales:
            if args.section == "warm":
                results[name] = measure_warm_scale(name, SCALES[name])
            elif args.section == "scaleout":
                results[name] = measure_scaleout_scale(name, SCALES[name], Path(tmp))
            elif args.section == "stream":
                results[name] = measure_stream_scale(name, SCALES[name])
            else:
                results[name] = measure_scale(name, SCALES[name], Path(tmp))

    if args.metrics:
        from repro.obs import RunManifest, registry

        RunManifest.collect(registry(), argv=["benchmarks/record.py", *sys.argv[1:]]).write(
            args.metrics
        )
        print(f"manifest written to {args.metrics}")

    if args.check:
        baseline = json.loads(Path(args.check).read_text())
        failures = check(baseline, results, args.tolerance)
        if failures:
            print(f"{args.section}-path regressions:", file=sys.stderr)
            for line in failures:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(f"{args.section} path within {args.tolerance:.1f}x of {args.check}")
        return 0

    payload = {
        "schema": SCHEMA_VERSION,
        "section": args.section,
        "machine": machine_manifest(),
        "parallel_jobs": PARALLEL_JOBS,
        "scales": results,
    }
    out = Path(args.out or DEFAULT_OUT[args.section])
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"baseline written to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
