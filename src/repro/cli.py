"""Command-line interface: ``ddos-repro``.

Subcommands::

    ddos-repro generate  --scale 0.02 --seed 7 --out data/   # export schemas
    ddos-repro convert   attacks.jsonl attacks.npz           # re-store a dataset
    ddos-repro report    --scale 0.02                        # headline + tables
    ddos-repro experiments [--shards 3] [--only table4_prediction]
    ddos-repro predict   --family pandora                    # ARIMA forecast
    ddos-repro defense   --train-fraction 0.5                # policy backtests
    ddos-repro watch     --path attacks.jsonl                # live report
    ddos-repro shard     info data/store                     # manifest summary
    ddos-repro serve     --port 8321                         # HTTP analysis service
    ddos-repro profile                                       # full battery, timed

All subcommands share ``--scale``, ``--seed`` and ``--cache-dir``; the
dataset is generated once per (scale, seed) and cached on disk (the
cache directory falls back to ``$REPRO_CACHE_DIR``, then
``.repro-cache``).  Only generation fans out over worker processes
(``generate --jobs N`` and ``profile --jobs N``); every view builds in
the calling process.

Every subcommand accepts ``--metrics PATH``: after the command runs,
the observability registry (stage spans, counters, histograms — see
``docs/OBSERVABILITY.md``) is serialised as a :class:`RunManifest`
JSON to that path.  ``profile`` goes further: it exercises the whole
pipeline — generation, ingest round-trip, view builds, a cold and a
warm experiment battery — and prints the sorted stage tree.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .core import report
from .core.context import AnalysisContext, ShardedAnalysisContext
from .core.prediction import predict_family_dispersion
from .datagen.config import DatasetConfig
from .experiments.registry import ALL_EXPERIMENTS, get_experiment, run_all
from .io.cache import config_key, load_or_generate, resolve_cache_dir
from .io.csvio import export_attacks_csv, export_botlist_csv, export_botnetlist_csv
from .obs import RunManifest, registry as obs_registry
from .obs.report import render_metrics_summary, render_stage_tree

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    """argparse type for options that must be >= 1 (e.g. ``--jobs``)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _duration_seconds(text: str) -> float:
    """argparse type for durations: ``30d``, ``12h``, ``45m`` or plain seconds."""
    units = {"d": 86400.0, "h": 3600.0, "m": 60.0, "s": 1.0}
    raw = text.strip().lower()
    mult = units.get(raw[-1:]) or 1.0
    number = raw[:-1] if raw[-1:] in units else raw
    try:
        value = float(number)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a duration like '30d', '12h', '45m' or seconds, got {text!r}"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"duration must be positive, got {text!r}")
    return value * mult


def _add_command(sub, name: str, *, help: str, description: str, epilog: str):
    """Register a subcommand with the audit-mandated help fields.

    Every subcommand carries a one-paragraph ``description`` and an
    ``epilog`` showing a worked invocation; the raw formatter keeps the
    example's indentation intact in ``--help`` output.
    """
    return sub.add_parser(
        name,
        help=help,
        description=description,
        epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``ddos-repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="ddos-repro",
        description=(
            "Botnet DDoS characterization (DSN 2015 reproduction). Generates a "
            "scaled synthetic attack/botlist dataset, caches it on disk, and "
            "reproduces the paper's tables and figures against it."
        ),
        epilog="example:\n  ddos-repro --scale 0.02 report",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--scale", type=float, default=0.02, help="dataset scale (1.0 = paper size)")
    parser.add_argument("--seed", type=int, default=7, help="master seed")
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="dataset cache directory (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="write a RunManifest JSON (stage timings, counters, cache hits) here after the command",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = _add_command(
        sub,
        "generate",
        help="generate the dataset and export the schemas",
        description=(
            "Generate (or load from cache) the synthetic dataset for this "
            "scale/seed and export the paper's three schemas — DDoSattack, "
            "Botlist and Botnetlist — as CSV files. With --figures, the "
            "per-figure data series are exported alongside them."
        ),
        epilog="example:\n  ddos-repro --scale 0.02 generate --out data/ --figures",
    )
    gen.add_argument("--out", default="data", help="output directory for CSVs")
    gen.add_argument(
        "--botlist-limit", type=int, default=None, help="cap botlist rows (full list is large)"
    )
    gen.add_argument(
        "--figures", action="store_true",
        help="also export the per-figure data series as CSVs",
    )
    gen.add_argument(
        "--jobs", type=_positive_int, default=None,
        help="worker processes for generation on a cache miss "
             "(default: cpu count capped at 8; output is identical for any value)",
    )

    conv = _add_command(
        sub,
        "convert",
        help="convert a dataset file between storage formats",
        description=(
            "Load a dataset file in any supported format (.jsonl, .csv or "
            ".npz, or a sharded store directory) and rewrite it in the "
            "format implied by the output extension. Converting to .npz "
            "produces the memory-mapped columnar store — the fastest format "
            "to load cold (see docs/PERFORMANCE.md). With --shards or "
            "--shard-by the output is instead a sharded store directory: the "
            "attack table is partitioned into per-time-window .npz shards "
            "under one manifest, ready for map-reduce analysis."
        ),
        epilog=(
            "example:\n  ddos-repro convert attacks.jsonl attacks.npz\n"
            "  ddos-repro convert attacks.npz store/ --shard-by 30d"
        ),
    )
    conv.add_argument("src", help="input dataset file (.jsonl, .csv or .npz)")
    conv.add_argument("dst", help="output file; the extension picks the format")
    conv_shard = conv.add_mutually_exclusive_group()
    conv_shard.add_argument(
        "--shards", type=_positive_int, default=None, metavar="N",
        help="write a sharded store with N equal time windows instead of one file",
    )
    conv_shard.add_argument(
        "--shard-by", type=_duration_seconds, default=None, metavar="DURATION",
        help="write a sharded store cut every DURATION ('30d', '12h', '45m' or seconds)",
    )

    _add_command(
        sub,
        "report",
        help="print the headline numbers and the main tables",
        description=(
            "Print the headline summary (attack counts, families, window) "
            "followed by the protocol, victim-country and collaboration "
            "tables for the current scale/seed dataset."
        ),
        epilog="example:\n  ddos-repro --scale 0.02 report",
    )

    exp = _add_command(
        sub,
        "experiments",
        help="run the table/figure reproductions",
        description=(
            "Run the full battery of table and figure reproductions (Tables "
            "II-VI, Figures 2-18) against one shared analysis context. Use "
            "--only to run a single experiment, --list to see the ids, "
            "and --shards to partition the dataset and run map-reduce, "
            "which does not change the output."
        ),
        epilog="example:\n  ddos-repro experiments --only table4_prediction",
    )
    exp.add_argument(
        "--only",
        default=None,
        help="run a single experiment id (see --list)",
    )
    exp.add_argument("--list", action="store_true", help="list experiment ids and exit")
    exp.add_argument(
        "--shards", type=_positive_int, default=None, metavar="N",
        help="partition the dataset into N time windows and run the battery "
             "map-reduce: per-shard view builds, then a bitwise-identical merge",
    )

    pred = _add_command(
        sub,
        "predict",
        help="ARIMA dispersion forecast for one family",
        description=(
            "Fit an ARIMA model to one family's geolocation-dispersion "
            "series (the paper's Section V-C prediction) and report the "
            "forecast accuracy against held-out truth: cosine similarity, "
            "MAE and RMSE."
        ),
        epilog="example:\n  ddos-repro predict --family pandora --order 2,1,2",
    )
    pred.add_argument("--family", required=True)
    pred.add_argument("--order", default="2,1,2", help="ARIMA order p,d,q or 'auto'")

    defense = _add_command(
        sub,
        "defense",
        help="evaluate the defense policies derived from the findings",
        description=(
            "Backtest the defense policies the paper's findings motivate: "
            "country/IP blacklists trained on the first part of the window "
            "and scored on the rest, detection-window sweeps around Fig 7's "
            "four-hour knee, and provisioning driven by next-attack "
            "predictions."
        ),
        epilog="example:\n  ddos-repro defense --train-fraction 0.5",
    )
    defense.add_argument(
        "--train-fraction", type=float, default=0.5,
        help="history fraction used to train blacklists / predictions",
    )

    watch = _add_command(
        sub,
        "watch",
        help="tail a JSONL attack log and re-render the report on change",
        description=(
            "Tail a growing JSONL attack log and keep the headline report "
            "live: each poll ingests only the newly appended complete lines "
            "(an O(batch) incremental update for in-order logs) and "
            "re-renders when something changed. The status line shows the "
            "attack count, the stream epoch and the ingest lag in seconds. "
            "With --sketch the session runs at fixed memory forever: "
            "records fold into bounded-memory sketches (Count-Min, "
            "HyperLogLog, KLL) instead of exact columns, and the report "
            "shows approximate answers with their documented error budget "
            "(docs/STREAMING.md)."
        ),
        epilog="example:\n  ddos-repro watch --path attacks.jsonl --interval 2",
    )
    watch.add_argument("--path", required=True, help="JSONL attack log to tail")
    watch.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between polls of the log file",
    )
    watch.add_argument(
        "--max-polls", type=_positive_int, default=None,
        help="stop after this many polls (default: run until interrupted)",
    )
    watch.add_argument(
        "--sketch", action="store_true",
        help="bounded-memory mode: sketch summaries instead of exact columns",
    )
    watch.add_argument(
        "--exact-window", type=_positive_int, default=50_000,
        help="with --sketch, how many recent records to keep verbatim",
    )

    shard = _add_command(
        sub,
        "shard",
        help="inspect a sharded dataset store",
        description=(
            "Inspect a sharded dataset store directory written by convert "
            "--shards/--shard-by: 'info' prints the manifest summary — the "
            "shard count, total attacks, observation window and each "
            "shard's file, row count and time bounds."
        ),
        epilog="example:\n  ddos-repro shard info data/store",
    )
    shard.add_argument("action", choices=["info"], help="what to do with the store")
    shard.add_argument("path", help="sharded store directory (holds manifest.json)")

    serve = _add_command(
        sub,
        "serve",
        help="run the multi-tenant HTTP analysis service",
        description=(
            "Run the long-running analysis service: a stdlib-only HTTP "
            "server where clients POST batches of attack records "
            "(/v1/ingest, with bounded-queue backpressure) and query "
            "epoch-tagged immutable snapshots — metadata (/v1/snapshot), "
            "the rendered experiment battery (/v1/experiments), the "
            "bounded-memory approximate summary (/v1/sketch), process "
            "metrics (/v1/metrics) and liveness (/v1/healthz). With "
            "--preload, the current scale/seed dataset is ingested into "
            "the 'default' tenant before the port opens. --max-tenant-mb "
            "caps each tenant's resident exact-column memory: past the "
            "ceiling, ingests get 429/Retry-After while /v1/sketch keeps "
            "answering at fixed memory."
        ),
        epilog="example:\n  ddos-repro --scale 0.02 serve --port 8321 --preload",
    )
    serve.add_argument("--host", default="127.0.0.1", help="interface to bind")
    serve.add_argument(
        "--port", type=int, default=8321,
        help="port to bind (0 picks a free port; it is printed at startup)",
    )
    serve.add_argument(
        "--queue-size", type=_positive_int, default=64,
        help="pending ingest batches per tenant before 429 backpressure",
    )
    serve.add_argument(
        "--keep-epochs", type=_positive_int, default=4,
        help="epoch snapshots retained per tenant for pinned reads",
    )
    serve.add_argument(
        "--max-tenant-mb", type=_positive_int, default=None,
        help="per-tenant resident-memory ceiling in MiB (429 past it)",
    )
    serve.add_argument(
        "--preload", action="store_true",
        help="ingest the scale/seed dataset into the 'default' tenant at startup",
    )
    serve.add_argument(
        "--max-seconds", type=float, default=None,
        help="exit after this many seconds (default: serve until interrupted)",
    )

    prof = _add_command(
        sub,
        "profile",
        help="time the whole pipeline and write a RunManifest",
        description=(
            "Exercise the full pipeline under the observability layer: "
            "generate the dataset (uncached, so generation is timed), round-"
            "trip it through the ingest path and the columnar binary store, "
            "build the analysis views, prewarm the battery's views (Table IV's "
            "ARIMA forecasts among them), then run the experiment battery "
            "twice — prewarmed, and lazily on a fresh context — so cache "
            "hit/miss counters are populated. "
            "Prints the sorted stage tree and a metrics summary, and writes "
            "the RunManifest JSON next to the cache directory (or to "
            "--metrics PATH)."
        ),
        epilog="example:\n  ddos-repro --scale 0.02 profile --jobs 4",
    )
    prof.add_argument(
        "--jobs", type=_positive_int, default=None,
        help="worker processes for generation (default: cpu count capped at 8)",
    )
    prof.add_argument(
        "--min-seconds", type=float, default=0.0,
        help="hide stages faster than this from the printed tree",
    )
    return parser


def _config(args: argparse.Namespace) -> DatasetConfig:
    return DatasetConfig(seed=args.seed, scale=args.scale)


def _cmd_generate(args: argparse.Namespace) -> int:
    from . import par

    ds = args._manifest_dataset = load_or_generate(
        _config(args), args.cache_dir, jobs=par.resolve_jobs(args.jobs)
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    n_attacks = export_attacks_csv(ds, out / "ddos_attacks.csv")
    n_bots = export_botlist_csv(ds, out / "botlist.csv", limit=args.botlist_limit)
    n_botnets = export_botnetlist_csv(ds, out / "botnetlist.csv")
    print(f"wrote {n_attacks} attacks, {n_bots} bots, {n_botnets} botnets to {out}/")
    if args.figures:
        from .io.figures import export_figure_data

        counts = export_figure_data(ds, out / "figures")
        print(f"wrote {len(counts)} figure series to {out}/figures/")
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    from . import api
    from .io import colstore

    if not Path(args.src).exists():
        print(f"error: no such file: {args.src}", file=sys.stderr)
        return 1
    ds = api.load(args.src)
    if isinstance(ds, colstore.ShardedDatasetStore):
        ds = ds.merged_dataset()
    args._manifest_dataset = ds
    dst = Path(args.dst)
    if args.shards is not None or args.shard_by is not None:
        colstore.save_sharded_npz(
            ds, dst, shards=args.shards, window_seconds=args.shard_by
        )
        store = colstore.ShardedDatasetStore(dst, mmap=False)
        print(
            f"converted {args.src} -> {dst} "
            f"({ds.n_attacks} attacks across {store.n_shards} shards)"
        )
        return 0
    name = dst.name
    if name.endswith(".npz"):
        from .io.colstore import save_dataset_npz

        save_dataset_npz(ds, dst)
    elif name.endswith(".jsonl"):
        from .io.jsonlio import export_attacks_jsonl

        export_attacks_jsonl(ds, dst)
    elif name.endswith(".csv"):
        export_attacks_csv(ds, dst)
    else:
        print(f"cannot infer format of {dst}: expected .jsonl, .csv or .npz", file=sys.stderr)
        return 2
    print(f"converted {args.src} -> {dst} ({ds.n_attacks} attacks)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    ctx = AnalysisContext.of(load_or_generate(_config(args), args.cache_dir))
    args._manifest_dataset = ctx.dataset
    print(report.render_headline(ctx))
    print()
    print(report.render_protocol_table(ctx))
    print()
    print(report.render_country_table(ctx))
    print()
    print(report.render_collaboration_table(ctx))
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    if args.list:
        for experiment in ALL_EXPERIMENTS:
            print(f"{experiment.id:<24s} {experiment.section:<28s} {experiment.title}")
        return 0
    ds = load_or_generate(_config(args), args.cache_dir)
    if args.shards is not None:
        from .io.colstore import ShardedDatasetStore

        store = ShardedDatasetStore.partition(ds, shards=args.shards)
        ctx = ShardedAnalysisContext(store).merged()
    else:
        ctx = AnalysisContext.of(ds)
    args._manifest_dataset = ctx.dataset
    if args.only:
        print(get_experiment(args.only).run(ctx).render())
        print()
    else:
        for result in run_all(ctx):
            print(result.render())
            print()
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    ctx = AnalysisContext.of(load_or_generate(_config(args), args.cache_dir))
    args._manifest_dataset = ctx.dataset
    if args.order == "auto":
        order = None
    else:
        try:
            p, d, q = (int(x) for x in args.order.split(","))
        except ValueError:
            print(f"bad --order {args.order!r}; expected 'p,d,q' or 'auto'", file=sys.stderr)
            return 2
        order = (p, d, q)
    forecast = predict_family_dispersion(ctx, args.family, order=order)
    c = forecast.comparison
    print(f"family:            {forecast.family}")
    print(f"ARIMA order:       {forecast.order}")
    print(f"train/test points: {forecast.train.size}/{forecast.truth.size}")
    print(f"truth mean/std:    {c.truth_mean:.1f} / {c.truth_std:.1f} km")
    print(f"pred mean/std:     {c.prediction_mean:.1f} / {c.prediction_std:.1f} km")
    print(f"cosine similarity: {c.similarity:.3f}")
    print(f"MAE / RMSE:        {c.mae:.1f} / {c.rmse:.1f} km")
    return 0


def _cmd_defense(args: argparse.Namespace) -> int:
    from .defense.blacklist import CountryBlacklist, IPBlacklist
    from .defense.detection import sweep_detection_windows
    from .defense.provisioning import backtest_provisioning

    ds = load_or_generate(_config(args), args.cache_dir)
    args._manifest_dataset = ds
    cutoff = ds.window.start + args.train_fraction * ds.window.duration

    print("== blacklists (train on history, score on the future) ==")
    cc = CountryBlacklist().fit(ds, cutoff).evaluate(ds, cutoff)
    ip = IPBlacklist().fit(ds, cutoff).evaluate(ds, cutoff)
    print(f"country list: {cc.n_entries:>6d} entries -> {cc.coverage:.1%} coverage")
    print(f"ip list:      {ip.n_entries:>6d} entries -> {ip.coverage:.1%} coverage")

    print()
    print("== detection windows (Fig 7's four-hour knee) ==")
    for o in sweep_detection_windows(ds):
        print(f"detect in {o.time_to_detect / 60:>5.0f} min -> catches "
              f"{o.caught_fraction:.0%}, mitigates {o.exposure_mitigated:.0%} of exposure")

    print()
    print("== provisioning from next-attack predictions ==")
    result = backtest_provisioning(ds, train_fraction=max(args.train_fraction, 0.5))
    print(f"{result.hits}/{result.n_predictions} scheduled windows hit "
          f"(mean error {result.mean_abs_error / 3600:.1f} h)")
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    import time

    from .stream import WatchSession

    session = WatchSession(
        args.path, sketch=args.sketch, exact_window=args.exact_window
    )
    polls = 0
    try:
        while args.max_polls is None or polls < args.max_polls:
            update = session.poll()
            polls += 1
            if update is not None:
                print(update)
                print(
                    f"-- {session.n_attacks} attacks (epoch {session.epoch}, "
                    f"lag {session.lag_seconds:.1f}s) --"
                )
                sys.stdout.flush()
            if args.max_polls is not None and polls >= args.max_polls:
                break
            time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_shard(args: argparse.Namespace) -> int:
    from .io import colstore

    path = Path(args.path)
    manifest = colstore._read_manifest(path)
    window = manifest["window"]
    print(f"store:     {path}")
    print(f"shards:    {manifest['n_shards']}")
    print(f"attacks:   {manifest['n_attacks']}")
    print(f"window:    [{window['start']:.0f}, {window['end']:.0f}) "
          f"({(window['end'] - window['start']) / 86400:.1f} days)")
    print(f"{'file':<16s} {'attacks':>10s} {'t_lo':>12s} {'t_first':>12s} {'t_last':>12s}")
    for entry in manifest["shards"]:
        first, last = (
            "-" if t is None else f"{t:.0f}" for t in (entry["t_first"], entry["t_last"])
        )
        print(f"{entry['file']:<16s} {entry['n_attacks']:>10d} "
              f"{entry['t_lo']:>12.0f} {first:>12s} {last:>12s}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import time

    from .serve import AnalysisServer

    server = AnalysisServer(
        host=args.host,
        port=args.port,
        queue_size=args.queue_size,
        keep_epochs=args.keep_epochs,
        max_tenant_bytes=(
            args.max_tenant_mb * 1024 * 1024
            if args.max_tenant_mb is not None
            else None
        ),
    )
    if args.preload:
        ds = load_or_generate(_config(args), args.cache_dir)
        args._manifest_dataset = ds
        tenant = server.tenants.get_or_create("default")
        result = tenant.ingest(list(ds.iter_attacks()), timeout=600.0)
        print(
            f"preloaded {result['accepted']} attacks into tenant 'default' "
            f"(epoch {result['epoch']})",
            flush=True,
        )
    server.start()
    print(f"serving on {server.url}", flush=True)
    try:
        if args.max_seconds is not None:
            time.sleep(args.max_seconds)
        else:
            while True:
                time.sleep(3600.0)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        print("server stopped", flush=True)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from . import par
    from .core.context import AnalysisContext
    from .datagen.generator import generate_dataset
    from .io.ingest import dataset_from_records

    config = _config(args)
    reg = obs_registry()

    ds = generate_dataset(config, jobs=par.resolve_jobs(args.jobs))
    args._manifest_dataset = ds

    streamed = dataset_from_records(ds.iter_attacks(), window=ds.window)
    print(f"generated {ds.n_attacks} attacks; ingest round-trip kept "
          f"{streamed.n_attacks}")

    import tempfile

    from .io import colstore

    with tempfile.TemporaryDirectory() as tmp:
        npz = colstore.save_dataset_npz(ds, Path(tmp) / "profile.npz")
        size = npz.stat().st_size
        colstore.load_dataset_npz(npz)
    print(f"colstore round-trip: {size / 1e6:.1f} MB archive")

    ctx = AnalysisContext.of(ds)
    with reg.span("context.views"):
        report.render_headline(ctx)

    # The prewarm builds every view the battery reads, Table IV's
    # forecasts among them; its per-view ``view:<kind>`` spans land under
    # ``prewarm`` in the stage tree below.
    seeded = ctx.prewarm()
    print(f"prewarm: {seeded} views seeded")

    # A fresh (unshared) context makes the second battery build lazily.
    lazy_ctx = AnalysisContext(ds)
    for label, battery_ctx in (("battery (prewarmed)", ctx), ("battery (lazy)", lazy_ctx)):
        results = run_all(battery_ctx)
        print(f"{label}: {len(results)} experiments")

    manifest = RunManifest.collect(
        reg,
        seed=args.seed,
        scale=args.scale,
        config_key=config_key(config),
        dataset=ds,
        argv=args._argv,
    )
    out = Path(args.metrics) if args.metrics else (
        resolve_cache_dir(args.cache_dir) / f"manifest-{config_key(config)}.json"
    )
    manifest.write(out)

    print()
    print(render_stage_tree(reg.stage_tree(), min_seconds=args.min_seconds))
    print()
    print(render_metrics_summary(reg))
    print()
    print(f"manifest written to {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    args._manifest_dataset = None
    args._argv = ["ddos-repro", *(argv if argv is not None else sys.argv[1:])]
    commands = {
        "generate": _cmd_generate,
        "convert": _cmd_convert,
        "report": _cmd_report,
        "experiments": _cmd_experiments,
        "predict": _cmd_predict,
        "defense": _cmd_defense,
        "watch": _cmd_watch,
        "shard": _cmd_shard,
        "serve": _cmd_serve,
        "profile": _cmd_profile,
    }
    try:
        code = commands[args.command](args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.metrics and args.command != "profile":
        config = _config(args)
        RunManifest.collect(
            obs_registry(),
            seed=args.seed,
            scale=args.scale,
            config_key=config_key(config),
            dataset=args._manifest_dataset,
            argv=args._argv,
        ).write(args.metrics)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
