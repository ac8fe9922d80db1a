"""The repository's benchmark: records in, paper battery answerable.

    python3 perfbench/run.py --workload flat-paper --seed 1 --seconds 15 --trace 0

Workloads (the class docstrings in ``workloads.py`` say why each was
chosen): ``flat-paper``, ``sharded-500k`` and ``live-paper``.  A run

1. prepares and verifies the seed's inputs and oracles in a process of
   their own (``inputs.py``; the first run in a checkout also generates
   the bases, which takes about a minute);
2. runs ``PROCESSES`` measured processes one after another
   (``workloads.py``), each set up from nothing and measuring for an
   equal share of ``--seconds``;
3. compares every rendered battery with its oracle and prints one JSON
   line: ``{"correct", "attempted", "failed", "metrics"}``.

Times are host-scaled: a leg's steps are each divided by the slowdown
of a fixed reference kernel run next to them (see ``workloads.Clock``),
because the shared host's speed drifts by a third within a minute.  Raw
wall times stay in the run record.  End-to-end metrics (``--trace 0``),
each a median:

* ``setup_s``: process start to inputs open and the untimed warm-up
  answer done, over the processes;
* ``answer_s``: records in to 18 experiments rendered, over the
  repetitions;
* ``reanswer_s``: the tail rows in to the battery rendered again;
* ``update_p50_s`` / ``update_p90_s``: percentiles of a repetition's
  step latencies (one POST-to-GET batch on ``live-paper``, one
  experiment of the battery on the others), then the median over the
  repetitions;
* ``peak_rss_mb``: peak resident memory of a measured process.

Per-layer metrics (``--trace 1``) come from the traced repetitions, each
the median over them: the inclusive seconds of each wrapped callable,
self seconds per layer, counts, process CPU and wait time, the share of
the repetition that layer spans cover, the host slowdown, and the
tracing overhead (traced minus untraced ``answer_s``).  Layer times are
raw wall seconds.  ``tracing.py`` holds the layer table.

Each operation (a battery leg; on ``live-paper`` each HTTP request) is
counted as attempted; a non-200 response, an exception or a battery
that differs from its oracle counts as failed.  The details of a run,
with ``nproc`` and the load average at its start and end, go to
``perfbench/.work/results/``; the spans of a traced run go next to them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

#: Measured processes per run; ``setup_s`` is their median.
PROCESSES = 2
#: Hard limits on the child processes of one run, in seconds.
INPUTS_TIMEOUT = 850
MEASURE_TIMEOUT = 80

#: The oracle files each workload's legs are checked against.
ORACLES = {
    "flat-paper": ("oracle-head.json", "oracle-full.json"),
    "sharded-500k": ("oracle-head.json", "oracle-full.json"),
    "live-paper": ("oracle-wire-head.json", "oracle-wire-full.json"),
}

END_TO_END = ("setup_s", "answer_s", "reanswer_s", "update_p50_s", "update_p90_s",
              "peak_rss_mb")


def per_layer_metrics() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    from tracing import EXPERIMENT_IDS, LAYERS

    seconds = [
        "io.load_s", "io.append_shard_s",
        "context.shard_build_s", "context.snapshot_interior_s",
        "context.scan_events_s", "context.prewarm_s", "context.view_build_s",
        "merge.merge_s", "merge.remerge_s", "merge.combine_s",
        "experiments.battery_s", *(f"experiments.{e}_s" for e in EXPERIMENT_IDS),
        "timeseries.fit_s",
        "stream.append_s", "stream.context_s", "stream.carry_s",
        "sketch.update_s", "sketch.snapshot_s",
        "serve.ingest_s", "serve.render_s", "serve.http_s",
        "proc.import_s", "proc.cpu_s", "proc.wait_s",
        *(f"self.{layer}_s" for layer in LAYERS),
        "trace.overhead_s",
    ]
    counts = [
        "context.views_built", "merge.levels", "merge.reused", "merge.combined",
        "stream.views_carried", "stream.views_invalidated", "serve.rejected",
        "trace.spans",
    ]
    units = {name: "s" for name in seconds}
    units.update({name: "count" for name in counts})
    units["trace.coverage"] = units["proc.slowdown"] = "ratio"
    return units


def _env(cache_dir: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0", REPRO_CACHE_DIR=str(cache_dir),
    )
    return env


def _machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "time": time.time(),
    }


def _legs(result: dict):
    for rep in [result["warmup"], *result["reps"]]:
        for index, phase in enumerate(("answer", "reanswer")):
            if phase in rep:
                yield rep, index, rep[phase]


def check(results: list[dict], oracle_digests: tuple[str, str]) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every leg of every process."""
    attempted = failed = 0
    messages: list[str] = []
    for result in results:
        for rep, index, leg in _legs(result):
            attempted += leg["attempted"]
            failed += leg["failed"]
            messages.extend(leg["errors"])
            if leg["failed"]:
                continue
            if leg["digest"] != oracle_digests[index]:
                failed += 1
                messages.append(
                    f"rep {rep['rep']} leg {index}: battery differs from the oracle"
                )
    return attempted, failed, messages


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else _median(values)


def end_to_end(results: list[dict], workload: str) -> dict[str, float]:
    reps = [r for res in results for r in res["reps"] if not r["traced"]]
    done = [r for r in reps if "reanswer" in r and not r["answer"]["failed"]
            and not r["reanswer"]["failed"]]
    legs = [r[phase]["steps"] for r in done for phase in ("answer", "reanswer")]
    if workload == "live-paper":
        # One step per batch: percentiles per repetition, then the median.
        steps = [r["answer"]["steps"] + r["reanswer"]["steps"] for r in done]
        p50 = _median([_median(s) for s in steps])
        p90 = _median([_p90(s) for s in steps])
    else:
        # One step per experiment: each experiment's median over the run's
        # batteries, then percentiles over the 18 experiments.  The median
        # first keeps the percentile from hopping between experiments of
        # similar cost from one battery to the next.
        per_experiment = [_median(list(column)) for column in zip(*legs)]
        p50, p90 = _median(per_experiment), _p90(per_experiment)
    return {
        "setup_s": _median([res["setup_s"] for res in results]),
        "answer_s": _median([r["answer"]["seconds"] for r in done]),
        "reanswer_s": _median([r["reanswer"]["seconds"] for r in done]),
        "update_p50_s": p50,
        "update_p90_s": p90,
        "peak_rss_mb": _median([res["peak_rss_mb"] for res in results]),
    }


def per_layer(results: list[dict]) -> dict[str, float]:
    reps = [r for res in results for r in res["reps"]]
    traced = [r for r in reps if r["traced"] and "layers" in r]
    untraced = [r for r in reps if not r["traced"] and "reanswer" in r]
    names = per_layer_metrics()
    out = {
        name: _median([r["layers"].get(name, 0.0) for r in traced])
        for name in names
    }
    out["proc.import_s"] = _median([res["import_s"] for res in results])
    out["proc.cpu_s"] = _median([r["cpu_s"] for r in traced])
    out["proc.wait_s"] = _median([r["wall_s"] - r["cpu_s"] for r in traced])
    out["proc.slowdown"] = _median([r["answer"]["slowdown"] for r in traced])
    out["serve.rejected"] = float(sum(
        leg["rejected"] for res in results for _rep, _i, leg in _legs(res)
    ))
    out["trace.overhead_s"] = (
        _median([r["answer"]["seconds"] for r in traced])
        - _median([r["answer"]["seconds"] for r in untraced])
    )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ORACLES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input volume relative to the defined workloads (tests use less)")
    args = parser.parse_args(argv)

    for needed in ("src/repro/__init__.py", "benchmarks/record.py", "benchmarks/loadgen.py"):
        if not (ROOT / needed).is_file():
            print(f"error: {needed} not found; run from a checkout of the repository",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, str(HERE))
    from inputs import battery_digest, seed_dir

    machine_start = _machine()
    tag = f"{args.workload}-s{args.scale:g}-seed{args.seed}-trace{args.trace}"
    run_dir = WORK / "runs" / f"{tag}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = _env(run_dir / "cache")
    results: list[dict] = []
    try:
        subprocess.run(
            [sys.executable, str(HERE / "inputs.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--scale", str(args.scale)],
            check=True, env=env, timeout=INPUTS_TIMEOUT, stdout=subprocess.DEVNULL,
        )
        inputs_dir = seed_dir(args.workload, args.seed, args.scale)
        for index in range(PROCESSES):
            out = run_dir / f"result-{index}.json"
            command = [
                sys.executable, str(HERE / "workloads.py"),
                "--workload", args.workload, "--inputs", str(inputs_dir),
                "--scratch", str(run_dir), "--seconds", str(args.seconds / PROCESSES),
                "--trace", str(args.trace), "--out", str(out),
            ]
            if args.trace:
                command += ["--spans", str(run_dir / f"spans-{index}.json")]
            subprocess.run(command, check=True, env=env, timeout=MEASURE_TIMEOUT)
            results.append(json.loads(out.read_text()))
        oracle_digests = tuple(
            battery_digest(json.loads((inputs_dir / name).read_text()))
            for name in ORACLES[args.workload]
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    else:
        results_dir = WORK / "results"
        results_dir.mkdir(parents=True, exist_ok=True)
        if args.trace:
            spans = []
            for index in range(PROCESSES):
                path = run_dir / f"spans-{index}.json"
                if path.is_file():
                    spans.append(json.loads(path.read_text()))
            (results_dir / f"{tag}-spans.json").write_text(json.dumps(spans))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted, failed, messages = check(results, oracle_digests)
    if args.trace:
        units = per_layer_metrics()
        values = per_layer(results)
    else:
        units = {name: "MB" if name == "peak_rss_mb" else "s" for name in END_TO_END}
        values = end_to_end(results, args.workload)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine_start": machine_start, "machine_end": _machine(),
        "messages": messages, "metrics": metrics, "processes": results,
    }
    (WORK / "results" / f"{tag}.json").write_text(json.dumps(record))
    for message in messages[:5]:
        print(f"failure: {message}", file=sys.stderr)
    print(f"nproc {machine_start['nproc']}, load {machine_start['loadavg'][0]:.2f} -> "
          f"{record['machine_end']['loadavg'][0]:.2f}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
