"""The measured process of one benchmark run.

    python perfbench/workloads.py --workload flat-paper --inputs DIR \\
        --scratch DIR --seconds 6 --trace 0 --out result.json [--spans spans.json]

``perfbench/run.py`` starts this process a few times per run and reads
the JSON it writes.  Set-up runs from the first line of this file, before
numpy or ``repro`` are imported, until the inputs are open and one
untimed warm-up answer is done.  Then repetitions run until
``--seconds`` have passed.

A repetition is two legs, each ending with all 18 experiments rendered:

* **answer**: the seed's head rows go in and the battery comes out;
* **reanswer**: the tail rows (the increment that arrives next) go in
  and the battery over all rows comes out again.

Every workload is a single-process closed loop that passes ``jobs=1`` to
every call that takes it; the BLAS/OpenMP pools are pinned to one thread
before numpy loads, ``gc.collect()`` runs before each repetition and
each repetition re-opens its inputs, so no dataset-keyed memo
(``AnalysisContext.of``) survives from one to the next.

A leg is timed as a sequence of steps (an open, a shard build, a merge,
a battery, a batch posted and read back) by a :class:`Clock`, which runs
a fixed reference kernel between the steps.  The speed of a shared host
drifts by a third within a minute, and the kernel drifts with it, so
each step's wall time is divided by how much slower than
:data:`REF_NOMINAL_S` the kernel ran around it.  The leg's end-to-end
time is the sum of these host-scaled steps; its raw wall time is kept
next to it.

With ``--trace 1`` every other repetition runs with the layer wraps of
``tracing.py`` installed; the untraced ones between them give the
tracing overhead.  Each rendered battery is reduced to a digest after
its leg's clock stops; ``run.py`` compares the digests with the oracles.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here, before any import

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks"), str(HERE)]

import loadgen  # noqa: E402
import numpy as np  # noqa: E402
from repro import api  # noqa: E402
from repro.io import colstore  # noqa: E402
from repro.experiments.registry import ALL_EXPERIMENTS  # noqa: E402

from inputs import battery_digest  # noqa: E402
from tracing import Tracer, summarize  # noqa: E402

IMPORT_S = time.perf_counter() - T0

#: Wall time of one :func:`reference_seconds` call on an unloaded host
#: (about its 10th percentile on the 2-vCPU, 2.1 GHz VM the benchmark was
#: tuned on): end-to-end times are reported at this host speed.
REF_NOMINAL_S = 0.0007

_REF_SORT = np.random.default_rng(0).random(40_000)
_REF_TABLE = {i: i for i in range(10_000)}


def reference_seconds() -> float:
    """Time a fixed numpy sort plus interpreter loop that uses no repo code.

    The best of three back-to-back runs: the first one after a large step
    runs on a cold cache, which is the step's doing, not the host's.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        np.sort(_REF_SORT)
        total = 0
        for key in range(10_000):
            total += _REF_TABLE[key]
        best = min(best, time.perf_counter() - t0)
    return best


class Clock:
    """Times one leg step by step, with the reference kernel between steps.

    ``raw`` is the leg's wall time without the kernel calls.  ``scaled``
    divides each step by the host's slowdown around it: the mean of the
    kernel's times just before and just after the step, over
    :data:`REF_NOMINAL_S`.  In a traced repetition each kernel call is a
    ``bench.reference`` span, so no layer is billed for it.
    """

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.raw = 0.0
        self.scaled = 0.0
        #: Per-step host-scaled seconds and slowdowns.
        self.steps: list[float] = []
        self.slowdowns: list[float] = []
        self._tracer = tracer
        self._ref = self._reference()

    def _reference(self) -> float:
        if self._tracer is None:
            return reference_seconds()
        index = self._tracer.begin("bench.reference", "bench")
        try:
            return reference_seconds()
        finally:
            self._tracer.end(index)

    def step(self, fn):
        t0 = time.perf_counter()
        out = fn()
        seconds = time.perf_counter() - t0
        ref = self._reference()
        slowdown = (self._ref + ref) / (2 * REF_NOMINAL_S)
        self._ref = ref
        self.raw += seconds
        self.scaled += seconds / slowdown
        self.steps.append(seconds / slowdown)
        self.slowdowns.append(slowdown)
        return out


class Leg:
    """What one leg (answer or reanswer) of a repetition produced."""

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.clock = Clock(tracer)
        self.output: list | None = None
        #: Host-scaled step latencies: one per experiment, or per live batch.
        self.steps: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.rejected = 0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def battery(self, ctx) -> None:
        """Run and render the battery through ``api.run_all``.

        Each experiment is one clock step: its ``run`` attribute, which
        the registry reads at call time, is wrapped for the call, so the
        reference kernel also runs between experiments.
        """
        clock, first = self.clock, len(self.clock.steps)
        runs = [experiment.run for experiment in ALL_EXPERIMENTS]
        for experiment, run in zip(ALL_EXPERIMENTS, runs):
            object.__setattr__(
                experiment, "run", lambda source, run=run: clock.step(lambda: run(source))
            )
        try:
            results = api.run_all(ctx, jobs=1)
        finally:
            for experiment, run in zip(ALL_EXPERIMENTS, runs):
                object.__setattr__(experiment, "run", run)
        self.steps = clock.steps[first:]
        self.output = clock.step(lambda: [(r.experiment_id, r.render()) for r in results])


class Workload:
    """One workload's inputs and legs; subclasses fill in the legs."""

    def __init__(self, inputs: Path, scratch: Path) -> None:
        self.inputs = inputs
        self.scratch = scratch
        self.tracer: Tracer | None = None

    def open(self) -> None:
        """Open the inputs (part of set-up)."""

    def begin(self, rep: int) -> None:
        """Untimed per-repetition preparation."""

    def finish(self) -> None:
        """Untimed per-repetition clean-up (runs even after a failure)."""

    def answer(self, leg: Leg) -> None:
        raise NotImplementedError

    def reanswer(self, leg: Leg) -> None:
        raise NotImplementedError

    def mark(self, rid: str) -> None:
        if self.tracer is not None:
            self.tracer.rid = rid


class FlatPaper(Workload):
    """``flat-paper``: the paper-scale dataset through the flat plane.

    Why: this is the reproduction's main path.  Each leg re-opens a
    colstore ``.npz`` (``head.npz``, then ``full.npz`` with the tail
    rows), builds a fresh ``AnalysisContext`` and runs and renders all
    18 experiments.  The work is in ``core.context`` views, the
    experiments and ``timeseries``; it never touches shard build, merge,
    stream or serve, so it is the side that should not move when those
    change.  The flat plane has no incremental path, so its reanswer is
    a full rebuild over the grown file.
    """

    def _leg(self, leg: Leg, name: str) -> None:
        leg.attempted += 1
        ctx = leg.clock.step(lambda: api.AnalysisContext(api.load(self.inputs / name)))
        leg.battery(ctx)

    def answer(self, leg: Leg) -> None:
        self._leg(leg, "head.npz")

    def reanswer(self, leg: Leg) -> None:
        self._leg(leg, "full.npz")


class Sharded500k(Workload):
    """``sharded-500k``: 500k synthetic attacks through the sharded plane.

    Why: ten times the paper's volume in an 8-shard store.  Each
    repetition starts from a fresh copy of the store and answers through
    ``build_shard`` x8, ``merged()`` and the battery.  Shard builds are
    most of the answer, and the hourly-snapshot view no experiment reads
    (``shard_snapshot_dispersions``) is most of a build.  The reanswer
    appends the held-back shard (``colstore.append_shard``), then
    ``refresh()``, ``merged()`` and the battery again: a write beside
    the read, so a merge change that speeds the full merge but slows the
    incremental re-merge shows here.
    """

    def begin(self, rep: int) -> None:
        self.store = self.scratch / f"store-{rep}"
        shutil.rmtree(self.store, ignore_errors=True)
        shutil.copytree(self.inputs / "store", self.store)
        self.sctx = None

    def finish(self) -> None:
        self.sctx = None
        shutil.rmtree(self.store, ignore_errors=True)

    def answer(self, leg: Leg) -> None:
        leg.attempted += 1
        self.sctx = leg.clock.step(lambda: api.context(api.load(self.store)))
        for index in range(self.sctx.n_shards):
            leg.clock.step(lambda: self.sctx.build_shard(index))
        leg.battery(leg.clock.step(lambda: self.sctx.merged(jobs=1)))

    def reanswer(self, leg: Leg) -> None:
        leg.attempted += 1
        leg.clock.step(
            lambda: colstore.append_shard(self.store, api.load(self.inputs / "tail.npz"))
        )
        if leg.clock.step(self.sctx.refresh) != 1:
            raise RuntimeError("refresh() did not adopt the appended shard")
        leg.battery(leg.clock.step(lambda: self.sctx.merged(jobs=1)))


class LivePaper(Workload):
    """``live-paper``: the paper-scale rows posted to the HTTP service.

    Why: the only workload that runs serve, the stream append, view
    carry, prewarm and the sketch code.  One client posts the rows as
    wire JSON to a fresh in-process ``api.serve()`` in batches of 500
    (``wait=1``) and after each POST gets ``/v1/experiments`` for the new
    epoch, so writes interleave with reads and colstore and merge are
    bypassed.  The answer is the head batches; the reanswer is the tail
    batches (a tenth of the rows).  A step is one batch, from POST sent
    to GET returned.  This is where the gap between serve ingest and the
    stream append it wraps shows up.
    """

    def open(self) -> None:
        payload = json.loads((self.inputs / "rows.json").read_text())
        rows, size, tail = payload["rows"], payload["batch_rows"], payload["tail_rows"]
        cut = len(rows) - tail
        self.head = [rows[i:min(i + size, cut)] for i in range(0, cut, size)]
        self.tail = [rows[i:i + size] for i in range(cut, len(rows), size)]

    def begin(self, rep: int) -> None:
        self.rep = rep
        self.server = api.serve(port=0, queue_size=64, prewarm_jobs=1)

    def finish(self) -> None:
        self.server.stop()

    def _update(self, leg: Leg, batch: list) -> list | None:
        url = self.server.url
        leg.attempted += 1
        status, body = loadgen._call(url, "POST", "/v1/ingest?tenant=bench&wait=1",
                                     {"records": batch})
        if status != 200:
            leg.rejected += status == 429
            leg.fail(f"POST /v1/ingest -> {status}: {body}")
            return None
        leg.attempted += 1
        status, served = loadgen._call(
            url, "GET", f"/v1/experiments?tenant=bench&epoch={body['epoch']}"
        )
        if status != 200:
            leg.rejected += status == 429
            leg.fail(f"GET /v1/experiments -> {status}: {served}")
            return None
        return [(e["id"], e["render"]) for e in served["experiments"]]

    def _batches(self, leg: Leg, batches: list, phase: str) -> None:
        for i, batch in enumerate(batches):
            self.mark(f"{self.rep}:{phase}:{i}")
            leg.output = leg.clock.step(lambda: self._update(leg, batch))
            leg.steps.append(leg.clock.steps[-1])

    def answer(self, leg: Leg) -> None:
        self._batches(leg, self.head, "answer")

    def reanswer(self, leg: Leg) -> None:
        self._batches(leg, self.tail, "reanswer")


WORKLOADS = {"flat-paper": FlatPaper, "sharded-500k": Sharded500k, "live-paper": LivePaper}


def run_rep(
    workload: Workload, rep: int, tracer: Tracer | None, phases=("answer", "reanswer")
) -> dict:
    """One repetition: its legs, their digests and (traced) layer metrics."""
    gc.collect()
    workload.tracer = tracer
    record: dict = {"rep": rep, "traced": tracer is not None}
    legs = {}
    workload.begin(rep)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        if tracer is not None:
            tracer.install()
        for phase in phases:
            leg = legs[phase] = Leg(tracer)
            workload.mark(f"{rep}:{phase}")
            root = tracer.begin(f"bench.{phase}", "bench") if tracer else None
            try:
                getattr(workload, phase)(leg)
            except Exception:  # the repetition boundary: record and go on
                leg.attempted = max(leg.attempted, 1)
                leg.fail(traceback.format_exc(limit=8))
                break
            finally:
                if root is not None:
                    tracer.end(root)
    finally:
        record["wall_s"] = time.perf_counter() - wall0
        record["cpu_s"] = time.process_time() - cpu0
        if tracer is not None:
            tracer.uninstall()
        workload.finish()
        workload.tracer = None
    for phase, leg in legs.items():
        record[phase] = {
            "seconds": leg.clock.scaled,
            "raw_seconds": leg.clock.raw,
            "slowdown": float(np.median(leg.clock.slowdowns)) if leg.clock.slowdowns else 1.0,
            "steps": leg.steps,
            "digest": None if leg.output is None else battery_digest(leg.output),
            "attempted": leg.attempted,
            "failed": leg.failed,
            "rejected": leg.rejected,
            "errors": leg.errors,
        }
    if tracer is not None:
        spans, counts = tracer.take()
        record["layers"] = summarize(spans, counts)
        record["spans"] = spans
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="one measured benchmark process")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--scratch", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.inputs, args.scratch)
    workload.open()
    opened_s = time.perf_counter() - T0
    warmup = run_rep(workload, 0, None, phases=("answer",))
    setup_raw_s = time.perf_counter() - T0
    # The warm-up answer is host-scaled like every other leg; the imports
    # before it cannot be (the kernel needs numpy).
    setup_s = opened_s + warmup["answer"]["seconds"]

    tracer = Tracer() if args.trace else None
    reps = []
    deadline = time.perf_counter() + args.seconds
    # Trace mode alternates traced and untraced repetitions and needs one
    # of each.
    while len(reps) < 1 + args.trace or time.perf_counter() < deadline:
        traced = tracer is not None and len(reps) % 2 == 0
        reps.append(run_rep(workload, len(reps) + 1, tracer if traced else None))

    spans = [s for r in reps for s in r.pop("spans", [])]
    if args.spans is not None and spans:
        Tracer.dump(spans, args.spans)
    result = {
        "import_s": IMPORT_S,
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "warmup": warmup,
        "reps": reps,
    }
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
