"""Seeded benchmark inputs, prepared outside the measured process.

    python perfbench/inputs.py --workload flat-paper --seed 3 [--scale 1.0]

Two seed-independent bases are generated once per checkout, into
``perfbench/.work/inputs/``, and pinned by a digest of their attack
columns (``BASE_DIGESTS``), so every checkout measures the same rows:

* ``paper``: the simulator's paper-scale dataset (``DatasetConfig(seed=7,
  scale=1.0)``, 50,704 attacks over 207 days), used by ``flat-paper`` and
  ``live-paper``;
* ``synth``: the scale-out synthetic table of
  ``benchmarks/record.py::_synthetic_scaleout_dataset``, used by
  ``sharded-500k``.

A workload seed relabels the victims of its base: a seeded permutation
maps every attack's target to another victim of the registry.  Times,
families, botnets and bots stay as they are, so the work the battery
does stays the same from seed to seed (the Table IV ARIMA fits alone
change cost up to 4x when 1% of the rows change), while every per-target,
per-country and per-organization result differs.  The rows split by
start time into a *head* (what the first answer sees) and a *tail* (the
increment that arrives afterwards and must be answered again): a tenth
of the rows in whole wire batches for ``paper``, one shard's worth for
``synth``.  Per seed the directory holds:

* paper: ``head.npz`` and ``full.npz`` (colstore archives), ``rows.json``
  (the full rows as wire JSON, in time order) and the flat oracles;
* synth: ``store/`` (the head as an 8-shard store), ``tail.npz`` (the
  held-back shard) and the flat oracles.

An oracle is the rendered battery of a flat, unsharded build over the
same rows, as ``[[experiment_id, render], ...]``: ``oracle-head.json``
and ``oracle-full.json`` for the colstore rows, and for ``paper`` also
``oracle-wire-head.json`` / ``oracle-wire-full.json`` over the rows
re-ingested from their wire form (what the service sees).  Every file's
sha256 is in ``manifest.json``; :func:`ensure` re-checks them before
each use and rebuilds a seed whose files do not match.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
INPUTS = HERE / ".work" / "inputs"

#: Which base each workload draws its rows from.
FAMILY = {"flat-paper": "paper", "live-paper": "paper", "sharded-500k": "synth"}

#: Rows of the sharded workload's table at scale 1.0: 500k in the 8-shard
#: head plus one held-back shard of 62.5k.
SYNTH_ROWS = 562_500
SYNTH_SHARDS = 8
#: Rows per wire batch.
BATCH_ROWS = 500
#: Share of the rows held back as the tail (whole batches for ``paper``).
TAIL_SHARE = 10
#: Bumped whenever the per-seed files change meaning, so stale ones rebuild.
INPUT_VERSION = 2
#: Seed directories kept per base (least recently used go first).
KEEP_SEEDS = 12

#: Attack-column digests of the full-scale bases.  A base that does not
#: match is refused: the benchmark's inputs changed, so numbers measured
#: on it are not comparable with earlier ones.
BASE_DIGESTS = {
    "paper": "a66a4de0b0fd5e126f8a79779b0b6d7ae9af314763d444c7604b2d114a98fa16",
    "synth": "06a6e8064e697981b1a67f69d0b89b9aa3663338dd57cbc80f8643d78f152f3c",
}

_ATTACK_COLUMNS = (
    "start", "end", "family_idx", "botnet_id", "protocol", "target_idx",
    "magnitude", "part_offsets", "participants",
)


def _bootstrap() -> None:
    for path in (ROOT / "src", ROOT / "benchmarks"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def columns_digest(ds) -> str:
    """Digest of a dataset's attack columns (file-format independent)."""
    import numpy as np

    h = hashlib.sha256()
    for name in _ATTACK_COLUMNS:
        h.update(np.ascontiguousarray(getattr(ds, name)).tobytes())
    return h.hexdigest()


def battery_digest(pairs) -> str:
    """Digest of a rendered battery ``[(experiment_id, render), ...]``."""
    blob = json.dumps([list(p) for p in pairs], ensure_ascii=False)
    return hashlib.sha256(blob.encode()).hexdigest()


def _flat_battery(ds) -> list[list[str]]:
    from repro import api

    return [
        [r.experiment_id, r.render()]
        for r in api.run_all(api.AnalysisContext(ds), jobs=1)
    ]


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, ensure_ascii=False))


def _scale_tag(scale: float) -> str:
    return f"s{scale:g}"


# -- the seed-independent bases ---------------------------------------------


def _base_path(family: str, scale: float) -> Path:
    return INPUTS / f"{family}-base-{_scale_tag(scale)}.npz"


def _make_base(family: str, scale: float):
    from repro.datagen.config import DatasetConfig
    from repro.datagen.generator import generate_dataset

    if family == "paper":
        jobs = min(2, os.cpu_count() or 1)
        return generate_dataset(DatasetConfig(seed=7, scale=scale), jobs=jobs)
    from record import _synthetic_scaleout_dataset

    return _synthetic_scaleout_dataset(int(SYNTH_ROWS * scale))


def _base_file(family: str, scale: float) -> Path:
    """The base archive, generated on first use."""
    from repro.io import colstore

    path = _base_path(family, scale)
    stamp = path.with_suffix(".json")
    if not (path.is_file() and stamp.is_file()):
        INPUTS.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        ds = _make_base(family, scale)
        tmp = path.with_name(path.stem + ".tmp.npz")
        colstore.save_dataset_npz(ds, tmp)
        tmp.replace(path)
        _write_json(stamp, {"columns": columns_digest(ds), "n_attacks": int(ds.n_attacks)})
        print(f"[inputs] generated {family} base at scale {scale:g}: "
              f"{ds.n_attacks} attacks in {time.perf_counter() - t0:.1f}s",
              file=sys.stderr, flush=True)
    return path


def load_base(family: str, scale: float):
    """The base dataset, checked against its recorded and pinned digests."""
    from repro.io import colstore

    path = _base_file(family, scale)
    stamp = path.with_suffix(".json")
    ds = colstore.load_dataset_npz(path)
    digest = columns_digest(ds)
    if digest != json.loads(stamp.read_text())["columns"]:
        raise SystemExit(f"error: {path} does not match its recorded digest")
    if scale == 1.0 and digest != BASE_DIGESTS[family]:
        raise SystemExit(
            f"error: the {family} base generated by this checkout has attack-column "
            f"digest {digest}, not the pinned {BASE_DIGESTS[family]}; the "
            "benchmark's inputs changed"
        )
    return ds


# -- per-seed inputs ------------------------------------------------------------


def seed_dir(workload: str, seed: int, scale: float) -> Path:
    return INPUTS / f"{FAMILY[workload]}-{_scale_tag(scale)}-seed{seed}"


def _relabelled(base, seed: int):
    """The base with each attack's target mapped through a seeded permutation."""
    import dataclasses

    import numpy as np

    rng = np.random.default_rng([seed % 2**32, 20150622])
    perm = rng.permutation(base.victims.ip.size).astype(base.target_idx.dtype)
    return dataclasses.replace(base, target_idx=perm[base.target_idx])


def _prepare_paper(base, seed: int, out: Path) -> None:
    from repro import api
    from repro.io import colstore
    from repro.serve.codec import record_to_json

    full = _relabelled(base, seed)
    n_tail = full.n_attacks // TAIL_SHARE
    n_tail = n_tail // BATCH_ROWS * BATCH_ROWS or n_tail
    head = colstore._slice_dataset(full, 0, full.n_attacks - n_tail)
    colstore.save_dataset_npz(head, out / "head.npz")
    colstore.save_dataset_npz(full, out / "full.npz")
    _write_json(out / "oracle-head.json", _flat_battery(head))
    _write_json(out / "oracle-full.json", _flat_battery(full))

    records = list(full.iter_attacks())
    _write_json(out / "rows.json", {
        "tail_rows": n_tail,
        "batch_rows": BATCH_ROWS,
        "rows": [record_to_json(r) for r in records],
    })
    _write_json(out / "oracle-wire-head.json",
                _flat_battery(api.ingest(records[:-n_tail])))
    _write_json(out / "oracle-wire-full.json", _flat_battery(api.ingest(records)))


def _prepare_synth(base, seed: int, out: Path) -> None:
    from repro.io import colstore

    full = _relabelled(base, seed)
    n_head = full.n_attacks * SYNTH_SHARDS // (SYNTH_SHARDS + 1)  # the tail is one shard
    head = colstore._slice_dataset(full, 0, n_head)
    tail = colstore._slice_dataset(full, n_head, full.n_attacks)
    colstore.save_sharded_npz(head, out / "store", shards=SYNTH_SHARDS)
    colstore.save_dataset_npz(tail, out / "tail.npz")
    _write_json(out / "oracle-head.json", _flat_battery(head))
    _write_json(out / "oracle-full.json", _flat_battery(full))


def _manifest(out: Path) -> dict:
    files = sorted(p for p in out.rglob("*") if p.is_file() and p.name != "manifest.json")
    return {str(p.relative_to(out)): file_digest(p) for p in files}


def _verified(out: Path) -> bool:
    manifest = out / "manifest.json"
    if not manifest.is_file():
        return False
    try:
        recorded = json.loads(manifest.read_text())
    except ValueError:
        return False
    return recorded.get("version") == INPUT_VERSION and recorded.get("files") == _manifest(out)


def _prune(family: str, keep: Path) -> None:
    dirs = sorted(
        (p for p in INPUTS.glob(f"{family}-*-seed*") if p.is_dir() and p != keep),
        key=lambda p: p.stat().st_mtime,
    )
    for stale in dirs[: max(0, len(dirs) - (KEEP_SEEDS - 1))]:
        shutil.rmtree(stale, ignore_errors=True)


def ensure(workload: str, seed: int, scale: float) -> Path:
    """The verified input directory of one workload seed (built if needed)."""
    _bootstrap()
    family = FAMILY[workload]
    out = seed_dir(workload, seed, scale)
    if not _verified(out):
        # Generate every base on the first run in a checkout, so only that
        # run pays for generation and later workloads' first runs stay short.
        for name in ("paper", "synth"):
            _base_file(name, scale)
        base = load_base(family, scale)
        shutil.rmtree(out, ignore_errors=True)
        tmp = out.with_name(out.name + ".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        t0 = time.perf_counter()
        if family == "paper":
            _prepare_paper(base, seed, tmp)
        else:
            _prepare_synth(base, seed, tmp)
        _write_json(tmp / "manifest.json", {"version": INPUT_VERSION, "seed": seed,
                                            "scale": scale, "files": _manifest(tmp)})
        tmp.replace(out)
        print(f"[inputs] prepared {out.name} in {time.perf_counter() - t0:.1f}s",
              file=sys.stderr, flush=True)
    os.utime(out)
    _prune(family, out)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(FAMILY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    print(ensure(args.workload, args.seed, args.scale))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
