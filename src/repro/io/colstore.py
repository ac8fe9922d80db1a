"""Columnar binary dataset store: versioned ``.npz`` save/load with mmap reads.

The cold-load path.  A dataset is stored as one *uncompressed* ``.npz``
archive: every numpy column as its own member (``attacks.start``,
``bots.ip``, ``victims.lat``, …) plus a ``__meta__`` member holding the
JSON-encoded scalar state (format version, window, family lists, the
synthetic world, the Botnetlist).  Uncompressed members are raw ``.npy``
bytes at a fixed offset inside the zip, so :func:`load_dataset_npz` can
memory-map every column directly from the file — no text parsing, no
buffer copies, columns page in lazily as analyses touch them.  (Plain
``np.load(..., mmap_mode=...)`` silently ignores the mmap request for
zip archives, which is why the member offsets are resolved by hand.)

Version policy: ``COLSTORE_VERSION`` is embedded in ``__meta__`` and
bumps on any layout change; a mismatch raises :class:`ColstoreError`
rather than guessing.  The dataset cache treats that like any other
corrupt entry (drop and regenerate); explicit `api.load` calls surface
the error to the caller.

Datasets too large for one archive are stored *sharded*: a directory
holding ``manifest.json``, a ``registries.npz`` with the scalar state
plus bot/victim registries (a flat archive minus its attack columns),
and one ``shard-NNNN.npz`` of attack columns per time shard.  Shards
partition the attack table by start time (:func:`shard_edges`), every
shard keeps the *global* observation window, and
:class:`ShardedDatasetStore` lazily mmap-loads individual shards or
concatenates them back into one dataset.  The streaming builder appends
closed epochs with :func:`append_shard`.

Instrumented: saves time under a ``colstore.save`` span and count bytes
in ``colstore.bytes_written``; loads time under ``colstore.load`` and
count in ``colstore.loads{mmap}``; the ``colstore.mmap`` gauge records
whether the most recent archive read actually memory-mapped (1.0) or
silently fell back to a buffered copy (0.0).
"""

from __future__ import annotations

import dataclasses
import json
import zipfile
from pathlib import Path

import numpy as np

from ..core.columns import ColumnStore
from ..core.dataset import AttackDataset, BotRegistry, VictimRegistry
from ..errors import FormatError
from ..geo.world import City, Country, Organization, World
from ..monitor.schemas import BotnetRecord
from ..obs import registry as _obs_registry
from ..simulation.clock import ObservationWindow

__all__ = [
    "COLSTORE_VERSION",
    "SHARDED_VERSION",
    "ColstoreError",
    "ShardedDatasetStore",
    "append_shard",
    "extend_dataset",
    "is_sharded_store",
    "load_dataset_npz",
    "save_dataset_npz",
    "save_sharded_npz",
    "shard_edges",
]

#: Bumped on any incompatible layout change of the archive.
COLSTORE_VERSION = 1

#: Bumped on any incompatible layout change of the sharded directory store.
SHARDED_VERSION = 1

#: Manifest file name inside a sharded store directory.
MANIFEST_NAME = "manifest.json"

_REGISTRIES_NAME = "registries.npz"

_ATTACK_COLS = (
    "start", "end", "family_idx", "botnet_id", "protocol", "target_idx",
    "magnitude", "part_offsets", "participants", "truth_collab_group",
    "truth_collab_kind", "truth_chain_id", "truth_symmetric",
    "truth_residual_km",
)
_BOT_COLS = (
    "ip", "lat", "lon", "country_idx", "city_idx", "org_idx", "asn",
    "family_idx", "botnet_id", "recruit_ts",
)
_VICTIM_COLS = (
    "ip", "lat", "lon", "country_idx", "city_idx", "org_idx", "asn",
    "owner_family_idx",
)


class ColstoreError(FormatError):
    """The file is not a valid colstore archive (or a newer version)."""


# ---------------------------------------------------------------------------
# metadata codec (everything that is not a numpy column)
# ---------------------------------------------------------------------------


def _world_payload(world: World) -> dict:
    return {
        "countries": [
            [c.index, c.code, c.name, c.lat, c.lon, c.weight] for c in world.countries
        ],
        "cities": [
            [c.index, c.name, c.country_index, c.lat, c.lon, c.weight]
            for c in world.cities
        ],
        "organizations": [
            [o.index, o.name, o.org_type, o.country_index, o.city_index, o.asn, o.weight]
            for o in world.organizations
        ],
    }


def _world_restore(payload: dict) -> World:
    world = World()
    for index, code, name, lat, lon, weight in payload["countries"]:
        world.countries.append(Country(index, code, name, lat, lon, weight))
        world._country_by_code[code] = index
    for index, name, country_index, lat, lon, weight in payload["cities"]:
        world.cities.append(City(index, name, country_index, lat, lon, weight))
        world._cities_by_country.setdefault(country_index, []).append(index)
    for index, name, org_type, country_index, city_index, asn, weight in payload[
        "organizations"
    ]:
        world.organizations.append(
            Organization(index, name, org_type, country_index, city_index, asn, weight)
        )
        world._orgs_by_country.setdefault(country_index, []).append(index)
    return world


def _meta_payload(ds: AttackDataset) -> dict:
    return {
        "colstore_version": COLSTORE_VERSION,
        "window": {"start": int(ds.window.start), "end": int(ds.window.end)},
        "families": list(ds.families),
        "active_families": list(ds.active_families),
        "world": _world_payload(ds.world),
        "botnets": [
            [b.botnet_id, b.family, b.controller_ip, b.first_seen, b.last_seen]
            for b in ds.botnets
        ],
    }


# ---------------------------------------------------------------------------
# save
# ---------------------------------------------------------------------------


def save_dataset_npz(ds: AttackDataset, path: str | Path) -> Path:
    """Write ``ds`` to ``path`` as an uncompressed columnar ``.npz``.

    Atomic: writes to a sibling temp file and renames over the target.
    """
    path = Path(path)
    reg = _obs_registry()
    with reg.span("colstore.save"):
        arrays = {**_columns(ds, "attacks", _ATTACK_COLS), **_registry_arrays(ds)}
        reg.counter("colstore.bytes_written").inc(_write_npz(path, arrays))
    return path


def _columns(obj, prefix: str, names: tuple[str, ...]) -> dict[str, np.ndarray]:
    return {f"{prefix}.{name}": getattr(obj, name) for name in names}


def _json_member(payload: dict) -> np.ndarray:
    return np.frombuffer(json.dumps(payload).encode(), dtype=np.uint8)


def _registry_arrays(ds: AttackDataset) -> dict[str, np.ndarray]:
    """The registry columns plus ``__meta__``: every member but the attacks."""
    return {
        **_columns(ds.bots, "bots", _BOT_COLS),
        **_columns(ds.victims, "victims", _VICTIM_COLS),
        "__meta__": _json_member(_meta_payload(ds)),
    }


def _write_npz(path: Path, arrays: dict[str, np.ndarray]) -> int:
    """Atomically write one uncompressed ``.npz``; returns bytes written."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        np.savez(fh, **arrays)
    tmp.replace(path)
    return path.stat().st_size


# ---------------------------------------------------------------------------
# load
# ---------------------------------------------------------------------------


def _mmap_member(path: Path, fh, info: zipfile.ZipInfo) -> np.ndarray:
    """Memory-map one uncompressed ``.npy`` member at its file offset."""
    fh.seek(info.header_offset)
    local = fh.read(30)
    if len(local) != 30 or local[:4] != b"PK\x03\x04":
        raise ColstoreError(f"{path}: bad local header for {info.filename}")
    name_len = int.from_bytes(local[26:28], "little")
    extra_len = int.from_bytes(local[28:30], "little")
    fh.seek(info.header_offset + 30 + name_len + extra_len)
    version = np.lib.format.read_magic(fh)
    if version == (1, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
    elif version == (2, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_2_0(fh)
    else:
        raise ColstoreError(f"{path}: unsupported npy format {version}")
    if dtype.hasobject:
        raise ColstoreError(f"{path}: member {info.filename} has object dtype")
    if int(np.prod(shape)) == 0:
        return np.empty(shape, dtype=dtype)
    return np.memmap(
        path, mode="r", dtype=dtype, shape=shape, offset=fh.tell(),
        order="F" if fortran else "C",
    )


def _read_members(path: Path, mmap: bool) -> tuple[dict[str, np.ndarray], bool]:
    """All archive members as arrays; returns (arrays, used_mmap).

    The ``colstore.mmap`` gauge records which branch actually served the
    read: 1.0 for memory-mapped members, 0.0 for the buffered fallback.
    """
    if mmap:
        try:
            out: dict[str, np.ndarray] = {}
            with zipfile.ZipFile(path) as zf, open(path, "rb") as fh:
                for info in zf.infolist():
                    if info.compress_type != zipfile.ZIP_STORED:
                        raise ColstoreError(
                            f"{path}: compressed member {info.filename}"
                        )
                    name = info.filename.removesuffix(".npy")
                    out[name] = _mmap_member(path, fh, info)
            _obs_registry().gauge("colstore.mmap").set(1.0)
            return out, True
        except ColstoreError:
            pass  # readable zip, unexpected layout: fall back to buffered
    with np.load(path) as npz:
        out = {name: npz[name] for name in npz.files}
    _obs_registry().gauge("colstore.mmap").set(0.0)
    return out, False


def _pop_meta(arrays: dict[str, np.ndarray], path: Path) -> dict:
    """Decode and version-check the ``__meta__`` member."""
    if "__meta__" not in arrays:
        raise ColstoreError(f"{path}: missing __meta__ member")
    meta = json.loads(bytes(np.asarray(arrays.pop("__meta__"))).decode())
    version = meta.get("colstore_version")
    if version != COLSTORE_VERSION:
        raise ColstoreError(f"{path}: colstore version {version} != {COLSTORE_VERSION}")
    return meta


def _group_cols(
    arrays: dict[str, np.ndarray], prefix: str, names: tuple[str, ...], path: Path
) -> dict[str, np.ndarray]:
    cols = {}
    for name in names:
        key = f"{prefix}.{name}"
        if key not in arrays:
            raise ColstoreError(f"{path}: missing column {key}")
        cols[name] = arrays[key]
    return cols


def _registries(arrays: dict[str, np.ndarray], path: Path) -> dict:
    """Decode ``__meta__`` and the registry columns: every dataset field
    but the attack columns, as keyword arguments of :class:`AttackDataset`."""
    meta = _pop_meta(arrays, path)
    return {
        "window": ObservationWindow(**meta["window"]),
        "world": _world_restore(meta["world"]),
        "families": list(meta["families"]),
        "active_families": list(meta["active_families"]),
        "bots": BotRegistry(**_group_cols(arrays, "bots", _BOT_COLS, path)),
        "victims": VictimRegistry(**_group_cols(arrays, "victims", _VICTIM_COLS, path)),
        "botnets": [
            BotnetRecord(
                botnet_id=int(b[0]), family=b[1], controller_ip=int(b[2]),
                first_seen=float(b[3]), last_seen=float(b[4]),
            )
            for b in meta["botnets"]
        ],
    }


def load_dataset_npz(path: str | Path, *, mmap: bool = True) -> AttackDataset:
    """Load a dataset written by :func:`save_dataset_npz`.

    With ``mmap=True`` (the default) columns are memory-mapped read-only
    and page in on first touch; pass ``mmap=False`` to read everything
    into process memory (e.g. before deleting the file).
    """
    path = Path(path)
    reg = _obs_registry()
    with reg.span("colstore.load"):
        try:
            arrays, used_mmap = _read_members(path, mmap)
        except (OSError, ValueError, zipfile.BadZipFile) as exc:
            if isinstance(exc, ColstoreError):
                raise
            raise ColstoreError(f"{path}: not a colstore archive ({exc})") from exc
        ds = AttackDataset(
            **_registries(arrays, path),
            **_group_cols(arrays, "attacks", _ATTACK_COLS, path),
        )
        reg.counter("colstore.loads", mmap="true" if used_mmap else "false").inc()
    return ds


# ---------------------------------------------------------------------------
# sharded store: time-partitioned shard archives behind one manifest
# ---------------------------------------------------------------------------


def is_sharded_store(path: str | Path) -> bool:
    """True when ``path`` is a sharded store directory (has a manifest)."""
    path = Path(path)
    return path.is_dir() and (path / MANIFEST_NAME).is_file()


def shard_edges(
    window: ObservationWindow,
    *,
    shards: int | None = None,
    window_seconds: float | None = None,
) -> np.ndarray:
    """Lower time boundaries of the shards covering ``window``.

    Pass exactly one of ``shards`` (that many equal-width shards) or
    ``window_seconds`` (fixed-width shards, the last one possibly
    short).  ``edges[0]`` is always ``window.start``; shard ``k`` owns
    attacks whose start falls in ``[edges[k], edges[k + 1])`` (the last
    shard is unbounded above).
    """
    if (shards is None) == (window_seconds is None):
        raise ValueError("pass exactly one of shards= or window_seconds=")
    if shards is not None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        return window.start + np.arange(shards) * (window.duration / shards)
    if window_seconds <= 0:
        raise ValueError(f"window_seconds must be positive, got {window_seconds}")
    return np.arange(window.start, window.end, float(window_seconds), dtype=float)


def _partition_bounds(ds: AttackDataset, edges: np.ndarray) -> np.ndarray:
    """Row bounds per shard: shard ``k`` is rows ``[bounds[k], bounds[k+1])``."""
    cuts = np.searchsorted(ds.start, edges[1:], side="left")
    return np.concatenate(([0], cuts, [ds.n_attacks])).astype(np.int64)


def _slice_dataset(ds: AttackDataset, lo: int, hi: int) -> AttackDataset:
    """Rows ``[lo, hi)`` as a dataset sharing registries and the window.

    Attack columns are zero-copy views; ``part_offsets`` is rebased so
    the slice's participant CSR starts at zero.
    """
    po = ds.part_offsets
    return AttackDataset(
        window=ds.window,
        world=ds.world,
        families=list(ds.families),
        active_families=list(ds.active_families),
        bots=ds.bots,
        victims=ds.victims,
        botnets=list(ds.botnets),
        start=ds.start[lo:hi],
        end=ds.end[lo:hi],
        family_idx=ds.family_idx[lo:hi],
        botnet_id=ds.botnet_id[lo:hi],
        protocol=ds.protocol[lo:hi],
        target_idx=ds.target_idx[lo:hi],
        magnitude=ds.magnitude[lo:hi],
        part_offsets=po[lo : hi + 1] - po[lo],
        participants=ds.participants[po[lo] : po[hi]],
        truth_collab_group=ds.truth_collab_group[lo:hi],
        truth_collab_kind=ds.truth_collab_kind[lo:hi],
        truth_chain_id=ds.truth_chain_id[lo:hi],
        truth_symmetric=ds.truth_symmetric[lo:hi],
        truth_residual_km=ds.truth_residual_km[lo:hi],
    )


def _shard_arrays(shard: AttackDataset) -> dict[str, np.ndarray]:
    arrays = _columns(shard, "attacks", _ATTACK_COLS)
    # A shard remembers its own family list: spilled shards may predate
    # later family interning, so family_idx is remapped at load time.
    arrays["__meta__"] = _json_member(
        {"colstore_version": COLSTORE_VERSION, "families": list(shard.families)}
    )
    return arrays


def _shard_entry(index: int, shard: AttackDataset, t_lo: float) -> dict:
    n = int(shard.n_attacks)
    return {
        "file": f"shard-{index:04d}.npz",
        "n_attacks": n,
        "t_lo": float(t_lo),
        "t_first": float(shard.start[0]) if n else None,
        "t_last": float(shard.start[-1]) if n else None,
    }


def _write_manifest(path: Path, window: ObservationWindow, entries: list[dict]) -> None:
    manifest = {
        "sharded_version": SHARDED_VERSION,
        "colstore_version": COLSTORE_VERSION,
        "n_shards": len(entries),
        "n_attacks": int(sum(e["n_attacks"] for e in entries)),
        "window": {"start": int(window.start), "end": int(window.end)},
        "shards": entries,
    }
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(manifest, indent=2) + "\n")
    tmp.replace(path)


def _read_manifest(path: Path) -> dict:
    """The manifest of the sharded store at ``path``, version-checked."""
    try:
        manifest = json.loads((path / MANIFEST_NAME).read_text())
    except (OSError, ValueError) as exc:
        raise ColstoreError(f"{path}: not a sharded store ({exc})") from exc
    if manifest.get("sharded_version") != SHARDED_VERSION:
        raise ColstoreError(
            f"{path}: sharded version {manifest.get('sharded_version')}"
            f" != {SHARDED_VERSION}"
        )
    return manifest


def save_sharded_npz(
    ds: AttackDataset,
    path: str | Path,
    *,
    shards: int | None = None,
    window_seconds: float | None = None,
) -> Path:
    """Write ``ds`` to the directory ``path`` as a sharded store.

    The attack table is partitioned by start time into the shards named
    by :func:`shard_edges`; bot/victim registries and the scalar state
    go to one shared ``registries.npz``.  The manifest is written last,
    so a crashed save never leaves a loadable-but-partial store.
    """
    path = Path(path)
    reg = _obs_registry()
    edges = shard_edges(ds.window, shards=shards, window_seconds=window_seconds)
    with reg.span("colstore.save"):
        path.mkdir(parents=True, exist_ok=True)
        written = _write_npz(path / _REGISTRIES_NAME, _registry_arrays(ds))
        bounds = _partition_bounds(ds, edges)
        entries = []
        for k in range(edges.size):
            shard = _slice_dataset(ds, int(bounds[k]), int(bounds[k + 1]))
            entry = _shard_entry(k, shard, float(edges[k]))
            written += _write_npz(path / entry["file"], _shard_arrays(shard))
            entries.append(entry)
        _write_manifest(path / MANIFEST_NAME, ds.window, entries)
        reg.counter("colstore.bytes_written").inc(written)
    return path


def append_shard(path: str | Path, ds: AttackDataset) -> Path:
    """Append ``ds`` as the next time shard of the store at ``path``.

    Creates the store when ``path`` has no manifest yet.  The appended
    shard must start strictly after every attack already stored, so the
    shards keep forming a clean time partition; ``registries.npz`` and
    the manifest are rewritten from ``ds``'s scalar state, which (for
    the streaming spill path) is always a superset of the earlier
    shards' interning.
    """
    path = Path(path)
    if ds.n_attacks == 0:
        raise ValueError("refusing to append an empty shard")
    entries: list[dict] = []
    if (path / MANIFEST_NAME).is_file():
        entries = list(_read_manifest(path)["shards"])
        last = max(
            (e["t_last"] for e in entries if e["t_last"] is not None), default=None
        )
        if last is not None and float(ds.start[0]) <= last:
            raise ValueError(
                f"new shard starts at {float(ds.start[0])!r}, which is not"
                f" strictly after the stored data's last start {last!r}"
            )
    reg = _obs_registry()
    with reg.span("colstore.save"):
        path.mkdir(parents=True, exist_ok=True)
        entry = _shard_entry(len(entries), ds, float(ds.start[0]))
        written = _write_npz(path / entry["file"], _shard_arrays(ds))
        written += _write_npz(path / _REGISTRIES_NAME, _registry_arrays(ds))
        entries.append(entry)
        _write_manifest(path / MANIFEST_NAME, ds.window, entries)
        reg.counter("colstore.bytes_written").inc(written)
    return path


class ShardedDatasetStore:
    """N time-partitioned shards of one dataset behind a manifest.

    Two constructors: ``ShardedDatasetStore(path)`` opens a directory
    written by :func:`save_sharded_npz` / :func:`append_shard` (shards
    mmap-load lazily and share one registry load), and
    :meth:`partition` splits an in-memory dataset without touching
    disk.  Either way every shard dataset keeps the *global*
    observation window and shares the bot/victim registries, so global
    attack index = ``shard_bases()[k]`` + local index.  A disk store
    follows appends through :meth:`refresh`; an in-memory partition
    never changes.
    """

    def __init__(self, path: str | Path, *, mmap: bool = True) -> None:
        self.path: Path | None = Path(path)
        self._mmap = mmap
        self._shared: dict | None = None
        self._adopt(_read_manifest(self.path))
        self._datasets: list[AttackDataset | None] = [None] * len(self._entries)

    @classmethod
    def partition(
        cls,
        ds: AttackDataset,
        *,
        shards: int | None = None,
        window_seconds: float | None = None,
    ) -> "ShardedDatasetStore":
        """Split an in-memory dataset into time shards (no disk I/O)."""
        edges = shard_edges(ds.window, shards=shards, window_seconds=window_seconds)
        bounds = _partition_bounds(ds, edges)
        store = cls.__new__(cls)
        store.path = None
        store._mmap = False
        store._entries = []
        store.window = ds.window
        store.edges = edges
        store._counts = np.diff(bounds)
        store._shared = None
        store._datasets = [
            _slice_dataset(ds, int(bounds[k]), int(bounds[k + 1]))
            for k in range(edges.size)
        ]
        return store

    def _adopt(self, manifest: dict) -> None:
        """Take the shard layout and window ``manifest`` records."""
        self._entries: list[dict] = list(manifest["shards"])
        self.window = ObservationWindow(**manifest["window"])
        self.edges = np.array([e["t_lo"] for e in self._entries], dtype=float)
        self._counts = np.array([e["n_attacks"] for e in self._entries], dtype=np.int64)

    @property
    def n_shards(self) -> int:
        return len(self._datasets)

    @property
    def n_attacks(self) -> int:
        return int(self._counts.sum())

    def shard_bases(self) -> np.ndarray:
        """Global attack index of each shard's first row."""
        return np.concatenate(([0], np.cumsum(self._counts)[:-1])).astype(np.int64)

    def _shared_state(self) -> dict:
        if self._shared is None:
            path = self.path / _REGISTRIES_NAME
            arrays, _ = _read_members(path, self._mmap)
            self._shared = _registries(arrays, path)
        return self._shared

    def load_shard(self, index: int) -> AttackDataset:
        """The shard dataset at ``index`` (cached; mmap on disk stores)."""
        ds = self._datasets[index]
        if ds is None:
            path = self.path / self._entries[index]["file"]
            with _obs_registry().span("colstore.load"):
                arrays, _ = _read_members(path, self._mmap)
                # A shard remembers the family list it was written with.
                shard_families = _pop_meta(arrays, path)["families"]
                shared = self._shared_state()
                cols = _group_cols(arrays, "attacks", _ATTACK_COLS, path)
                if shard_families != shared["families"]:
                    mapping = np.array(
                        [shared["families"].index(name) for name in shard_families],
                        dtype=np.asarray(cols["family_idx"]).dtype,
                    )
                    cols["family_idx"] = mapping[np.asarray(cols["family_idx"])]
                ds = AttackDataset(**shared, **cols)
            self._datasets[index] = ds
        return ds

    def refresh(self) -> tuple[int, bool]:
        """Re-read the manifest after an :func:`append_shard`.

        Returns ``(appended, registries_reset)``; an in-memory partition
        always returns ``(0, False)``.  Existing shard entries must be
        unchanged — a rewritten store (different files or counts for
        already-known shards) raises rather than silently serving mixed
        data.  ``registries_reset`` is True when the append rewrote
        ``registries.npz`` with different scalar state (another window,
        new families, botnets, bots or victims interned); every cached
        shard dataset was then dropped, since the old ones index the old
        registries.  Otherwise the cached shards stay valid as they are.
        """
        if self.path is None:
            return 0, False
        manifest = _read_manifest(self.path)
        entries = manifest["shards"]
        if len(entries) < len(self._entries) or any(
            new["file"] != old["file"] or new["n_attacks"] != old["n_attacks"]
            for new, old in zip(entries, self._entries)
        ):
            raise ColstoreError(
                f"{self.path}: store was rewritten, not appended; reopen it"
            )
        appended = len(entries) - len(self._entries)
        if appended == 0:
            return 0, False
        old = self._shared
        reset = False
        if old is not None:
            # Names and sizes only: a full decode also restores the world.
            path = self.path / _REGISTRIES_NAME
            arrays, _ = _read_members(path, self._mmap)
            meta = _pop_meta(arrays, path)
            reset = (
                ObservationWindow(**meta["window"]) != old["window"]
                or meta["families"] != old["families"]
                or len(meta["botnets"]) != len(old["botnets"])
                or arrays["bots.ip"].size != old["bots"].n_bots
                or arrays["victims.ip"].size != old["victims"].ip.size
            )
        if reset:
            self._shared = None
            self._datasets = [None] * len(entries)
        else:
            self._datasets.extend([None] * appended)
        self._adopt(manifest)
        return appended, reset

    def merged_dataset(self) -> AttackDataset:
        """All shards concatenated back into one dataset.

        Always copies into fresh columns — also for in-memory
        partitions — so the merged columns are bitwise what the shards
        actually hold, never a reference to some original.
        """
        first, *rest = (self.load_shard(i) for i in range(self.n_shards))
        return extend_dataset(ColumnStore(), first, rest)


def extend_dataset(
    columns: ColumnStore, prev: AttackDataset, parts: list[AttackDataset]
) -> AttackDataset:
    """``prev``'s attack rows followed by every part's, grown in ``columns``.

    The parts share ``prev``'s registries and window and follow it in
    time order.  Each attack column grows in place when ``prev`` holds
    its latest view in ``columns`` (see
    :class:`~repro.core.columns.ColumnStore`), so the re-merge after an
    appended shard copies only that shard's rows; any other ``prev`` is
    copied once into fresh columns.
    """
    grown = {
        name: columns.extend(
            ("dataset", name), getattr(prev, name), [getattr(p, name) for p in parts]
        )
        for name in _ATTACK_COLS
        if name != "part_offsets"
    }
    offsets = []
    base = prev.part_offsets[-1]
    for p in parts:
        offsets.append(p.part_offsets[1:] + base)
        base = base + p.part_offsets[-1]
    grown["part_offsets"] = columns.extend(
        ("dataset", "part_offsets"), prev.part_offsets, offsets
    )
    return dataclasses.replace(prev, **grown, _checked_rows=prev.n_attacks)
