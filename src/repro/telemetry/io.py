"""Trace (de)serialization.

A trace saves to a directory:

* ``metadata.json`` -- window duration, sample period, label, format;
* ``<table>/<field>.npy`` -- one column per field of each record table
  (:data:`TABLES`), rows in store order, and ``dictionary.json``, the
  value table of every coded column (below);
* ``utilization/`` -- telemetry as fixed-size float32 ``.npy`` row
  shards plus an ``index.json`` mapping each shard to its VM ids in row
  order.  Shards are loaded lazily via ``np.load(..., mmap_mode="r")``
  (see :mod:`repro.telemetry.shards`), so workers attach telemetry
  zero-copy by path;
* ``checksums.json`` -- sha256 + byte size of every other file, written
  last so readers can detect truncated or bit-rotted entries.  It is
  required: a directory without it is a torn save, not a valid trace.
  Shard payloads are verified shallowly (existence + size) -- hashing
  gigabytes of telemetry on every load would defeat lazy mapping; pass
  ``deep=True`` to :func:`verify_trace_dir` for a full audit.

A field whose values are all ``int`` (not ``bool``) is an int64 column,
one whose values are all ``float`` (``np.float64`` too) a float64 column,
so ``ended_at = inf`` is stored as is.  Any other field (strings, enums,
tuples, ints mixed with floats) is an int32 column of codes into the
dictionary, a list of ``[type, value]`` pairs in first-appearance order.
Keyed by type as well as value, it keeps ``2`` and ``2.0`` apart: every
loaded value has the Python type it was saved with.

Corruption handling: :func:`verify_trace_dir` (and :func:`load_trace`,
which calls it) raise the typed :class:`TraceCorruptionError` on missing,
truncated, unparseable, or checksum-mismatched files, on any ``format``
other than :data:`TRACE_FORMAT_VERSION`, and on columns that are not 1-D
int64/float64/int32, differ in length within a table or hold codes
outside the dictionary.  Callers like the trace cache catch that one
type, evict the entry, and fall back to re-synthesis.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro.obs import Counter, span
from repro.telemetry.schema import (
    Cloud,
    ClusterInfo,
    EventKind,
    EventRecord,
    NodeInfo,
    RegionInfo,
    SubscriptionInfo,
    VMRecord,
)
from repro.telemetry.shards import DEFAULT_SHARD_ROWS, ShardRef, write_shard
from repro.telemetry.store import TraceMetadata, TraceStore


#: Record tables in save order, each a directory of one column per field.
TABLES = {
    "regions": RegionInfo,
    "clusters": ClusterInfo,
    "nodes": NodeInfo,
    "subscriptions": SubscriptionInfo,
    "vms": VMRecord,
    "events": EventRecord,
}

#: The value table of every dictionary-coded column.
DICTIONARY_FILE = "dictionary.json"

#: Files every saved trace directory must contain (utilization payloads are
#: optional: traces generated without telemetry omit them).
TRACE_FILES = ("metadata.json", DICTIONARY_FILE) + tuple(
    f"{table}/{field.name}.npy"
    for table, record in TABLES.items()
    for field in dataclasses.fields(record)
)

#: The one trace directory format this module writes and reads.  Any other
#: ``format`` raises :class:`TraceCorruptionError`, so the content-addressed
#: trace cache evicts such an entry and re-synthesizes it.
TRACE_FORMAT_VERSION = 3

#: Dictionary entry types by tag.  A value is tagged by its exact type, and
#: ``np.float64`` as ``float`` (JSON wrote it as one).
_DECODERS = {
    "str": str, "int": int, "float": float, "bool": bool,
    "cloud": Cloud, "event": EventKind, "tuple": tuple,
}
_TAGS = {kind: tag for tag, kind in _DECODERS.items()} | {np.float64: "float"}
_CODE_DTYPE = np.dtype(np.int32)
_COLUMN_DTYPES = (np.dtype(np.int64), np.dtype(np.float64), _CODE_DTYPE)

#: Subdirectory holding utilization shards and their index.
UTIL_DIR = "utilization"

#: Integrity sidecar written last by :func:`save_trace`.  Every format-3
#: trace has one, so a directory without it is a torn (non-atomic) save.
CHECKSUM_FILE = "checksums.json"

_BYTES_WRITTEN = Counter("io.bytes_written")
_BYTES_READ = Counter("io.bytes_read")
_TRACES_WRITTEN = Counter("io.traces_written")
_TRACES_READ = Counter("io.traces_read")
_TMP_LEAKED = Counter("io.tmp_cleanup_failed")


class TraceCorruptionError(RuntimeError):
    """A saved trace directory is unreadable.

    Raised for missing or truncated files, checksum mismatches, payloads
    that no longer parse, and a format this reader does not read -- one
    typed error callers can catch to evict and regenerate, instead of the
    grab-bag of ``KeyError`` / ``EOFError`` the underlying parsers produce.
    """


def _trace_bytes(directory: Path) -> int:
    """Total on-disk size of a trace directory's files (shards included)."""
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def _file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def is_trace_dir(directory: str | Path) -> bool:
    """Whether ``directory`` holds a saved trace's required files.

    A cheap presence check (False for missing files, never raises);
    :func:`verify_trace_dir` and :func:`load_trace` check integrity.
    """
    directory = Path(directory)
    return all((directory / name).is_file() for name in TRACE_FILES)


def verify_trace_dir(directory: str | Path, *, deep: bool = False) -> Path:
    """Check a saved trace's integrity; raises :class:`TraceCorruptionError`.

    Every required file must exist and be non-empty, the
    ``checksums.json`` sidecar must exist, and every file it records must
    match its byte size and -- except for utilization shard payloads,
    which are only size-checked unless ``deep=True`` (hashing GBs of
    telemetry on every load would defeat lazy mapping) -- its sha256
    digest.  :func:`load_trace` calls this, so a load verifies once.
    """
    directory = Path(directory)
    for name in TRACE_FILES:
        path = directory / name
        if not path.is_file():
            raise TraceCorruptionError(f"trace {directory} is missing {name}")
        # An empty JSON document is always torn (an empty column still
        # has its .npy header).
        if name.endswith(".json") and path.stat().st_size == 0:
            raise TraceCorruptionError(f"trace {directory} has empty {name}")
    sidecar = directory / CHECKSUM_FILE
    if not sidecar.is_file():
        raise TraceCorruptionError(f"trace {directory} is missing {CHECKSUM_FILE}")
    try:
        recorded = json.loads(sidecar.read_text())["files"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise TraceCorruptionError(
            f"trace {directory} has an unreadable {CHECKSUM_FILE}: {exc}"
        ) from exc
    # Sorted so the *first* corruption reported is deterministic regardless
    # of how the sidecar's JSON object happened to be ordered on disk.
    for name, entry in sorted(recorded.items()):
        path = directory / name
        if not path.is_file():
            raise TraceCorruptionError(f"trace {directory} is missing {name}")
        size = path.stat().st_size
        if size != entry.get("bytes"):
            raise TraceCorruptionError(
                f"trace {directory} has truncated {name} "
                f"({size} bytes, expected {entry.get('bytes')})"
            )
        if _is_shard_payload(name) and not deep:
            continue
        if _file_sha256(path) != entry.get("sha256"):
            raise TraceCorruptionError(
                f"trace {directory} has a checksum mismatch in {name}"
            )
    return directory


def _is_shard_payload(name: str) -> bool:
    """Whether a checksum entry is a bulk shard (shallow-verified)."""
    return name.startswith(f"{UTIL_DIR}/") and name.endswith(".npy")


def save_trace_atomic(store: TraceStore, directory: str | Path) -> Path:
    """Like :func:`save_trace`, but all-or-nothing.

    The trace is written to a temporary sibling directory and renamed into
    place, so concurrent writers (e.g. two ``--jobs`` workers caching the
    same config) never observe a half-written trace.  If another writer
    wins the rename race, its complete copy is kept and ours is discarded.
    """
    directory = Path(directory)
    directory.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f".{directory.name}.tmp-", dir=directory.parent))
    try:
        with span("io.save_trace", vms=len(store)):
            adopted = _save_trace(store, tmp)
        try:
            tmp.rename(directory)
        except OSError:
            if not is_trace_dir(directory):
                raise
        else:
            _saved(adopted, directory)
    finally:
        _cleanup_tmp_dir(tmp)
    return directory


def _cleanup_tmp_dir(tmp: Path) -> None:
    """Remove an atomic-write staging directory, accounting for failures.

    A cleanup failure must not mask the write's own outcome, but it may
    not be silent either: a leaked ``*.tmp-*`` directory slowly fills the
    cache volume, so the leak is recorded on the ``io.tmp_cleanup_failed``
    counter and as an ``io.tmp_cleanup_failed`` span event.
    """
    try:
        shutil.rmtree(tmp)
    except FileNotFoundError:
        pass
    except OSError as exc:
        _TMP_LEAKED.inc()
        with span("io.tmp_cleanup_failed", path=str(tmp), error=str(exc)):
            pass


def save_trace(store: TraceStore, directory: str | Path) -> Path:
    """Write ``store`` to ``directory`` (created if missing); returns the path.

    Raises :class:`FileExistsError`, before writing anything, when
    ``directory`` exists and is not empty.

    Utilization is written as shards, in the store's VM order.
    Lazy shard blocks whose layout already matches the save order are
    adopted -- hard-linked (or copied) into place without decompressing or
    rewriting their bytes -- and the store's references are re-pointed at
    the saved copies, so a spill directory used during generation can be
    deleted right after saving.
    """
    directory = Path(directory)
    with span("io.save_trace", vms=len(store)):
        adopted = _save_trace(store, directory)
    _saved(adopted, directory)
    return directory


def _saved(adopted: "list[tuple[ShardRef, str]]", directory: Path) -> None:
    """Point adopted shard refs at their copies under ``directory``; count the save."""
    for ref, relative in adopted:
        ref.path = directory / relative
    _TRACES_WRITTEN.inc()
    _BYTES_WRITTEN.inc(_trace_bytes(directory))


def _save_trace(store: TraceStore, directory: Path) -> "list[tuple[ShardRef, str]]":
    directory.mkdir(parents=True, exist_ok=True)
    # The checksum sidecar hashes every file under ``directory``, so a file
    # left from an earlier trace would be recorded and carried as this one's.
    if any(directory.iterdir()):
        raise FileExistsError(f"{directory} is not empty; save a trace into a new directory")

    meta = {
        "duration": store.metadata.duration,
        "sample_period": store.metadata.sample_period,
        "label": store.metadata.label,
        "format": TRACE_FORMAT_VERSION,
    }
    (directory / "metadata.json").write_text(json.dumps(meta, indent=2))

    # Store insertion order *is* the canonical trace-file order -- it is a
    # deterministic function of the simulated week -- so these writes keep
    # it deliberately instead of re-sorting entities by id.
    codes: dict = {}
    for table, record in TABLES.items():
        rows = getattr(store, table)  # a topology dict, or vms()/events()
        rows = rows() if callable(rows) else list(rows.values())
        (directory / table).mkdir(exist_ok=True)
        for field in dataclasses.fields(record):
            column = _encode_column([getattr(row, field.name) for row in rows], codes)
            np.save(directory / table / f"{field.name}.npy", column, allow_pickle=False)
    (directory / DICTIONARY_FILE).write_text(json.dumps([list(key) for key in codes]))

    adopted = _save_utilization(store, directory)

    # The integrity sidecar goes last: its presence implies every hashed
    # file was fully written, so a torn save can never verify.
    payload = {
        "algorithm": "sha256",
        "files": {
            path.relative_to(directory).as_posix(): {
                "sha256": _file_sha256(path),
                "bytes": path.stat().st_size,
            }
            for path in sorted(directory.rglob("*"))
            if path.is_file() and path.name != CHECKSUM_FILE
        },
    }
    (directory / CHECKSUM_FILE).write_text(json.dumps(payload, indent=2))
    return adopted


def _encode_column(values: list, codes: dict) -> np.ndarray:
    """One field's values as an int64, float64 or ``codes`` column (new keys join it)."""
    if all(type(value) is int for value in values):
        return np.array(values, dtype=np.int64)
    if all(isinstance(value, float) for value in values):
        return np.array(values, dtype=np.float64)
    return np.array(
        [codes.setdefault((_TAGS[type(value)], value), len(codes)) for value in values],
        dtype=_CODE_DTYPE,
    )


def _link_or_copy(source: Path, target: Path) -> None:
    """Hard-link ``source`` to ``target``, copying if linking is impossible."""
    try:
        os.link(source, target)
    except OSError:
        shutil.copy2(source, target)


def _save_utilization(
    store: TraceStore, directory: Path
) -> "list[tuple[ShardRef, str]]":
    """Write utilization rows as fixed-size shards + index.

    Rows are emitted in attachment order.  A lazy
    shard block whose rows are contiguous in that order is
    *adopted*: its file is hard-linked into the trace instead of being
    read and rewritten, which is what makes saving a freshly spilled
    paper-scale trace an O(metadata) operation.  Returns the adopted
    ``(ref, relative_path)`` pairs so callers can re-point the refs once
    the trace reaches its final location.
    """
    entries = list(store._util_index.items())
    if not entries:
        return []
    util_dir = directory / UTIL_DIR
    util_dir.mkdir(parents=True, exist_ok=True)
    shard_entries: list[dict] = []
    adopted: list[tuple[ShardRef, str]] = []
    pending: list[int] = []

    def flush_pending() -> None:
        if not pending:
            return
        seq = len(shard_entries)
        rows = store.utilization_matrix(pending)
        ref = write_shard(util_dir / f"{seq:05d}.npy", rows)
        shard_entries.append(
            {"file": ref.path.name, "rows": ref.n_rows, "vm_ids": list(pending)}
        )
        pending.clear()

    i = 0
    while i < len(entries):
        _, (block_idx, row) = entries[i]
        block = store._util_blocks[block_idx]
        if (
            isinstance(block, ShardRef)
            and row == 0
            and i + block.n_rows <= len(entries)
            and all(
                entries[i + j][1] == (block_idx, j) for j in range(block.n_rows)
            )
        ):
            flush_pending()
            seq = len(shard_entries)
            name = f"{seq:05d}-{block.path.stem}.npy"
            _link_or_copy(block.path, util_dir / name)
            shard_entries.append(
                {
                    "file": name,
                    "rows": block.n_rows,
                    "vm_ids": [entries[i + j][0] for j in range(block.n_rows)],
                }
            )
            adopted.append((block, f"{UTIL_DIR}/{name}"))
            i += block.n_rows
            continue
        pending.append(entries[i][0])
        if len(pending) == DEFAULT_SHARD_ROWS:
            flush_pending()
        i += 1
    flush_pending()

    index = {
        "version": TRACE_FORMAT_VERSION,
        "n_samples": store.metadata.n_samples,
        "shard_rows": DEFAULT_SHARD_ROWS,
        "shards": shard_entries,
    }
    (util_dir / "index.json").write_text(json.dumps(index))
    return adopted


def load_trace(directory: str | Path) -> TraceStore:
    """Read a trace previously written by :func:`save_trace`.

    Integrity is checked first (:func:`verify_trace_dir`), and any parse
    failure in the payload files is re-raised as
    :class:`TraceCorruptionError` -- callers see one typed error for every
    way a trace can rot on disk.
    """
    directory = Path(directory)
    verify_trace_dir(directory)
    with span("io.load_trace", path=str(directory)):
        try:
            store = _load_trace(directory)
        except (KeyError, TypeError, ValueError, EOFError, OSError) as exc:  # JSON errors too
            raise TraceCorruptionError(
                f"trace {directory} failed to parse: {type(exc).__name__}: {exc}"
            ) from exc
    _TRACES_READ.inc()
    _BYTES_READ.inc(_trace_bytes(directory))
    return store


def _load_trace(directory: Path) -> TraceStore:
    meta = json.loads((directory / "metadata.json").read_text())
    fmt = meta.get("format")
    if fmt != TRACE_FORMAT_VERSION:
        raise TraceCorruptionError(
            f"trace {directory} has format {fmt!r}; only format "
            f"{TRACE_FORMAT_VERSION} is readable (re-save or re-synthesize it)"
        )
    store = TraceStore(
        TraceMetadata(meta["duration"], meta["sample_period"], meta.get("label", ""))
    )

    dictionary = [
        _DECODERS[tag](value)
        for tag, value in json.loads((directory / DICTIONARY_FILE).read_text())
    ]
    tables = {table: _load_columns(directory, table, dictionary) for table in TABLES}
    rows = {table: list(map(TABLES[table], *tables[table].values())) for table in TABLES}
    for table, add in (
        ("regions", store.add_region),
        ("clusters", store.add_cluster),
        ("nodes", store.add_node),
        ("subscriptions", store.add_subscription),
        ("vms", store.add_vm),
    ):
        for row in rows[table]:
            add(row)
    # One vectorized (time, kind, vm_id) order check instead of one per row.
    events = tables["events"]
    order = np.lexsort((
        np.array(events["vm_id"]),
        np.array([kind.value for kind in events["kind"]], dtype=str),
        np.array(events["time"]),
    ))
    store.add_events(rows["events"], ordered=bool((order == np.arange(len(order))).all()))

    index_path = directory / UTIL_DIR / "index.json"
    if index_path.exists():
        # Shards attach lazily: no telemetry byte is read here, and worker
        # processes loading the same trace share the bytes through the page
        # cache (zero-copy attach by path).
        for entry in json.loads(index_path.read_text())["shards"]:
            store.add_utilization_shard(
                [int(vm_id) for vm_id in entry["vm_ids"]],
                ShardRef(
                    directory / UTIL_DIR / entry["file"],
                    int(entry["rows"]),
                    store.metadata.n_samples,
                ),
            )
    return store


def _load_columns(directory: Path, table: str, dictionary: list) -> dict[str, list]:
    """One table's decoded columns, by field name, in field order."""
    columns = {}
    for field in dataclasses.fields(TABLES[table]):
        name = f"{table}/{field.name}.npy"
        column = np.load(directory / name, allow_pickle=False)
        if column.ndim != 1 or column.dtype not in _COLUMN_DTYPES:
            shape = f"{column.dtype} {column.shape}"
            raise TraceCorruptionError(f"trace {directory}: {name} is {shape}")
        values = column.tolist()
        if column.dtype == _CODE_DTYPE:
            if values and not (0 <= column.min() and column.max() < len(dictionary)):
                raise TraceCorruptionError(f"trace {directory}: {name} has unknown codes")
            values = [dictionary[code] for code in values]
        columns[field.name] = values
    if len({len(values) for values in columns.values()}) > 1:
        raise TraceCorruptionError(f"trace {directory}: {table} columns differ in length")
    return columns
