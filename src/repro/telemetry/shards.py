"""Sharded, memory-mapped utilization storage of saved traces.

Utilization telemetry is the only part of a trace that outgrows RAM: at
paper scale it is a ``(n_vms, n_samples)`` float32 matrix of several GB.
A saved trace stores it as fixed-size row shards -- plain ``.npy`` files of at
most :data:`DEFAULT_SHARD_ROWS` rows each -- under ``<trace>/utilization/``,
described by an ``index.json`` mapping every shard to its VM ids in row
order.

Three pieces live here:

* :class:`ShardRef` -- a lazy handle to one shard.  Opening it goes through
  :func:`np.load` with ``mmap_mode="r"``, so bytes are paged in only when
  rows are actually touched and the kernel can drop them under pressure.
  It hands out a read-only plain ``np.ndarray`` view of the mapping, not
  the ``np.memmap`` itself: row slices of a memmap are memmaps too, and
  every index, ufunc and ``astype`` on them pays the subclass's Python
  hooks (``__array_finalize__``, ``__array_wrap__``).
* :class:`ShardMmapCache` -- a small LRU of open shard mappings.  Resident
  file-backed pages count toward the process RSS high-water mark that the
  obs layer's peak-RSS spans measure, so eviction both drops the mapping
  reference *and* calls ``madvise(MADV_DONTNEED)`` to return the pages to
  the kernel immediately; a later touch simply refaults from the page
  cache.  This is what bounds a full-trace analysis pass to a few hundred
  MB of residency instead of the full telemetry size.
* :class:`ShardSpiller` -- a sequential writer the generator uses to
  synthesize telemetry straight into shard files, so a paper-scale trace
  never materializes in memory on the way to disk either.
"""

from __future__ import annotations

import mmap as _mmap
from collections import OrderedDict
from pathlib import Path

import numpy as np

#: Rows per shard: 2048 rows x 2016 samples x 4 bytes ~= 16.5 MB, small
#: enough that a handful of resident shards stay well inside any sane RSS
#: budget, large enough that per-shard overheads (open, index entry) vanish.
DEFAULT_SHARD_ROWS = 2048

#: Default number of simultaneously mapped shards (~1 GB worst-case
#: residency at the default shard size).
DEFAULT_MMAP_CAPACITY = 64


def _release_pages(array: np.ndarray) -> None:
    """Return a memmap's resident pages to the kernel (best effort).

    ``MADV_DONTNEED`` on a read-only file mapping is always safe: later
    accesses refault from the page cache or disk.  Platforms or array types
    without a reachable ``mmap`` object are silently skipped.
    """
    mapped = getattr(array, "_mmap", None)
    if mapped is None:
        return
    try:
        mapped.madvise(_mmap.MADV_DONTNEED)
    except (AttributeError, ValueError, OSError):
        pass


class ShardMmapCache:
    """LRU of open shard mappings with page release on eviction.

    Each entry is a read-only plain ``np.ndarray`` view whose ``base`` is
    the shard's ``np.memmap``; the memmap is kept only so eviction can
    ``madvise`` its pages away.
    """

    def __init__(self, capacity: int = DEFAULT_MMAP_CAPACITY) -> None:
        self.capacity = capacity
        self._open: "OrderedDict[str, np.ndarray]" = OrderedDict()

    def get(self, path: Path, shape: tuple[int, int]) -> np.ndarray:
        key = str(path)
        array = self._open.get(key)
        if array is None:
            mapped = np.load(path, mmap_mode="r")
            if mapped.dtype != np.float32 or mapped.shape != shape:
                raise ValueError(
                    f"shard {path} has dtype {mapped.dtype} shape {mapped.shape}, "
                    f"expected float32 {shape}"
                )
            array = mapped.view(np.ndarray)
            self._open[key] = array
            while len(self._open) > self.capacity:
                _, evicted = self._open.popitem(last=False)
                _release_pages(evicted.base)
        else:
            self._open.move_to_end(key)
        return array

    def __len__(self) -> int:
        return len(self._open)

    def clear(self) -> None:
        """Drop every mapping and its resident pages."""
        while self._open:
            _, evicted = self._open.popitem(last=False)
            _release_pages(evicted.base)


#: Process-wide cache; all :class:`ShardRef` opens go through it so the
#: residency bound holds across every store in the process.
_MMAPS = ShardMmapCache()


def mmap_cache() -> ShardMmapCache:
    """The process-wide shard mapping cache (exposed for tests/tuning)."""
    return _MMAPS


class ShardRef:
    """Lazy handle to one on-disk float32 utilization shard.

    Quacks like the metadata of a ``(n_rows, n_cols)`` array (``shape``,
    ``nbytes``) without touching the file; :meth:`open` memory-maps it on
    first real access.  Instances are freely shareable between stores
    (:meth:`TraceStore.merge` adopts blocks by reference) and pickle as
    their path, never their rows.
    """

    __slots__ = ("path", "n_rows", "n_cols")

    def __init__(self, path: str | Path, n_rows: int, n_cols: int) -> None:
        self.path = Path(path)
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def nbytes(self) -> int:
        return self.n_rows * self.n_cols * 4

    def open(self) -> np.ndarray:
        """The shard as a read-only plain-array view of its mapping (cached process-wide)."""
        return _MMAPS.get(self.path, self.shape)


def write_shard(path: Path, rows: np.ndarray) -> ShardRef:
    """Write one shard file from an in-memory ``(n, T)`` float32 matrix."""
    rows = np.ascontiguousarray(rows, dtype=np.float32)
    np.save(path, rows)
    # np.save appends .npy when missing; normalize so the ref matches disk.
    if path.suffix != ".npy":
        path = path.with_suffix(path.suffix + ".npy")
    return ShardRef(path, rows.shape[0], rows.shape[1])


class ShardSpiller:
    """Sequential row writer that lands directly in trace shard files.

    The generator asks for writable views of global row ranges (which must
    not cross shard boundaries -- see :meth:`chunk_ranges`), fills them with
    synthesized telemetry, and periodically calls :meth:`release_range`
    so finished chunks are flushed and their dirty pages returned to the
    kernel.  ``finalize`` hands back the :class:`ShardRef` list for the
    store to adopt; no row is ever buffered twice.
    """

    def __init__(
        self,
        directory: str | Path,
        total_rows: int,
        n_cols: int,
        *,
        prefix: str = "shard",
        shard_rows: int = DEFAULT_SHARD_ROWS,
    ) -> None:
        if total_rows <= 0:
            raise ValueError("ShardSpiller needs at least one row")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.total_rows = int(total_rows)
        self.n_cols = int(n_cols)
        self.prefix = prefix
        self.shard_rows = int(shard_rows)
        self.n_shards = -(-self.total_rows // self.shard_rows)
        self._writable: dict[int, np.ndarray] = {}

    def _shard_path(self, k: int) -> Path:
        return self.directory / f"{self.prefix}-{k:05d}.npy"

    def _shard_len(self, k: int) -> int:
        return min(self.shard_rows, self.total_rows - k * self.shard_rows)

    def _shard(self, k: int) -> np.ndarray:
        array = self._writable.get(k)
        if array is None:
            array = np.lib.format.open_memmap(
                self._shard_path(k),
                mode="w+",
                dtype=np.float32,
                shape=(self._shard_len(k), self.n_cols),
            )
            self._writable[k] = array
        return array

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Writable view of global rows ``[start, stop)`` (single shard)."""
        k = start // self.shard_rows
        if stop > min((k + 1) * self.shard_rows, self.total_rows) or start >= stop:
            raise ValueError(
                f"row range [{start}, {stop}) crosses a shard boundary "
                f"(shard_rows={self.shard_rows}, total={self.total_rows})"
            )
        base = k * self.shard_rows
        return self._shard(k)[start - base : stop - base]

    def chunk_ranges(
        self, start: int, stop: int, max_rows: int
    ) -> "list[tuple[int, int]]":
        """Split ``[start, stop)`` into shard-aligned chunks of <= max_rows."""
        ranges = []
        pos = start
        while pos < stop:
            boundary = (pos // self.shard_rows + 1) * self.shard_rows
            ranges.append((pos, min(stop, boundary, pos + max_rows)))
            pos = ranges[-1][1]
        return ranges

    def release_range(self, start: int, stop: int) -> None:
        """Flush shards overlapping ``[start, stop)`` and release their pages.

        The mappings stay open (later passes may revisit the rows and will
        simply refault), but their dirty pages are pushed to disk and
        returned to the kernel, which is what keeps generation's residency
        bounded by the active chunk instead of the full telemetry size.
        """
        lo = start // self.shard_rows
        hi = (max(start, stop - 1)) // self.shard_rows
        for k in range(lo, hi + 1):
            array = self._writable.get(k)
            if array is not None:
                array.flush()
                _release_pages(array)

    def finalize(self) -> list[ShardRef]:
        """Flush everything and return refs for all shards, in order."""
        for array in self._writable.values():
            array.flush()
            _release_pages(array)
        self._writable.clear()
        return [
            ShardRef(self._shard_path(k), self._shard_len(k), self.n_cols)
            for k in range(self.n_shards)
        ]
