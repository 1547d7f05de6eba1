"""Append-only word-row logs: the storage tier under packed histories.

:mod:`~repro.kernels.blockstore` covers *fixed* block databases; query
histories are different — they only ever grow, one packed ``uint64``
row per answered query — so they get their own store contract here.  A
:class:`WordLogStore` owns a ``(size, n_words)`` uint64 matrix with
amortized-doubling appends and serves the one kernel the audit layer
needs: ``overlap_counts`` (AND + popcount of a packed candidate against
a row range) on the active backend.

Two implementations mirror the block-store split:

:class:`RamWordLog`
    The in-RAM buffer the engine has always used (the default).

:class:`MemmapWordLog`
    The same layout in an ``.npy`` file via ``np.lib.format``
    memory-mapping, grown by rewriting into a doubled file, so a long
    interactive session's audit trail can exceed RAM.  An optional
    ``ram_budget`` bounds how many history rows one ``overlap_counts``
    call touches per pass (the block stores' 64-aligned chunking rule
    does not apply: each *row* here is one whole query set, so any row
    boundary is a valid split).  Files live in a private temp directory
    removed when the log is garbage collected, or in a caller-supplied
    ``directory`` that the caller owns.

Both are consumed through :class:`repro.qdb.engine.PackedMaskLog`,
which keeps popcounts and layout logic unchanged and only delegates
storage — memmap-backed histories are decision-identical to RAM ones.
"""

from __future__ import annotations

import shutil
import tempfile
import weakref
from pathlib import Path

import numpy as np

from .backends import get_backend
from .packing import WORD_BYTES

__all__ = [
    "MemmapWordLog",
    "RamWordLog",
    "WordLogStore",
]


class WordLogStore:
    """Contract shared by the word-row log implementations."""

    #: uint64 words per row.
    n_words: int

    def __len__(self) -> int:
        raise NotImplementedError

    @property
    def rows(self) -> np.ndarray:
        """The ``(len(self), n_words)`` uint64 rows appended so far."""
        raise NotImplementedError

    def append(self, row: np.ndarray) -> None:
        """Append one packed uint64 row."""
        raise NotImplementedError

    def overlap_counts(self, packed: np.ndarray,
                       start: int, stop: int) -> np.ndarray:
        """``popcount(rows[r] & packed)`` for ``r`` in ``[start, stop)``."""
        raise NotImplementedError


class RamWordLog(WordLogStore):
    """Amortized-doubling in-RAM uint64 row matrix (the default tier)."""

    def __init__(self, n_words: int, initial_capacity: int = 64):
        self.n_words = int(n_words)
        self._rows = np.zeros(
            (max(1, int(initial_capacity)), self.n_words), dtype=np.uint64
        )
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def rows(self) -> np.ndarray:
        return self._rows[: self._size]

    def append(self, row: np.ndarray) -> None:
        if self._size == self._rows.shape[0]:
            # Rows past the size are never read: copy only the live ones.
            grown = np.empty((2 * self._size, self.n_words), dtype=np.uint64)
            grown[: self._size] = self._rows
            self._rows = grown
        self._rows[self._size] = row
        self._size += 1

    def overlap_counts(self, packed: np.ndarray,
                       start: int, stop: int) -> np.ndarray:
        return get_backend().overlap_counts(self._rows[start:stop], packed)


class MemmapWordLog(WordLogStore):
    """A word-row log memory-mapped from an ``.npy`` file.

    Appends write through the mapping; growth rewrites the live prefix
    into a new file of doubled capacity (amortized O(1) per append, and
    the file never holds stale generations — the old one is unlinked).

    Parameters
    ----------
    n_words:
        uint64 words per row.
    initial_capacity:
        Rows pre-allocated in the first backing file.
    directory:
        Where the backing files live.  ``None`` (default) creates a
        private temp directory removed when the log is collected; a
        caller-supplied directory is left in place.
    ram_budget:
        Optional bytes of history one :meth:`overlap_counts` call may
        hold in RAM per pass; scans larger ranges in row chunks.
    """

    def __init__(self, n_words: int, initial_capacity: int = 64,
                 directory: str | Path | None = None,
                 ram_budget: int | None = None):
        if ram_budget is not None and int(ram_budget) <= 0:
            raise ValueError(
                f"ram_budget must be a positive byte count, got {ram_budget!r}"
            )
        self.n_words = int(n_words)
        self.ram_budget = None if ram_budget is None else int(ram_budget)
        self._capacity = max(1, int(initial_capacity))
        self._size = 0
        self._generation = 0
        if directory is None:
            directory = tempfile.mkdtemp(prefix="repro-qdb-history-")
            self._finalizer = weakref.finalize(
                self, shutil.rmtree, directory, ignore_errors=True
            )
        self._dir = Path(directory)
        self._map = self._open(self._capacity)

    def _path(self, generation: int) -> Path:
        return self._dir / f"wordlog-gen{generation}.npy"

    def _open(self, capacity: int) -> np.ndarray:
        return np.lib.format.open_memmap(
            str(self._path(self._generation)), mode="w+",
            dtype=np.uint64, shape=(capacity, self.n_words),
        )

    def __len__(self) -> int:
        return self._size

    @property
    def rows(self) -> np.ndarray:
        return self._map[: self._size]

    @property
    def chunk_rows(self) -> int:
        """History rows one scan pass may hold in RAM (>= len: unchunked)."""
        if self.ram_budget is None:
            return max(1, self._size)
        row_bytes = self.n_words * WORD_BYTES
        return max(1, self.ram_budget // max(1, row_bytes))

    def append(self, row: np.ndarray) -> None:
        if self._size == self._capacity:
            old_map, old_path = self._map, self._path(self._generation)
            self._generation += 1
            self._capacity *= 2
            new_map = self._open(self._capacity)
            new_map[: self._size] = old_map[: self._size]
            del old_map
            old_path.unlink(missing_ok=True)
            self._map = new_map
        self._map[self._size] = row
        self._size += 1

    def overlap_counts(self, packed: np.ndarray,
                       start: int, stop: int) -> np.ndarray:
        be = get_backend()
        chunk = self.chunk_rows
        if stop - start <= chunk:
            return be.overlap_counts(
                np.ascontiguousarray(self._map[start:stop]), packed
            )
        parts = [
            be.overlap_counts(
                np.ascontiguousarray(self._map[s: min(s + chunk, stop)]),
                packed,
            )
            for s in range(start, stop, chunk)
        ]
        return np.concatenate(parts)
