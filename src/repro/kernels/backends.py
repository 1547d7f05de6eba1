"""Pluggable kernel backends and the import-time selection registry.

Two backends implement one small contract (:class:`KernelBackend`): two
GF(2) kernels on packed words and two nearest-record float scans.

``cext``
    Runtime-compiled C (:mod:`repro.kernels.cext`) — branchless,
    query-tiled, register-blocked word loops and a per-target sorted
    sweep; the fastest tier wherever a C compiler exists.
``uint64``
    Pure numpy — tiled select/XOR-reduce matmul and vectorized popcounts
    on packed uint64 words, blocked windowed scans on floats
    (:mod:`repro.kernels.nearest`).  Always available; the portable floor.

Selection happens lazily on first use: the ``REPRO_KERNELS`` environment
variable names a backend explicitly, otherwise the auto order is
``cext`` → ``uint64``.  The chosen backend is recorded once in the
telemetry process registry (counter ``kernels.backend.<name>``) so
benchmark snapshots and the observatory can attribute perf numbers to
the compute tier that produced them.

Backends are stateless.  ``tests/test_kernels_backends.py`` holds the
correctness bar: a boolean ground truth every backend must match bit
for bit, at the kernel level and end to end.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np

from . import nearest
from .packing import popcount_words, unpack_bool_rows

__all__ = [
    "KernelBackend",
    "Uint64Backend",
    "available_backends",
    "backend_info",
    "get_backend",
    "set_backend",
    "use_backend",
]

#: Probe order when no backend is requested explicitly.
AUTO_ORDER = ("cext", "uint64")


class KernelBackend:
    """The kernel contract every backend implements.

    The GF(2) kernels take packed inputs: databases are ``(n, W)`` uint64
    word matrices (64 database bits per element), masks are little-bit-
    order ``(B, nw)`` word matrices (see :mod:`repro.kernels.packing`).
    The nearest-record scans take ``(n, d)`` float64 targets and an
    ``(m, d)`` float64 release.  Implementations must be *bit-identical*
    to the boolean algebra and the whole-release scans the methods name —
    that equivalence, not speed, is the correctness bar, and
    ``tests/test_kernels_backends.py`` enforces it across schemes,
    faulty wrappers, audit policy stacks and Table 2 scores.
    """

    name = "abstract"

    def gf2_matmul(self, mask_words: np.ndarray, db_words: np.ndarray,
                   n_rows: int) -> np.ndarray:
        """GF(2) product: row b of the result XORs the database rows
        selected by mask b.  *n_rows* bounds the mask bits consulted."""
        raise NotImplementedError

    def overlap_counts(self, rows: np.ndarray,
                       cand: np.ndarray) -> np.ndarray:
        """``popcount(rows[r] & cand)`` for every packed row, as int64."""
        raise NotImplementedError

    def link_candidates(self, targets: np.ndarray, release: np.ndarray,
                        rtol: float, atol: float
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Every target's nearest-record candidates, as (target ids,
        release row ids) pairs in no particular order.

        A target's squared distance to a release row is summed column by
        column, in column order.  Its candidates are the rows whose sum is
        at most ``(sqrt(s) * (1 + 2 * rtol) + 2 * atol) ** 2``, where *s*
        is its smallest sum: twice the tie tolerance, far above any
        rounding of such a sum, so every row tied with the nearest within
        ``(rtol, atol)`` is a candidate.  A NaN sum makes the smallest
        NaN, as numpy's ``min`` does, and leaves the target none; so does
        an empty release.
        """
        raise NotImplementedError

    def tolerance_matches(self, targets: np.ndarray, release: np.ndarray,
                          tol: float) -> int:
        """How many targets some release row matches within *tol* on
        every column: ``max_c |release[j, c] - targets[i, c]| <= tol``.
        A NaN gap to any row leaves the target unmatched."""
        raise NotImplementedError

    @staticmethod
    def check_gf2_matmul(mask_words: np.ndarray, db_words: np.ndarray,
                         n_rows: int) -> int:
        """Validate a :meth:`gf2_matmul` call; return *n_rows* as an int.

        The first *n_rows* database rows must exist and every mask must
        hold a bit for each of them.  Every backend runs this before any
        work, so a mis-shaped call fails with one ``ValueError`` text
        instead of reading past a buffer.
        """
        n_rows = int(n_rows)
        if not (mask_words.ndim == 2 and db_words.ndim == 2
                and 0 <= n_rows <= db_words.shape[0]
                and n_rows <= mask_words.shape[1] * 64):
            raise ValueError(
                f"gf2_matmul needs (B, nw) masks, an (n, W) database and "
                f"0 <= n_rows <= min(n, nw * 64); got masks "
                f"{mask_words.shape}, database {db_words.shape}, "
                f"n_rows {n_rows}"
            )
        return n_rows

    @staticmethod
    def check_overlap(rows: np.ndarray, cand: np.ndarray) -> None:
        """Validate an :meth:`overlap_counts` call: ``(h, nw)`` rows and
        one ``(nw,)`` candidate, raising one ``ValueError`` text."""
        if not (rows.ndim == 2 and cand.shape == rows.shape[1:]):
            raise ValueError(
                f"overlap_counts needs (h, nw) rows and an (nw,) "
                f"candidate; got rows {rows.shape}, candidate {cand.shape}"
            )

    @staticmethod
    def check_scan(method: str, targets: np.ndarray,
                   release: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Validate a nearest-record scan call; return C-contiguous
        float64 targets and release.

        Both must be 2-D with the same number of columns, at least one.
        Every backend runs this before any work, so a mis-shaped call
        fails with one ``ValueError`` text per method.
        """
        targets = np.ascontiguousarray(targets, dtype=np.float64)
        release = np.ascontiguousarray(release, dtype=np.float64)
        if not (targets.ndim == 2 and release.ndim == 2
                and targets.shape[1] == release.shape[1] >= 1):
            raise ValueError(
                f"{method} needs (n, d) targets and an (m, d) release with "
                f"d >= 1; got targets {targets.shape}, release "
                f"{release.shape}"
            )
        return targets, release


class Uint64Backend(KernelBackend):
    """Pure-numpy backend: always importable, no compilation."""

    name = "uint64"

    #: Target bytes for the per-tile (B, T, W) select temporary; tiles
    #: keep the working set inside L2/L3 instead of streaming 8x the
    #: database through RAM.
    TILE_BYTES = 1 << 22

    def gf2_matmul(self, mask_words: np.ndarray, db_words: np.ndarray,
                   n_rows: int) -> np.ndarray:
        n_rows = self.check_gf2_matmul(mask_words, db_words, n_rows)
        bq = int(mask_words.shape[0])
        w = int(db_words.shape[1])
        acc = np.zeros((bq, w), dtype=np.uint64)
        if bq == 0 or n_rows == 0:
            return acc
        bits = unpack_bool_rows(mask_words, n_rows)
        tile = max(64, min(n_rows, self.TILE_BYTES // max(1, bq * w * 8)))
        zero = np.uint64(0)
        for start in range(0, n_rows, tile):
            stop = min(start + tile, n_rows)
            chunk = np.ascontiguousarray(db_words[start:stop])
            selected = np.where(
                bits[:, start:stop, None], chunk[None, :, :], zero
            )
            acc ^= np.bitwise_xor.reduce(selected, axis=1)
        return acc

    def overlap_counts(self, rows: np.ndarray,
                       cand: np.ndarray) -> np.ndarray:
        self.check_overlap(rows, cand)
        if rows.shape[0] == 0:
            return np.zeros(0, dtype=np.int64)
        return popcount_words(rows & cand).sum(axis=1, dtype=np.int64)

    def link_candidates(self, targets: np.ndarray, release: np.ndarray,
                        rtol: float, atol: float
                        ) -> tuple[np.ndarray, np.ndarray]:
        targets, release = self.check_scan("link_candidates", targets,
                                           release)
        return nearest.link_candidates(targets, release, rtol, atol)

    def tolerance_matches(self, targets: np.ndarray, release: np.ndarray,
                          tol: float) -> int:
        targets, release = self.check_scan("tolerance_matches", targets,
                                           release)
        return nearest.tolerance_matches(targets, release, tol)


def _make_cext() -> KernelBackend | None:
    from . import cext

    return cext.make_backend()


_FACTORIES = {
    "cext": _make_cext,
    "uint64": Uint64Backend,
}

# Probe results: name -> backend instance, or None when unavailable.
_probed: dict[str, KernelBackend | None] = {}
_active: KernelBackend | None = None
_recorded: set[str] = set()
_ENV_VAR = "REPRO_KERNELS"


def _probe(name: str) -> KernelBackend | None:
    if name not in _FACTORIES:
        raise ValueError(
            f"unknown kernel backend {name!r}; "
            f"choose from {sorted(_FACTORIES)}"
        )
    if name not in _probed:
        try:
            _probed[name] = _FACTORIES[name]()
        except Exception:
            _probed[name] = None
    return _probed[name]


def _record_selection(name: str) -> None:
    """Count the selection in the telemetry process registry, once."""
    if name in _recorded:
        return
    _recorded.add(name)
    try:
        from ..telemetry.registry import MetricsRegistry

        MetricsRegistry(owner="kernels").counter(
            f"kernels.backend.{name}"
        ).inc()
    except Exception:  # pragma: no cover - telemetry must never break compute
        pass


def available_backends() -> tuple[str, ...]:
    """Names of the backends that actually work on this machine."""
    return tuple(name for name in AUTO_ORDER if _probe(name) is not None)


def get_backend() -> KernelBackend:
    """The active backend, resolving it on first use.

    Resolution honours ``REPRO_KERNELS=<name>`` (an unavailable explicit
    request is an error, not a silent fallback — benchmark comparability
    depends on knowing which tier ran), then walks :data:`AUTO_ORDER`.
    """
    global _active
    if _active is None:
        requested = os.environ.get(_ENV_VAR, "").strip().lower()
        if requested:
            backend = _probe(requested)
            if backend is None:
                raise RuntimeError(
                    f"{_ENV_VAR}={requested!r} was requested but that "
                    f"backend is unavailable on this machine "
                    f"(available: {', '.join(available_backends())})"
                )
            _active = backend
        else:
            for name in AUTO_ORDER:
                backend = _probe(name)
                if backend is not None:
                    _active = backend
                    break
            else:  # pragma: no cover - uint64 always constructs
                raise RuntimeError("no kernel backend available")
        _record_selection(_active.name)
    return _active


def set_backend(name: str) -> KernelBackend:
    """Force the active backend by name."""
    global _active
    backend = _probe(name)
    if backend is None:
        raise RuntimeError(
            f"kernel backend {name!r} is unavailable on this machine "
            f"(available: {', '.join(available_backends())})"
        )
    _active = backend
    _record_selection(backend.name)
    return backend


@contextmanager
def use_backend(name: str):
    """Temporarily switch the active backend (tests, A/B timing)."""
    global _active
    previous = _active
    backend = set_backend(name)
    try:
        yield backend
    finally:
        _active = previous


def backend_info() -> dict[str, str]:
    """Attribution record for benchmark files: backend + numpy version."""
    return {"name": get_backend().name, "numpy": np.__version__}
