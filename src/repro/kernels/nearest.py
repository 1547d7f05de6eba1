"""Nearest-record scans in numpy: the ``uint64`` backend's float kernels.

The two nearest-record adversaries (record linkage in
:mod:`repro.sdc.risk`, owner extraction's record matching in
:mod:`repro.attacks.owner_extraction`) compare every target with the
release rows near it.  Here a block of targets is compared with a window
of release rows at once, one column at a time (:class:`WindowedScan`);
:mod:`repro.kernels.cext` sweeps each target's own window in C instead.
Both return exactly what a whole-release scan returns
(``tests/test_kernels_backends.py``).
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

#: Floats in one temporary of a blocked nearest-record scan: a block of
#: targets is scored against up to every release row at once.
SCAN_BLOCK_FLOATS = 1 << 18

#: Release rows added on each side, in first-column order, to the rows
#: within a block's first-column span: the probe whose distances bound
#: each target's nearest one before the block's window is chosen.
_PROBE_ROWS = 4

#: Relative widening of a window's radius, and of the block's first-column
#: magnitude added to it: far above the few units in the last place by
#: which a difference, its square and the window's bounds can round.
_WINDOW_SLACK = 2.0 ** -40


def target_blocks(n_targets: int, n_release: int) -> Iterator[slice]:
    """Consecutive slices of targets, each small enough that its pairs
    with all *n_release* release rows fit in :data:`SCAN_BLOCK_FLOATS`."""
    step = max(1, SCAN_BLOCK_FLOATS // max(n_release, 1))
    for start in range(0, n_targets, step):
        yield slice(start, min(start + step, n_targets))


class WindowedScan:
    """Targets compared in blocks with the release rows near them.

    The release is sorted once by its first column, and the targets are
    taken in :func:`target_blocks` blocks in the same order.  A block meets
    only the release rows whose first value lies within a radius of the
    block's first values (:meth:`window`).  A row outside differs from
    every target of the block by more than the radius in column 0, so a
    caller whose radius bounds every distance that can pass its cut gets
    the whole-release result.  If a target or release value is NaN or
    infinite, every window is the whole release.  The two scratch arrays
    (:meth:`scratch`) are allocated once and serve every block.
    """

    def __init__(self, targets: np.ndarray, release: np.ndarray):
        self.targets = targets
        self.release = release
        #: Release row ids in first-column order.
        self.order = np.argsort(release[:, 0], kind="stable")
        #: The sorted release, one contiguous row per column.
        self.columns_t = np.ascontiguousarray(release[self.order].T)
        self.finite = bool(
            np.isfinite(targets).all() and np.isfinite(release).all()
        )
        self._blocks = list(target_blocks(targets.shape[0], release.shape[0]))
        # The first block is the largest, so its views fit every block's.
        largest = self._blocks[0].stop if self._blocks else 0
        self._scratch = np.empty((2, largest * release.shape[0]))

    def blocks(self) -> Iterator[np.ndarray]:
        """Target ids, one block at a time, in first-column order."""
        by_first = np.argsort(self.targets[:, 0], kind="stable")
        for block in self._blocks:
            yield by_first[block]

    def window(self, targets: np.ndarray, radius: float) -> slice:
        """Sorted release rows whose first value lies within *radius* of
        the first values of *targets*, a block in first-column order."""
        first = self.columns_t[0]
        if not self.finite:
            return slice(0, first.size)
        lo, hi = targets[0, 0], targets[-1, 0]
        reach = (radius * (1 + _WINDOW_SLACK)
                 + _WINDOW_SLACK * max(abs(lo), abs(hi)))
        start = int(np.searchsorted(first, lo - reach, side="left"))
        stop = int(np.searchsorted(first, hi + reach, side="right"))
        return slice(start, max(start, stop))

    def scratch(self, n_targets: int, window: slice) -> np.ndarray:
        """The two scratch arrays as (n_targets, window rows) views."""
        shape = (n_targets, window.stop - window.start)
        return self._scratch[:, :shape[0] * shape[1]].reshape(2, *shape)


def link_candidates(targets: np.ndarray, release: np.ndarray,
                    rtol: float, atol: float) -> tuple[np.ndarray, np.ndarray]:
    """:meth:`~repro.kernels.KernelBackend.link_candidates`, one block of
    targets at a time."""
    if not (targets.shape[0] and release.shape[0]):
        empty = np.zeros(0, dtype=np.intp)
        return empty, empty
    scan = WindowedScan(targets, release)
    found = [_block_candidates(scan, ids, rtol, atol) for ids in scan.blocks()]
    return (np.concatenate([rows for rows, _ in found]),
            np.concatenate([released for _, released in found]))


def _tie_reach(nearest: np.ndarray, rtol: float, atol: float) -> np.ndarray:
    """The distance up to which a record ties with one at *nearest*, with
    the tie tolerance doubled to absorb rounding."""
    return nearest * (1 + 2 * rtol) + 2 * atol


def _block_candidates(scan: WindowedScan, ids: np.ndarray, rtol: float,
                      atol: float) -> tuple[np.ndarray, np.ndarray]:
    """The candidates of targets ``ids``, a block in first-column order,
    as (target ids, release ids).

    Only the block's window is screened.  A probe first screens each
    target's same-index release row (its own released record when the
    release is row-aligned; any row bounds the nearest one) and the rows
    around the block in first-column order; the smallest of those sums
    bounds the target's nearest one as the screen computes it.  The
    window's radius is the largest tie reach of these bounds.  A
    column-order sum of non-negative squares never rounds below its first
    term, so a row outside the window could not pass any target's cut,
    and the nearest row is inside.
    """
    targets = scan.targets[ids]
    own = np.zeros(ids.size)
    same_index = ids % scan.release.shape[0]
    for column in range(targets.shape[1]):
        own += np.square(scan.release[same_index, column] - targets[:, column])
    first = scan.columns_t[0]
    start = int(np.searchsorted(first, targets[0, 0])) - _PROBE_ROWS
    stop = int(np.searchsorted(first, targets[-1, 0], side="right"))
    probe = slice(max(start, 0), min(stop + _PROBE_ROWS, first.size))
    bound = np.minimum(_screen(scan, targets, probe).min(axis=1), own)
    window = scan.window(targets, _tie_reach(np.sqrt(bound), rtol, atol).max())
    sq = _screen(scan, targets, window)
    cut = _tie_reach(np.sqrt(sq.min(axis=1)), rtol, atol) ** 2
    rows, cols = np.nonzero(sq <= cut[:, None])
    return ids[rows], scan.order[window][cols]


def _screen(scan: WindowedScan, targets: np.ndarray, window: slice) -> np.ndarray:
    """Squared distances from *targets* to the sorted release rows in
    *window*, summed column by column, in the scan's first scratch array."""
    sq, diff = scan.scratch(targets.shape[0], window)
    for column, values in enumerate(scan.columns_t):
        np.subtract(values[window], targets[:, column, None], out=diff)
        if column:
            sq += np.square(diff, out=diff)
        else:
            np.square(diff, out=sq)
    return sq


def tolerance_matches(targets: np.ndarray, release: np.ndarray,
                      tol: float) -> int:
    """:meth:`~repro.kernels.KernelBackend.tolerance_matches`, one block
    of targets at a time.

    Each block takes its largest column gap to the release rows of its
    window, one column at a time; a maximum rounds nothing, so the gaps
    are exact, and a row outside the window is more than *tol* away in
    the first column alone.
    """
    scan = WindowedScan(targets, release)
    matched = 0
    for ids in scan.blocks():
        records = targets[ids]
        window = scan.window(records, tol)
        gaps, diff = scan.scratch(ids.size, window)
        for column, values in enumerate(scan.columns_t):
            np.subtract(values[window], records[:, column, None], out=diff)
            if column:
                np.maximum(gaps, np.abs(diff, out=diff), out=gaps)
            else:
                np.abs(diff, out=gaps)
        nearest = gaps.min(axis=1, initial=np.inf)
        matched += int(np.count_nonzero(nearest <= tol))
    return matched
