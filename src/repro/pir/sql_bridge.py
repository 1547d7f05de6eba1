"""PIR-SQL bridge: private statistical queries over a cell grid.

Section 3 of the paper imagines PIR protocols for statistical queries:

    SELECT COUNT(*)             FROM Dataset2 WHERE height < 165 AND weight > 105
    SELECT AVG(blood_pressure)  FROM Dataset2 WHERE height < 165 AND weight > 105

This module realizes them: the server publishes a *public* grid over the
predicate attributes and serves, via PIR, per-cell aggregates
``(COUNT, SUM(value))`` packed into fixed-width blocks.  The client
resolves its private range predicate to grid cells locally and PIR-fetches
each cell, so the server learns only how many cells were touched, never
which — user privacy by construction, while respondent privacy depends
entirely on the underlying data (the paper's point: PIR over unmasked
records enables the COUNT=1 / AVG re-identification attack).
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from ..data.table import Dataset
from .itpir import TwoServerXorPIR

_SCALE = 100  # fixed-point scale for sums


def _pack(count: int, total: float) -> bytes:
    return int(count).to_bytes(8, "big", signed=True) + int(
        round(total * _SCALE)
    ).to_bytes(12, "big", signed=True)


def _unpack(block: bytes) -> tuple[int, float]:
    count = int.from_bytes(block[:8], "big", signed=True)
    total = int.from_bytes(block[8:20], "big", signed=True) / _SCALE
    return count, total


@dataclass(frozen=True)
class AggregateResult:
    """Result of a private aggregate query."""

    count: int
    total: float

    @property
    def average(self) -> float:
        """SUM / COUNT (NaN for an empty selection)."""
        if self.count == 0:
            return float("nan")
        return self.total / self.count


class PrivateAggregateIndex:
    """A PIR-served grid of (COUNT, SUM) aggregates.

    Threat model: the grid servers are the PIR servers (two,
    non-colluding, honest-but-curious); they learn that *some* cells
    were fetched and how many, but not which — the predicate stays
    private.  Note the inversion the paper builds on: this protects the
    *user*, while the aggregates themselves get no query-set-size
    control, so respondent privacy is out of scope here (the Section 3
    COUNT/AVG isolation attack in ``repro.attacks`` exploits exactly
    that).  Failure behaviour: the raw schemes' — a corrupted retrieval
    yields a wrong aggregate silently.

    Parameters
    ----------
    data:
        The underlying microdata.
    group_columns:
        Numeric predicate attributes spanning the grid.
    value_column:
        Numeric attribute whose per-cell SUM is stored (enables AVG).
    edges:
        Mapping column -> strictly increasing bin edges.  Edges are public
        metadata.  Values outside the edges are clamped into the first or
        last bin.
    """

    def __init__(
        self,
        data: Dataset,
        group_columns: Sequence[str],
        value_column: str,
        edges: Mapping[str, Sequence[float]],
    ):
        self.group_columns = list(group_columns)
        self.value_column = value_column
        if not data.is_numeric(value_column):
            raise TypeError(
                f"value column {value_column!r} must be numeric to serve "
                "SUM/AVG aggregates"
            )
        for column in self.group_columns:
            if not data.is_numeric(column):
                raise TypeError(
                    f"grid column {column!r} must be numeric (bin edges "
                    "are numeric intervals)"
                )
        self.edges = {c: np.asarray(edges[c], dtype=np.float64) for c in group_columns}
        for c in self.group_columns:
            if self.edges[c].size < 2 or np.any(np.diff(self.edges[c]) <= 0):
                raise ValueError(f"edges for {c!r} must be increasing, length >= 2")
        self._dims = tuple(self.edges[c].size - 1 for c in self.group_columns)
        counts = np.zeros(self._dims, dtype=np.int64)
        totals = np.zeros(self._dims, dtype=np.float64)
        values = data.column(value_column)
        coords = []
        for c in self.group_columns:
            col = data.column(c)
            idx = np.clip(
                np.searchsorted(self.edges[c], col, side="right") - 1,
                0,
                self.edges[c].size - 2,
            )
            coords.append(idx)
        for i in range(data.n_rows):
            cell = tuple(int(coord[i]) for coord in coords)
            counts[cell] += 1
            totals[cell] += float(values[i])
        blocks = [
            _pack(int(c), float(t))
            for c, t in zip(counts.reshape(-1), totals.reshape(-1))
        ]
        self._pir = TwoServerXorPIR(blocks)
        self.cells_fetched = 0
        self.blocks_fetched = 0

    @property
    def n_cells(self) -> int:
        """Total number of grid cells."""
        return int(np.prod(self._dims))

    def _cells_for_ranges(
        self, ranges: Mapping[str, tuple[float, float]]
    ) -> list[int]:
        """Flat indices of every cell fully inside the given ranges.

        A range is a half-open interval [lo, hi); unspecified columns match
        everything.  Cells straddling a range boundary are excluded — the
        client should pick predicate bounds on the published edges for
        exact answers (as in the paper's attack).
        """
        per_dim: list[list[int]] = []
        for c, size in zip(self.group_columns, self._dims):
            if c in ranges:
                lo, hi = ranges[c]
                e = self.edges[c]
                keep = [
                    j for j in range(size)
                    if e[j] >= lo and e[j + 1] <= hi
                ]
            else:
                keep = list(range(size))
            per_dim.append(keep)
        flat: list[int] = []
        for combo in itertools.product(*per_dim):
            idx = 0
            for d, j in enumerate(combo):
                idx = idx * self._dims[d] + j
            flat.append(idx)
        return flat

    def batch_cells(
        self, ranges_list: Sequence[Mapping[str, tuple[float, float]]]
    ) -> tuple[list[int], list[list[int]]]:
        """The cells a batch fetches and where each predicate's cells sit.

        Returns the distinct cells of every predicate in first-occurrence
        order, and for each predicate the positions of its cells in that
        list.  A predicate's own cells are a Cartesian product of bins and
        already distinct, so a batch of one fetches them in scan order.
        Raises ``KeyError`` for a predicate on a non-grid column before
        anything is fetched.
        """
        order: dict[int, int] = {}
        routes = []
        for ranges in ranges_list:
            unknown = set(ranges) - set(self.group_columns)
            if unknown:
                raise KeyError(
                    f"predicate on non-grid columns: {sorted(unknown)}"
                )
            routes.append([
                order.setdefault(cell, len(order))
                for cell in self._cells_for_ranges(ranges)
            ])
        return list(order), routes

    def _sum_cells(self, raws, positions) -> AggregateResult:
        count, total = 0, 0.0
        for pos in positions:
            c, t = _unpack(raws[pos])
            count += c
            total += t
        return AggregateResult(count, total)

    def query(
        self,
        ranges: Mapping[str, tuple[float, float]],
        rng: np.random.Generator | int | None = 0,
    ) -> AggregateResult:
        """Privately evaluate COUNT and SUM over the range predicate.

        A batch of one: one ``retrieve_batch`` over the predicate's cells
        in scan order.
        """
        return self.query_batch([ranges], rng)[0]

    def query_batch(
        self,
        ranges_list: Sequence[Mapping[str, tuple[float, float]]],
        rng: np.random.Generator | int | None = 0,
    ) -> list[AggregateResult]:
        """Evaluate a batch of range predicates in one PIR round.

        Cells shared across predicates are fetched once
        (:meth:`batch_cells`), so the servers serve each distinct cell
        once (``blocks_fetched``) however many predicates requested it
        (``cells_fetched``).  Per-predicate results equal sequential
        :meth:`query` calls exactly — PIR reconstruction is exact for
        every retrieved index regardless of the randomness consumed —
        though the randomness stream differs from sequential calls.
        """
        if not ranges_list:
            return []
        cells, routes = self.batch_cells(ranges_list)
        raws = self._pir.retrieve_batch(cells, rng)
        self.cells_fetched += sum(map(len, routes))
        self.blocks_fetched += len(cells)
        return [self._sum_cells(raws, route) for route in routes]

    def server_observations(self) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """What the servers saw on the most recent fetch (for leakage tests)."""
        return self._pir.last_queries
