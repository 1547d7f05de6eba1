"""The owner-privacy adversary: dataset-asset extraction.

Owner privacy is about the dataset as a *competitive asset* (the paper's
pharmaceutical company "unwilling to share those data with possible
competitors").  The adversary here is a competitor who observes everything
that leaves the owner's control — a masked release, protocol messages, or
PIR-retrievable content — and tries to rebuild the original records.

The meter is the fraction of original numeric cells the competitor
recovers within a tolerance (a fraction of each attribute's standard
deviation): 1.0 for a verbatim release, ~0 for crypto PPDM transcripts.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from ..data.table import Dataset
from ..kernels import get_backend
from ..smc.party import Transcript, plaintext_exposure


@dataclass(frozen=True)
class ExtractionReport:
    """Outcome of the dataset-extraction adversary."""

    cells_total: int
    cells_recovered: int

    @property
    def extraction_rate(self) -> float:
        """Fraction of original cells the competitor now effectively holds."""
        return self.cells_recovered / self.cells_total if self.cells_total else 0.0

    @property
    def owner_privacy(self) -> float:
        """1 - extraction rate."""
        return 1.0 - self.extraction_rate


def extraction_from_release(
    original: Dataset,
    release: Dataset,
    columns: Sequence[str] | None = None,
    tolerance_sd: float = 0.25,
) -> ExtractionReport:
    """Competitor reads the release directly (row order is not assumed).

    Two channels, and the competitor keeps the better one.  For a
    row-aligned release, a cell counts as recovered when the released
    cell in the same row and column is within ``tolerance_sd`` standard
    deviations of it.  For any release, a record counts with all its
    cells when some release row is within ``tolerance_sd`` standard
    deviations of it on every column, so a shuffled verbatim release
    still scores 1.0.
    """
    if columns is None:
        columns = [
            c for c in original.numeric_columns()
            if c in release.column_names and release.is_numeric(c)
        ]
    columns = [
        c for c in columns
        if c in release.column_names
        and original.is_numeric(c) and release.is_numeric(c)
    ]
    total = original.n_rows * len(columns)
    if total == 0:
        return ExtractionReport(max(original.n_rows, 1) * max(len(columns), 1), 0)
    x = original.matrix(columns)
    y = release.matrix(columns)
    sd = x.std(axis=0)
    sd[sd == 0] = 1.0
    tol = tolerance_sd

    # Channel 1 (row-aligned releases): per-cell comparison at known
    # alignment — the standard masked-release setting.
    aligned_recovered = 0
    if release.n_rows == original.n_rows:
        aligned_recovered = int(np.sum(np.abs(x - y) / sd <= tol))

    # Channel 2 (any release): record-level matching — a record is
    # recovered when some release row is within tolerance on EVERY column.
    matched_rows = get_backend().tolerance_matches(x / sd, y / sd, tol)
    recovered = max(aligned_recovered, matched_rows * len(columns))
    return ExtractionReport(total, recovered)


def extraction_from_transcript(
    transcript: Transcript, private_values: dict[str, Iterable[float]]
) -> ExtractionReport:
    """Competitor is a protocol participant reading the transcript."""
    values_total = sum(len(list(v)) for v in private_values.values())
    exposure = plaintext_exposure(transcript, private_values)
    return ExtractionReport(
        max(values_total, 1), int(round(exposure * values_total))
    )


def extraction_via_pir_download(
    original: Dataset, columns: Sequence[str] | None = None
) -> ExtractionReport:
    """Competitor downloads everything through an unrestricted PIR interface.

    PIR guarantees the *server* learns nothing about queries — nothing
    stops a client from privately retrieving every record.  An unmasked
    database behind PIR therefore offers the owner no protection at all:
    the extraction rate is 1 by construction.
    """
    if columns is None:
        columns = list(original.numeric_columns())
    total = original.n_rows * max(len(list(columns)), 1)
    return ExtractionReport(max(total, 1), total)
