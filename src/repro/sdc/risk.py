"""Disclosure-risk measures for masked releases.

The respondent-privacy meter of the framework rests on these measures:

* **Record-linkage risk** — the paper's intruder "can easily gauge the
  height and weight of an individual he knows in order to link the identity
  of that individual to a record in the dataset".  We model this as
  distance-based record linkage between the intruder's (possibly noisy)
  knowledge of quasi-identifiers and the released file.
* **Uniqueness** — the fraction of records whose quasi-identifier
  combination is shared by at most k records (sample uniques for k = 1),
  the quantity k-anonymity drives to zero.
* **Interval disclosure** — even without an exact link, a masked value that
  stays within a small interval around the original leaks it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..data.table import Dataset
from ..kernels import get_backend
from .base import resolve_rng
from .kanonymity import equivalence_classes

#: Distances within this tolerance of a target's nearest one are ties.
_TIE_RTOL = 1e-9
_TIE_ATOL = 1e-12


def _aligned_numeric(
    original: Dataset, masked: Dataset, columns: Sequence[str] | None
) -> tuple[list[str], np.ndarray, np.ndarray]:
    if columns is None:
        columns = [
            c for c in original.quasi_identifiers
            if c in masked.column_names
            and original.is_numeric(c) and masked.is_numeric(c)
        ]
        if not columns:
            columns = [
                c for c in original.numeric_columns()
                if c in masked.column_names and masked.is_numeric(c)
            ]
    else:
        columns = [
            c for c in columns
            if original.is_numeric(c) and masked.is_numeric(c)
        ]
    return columns, original.matrix(columns), masked.matrix(columns)


def class_linkage_rate(
    masked: Dataset, quasi_identifiers: Sequence[str] | None = None
) -> float:
    """Expected linkage success against a categorical/generalized release.

    An intruder who knows which equivalence class the target's record falls
    into picks uniformly within it, succeeding with probability 1/size.
    This is the natural linkage model once quasi-identifiers have been
    recoded to labels or suppressed (it equals 1 for a release of uniques
    and 1/k for a k-anonymous one).
    """
    if masked.n_rows == 0:
        return 0.0
    total = sum(
        1.0  # each of the cls.size records is linked with prob 1/size
        for cls in equivalence_classes(masked, quasi_identifiers)
    )
    return total / masked.n_rows


def distance_linkage_rate(
    original: Dataset,
    masked: Dataset,
    columns: Sequence[str] | None = None,
    intruder_noise_sd: float = 0.0,
    rng: np.random.Generator | int | None = 0,
) -> float:
    """Fraction of records an intruder links correctly.

    The intruder knows each target's quasi-identifier vector (perturbed by
    ``intruder_noise_sd`` standard deviations of measurement error, e.g.
    from "gauging" someone's height) and links it to the nearest record of
    the masked release.  A link counts as correct when it hits the masked
    record derived from the target; ties are split uniformly at random
    (so a k-anonymous release yields a rate close to 1/k).

    Requires the masked release to be row-aligned with the original (true
    for all masking methods in :mod:`repro.sdc`).
    """
    if masked.n_rows != original.n_rows:
        raise ValueError("linkage rate needs row-aligned original and masked data")
    if original.n_rows == 0:
        return 0.0
    rng = resolve_rng(rng)
    requested = columns
    columns, x, y = _aligned_numeric(original, masked, columns)
    if not columns:
        # Quasi-identifiers were recoded to labels/suppressed: fall back to
        # the equivalence-class linkage model.
        return class_linkage_rate(masked, requested)
    scale = x.std(axis=0)
    scale[scale == 0] = 1.0
    known = x + rng.normal(0.0, intruder_noise_sd, x.shape) * scale
    shares = _link_shares(known / scale, y / scale)
    # One share at a time in target order: np.sum would add them pairwise
    # and round differently.
    hits = 0.0
    for share in shares.tolist():
        hits += share
    return hits / x.shape[0]


def _link_shares(targets: np.ndarray, release: np.ndarray) -> np.ndarray:
    """1/ties for each target ``i`` that is among its nearest release
    records, else 0; target ``i`` was released as row ``i``.

    The kernel backend's ``link_candidates`` screens the candidates with
    squared distances summed column by column: rounding moves such a sum
    far less than the tie tolerance, so every exact nearest or tied
    record survives its doubled cut.  The survivors' distances are recomputed here with
    ``np.linalg.norm(..., axis=1)`` -- row by row the floats a per-target
    scan computes -- and settle the nearest record and its ties exactly,
    whichever backend screened them.
    """
    rows, released = get_backend().link_candidates(
        targets, release, _TIE_RTOL, _TIE_ATOL
    )
    d = np.linalg.norm(release[released] - targets[rows], axis=1)
    best = np.full(targets.shape[0], np.inf)
    np.minimum.at(best, rows, d)
    tied = np.isclose(d, best[rows], rtol=_TIE_RTOL, atol=_TIE_ATOL)
    ties = np.bincount(rows[tied], minlength=targets.shape[0])
    hit = rows[tied & (released == rows)]
    shares = np.zeros(targets.shape[0])
    shares[hit] = 1.0 / ties[hit]
    return shares


def uniqueness_rate(
    data: Dataset, quasi_identifiers: Sequence[str] | None = None, k: int = 1
) -> float:
    """Fraction of records in equivalence classes of size <= max(k, 1).

    With the default ``k = 1`` this is the classical *sample uniques*
    proportion: records whose key-attribute combination is unique.
    """
    if data.n_rows == 0:
        return 0.0
    threshold = max(k, 1)
    exposed = sum(
        cls.size
        for cls in equivalence_classes(data, quasi_identifiers)
        if cls.size <= threshold
    )
    return exposed / data.n_rows


def interval_disclosure_rate(
    original: Dataset,
    masked: Dataset,
    columns: Sequence[str] | None = None,
    interval_pct: float = 10.0,
) -> float:
    """Fraction of masked cells within ±p% of the attribute spread.

    For each numeric cell, disclosure occurs when the masked value lies
    within ``interval_pct/100 * std`` of the original value; the rate is
    averaged over all cells.  Unmasked data score 1.0.
    """
    if masked.n_rows != original.n_rows:
        raise ValueError("interval disclosure needs row-aligned datasets")
    columns, x, y = _aligned_numeric(original, masked, columns)
    if not columns or x.size == 0:
        return 0.0  # recoded to labels: no numeric value is disclosed
    std = x.std(axis=0)
    std[std == 0] = 1.0
    within = np.abs(y - x) <= (interval_pct / 100.0) * std
    return float(within.mean())


def unique_interval_disclosure_rate(
    original: Dataset,
    masked: Dataset,
    columns: Sequence[str] | None = None,
    interval_pct: float = 20.0,
) -> float:
    """Interval disclosure restricted to re-identifiable records.

    A masked value within ±p%·std of the original only *re-identifies* the
    respondent when the masked record's key-attribute combination is unique
    in the release — otherwise the (approximate) key still maps to several
    respondents (the paper's k-anonymity argument).  Rate = per-cell
    interval-disclosure fraction (the standard SDC measure), counted only
    on release-unique records.
    """
    if masked.n_rows != original.n_rows:
        raise ValueError("interval disclosure needs row-aligned datasets")
    if original.n_rows == 0:
        return 0.0
    columns, x, y = _aligned_numeric(original, masked, columns)
    if not columns or x.size == 0:
        return 0.0
    std = x.std(axis=0)
    std[std == 0] = 1.0
    within = np.abs(y - x) <= (interval_pct / 100.0) * std
    singleton = _singletons(masked, columns)
    return float((within * singleton[:, None]).mean())


def _singletons(data: Dataset, columns: Sequence[str]) -> np.ndarray:
    """Rows whose values on *columns* no other row shares: the equivalence
    classes of size 1, found by sorting the rows once and comparing each
    with its neighbours.  As in :func:`equivalence_classes`, NaN equals
    nothing, so a row holding one is a singleton, and -0.0 equals 0.0."""
    keys = [data.column(c) for c in columns]
    order = np.lexsort(keys)
    same = np.ones(data.n_rows - 1, dtype=bool)  # sorted row k == row k + 1
    for key in keys:
        ordered = key[order]
        same &= ordered[1:] == ordered[:-1]
    shared = np.zeros(data.n_rows, dtype=bool)
    shared[1:] = same
    shared[:-1] |= same
    singleton = np.empty(data.n_rows, dtype=bool)
    singleton[order] = ~shared
    return singleton


@dataclass(frozen=True)
class RiskReport:
    """Bundle of disclosure-risk measures for one release."""

    linkage_rate: float
    uniqueness: float
    interval_disclosure: float

    @property
    def respondent_privacy(self) -> float:
        """Overall respondent-privacy score in [0, 1] (1 = private).

        The complement of the dominant risk channel: an intruder uses
        whichever of linkage or interval disclosure works better.
        """
        return 1.0 - max(self.linkage_rate, self.interval_disclosure)


def assess_risk(
    original: Dataset,
    masked: Dataset,
    columns: Sequence[str] | None = None,
    intruder_noise_sd: float = 0.0,
    interval_pct: float = 10.0,
    rng: np.random.Generator | int | None = 0,
) -> RiskReport:
    """Run all risk measures and return a :class:`RiskReport`."""
    if masked.n_rows == original.n_rows:
        linkage = distance_linkage_rate(
            original, masked, columns, intruder_noise_sd, rng
        )
        interval = interval_disclosure_rate(original, masked, columns, interval_pct)
    else:
        # Record suppression changed the row count: approximate by linking
        # only the surviving records (conservative for the remaining ones).
        linkage = 0.0
        interval = 0.0
    unique = uniqueness_rate(masked, columns)
    return RiskReport(linkage, unique, interval)
