"""The privacy-meter dashboard.

Renders the paper's three-dimension privacy scores (respondent / owner /
user, with their Table 2 grades) next to the operational metrics the
instrumented run produced — so "k-anonymity scored medium-high" sits
beside "312 records generalized, 14 queries refused, 1.2 MB of PIR
traffic", the measurement plumbing an information-theoretic view of
privacy requires.
"""

from __future__ import annotations

import math
import re
from collections.abc import Sequence

__all__ = ["format_quantity", "meter_bar", "render_dashboard",
           "render_metrics"]

_BAR_WIDTH = 24

#: (scale, suffix) ladders per unit family, largest scale first.
_UNIT_LADDERS = {
    "seconds": ((1.0, "s"), (1e-3, "ms"), (1e-6, "us")),
    "bytes": ((1024.0 ** 2, "MiB"), (1024.0, "KiB"), (1.0, "B")),
}


def meter_bar(score: float, width: int = _BAR_WIDTH) -> str:
    """An ASCII meter for a [0, 1] score: ``[#########---]``."""
    score = min(1.0, max(0.0, float(score)))
    filled = round(score * width)
    return "[" + "#" * filled + "-" * (width - filled) + "]"


def format_quantity(value: float, metric_name: str = "") -> str:
    """Render a metric value with a unit inferred from the metric's name.

    The metric-name suffix selects the unit family — ``*_seconds`` scales
    through s/ms/us, ``*_bytes`` through MiB/KiB/B — so the dashboard
    never hard-codes one unit for every histogram.  Unknown families
    render as plain numbers.

    >>> format_quantity(0.0042, "qdb.query_seconds")
    '4.2 ms'
    >>> format_quantity(3_500_000, "smc.payload_bytes")
    '3.34 MiB'
    >>> format_quantity(7.0, "pir.retrievals")
    '7'
    """
    value = float(value)
    if math.isinf(value):
        return "inf"
    ladder = next(
        (steps for family, steps in _UNIT_LADDERS.items()
         if metric_name.endswith(family)),
        None,
    )
    if ladder is None:
        return f"{value:g}"
    if value == 0.0:
        return f"0 {ladder[-1][1]}"
    for scale, suffix in ladder:
        if value >= scale:
            return f"{value / scale:.3g} {suffix}"
    scale, suffix = ladder[-1]
    return f"{value / scale:.3g} {suffix}"


def _histogram_row(name: str, data: dict) -> str:
    """One summary line: count plus bucket-derived p50/p95/max bounds.

    The quantiles come from the fixed bucket counts, so they are upper
    bounds (the bucket edge containing the quantile observation) — the
    honest direction for latency SLOs.  ``max`` is the q=1.0 bound: the
    edge of the highest non-empty bucket, or ``inf`` if the overflow
    bucket is occupied.
    """
    from .observatory.stream import quantile_from_buckets

    buckets = data["buckets"]
    bounds = [float(label[len("le_"):]) for label in buckets
              if label != "inf"]
    counts = list(buckets.values())
    quantiles = " ".join(
        f"{label}<={format_quantity(quantile_from_buckets(bounds, counts, q), name)}"
        for label, q in (("p50", 0.5), ("p95", 0.95), ("max", 1.0))
    )
    return f"  {name:<34s} count={data['count']:<8d} {quantiles}"


def render_metrics(snapshot: dict) -> str:
    """The operational half: counters, gauges, histogram summaries.

    Counter pairs named ``<base>_hits`` / ``<base>_misses`` (the mask
    cache and the query planner's stack memo) get a derived
    ``<base>_hit_rate`` row right after the pair, so cache efficiency
    reads off the dashboard directly instead of needing mental division.
    """
    lines = ["operational metrics"]
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    histograms = snapshot.get("histograms", {})
    if not (counters or gauges or histograms):
        return "operational metrics\n  (none recorded)"
    for name, value in counters.items():
        lines.append(f"  {name:<34s} {value:>14,}")
        if name.endswith("_misses"):
            base = name[: -len("_misses")]
            hits = counters.get(f"{base}_hits")
            if hits is not None and hits + value > 0:
                rate = hits / (hits + value)
                lines.append(f"  {base + '_hit_rate':<34s} {rate:>14.1%}")
    for name, value in gauges.items():
        lines.append(f"  {name:<34s} {value:>14.4g}")
    for name, data in histograms.items():
        lines.append(_histogram_row(name, data))
    lines.extend(_stage_rows(histograms))
    return "\n".join(lines)


_STAGE_HIST = re.compile(r"^serving\.shard\d+\.([a-z_]+)_seconds$")


def _stage_rows(histograms: dict) -> list[str]:
    """Derived serving-stage rows: per-stage hit counts + queue_wait p95.

    The per-shard ``serving.shard<i>.<stage>_seconds`` histograms the
    request tracer feeds are folded across shards; each frozen stage
    gets a ``serving.stage.<stage>_hits`` row, and ``queue_wait`` — the
    backpressure signal — additionally gets its aggregated p95 (same
    derived-row family as the ``*_hit_rate`` cache rows above).
    """
    from .observatory.stream import quantile_from_buckets
    from .requesttrace import TRACE_STAGES

    per_stage: dict[str, list[dict]] = {}
    for name, data in histograms.items():
        match = _STAGE_HIST.match(name)
        if match and match.group(1) in TRACE_STAGES:
            per_stage.setdefault(match.group(1), []).append(data)
    if not per_stage:
        return []
    lines = ["serving stages (all shards)"]
    for stage in TRACE_STAGES:
        entries = per_stage.get(stage)
        if not entries:
            continue
        hits = sum(entry["count"] for entry in entries)
        lines.append(f"  {'serving.stage.' + stage + '_hits':<34s} {hits:>14,}")
    queue_wait = per_stage.get("queue_wait")
    if queue_wait:
        labels = list(queue_wait[0]["buckets"])
        bounds = [float(label[len("le_"):]) for label in labels
                  if label != "inf"]
        counts = [
            sum(entry["buckets"].get(label, 0) for entry in queue_wait)
            for label in labels
        ]
        p95 = quantile_from_buckets(bounds, counts, 0.95)
        lines.append(
            f"  {'serving.queue_wait_p95':<34s} "
            f"{format_quantity(p95, 'queue_wait_seconds'):>14s}"
        )
    return lines


def render_dashboard(
    assessments: Sequence,
    snapshot: dict | None = None,
    title: str = "privacy meters",
) -> str:
    """Three-dimension score meters plus the metrics that produced them.

    ``assessments`` are
    :class:`~repro.core.assessment.MaskingAssessment` objects (anything
    with ``method_name``, ``scores``, ``grades`` and ``utility`` duck-types).
    """
    from ..core.dimensions import PrivacyDimension

    dims = (
        ("respondent", PrivacyDimension.RESPONDENT),
        ("owner", PrivacyDimension.OWNER),
        ("user", PrivacyDimension.USER),
    )
    lines = [title, "=" * len(title)]
    for assessment in assessments:
        lines.append("")
        lines.append(f"{assessment.method_name}")
        for label, dim in dims:
            score = assessment.scores[dim]
            grade = assessment.grades[dim]
            lines.append(
                f"  {label:<11s} {meter_bar(score)} {score:5.2f}  {grade}"
            )
        utility = getattr(assessment, "utility", None)
        if utility is not None:
            lines.append(f"  {'IL1s loss':<11s} {utility.il1s:.3f}")
    lines.append("")
    if snapshot is not None:
        lines.append(render_metrics(snapshot))
    return "\n".join(lines)
