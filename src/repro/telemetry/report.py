"""The one fold of a capture: summaries, decisions, request waterfalls.

Reads a JSONL capture produced by a telemetry session into a
:class:`TraceReport`, which indexes the spans once, by name and by
trace id, each in capture order.  Everything else reads that index
instead of rescanning the capture: per-span-name latency aggregates,
the top-N slowest individual spans, every refusal, degradation and
alert decision (the auditor's view, with the policy, component or
detector and its reason), and each served request's causal waterfall.
``repro telemetry report``, ``repro trace``, the telemetry and serving
smokes, the chaos scenario and the incident bundle all read it.

Reconstructing a waterfall from captured span records:

>>> report = TraceReport("synthetic", [
...     {"name": "serving.request", "start": 0.0, "duration": 0.004,
...      "attrs": {"trace_id": "5a105e8b-000001", "session": "alice",
...                "kind": "qdb", "shard": 1, "queue_depth": 3,
...                "outcome": "answered", "stage_admission_seconds": 1e-5,
...                "stage_queue_wait_seconds": 2e-3,
...                "stage_batch_assembly_seconds": 5e-5,
...                "stage_audit_seconds": 1e-4,
...                "stage_kernel_seconds": 1.5e-3,
...                "stage_gather_seconds": 2e-5,
...                "stage_serialize_seconds": 1e-5}},
...     {"name": "qdb.query", "start": 0.002, "duration": 0.0015,
...      "attrs": {"trace_id": "5a105e8b-000001", "refused": False}},
... ])
>>> info = report.waterfall("5a105e8b-000001")
>>> info["outcome"], info["shard"], len(info["linked"])
('answered', 1, 1)
>>> sorted(info["stages"]) == sorted(TRACE_STAGES)
True
>>> print(report.format_waterfall("5a105e8b-000001"))  # doctest: +ELLIPSIS
trace 5a105e8b-000001  session=alice kind=qdb shard=1 queue_depth=3 outcome=answered
  total ...
    admission     ...
    queue_wait    ...
    batch_assembly...
    audit         ...
    kernel        ...
    gather        ...
    serialize     ...
  linked spans:
    qdb.query ...
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .requesttrace import REQUEST_SPAN_NAME, TRACE_STAGES
from .tracing import SpanSchemaError, validate_record

__all__ = [
    "TraceReport",
    "cache_efficiency",
    "load_trace",
    "read_trace",
    "request_stages",
    "summarize",
]


def read_trace(path: str | Path, validate: bool = True) -> list[dict]:
    """Parse a JSONL trace into span records (meta lines checked, dropped).

    With ``validate`` (the default) every line must conform to the span
    schema; a malformed line raises :class:`SpanSchemaError` naming the
    line number — this is the ``make telemetry-smoke`` drift gate.
    """
    spans: list[dict] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SpanSchemaError(
                    f"{path}:{lineno}: not valid JSON ({exc})"
                ) from None
            if validate:
                try:
                    validate_record(record)
                except SpanSchemaError as exc:
                    raise SpanSchemaError(f"{path}:{lineno}: {exc}") from None
            if record.get("type") == "span":
                spans.append(record)
    return spans


@dataclass
class SpanStats:
    """Latency aggregate for one span name."""

    name: str
    count: int = 0
    total: float = 0.0
    max: float = 0.0
    refused: int = 0

    @property
    def mean(self) -> float:
        """Mean span duration in seconds."""
        return self.total / self.count if self.count else 0.0


def summarize(spans: list[dict]) -> dict[str, SpanStats]:
    """Per-name span statistics, sorted by total time (descending)."""
    stats: dict[str, SpanStats] = {}
    for span in spans:
        entry = stats.setdefault(span["name"], SpanStats(span["name"]))
        entry.count += 1
        entry.total += span["duration"]
        entry.max = max(entry.max, span["duration"])
        if span["attrs"].get("refused") is True:
            entry.refused += 1
    return dict(
        sorted(stats.items(), key=lambda kv: -kv[1].total)
    )


def slowest_spans(spans: list[dict], n: int = 10) -> list[dict]:
    """The *n* individual spans with the longest durations."""
    return sorted(spans, key=lambda s: -s["duration"])[:n]


def cache_efficiency(spans: list[dict]) -> dict:
    """Mask-cache / plan-cache efficiency reconstructed from query spans.

    Every ``qdb.query`` span carries ``cache_hit`` (predicate mask cache)
    and ``plan_cached``: whether the query planner found its memo of the
    policy stack current.  A miss is a decision on a new stack, so a
    session reads one miss per engine and then hits, whatever its
    queries.  Returns ``{"mask_cache": {...}, "plan_cache": {...}}``
    where each entry holds ``hits``, ``misses`` and ``hit_rate`` (0.0
    when the cache saw no traffic).  ``plan_cache`` covers only spans
    that recorded ``plan_cached`` — an older trace without it yields
    zeros there, not an error.
    """
    mask_hits = mask_misses = plan_hits = plan_misses = 0
    for span in spans:
        if span["name"] != "qdb.query":
            continue
        attrs = span["attrs"]
        if "cache_hit" in attrs:
            if attrs["cache_hit"]:
                mask_hits += 1
            else:
                mask_misses += 1
        if "plan_cached" in attrs:
            if attrs["plan_cached"]:
                plan_hits += 1
            else:
                plan_misses += 1

    def rates(hits: int, misses: int) -> dict:
        total = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / total if total else 0.0,
        }

    return {
        "mask_cache": rates(mask_hits, mask_misses),
        "plan_cache": rates(plan_hits, plan_misses),
    }


#: Decision kind -> (span name, attr that must be True on the span or
#: None, the ``(attr, default)`` pairs each decision copies).  A
#: missing attr reads as its default, so a drifted capture still
#: reports every decision it holds.
_DECISIONS = {
    "refusal": ("qdb.query", "refused",
                (("query", "?"), ("policy", "?"), ("reason", "?"))),
    "degradation": ("faults.degrade", None,
                    (("component", "?"), ("decision", "?"),
                     ("reason", "?"))),
    "alert": ("observatory.alert", None,
              (("alert", "?"), ("severity", "?"), ("dimension", "?"),
               ("step", 0), ("detail", ""))),
}


def request_stages(attrs: dict) -> dict[str, float]:
    """A ``serving.request`` span's stage seconds, in ``TRACE_STAGES`` order.

    Stages the request never reached are absent: an overload refusal
    reports only ``admission`` and ``serialize``.
    """
    return {
        stage: float(value) for stage in TRACE_STAGES
        if (value := attrs.get(f"stage_{stage}_seconds")) is not None
    }


def _fmt_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:8.3f}s "
    if value >= 1e-3:
        return f"{value * 1e3:8.3f}ms"
    return f"{value * 1e6:8.1f}us"


@dataclass
class TraceReport:
    """One capture, indexed once: everything the report CLI prints, as data.

    ``by_name`` maps a span name, and ``by_trace`` a ``trace_id`` attr,
    to its spans in capture order; the readers below go through them
    instead of rescanning ``spans``.
    """

    path: str
    spans: list[dict] = field(repr=False, default_factory=list)
    by_name: dict[str, list[dict]] = field(init=False, repr=False)
    by_trace: dict[str, list[dict]] = field(init=False, repr=False)

    def __post_init__(self):
        self.by_name = {}
        self.by_trace = {}
        for span in self.spans:
            self.by_name.setdefault(span.get("name"), []).append(span)
            trace_id = span.get("attrs", {}).get("trace_id")
            if trace_id is not None:
                self.by_trace.setdefault(trace_id, []).append(span)

    @property
    def stats(self) -> dict[str, SpanStats]:
        """Per-name aggregates."""
        return summarize(self.spans)

    def decisions(self, kind: str) -> list[dict]:
        """Every decision of one *kind*, in capture order.

        ``"refusal"``: each refused ``qdb.query`` span, as ``{"query",
        "policy", "reason"}``.  ``"degradation"``: each ``faults.degrade``
        span, the fault layer's response to a failure (PIR single-replica
        fallback, SMC party exclusion, qdb replica failover, backend or
        overload refusal), as ``{"component", "decision", "reason"}``.
        ``"alert"``: each ``observatory.alert`` span, the run's incident
        log, as ``{"alert", "severity", "dimension", "step", "detail"}``.
        Every decision also carries its ``span_id``.
        """
        name, flag, fields = _DECISIONS[kind]
        return [
            {"span_id": span["span_id"],
             **{key: span["attrs"].get(key, default)
                for key, default in fields}}
            for span in self.by_name.get(name, ())
            if flag is None or span["attrs"].get(flag) is True
        ]

    @property
    def caches(self) -> dict:
        """Mask-cache and plan-cache efficiency."""
        return cache_efficiency(self.by_name.get("qdb.query", []))

    @property
    def requests(self) -> list[dict]:
        """Traced serving requests (``serving.request`` spans)."""
        return self.by_name.get(REQUEST_SPAN_NAME, [])

    def format(self, top: int = 10) -> str:
        """Human-readable report: summary table, slowest spans, decisions."""
        lines = [f"trace: {self.path} ({len(self.spans)} spans)", ""]
        stats = self.stats
        if stats:
            width = max(len(name) for name in stats)
            lines.append(
                f"{'span':<{width}s} {'count':>7s} {'total_ms':>10s} "
                f"{'mean_ms':>9s} {'max_ms':>9s} {'refused':>8s}"
            )
            for name, s in stats.items():
                lines.append(
                    f"{name:<{width}s} {s.count:>7d} {s.total * 1e3:>10.3f} "
                    f"{s.mean * 1e3:>9.3f} {s.max * 1e3:>9.3f} "
                    f"{s.refused:>8d}"
                )
        else:
            lines.append("(no spans)")
        slow = slowest_spans(self.spans, top)
        if slow:
            lines += ["", f"top {len(slow)} slowest spans:"]
            name_width = max(len(s["name"]) for s in slow)
            for span in slow:
                detail = span["attrs"].get("query") or ""
                lines.append(
                    f"  #{span['span_id']:<5d} {span['name']:<{name_width}s} "
                    f"{span['duration'] * 1e3:9.3f} ms  {detail}"
                )
        caches = self.caches
        if any(c["hits"] + c["misses"]
               for c in (caches["mask_cache"], caches["plan_cache"])):
            lines += ["", "cache efficiency:"]
            for label, key in (("mask cache", "mask_cache"),
                               ("plan cache", "plan_cache")):
                entry = caches[key]
                if entry["hits"] + entry["misses"] == 0:
                    continue
                lines.append(
                    f"  {label:<11s} {entry['hits']} hits / "
                    f"{entry['misses']} misses "
                    f"({entry['hit_rate']:.1%} hit rate)"
                )
        refusals = self.decisions("refusal")
        lines += ["", f"refusal decisions: {len(refusals)}"]
        for decision in refusals:
            lines.append(
                f"  [{decision['policy']}] {decision['query']}\n"
                f"      -> {decision['reason']}"
            )
        degradations = self.decisions("degradation")
        lines += ["", f"degradation decisions: {len(degradations)}"]
        for decision in degradations:
            lines.append(
                f"  [{decision['component']}] {decision['decision']}\n"
                f"      -> {decision['reason']}"
            )
        alerts = self.decisions("alert")
        lines += ["", f"observatory alerts: {len(alerts)}"]
        for decision in alerts:
            lines.append(
                f"  [{decision['severity']}] {decision['alert']} "
                f"({decision['dimension']}, step {decision['step']})\n"
                f"      -> {decision['detail']}"
            )
        requests = self.requests
        if requests:
            outcomes: dict[str, int] = {}
            stage_totals: dict[str, float] = {}
            walls = []
            for record in requests:
                attrs = record["attrs"]
                outcome = attrs.get("outcome", "?")
                outcomes[outcome] = outcomes.get(outcome, 0) + 1
                stages = request_stages(attrs)
                for stage, value in stages.items():
                    stage_totals[stage] = stage_totals.get(stage, 0.0) + value
                walls.append(sum(stages.values()))
            summary = ", ".join(
                f"{count} {outcome}" for outcome, count in
                sorted(outcomes.items())
            )
            lines += ["", f"traced requests: {len(requests)} ({summary})"]
            total = sum(stage_totals.values())
            for stage in TRACE_STAGES:
                if stage not in stage_totals:
                    continue
                value = stage_totals[stage]
                share = value / total if total else 0.0
                lines.append(
                    f"  {stage:<14s} {value * 1e3:>10.3f} ms total "
                    f"({share:5.1%} of traced wall time)"
                )
            slowest = sorted(
                zip(walls, requests), key=lambda pair: -pair[0]
            )[:min(top, 5)]
            lines.append("  slowest requests (see `repro trace <id>`):")
            for wall, record in slowest:
                attrs = record["attrs"]
                lines.append(
                    f"    {attrs.get('trace_id')}  {wall * 1e3:8.3f} ms  "
                    f"session={attrs.get('session')} "
                    f"shard={attrs.get('shard')} "
                    f"outcome={attrs.get('outcome')}"
                )
        return "\n".join(lines)

    def waterfall(self, trace_id: str) -> dict | None:
        """Reconstruct one request's causal waterfall.

        Returns ``None`` when no ``serving.request`` span carries the id.
        The result has the request summary (session, kind, shard, queue
        depth at enqueue, decision outcome/reason), the stage
        decomposition in frozen-stage order, and every other span tagged
        with the same trace id (the causal tree, in capture order).
        """
        tagged = self.by_trace.get(trace_id, [])
        request = next(
            (s for s in tagged if s.get("name") == REQUEST_SPAN_NAME), None
        )
        if request is None:
            return None
        attrs = request.get("attrs", {})
        stages = request_stages(attrs)
        return {
            "trace_id": trace_id,
            "session": attrs.get("session"),
            "kind": attrs.get("kind"),
            "shard": attrs.get("shard"),
            "queue_depth": attrs.get("queue_depth"),
            "outcome": attrs.get("outcome"),
            "reason": attrs.get("reason"),
            "stages": stages,
            "total_seconds": sum(stages.values()),
            "linked": [s for s in tagged if s is not request],
        }

    def format_waterfall(self, trace_id: str, width: int = 40) -> str:
        """ASCII waterfall for one trace id (raises KeyError when unknown)."""
        info = self.waterfall(trace_id)
        if info is None:
            raise KeyError(trace_id)
        lines = [
            (
                f"trace {info['trace_id']}  session={info['session']} "
                f"kind={info['kind']} shard={info['shard']} "
                f"queue_depth={info['queue_depth']} outcome={info['outcome']}"
            )
        ]
        if info["reason"]:
            lines.append(f"  reason: {info['reason']}")
        total = info["total_seconds"]
        lines.append(f"  total {_fmt_seconds(total)}")
        offset = 0.0
        for stage, value in info["stages"].items():
            if total > 0:
                lead = int(round(width * offset / total))
                bar = int(round(width * value / total))
            else:
                lead = bar = 0
            bar = max(1, bar) if value > 0 else bar
            lines.append(
                f"    {stage:<14s}{_fmt_seconds(value)}  "
                f"{' ' * lead}{'#' * bar}"
            )
            offset += value
        if info["linked"]:
            lines.append("  linked spans:")
            for record in info["linked"]:
                attrs = record.get("attrs", {})
                detail = ""
                if "refused" in attrs:
                    detail = " refused" if attrs["refused"] else " answered"
                if "decision" in attrs:
                    detail += f" decision={attrs['decision']}"
                lines.append(
                    f"    {record['name']} "
                    f"{_fmt_seconds(float(record['duration']))}{detail}"
                )
        return "\n".join(lines)


def load_trace(path: str | Path, validate: bool = True) -> TraceReport:
    """Read and wrap a trace file."""
    return TraceReport(str(path), read_trace(path, validate=validate))
