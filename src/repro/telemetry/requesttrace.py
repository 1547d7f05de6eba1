"""Request-scoped trace context for the serving runtime.

Every request admitted by :class:`repro.serving.ServingRuntime` is
assigned a deterministic ``trace_id`` and a :class:`RequestTrace` that
collects monotonic timestamps at frozen points along the request path
(router -> admission -> ingress queue -> worker batch -> cross-shard
audit and engine, or the PIR slice reads -> gather).  At completion
the runtime emits one flat ``serving.request`` span whose attrs carry
the full latency decomposition, and the thread that decides it sets
the trace id in ``TRACE_CONTEXT`` so every span the engine or PIR layer opens
underneath (``qdb.query``, ``pir.retrieve_batch``, ``faults.degrade``)
is tagged with the same ``trace_id`` — linking the per-subsystem spans
into one causal tree that
:meth:`repro.telemetry.report.TraceReport.waterfall` reconstructs from
a JSONL capture.

The frozen stage list (order matters — it is the waterfall order)::

    admission       router lookup + token-bucket admission decision
    queue_wait      time spent in the shard's bounded ingress queue
    batch_assembly  dequeue -> the worker dispatches the request's batch
    audit           waiting on the cross-shard decision lock / on the
                    first owning PIR slice's lock
    kernel          engine ``ask_batch`` / every owning slice's PIR
                    ``retrieve_batch_int``, until the last returns
    gather          answer distribution / PIR values placed in order
    serialize       future resolution + span emission

Batched requests share the ``audit``/``kernel`` interval: the engine
answers the whole consecutive same-session run under one lock hold, so
every member of the batch reports that shared wall time.  A query
whose shard is idle is decided on the calling thread: it reports all
seven stages with a zero ``queue_wait`` and queue depth 0, and the
calling thread does what a worker would.  Requests
refused at admission (overload) never reach a queue and report only
``admission`` + ``serialize``; the split-tracker refusal is an *engine*
decision and traverses all seven stages.  A PIR retrieval is one
request on its session's shard, so it has one trace like a query
(DESIGN.md §13 has the stage table for both kinds).

Like the rest of :mod:`repro.telemetry` this module is a strict no-op
until a session is enabled: the runtime mints no trace context while
telemetry is disabled, and ``REPRO_TRACE_SAMPLE=N`` keeps only every
Nth request per session (deterministically — the per-session sequence
number drives the choice, not a clock).
"""

from __future__ import annotations

import time
import zlib
from collections import deque
from typing import Sequence

from . import instrument as tele
from . import registry
from .tracing import TRACE_CONTEXT

__all__ = [
    "TRACE_STAGES",
    "REQUEST_SPAN_NAME",
    "STAGE_BUCKETS",
    "RequestTrace",
    "mint_trace_id",
    "push_pending",
    "pop_pending",
    "clear_pending",
    "emit_request_span",
]

# The frozen latency-decomposition stages, in waterfall order.  The
# stage attr on a ``serving.request`` span is ``stage_<name>_seconds``.
TRACE_STAGES = (
    "admission",
    "queue_wait",
    "batch_assembly",
    "audit",
    "kernel",
    "gather",
    "serialize",
)

# The flat span every completed (or refused) request emits.
REQUEST_SPAN_NAME = "serving.request"

# Finer bucket ladder for sub-millisecond serving stages.  The registry
# default (1e-5 .. 1.0, six bounds) saturates its lowest bucket for
# stage timings that live in the 1-500us range; this ladder keeps
# bucket-derived p50/p95 within one bucket width of the exact
# quantiles, taken by the rank rule ``quantile_from_buckets`` applies
# (the smallest observation whose rank reaches q * n; see
# tests/test_requesttrace.py).
STAGE_BUCKETS = (
    1e-6, 2.5e-6, 5e-6,
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 5e-2, 1e-1, 1.0,
)

# Session-label id-prefix cache for mint_trace_id.  Sessions are few and
# long-lived relative to requests, so the encode, crc32 and hex format
# run once per label instead of once per traced request (the minting
# happens on the admission path, under the traced-overhead gate).
_SESSION_PREFIX: dict[str, str] = {}


def mint_trace_id(session: str, seq: int) -> str:
    """Deterministic trace id: crc32(session) + per-session sequence.

    Uses :func:`zlib.crc32`, not :func:`hash`, so ids are stable across
    processes regardless of ``PYTHONHASHSEED`` (same convention as the
    serving router's hash ring).

    >>> mint_trace_id("alice", 1)
    '278ebc47-000001'
    >>> mint_trace_id("alice", 1) == mint_trace_id("alice", 1)
    True
    """
    prefix = _SESSION_PREFIX.get(session)
    if prefix is None:
        crc = zlib.crc32(session.encode("utf-8"))
        prefix = _SESSION_PREFIX[session] = f"{crc:08x}-"
    return f"{prefix}{seq:06d}"


#: Every mark point a request path can record, in path order.
_MARK_POINTS = ("submit", "enqueue", "dequeue", "dispatch", "lock",
                "kernel", "gather", "done", "refused")


class RequestTrace:
    """Per-request mark collector carried on the ingress queue entry.

    Marks are plain ``perf_counter`` readings stored as one slot per
    point (a marks *dict* per request was measurable GC churn on the
    traced hot path — see the serving_traced_qps overhead gate).  Every
    request, a PIR retrieval included, is decided once on one shard: a
    queue entry a worker picks up, or a query decided on the calling
    thread while its shard is idle (``enqueue`` and ``dequeue`` are then
    one reading, so ``queue_wait`` is zero), so each mark is written
    once.
    """

    __slots__ = ("trace_id", "session", "kind", "shard", "queue_depth",
                 "outcome", "reason", "seconds", "span_id",
                 "_epoch") + _MARK_POINTS

    def __init__(self, trace_id: str, session: str, kind: str, shard: int):
        self.trace_id = trace_id
        self.session = session
        self.kind = kind
        self.shard = shard
        self.queue_depth = -1
        # Filled by emit_request_span before the finished trace is
        # handed to the tracer (see to_record).
        self.outcome = None
        self.reason = None
        self.seconds: dict[str, float] = {}
        self.span_id = 0
        self._epoch = 0.0
        # Explicit assignments, not a setattr loop: one RequestTrace is
        # built per traced request, on the submit path.
        self.submit = None
        self.enqueue = None
        self.dequeue = None
        self.dispatch = None
        self.lock = None
        self.kernel = None
        self.gather = None
        self.done = None
        self.refused = None

    def mark(self, point: str) -> None:
        setattr(self, point, time.perf_counter())

    def stages(self) -> dict[str, float]:
        """Stage durations (seconds) for every stage whose two marks exist.

        The seven stages chain the path marks end to start, from
        ``submit`` to ``done``, in :data:`TRACE_STAGES` order.  An
        overload refusal never enqueues: it reports its admission check
        up to the ``refused`` mark and the refusal emission after it as
        serialize, and no other stage.
        """
        if self.enqueue is None and self.refused is not None:
            marks = (self.submit, self.refused, None, None, None, None,
                     self.refused, self.done)
        else:
            marks = (self.submit, self.enqueue, self.dequeue, self.dispatch,
                     self.lock, self.kernel, self.gather, self.done)
        out: dict[str, float] = {}
        for stage, start, end in zip(TRACE_STAGES, marks, marks[1:]):
            if start is not None and end is not None:
                out[stage] = end - start if end > start else 0.0
        return out

    def to_record(self) -> dict:
        """Render the emitted trace as its ``serving.request`` span record.

        Called by the tracer — the same lazy-rendering contract
        :class:`~repro.telemetry.tracing.Span` follows: a buffered-only
        session parks the finished trace object (which the request path
        already allocated) and only a consumer that reads the buffer
        pays for the attrs dict and the record dict.  The record is a
        flat zero-duration event — ``start`` is the request's submit
        mark on the tracer's clock, all timing detail rides in the stage
        attrs (the :attr:`seconds` the stage histograms observed), and
        causal linkage is the ``trace_id`` attr.
        """
        attrs: dict = {
            "trace_id": self.trace_id,
            "session": self.session,
            "kind": self.kind,
            "shard": self.shard,
            "queue_depth": self.queue_depth,
            "outcome": self.outcome,
        }
        if self.reason:
            attrs["reason"] = str(self.reason)
        for stage, value in self.seconds.items():
            attrs[_STAGE_ATTR[stage]] = value
        return {
            "type": "span",
            "span_id": self.span_id,
            "parent_id": None,
            "name": REQUEST_SPAN_NAME,
            "depth": 0,
            "start": max(0.0, (self.submit or 0.0) - self._epoch),
            "duration": 0.0,
            "attrs": attrs,
        }


# ---------------------------------------------------------------------------
# Thread-local propagation.
#
# ``TRACE_CONTEXT`` (one thread-local, defined next to the tracer so the
# instrument facade can read it without importing this module) carries
# two fields:
#   tid   — the active trace id; ``instrument.span`` stamps it onto
#           every span the thread opens while it is set.
#   fifo  — a per-batch FIFO of trace ids aligned with the queries a
#           worker hands to ``Engine.ask_batch``; the engine pops one
#           per query so each ``qdb.query`` span gets *its own* id even
#           though the batch shares one engine call.
# ---------------------------------------------------------------------------


def push_pending(trace_ids: Sequence[str | None]) -> None:
    """Queue per-query trace ids for the engine batch about to run.

    Entries align positionally with the batch: sampled-out requests
    contribute ``None`` so the engine's pops stay in sync.
    """
    fifo = getattr(TRACE_CONTEXT, "fifo", None)
    if fifo is None:
        fifo = TRACE_CONTEXT.fifo = deque()
    fifo.extend(trace_ids)


def pop_pending() -> str | None:
    """Consume the next per-query trace id (None when nothing queued)."""
    fifo = getattr(TRACE_CONTEXT, "fifo", None)
    if not fifo:
        return None
    return fifo.popleft()


def clear_pending() -> None:
    fifo = getattr(TRACE_CONTEXT, "fifo", None)
    if fifo:
        fifo.clear()


# ---------------------------------------------------------------------------
# Emission.
# ---------------------------------------------------------------------------

# Precomputed span-attr key per stage (f-strings per emission would cost
# more than the histogram observations they label).
_STAGE_ATTR = {stage: f"stage_{stage}_seconds" for stage in TRACE_STAGES}


def emit_request_span(
    trace: RequestTrace,
    outcome: str,
    reason: str | None = None,
) -> None:
    """Publish the ``serving.request`` span + per-shard stage histograms.

    Strict no-op while telemetry is disabled.  The stage durations are
    computed once, by :meth:`RequestTrace.stages`, and kept on the trace
    as :attr:`RequestTrace.seconds`: each feeds its
    ``serving.shard<i>.<stage>_seconds`` histogram through
    :meth:`~repro.telemetry.registry.Histogram.observe` with the trace
    id as exemplar, and the span record later renders the same values.
    The histograms are fed eagerly — any registry read (snapshot,
    OpenMetrics scrape, SSE frame) sees this request's stages at once —
    but the record renders lazily: the finished trace goes to
    :meth:`Tracer.emit_deferred`, which in a buffered-only session parks
    it as-is and builds the attrs and record dicts only when a consumer
    reads the buffer; with a sink or subscriber attached it renders at
    emission, so captures and live feeds see it at once.  The waterfall
    CLI links the request to its subsystem spans by the shared
    ``trace_id`` attr rather than by span nesting (those spans were
    opened on other threads and under other locks).
    """
    tracer = tele.tracer()
    if tracer is None:
        return
    trace.outcome = outcome
    trace.reason = reason
    trace.seconds = seconds = trace.stages()
    histograms = _stage_histograms(trace.shard)
    trace_id = trace.trace_id
    for stage, value in seconds.items():
        histograms[stage].observe(value, trace_id)  # trace id as exemplar
    tracer.emit_deferred(trace)


# shard -> (registry resets seen, {stage: histogram}).  Resolving seven
# histograms through the registry per request (each get-or-create takes
# the registry lock) costs more than the observations themselves — the
# serving_traced_qps pair read about 0.025 higher without this cache —
# so each shard's set is resolved once per registry reset.
_HISTOGRAMS: dict[int, tuple[int, dict]] = {}


def _stage_histograms(shard: int) -> dict:
    """The shard's ``serving.shard<i>.<stage>_seconds`` histograms."""
    reg = registry.process_registry()
    cached = _HISTOGRAMS.get(shard)
    if cached is None or cached[0] != reg.resets:
        prefix = f"serving.shard{shard}."
        cached = _HISTOGRAMS[shard] = (reg.resets, {
            stage: reg.histogram(prefix + stage + "_seconds", STAGE_BUCKETS)
            for stage in TRACE_STAGES
        })
    return cached[1]
