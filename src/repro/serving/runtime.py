"""The sharded serving runtime: router + shard worker pools + admission.

Topology.  :class:`ServingRuntime` multiplexes many concurrent sessions
over N shards.  Each shard owns a full :class:`~repro.qdb.engine.
StatisticalDatabase` over the *whole* population (sharding rows would
change statistical answers) plus an optional slice of the PIR block
array, and drains a bounded ingress queue with a small worker pool that
dispatches through ``ask_batch``.  A :class:`~repro.serving.router.
ConsistentHashRouter` pins every session to one shard; the same ring
assigns PIR blocks to owners.  A batched retrieval is one request on
its session's shard, like the session's queries: that shard's worker
reads every owning slice in ascending shard order, each under the
slice's own lock, and resolves the future with the decoded values in
request order.

Caller-run decisions.  Every served decision takes the one cross-shard
decision lock, so handing a query to its shard's worker adds no
parallelism, only two thread wake-ups.  When the session's shard is
idle — nothing queued and nothing running — :meth:`ServingRuntime.
submit` claims it and decides the query on the calling thread; a busy
shard queues it as before.  The claim raises the queue's
``unfinished_tasks`` from 0 under the queue's own mutex, so ``drain``
counts the decision and a later submission queues behind it, and a
query never overtakes one of its session's that a worker has dequeued
but not finished (DESIGN.md §12).  After the decision the calling
thread yields the CPU once, so several client threads take turns
instead of one of them holding the GIL for a whole switch interval.
PIR retrievals always queue.

Privacy under sharding.  All shards review against one
:class:`~repro.serving.audit.CrossShardAuditView` (shared global history
+ overlap/sum-audit policies) and hold its re-entrant lock across each
``ask_batch``, so the N-shard runtime's refusal decisions are
*decision-identical* to a single engine auditing the same total order of
queries — a tracker attack split across sessions on different shards is
refused exactly as if one analyst had issued it alone.  Constructing the
runtime with ``shared_audit=False`` gives each shard an isolated audit
(the negative control: the split tracker then *succeeds* at N >= 2,
which is how the tests demonstrate the shared view is load-bearing).

Overload.  Admission happens before any queue touch: a session over its
token-bucket rate, or a full shard ingress queue, yields a typed
:class:`~repro.qdb.engine.Refusal` whose reason carries the frozen
``"admission: "`` prefix, plus a ``faults.degrade`` audit span
(component ``"serving"``, decision ``"refuse-overload"``) — overload is
auditable like any other degradation.  PIR retrievals instead *block*
on a full queue and are never refused: PIR backpressure is latency,
never a typed refusal that names a shard (DESIGN.md §12).

Failure behaviour: a shard whose backend is down answers with
``"backend: ..."`` refusals for its own sessions only; backend-refused
queries never commit audit state, so the shared view stays consistent
and sessions on healthy shards see pristine answers — the chaos gate's
faulted-shard invariant.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from concurrent.futures import Future

from ..qdb.engine import (
    Answer,
    QuerySetSizeControl,
    OverlapControl,
    Refusal,
    StatisticalDatabase,
    SumAuditPolicy,
    _env_int,
)
from ..qdb.parser import parse_query
from ..qdb.query import Query
from ..telemetry import instrument as tele
from ..telemetry import requesttrace
from ..telemetry.registry import MetricsRegistry
from ..faults.retry import emit_decision
from .admission import (
    ADMISSION_PREFIX,
    AdmissionController,
    OVERLOAD_COMPONENT,
    OVERLOAD_DECISION,
    REASON_QUEUE_FULL,
)
from .audit import CrossShardAuditPolicy, CrossShardAuditView
from .router import ConsistentHashRouter

__all__ = ["ServingRuntime"]

_STOP = object()

#: Called after every caller-run decision.  A caller-run thread never
#: blocks, so without a yield it keeps the GIL from one op to the next
#: until the interpreter's switch interval (5 ms) forces a hand-over,
#: and every other client thread and shard worker waits that long.
#: Giving up the CPU once per decision gives them the turn a worker
#: hand-off gave them by blocking on its future.  Without
#: ``os.sched_yield`` (Windows) the decision simply returns.
_yield_cpu = getattr(os, "sched_yield", lambda: None)


class _Request:
    """One enqueued unit of shard work (a parsed query or a PIR retrieval)."""

    __slots__ = ("session", "kind", "payload", "future", "trace")

    def __init__(self, session: str, kind: str, payload, future, trace=None):
        self.session = session
        self.kind = kind          # "qdb" | "pir"
        self.payload = payload
        self.future = future
        self.trace = trace        # RequestTrace | None (None when untraced)


class Shard:
    """One shard: a full-population engine, a PIR slice, a bounded queue."""

    def __init__(self, index: int, db: StatisticalDatabase, pir,
                 queue_depth: int, decision_lock, batch_max: int,
                 workers: int, metrics: MetricsRegistry):
        self.index = index
        self.db = db
        self.pir = pir
        self.queue: queue.Queue = queue.Queue(maxsize=queue_depth)
        # Any shard's worker may read this slice, so reads serialize here.
        self.pir_lock = threading.Lock()
        self.decision_lock = decision_lock
        self.batch_max = batch_max
        self.n_workers = workers
        self.threads: list[threading.Thread] = []
        self.c_processed = metrics.counter(f"serving.shard{index}.processed")
        self.c_refused = metrics.counter(f"serving.shard{index}.refused")
        self.c_pir = metrics.counter(f"serving.shard{index}.pir_positions")

    # -- worker loop -------------------------------------------------------

    def start(self) -> None:
        for worker in range(self.n_workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"serving-shard{self.index}-w{worker}",
                daemon=True,
            )
            thread.start()
            self.threads.append(thread)

    def _worker_loop(self) -> None:
        while True:
            first = self.queue.get()
            if first is _STOP:
                self.queue.task_done()
                return
            batch = [first]
            taken = 1
            stop_seen = False
            while taken < self.batch_max:
                try:
                    item = self.queue.get_nowait()
                except queue.Empty:
                    break
                taken += 1
                if item is _STOP:
                    stop_seen = True
                    break
                batch.append(item)
            # queue_wait ends at batch pickup.  One clock read covers
            # the whole batch — the drain above is non-blocking, so the
            # items left the queue microseconds apart, and a shared
            # timestamp keeps the traced path off the per-item
            # perf_counter + method-call cost the overhead gate bounds.
            now = None
            for item in batch:
                trace = item.trace
                if trace is not None:
                    if now is None:
                        now = time.perf_counter()
                    trace.dequeue = now
            try:
                self._process(batch)
            finally:
                for _ in range(taken):
                    self.queue.task_done()
            if stop_seen:
                return

    def _process(self, batch: list[_Request]) -> None:
        # Group consecutive runs of the same (kind, session) so tracker
        # sweeps and replayed logs flow through ask_batch in one call,
        # while preserving each session's submission order end to end.
        start = 0
        while start < len(batch):
            end = start + 1
            head = batch[start]
            while (end < len(batch)
                   and batch[end].kind == head.kind
                   and batch[end].session == head.session):
                end += 1
            self._run_group(batch[start:end])
            start = end

    def _run_group(self, group: list[_Request]) -> BaseException | None:
        """Run one same-session group; returns its failure, or None.

        A failure resolves the group's futures, so a worker never dies:
        requests answered before it keep their result and their one
        request span, and the rest resolve with the exception.
        """
        head = group[0]
        try:
            if head.kind == "qdb":
                self._run_qdb(head.session, group)
            else:
                self._run_pir(group)
        except BaseException as exc:  # engine bugs -> caller, not hang
            for request in group:
                if request.future.done():
                    continue
                request.future.set_exception(exc)
                if request.trace is not None:
                    request.trace.mark("done")
                    requesttrace.emit_request_span(
                        request.trace, outcome="error", reason=repr(exc)
                    )
            return exc
        return None

    # -- caller-run decisions ------------------------------------------------

    def try_decide_here(self, request: _Request) -> bool:
        """Decide a query on the calling thread if the shard is idle.

        The shard is idle when nothing is queued or running:
        ``unfinished_tasks`` counts both, because a worker marks a
        request done only after deciding it.  Raising it from 0 under
        the queue's own mutex claims the shard, so
        :meth:`ServingRuntime.drain` waits for the decision and every
        later submission queues behind it; the ``finally`` that
        releases the claim starts right after it is taken.  Returns
        False, having done nothing, when the shard is busy.

        An engine error resolves the future, as on a worker.  A
        ``BaseException`` that is not an ``Exception`` (a
        ``KeyboardInterrupt`` delivered to this thread) also propagates
        to the caller.
        """
        tasks = self.queue
        with tasks.mutex:
            if tasks.unfinished_tasks:
                return False
            tasks.unfinished_tasks = 1
        try:
            trace = request.trace
            if trace is not None:
                trace.queue_depth = 0
                trace.enqueue = trace.dequeue = time.perf_counter()
            failure = self._run_group([request])
        finally:
            tasks.task_done()
        if failure is not None and not isinstance(failure, Exception):
            raise failure
        return True

    def _run_qdb(self, session: str, group: list[_Request]) -> None:
        queries = [request.payload for request in group]
        traced = any(request.trace is not None for request in group)
        if traced:
            # The group shares one engine call, so its members reach
            # dispatch/lock/kernel at the same instant: one clock read
            # per boundary, stored straight into the trace slots.  One
            # trace id per query, in batch order, is queued for the
            # engine, which pops them as it processes so each qdb.query
            # span carries its own request's id even though the batch
            # shares one call.
            now = time.perf_counter()
            trace_ids = []
            for request in group:
                trace = request.trace
                if trace is not None:
                    trace.dispatch = now
                trace_ids.append(None if trace is None else trace.trace_id)
            requesttrace.push_pending(trace_ids)
        # The decision lock (the shared audit view's RLock, or a
        # per-shard lock when audits are isolated) is held across the
        # whole batch: policy review order is the privacy semantics.
        try:
            with self.decision_lock, self.db.session(session):
                if traced:
                    now = time.perf_counter()
                    for request in group:
                        if request.trace is not None:
                            request.trace.lock = now
                answers = self.db.ask_batch(queries)
        finally:
            if traced:
                requesttrace.clear_pending()
        if traced:
            now = time.perf_counter()
            for request in group:
                if request.trace is not None:
                    request.trace.kernel = now
        for request, answer in zip(group, answers):
            self.c_processed.inc()
            if answer.refused:
                self.c_refused.inc()
            trace = request.trace
            if trace is not None:
                trace.gather = time.perf_counter()
            if not request.future.done():
                request.future.set_result(answer)
            if trace is not None:
                trace.done = time.perf_counter()
                requesttrace.emit_request_span(
                    trace,
                    outcome="refused" if answer.refused else "answered",
                    reason=answer.reason if answer.refused else None,
                )

    def _run_pir(self, group: list[_Request]) -> None:
        # A worker holds one slice lock at a time, so the slice locks
        # need no order.  PIR never takes the decision lock; traced, its
        # audit stage is the wait for the first slice lock.
        ctx = requesttrace.TRACE_CONTEXT
        for request in group:
            parts, size, seed = request.payload
            trace = request.trace
            if trace is not None:
                trace.dispatch = time.perf_counter()
                # Tag every span the slice reads open with this trace.
                prev_tid = getattr(ctx, "tid", None)
                ctx.tid = trace.trace_id
            slices = []
            try:
                for owner, _, local_indices in parts:
                    with owner.pir_lock:
                        if trace is not None and not slices:
                            trace.lock = time.perf_counter()
                        slices.append(owner.pir.retrieve_batch_int(
                            local_indices, rng=seed))
                    owner.c_pir.inc(len(local_indices))
            finally:
                if trace is not None:
                    ctx.tid = prev_tid
            if trace is not None:
                trace.kernel = time.perf_counter()
            values: list[int | None] = [None] * size
            for (_, positions, _), got in zip(parts, slices):
                for position, value in zip(positions, got):
                    values[position] = value
            if trace is not None:
                trace.gather = time.perf_counter()
            request.future.set_result(values)
            if trace is not None:
                trace.done = time.perf_counter()
                requesttrace.emit_request_span(trace, outcome="answered")

    # -- lifecycle ---------------------------------------------------------

    def stop(self) -> None:
        for _ in self.threads:
            self.queue.put(_STOP)
        for thread in self.threads:
            thread.join()
        self.threads.clear()


class ServingRuntime:
    """A sharded, admission-controlled serving front end over the engine.

    Parameters
    ----------
    data:
        The population every shard answers over.
    shards:
        Shard count; default ``REPRO_SERVING_SHARDS`` (else 4).
    k:
        Query-set-size threshold installed on every shard.
    max_overlap / sum_audit:
        The stateful audit stack.  With ``shared_audit=True`` (default)
        these live once in the global :class:`CrossShardAuditView`;
        with ``shared_audit=False`` each shard gets isolated copies
        (the negative control — split trackers then succeed).
    queue_depth:
        Per-shard ingress queue bound; default
        ``REPRO_SERVING_QUEUE_DEPTH`` (else 64).
    batch_max / workers_per_shard:
        Dispatch batching limit and worker threads per shard.
    session_rate / session_burst / clock:
        Per-session token-bucket admission (None disables rate limits;
        ``clock`` injects a fake clock for deterministic tests).
    pir_values:
        Optional integer block values served via per-shard two-server
        XOR PIR, partitioned over shards by the block ring.
    backend_factory:
        Optional ``shard_index -> Dataset`` hook so chaos tests can give
        one shard a faulted :class:`~repro.faults.ReplicatedBackend`.
    auto_start:
        When False, workers start on the first explicit :meth:`start`,
        also inside a ``with`` block (lets tests fill queues to force
        backpressure); until then every query queues, none is decided
        on the calling thread.
    """

    def __init__(self, data, *, shards: int | None = None, k: int = 5,
                 max_overlap: int | None = None, sum_audit: bool = True,
                 shared_audit: bool = True, queue_depth: int | None = None,
                 batch_max: int = 16, workers_per_shard: int = 1,
                 session_rate: float | None = None,
                 session_burst: float | None = None, clock=None,
                 pir_values=None, seed: int = 0,
                 history_store: str | None = None, backend_factory=None,
                 auto_start: bool = True):
        if shards is None:
            shards = _env_int("REPRO_SERVING_SHARDS") or 4
        if queue_depth is None:
            queue_depth = _env_int("REPRO_SERVING_QUEUE_DEPTH") or 64
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.data = data
        self.n_shards = shards
        self.queue_depth = queue_depth
        self.shared_audit = shared_audit
        self.router = ConsistentHashRouter(shards)
        self.admission = AdmissionController(
            session_rate=session_rate, session_burst=session_burst,
            clock=clock,
        )
        self.metrics = MetricsRegistry(owner="serving")
        self._c_admitted = self.metrics.counter("serving.admitted")
        self._c_overload = self.metrics.counter("serving.overload_refusals")
        # Deterministic trace-id assignment: per-session sequence numbers
        # (never reset) + the 1-in-N REPRO_TRACE_SAMPLE knob.
        self._trace_seq: dict[str, int] = {}
        self._trace_lock = threading.Lock()
        self._trace_every = _env_int("REPRO_TRACE_SAMPLE") or 1

        self.view: CrossShardAuditView | None = None
        if shared_audit:
            self.view = CrossShardAuditView(
                data.n_rows, max_overlap=max_overlap, sum_audit=sum_audit,
                history_store=history_store,
            )

        # PIR blocks partition over the same ring, keyed "block:<g>".
        self._block_owner: list[tuple[int, int]] = []
        per_shard_values: dict[int, list[int]] = {}
        if pir_values is not None:
            for global_index, value in enumerate(pir_values):
                owner = self.router.shard_for(f"block:{global_index}")
                local = len(per_shard_values.setdefault(owner, []))
                per_shard_values[owner].append(int(value))
                self._block_owner.append((owner, local))

        self.shards: list[Shard] = []
        for index in range(shards):
            policies = [QuerySetSizeControl(k)]
            if shared_audit:
                policies.append(CrossShardAuditPolicy(self.view))
                decision_lock = self.view.lock
            else:
                if max_overlap is not None:
                    policies.append(OverlapControl(max_overlap))
                if sum_audit:
                    policies.append(SumAuditPolicy())
                decision_lock = threading.RLock()
            shard_data = backend_factory(index) if backend_factory else data
            db = StatisticalDatabase(
                shard_data, policies, seed=seed,
                history_store=None if shared_audit else history_store,
            )
            pir = None
            if per_shard_values.get(index):
                from ..pir.itpir import TwoServerXorPIR

                # One mask stream per slice: a retrieval passes its one
                # seed to every owning slice.
                pir = TwoServerXorPIR(per_shard_values[index], stream=index)
            self.shards.append(Shard(
                index, db, pir, queue_depth, decision_lock, batch_max,
                workers_per_shard, self.metrics,
            ))

        self._started = False
        self._lifecycle = threading.Lock()
        if auto_start:
            self.start()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Start the shard worker pools (idempotent)."""
        with self._lifecycle:
            if self._started:
                return
            for shard in self.shards:
                shard.start()
            self._started = True

    def drain(self) -> None:
        """Block until every enqueued request has been processed."""
        for shard in self.shards:
            shard.queue.join()

    def close(self) -> None:
        """Drain and stop all workers."""
        with self._lifecycle:
            if not self._started:
                return
            for shard in self.shards:
                shard.stop()
            self._started = False

    def __enter__(self):
        # The constructor already started the workers unless
        # ``auto_start=False``; a held-back runtime stays held back
        # inside the block until the caller's explicit start().
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # -- query path --------------------------------------------------------

    def shard_of(self, session: str) -> int:
        """The shard a session label routes to."""
        return self.router.shard_for(session)

    def submit(self, session: str, query: Query | str) -> Future:
        """Decide or enqueue one statistical query; resolves to an
        :class:`Answer`.

        When the session's shard is idle (nothing queued or running)
        on a started runtime, the query is decided here, on the calling
        thread, and the returned future is already resolved; otherwise
        it joins the shard's queue.  Either way a session's queries
        reach the engine in submission order, and :meth:`drain` waits
        for both.

        Overload resolves the future *immediately* with a typed
        :class:`Refusal` (reason prefixed ``"admission: "``) and emits
        the ``refuse-overload`` audit span — it never raises.

        >>> from repro.data.synthetic import patients
        >>> text = "SELECT COUNT(*) WHERE height > 170"
        >>> with ServingRuntime(patients(200, seed=0), shards=2) as rt:
        ...     future = rt.submit("alice", text)
        ...     future.done(), future.result() == rt.ask("alice", text)
        (True, True)
        """
        parsed = parse_query(query) if isinstance(query, str) else query
        shard = self.shards[self.router.shard_for(session)]
        future: Future = Future()
        trace = self._start_trace(session, "qdb", shard.index)
        reason = self.admission.admit(session)
        if reason is None:
            request = _Request(session, "qdb", parsed, future, trace)
            if self._started and shard.try_decide_here(request):
                self._c_admitted.inc()
                _yield_cpu()
                return future
            try:
                if trace is not None:
                    # len() of the underlying deque, not qsize(): taking
                    # the queue mutex here convoys with the workers
                    # draining it, and an observability attribute only
                    # needs an instantaneous (atomic-read) depth.
                    trace.queue_depth = len(shard.queue.queue)
                    trace.enqueue = time.perf_counter()
                shard.queue.put_nowait(request)
            except queue.Full:
                reason = REASON_QUEUE_FULL
        if reason is not None:
            if trace is not None:
                # Never entered a queue: the waterfall reports only the
                # admission check and the refusal emission.
                trace.enqueue = None
                trace.mark("refused")
            self._refuse_overload(session, shard.index, parsed, reason,
                                  future, trace)
            return future
        self._c_admitted.inc()
        return future

    def _start_trace(self, session: str, kind: str, shard: int):
        """Mint the request's trace context (None when untraced).

        The per-session sequence number always advances — sampling
        decides only whether a :class:`RequestTrace` is materialised —
        so trace ids are identical run to run for the same workload
        regardless of the sampling knob.
        """
        if not tele.enabled():
            return None
        with self._trace_lock:
            seq = self._trace_seq.get(session, 0) + 1
            self._trace_seq[session] = seq
        if (seq - 1) % self._trace_every:
            return None
        trace = requesttrace.RequestTrace(
            requesttrace.mint_trace_id(session, seq), session, kind, shard
        )
        trace.submit = time.perf_counter()
        return trace

    def ask(self, session: str, query: Query | str) -> Answer:
        """Blocking :meth:`submit`."""
        return self.submit(session, query).result()

    def _refuse_overload(self, session: str, shard: int, parsed: Query,
                         reason: str, future: Future, trace=None) -> None:
        self._c_overload.inc()
        detail = f"{reason} (session {session!r}, shard {shard})"
        if trace is not None:
            emit_decision(OVERLOAD_COMPONENT, OVERLOAD_DECISION, reason,
                          session=session, shard=shard,
                          trace_id=trace.trace_id)
        else:
            emit_decision(OVERLOAD_COMPONENT, OVERLOAD_DECISION, reason,
                          session=session, shard=shard)
        future.set_result(
            Refusal(parsed, reason=f"{ADMISSION_PREFIX}{detail}")
        )
        if trace is not None:
            trace.mark("done")
            requesttrace.emit_request_span(
                trace, outcome="refused-overload", reason=reason
            )

    # -- PIR path ----------------------------------------------------------

    @property
    def n_blocks(self) -> int:
        """Total PIR blocks across all shards."""
        return len(self._block_owner)

    def submit_pir(self, session: str, indices, seed=None) -> Future:
        """Enqueue a batched PIR retrieval on the session's shard.

        Resolves to the decoded values in request order.  The indices
        are grouped by owning slice here, and the session's shard
        worker reads every owning slice, each with ``rng=seed``, so a
        retrieval waits in its session's queue, never in the owning
        shards' queues.  Unlike :meth:`submit`, a full queue *blocks*
        and PIR is never refused: a refusal or a delay tied to the
        owning shards would leak which slices the requested indices
        live in.  An index outside ``[0, n_blocks)`` raises
        ``IndexError`` here, in the caller's thread.
        """
        if not self._block_owner:
            raise ValueError("runtime was built without pir_values")
        indices = list(indices)
        n_blocks = len(self._block_owner)
        per_shard: dict[int, tuple[list[int], list[int]]] = {}
        for position, global_index in enumerate(indices):
            if not 0 <= global_index < n_blocks:
                raise IndexError(
                    f"index {global_index} out of range [0, {n_blocks})"
                )
            owner, local = self._block_owner[global_index]
            positions, locals_ = per_shard.setdefault(owner, ([], []))
            positions.append(position)
            locals_.append(local)
        future: Future = Future()
        if not per_shard:
            future.set_result([])
            return future
        parts = [(self.shards[owner], positions, locals_)
                 for owner, (positions, locals_) in sorted(per_shard.items())]
        shard = self.shards[self.router.shard_for(session)]
        trace = self._start_trace(session, "pir", shard.index)
        if trace is not None:
            # Lock-free depth read, as in submit().
            trace.queue_depth = len(shard.queue.queue)
            trace.enqueue = time.perf_counter()
        shard.queue.put(_Request(
            session, "pir", (parts, len(indices), seed), future, trace,
        ))
        return future

    def retrieve_batch_int(self, session: str, indices,
                           seed=None) -> list[int]:
        """Blocking :meth:`submit_pir`, decoded ints in request order."""
        return self.submit_pir(session, list(indices), seed=seed).result()

    # -- introspection -----------------------------------------------------

    def distinct_shard_sessions(self, prefix: str, count: int) -> list[str]:
        """Session labels guaranteed to land on pairwise-distinct shards.

        Used by the split-tracker attack and the load generator's cohort
        to *prove* the attack crosses shards.  When the runtime has
        fewer shards than ``count`` the tail labels reuse shards (a
        1-shard runtime cannot split anything — and doesn't need to).
        """
        labels: list[str] = []
        used: set[int] = set()
        probe = 0
        while len(labels) < count and len(used) < self.n_shards:
            label = f"{prefix}-{probe}"
            probe += 1
            shard = self.router.shard_for(label)
            if shard in used:
                continue
            used.add(shard)
            labels.append(label)
        extra = 0
        while len(labels) < count:
            labels.append(f"{prefix}-extra-{extra}")
            extra += 1
        return labels

    def stats(self) -> dict:
        """Per-shard counters and queue depths, plus runtime totals."""
        shard_stats = []
        for shard in self.shards:
            shard_stats.append({
                "shard": shard.index,
                "processed": shard.c_processed.value,
                "refused": shard.c_refused.value,
                "pir_positions": shard.c_pir.value,
                "queue_depth": shard.queue.qsize(),
                "pir_blocks": shard.pir.n if shard.pir is not None else 0,
            })
        return {
            "shards": shard_stats,
            "n_shards": self.n_shards,
            "queue_depth": self.queue_depth,
            "shared_audit": self.shared_audit,
            "admitted": self._c_admitted.value,
            "overload_refusals": self._c_overload.value,
            "sessions_tracked": self.admission.sessions_tracked,
            "audit_answered": self.view.answered if self.view else None,
        }
