"""The interactive statistical database engine with protection policies.

The paper's Section 3 scenario: users submit statistical queries; the data
owner, who *sees every query* (hence no user privacy), applies inference
controls — restriction, perturbation or interval answers, the three
strategies the paper cites ([7] auditing, [14] noise, [16] camouflage) —
to protect respondents.

Policies are composable; each query passes every policy's review (which may
refuse) and then its transform (which may perturb or widen the answer).
"""

from __future__ import annotations

import abc
import os
import threading
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..data.table import Dataset
from ..faults.errors import BackendUnavailable
from ..kernels import (
    MemmapWordLog,
    RamWordLog,
    WordLogStore,
    pack_bool_rows,
    words_per_bits,
    words_to_packbits,
)
from ..data.rng import resolve_rng
from ..telemetry import instrument as tele
from ..telemetry import requesttrace
from ..telemetry.registry import MetricsRegistry
from .parser import parse_query
from .query import Aggregate, And, Not, Or, Query, TruePredicate


@lru_cache(maxsize=4096)
def _span_texts(query: Query) -> tuple[str, str, str]:
    """(query text, predicate text, aggregate name) for a ``qdb.query`` span.

    The predicate is rendered once and reused in both attributes: the
    ``predicate`` attribute is what the observatory's tracker-probe
    detector matches on (a WHERE-less query contributes the empty
    string), and the full query text is assembled around it rather than
    paying a second AST walk through ``str(query)``.  Queries are frozen
    dataclasses and real workloads repeat them (tracker sweeps, batch
    replays, cached predicates), so the whole rendering — including the
    enum-descriptor walk for the aggregate name — is memoized; the cache
    is bounded and keeps only strings alive, and it exists purely for
    the enabled-telemetry path (the disabled hot path never calls this).
    """
    if isinstance(query.predicate, TruePredicate):
        predicate_text = ""
        where = ""
    else:
        predicate_text = str(query.predicate)
        where = f" WHERE {predicate_text}"
    target = "*" if query.column is None else query.column
    aggregate = query.aggregate.value
    return f"SELECT {aggregate}({target}){where}", predicate_text, aggregate


def _env_int(name: str, *, minimum: int = 1) -> int | None:
    """A validated positive integer from the environment, or None if unset.

    Misconfiguration fails loudly at construction: a typo'd RAM budget
    silently falling back to a default is exactly the kind of drift a
    perf harness cannot see.
    """
    env = os.environ.get(name, "").strip()
    if not env:
        return None
    try:
        value = int(env)
    except ValueError:
        raise ValueError(
            f"{name} must be an integer >= {minimum}, got {env!r}"
        ) from None
    if value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {env!r}")
    return value


def _history_store_from_env() -> str:
    """The ``REPRO_QDB_HISTORY_STORE`` selection ('ram' default), validated."""
    kind = os.environ.get("REPRO_QDB_HISTORY_STORE", "").strip().lower()
    if not kind:
        return "ram"
    if kind not in ("ram", "memmap"):
        raise ValueError(
            f"REPRO_QDB_HISTORY_STORE must be 'ram' or 'memmap', got {kind!r}"
        )
    return kind


def _query_span_attrs(query, mask, depth, cache_hit, answer,
                      plan_stats=None, session=None, trace_id=None) -> dict:
    """Render a ``qdb.query`` span's attribute dict.

    This runs *deferred* (see :meth:`StatisticalDatabase._process`): the
    span parks a closure over these arguments and only calls it when some
    consumer — the trace buffer on read, a JSONL sink, an observatory
    subscriber — actually needs the record.  A buffered-only telemetry
    session therefore never pays for text rendering or the popcount on
    the per-query hot path.  ``answer`` is None when the decision raised
    before completing, matching the eager layout (base attributes only,
    plus the span's automatic ``error`` key).
    """
    query_text, predicate_text, aggregate = _span_texts(query)
    attrs = {
        "query": query_text,
        "predicate": predicate_text,
        "aggregate": aggregate,
        "query_set_size": int(np.count_nonzero(mask)),
        "history_depth": depth,
        "cache_hit": cache_hit,
    }
    if session is not None:
        attrs["session"] = session
    if trace_id is not None:
        attrs["trace_id"] = trace_id
    if answer is not None:
        attrs["refused"] = answer.refused
        attrs["degraded"] = isinstance(answer, Degraded)
        if answer.refused and answer.reason:
            policy_name, _, reason = answer.reason.partition(": ")
            attrs["policy"] = policy_name
            attrs["reason"] = reason
    if plan_stats:
        attrs.update(plan_stats)
    return attrs


@dataclass(frozen=True)
class Answer:
    """The database's reply to one query."""

    query: Query
    value: float | None = None
    interval: tuple[float, float] | None = None
    refused: bool = False
    reason: str | None = None

    @property
    def ok(self) -> bool:
        """True when the query was answered (point or interval)."""
        return not self.refused


@dataclass(frozen=True)
class Refusal(Answer):
    """A typed refusal — the engine declined to answer.

    Policy refusals carry ``reason = "<policy>: <why>"``; infrastructure
    refusals (every backend replica down) carry ``reason =
    "backend: <why>"`` so trace forensics can tell a privacy decision
    from an availability failure.  ``refused`` is always True.
    """

    refused: bool = True


@dataclass(frozen=True)
class Degraded(Answer):
    """An answered query that was served in a degraded mode.

    The value is correct — a storage replica failed and another served
    the read bit-identically — but the redundancy margin shrank, and
    operators should know.  ``detail`` says what degraded; the policy
    pipeline's output is otherwise untouched.
    """

    detail: str | None = None


@dataclass
class LogEntry:
    """Audit-trail record of an answered or refused query."""

    query: Query
    mask: np.ndarray
    answered: bool
    value: float | None


class PackedMaskLog:
    """Answered-query masks as one incrementally grown packed bit matrix.

    Each answered query set over ``n`` records occupies ``ceil(n / 64)``
    ``uint64`` words of one row, in the kernel tier's little-bit-order
    layout (record ``i`` lives at bit ``i & 63`` of word ``i >> 6``).
    Rows live in an amortized-doubling buffer, so appending a mask is
    O(n / 64) and the whole history stays contiguous —
    :class:`OverlapControl` intersects a candidate against *every*
    historical query set with one AND + word popcount pass on the active
    kernel backend instead of a Python loop over full boolean arrays.

    Word rows live in a pluggable :class:`~repro.kernels.WordLogStore`
    (``store="ram"``, the default, or ``store="memmap"`` for histories
    larger than RAM, scanned under an optional byte ``ram_budget``); the
    per-process default comes from ``REPRO_QDB_HISTORY_STORE`` /
    ``REPRO_QDB_HISTORY_BUDGET``, both validated loudly.  Popcounts stay
    in a small RAM array either way, and decisions are store-invariant.

    :attr:`rows` still exposes the history in the historical
    ``np.packbits`` byte layout for inspection and tests; the word matrix
    is internal.
    """

    def __init__(self, n_records: int, initial_capacity: int = 64,
                 store: str | WordLogStore | None = None,
                 ram_budget: int | None = None):
        self.n_records = n_records
        self.n_bytes = (n_records + 7) // 8
        self.n_words = words_per_bits(max(1, n_records))
        if store is None:
            store = _history_store_from_env()
        if isinstance(store, str):
            kind = store.strip().lower()
            if ram_budget is None:
                ram_budget = _env_int("REPRO_QDB_HISTORY_BUDGET")
            if kind == "ram":
                store = RamWordLog(self.n_words, initial_capacity)
            elif kind == "memmap":
                store = MemmapWordLog(self.n_words, initial_capacity,
                                      ram_budget=ram_budget)
            else:
                raise ValueError(
                    f"history store must be 'ram' or 'memmap', got {store!r}"
                )
        self._store = store
        self.store_kind = type(store).__name__
        self._counts = np.zeros(max(1, initial_capacity), dtype=np.int64)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def rows(self) -> np.ndarray:
        """Packed rows appended so far, oldest first, in the historical
        ``np.packbits`` uint8 layout."""
        return words_to_packbits(
            np.asarray(self._store.rows), self.n_records
        )

    @property
    def counts(self) -> np.ndarray:
        """Query-set sizes (popcounts) of the appended masks."""
        return self._counts[: self._size]

    def pack(self, mask: np.ndarray) -> np.ndarray:
        """Pack a boolean mask into this log's word-row layout."""
        return pack_bool_rows(
            np.asarray(mask, dtype=bool).reshape(1, -1)
        )[0]

    def append(self, mask: np.ndarray) -> None:
        """Append one answered query-set mask (boolean, length n_records)."""
        if self._size == self._counts.shape[0]:
            grown = np.empty(2 * self._size, dtype=np.int64)
            grown[: self._size] = self._counts
            self._counts = grown
        self._store.append(self.pack(mask))
        self._counts[self._size] = int(np.count_nonzero(mask))
        self._size += 1

    def overlaps(self, packed_candidate: np.ndarray,
                 start: int = 0, stop: int | None = None) -> np.ndarray:
        """|Q_i ∩ C| for the logged masks in ``[start, stop)``."""
        return self._store.overlap_counts(
            packed_candidate, start, self._size if stop is None else stop
        )


class QueryHistory(list):
    """The engine's audit trail: a ``list[LogEntry]`` plus packed state.

    Iteration, indexing and ``len`` behave exactly like the seed's plain
    list, so existing policies and tests are untouched; policies that know
    about the packed representation (``OverlapControl``) pick it up via
    the ``answered_masks`` attribute and skip the per-entry Python loop.

    Answered masks are packed on read: :meth:`record` only notes the
    mask, and reading ``answered_masks`` packs the masks recorded since
    the last read, oldest first.  A stack without an overlap scan never
    reads the log, so it never packs.  :attr:`n_answered` counts answered
    entries without packing.
    """

    def __init__(self, n_records: int,
                 store: str | WordLogStore | None = None,
                 ram_budget: int | None = None):
        super().__init__()
        self._packed = PackedMaskLog(
            n_records, store=store, ram_budget=ram_budget
        )
        self._unpacked: list[np.ndarray] = []

    @property
    def answered_masks(self) -> PackedMaskLog:
        """Every answered mask recorded so far, packed."""
        if self._unpacked:
            for mask in self._unpacked:
                self._packed.append(mask)
            self._unpacked.clear()
        return self._packed

    @property
    def n_answered(self) -> int:
        """Answered entries recorded so far."""
        return len(self._packed) + len(self._unpacked)

    def record(self, entry: LogEntry) -> None:
        """Append an entry; an answered mask is packed on the next read."""
        self.append(entry)
        if entry.answered:
            self._unpacked.append(entry.mask)


class ProtectionPolicy(abc.ABC):
    """One inference-control mechanism.

    Threat model (shared by every policy): the adversary is the
    *querying user*, who issues adaptively chosen aggregate queries to
    isolate individual respondents; the engine itself is trusted and
    evaluates on plaintext (which is why the paper scores query control
    as offering no user privacy).  Failure behaviour: policies never
    raise on privacy grounds — :meth:`review` returns a refusal reason
    (surfaced as a refused :class:`Answer` and audited in the history)
    and :meth:`transform` only perturbs or widens an already-permitted
    answer.
    """

    name: str = "abstract"

    def review(
        self,
        query: Query,
        mask: np.ndarray,
        data: Dataset,
        history: list[LogEntry],
    ) -> str | None:
        """Return a refusal reason, or None to allow the query."""
        return None

    def transform(
        self,
        query: Query,
        answer: Answer,
        mask: np.ndarray,
        data: Dataset,
        rng: np.random.Generator,
    ) -> Answer:
        """Optionally modify the outgoing answer."""
        return answer


class StatisticalDatabase:
    """An interactively queryable database guarded by policies.

    Parameters
    ----------
    data:
        The underlying microdata (never released directly).
    policies:
        Ordered protection policies.  An empty list reproduces the paper's
        unprotected baseline (no respondent, no user privacy).
    seed:
        Seed for stochastic policies (perturbation).
    history_store:
        Where the packed answered-mask log lives: ``"ram"`` (default)
        or ``"memmap"`` for out-of-core histories; ``None`` defers to
        ``REPRO_QDB_HISTORY_STORE``.
    """

    def __init__(
        self,
        data: Dataset,
        policies: list[ProtectionPolicy] | None = None,
        seed: int | None = 0,
        history_store: str | None = None,
    ):
        self._data = data
        self.policies = list(policies or [])
        self._rng = resolve_rng(seed)
        self.history: QueryHistory = QueryHistory(
            data.n_rows, store=history_store
        )
        self._mask_cache: dict[tuple, np.ndarray] = {}
        self._mask_bytes = 0
        # Always-on per-instance accounting on the telemetry counters API
        # (the seed's plain-int attributes survive as read-through
        # properties below).  The registry aggregates into the process
        # registry for dashboards and benchmark snapshots.
        self.metrics = MetricsRegistry(owner="qdb")
        self._c_asked = self.metrics.counter("qdb.queries_asked")
        self._c_refused = self.metrics.counter("qdb.queries_refused")
        self._c_cache_hits = self.metrics.counter("qdb.mask_cache_hits")
        self._c_cache_misses = self.metrics.counter("qdb.mask_cache_misses")
        self._c_backend_refusals = self.metrics.counter(
            "qdb.backend_refusals"
        )
        self._c_degraded = self.metrics.counter("qdb.degraded_answers")
        self._c_plan_hits = self.metrics.counter("qdb.plan_cache_hits")
        self._c_plan_misses = self.metrics.counter("qdb.plan_cache_misses")
        # Per-thread session label: concurrent serving threads each tag
        # their own spans without seeing each other's labels.
        self._session_ctx = threading.local()
        from ..plan import QueryPlanner  # lazy: breaks the import cycle

        self._planner = QueryPlanner()

    @property
    def n_records(self) -> int:
        """Number of records behind the interface."""
        return self._data.n_rows

    @property
    def session_label(self) -> str | None:
        """The calling thread's active session label (None outside one)."""
        return getattr(self._session_ctx, "label", None)

    @contextmanager
    def session(self, label: str):
        """Tag this thread's queries with a session label.

        Every ``qdb.query`` / ``qdb.ask_batch`` span opened by the
        calling thread inside the block carries ``session=label``, which
        is what the observatory service's per-session timelines group
        by.  Labels are per-thread and nestable (the inner label wins,
        the outer one is restored on exit); they have no effect when
        telemetry is disabled.

        >>> from repro.data.synthetic import patients
        >>> db = StatisticalDatabase(patients(40, seed=0))
        >>> with db.session("alice"):
        ...     db.session_label
        'alice'
        >>> db.session_label is None
        True
        """
        previous = self.session_label
        self._session_ctx.label = label
        try:
            yield self
        finally:
            self._session_ctx.label = previous

    @property
    def queries_asked(self) -> int:
        """Total queries submitted (read-through to the counter)."""
        return self._c_asked.value

    @property
    def queries_refused(self) -> int:
        """Total queries refused (read-through to the counter)."""
        return self._c_refused.value

    @property
    def mask_cache_hits(self) -> int:
        """Predicate-mask cache hits (read-through to the counter)."""
        return self._c_cache_hits.value

    @property
    def mask_cache_misses(self) -> int:
        """Predicate-mask cache misses (read-through to the counter)."""
        return self._c_cache_misses.value

    @property
    def backend_refusals(self) -> int:
        """Queries refused because the storage backend was unavailable."""
        return self._c_backend_refusals.value

    @property
    def plan_cache_hits(self) -> int:
        """Decisions that found the planner's stack memo current."""
        return self._c_plan_hits.value

    @property
    def plan_cache_misses(self) -> int:
        """Decisions that rebuilt the stack memo (a new stack)."""
        return self._c_plan_misses.value

    @property
    def degraded_answers(self) -> int:
        """Answers served after a backend replica failover."""
        return self._c_degraded.value

    #: Bound on the predicate-mask cache's total mask bytes.  One
    #: 800-query ``query_fresh`` round over 5000 records leaves at most
    #: 7.0 MB in a shard engine and 16.1 MB in one unsharded engine.
    _MASK_CACHE_MAX_BYTES = 32 << 20

    def predicate_mask(self, predicate) -> np.ndarray:
        """Memoized predicate mask (read-only; one walk per unique key).

        Memoization is per AST *node*, keyed on
        :meth:`~repro.qdb.query.Predicate.cache_key`: repeated workload
        queries hit at the root, while tracker pairs such as ``C OR T`` /
        ``C OR NOT T`` share the cached ``T`` sub-mask even though their
        roots differ.  Hit/miss totals are exposed as
        ``mask_cache_hits`` / ``mask_cache_misses`` for the benchmarks.
        The cache is emptied when the next mask would take it past
        ``_MASK_CACHE_MAX_BYTES``; a miss recomputes the same mask, and
        history entries keep their own references.
        """
        key = predicate.cache_key()
        mask = self._mask_cache.get(key)
        if mask is not None:
            self._c_cache_hits.inc()
            return mask
        self._c_cache_misses.inc()
        if isinstance(predicate, And):
            mask = self.predicate_mask(predicate.left) & self.predicate_mask(
                predicate.right
            )
        elif isinstance(predicate, Or):
            mask = self.predicate_mask(predicate.left) | self.predicate_mask(
                predicate.right
            )
        elif isinstance(predicate, Not):
            mask = ~self.predicate_mask(predicate.operand)
        else:
            mask = predicate.mask(self._data)
        mask.flags.writeable = False  # shared across history entries
        if self._mask_bytes + mask.nbytes > self._MASK_CACHE_MAX_BYTES:
            self._mask_cache.clear()
            self._mask_bytes = 0
        self._mask_cache[key] = mask
        self._mask_bytes += mask.nbytes
        return mask

    def _resolve_mask(
        self, query: Query
    ) -> tuple[np.ndarray | None, BackendUnavailable | None]:
        """Predicate mask, or the backend failure that prevented it."""
        try:
            return self.predicate_mask(query.predicate), None
        except BackendUnavailable as exc:
            return None, exc

    def _consume_degraded(self) -> bool:
        """Poll-and-clear the backend's failover flag (False if absent)."""
        consume = getattr(self._data, "consume_degraded", None)
        return bool(consume()) if consume is not None else False

    def _backend_refusal(
        self, query: Query, mask: np.ndarray | None, exc: BackendUnavailable
    ) -> Refusal:
        """Record and return a typed refusal for a backend blackout.

        Degrading gracefully instead of raising: the session stays alive,
        the refusal lands in the audit history (with an empty mask when
        the backend died before the mask existed), and the counters and
        ``faults.degrade`` telemetry emitted by the backend make the
        decision reconstructable from the trace.
        """
        self._c_refused.inc()
        self._c_backend_refusals.inc()
        self._consume_degraded()  # discard partial failover from failed read
        if mask is None:
            mask = np.zeros(self.n_records, dtype=bool)
        self._record(query, mask, False, None)
        return Refusal(query, reason=f"backend: {exc}")

    def _record(self, query: Query, mask: np.ndarray, answered: bool,
                value: float | None) -> None:
        """Append one decision to the audit history."""
        self.history.record(LogEntry(query, mask, answered, value))

    def _traced_mask_refusal(
        self, query: Query, exc: BackendUnavailable
    ) -> Refusal:
        """Backend refusal raised before a mask existed, as a traced span."""
        self._c_asked.inc()
        query_text, predicate_text, aggregate = _span_texts(query)
        session = self.session_label
        trace_id = requesttrace.pop_pending()
        with tele.span(
            "qdb.query",
            query=query_text,
            predicate=predicate_text,
            aggregate=aggregate,
            query_set_size=-1,
            history_depth=len(self.history),
            cache_hit=False,
        ) as span:
            if session is not None:
                span.set("session", session)
            if trace_id is not None:
                span.set("trace_id", trace_id)
            answer = self._backend_refusal(query, None, exc)
            span.set("refused", True)
            span.set("policy", "backend")
            span.set("reason", str(exc))
        tele.histogram("qdb.query_seconds").observe(span.duration)
        return answer

    def ask(self, query: Query | str) -> Answer:
        """Submit one query; returns an :class:`Answer`.

        Note the privacy model: the engine evaluates the query on plaintext
        data — the owner sees the query in full.  This is exactly why the
        paper scores query-controlled SDC as offering *no* user privacy.

        Failure behaviour: when the backing store is a
        :class:`~repro.faults.ReplicatedBackend` and every replica fails a
        read, the query returns a typed :class:`Refusal` (``reason``
        prefixed ``"backend:"``) instead of raising; a read served by
        failover returns a :class:`Degraded` answer with the correct
        value.  Plain :class:`Dataset` backends never take these paths.
        """
        if isinstance(query, str):
            query = parse_query(query)
        if not tele.enabled():
            mask, exc = self._resolve_mask(query)
            if mask is None:
                self._c_asked.inc()
                return self._backend_refusal(query, None, exc)
            return self._process(query, mask)
        hits_before = self._c_cache_hits.value
        mask, exc = self._resolve_mask(query)
        if mask is None:
            return self._traced_mask_refusal(query, exc)
        return self._process(
            query, mask, cache_hit=self._c_cache_hits.value > hits_before
        )

    def ask_batch(self, queries: list[Query | str]) -> list[Answer]:
        """Submit a workload of queries; returns one :class:`Answer` each.

        Masks are resolved through the predicate cache before any query is
        processed, so a batch with repeated predicates (tracker sweeps,
        replayed logs) pays one vectorized mask pass per *unique*
        predicate.  Policy review/transform then runs in submission order
        against the live audit state, which makes the answer and refusal
        sequence — including ``queries_asked`` / ``queries_refused`` and
        the history — identical to issuing the same queries through
        sequential :meth:`ask` calls.
        """
        parsed = [
            parse_query(q) if isinstance(q, str) else q for q in queries
        ]
        if not tele.enabled():
            resolved = [self._resolve_mask(q) for q in parsed]
            answers = []
            for q, (mask, exc) in zip(parsed, resolved):
                if mask is None:
                    self._c_asked.inc()
                    answers.append(self._backend_refusal(q, None, exc))
                else:
                    answers.append(self._process(q, mask))
            return answers
        session = self.session_label
        with tele.span("qdb.ask_batch", n_queries=len(parsed)) as span:
            if session is not None:
                span.set("session", session)
            resolved = []
            cache_hits = []
            for q in parsed:
                hits_before = self._c_cache_hits.value
                resolved.append(self._resolve_mask(q))
                cache_hits.append(self._c_cache_hits.value > hits_before)
            answers = []
            # One registry lookup for the whole batch, not one per query.
            latency = tele.histogram("qdb.query_seconds")
            for q, (mask, exc), hit in zip(parsed, resolved, cache_hits):
                if mask is None:
                    answers.append(self._traced_mask_refusal(q, exc))
                else:
                    answers.append(
                        self._process(q, mask, cache_hit=hit, latency=latency)
                    )
            span.set("refused", sum(a.refused for a in answers))
        return answers

    def _process(
        self, query: Query, mask: np.ndarray, cache_hit: bool | None = None,
        latency=None,
    ) -> Answer:
        """Run one parsed query with its precomputed mask through policy.

        With telemetry enabled, the decision is wrapped in a ``qdb.query``
        span carrying the query text, query-set size, session depth,
        mask-cache outcome, and — on refusal — the refusing policy's name
        and reason; latency feeds the ``qdb.query_seconds`` histogram.
        The attributes are *deferred*: the span parks one closure and
        :func:`_query_span_attrs` renders the dict only when a trace
        consumer reads the record, which is what keeps a live session
        inside the <10% enabled-overhead benchmark gate.
        """
        if not tele.enabled():
            return self._planner.decide(query, mask, self)
        depth = len(self.history)
        answer = None
        plan_stats: dict = {}
        session = self.session_label
        # The serving runtime queues one trace id per batched query; pop
        # ours (None outside the runtime) so the deferred attrs carry it.
        trace_id = requesttrace.pop_pending()
        with tele.span("qdb.query") as span:
            span.defer_attrs(
                lambda: _query_span_attrs(query, mask, depth, cache_hit,
                                          answer, plan_stats, session,
                                          trace_id)
            )
            answer = self._planner.decide(query, mask, self)
            # Captured eagerly (the deferred closure may render much
            # later, after other queries overwrote the planner state).
            plan_stats["plan_cached"] = self._planner.last_cached
        if latency is None:
            latency = tele.histogram("qdb.query_seconds")
        latency.observe(span.duration)
        return answer

    def explain(self, query: Query | str) -> str:
        """The checks and transforms the stack runs on *query*, in order,
        without running it."""
        if isinstance(query, str):
            query = parse_query(query)
        return self._planner.explain(query, self.policies)

    def true_answer(self, query: Query | str) -> float:
        """Evaluate without protection (test/bench oracle only)."""
        if isinstance(query, str):
            query = parse_query(query)
        return query.evaluate(self._data)


class QuerySetSizeControl(ProtectionPolicy):
    """Refuse queries whose query set is too small or too large.

    The classical first line of defence: |Q| must lie in [k, n - k].
    Schlörer [22] showed trackers defeat it — reproduced in
    :mod:`repro.qdb.tracker`: the threat model it actually resists is a
    *non-adaptive* user issuing isolating predicates directly.  Failure
    behaviour: pure refusal (review-only, never transforms an answer).
    """

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.name = f"size-control(k={k})"

    def review(self, query, mask, data, history):
        size = int(np.count_nonzero(mask))
        if size < self.k:
            return f"query set too small ({size} < {self.k})"
        if size > data.n_rows - self.k:
            return f"query set too large ({size} > n - {self.k})"
        return None


class SumAuditPolicy(ProtectionPolicy):
    """Exact auditing for linear aggregates (Chin–Ozsoyoglu [7]).

    Maintains the subspace spanned by answered query-set indicator vectors;
    a new query is refused when answering it would make some individual
    record's value exactly deducible — i.e. when some unit vector e_i
    enters the row space of the answered-query matrix.

    VARIANCE/STDDEV answers reveal a *pair* of linear statistics (Σx and
    Σx² over the query set), so they are audited in the same basis: a
    variance query whose query set would make a record's (x, x²) pair
    deducible is refused like the equivalent SUM.

    Threat model: an adaptive user combining *exact* answers linearly —
    the strongest query-only adversary against unperturbed statistics;
    the audit assumes answers are exact, which is why the storage layer
    rejects corrupted replica reads rather than serving them (DESIGN.md
    §7).  Failure behaviour: pure refusal; audit state only ever grows
    with *answered* queries, so refusals never change future decisions.

    The basis is maintained *incrementally*: each candidate row is
    orthogonalized against the existing orthonormal basis with one
    (re-orthogonalized) Gram–Schmidt step — O(H·n) per query instead of
    re-factorizing the whole stacked history (O(H²·n)) in both ``review``
    and ``transform``.  The projection is computed once in ``review`` and
    the resulting direction is committed by ``transform`` when the query
    is answered, so the per-query linear-algebra work is done exactly
    once.  Decisions match the seed's full-QR formulation: a unit vector
    e_i lies in the prospective row space iff the basis columns' squared
    norms (tracked incrementally in ``_col_norms``) reach 1 at index i.

    Review is a pure function of the mask and the basis, so outcomes are
    memoized for as long as the basis they were computed against: keyed
    on a 1-D boolean mask's *content* (its packed bits and length, never
    the array's identity, since a caller may mutate a mask in place),
    and emptied by ``_commit``, the only place the basis changes, and by
    a change of ``tolerance``.  Only outcomes that need no direction are
    stored — refusals, and approvals whose mask already lies in the span
    — so a hit never projects and the memo holds no float arrays; an
    approval that would extend the basis is recomputed until its commit.
    The keys are bounded by ``_MEMO_MAX_BYTES`` (n/8 bytes each): the
    memo is emptied when the next key would pass it.  A warm session
    that repeats its query sets at a stable rank reviews in the time of
    one ``packbits``; a session whose every answer grows the basis never
    hits and pays that one key build per review.
    """

    _LINEAR = (Aggregate.SUM, Aggregate.COUNT, Aggregate.AVG,
               Aggregate.VARIANCE, Aggregate.STDDEV)

    #: Bound on the review memo's total key bytes.
    _MEMO_MAX_BYTES = 4 << 20

    def __init__(self, tolerance: float = 1e-8):
        self.tolerance = tolerance
        self.name = "sum-audit"
        self._buffer: np.ndarray | None = None  # amortized-doubling rows
        self._rank = 0
        self._col_norms: np.ndarray | None = None  # Σ_r basis[r]² per column
        self._pending: tuple[np.ndarray, np.ndarray | None] | None = None
        # (n, packed mask bits) -> refusal reason or None, valid for the
        # current basis under ``_memo_tolerance``.
        self._memo: dict[tuple[int, bytes], str | None] = {}
        self._memo_bytes = 0
        self._memo_tolerance = tolerance

    @property
    def _basis(self) -> np.ndarray | None:
        """Orthonormal rows spanning the answered query-set indicators."""
        if self._rank == 0:
            return None
        return self._buffer[: self._rank]

    def _new_direction(self, mask: np.ndarray) -> np.ndarray | None:
        """Unit vector extending the basis to cover *mask*, or None.

        One classical-Gram–Schmidt projection, applied twice for the
        numerical robustness of the textbook "twice is enough" rule; the
        residual-norm threshold reproduces the seed's ``|diag(r)| >
        tolerance`` column-keep criterion.
        """
        residual = mask.astype(np.float64)
        basis = self._basis
        if basis is not None:
            residual = residual - basis.T @ (basis @ residual)
            residual = residual - basis.T @ (basis @ residual)
        norm = float(np.linalg.norm(residual))
        if norm <= self.tolerance:
            return None
        return residual / norm

    def _commit(self, direction: np.ndarray) -> None:
        """Append an orthonormal row and update the column-norm profile."""
        self._clear_memo()  # every stored outcome assumed the old basis
        n = direction.shape[0]
        if self._buffer is None:
            self._buffer = np.zeros((16, n), dtype=np.float64)
            self._col_norms = np.zeros(n, dtype=np.float64)
        elif self._rank == self._buffer.shape[0]:
            # Rows past the rank are never read: copy only the live ones.
            grown = np.empty((2 * self._rank, n), dtype=np.float64)
            grown[: self._rank] = self._buffer
            self._buffer = grown
        self._buffer[self._rank] = direction
        self._rank += 1
        self._col_norms += direction * direction

    def _clear_memo(self) -> None:
        """Forget every stored review outcome."""
        self._memo.clear()
        self._memo_bytes = 0

    def review(self, query, mask, data, history):
        if query.aggregate not in self._LINEAR:
            return None
        if self.tolerance != self._memo_tolerance:
            self._clear_memo()
            self._memo_tolerance = self.tolerance
        key = None
        if mask.ndim == 1 and mask.dtype == np.bool_:
            key = (mask.shape[0], np.packbits(mask).tobytes())
            if key in self._memo:
                reason = self._memo[key]
                # An approval hit is in the span (direction None); after a
                # refusal hit a direct transform recomputes the direction.
                self._pending = (mask, None) if reason is None else None
                return reason
        direction = self._new_direction(mask)
        # Share the projection with transform: keyed on the mask object so
        # a direct transform call with a different mask recomputes.
        self._pending = (mask, direction)
        reason = self._refusal(mask, direction)
        # Store only what needs no direction: refusals, in-span approvals.
        if key is not None and (direction is None or reason is not None):
            size = len(key[1])
            if self._memo_bytes + size > self._MEMO_MAX_BYTES:
                self._clear_memo()
            if size <= self._MEMO_MAX_BYTES:
                self._memo[key] = reason
                self._memo_bytes += size
        return reason

    def _refusal(self, mask: np.ndarray,
                 direction: np.ndarray | None) -> str | None:
        """The refusal for *mask* given its basis extension, or None."""
        if self._rank == 0 and direction is None:
            return None  # empty query set, empty basis: nothing disclosed
        proj_norms = (
            self._col_norms if self._col_norms is not None
            else np.zeros(mask.shape[0], dtype=np.float64)
        )
        if direction is not None:
            proj_norms = proj_norms + direction * direction
        # e_i lies in the prospective row space iff its projection has
        # norm 1.
        if bool(np.any(proj_norms >= 1.0 - self.tolerance)):
            return "answer would make an individual record deducible"
        return None

    def transform(self, query, answer, mask, data, rng):
        if answer.ok and query.aggregate in self._LINEAR:
            if self._pending is not None and self._pending[0] is mask:
                direction = self._pending[1]
            else:  # transform called without a matching review
                direction = self._new_direction(mask)
            if direction is not None:
                self._commit(direction)
        self._pending = None
        return answer


class RandomSampleQueries(ProtectionPolicy):
    """Denning's random-sample-queries control (1980).

    Each answer is computed on a pseudo-random subsample of the query set
    and rescaled.  The sample is a *deterministic* function of the query
    set (hashed), so repeating a query cannot average the sampling error
    away, yet two different paddings of a tracker pair sample different
    records — breaking the tracker's exact arithmetic.

    Threat model: the tracker-equipped adaptive user; resistance is
    statistical (estimates survive, exact isolation does not).  Failure
    behaviour: transform-only — answers are biased estimates, never
    refused by this policy.
    """

    def __init__(self, sample_fraction: float = 0.9, seed: int = 0):
        if not 0.0 < sample_fraction <= 1.0:
            raise ValueError("sample_fraction must be in (0, 1]")
        self.sample_fraction = sample_fraction
        self.seed = seed
        self.name = f"random-sample(f={sample_fraction:g})"

    def _sample_mask(self, mask: np.ndarray) -> np.ndarray:
        indices = np.flatnonzero(mask)
        # CRC32 over the packed mask bytes, seeded with the policy seed:
        # O(n/8) (no Python tuple of indices) and stable across processes
        # and interpreter configurations (unlike hash(), which varies with
        # PYTHONHASHSEED).
        packed = np.packbits(np.asarray(mask, dtype=bool))
        digest = zlib.crc32(packed.tobytes(), self.seed & 0xFFFFFFFF)
        digest &= 0x7FFFFFFF
        local = np.random.default_rng(digest)
        keep = local.random(indices.size) < self.sample_fraction
        sampled = np.zeros_like(mask)
        sampled[indices[keep]] = True
        return sampled

    def transform(self, query, answer, mask, data, rng):
        if not answer.ok or answer.value is None:
            return answer
        agg = query.aggregate
        supported = (Aggregate.COUNT, Aggregate.SUM, Aggregate.AVG)
        if agg not in supported:
            return answer
        sampled = self._sample_mask(mask)
        if agg is Aggregate.COUNT:
            value = float(sampled.sum()) / self.sample_fraction
            return Answer(answer.query, value=round(value))
        values = data.column(query.column)[sampled].astype(np.float64)
        if values.size == 0:
            return Answer(answer.query, value=float("nan"))
        if agg is Aggregate.SUM:
            return Answer(
                answer.query, value=float(values.sum()) / self.sample_fraction
            )
        return Answer(answer.query, value=float(values.mean()))


class OverlapControl(ProtectionPolicy):
    """Dobkin–Jones–Lipton-style overlap restriction.

    Refuses a query when its query set shares more than ``max_overlap``
    records with some previously *answered* query set — the classical
    response to difference attacks, cheaper than exact auditing but
    coarser (it also refuses many harmless queries).

    Overlaps against the whole answered history are computed in one
    word-level AND + popcount pass over the engine's packed audit state
    (:class:`PackedMaskLog`) on the active kernel backend, chunked so a
    violating early query set short-circuits the scan; a plain ``list``
    history falls back to the per-entry loop.  Refusal decisions (and
    messages) are *chunk-invariant* and identical to the seed's loop:
    the scan preserves history order for any chunk size, so the first
    answered query set whose overlap exceeds the threshold is always
    the one reported.

    The chunk size (:attr:`_CHUNK`) trades early-exit granularity
    against per-call overhead; its value comes from the
    ``benchmarks/bench_overlap_chunk.py`` sweep.

    Threat model: the difference attacker (query pairs isolating a
    record by subtraction).  Failure behaviour: pure refusal, judged
    against answered history only.
    """

    # History rows per popcount pass (early-exit granularity): the
    # bench_overlap_chunk.py sweep's no-hit winner at H=2000 on the cext
    # backend; early-hit scans stay sub-millisecond at this size.
    _CHUNK = 2048

    def __init__(self, max_overlap: int):
        if max_overlap < 0:
            raise ValueError("max_overlap must be >= 0")
        self.max_overlap = max_overlap
        self.name = f"overlap-control(r={max_overlap})"

    def _review_packed(self, mask, log: PackedMaskLog):
        if int(np.count_nonzero(mask)) <= self.max_overlap:
            return None  # |Q ∩ C| <= |C| can never exceed the threshold
        packed = log.pack(mask)
        chunk = self._CHUNK
        for start in range(0, len(log), chunk):
            stop = min(start + chunk, len(log))
            overlaps = log.overlaps(packed, start, stop)
            hits = overlaps > self.max_overlap
            if hits.any():
                overlap = int(overlaps[int(np.argmax(hits))])
                return (
                    f"query set overlaps a previous one in {overlap} "
                    f"records (> {self.max_overlap})"
                )
        return None

    def review(self, query, mask, data, history):
        log = getattr(history, "answered_masks", None)
        if log is not None:
            return self._review_packed(mask, log)
        for entry in history:
            if not entry.answered:
                continue
            overlap = int(np.sum(mask & entry.mask))
            if overlap > self.max_overlap:
                return (
                    f"query set overlaps a previous one in {overlap} "
                    f"records (> {self.max_overlap})"
                )
        return None


class NoisePerturbation(ProtectionPolicy):
    """Additive output noise (Duncan–Mukherjee [14]) to deter trackers.

    Threat model: the adaptive tracker user — noise denies the exact
    arithmetic difference attacks need, at the cost of answer utility.
    Failure behaviour: transform-only; answers are perturbed, never
    refused, and the perturbation is drawn from the engine's seeded rng
    (so sessions replay deterministically).
    """

    def __init__(self, sd: float = 1.0, kind: str = "gaussian"):
        if sd < 0:
            raise ValueError("sd must be non-negative")
        if kind not in ("gaussian", "laplace"):
            raise ValueError("kind must be gaussian or laplace")
        self.sd = float(sd)
        self.kind = kind
        self.name = f"perturbation(sd={sd:g})"

    def transform(self, query, answer, mask, data, rng):
        if not answer.ok or answer.value is None or self.sd == 0:
            return answer
        if self.kind == "gaussian":
            noise = float(rng.normal(0.0, self.sd))
        else:
            noise = float(rng.laplace(0.0, self.sd / np.sqrt(2.0)))
        value = answer.value + noise
        if query.aggregate is Aggregate.COUNT:
            value = max(0.0, round(value))
        return Answer(answer.query, value=value)


class CamouflageIntervals(ProtectionPolicy):
    """Interval answers in the spirit of confidentiality-via-camouflage [16].

    Instead of the exact statistic, the user receives an interval
    guaranteed to contain it: the range the statistic takes over all
    subsets of the query set obtained by deleting up to ``k`` records.
    A COUNT of c becomes [max(0, c-k), c]; a SUM sheds its k largest /
    smallest contributions; AVG is recomputed on trimmed sets.

    Threat model: a user differencing exact answers — intervals make
    record-level deduction ambiguous by construction.  Failure
    behaviour: transform-only; every query is answered, as an interval
    guaranteed to contain the true statistic.
    """

    def __init__(self, k: int = 2):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.name = f"camouflage(k={k})"

    def transform(self, query, answer, mask, data, rng):
        if not answer.ok or answer.value is None:
            return answer
        size = int(mask.sum())
        drop = min(self.k, size)
        agg = query.aggregate
        if agg is Aggregate.COUNT:
            lo, hi = max(0.0, answer.value - drop), answer.value
        elif agg in (Aggregate.SUM, Aggregate.AVG):
            values = np.sort(
                data.column(query.column)[mask].astype(np.float64)
            )
            if values.size == 0:
                return answer
            if agg is Aggregate.SUM:
                lo = answer.value - float(values[-drop:].sum()) if drop else answer.value
                hi = answer.value - float(values[:drop].sum()) if drop else answer.value
                lo, hi = min(lo, hi), max(lo, hi)
            else:
                trims = [values]
                for d in range(1, drop + 1):
                    trims.append(values[d:])
                    trims.append(values[:-d] if d < values.size else values[:1])
                means = [float(t.mean()) for t in trims if t.size]
                lo, hi = min(means), max(means)
        else:
            return Answer(
                answer.query, refused=True,
                reason=f"{self.name}: {agg.value} not supported by camouflage",
            )
        return Answer(answer.query, value=None, interval=(lo, hi))
