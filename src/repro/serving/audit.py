"""Cross-shard audit consistency: one shared overlap/sum-audit view.

Why sharding threatens the audit.  The engine's inference controls are
*stateful*: the sum audit refuses a query when its answer, combined with
every previously answered query, would make an individual record
deducible.  If each shard audited only its own history, an attacker
could split the Schlörer tracker across two sessions — padding query
``q(C1)`` through a session on shard A, tracker ``q(C1 AND NOT C2)``
through a session on shard B — and each shard would see an innocent
half.  Wang et al.'s inferential-privacy analysis (PAPERS.md) is
exactly this observation: disclosure composes across queries, so the
audit state must compose across whatever topology serves them.

The fix is a single :class:`CrossShardAuditView` shared by every shard:
a global answered-query history plus the shared stateful policies
(overlap control, sum audit), guarded by one re-entrant decision lock.
Each shard's engine carries a :class:`CrossShardAuditPolicy` adapter
that reviews candidates against the *global* state and commits answered
masks back to it, so the N-shard runtime's refusal decisions are
*decision-identical* to a single engine auditing the same total order
of queries — the equivalence the serving tests and the chaos gate's
split-tracker invariant assert.

Lock protocol: the shard worker holds :attr:`CrossShardAuditView.lock`
(re-entrant) across each ``ask_batch`` call, which serializes policy
decisions globally and keeps each query's review→transform pair atomic.
The audit history was always a serialized decision log — review order
*is* the privacy semantics — so concurrency lives in everything around
the decision: parsing, mask resolution caches per shard, PIR
retrievals, admission, telemetry.

Threat model: the adaptive querying user who splits a composed attack
across sessions, shards, or connections; the shards themselves are
trusted (they are one owner's infrastructure).  Failure behaviour: pure
refusal through the normal policy path — the adapter never raises on
privacy grounds, and a backend-refused query commits nothing, so a
faulted shard cannot poison the shared audit state.
"""

from __future__ import annotations

import threading

from ..qdb.engine import (
    LogEntry,
    OverlapControl,
    ProtectionPolicy,
    QueryHistory,
    SumAuditPolicy,
)

__all__ = ["CrossShardAuditPolicy", "CrossShardAuditView"]


class CrossShardAuditView:
    """The globally shared audit state all shards review against.

    Parameters
    ----------
    n_records:
        Population size (the shared history's mask width).
    max_overlap:
        When set, a global :class:`~repro.qdb.engine.OverlapControl`
        with this threshold joins the shared stack.
    sum_audit:
        When True (default), a global
        :class:`~repro.qdb.engine.SumAuditPolicy` joins the shared
        stack — the policy that catches split trackers.
    history_store:
        Backing store for the shared packed history (``"ram"`` or
        ``"memmap"``; None defers to ``REPRO_QDB_HISTORY_STORE``).
    """

    def __init__(self, n_records: int, *, max_overlap: int | None = None,
                 sum_audit: bool = True,
                 history_store: str | None = None):
        #: The global decision lock: shard workers hold it across each
        #: ``ask_batch`` so cross-shard decisions form one total order.
        self.lock = threading.RLock()
        self.n_records = n_records
        self.history = QueryHistory(n_records, store=history_store)
        self.policies: list[ProtectionPolicy] = []
        if max_overlap is not None:
            self.policies.append(OverlapControl(max_overlap))
        if sum_audit:
            self.policies.append(SumAuditPolicy())

    def review(self, query, mask, data) -> str | None:
        """First refusing shared policy's ``"<policy>: <why>"``, or None."""
        with self.lock:
            for policy in self.policies:
                reason = policy.review(query, mask, data, self.history)
                if reason is not None:
                    return f"{policy.name}: {reason}"
        return None

    def commit(self, query, answer, mask, data, rng):
        """Run the shared transforms and record the answered mask globally."""
        with self.lock:
            for policy in self.policies:
                answer = policy.transform(query, answer, mask, data, rng)
            if answer.ok:
                self.history.record(LogEntry(query, mask, True, answer.value))
        return answer

    @property
    def answered(self) -> int:
        """Answered queries committed to the shared history."""
        with self.lock:
            return self.history.n_answered


class CrossShardAuditPolicy(ProtectionPolicy):
    """Per-shard adapter delegating review/transform to the shared view.

    Installed last in each shard's policy stack, where the shard's
    planner runs it as one check and one transform: its ``review`` and
    ``transform`` delegate to the shared view.  Refusal reasons surface
    as ``"cross-shard-audit: <shared policy>: <why>"``.
    """

    name = "cross-shard-audit"

    def __init__(self, view: CrossShardAuditView):
        self.view = view

    def review(self, query, mask, data, history):
        return self.view.review(query, mask, data)

    def transform(self, query, answer, mask, data, rng):
        return self.view.commit(query, answer, mask, data, rng)
