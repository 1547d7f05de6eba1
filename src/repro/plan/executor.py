"""Plan execution against a live engine: the planner and its runtime.

:class:`QueryPlanner` owns the compile → optimize → cache → execute
loop for one :class:`~repro.qdb.engine.StatisticalDatabase`, and its
:meth:`~QueryPlanner.decide` is the engine's only decision path.  It
runs each remaining check through its policy's own ``review`` and each
remaining transform through its policy's own ``transform``, in stack
order, so answers, refusal strings, history, counters and the rng
stream are exactly those of the per-policy pipeline; the speed it adds
is the plan cache, which skips compilation for repeated query shapes.
"""

from __future__ import annotations

from ..faults.errors import BackendUnavailable
from .compiler import compile_query, policy_signature
from .ir import Plan, PolicyCheck, Transform, explain
from .optimizer import optimize

__all__ = ["PlanRuntime", "QueryPlanner"]

_ENGINE = None


def _engine():
    """The qdb engine module, imported lazily to break the import cycle."""
    global _ENGINE
    if _ENGINE is None:
        from ..qdb import engine

        _ENGINE = engine
    return _ENGINE


class PlanRuntime:
    """A cached plan's execution lists (never part of the frozen plan):
    the stack indices of its checks and of its transforms, in order."""

    __slots__ = ("checks", "transforms")

    def __init__(self, plan: Plan):
        self.checks = tuple(
            node.index for node in plan.nodes if isinstance(node, PolicyCheck)
        )
        self.transforms = tuple(
            node.index for node in plan.nodes if isinstance(node, Transform)
        )


class QueryPlanner:
    """Compiles, caches and executes plans for one engine instance."""

    def __init__(self, db, cache: bool = True):
        self._db = db
        # Plan key -> (plan, runtime).  Unbounded: keys are workload
        # shapes, not queries, so a tracker session with thousands of
        # queries touches a few dozen of them.
        self._cache: dict | None = {} if cache else None
        self._sig_ids: tuple | None = None
        self._sig_policies: tuple = ()
        self._sig: tuple = ()
        #: Whether the most recent decide() hit the plan cache.
        self.last_cached = False

    @property
    def cache(self) -> dict | None:
        return self._cache

    def _signature(self, policies) -> tuple:
        """The stack's structural signature, memoized by object identity.

        Execution always reads parameters off the live policy objects at
        their stack indices, so in-place parameter mutation never stales
        a decision; the signature only has to change when the stack's
        *objects* change (swap, append, reorder), which the id tuple
        detects at a fraction of the cost of rebuilding the signature on
        every ask.  The memo holds the policies it was computed for: an
        id is unique only among live objects, so a freed policy's id
        could otherwise pass to a new policy and hand it the old stack's
        plans.
        """
        ids = tuple(map(id, policies))
        if ids != self._sig_ids:
            self._sig = policy_signature(policies)
            self._sig_ids = ids
            self._sig_policies = tuple(policies)
        return self._sig

    def plan_for(self, query) -> tuple[Plan, PlanRuntime]:
        """The optimized plan + runtime for *query*, cached by shape."""
        db = self._db
        key = (
            query.aggregate.value,
            query.column,
            query.predicate.cache_key(),
            self._signature(db.policies),
        )
        if self._cache is not None:
            entry = self._cache.get(key)
            if entry is not None:
                db._c_plan_hits.inc()
                self.last_cached = True
                return entry
            db._c_plan_misses.inc()
        self.last_cached = False
        plan = optimize(
            compile_query(query, db.policies, key=key), db.policies
        )
        entry = (plan, PlanRuntime(plan))
        if self._cache is not None:
            self._cache[key] = entry
        return entry

    def explain(self, query) -> str:
        """Pre/post-optimization rendering plus the cache key, with each
        policy type shown by its class name."""
        db = self._db
        before = compile_query(query, db.policies)
        after = optimize(before, db.policies)
        *shape, signature = before.key
        names = tuple((cls.__name__, name) for cls, name in signature)
        shown = (*shape, names)
        return "\n".join([
            explain(before, after),
            "",
            f"cache key: {shown!r}",
        ])

    def decide(self, query, mask):
        """Decide one query: checks, evaluation, transforms, history."""
        db = self._db
        eng = _engine()
        db._c_asked.inc()
        _, runtime = self.plan_for(query)
        policies = db.policies
        for index in runtime.checks:
            policy = policies[index]
            reason = policy.review(query, mask, db._data, db.history)
            if reason is not None:
                db._c_refused.inc()
                db._consume_degraded()  # don't leak onto the next answer
                db.history.record(eng.LogEntry(query, mask, False, None))
                return eng.Answer(
                    query, refused=True, reason=f"{policy.name}: {reason}"
                )
        try:
            answer = eng.Answer(
                query, value=query.evaluate_masked(db._data, mask)
            )
            for index in runtime.transforms:
                answer = policies[index].transform(
                    query, answer, mask, db._data, db._rng
                )
        except BackendUnavailable as exc:
            return db._backend_refusal(query, mask, exc)
        db.history.record(eng.LogEntry(query, mask, True, answer.value))
        if db._consume_degraded():
            db._c_degraded.inc()
            answer = eng.Degraded(
                answer.query, value=answer.value, interval=answer.interval,
                refused=answer.refused, reason=answer.reason,
                detail="storage replica failover during read",
            )
        return answer
