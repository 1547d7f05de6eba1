"""Decide a query by the policy stack.

Which policies review a query and which transform its answer depends on
the stack alone: the policies whose type overrides
:meth:`~repro.qdb.engine.ProtectionPolicy.review`, and those whose type
overrides :meth:`~repro.qdb.engine.ProtectionPolicy.transform`, in stack
order.  The base methods decide nothing and change nothing, so skipping
them changes no decision.  :class:`QueryPlanner` keeps those two lists
for one engine and :meth:`QueryPlanner.decide` runs them: every check
through its policy's own ``review``, every transform through its
policy's own ``transform``.  Nothing in the query enters the lists, so
nothing is kept per query.

``repro qdb explain "<query>"`` prints the two lists for a stack.
"""

from __future__ import annotations

from ..faults.errors import BackendUnavailable
from ..qdb.engine import Answer, Degraded, ProtectionPolicy

__all__ = ["QueryPlanner"]


def _stack_lists(policies) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The stack indices of the policies that review and that transform.

    Decided by type, not by name: a subclass named like its base may add
    the ``review`` or ``transform`` the base lacks.
    """
    checks = tuple(
        i for i, policy in enumerate(policies)
        if type(policy).review is not ProtectionPolicy.review
    )
    transforms = tuple(
        i for i, policy in enumerate(policies)
        if type(policy).transform is not ProtectionPolicy.transform
    )
    return checks, transforms


class QueryPlanner:
    """Decides queries for one engine from a memo of its policy stack.

    The memo holds the stack's object ids, the policies themselves and
    their check and transform indices, and is rebuilt only when the ids
    change (a swap, append or reorder).  Parameters are read off the live
    policies at decision time, so an in-place change such as a new
    threshold reaches the next decision without a rebuild.  The memo
    keeps its policies alive because an id is unique only among live
    objects: a new policy could otherwise reuse a freed one's id and be
    given the old stack's lists.  The planner holds no reference to its
    engine, which passes itself to :meth:`decide`, so a dropped engine
    is freed by reference counting.
    """

    __slots__ = ("_memo", "last_cached")

    def __init__(self):
        #: (ids, policies, check indices, transform indices), replaced
        #: whole so a concurrent reader never sees a torn memo.
        self._memo: tuple = (None, (), (), ())
        #: Whether the most recent decide() found the memo current.
        self.last_cached = False

    def _lists(self, db) -> tuple:
        """The memo for *db*'s current stack, counting a hit or a miss."""
        policies = db.policies
        ids = tuple(map(id, policies))
        memo = self._memo
        if ids == memo[0]:
            db._c_plan_hits.inc()
            self.last_cached = True
            return memo
        db._c_plan_misses.inc()
        self.last_cached = False
        memo = (ids, tuple(policies), *_stack_lists(policies))
        self._memo = memo
        return memo

    def explain(self, query, policies) -> str:
        """The checks and transforms *policies* run on *query*, in order,
        each policy shown by its display name and class name."""
        checks, transforms = _stack_lists(policies)

        def listed(indices):
            return [
                f"  [{i}] {policies[i].name} ({type(policies[i]).__name__})"
                for i in indices
            ] or ["  (none)"]

        return "\n".join([
            f"query: {query}",
            "checks, in stack order (the first refusal decides):",
            *listed(checks),
            "transforms, in stack order (on an answered query):",
            *listed(transforms),
        ])

    def decide(self, query, mask, db):
        """Decide one query on *db*: checks, evaluation, transforms and
        the history record."""
        db._c_asked.inc()
        _, policies, checks, transforms = self._lists(db)
        for index in checks:
            policy = policies[index]
            reason = policy.review(query, mask, db._data, db.history)
            if reason is not None:
                db._c_refused.inc()
                db._consume_degraded()  # don't leak onto the next answer
                db._record(query, mask, False, None)
                return Answer(
                    query, refused=True, reason=f"{policy.name}: {reason}"
                )
        try:
            answer = Answer(query, value=query.evaluate_masked(db._data, mask))
            for index in transforms:
                answer = policies[index].transform(
                    query, answer, mask, db._data, db._rng
                )
        except BackendUnavailable as exc:
            return db._backend_refusal(query, mask, exc)
        db._record(query, mask, True, answer.value)
        if db._consume_degraded():
            db._c_degraded.inc()
            answer = Degraded(
                answer.query, value=answer.value, interval=answer.interval,
                refused=answer.refused, reason=answer.reason,
                detail="storage replica failover during read",
            )
        return answer
