"""Compile a query + policy stack into an (unoptimized) :class:`Plan`.

The compiled form is the per-policy pipeline spelled out node by node:
scan the predicate mask, run every policy's review in stack order,
evaluate the aggregate, run every policy's transform in stack order,
answer.  The optimizer (:mod:`repro.plan.optimizer`) prunes the no-op
nodes; the executor (:mod:`repro.plan.executor`) runs either form with
identical decisions, each check through its policy's own ``review``.

Plans are cached under a *normalized structural key*: the aggregate,
the target column, the predicate's structural
:meth:`~repro.qdb.query.Predicate.cache_key`, and the policy stack's
signature (type and display name of each policy).  Two queries with
equal keys compile to the same plan, so repeated tracker shapes skip
compilation entirely.
"""

from __future__ import annotations

from ..qdb.engine import ProtectionPolicy
from ..qdb.query import Query, TruePredicate
from .ir import (
    AnswerSink,
    Evaluate,
    Plan,
    PolicyCheck,
    RefuseSink,
    ScanMask,
    Transform,
)

__all__ = ["compile_query", "plan_key", "policy_signature"]


def policy_signature(policies) -> tuple:
    """Structural signature of a policy stack, for plan-cache keying.

    A cached plan's *structure* depends on each policy's concrete type
    (which nodes pruning drops) and display name (which encodes the
    constructor parameters and labels the nodes).  The type itself is
    keyed, not its name: a subclass named like its base may add a
    ``review`` or ``transform`` the base's plan prunes.  Execution reads
    everything else off the live policy objects at their stack indices,
    so neither parameters mutated in place nor audit state ever need to
    appear in the key.
    """
    return tuple((type(policy), policy.name) for policy in policies)


def plan_key(query: Query, policies) -> tuple:
    """The normalized cache key for *query* under *policies*."""
    return (
        query.aggregate.value,
        query.column,
        query.predicate.cache_key(),
        policy_signature(policies),
    )


def has_review(policy) -> bool:
    """True when the policy overrides :meth:`ProtectionPolicy.review`."""
    return type(policy).review is not ProtectionPolicy.review


def has_transform(policy) -> bool:
    """True when the policy overrides :meth:`ProtectionPolicy.transform`."""
    return type(policy).transform is not ProtectionPolicy.transform


def compile_query(query: Query, policies, key: tuple | None = None) -> Plan:
    """The unoptimized plan: one node per pipeline step, in stack order."""
    predicate_text = (
        "" if isinstance(query.predicate, TruePredicate)
        else str(query.predicate)
    )
    nodes = [ScanMask(predicate_text)]
    for index, policy in enumerate(policies):
        nodes.append(PolicyCheck(index, policy.name))
    nodes.append(Evaluate(query.aggregate.value, query.column))
    for index, policy in enumerate(policies):
        nodes.append(Transform(index, policy.name))
    nodes.append(AnswerSink())
    nodes.append(RefuseSink())
    return Plan(
        title=str(query),
        nodes=tuple(nodes),
        key=plan_key(query, policies) if key is None else key,
    )
