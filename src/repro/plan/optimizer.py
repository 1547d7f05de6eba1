"""Optimizer passes over the plan IR.

Two explicit passes, each a pure plan-to-plan rewrite (DESIGN.md §10
carries the legality arguments in full):

``prune-noop-nodes``
    Drop :class:`PolicyCheck` nodes whose policy inherits the base
    no-op ``review`` (transform-only policies: noise, sampling,
    camouflage) and :class:`Transform` nodes whose policy inherits the
    base no-op ``transform`` (review-only policies: size control,
    overlap control).  Legal because the base methods are side-effect
    free and decision-free.

``coalesce-pir-fetches``
    Replace every :class:`PirFetch` in the plan with one
    :class:`FusedPirFetch` at the first fetch's position: blocks are
    deduplicated in first-occurrence order and fetched in a single
    ``retrieve_batch`` round; a routing table rebuilds each original
    fetch's results exactly.  Legal because PIR reconstruction is
    exact for every retrieved index regardless of the randomness
    consumed, so merging fetches changes traffic, never values.

Audit checks are never rewritten: each policy's own ``review`` is the
only code that decides its check.  ``optimize`` applies the passes in
that order and records the ones that actually changed the plan in
``Plan.passes``.
"""

from __future__ import annotations

from .compiler import has_review, has_transform
from .ir import (
    FusedPirFetch,
    PirFetch,
    Plan,
    PlanNode,
    PolicyCheck,
    Transform,
)

__all__ = [
    "PASS_COALESCE_PIR",
    "PASS_PRUNE_NOOP",
    "coalesce_pir_fetches",
    "optimize",
    "prune_noop_nodes",
]

PASS_PRUNE_NOOP = "prune-noop-nodes"
PASS_COALESCE_PIR = "coalesce-pir-fetches"


def prune_noop_nodes(nodes: tuple[PlanNode, ...],
                     policies) -> tuple[PlanNode, ...]:
    """Drop checks/transforms that inherit the base class no-ops."""
    kept = []
    for node in nodes:
        if isinstance(node, PolicyCheck) and not has_review(
            policies[node.index]
        ):
            continue
        if isinstance(node, Transform) and not has_transform(
            policies[node.index]
        ):
            continue
        kept.append(node)
    return tuple(kept)


def coalesce_pir_fetches(nodes: tuple[PlanNode, ...]) -> tuple[PlanNode, ...]:
    """Merge all PirFetch nodes into one deduplicated FusedPirFetch."""
    fetches = [node for node in nodes if isinstance(node, PirFetch)]
    if len(fetches) < 2:
        return nodes
    order: dict[int, int] = {}  # block -> position, first occurrence
    routing = []
    for fetch in fetches:
        route = []
        for block in fetch.blocks:
            if block not in order:
                order[block] = len(order)
            route.append(order[block])
        routing.append(tuple(route))
    fused = FusedPirFetch(
        blocks=tuple(order),
        requested=sum(len(f.blocks) for f in fetches),
        routing=tuple(routing),
    )
    out: list[PlanNode] = []
    placed = False
    for node in nodes:
        if isinstance(node, PirFetch):
            if not placed:
                out.append(fused)
                placed = True
            continue
        out.append(node)
    return tuple(out)


def optimize(plan: Plan, policies=()) -> Plan:
    """Apply every pass; record the ones that changed the plan."""
    nodes = plan.nodes
    applied = []
    for name, rewrite in (
        (PASS_PRUNE_NOOP, lambda n: prune_noop_nodes(n, policies)),
        (PASS_COALESCE_PIR, coalesce_pir_fetches),
    ):
        rewritten = rewrite(nodes)
        if rewritten != nodes:
            applied.append(name)
            nodes = rewritten
    return Plan(
        title=plan.title, nodes=nodes, key=plan.key, passes=tuple(applied)
    )
