"""The typed plan IR: what a compiled query looks like before execution.

A :class:`Plan` is a short linear program over the engine's decision
pipeline — resolve the predicate mask, run each policy's review (any
refusal jumps to the :class:`RefuseSink`), evaluate the aggregate, run
each policy's transform, answer.  The optimizer rewrites node sequences
(:mod:`repro.plan.optimizer`) without changing their meaning: pruning
drops no-op :class:`PolicyCheck` and :class:`Transform` nodes, and a
:class:`FusedPirFetch` replaces a run of :class:`PirFetch` nodes.

Nodes are frozen dataclasses holding only *structure* (policy indices,
parameters, cell lists) — never live engine state — so plans are safe
to cache and share across queries with the same shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "AnswerSink",
    "Evaluate",
    "FusedPirFetch",
    "PirFetch",
    "Plan",
    "PlanNode",
    "PolicyCheck",
    "RefuseSink",
    "ScanMask",
    "Transform",
]


@dataclass(frozen=True)
class PlanNode:
    """Base class for plan nodes; subclasses render via :meth:`describe`."""

    def describe(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class ScanMask(PlanNode):
    """Resolve the predicate to a boolean record mask (memoized engine-side)."""

    predicate: str

    def describe(self) -> str:
        where = self.predicate or "TRUE"
        return f"ScanMask      predicate={where!r} (via mask cache)"


@dataclass(frozen=True)
class PolicyCheck(PlanNode):
    """One policy's ``review``; a refusal reason jumps to the RefuseSink."""

    index: int
    policy: str

    def describe(self) -> str:
        return f"PolicyCheck   [{self.index}] {self.policy} -> Refuse on violation"


@dataclass(frozen=True)
class PirFetch(PlanNode):
    """PIR-retrieve the named blocks (grid cells) for one source query."""

    blocks: tuple[int, ...]
    source: str = ""

    def describe(self) -> str:
        tag = f" for {self.source}" if self.source else ""
        return f"PirFetch      {len(self.blocks)} blocks{tag}"


@dataclass(frozen=True)
class FusedPirFetch(PlanNode):
    """Coalesced PIR fetch: deduped blocks, one ``retrieve_batch`` round.

    ``routing[i]`` maps the i-th original fetch to positions in
    :attr:`blocks`, so per-source results are reassembled exactly.
    """

    blocks: tuple[int, ...]
    requested: int
    routing: tuple[tuple[int, ...], ...]

    def describe(self) -> str:
        saved = self.requested - len(self.blocks)
        return (f"FusedPirFetch {len(self.blocks)} unique blocks for "
                f"{self.requested} requested across {len(self.routing)} "
                f"fetches ({saved} deduped), one retrieve_batch round")


@dataclass(frozen=True)
class Evaluate(PlanNode):
    """Compute the aggregate over the masked records."""

    aggregate: str
    column: str | None

    def describe(self) -> str:
        target = "*" if self.column is None else self.column
        return f"Evaluate      {self.aggregate}({target})"


@dataclass(frozen=True)
class Transform(PlanNode):
    """One policy's ``transform`` over the outgoing answer."""

    index: int
    policy: str

    def describe(self) -> str:
        return f"Transform     [{self.index}] {self.policy}"


@dataclass(frozen=True)
class AnswerSink(PlanNode):
    """Deliver the (possibly transformed) answer; record it answered."""

    def describe(self) -> str:
        return "Answer        deliver the result (answered queries recorded)"


@dataclass(frozen=True)
class RefuseSink(PlanNode):
    """Deliver a typed refusal; record the refused query."""

    def describe(self) -> str:
        return "Refuse        deliver the refusal reason (recorded in history)"


@dataclass(frozen=True)
class Plan:
    """A compiled query: title, cache key, node sequence, passes applied."""

    title: str
    nodes: tuple[PlanNode, ...]
    key: tuple = ()
    passes: tuple[str, ...] = field(default=())

    def render(self) -> str:
        """Numbered one-node-per-line rendering (stable for tests/CLI)."""
        lines = [f"plan: {self.title}"]
        if self.passes:
            lines.append(f"passes: {', '.join(self.passes)}")
        for i, node in enumerate(self.nodes, start=1):
            lines.append(f"  {i}. {node.describe()}")
        return "\n".join(lines)


def explain(before: Plan, after: Plan) -> str:
    """Render a plan before and after optimization, for the CLI and tests."""
    return "\n".join([
        "== before optimization ==",
        before.render(),
        "",
        f"== after optimization ({len(after.passes)} passes) ==",
        after.render(),
    ])
