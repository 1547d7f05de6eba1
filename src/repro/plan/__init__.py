"""Query plan IR, optimizer, cache and executor.

Queries compile into a small typed plan IR (:mod:`~repro.plan.ir`),
explicit optimizer passes rewrite it (:mod:`~repro.plan.optimizer`:
prune no-op nodes, coalesce PIR fetches into one deduplicated batch),
and the planner caches compiled plans by normalized query structure and
executes them (:mod:`~repro.plan.executor`).  The passes only change
how a decision is reached: every check still runs through its policy's
own ``review``, so a plan decides exactly as the stack run one policy
at a time.

Consumers: :class:`repro.qdb.engine.StatisticalDatabase` decides every
``ask``/``ask_batch`` through a :class:`QueryPlanner`, and
:class:`repro.pir.sql_bridge.PrivateAggregateIndex` compiles
range-predicate batches into coalesced PIR fetch plans.
``repro qdb explain "<query>"`` renders a plan pre/post optimization.
"""

from .compiler import compile_query, plan_key, policy_signature
from .executor import PlanRuntime, QueryPlanner
from .ir import (
    AnswerSink,
    Evaluate,
    FusedPirFetch,
    PirFetch,
    Plan,
    PlanNode,
    PolicyCheck,
    RefuseSink,
    ScanMask,
    Transform,
    explain,
)
from .optimizer import (
    PASS_COALESCE_PIR,
    PASS_PRUNE_NOOP,
    coalesce_pir_fetches,
    optimize,
    prune_noop_nodes,
)

__all__ = [
    "AnswerSink",
    "Evaluate",
    "FusedPirFetch",
    "PASS_COALESCE_PIR",
    "PASS_PRUNE_NOOP",
    "PirFetch",
    "Plan",
    "PlanNode",
    "PlanRuntime",
    "PolicyCheck",
    "QueryPlanner",
    "RefuseSink",
    "ScanMask",
    "Transform",
    "coalesce_pir_fetches",
    "compile_query",
    "explain",
    "optimize",
    "plan_key",
    "policy_signature",
    "prune_noop_nodes",
]
