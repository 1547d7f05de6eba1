"""The plan path must match the seed's per-policy pipeline, decision
for decision.

The query planner (:mod:`repro.plan`) is only allowed to change *how*
the engine reaches a decision — pruned no-op nodes, cached plans,
memmap-backed histories — never the decision itself.  The reference is
the same stack with the frozen seed replicas of
:mod:`benchmarks.seed_replicas` in place of the overlap control and the
sum audit.  Randomized workloads are replayed through both under every
policy stack (including the stochastic transform policies, whose rng
streams must stay aligned), with injected backend faults, and with the
packed history on the memmap store; every answer, refusal string,
interval, counter and audit record must be identical.  Both sides share
the executor's transform tail, so the golden fingerprints and the
transform-stack digests below pin the absolute decisions as well.
"""

import hashlib

import numpy as np
import pytest

from benchmarks.seed_replicas import SeedOverlapControl, SeedSumAuditPolicy
from repro.data import Dataset, patients
from repro.faults import Fault, FaultPlan, ReplicatedBackend
from repro.qdb import (
    CamouflageIntervals,
    Degraded,
    NoisePerturbation,
    OverlapControl,
    QuerySetSizeControl,
    RandomSampleQueries,
    Refusal,
    StatisticalDatabase,
    SumAuditPolicy,
)
from tests.test_qdb_perf_equivalence import (
    OVERLAP_GOLDEN,
    assert_golden,
    golden_fingerprint,
    golden_session,
    random_workload,
    same_value,
)

# Policy stacks are passed as zero-argument factories: stateful policies
# (the sum audit's growing basis, the sampler's rng) must never be
# shared between the two sessions under comparison.
STACKS = {
    "size": lambda: [QuerySetSizeControl(3)],
    "size+overlap": lambda: [QuerySetSizeControl(3), OverlapControl(40)],
    "size+sum-audit": lambda: [QuerySetSizeControl(2), SumAuditPolicy()],
    "audit-trio": lambda: [
        QuerySetSizeControl(3), OverlapControl(45), SumAuditPolicy()
    ],
    "stochastic": lambda: [
        QuerySetSizeControl(3), NoisePerturbation(1.5),
        RandomSampleQueries(0.8, seed=7), CamouflageIntervals(2),
    ],
    "kitchen-sink": lambda: [
        QuerySetSizeControl(3), OverlapControl(60), SumAuditPolicy(),
        NoisePerturbation(1.0), RandomSampleQueries(0.9, seed=7),
        CamouflageIntervals(2),
    ],
}


def seed_stack(policies: list) -> list:
    """*policies* with each overlap control and sum audit replaced by its
    frozen seed replica (same parameters); other policies are kept."""
    return [
        SeedOverlapControl(p.max_overlap) if type(p) is OverlapControl
        else SeedSumAuditPolicy(p.tolerance) if type(p) is SumAuditPolicy
        else p
        for p in policies
    ]


def assert_plan_matches_seed(make_plan_db, make_ref_db, queries):
    """Replay *queries* through both engines; every outcome must match."""
    db_plan, db_ref = make_plan_db(), make_ref_db()
    for query in queries:
        a, b = db_plan.ask(query), db_ref.ask(query)
        assert type(a) is type(b), (query, a, b)
        assert a.refused == b.refused, (query, a, b)
        assert a.reason == b.reason, (query, a, b)
        assert same_value(a.value, b.value), (query, a, b)
        assert a.interval == b.interval, (query, a, b)
    assert db_plan.queries_asked == db_ref.queries_asked
    assert db_plan.queries_refused == db_ref.queries_refused
    assert len(db_plan.history) == len(db_ref.history)
    assert [e.answered for e in db_plan.history] == [
        e.answered for e in db_ref.history
    ]
    for ea, eb in zip(db_plan.history, db_ref.history):
        np.testing.assert_array_equal(ea.mask, eb.mask)
    return db_plan, db_ref


@pytest.mark.parametrize("stack", sorted(STACKS), ids=sorted(STACKS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_plan_path_matches_legacy_under_every_stack(stack, seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(60, 250))
    pop = patients(n, seed=seed)
    queries = random_workload(pop, rng, 70)
    db_plan, _ = assert_plan_matches_seed(
        lambda: StatisticalDatabase(pop, STACKS[stack](), seed=0),
        lambda: StatisticalDatabase(pop, seed_stack(STACKS[stack]()), seed=0),
        queries,
    )
    # The comparison must have exercised the planner, not bypassed it.
    assert db_plan.plan_cache_hits + db_plan.plan_cache_misses > 0


@pytest.mark.parametrize("seed", [3, 4])
def test_ask_batch_matches_legacy(seed):
    rng = np.random.default_rng(200 + seed)
    pop = patients(150, seed=seed)
    queries = random_workload(pop, rng, 40)
    # Repeat shapes so the warm plan cache actually gets hit mid-batch.
    workload = queries + queries[:20]
    stack = lambda: [
        QuerySetSizeControl(3), OverlapControl(50), SumAuditPolicy()
    ]
    db_plan = StatisticalDatabase(pop, stack(), seed=0)
    db_ref = StatisticalDatabase(pop, seed_stack(stack()), seed=0)
    for a, b in zip(db_plan.ask_batch(workload), db_ref.ask_batch(workload)):
        assert a.refused == b.refused
        assert a.reason == b.reason
        assert same_value(a.value, b.value)
        assert a.interval == b.interval
    assert db_plan.plan_cache_hits > 0


def test_overlap_threshold_lowered_in_place():
    """Lowering ``max_overlap`` in place decides the next review against
    the whole history under the new threshold."""
    data = Dataset({"x": np.arange(100.0)})
    probe = "SELECT SUM(x) WHERE x >= 45 AND x < 60"  # overlaps C in 5

    def session(policies):
        db = StatisticalDatabase(data, policies)
        overlap, size = policies
        answers = [db.ask("SELECT SUM(x) WHERE x < 50"), db.ask(probe)]
        overlap.max_overlap, size.k = 3, 2
        answers.append(db.ask(probe))
        return [(a.refused, a.reason) for a in answers]

    stack = lambda: [OverlapControl(10), QuerySetSizeControl(20)]
    answers = session(stack())
    assert answers == session(seed_stack(stack()))
    assert answers == [
        (False, None),
        (True, "size-control(k=20): query set too small (15 < 20)"),
        (True, "overlap-control(r=10): query set overlaps a previous one "
               "in 5 records (> 3)"),
    ]


class TestFaultEquivalence:
    """Injected backend faults degrade both pipelines identically."""

    def _backend(self, data, faults, n_replicas, seed):
        return ReplicatedBackend(
            data, n_replicas=n_replicas,
            plan=FaultPlan(faults, seed=seed), name="qdb",
        )

    def test_failover_degrades_identically(self):
        data = Dataset({"x": np.arange(30.0)})
        faults = [Fault("crash", "qdb.replica:0", after=0)]
        queries = ["SELECT SUM(x) WHERE x > 5", "SELECT AVG(x) WHERE x < 25"]
        db_plan, db_ref = assert_plan_matches_seed(
            lambda: StatisticalDatabase(
                self._backend(data, faults, 2, seed=1),
                policies=[OverlapControl(25)],
            ),
            lambda: StatisticalDatabase(
                self._backend(data, faults, 2, seed=1),
                policies=[SeedOverlapControl(25)],
            ),
            queries,
        )
        assert db_plan.degraded_answers == db_ref.degraded_answers == 2
        assert isinstance(db_plan.ask("SELECT SUM(x)"), Degraded)

    def test_blackout_refuses_identically(self):
        data = Dataset({"x": np.arange(20.0)})
        faults = [Fault("crash", "qdb.replica:0", after=0)]
        queries = [
            "SELECT COUNT(*)",  # mask synthesized: survives the blackout
            "SELECT SUM(x) WHERE x > 5",
            "SELECT AVG(x) WHERE x < 12",
        ]
        db_plan, db_ref = assert_plan_matches_seed(
            lambda: StatisticalDatabase(
                self._backend(data, faults, 1, seed=0),
                policies=[QuerySetSizeControl(2)],
            ),
            lambda: StatisticalDatabase(
                self._backend(data, faults, 1, seed=0),
                policies=[QuerySetSizeControl(2)],
            ),
            queries,
        )
        assert db_plan.backend_refusals == db_ref.backend_refusals == 2
        answer = db_plan.ask("SELECT SUM(x) WHERE x > 1")
        assert isinstance(answer, Refusal)
        assert answer.reason.startswith("backend: ")


class TestMemmapHistoryEquivalence:
    """memmap-backed packed histories decide exactly like RAM ones."""

    @pytest.mark.parametrize("seed", [5, 6])
    def test_memmap_matches_ram_on_the_plan_path(self, seed):
        rng = np.random.default_rng(300 + seed)
        pop = patients(180, seed=seed)
        queries = random_workload(pop, rng, 70)
        policies = lambda: [QuerySetSizeControl(3), OverlapControl(35)]
        db_ram = StatisticalDatabase(pop, policies(), seed=0)
        db_mm = StatisticalDatabase(pop, policies(), seed=0,
                                    history_store="memmap")
        assert db_mm.history.answered_masks.store_kind == "MemmapWordLog"
        for query in queries:
            a, b = db_ram.ask(query), db_mm.ask(query)
            assert a.refused == b.refused, (query, a, b)
            assert a.reason == b.reason, (query, a, b)
            assert same_value(a.value, b.value), (query, a, b)
        assert len(db_ram.history.answered_masks) == len(
            db_mm.history.answered_masks
        )

    def test_memmap_matches_legacy_pipeline(self):
        rng = np.random.default_rng(77)
        pop = patients(150, seed=7)
        queries = random_workload(pop, rng, 60)
        stack = lambda: [OverlapControl(40), SumAuditPolicy()]
        db_mm, _ = assert_plan_matches_seed(
            lambda: StatisticalDatabase(
                pop, stack(), seed=0, history_store="memmap",
            ),
            lambda: StatisticalDatabase(pop, seed_stack(stack()), seed=0),
            queries,
        )
        assert db_mm.history.answered_masks.store_kind == "MemmapWordLog"


def _hex(value):
    return None if value is None else float(value).hex()


def answer_digest(answers):
    """sha256 over every answer's (type, refused, reason, value,
    interval), floats in exact hex."""
    digest = hashlib.sha256()
    for a in answers:
        interval = a.interval and tuple(map(_hex, a.interval))
        digest.update(repr((
            type(a).__name__, bool(a.refused), a.reason, _hex(a.value),
            interval,
        )).encode())
    return digest.hexdigest()


class TestGoldenSessionOnPlanPath:
    """Frozen fingerprints of the golden session beyond the two that
    ``tests/test_qdb_perf_equivalence.py::TestGoldenSession`` checks.

    These pin the *absolute* decisions: the plan path agreeing with the
    seed replicas is not enough if the tail they share drifts.
    """

    #: Recorded while the engine still kept a separate per-policy
    #: pipeline, which produced the same digests as the plan path.
    TRANSFORM_STACK_DIGESTS = {
        "audit-trio":
            "1c8374b6fcdf841b89c1625dc0949b79f1a378518e7ae22e1a052de3c9417d94",
        "stochastic":
            "7764434a9e6efd5dc9ca5cb288546cc55d61bf9c73d9a3d586552e1f5cd0d2ea",
        "kitchen-sink":
            "92769b2d3414bcbef6455961e2bf29e464944e428c67e964711fa8b8c07247ed",
    }

    def test_overlap_golden_vector_via_memmap_history(self):
        assert_golden(
            golden_session([OverlapControl(40)], history_store="memmap"),
            OVERLAP_GOLDEN,
        )

    def test_three_policy_audit_stack_is_deterministic(self):
        """The audit trio answers exactly alike in two fresh runs."""
        stack = lambda: [
            QuerySetSizeControl(3), OverlapControl(40), SumAuditPolicy()
        ]
        assert golden_fingerprint(golden_session(stack())) == (
            golden_fingerprint(golden_session(stack()))
        )

    @pytest.mark.parametrize("stack", sorted(TRANSFORM_STACK_DIGESTS))
    def test_transform_stack_digest(self, stack):
        assert answer_digest(golden_session(STACKS[stack]())) == (
            self.TRANSFORM_STACK_DIGESTS[stack]
        )

    @pytest.mark.parametrize("stack", ["audit-trio", "kitchen-sink"])
    def test_transform_stack_digest_on_seed_replicas(self, stack):
        """The seed replicas of the overlap control and the sum audit
        reach the same pinned digest as the engine's own policies."""
        policies = seed_stack(STACKS[stack]())
        assert answer_digest(golden_session(policies)) == (
            self.TRANSFORM_STACK_DIGESTS[stack]
        )
