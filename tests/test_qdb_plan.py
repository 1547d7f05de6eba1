"""The query-plan layer: IR, optimizer passes, plan cache, word stores.

Unit coverage for :mod:`repro.plan` and its supporting pieces — plan
rendering, pass-by-pass optimizer behaviour (pruning, PIR coalescing),
plan-cache keying, the ``WordLogStore`` tier backing out-of-core packed
histories, loud environment-variable validation, and the ``repro qdb
explain`` CLI.  Decision equivalence against the seed replicas lives in
``test_qdb_plan_equivalence.py``.
"""

import numpy as np
import pytest

from repro.cli import main
from repro.data import Dataset, patients
from repro.kernels import MemmapWordLog, RamWordLog, words_per_bits
from repro.plan import (
    FusedPirFetch,
    PirFetch,
    Plan,
    PolicyCheck,
    QueryPlanner,
    ScanMask,
    Transform,
    coalesce_pir_fetches,
    compile_query,
    optimize,
    plan_key,
    policy_signature,
)
from repro.qdb import (
    Aggregate,
    Comparison,
    NoisePerturbation,
    OverlapControl,
    ProtectionPolicy,
    Query,
    QueryHistory,
    QuerySetSizeControl,
    StatisticalDatabase,
    SumAuditPolicy,
)

QUERY = Query(Aggregate.SUM, "blood_pressure", Comparison("height", ">", 170.0))


class TestCompiler:
    def test_unoptimized_plan_spells_out_the_pipeline(self):
        policies = [QuerySetSizeControl(5), SumAuditPolicy()]
        plan = compile_query(QUERY, policies)
        kinds = [type(n).__name__ for n in plan.nodes]
        assert kinds == [
            "ScanMask", "PolicyCheck", "PolicyCheck", "Evaluate",
            "Transform", "Transform", "AnswerSink", "RefuseSink",
        ]
        assert plan.nodes[0].predicate == "height > 170.0"
        assert plan.passes == ()

    def test_plan_key_normalizes_query_structure(self):
        policies = [QuerySetSizeControl(5)]
        same = Query(Aggregate.SUM, "blood_pressure",
                     Comparison("height", ">", 170.0))
        assert plan_key(QUERY, policies) == plan_key(same, policies)
        other_agg = Query(Aggregate.AVG, "blood_pressure", QUERY.predicate)
        assert plan_key(QUERY, policies) != plan_key(other_agg, policies)
        assert plan_key(QUERY, policies) != plan_key(
            QUERY, [QuerySetSizeControl(6)]
        )

    def test_policy_signature_is_type_and_name(self):
        sig = policy_signature(
            [QuerySetSizeControl(7), OverlapControl(9), SumAuditPolicy()]
        )
        assert sig == (
            (QuerySetSizeControl, "size-control(k=7)"),
            (OverlapControl, "overlap-control(r=9)"),
            (SumAuditPolicy, "sum-audit"),
        )


class TestOptimizerPasses:
    def test_prune_drops_noop_reviews_and_transforms(self):
        # NoisePerturbation reviews nothing; QuerySetSizeControl
        # transforms nothing — both no-op nodes must disappear.
        policies = [QuerySetSizeControl(5), NoisePerturbation(1.0)]
        plan = optimize(compile_query(QUERY, policies), policies)
        checks = [n for n in plan.nodes if isinstance(n, PolicyCheck)]
        transforms = [n for n in plan.nodes if isinstance(n, Transform)]
        assert [c.index for c in checks] == [0]
        assert [t.index for t in transforms] == [1]
        assert "prune-noop-nodes" in plan.passes

    def test_every_audit_policy_keeps_its_own_check(self):
        # Audit checks are never rewritten: each runs as its policy's
        # own review, in stack order, after pruning drops the no-ops.
        policies = [QuerySetSizeControl(5), NoisePerturbation(1.0),
                    OverlapControl(40), SumAuditPolicy()]
        plan = optimize(compile_query(QUERY, policies), policies)
        checks = [n for n in plan.nodes if isinstance(n, PolicyCheck)]
        assert [c.index for c in checks] == [0, 2, 3]
        assert plan.passes == ("prune-noop-nodes",)

    def test_a_policy_subclass_runs_its_own_review(self):
        # No check is decided by type: a size-control subclass that
        # overrides review is asked through that override.
        class StricterSize(QuerySetSizeControl):
            def review(self, query, mask, data, history):
                return "always refused"

        pop = patients(100, seed=1)
        q = "SELECT COUNT(*) WHERE height > 170"
        assert not StatisticalDatabase(
            pop, [QuerySetSizeControl(5)]
        ).ask(q).refused
        db = StatisticalDatabase(pop, [StricterSize(5)])
        assert db.ask(q).reason == "size-control(k=5): always refused"

    def test_checks_run_in_stack_order_up_to_the_first_refusal(self):
        calls = []

        class Verdict(ProtectionPolicy):
            def __init__(self, name, reason):
                self.name, self.reason = name, reason

            def review(self, query, mask, data, history):
                calls.append(self.name)
                return self.reason

        db = StatisticalDatabase(patients(100, seed=1), [
            Verdict("a", None), Verdict("b", "no"), Verdict("c", "never"),
        ])
        assert db.ask("SELECT COUNT(*) WHERE height > 170").reason == "b: no"
        assert calls == ["a", "b"]
        assert [entry.answered for entry in db.history] == [False]

    def test_coalesce_dedupes_blocks_and_preserves_routing(self):
        nodes = (
            PirFetch((3, 1, 4), source="a"),
            PirFetch((1, 5), source="b"),
        )
        (fused,) = coalesce_pir_fetches(nodes)
        assert fused.blocks == (3, 1, 4, 5)  # first-occurrence order
        assert fused.requested == 5
        assert fused.routing == ((0, 1, 2), (1, 3))

    def test_single_fetch_is_left_alone(self):
        nodes = (PirFetch((3, 1, 4)),)
        assert coalesce_pir_fetches(nodes) is nodes

    def test_only_changing_passes_are_recorded(self):
        policies = [QuerySetSizeControl(5)]
        plan = optimize(compile_query(QUERY, policies), policies)
        # size-only: pruning removes the no-op transform; nothing
        # coalesces.
        assert plan.passes == ("prune-noop-nodes",)


class TestPlanRendering:
    def test_render_numbers_nodes_and_lists_passes(self):
        plan = Plan("demo", (ScanMask("height > 170.0"),),
                    passes=("prune-noop-nodes",))
        text = plan.render()
        assert text.startswith("plan: demo\npasses: prune-noop-nodes")
        assert "  1. ScanMask" in text

    def test_fused_pir_describe_counts_the_dedupe(self):
        node = FusedPirFetch((3, 1, 4, 5), requested=5,
                             routing=((0, 1, 2), (1, 3)))
        assert "4 unique blocks for 5 requested" in node.describe()
        assert "(1 deduped)" in node.describe()

    def test_db_explain_shows_before_and_after(self):
        db = StatisticalDatabase(
            patients(80, seed=0),
            [QuerySetSizeControl(5), OverlapControl(40), SumAuditPolicy()],
        )
        text = db.explain("SELECT SUM(blood_pressure) WHERE height > 170")
        assert "== before optimization ==" in text
        assert "== after optimization" in text
        assert "PolicyCheck   [1] overlap-control(r=40)" in text
        assert "cache key:" in text


class TestPlanCache:
    def test_engine_counts_hits_and_misses(self):
        db = StatisticalDatabase(patients(100, seed=1),
                                 [QuerySetSizeControl(5)])
        q = "SELECT COUNT(*) WHERE height > 170"
        db.ask(q)
        assert (db.plan_cache_hits, db.plan_cache_misses) == (0, 1)
        db.ask(q)
        db.ask(q)
        assert (db.plan_cache_hits, db.plan_cache_misses) == (2, 1)
        # A different aggregate over the same predicate is a new shape.
        db.ask("SELECT SUM(blood_pressure) WHERE height > 170")
        assert db.plan_cache_misses == 2

    def test_swapping_the_policy_stack_changes_the_key(self):
        db = StatisticalDatabase(patients(100, seed=1),
                                 [QuerySetSizeControl(5)])
        q = "SELECT COUNT(*) WHERE height > 170"
        db.ask(q)
        db.policies = [QuerySetSizeControl(6)]
        db.ask(q)
        assert db.plan_cache_misses == 2

    def test_an_equal_new_stack_reuses_the_cached_plan(self):
        """The key is structural: fresh policies of the same types and
        names hit the cache, and the plan runs the new objects."""
        db = StatisticalDatabase(patients(100, seed=1),
                                 [QuerySetSizeControl(5)])
        q = "SELECT COUNT(*) WHERE height > 170"
        assert not db.ask(q).refused
        db.policies = [QuerySetSizeControl(5)]
        assert not db.ask(q).refused
        assert (db.plan_cache_hits, db.plan_cache_misses) == (1, 1)
        db.policies[0].k = 100  # in place: the name, so the key, stays
        assert db.ask(q).reason.startswith(
            "size-control(k=5): query set too small"
        )
        assert (db.plan_cache_hits, db.plan_cache_misses) == (2, 1)

    def test_a_new_policy_never_runs_a_freed_policys_plan(self):
        """A policy that reuses a freed policy's ``id`` still makes a
        new stack: its own transform runs, not the old stack's plan."""
        data = Dataset({"x": np.arange(100.0)})
        db = StatisticalDatabase(data, [QuerySetSizeControl(3)], seed=0)
        q = "SELECT SUM(x) WHERE x < 50"
        assert db.ask(q).value == 1225.0
        freed = id(db.policies[0])
        db.policies = [NoisePerturbation(1000.0)]
        # Allocate look-alikes, keeping each alive, until one is given
        # the freed size control's id; none is while the planner still
        # holds that policy.
        held = []
        for _ in range(1 << 14):
            noise = NoisePerturbation(1000.0)
            if id(noise) == freed:
                break
            held.append(noise)
        db.policies = [noise]
        assert db.ask(q).value != 1225.0  # the noise ran
        assert (db.plan_cache_hits, db.plan_cache_misses) == (0, 2)

    def test_a_same_named_subclass_gets_its_own_plan(self):
        """A subclass named like its base, with the same display name,
        still makes a new stack: the review it adds runs."""

        def review(self, query, mask, data, history):
            return "always refused"

        refusing = type("NoisePerturbation", (NoisePerturbation,),
                        {"review": review})
        data = Dataset({"x": np.arange(100.0)})
        db = StatisticalDatabase(data, [NoisePerturbation(0.0)])
        q = "SELECT SUM(x) WHERE x < 50"
        assert db.ask(q).value == 1225.0
        db.policies = [refusing(0.0)]
        assert db.ask(q).reason == "perturbation(sd=0): always refused"

    def test_planner_without_cache_always_compiles(self):
        db = StatisticalDatabase(patients(100, seed=1),
                                 [QuerySetSizeControl(5)])
        planner = QueryPlanner(db, cache=False)
        q = Query(Aggregate.COUNT, None, Comparison("height", ">", 170.0))
        p1, _ = planner.plan_for(q)
        p2, _ = planner.plan_for(q)
        assert p1 is not p2
        assert planner.cache is None


class TestWordLogStores:
    @pytest.mark.parametrize("make", [
        lambda n_words: RamWordLog(n_words, initial_capacity=2),
        lambda n_words: MemmapWordLog(n_words, initial_capacity=2),
    ], ids=["ram", "memmap"])
    def test_append_rows_and_overlap_counts(self, make):
        n_bits = 130
        n_words = words_per_bits(n_bits)
        store = make(n_words)
        rng = np.random.default_rng(0)
        masks = [rng.random(n_bits) < 0.5 for _ in range(17)]
        log = QueryHistory(n_bits).answered_masks  # packer only
        for mask in masks:
            store.append(log.pack(mask))
        assert len(store) == 17
        candidate = rng.random(n_bits) < 0.5
        packed = log.pack(candidate)
        expected = [int(np.sum(candidate & m)) for m in masks]
        np.testing.assert_array_equal(
            store.overlap_counts(packed, 0, len(store)), expected
        )
        np.testing.assert_array_equal(
            store.overlap_counts(packed, 5, 12), expected[5:12]
        )

    def test_memmap_chunked_scan_matches_unchunked(self):
        n_words = 4
        budget = 3 * n_words * 8  # three rows per chunk
        store = MemmapWordLog(n_words, initial_capacity=1, ram_budget=budget)
        plain = RamWordLog(n_words)
        rng = np.random.default_rng(1)
        for _ in range(20):
            row = rng.integers(0, 2**63, n_words, dtype=np.uint64)
            store.append(row)
            plain.append(row)
        assert store.chunk_rows == 3
        probe = rng.integers(0, 2**63, n_words, dtype=np.uint64)
        np.testing.assert_array_equal(
            store.overlap_counts(probe, 0, 20),
            plain.overlap_counts(probe, 0, 20),
        )

    def test_memmap_growth_survives_generations(self):
        store = MemmapWordLog(2, initial_capacity=1)
        rows = [np.array([i, i + 1], dtype=np.uint64) for i in range(9)]
        for row in rows:
            store.append(row)
        assert len(store) == 9
        np.testing.assert_array_equal(np.asarray(store.rows), np.array(rows))

    def test_invalid_ram_budget_is_rejected(self):
        with pytest.raises(ValueError, match="ram_budget"):
            MemmapWordLog(4, ram_budget=0)


class TestEnvironmentValidation:
    @pytest.mark.parametrize("value", ["disk", "mmap", "RAMM"])
    def test_unknown_history_store_raises(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_QDB_HISTORY_STORE", value)
        with pytest.raises(ValueError, match="REPRO_QDB_HISTORY_STORE"):
            QueryHistory(32)

    @pytest.mark.parametrize("value", ["abc", "0", "-1"])
    def test_invalid_history_budget_raises(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_QDB_HISTORY_STORE", "memmap")
        monkeypatch.setenv("REPRO_QDB_HISTORY_BUDGET", value)
        with pytest.raises(ValueError, match="REPRO_QDB_HISTORY_BUDGET"):
            QueryHistory(32)

    def test_memmap_store_selected_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_QDB_HISTORY_STORE", "memmap")
        monkeypatch.setenv("REPRO_QDB_HISTORY_BUDGET", str(1 << 16))
        history = QueryHistory(32)
        assert history.answered_masks.store_kind == "MemmapWordLog"

    def test_default_store_is_ram(self):
        assert QueryHistory(32).answered_masks.store_kind == "RamWordLog"


class TestExplainCli:
    def test_explain_renders_both_plans(self, capsys):
        assert main([
            "qdb", "explain",
            "SELECT SUM(blood_pressure) WHERE height > 170",
            "--records", "80",
        ]) == 0
        out = capsys.readouterr().out
        assert "== before optimization ==" in out
        assert "PolicyCheck   [2] sum-audit" in out
        assert "passes:" in out
        assert "cache key:" in out

    def test_explain_pir_demo_shows_coalescing(self, capsys):
        assert main([
            "qdb", "explain", "SELECT COUNT(*) WHERE height > 170",
            "--records", "80", "--pir-demo",
        ]) == 0
        out = capsys.readouterr().out
        assert "FusedPirFetch" in out
        assert "retrieve_batch" in out

    def test_custom_policy_spec(self, capsys):
        assert main([
            "qdb", "explain", "SELECT COUNT(*) WHERE height > 170",
            "--records", "80", "--policies", "overlap:30,noise:2.0",
        ]) == 0
        out = capsys.readouterr().out
        assert "overlap-control(r=30)" in out

    def test_unknown_policy_token_exits_loudly(self):
        with pytest.raises(SystemExit, match="unknown policy"):
            main([
                "qdb", "explain", "SELECT COUNT(*)",
                "--policies", "sizes:5",
            ])

    def test_unparseable_query_is_an_error(self, capsys):
        assert main(["qdb", "explain", "SELEC COUNT(*)"]) == 1
        assert "error:" in capsys.readouterr().err
