"""The query planner and its supporting pieces.

Unit coverage for :mod:`repro.plan` — the stack's check and transform
lists, the per-engine stack memo and what the planner keeps — plus the
``WordLogStore`` tier backing out-of-core packed histories, loud
environment-variable validation, and the ``repro qdb explain`` CLI.
Decision equivalence against the seed replicas lives in
``test_qdb_plan_equivalence.py``.
"""

import gc
import os
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.cli import main
from repro.data import Dataset, patients
from repro.kernels import MemmapWordLog, RamWordLog, words_per_bits
from repro.qdb import (
    NoisePerturbation,
    OverlapControl,
    ProtectionPolicy,
    QueryHistory,
    QuerySetSizeControl,
    StatisticalDatabase,
    SumAuditPolicy,
)

QUERY = "SELECT SUM(blood_pressure) WHERE height > 170"


def listed(text):
    """The stack indices an explain text lists as (checks, transforms)."""
    checks, _, transforms = text.partition("\ntransforms")

    def indices(block):
        return [int(i) for i in re.findall(r"^  \[(\d+)\]", block, re.M)]

    return indices(checks), indices(transforms)


class TestStackLists:
    def test_noop_reviews_and_transforms_are_left_out(self):
        # NoisePerturbation reviews nothing; QuerySetSizeControl
        # transforms nothing — neither base no-op is run.
        db = StatisticalDatabase(
            patients(80, seed=0),
            [QuerySetSizeControl(5), NoisePerturbation(1.0)],
        )
        assert listed(db.explain(QUERY)) == ([0], [1])

    def test_every_audit_policy_keeps_its_own_check(self):
        # Each audit check runs as its policy's own review, in stack
        # order; only the no-op reviews are left out.
        db = StatisticalDatabase(
            patients(80, seed=0),
            [QuerySetSizeControl(5), NoisePerturbation(1.0),
             OverlapControl(40), SumAuditPolicy()],
        )
        checks, _ = listed(db.explain(QUERY))
        assert checks == [0, 2, 3]

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

    def test_db_explain_lists_checks_and_transforms(self):
        db = StatisticalDatabase(
            patients(80, seed=0),
            [QuerySetSizeControl(5), OverlapControl(40), SumAuditPolicy(),
             NoisePerturbation(1.0)],
        )
        text = db.explain(QUERY)
        assert text.startswith(
            "query: SELECT SUM(blood_pressure) WHERE height > 170.0\n"
        )
        assert "  [1] overlap-control(r=40) (OverlapControl)" in text
        assert listed(text) == ([0, 1, 2], [2, 3])
        assert db.queries_asked == 0  # explaining decides nothing


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
        # A different aggregate on the same stack finds the memo current.
        db.ask("SELECT SUM(blood_pressure) WHERE height > 170")
        assert db.plan_cache_misses == 1

    def test_swapping_the_policy_stack_changes_the_key(self):
        db = StatisticalDatabase(patients(100, seed=1),
                                 [QuerySetSizeControl(5)])
        q = "SELECT COUNT(*) WHERE height > 170"
        db.ask(q)
        db.policies = [QuerySetSizeControl(6)]
        db.ask(q)
        assert db.plan_cache_misses == 2

    def test_an_equal_new_stack_reuses_the_cached_plan(self):
        """Fresh policies of the same types and names are a new stack
        (a memo miss), and the decision runs the new objects."""
        db = StatisticalDatabase(patients(100, seed=1),
                                 [QuerySetSizeControl(5)])
        q = "SELECT COUNT(*) WHERE height > 170"
        assert not db.ask(q).refused
        db.policies = [QuerySetSizeControl(5)]
        assert not db.ask(q).refused
        assert (db.plan_cache_hits, db.plan_cache_misses) == (0, 2)
        db.policies[0].k = 100  # in place: the name, so the key, stays
        assert db.ask(q).reason.startswith(
            "size-control(k=5): query set too small"
        )
        assert (db.plan_cache_hits, db.plan_cache_misses) == (1, 2)

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

    def test_a_policy_appended_in_place_runs(self):
        """Appending to the engine's own list is a new stack too."""
        data = Dataset({"x": np.arange(100.0)})
        db = StatisticalDatabase(data, [QuerySetSizeControl(3)], seed=0)
        q = "SELECT SUM(x) WHERE x < 50"
        assert db.ask(q).value == 1225.0
        db.policies.append(NoisePerturbation(1000.0))
        assert db.ask(q).value != 1225.0  # the noise ran
        assert (db.plan_cache_hits, db.plan_cache_misses) == (0, 2)


def fresh_queries(population, n, seed=0):
    """Fresh three-term range conjunctions, built the way the
    ``query_fresh`` benchmark workload builds its script."""
    rng = np.random.default_rng([seed, 2])
    bounds = {
        column: np.quantile(population.column(column), [0.02, 0.98])
        for column in ("height", "weight", "age")
    }
    aggregates = ("COUNT(*)", "SUM(blood_pressure)", "AVG(blood_pressure)")
    queries = []
    for _ in range(n):
        terms = []
        for column, (low, high) in bounds.items():
            sign = "<" if rng.random() < 0.5 else ">"
            terms.append(f"{column} {sign} {rng.uniform(low, high):.1f}")
        rng.integers(32)  # the workload's session draw
        aggregate = aggregates[int(rng.integers(len(aggregates)))]
        queries.append(f"SELECT {aggregate} WHERE {' AND '.join(terms)}")
    return queries


class TestWhatThePlannerKeeps:
    def test_a_dropped_engine_is_freed_by_reference_counting(self):
        """The planner holds no reference to its engine, so no cycle
        keeps a dropped engine's audit state alive until a collection."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            db = StatisticalDatabase(
                patients(100, seed=1),
                [QuerySetSizeControl(5), OverlapControl(40),
                 SumAuditPolicy()],
            )
            db.ask("SELECT COUNT(*) WHERE height > 170")
            db.ask_batch(["SELECT SUM(blood_pressure) WHERE weight < 80",
                          "SELECT AVG(blood_pressure) WHERE age > 40"])
            assert db.queries_asked == 3
            engine = weakref.ref(db)
            del db
            assert engine() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_fresh_queries_leave_nothing_in_the_planner(self):
        """The planner keeps one memo per stack, not an entry per query
        shape."""
        population = patients(5000, seed=0)
        db = StatisticalDatabase(population, [QuerySetSizeControl(5)])
        queries = fresh_queries(population, 501)
        db.ask(queries[0])  # first-call paths outside the trace
        tracemalloc.start()
        try:
            answered = len(db.ask_batch(queries[1:]))
            gc.collect()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        assert answered == 500 and db.plan_cache_misses == 1
        planner = snapshot.filter_traces([tracemalloc.Filter(
            True, os.path.join("*", "repro", "plan", "*")
        )])
        kept = sum(stat.size for stat in planner.statistics("filename"))
        assert kept <= 4096, f"{kept} bytes kept in repro/plan/"


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
    def test_explain_lists_the_stack(self, capsys):
        assert main([
            "qdb", "explain",
            "SELECT SUM(blood_pressure) WHERE height > 170",
            "--records", "80",
        ]) == 0
        out = capsys.readouterr().out
        assert "  [2] sum-audit (SumAuditPolicy)" in out
        assert listed(out) == ([0, 1, 2], [2])

    def test_explain_pir_demo_counts_cells(self, capsys):
        assert main([
            "qdb", "explain", "SELECT COUNT(*) WHERE height > 170",
            "--records", "80", "--pir-demo",
        ]) == 0
        out = capsys.readouterr().out
        assert "cells requested: 4\n" in out
        assert "unique cells fetched: 3, one retrieve_batch round" in out

    def test_custom_policy_spec(self, capsys):
        assert main([
            "qdb", "explain", "SELECT COUNT(*) WHERE height > 170",
            "--records", "80", "--policies", "overlap:30,noise:2.0",
        ]) == 0
        out = capsys.readouterr().out
        assert "overlap-control(r=30)" in out

    @pytest.mark.parametrize("token, message", [
        ("sizes:5", "unknown policy 'sizes'"),
        ("size:abc", "bad policy 'size:abc'"),
        ("overlap:1.5", "bad policy 'overlap:1.5'"),
        ("noise:-2", "bad policy 'noise:-2'"),
    ])
    def test_unknown_policy_token_exits_loudly(self, token, message):
        with pytest.raises(SystemExit, match=re.escape(message)) as exit_:
            main([
                "qdb", "explain", "SELECT COUNT(*)",
                "--policies", token,
            ])
        assert "\n" not in str(exit_.value.code)

    def test_unparseable_query_is_an_error(self, capsys):
        assert main(["qdb", "explain", "SELEC COUNT(*)"]) == 1
        assert "error:" in capsys.readouterr().err
