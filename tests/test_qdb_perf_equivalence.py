"""The packed/incremental audit policies must match the seed, decision
for decision.

The throughput layer (packed-bitset ``OverlapControl``, incremental-QR
``SumAuditPolicy``, predicate-mask cache) is only allowed to change *how
fast* the engine answers, never *what* it answers: randomized workloads
are replayed against frozen replicas of the seed implementations
(:mod:`benchmarks.seed_replicas`) and every answer, refusal, reason and
counter must be identical.
"""

import numpy as np
import pytest

from benchmarks.seed_replicas import SeedOverlapControl, SeedSumAuditPolicy
from repro.data import patients
from repro.qdb import (
    Aggregate,
    Comparison,
    LogEntry,
    Not,
    OverlapControl,
    PackedMaskLog,
    Query,
    QueryHistory,
    QuerySetSizeControl,
    StatisticalDatabase,
    SumAuditPolicy,
)


def random_workload(pop, rng, n_queries):
    """A mixed-aggregate query stream over random predicates on *pop*."""
    columns = ["height", "weight", "age"]
    aggregates = [
        Aggregate.COUNT, Aggregate.SUM, Aggregate.AVG,
        Aggregate.VARIANCE, Aggregate.STDDEV, Aggregate.MEDIAN,
    ]
    queries = []
    for _ in range(n_queries):
        column = columns[rng.integers(len(columns))]
        op = ["<", "<=", ">", ">=", "=", "!="][rng.integers(6)]
        value = float(np.round(rng.choice(pop[column]), 1))
        predicate = Comparison(column, op, value)
        if rng.random() < 0.3:
            other = columns[rng.integers(len(columns))]
            predicate = predicate & Comparison(
                other, ">", float(np.quantile(pop[other], rng.random()))
            )
        if rng.random() < 0.15:
            predicate = Not(predicate)
        aggregate = aggregates[rng.integers(len(aggregates))]
        column = None if aggregate is Aggregate.COUNT else "blood_pressure"
        queries.append(Query(aggregate, column, predicate))
    return queries


def repeating_workload(pop, rng, n_queries):
    """A 30-query cycle replayed to *n_queries*: 24 random queries and
    three Schlörer tracker pairs.

    After the first round the answered span stops growing, so later
    rounds re-review the same query sets at a stable audit rank.  Each
    tracker pair is a SUM over a padding set C, then over C minus one
    record; once C is answered the second would pin that record's value,
    so it is refused again on every round.
    """
    padding = Comparison("height", ">", float(np.median(pop["height"])))
    cycle = random_workload(pop, rng, 24)
    for record in rng.choice(np.flatnonzero(padding.mask(pop)), 3,
                             replace=False):
        single_out = Comparison("patient_id", "!=",
                                str(pop["patient_id"][record]))
        cycle += [
            Query(Aggregate.SUM, "blood_pressure", padding),
            Query(Aggregate.SUM, "blood_pressure", padding & single_out),
        ]
    return [cycle[i % len(cycle)] for i in range(n_queries)]


def same_value(x, y):
    """Bitwise-identical answer values (NaN for an empty query set is a
    legitimate answer and must match NaN)."""
    if x is None or y is None:
        return x is y
    return x == y or (np.isnan(x) and np.isnan(y))


def assert_sessions_identical(pop, queries, new_policies, seed_policies):
    """Replay *queries* through both stacks; every outcome must match."""
    db_new = StatisticalDatabase(pop, new_policies, seed=0)
    db_seed = StatisticalDatabase(pop, seed_policies, seed=0)
    for query in queries:
        a, b = db_new.ask(query), db_seed.ask(query)
        assert a.refused == b.refused, (query, a, b)
        assert a.reason == b.reason, (query, a, b)
        assert same_value(a.value, b.value), (query, a, b)
        assert a.interval == b.interval, (query, a, b)
    assert db_new.queries_asked == db_seed.queries_asked
    assert db_new.queries_refused == db_seed.queries_refused
    assert len(db_new.history) == len(db_seed.history)
    assert [e.answered for e in db_new.history] == [
        e.answered for e in db_seed.history
    ]


@pytest.mark.parametrize("seed", range(5))
def test_overlap_control_matches_seed(seed):
    """Packed popcount overlap == seed per-entry loop, random workloads
    with varying n, k and max_overlap."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(60, 350))
    pop = patients(n, seed=seed)
    k = int(rng.integers(1, 8))
    max_overlap = int(rng.integers(0, n // 2))
    queries = random_workload(pop, rng, 80)
    assert_sessions_identical(
        pop, queries,
        [QuerySetSizeControl(k), OverlapControl(max_overlap)],
        [QuerySetSizeControl(k), SeedOverlapControl(max_overlap)],
    )


@pytest.mark.parametrize("seed, workload, n_queries", [
    *(pytest.param(seed, random_workload, 80, id=str(seed))
      for seed in range(5, 10)),
    *(pytest.param(seed, repeating_workload, 150, id=f"repeating-{seed}")
      for seed in range(13, 16)),
])
def test_sum_audit_matches_seed(seed, workload, n_queries):
    """Incremental Gram–Schmidt audit == seed full-QR audit, random
    workloads with a mixed aggregate profile, and cycled workloads whose
    repeats the incremental audit serves from its review memo."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(60, 350))
    pop = patients(n, seed=seed)
    k = int(rng.integers(1, 6))
    queries = workload(pop, rng, n_queries)
    assert_sessions_identical(
        pop, queries,
        [QuerySetSizeControl(k), SumAuditPolicy()],
        [QuerySetSizeControl(k), SeedSumAuditPolicy()],
    )


@pytest.mark.parametrize("seed", range(10, 13))
def test_combined_stack_matches_seed(seed):
    """Both optimized policies together == both seed replicas together."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(80, 300))
    pop = patients(n, seed=seed)
    max_overlap = int(rng.integers(n // 4, n))
    queries = random_workload(pop, rng, 60)
    assert_sessions_identical(
        pop, queries,
        [OverlapControl(max_overlap), SumAuditPolicy()],
        [SeedOverlapControl(max_overlap), SeedSumAuditPolicy()],
    )


class TestOverlapChunkInvariance:
    """``OverlapControl`` decides and words its refusals the same for
    every history chunk size, exactly like the seed's per-entry loop.

    The history holds two rows over the threshold for the first probe,
    the later one with the larger overlap (rows 70 and 100, one chunk
    of 64 or 2048 rows): reporting any violating row but the first
    names the wrong overlap.
    """

    N_RECORDS, MAX_OVERLAP = 256, 60
    QUERY = Query(Aggregate.SUM, "x", Comparison("x", ">", 0.0))

    def history_and_probes(self, store):
        rng = np.random.default_rng(21)
        n = self.N_RECORDS
        records = np.arange(n)
        # Random rows meet a 128-record probe in ~26 records, far from 60.
        rows = rng.random((150, n)) < 0.2
        rows[70] = records < 80    # meets the first probe in 80 records
        rows[100] = records < 100  # ... and in 100
        history = QueryHistory(n, store=store)
        for row in rows:
            history.record(LogEntry(self.QUERY, row, True, 1.0))
        probes = [
            records < 128,                      # both rows violate
            (records >= 25) & (records < 145),  # only row 100: 75 > 60
            records >= 128,                     # no row violates
            records < 50,                       # too small to violate
            *(rng.random((4, n)) < 0.5),
        ]
        return history, probes

    @pytest.mark.parametrize("store", ["ram", "memmap"])
    @pytest.mark.parametrize("chunk", [1, 3, 64, 2048])
    def test_reviews_match_the_seed_loop(self, chunk, store):
        history, probes = self.history_and_probes(store)
        policy = OverlapControl(self.MAX_OVERLAP)
        policy._CHUNK = chunk
        seed = SeedOverlapControl(self.MAX_OVERLAP)
        reasons = [
            policy.review(self.QUERY, probe, None, history)
            for probe in probes
        ]
        assert reasons == [
            seed.review(self.QUERY, probe, None, history)
            for probe in probes
        ]
        assert reasons[:4] == [
            "query set overlaps a previous one in 80 records (> 60)",
            "query set overlaps a previous one in 75 records (> 60)",
            None,
            None,
        ]


def golden_session(policies, **db_kwargs):
    """The golden session's answers: 60 random queries on a fixed
    population (``patients(150, seed=42)``, workload rng 99)."""
    pop = patients(150, seed=42)
    rng = np.random.default_rng(99)
    db = StatisticalDatabase(pop, policies, seed=0, **db_kwargs)
    return [db.ask(q) for q in random_workload(pop, rng, 60)]


def golden_fingerprint(answers):
    """(refusal vector, checksum of the answered values)."""
    refusals = "".join("R" if a.refused else "A" for a in answers)
    # nansum: empty-query-set SUM/AVG answers are NaN by contract.
    checksum = float(
        np.nansum([a.value for a in answers if a.value is not None])
    )
    return refusals, checksum


OVERLAP_GOLDEN = (
    "AAAAARRAARAARAAAAARRRAARAAARAAAARAARARRARRRAARARRARRRAAARRRA",
    12866.158211603071,
)
SUM_AUDIT_GOLDEN = (
    "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAARAAAAARAAR",
    63104.77017914514,
)


def assert_golden(answers, golden):
    """*answers* carry the frozen (refusals, checksum) fingerprint."""
    refusals, checksum = golden_fingerprint(answers)
    assert refusals == golden[0]
    assert checksum == pytest.approx(golden[1], rel=1e-12)


class TestGoldenSession:
    """A fixed seed session with a frozen answer/refusal fingerprint.

    Guards against *both* implementations drifting together (which the
    replica comparison cannot see).
    """

    def test_overlap_golden_vector(self):
        assert_golden(golden_session([OverlapControl(40)]), OVERLAP_GOLDEN)

    def test_sum_audit_golden_vector(self):
        assert_golden(golden_session([SumAuditPolicy()]), SUM_AUDIT_GOLDEN)


class TestPackedMaskLog:
    def test_append_and_views(self):
        log = PackedMaskLog(20, initial_capacity=2)
        rng = np.random.default_rng(0)
        masks = [rng.random(20) < 0.5 for _ in range(9)]
        for mask in masks:
            log.append(mask)
        assert len(log) == 9
        assert log.rows.shape == (9, 3)  # ceil(20 / 8) bytes per row
        np.testing.assert_array_equal(
            log.counts, [int(m.sum()) for m in masks]
        )

    def test_overlaps_match_boolean_intersection(self):
        rng = np.random.default_rng(1)
        log = PackedMaskLog(77)
        masks = [rng.random(77) < 0.4 for _ in range(30)]
        for mask in masks:
            log.append(mask)
        candidate = rng.random(77) < 0.6
        expected = [int(np.sum(candidate & m)) for m in masks]
        np.testing.assert_array_equal(
            log.overlaps(log.pack(candidate)), expected
        )
        np.testing.assert_array_equal(
            log.overlaps(log.pack(candidate), 10, 20), expected[10:20]
        )

    def test_growth_beyond_initial_capacity(self):
        log = PackedMaskLog(8, initial_capacity=1)
        for i in range(70):
            mask = np.zeros(8, dtype=bool)
            mask[i % 8] = True
            log.append(mask)
        assert len(log) == 70
        assert log.counts.sum() == 70

    def test_engine_history_mirrors_answered_queries(self):
        pop = patients(100, seed=5)
        db = StatisticalDatabase(pop, [QuerySetSizeControl(5)])
        db.ask("SELECT COUNT(*) WHERE height > 170")
        db.ask("SELECT COUNT(*)")  # refused: query set too large
        db.ask("SELECT AVG(blood_pressure) WHERE weight > 60")
        answered = [e for e in db.history if e.answered]
        assert len(db.history.answered_masks) == len(answered) == 2
        for row, entry in zip(db.history.answered_masks.rows, answered):
            np.testing.assert_array_equal(row, np.packbits(entry.mask))


class TestLazyPacking:
    """``QueryHistory`` packs answered masks only when ``answered_masks``
    is read, catching up on every mask recorded since the last read."""

    @staticmethod
    def _count_appends(monkeypatch):
        appended = []
        append = PackedMaskLog.append

        def counting(log, mask):
            appended.append(mask)
            append(log, mask)

        monkeypatch.setattr(PackedMaskLog, "append", counting)
        return appended

    def test_reads_catch_up_oldest_first(self, monkeypatch):
        appended = self._count_appends(monkeypatch)
        rng = np.random.default_rng(4)
        query = Query(Aggregate.COUNT, None, Comparison("x", ">", 0.0))
        history = QueryHistory(70)
        masks = [rng.random(70) < 0.5 for _ in range(12)]
        for i, mask in enumerate(masks[:7]):
            history.record(LogEntry(query, mask, i % 3 != 2, None))
        assert history.n_answered == 5 and appended == []
        assert len(history.answered_masks) == 5
        for i, mask in enumerate(masks[7:], start=7):
            history.record(LogEntry(query, mask, i % 3 != 2, None))
        assert history.n_answered == 8 and len(appended) == 5
        log = history.answered_masks
        assert len(log) == 8 and len(appended) == 8
        answered = [m for i, m in enumerate(masks) if i % 3 != 2]
        np.testing.assert_array_equal(
            log.rows, [np.packbits(m) for m in answered]
        )
        np.testing.assert_array_equal(
            log.counts, [int(m.sum()) for m in answered]
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_overlap_control_added_after_answers_matches_seed(
            self, monkeypatch, seed):
        appended = self._count_appends(monkeypatch)
        rng = np.random.default_rng(seed)
        pop = patients(int(rng.integers(120, 300)), seed=seed)
        max_overlap = int(rng.integers(5, pop.n_rows // 3))
        queries = random_workload(pop, rng, 90)
        db_new = StatisticalDatabase(pop, [QuerySetSizeControl(3)], seed=0)
        db_seed = StatisticalDatabase(pop, [QuerySetSizeControl(3)], seed=0)
        for query in queries[:40]:
            db_new.ask(query)
            db_seed.ask(query)
        assert appended == []
        answered = db_new.history.n_answered
        assert answered == sum(e.answered for e in db_seed.history) > 0
        db_new.policies.append(OverlapControl(max_overlap))
        db_seed.policies.append(SeedOverlapControl(max_overlap))
        for query in queries[40:]:
            a, b = db_new.ask(query), db_seed.ask(query)
            assert a.refused == b.refused, (query, a, b)
            assert a.reason == b.reason, (query, a, b)
            assert same_value(a.value, b.value), (query, a, b)
        assert db_new.queries_refused == db_seed.queries_refused
        assert len(appended) >= answered


class TestMaskCache:
    def test_repeated_predicates_hit_the_cache(self):
        pop = patients(120, seed=2)
        db = StatisticalDatabase(pop)
        q = "SELECT COUNT(*) WHERE height > 170"
        db.ask(q)
        assert (db.mask_cache_hits, db.mask_cache_misses) == (0, 1)
        db.ask(q)
        db.ask("SELECT SUM(blood_pressure) WHERE height > 170")
        assert (db.mask_cache_hits, db.mask_cache_misses) == (2, 1)

    def test_structurally_equal_predicates_share_one_mask(self):
        pop = patients(120, seed=2)
        db = StatisticalDatabase(pop)
        a = Comparison("height", ">", 170.0) & Comparison("weight", "<", 90.0)
        b = Comparison("height", ">", 170.0) & Comparison("weight", "<", 90.0)
        m1 = db.predicate_mask(a)
        m2 = db.predicate_mask(b)
        assert m1 is m2
        assert not m1.flags.writeable  # shared masks are frozen

    def test_distinct_value_types_do_not_collide(self):
        pop = patients(120, seed=2)
        db = StatisticalDatabase(pop)
        assert (
            Comparison("height", ">", 170).cache_key()
            != Comparison("height", ">", 170.0).cache_key()
        )
        db.predicate_mask(Comparison("height", ">", 170))
        db.predicate_mask(Comparison("height", ">", 170.0))
        assert db.mask_cache_misses == 2
