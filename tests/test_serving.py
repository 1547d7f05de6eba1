"""The sharded serving runtime: routing, admission, cross-shard audit,
caller-run decisions and per-session order.

The acceptance scenario: a Schlörer tracker *split* across sessions on
different shards must be refused by the shared audit view at every shard
count, the isolated-audit control must lose to the identical attack, and
every overload refusal must be typed, frozen-reason, and reconstructable
from the telemetry capture alone.  A query whose shard is idle is decided
on the calling thread, and a session's requests reach the engine in
submission order whichever thread decides them.
"""

import itertools
import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.data import patients
from repro.qdb import (
    PackedMaskLog,
    QuerySetSizeControl,
    Refusal,
    StatisticalDatabase,
    SumAuditPolicy,
    parse_query,
    tracker_targets,
)
from repro.serving import (
    ADMISSION_PREFIX,
    ConsistentHashRouter,
    FakeClock,
    REASON_QUEUE_FULL,
    REASON_RATE_LIMITED,
    ServingRuntime,
    TokenBucket,
    split_tracker_attack,
)
from repro.serving import runtime as runtime_module
from repro.telemetry import instrument as tele
from repro.telemetry.report import load_trace

pytestmark = pytest.mark.usefixtures("clean_telemetry")

PROBE = "SELECT COUNT(*) WHERE height > 170"


@pytest.fixture
def clean_telemetry():
    tele.disable()
    tele.reset_metrics()
    yield
    tele.disable()
    tele.reset_metrics()


def _tracked_population(records=150, seed=3):
    pop = patients(records, seed=seed)
    targets = tracker_targets(pop, ["height", "weight"], 5)
    assert targets, "seeded population must contain a trackable target"
    return pop, targets


class TestRouter:
    def test_deterministic_across_instances(self):
        a, b = ConsistentHashRouter(4), ConsistentHashRouter(4)
        keys = [f"user-{i}" for i in range(500)]
        assert [a.shard_for(k) for k in keys] == [b.shard_for(k) for k in keys]

    def test_all_shards_in_range(self):
        router = ConsistentHashRouter(3)
        shards = {router.shard_for(f"s{i}") for i in range(300)}
        assert shards <= set(range(3))

    def test_resharding_moves_keys_only_to_the_new_shard(self):
        keys = [f"session-{i}" for i in range(1000)]
        for n in (1, 2, 4, 8):
            narrow, wide = ConsistentHashRouter(n), ConsistentHashRouter(n + 1)
            moved = [k for k in keys
                     if narrow.shard_for(k) != wide.shard_for(k)]
            # The consistent-hashing contract: no key migrates between
            # two pre-existing shards when the ring only gained points.
            assert moved, "a wider ring should claim some keys"
            assert all(wide.shard_for(k) == n for k in moved)

    def test_spread_is_roughly_balanced(self):
        router = ConsistentHashRouter(4)
        counts = router.spread(f"user-{i}" for i in range(4000))
        assert set(counts) == {0, 1, 2, 3}
        assert min(counts.values()) > 0
        # vnodes=64 keeps the imbalance well under 3x on 4k keys.
        assert max(counts.values()) < 3 * min(counts.values())

    def test_salt_decorrelates_rings(self):
        sessions = ConsistentHashRouter(4, salt="serving")
        blocks = ConsistentHashRouter(4, salt="blocks")
        keys = [f"k{i}" for i in range(200)]
        assert [sessions.shard_for(k) for k in keys] != \
            [blocks.shard_for(k) for k in keys]

    def test_rejects_degenerate_rings(self):
        with pytest.raises(ValueError):
            ConsistentHashRouter(0)
        with pytest.raises(ValueError):
            ConsistentHashRouter(2, vnodes=0)


class TestTokenBucket:
    def test_burst_then_refill_under_fake_clock(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=clock)
        assert [bucket.try_acquire() for _ in range(4)] == \
            [True, True, True, False]
        clock.advance(0.5)  # 0.5 s * 2/s = exactly one token back
        assert bucket.try_acquire() is True
        assert bucket.try_acquire() is False

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=clock)
        clock.advance(100.0)
        assert [bucket.try_acquire() for _ in range(3)] == \
            [True, True, False]

    def test_rate_zero_is_a_first_b_only_counter(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=0.0, burst=2.0, clock=clock)
        assert bucket.try_acquire() and bucket.try_acquire()
        clock.advance(1e9)  # no refill, ever
        assert bucket.try_acquire() is False

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=-1.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.0)


class TestAdmission:
    def test_rate_limit_refusals_are_typed_audited_and_spanned(self, tmp_path):
        pop, _ = _tracked_population()
        trace = tmp_path / "overload.jsonl"
        with tele.session(trace):
            with ServingRuntime(pop, shards=2, session_rate=0.0,
                                session_burst=2, clock=FakeClock(),
                                auto_start=False) as runtime:
                futures = [runtime.submit("greedy", PROBE)
                           for _ in range(8)]
                runtime.start()
                answers = [f.result() for f in futures]
            stats = runtime.stats()
        refused = [a for a in answers if a.refused]
        assert len(refused) == 6
        for answer in refused:
            assert isinstance(answer, Refusal)
            assert answer.reason.startswith(
                ADMISSION_PREFIX + REASON_RATE_LIMITED
            )
        assert stats["admitted"] == 2
        assert stats["overload_refusals"] == 6
        # The trace alone reconstructs every shed request.
        decisions = [
            d for d in load_trace(trace, validate=True).decisions(
                "degradation")
            if d["component"] == "serving"
        ]
        assert len(decisions) == 6
        assert {d["decision"] for d in decisions} == {"refuse-overload"}
        assert {d["reason"] for d in decisions} == {REASON_RATE_LIMITED}

    def test_queue_full_refusals_are_typed_and_counted(self, tmp_path):
        pop, _ = _tracked_population()
        trace = tmp_path / "backpressure.jsonl"
        with tele.session(trace):
            with ServingRuntime(pop, shards=1, queue_depth=2,
                                auto_start=False) as runtime:
                futures = [runtime.submit("burst", PROBE)
                           for _ in range(5)]
                runtime.start()
                answers = [f.result() for f in futures]
        refused = [a for a in answers if a.refused]
        assert len(refused) == 3
        for answer in refused:
            assert isinstance(answer, Refusal)
            assert answer.reason.startswith(
                ADMISSION_PREFIX + REASON_QUEUE_FULL
            )
        admitted = [a for a in answers if not a.refused]
        assert len(admitted) == 2 and all(a.ok for a in admitted)
        decisions = [
            d for d in load_trace(trace).decisions("degradation")
            if d["component"] == "serving"
        ]
        assert {d["reason"] for d in decisions} == {REASON_QUEUE_FULL}

    def test_admission_never_raises_on_the_query_path(self):
        pop, _ = _tracked_population()
        with ServingRuntime(pop, shards=1, queue_depth=1,
                            auto_start=False) as runtime:
            answers = [runtime.submit("s", PROBE) for _ in range(4)]
            runtime.start()
            results = [f.result(timeout=10) for f in answers]
        assert all(hasattr(a, "refused") for a in results)


class TestCrossShardAudit:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_split_tracker_refused_under_shared_audit(self, shards):
        pop, targets = _tracked_population()
        with ServingRuntime(pop, shards=shards, sum_audit=True) as runtime:
            sessions = runtime.distinct_shard_sessions("split", 2)
            if shards >= 2:
                assert runtime.shard_of(sessions[0]) != \
                    runtime.shard_of(sessions[1])
            outcome = split_tracker_attack(
                runtime, pop, targets[0], ["height", "weight"],
                "blood_pressure", sessions=sessions,
            )
        assert not outcome.succeeded
        assert outcome.refusals >= 1
        assert outcome.detail == "padding or tracker COUNT refused"

    def test_isolated_audits_lose_to_the_split_tracker(self):
        # The negative control: identical attack, per-shard audits only.
        pop, targets = _tracked_population()
        with ServingRuntime(pop, shards=2, sum_audit=True,
                            shared_audit=False) as runtime:
            sessions = runtime.distinct_shard_sessions("split", 2)
            assert runtime.shard_of(sessions[0]) != \
                runtime.shard_of(sessions[1])
            outcome = split_tracker_attack(
                runtime, pop, targets[0], ["height", "weight"],
                "blood_pressure", sessions=sessions,
            )
        assert outcome.succeeded and outcome.exact

    def test_sharded_decisions_match_a_single_engine(self):
        # Decision equivalence: one analyst's serialized workload through
        # the 4-shard runtime refuses and answers exactly like a lone
        # StatisticalDatabase with the same policy stack.  (Reason
        # strings differ by the "cross-shard-audit: " wrapper, so the
        # comparison pins refused flags and answered values.)
        pop, _ = _tracked_population()
        workload = [
            "SELECT COUNT(*) WHERE height > 170",
            "SELECT AVG(blood_pressure) WHERE height > 170",
            "SELECT SUM(blood_pressure) WHERE height > 170",
            "SELECT SUM(blood_pressure) WHERE height > 170 AND weight > 70",
            "SELECT SUM(blood_pressure) WHERE height > 170 AND weight <= 70",
            "SELECT COUNT(*) WHERE weight <= 80",
            "SELECT COUNT(*)",
        ]
        single = StatisticalDatabase(
            pop, [QuerySetSizeControl(5), SumAuditPolicy()]
        )
        with single.session("analyst"):
            truth = single.ask_batch(workload)
        with ServingRuntime(pop, shards=4, sum_audit=True) as runtime:
            served = [runtime.ask("analyst", q) for q in workload]
        assert [a.refused for a in served] == [t.refused for t in truth]
        for answer, expected in zip(served, truth):
            if not expected.refused:
                assert answer.value == pytest.approx(expected.value)
        assert any(t.refused for t in truth), \
            "workload must exercise at least one refusal"

    def test_audit_view_counts_committed_answers(self):
        pop, _ = _tracked_population()
        with ServingRuntime(pop, shards=2, sum_audit=True) as runtime:
            runtime.ask("a", "SELECT COUNT(*) WHERE height > 170")
            runtime.ask("b", "SELECT COUNT(*) WHERE weight <= 80")
            stats = runtime.stats()
        assert stats["audit_answered"] == 2
        assert stats["shared_audit"] is True


class TestPirScatter:
    def test_scatter_gather_roundtrip_in_request_order(self):
        pop, _ = _tracked_population()
        values = [int(v) for v in pop["blood_pressure"][:16]]
        with ServingRuntime(pop, shards=4, pir_values=values) as runtime:
            assert runtime.n_blocks == 16
            indices = [15, 0, 7, 7, 3, 12]
            got = runtime.retrieve_batch_int("reader", indices, seed=11)
        assert got == [values[i] for i in indices]

    def test_blocks_partition_over_all_busy_shards(self):
        pop, _ = _tracked_population()
        values = list(range(64))
        with ServingRuntime(pop, shards=4, pir_values=values) as runtime:
            got = runtime.retrieve_batch_int("reader", range(64))
            stats = runtime.stats()
        assert got == values
        assert sum(s["pir_blocks"] for s in stats["shards"]) == 64
        busy = [s for s in stats["shards"] if s["pir_positions"]]
        assert len(busy) >= 2

    def test_pir_requires_blocks(self):
        pop, _ = _tracked_population()
        with ServingRuntime(pop, shards=1) as runtime:
            with pytest.raises(ValueError):
                runtime.submit_pir("reader", [0])

    def test_out_of_range_index_raises_in_the_caller(self):
        """No negative index wraps around to a block, and no index past
        the end reaches a worker."""
        pop, _ = _tracked_population()
        values = list(range(100, 164))
        with ServingRuntime(pop, shards=4, pir_values=values) as runtime:
            for bad, first in (([-1, -64], -1), ([-65], -65), ([64], 64),
                               ([3, 64, -2], 64)):
                with pytest.raises(IndexError, match=rf"^index {first} "
                                   r"out of range \[0, 64\)$"):
                    runtime.submit_pir("reader", bad, seed=1)
            got = runtime.retrieve_batch_int("reader", [63, 0], seed=1)
        assert got == [163, 100]

    def test_one_seed_draws_distinct_masks_on_every_slice(self):
        """A retrieval passes its one seed to every owning slice; each
        slice must still draw its own masks, or XORing two slices' views
        of one server reveals the requested local indices."""
        pop = patients(64, seed=0).drop(["patient_id"])
        values = list(range(4096))
        indices = np.random.default_rng(5).integers(0, 4096, 16).tolist()
        with ServingRuntime(pop, shards=4, pir_values=values) as runtime:
            got = runtime.retrieve_batch_int("reader", indices, seed=1234)
        assert got == indices
        slices = [shard.pir for shard in runtime.shards]
        assert all(pir.batch_views(0) is not None for pir in slices)
        for a, b in itertools.combinations(slices, 2):
            common = min(a.n, b.n)
            view_a = a.batch_views(0)[0]
            view_b = b.batch_views(0)[0]
            assert not np.array_equal(view_a[view_a < common],
                                      view_b[view_b < common])

    def test_every_slice_is_read_on_the_session_shard_worker(
            self, monkeypatch):
        pop, _ = _tracked_population()
        values = list(range(256))
        with ServingRuntime(pop, shards=4, pir_values=values) as runtime:
            readers = []
            for shard in runtime.shards:
                read = shard.pir.retrieve_batch_int

                def recording(indices, rng=None, _read=read):
                    readers.append(threading.current_thread().name)
                    return _read(indices, rng=rng)

                monkeypatch.setattr(shard.pir, "retrieve_batch_int",
                                    recording)
            for session in runtime.distinct_shard_sessions("reader", 4):
                del readers[:]
                got = runtime.retrieve_batch_int(session, range(256), seed=3)
                assert got == values
                home = runtime.shard_of(session)
                assert readers == [f"serving-shard{home}-w0"] * 4

    def test_a_failing_slice_fails_its_retrieval_only(self, monkeypatch):
        pop, _ = _tracked_population()
        values = list(range(64))
        with ServingRuntime(pop, shards=4, pir_values=values) as runtime:
            def unavailable(indices, rng=None):
                raise RuntimeError("slice unavailable")

            monkeypatch.setattr(runtime.shards[2].pir, "retrieve_batch_int",
                                unavailable)
            future = runtime.submit_pir("reader", range(64), seed=1)
            with pytest.raises(RuntimeError, match="slice unavailable"):
                future.result(timeout=30)
            monkeypatch.undo()
            assert runtime.retrieve_batch_int("reader", range(64),
                                              seed=2) == values

    @pytest.mark.parametrize("workers", [1, 2])
    def test_concurrent_retrievals_are_exact_and_counted(self, workers):
        pop, _ = _tracked_population()
        values = [7 * v - 300 for v in range(512)]
        requested = [0] * 4
        failures: list[str] = []
        with ServingRuntime(pop, shards=4, pir_values=values,
                            workers_per_shard=workers) as runtime:
            before = sum(s["pir_positions"]
                         for s in runtime.stats()["shards"])

            def reader(thread: int) -> None:
                rng = np.random.default_rng(thread)
                for op in range(25):
                    indices = rng.integers(0, 512, rng.integers(1, 33))
                    indices = indices.tolist()
                    try:
                        got = runtime.retrieve_batch_int(
                            f"reader-{thread}", indices,
                            seed=100 * thread + op,
                        )
                    except Exception as exc:
                        failures.append(f"thread {thread} op {op}: {exc!r}")
                        continue
                    requested[thread] += len(indices)
                    if got != [values[i] for i in indices]:
                        failures.append(f"thread {thread} op {op}")

            threads = [threading.Thread(target=reader, args=(t,))
                       for t in range(4)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            after = sum(s["pir_positions"]
                        for s in runtime.stats()["shards"])
        assert failures == []
        assert after - before == sum(requested)


class TestRuntimeLifecycle:
    def test_distinct_shard_sessions_are_distinct_and_stable(self):
        pop, _ = _tracked_population()
        with ServingRuntime(pop, shards=4) as runtime:
            labels = runtime.distinct_shard_sessions("cohort", 3)
            assert len(labels) == 3
            shards = [runtime.shard_of(label) for label in labels]
            assert len(set(shards)) == 3
            assert labels == runtime.distinct_shard_sessions("cohort", 3)

    def test_single_shard_runtime_pads_session_labels(self):
        pop, _ = _tracked_population()
        with ServingRuntime(pop, shards=1) as runtime:
            labels = runtime.distinct_shard_sessions("cohort", 2)
        assert len(labels) == 2 and len(set(labels)) == 2

    def test_with_block_honours_auto_start_false(self):
        pop, _ = _tracked_population()
        with ServingRuntime(pop, shards=2, auto_start=False) as runtime:
            assert all(not shard.threads for shard in runtime.shards)
            runtime.start()
            assert all(shard.threads for shard in runtime.shards)

    def test_close_is_idempotent_and_restartable(self):
        pop, _ = _tracked_population()
        runtime = ServingRuntime(pop, shards=2)
        assert runtime.ask("s", "SELECT COUNT(*) WHERE height > 170").ok
        runtime.close()
        runtime.close()
        runtime.start()
        assert runtime.ask("s", "SELECT COUNT(*) WHERE weight <= 80").ok
        runtime.close()

    def test_rejects_degenerate_configuration(self):
        pop, _ = _tracked_population()
        with pytest.raises(ValueError):
            ServingRuntime(pop, shards=0)
        with pytest.raises(ValueError):
            ServingRuntime(pop, shards=1, queue_depth=0)


class TestCallerRun:
    """A query whose shard is idle is decided on the calling thread."""

    @staticmethod
    def _record_deciders(monkeypatch, shard, deciders):
        ask_batch = shard.db.ask_batch

        def recording(queries):
            deciders.append(threading.current_thread().name)
            return ask_batch(queries)

        monkeypatch.setattr(shard.db, "ask_batch", recording)

    def test_idle_shard_returns_a_resolved_future(self, monkeypatch):
        pop, _ = _tracked_population()
        with ServingRuntime(pop, shards=2) as runtime:
            shard = runtime.shards[runtime.shard_of("alice")]
            deciders = []
            self._record_deciders(monkeypatch, shard, deciders)
            future = runtime.submit("alice", PROBE)
            assert future.done()
            assert future.result().ok
            assert deciders == [threading.current_thread().name]
            assert shard.queue.unfinished_tasks == 0
            stats = runtime.stats()
        assert stats["shards"][shard.index]["processed"] == 1
        assert stats["admitted"] == 1

    def test_held_back_runtime_queues_until_started(self, monkeypatch):
        pop, _ = _tracked_population()
        with ServingRuntime(pop, shards=1, auto_start=False) as runtime:
            deciders = []
            self._record_deciders(monkeypatch, runtime.shards[0], deciders)
            futures = [runtime.submit("alice", PROBE)
                       for _ in range(3)]
            assert not any(future.done() for future in futures)
            assert runtime.shards[0].queue.qsize() == 3
            runtime.start()
            assert all(f.result(timeout=30).ok for f in futures)
        assert deciders and set(deciders) == {"serving-shard0-w0"}

    def test_drain_waits_for_a_caller_run_decision(self, monkeypatch):
        pop, _ = _tracked_population()
        with ServingRuntime(pop, shards=1) as runtime:
            shard = runtime.shards[0]
            entered, release = threading.Event(), threading.Event()
            ask_batch = shard.db.ask_batch

            def held(queries):
                entered.set()
                assert release.wait(30)
                return ask_batch(queries)

            monkeypatch.setattr(shard.db, "ask_batch", held)
            caller = threading.Thread(
                target=runtime.ask, args=("alice", PROBE),
                name="caller",
            )
            caller.start()
            drained = threading.Event()
            drainer = threading.Thread(
                target=lambda: (runtime.drain(), drained.set())
            )
            try:
                assert entered.wait(30)
                drainer.start()
                assert not drained.wait(0.2)
                # The claimed shard queues the next query behind the claim.
                queued = runtime.submit("bob", PROBE)
                assert not queued.done()
            finally:
                release.set()
            caller.join(30)
            drainer.join(30)
            assert drained.is_set()
            assert queued.result(timeout=30).ok

    def test_keyboard_interrupt_reaches_the_caller(self, monkeypatch):
        pop, _ = _tracked_population()
        with ServingRuntime(pop, shards=1) as runtime:
            shard = runtime.shards[0]
            ask_batch = shard.db.ask_batch

            def interrupted(queries):
                raise KeyboardInterrupt

            monkeypatch.setattr(shard.db, "ask_batch", interrupted)
            with pytest.raises(KeyboardInterrupt):
                runtime.submit("alice", PROBE)
            # The claim was released: the shard is idle again.
            assert shard.queue.unfinished_tasks == 0
            monkeypatch.setattr(shard.db, "ask_batch", ask_batch)
            assert runtime.submit("alice", PROBE).result().ok

    def test_a_worker_survives_a_keyboard_interrupt(self, monkeypatch):
        pop, _ = _tracked_population()
        with ServingRuntime(pop, shards=1, auto_start=False) as runtime:
            shard = runtime.shards[0]
            ask_batch = shard.db.ask_batch

            def interrupted(queries):
                monkeypatch.setattr(shard.db, "ask_batch", ask_batch)
                raise KeyboardInterrupt

            monkeypatch.setattr(shard.db, "ask_batch", interrupted)
            failed = runtime.submit("alice", PROBE)
            runtime.start()
            assert isinstance(failed.exception(timeout=30),
                              KeyboardInterrupt)
            runtime.drain()
            assert all(thread.is_alive() for thread in shard.threads)
            # A queued query still reaches the surviving worker.
            monkeypatch.setattr(shard, "try_decide_here",
                                lambda request: False)
            assert runtime.submit("alice", PROBE).result(
                timeout=30).ok

    def test_an_engine_error_resolves_the_future(self, monkeypatch):
        pop, _ = _tracked_population()
        with ServingRuntime(pop, shards=1) as runtime:
            shard = runtime.shards[0]

            def broken(queries):
                raise RuntimeError("engine bug")

            monkeypatch.setattr(shard.db, "ask_batch", broken)
            future = runtime.submit("alice", PROBE)
            assert shard.queue.unfinished_tasks == 0
        with pytest.raises(RuntimeError, match="engine bug"):
            future.result(timeout=0)

    def test_a_caller_run_decision_yields_the_cpu_once(self, monkeypatch):
        """Client threads take turns: each caller-run decision gives up
        the CPU once; a query decided by a worker does not."""
        yields = []
        monkeypatch.setattr(runtime_module, "_yield_cpu",
                            lambda: yields.append(
                                threading.current_thread().name))
        pop, _ = _tracked_population()
        with ServingRuntime(pop, shards=1, auto_start=False) as runtime:
            queued = runtime.submit("alice", PROBE)
            runtime.start()
            assert queued.result(timeout=30).ok
            runtime.drain()
            assert yields == []
            assert runtime.submit("alice", PROBE).done()
        assert yields == [threading.current_thread().name]

    def test_audit_answered_counts_without_packing(self, monkeypatch):
        pop, _ = _tracked_population()
        appended = []
        monkeypatch.setattr(PackedMaskLog, "append",
                            lambda log, mask: appended.append(mask))
        with ServingRuntime(pop, shards=2, sum_audit=True) as runtime:
            runtime.ask("a", "SELECT COUNT(*) WHERE height > 170")
            runtime.ask("b", "SELECT COUNT(*) WHERE weight <= 80")
            runtime.ask("b", "SELECT COUNT(*)")  # refused: too large
            assert runtime.view.answered == 2
            assert runtime.stats()["audit_answered"] == 2
        assert appended == []


class TestSessionOrder:
    """A session's requests reach the engine in submission order,
    whether they are decided on the calling thread or by a worker."""

    def test_query_queues_behind_its_sessions_retrieval_in_flight(
            self, monkeypatch):
        """The worker holds the retrieval, so the queue is empty but the
        shard is busy: the session's next query must queue."""
        pop, _ = _tracked_population()
        with ServingRuntime(pop, shards=1,
                            pir_values=list(range(64))) as runtime:
            shard = runtime.shards[0]
            events = []
            entered, release = threading.Event(), threading.Event()
            read = shard.pir.retrieve_batch_int

            def held(indices, rng=None):
                entered.set()
                assert release.wait(30)
                events.append("pir")
                return read(indices, rng=rng)

            ask_batch = shard.db.ask_batch

            def recording(queries):
                events.append(("qdb", threading.current_thread().name))
                return ask_batch(queries)

            monkeypatch.setattr(shard.pir, "retrieve_batch_int", held)
            monkeypatch.setattr(shard.db, "ask_batch", recording)
            retrieval = runtime.submit_pir("s", [3], seed=1)
            try:
                assert entered.wait(30)
                assert shard.queue.qsize() == 0
                query = runtime.submit("s", PROBE)
                assert not query.done()
            finally:
                release.set()
            assert retrieval.result(timeout=30) == [3]
            assert query.result(timeout=30).ok
        assert events == ["pir", ("qdb", "serving-shard0-w0")]

    def test_pipelined_sessions_keep_submission_order_under_stress(
            self, monkeypatch):
        """More client threads than cores (up to 16) pipeline queries
        and retrievals onto two shared shards, with a short switch interval
        and a queue deep enough to refuse nothing.  Every session's
        requests must reach the engine in the order it submitted them,
        every future must resolve, and the counters must be exact."""
        pop, _ = _tracked_population()
        clients = min(16, (os.cpu_count() or 1) + 2)
        deadline = time.monotonic() + 8.0
        trials = 0
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            while trials < 20 and time.monotonic() < deadline:
                trials += 1
                self._one_trial(monkeypatch, pop, clients)
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def _one_trial(monkeypatch, pop, clients, per_client=96):
        texts = [f"SELECT COUNT(*) WHERE height > {150 + i % 40}"
                 for i in range(per_client)]
        events = []  # (session, query or retrieval seed), in engine order
        submitted: dict[str, list] = {}
        futures: dict[str, list] = {}
        with ServingRuntime(pop, shards=2,
                            queue_depth=clients * per_client,
                            pir_values=list(range(64))) as runtime:
            for shard in runtime.shards:
                ask_batch = shard.db.ask_batch

                def recording(queries, _db=shard.db, _ask=ask_batch):
                    for query in queries:
                        events.append((_db.session_label, query))
                    return _ask(queries)

                read = shard.pir.retrieve_batch_int

                def reading(indices, rng=None, _read=read):
                    events.append((f"client-{rng // 1000}", rng))
                    return _read(indices, rng=rng)

                monkeypatch.setattr(shard.db, "ask_batch", recording)
                monkeypatch.setattr(shard.pir, "retrieve_batch_int", reading)

            def client(c: int) -> None:
                session = f"client-{c}"
                order = submitted[session] = []
                pending = futures[session] = []
                for i in range(per_client):
                    if i % 3 == 1:
                        # One index: one slice read per retrieval.
                        order.append(1000 * c + i)
                        pending.append(runtime.submit_pir(
                            session, [i % 2], seed=order[-1]))
                    else:
                        order.append(parse_query(texts[i]))
                        pending.append(runtime.submit(session, texts[i]))

            threads = [threading.Thread(target=client, args=(c,))
                       for c in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            for pending in futures.values():
                for i, future in enumerate(pending):
                    result = future.result(timeout=30)
                    if i % 3 == 1:
                        assert result == [i % 2]
            drainer = threading.Thread(target=runtime.drain)
            drainer.start()
            drainer.join(timeout=30)
            assert not drainer.is_alive()
            stats = runtime.stats()
        retrievals = clients * (per_client // 3)
        queries = clients * per_client - retrievals
        assert sum(s["processed"] for s in stats["shards"]) == queries
        assert sum(s["pir_positions"] for s in stats["shards"]) == retrievals
        assert stats["admitted"] == queries
        out_of_order = sorted(
            session for session, order in submitted.items()
            if [item for label, item in events if label == session] != order
        )
        assert out_of_order == []
