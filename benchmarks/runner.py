"""Benchmark-regression harness for the vectorized hot-path kernels.

Times the named kernels (PIR single/batch retrieval at several database
sizes, MDAV microaggregation at several n x k, probabilistic linkage,
and the query-engine auditing hot paths at session depth H=2000 over
n=5000 records), normalizes wall times against a machine calibration
loop, writes the results to ``BENCH_hotpaths.json``, and — with
``--check`` — compares the normalized times against the committed
baselines in :mod:`benchmarks.baselines`, exiting nonzero on regression.

Usage::

    python -m benchmarks.runner                      # time + write JSON
    python -m benchmarks.runner --check              # fail on regression
    python -m benchmarks.runner --list               # print kernel names
    python -m benchmarks.runner --trials 1 --no-compare   # CI smoke

Replicas of the seed implementations (the per-byte XOR PIR loop, the
per-entry overlap loop, the full-QR audit — see
:mod:`benchmarks.seed_replicas`) are timed alongside the optimized
kernels so every recorded ``*_vs_seed`` speedup stays honest on any
machine, and replicas of the pre-kernel-tier uint8 pipelines
(:mod:`benchmarks.uint8_replicas`) back the ``*_vs_uint8`` speedups
that gate the word-level kernel tier.  The JSON records which kernel
backend produced the numbers (``results["backend"]``); ``--check``
refuses to compare against baselines measured on a different backend.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import itertools
import json
import shutil
import statistics
import sys
import tempfile
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.attacks import ProbabilisticLinkageAttack
from repro.data import patients
from repro.faults import Fault, FaultPlan, ResilientXorPIR
from repro.kernels import MemmapBlockStore, backend_info
from repro.pir import MultiServerXorPIR, SquareSchemePIR, TwoServerXorPIR
from repro.qdb import (
    Aggregate,
    Answer,
    Comparison,
    LogEntry,
    OverlapControl,
    Query,
    QueryHistory,
    QuerySetSizeControl,
    StatisticalDatabase,
    SumAuditPolicy,
    TruePredicate,
)
from repro.sdc.microaggregation import mdav_groups
from repro.telemetry import process_registry

from .baselines import (
    BASELINE_BACKEND,
    BASELINES,
    MAX_OVERHEADS,
    MAX_SERVING_P99_NORMALIZED,
    MIN_SPEEDUPS,
    TOLERANCE,
)
from .seed_replicas import SeedOverlapControl, SeedSumAuditPolicy
from .uint8_replicas import Uint8BatchPIR, Uint8MaskLog, uint8_overlap_review

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_hotpaths.json"

# (optimized kernel, timed seed replica) pairs; the recorded speedup
# ``<kernel>_vs_seed`` must stay above its MIN_SPEEDUPS entry under
# --check.
SPEEDUP_PAIRS = [
    ("pir_single_retrieve_n4096", "seed_pir_single_retrieve_n4096"),
    ("qdb_overlap_h2000", "seed_qdb_overlap"),
    ("qdb_sum_audit", "seed_qdb_sum_audit"),
]

# (word-kernel workload, frozen uint8 replica) pairs; the recorded
# speedup ``<kernel>_vs_uint8`` must stay above its MIN_SPEEDUPS entry
# under --check — the gates on the kernel tier itself.
UINT8_PAIRS = [
    ("pir_batch64_retrieve_n65536", "ref_uint8_pir_batch64_retrieve_n65536"),
    ("qdb_overlap_h2000", "ref_uint8_qdb_overlap_h2000"),
]

# (wrapped kernel, bare kernel) pairs; the recorded ratio for each pair
# must stay below MAX_OVERHEADS[wrapped] under --check — the gates that
# keep the fault-tolerance layer out of the fault-free hot path, the
# telemetry/observatory layer out of the disabled hot path's budget, and
# the resident observatory service (session timelines + SSE fan-out with
# a live HTTP subscriber) out of the enabled hot path's budget.
OVERHEAD_PAIRS = [
    ("pir_faulty_batch64_retrieve_n4096", "pir_batch64_retrieve_n4096"),
    ("telemetry_overhead_qdb_ask_batch", "qdb_ask_batch"),
    ("observatory_sse_fanout", "ref_observatory_attached_ask_batch"),
    ("serving_traced_qps", "ref_telemetry_serving_qps"),
    ("serving_profiled_qps", "serving_qps"),
]

# Overhead pairs whose workload runs five threads (router plus four
# shard workers).  On the cores CI actually grants — often exactly one —
# a wall-clock ratio of such a workload measures the scheduler's
# interleaving luck, not the layer under test: adjacent-pair wall ratios
# observed here spread 0.9x-1.9x and their medians drift 1.13-1.18
# across runs while the process-CPU ratio sits stably near 1.06.  These
# pairs are therefore gated on process CPU time, which sums every
# thread's actual work — exactly the quantity the traced/profiled layer
# adds — and is immune to preemption by other tenants.
CPU_CLOCK_OVERHEADS = {"serving_traced_qps", "serving_profiled_qps"}


def _pir_blocks(n: int, block_size: int = 64) -> list[bytes]:
    return [bytes([i % 256]) * block_size for i in range(n)]


def _seed_style_retrieve(blocks: list[bytes], index: int, seed: int) -> bytes:
    """Faithful replica of the seed's per-byte two-server retrieval loop."""
    rng = np.random.default_rng(seed)
    n = len(blocks)
    subset = rng.random(n) < 0.5
    s1 = set(np.flatnonzero(subset).tolist())
    s2 = set(s1)
    s2 ^= {index}
    size = len(blocks[0])

    def answer(indices):
        acc = bytearray(size)
        for i in indices:
            block = blocks[i]
            for j in range(size):
                acc[j] ^= block[j]
        return bytes(acc)

    a1 = answer(sorted(s1))
    a2 = answer(sorted(s2))
    return bytes(x ^ y for x, y in zip(a1, a2))


@dataclass
class Kernel:
    """One named hot-path workload: setup once, time ``reps`` runs."""

    name: str
    setup: Callable[[], Callable[[], object]]
    reps: int = 1
    # Reference kernels document a comparison point (the seed's pure-Python
    # loop); they are never compared against baselines.
    reference_only: bool = False


def _pir_single(n: int) -> Callable[[], Callable[[], object]]:
    def setup():
        pir = TwoServerXorPIR(_pir_blocks(n))
        state = {"seed": 0}

        def run():
            state["seed"] += 1
            return pir.retrieve(n // 2, state["seed"])

        return run

    return setup


def _pir_batch(n: int, batch: int) -> Callable[[], Callable[[], object]]:
    def setup():
        pir = TwoServerXorPIR(_pir_blocks(n))
        indices = list(range(0, n, max(1, n // batch)))[:batch]
        pir.retrieve_batch(indices[:2], 0)  # build the bit matrix once
        state = {"seed": 0}

        def run():
            state["seed"] += 1
            return pir.retrieve_batch(indices, state["seed"])

        return run

    return setup


def _pir_uint8_batch(n: int, batch: int) -> Callable[[], Callable[[], object]]:
    """The frozen pre-kernel-tier batched retrieval (uint8/float GEMM)."""

    def setup():
        db = np.frombuffer(
            b"".join(_pir_blocks(n)), dtype=np.uint8
        ).reshape(n, -1)
        pir = Uint8BatchPIR(db)
        indices = list(range(0, n, max(1, n // batch)))[:batch]
        state = {"seed": 0}

        def run():
            state["seed"] += 1
            return pir.retrieve_batch(
                indices, np.random.default_rng(state["seed"])
            )

        return run

    return setup


_MEMMAP_DIR: list[str] = []


def _memmap_dir() -> Path:
    """A per-process scratch directory for memmap stores, removed at exit."""
    if not _MEMMAP_DIR:
        path = tempfile.mkdtemp(prefix="repro-bench-memmap-")
        _MEMMAP_DIR.append(path)
        atexit.register(shutil.rmtree, path, ignore_errors=True)
    return Path(_MEMMAP_DIR[0])


def _pir_memmap_batch(
    n: int, batch: int, ram_budget: int
) -> Callable[[], Callable[[], object]]:
    """Batched retrieval over a memory-mapped store scanned under a RAM
    budget — the database-larger-than-RAM configuration, on disk once and
    answered in ``chunk_rows`` slices."""

    def setup():
        path = _memmap_dir() / f"pir-n{n}.npy"
        if not path.exists():
            blocks = np.broadcast_to(
                (np.arange(n) % 256).astype(np.uint8)[:, None], (n, 64)
            )
            MemmapBlockStore.create(path, blocks)
        store = MemmapBlockStore(path, mode="r", ram_budget=ram_budget)
        pir = TwoServerXorPIR(store)
        indices = list(range(0, n, max(1, n // batch)))[:batch]
        pir.retrieve_batch(indices[:2], 0)  # fault the pages in once
        state = {"seed": 0}

        def run():
            state["seed"] += 1
            return pir.retrieve_batch(indices, state["seed"])

        return run

    return setup


def _pir_square(n: int) -> Callable[[], Callable[[], object]]:
    def setup():
        pir = SquareSchemePIR(_pir_blocks(n))
        state = {"seed": 0}

        def run():
            state["seed"] += 1
            return pir.retrieve(n // 2, state["seed"])

        return run

    return setup


def _pir_multiserver(n: int, servers: int) -> Callable[[], Callable[[], object]]:
    def setup():
        pir = MultiServerXorPIR(_pir_blocks(n), n_servers=servers)
        state = {"seed": 0}

        def run():
            state["seed"] += 1
            return pir.retrieve(n // 2, state["seed"])

        return run

    return setup


def _pir_faulty_batch(n: int, batch: int) -> Callable[[], Callable[[], object]]:
    """The resilient front-end with no faults and f=0 (one replica group).

    Same workload as ``pir_batch64_retrieve_n4096``; the measured delta
    is the pure wrapping cost (plan bookkeeping, delivery fast path,
    per-block reports) that OVERHEAD_PAIRS bounds at <10%.
    """

    def setup():
        pir = ResilientXorPIR(_pir_blocks(n), f=0, plan=FaultPlan())
        indices = list(range(0, n, max(1, n // batch)))[:batch]
        pir.retrieve_batch(indices[:2], 0)  # build the bit matrices once
        state = {"seed": 0}

        def run():
            state["seed"] += 1
            return pir.retrieve_batch(indices, state["seed"])

        return run

    return setup


def _pir_faulty_single(n: int) -> Callable[[], Callable[[], object]]:
    """Resilient retrieval with f=1 and a byzantine replica actually lying.

    Times the full fault path: 3 replica groups, per-delivery resolution
    and majority voting that outvotes the byzantine candidate every call.
    """

    def setup():
        plan = FaultPlan([Fault("byzantine", "pir.replica:0")], seed=9)
        pir = ResilientXorPIR(_pir_blocks(n), f=1, plan=plan)
        state = {"seed": 0}

        def run():
            state["seed"] += 1
            return pir.retrieve(n // 2, state["seed"])

        return run

    return setup


def _seed_pir_single(n: int) -> Callable[[], Callable[[], object]]:
    def setup():
        blocks = _pir_blocks(n)
        state = {"seed": 0}

        def run():
            state["seed"] += 1
            return _seed_style_retrieve(blocks, n // 2, state["seed"])

        return run

    return setup


def _mdav(n: int, k: int) -> Callable[[], Callable[[], object]]:
    def setup():
        matrix = np.random.default_rng(7).normal(size=(n, 4))
        return lambda: mdav_groups(matrix, k)

    return setup


def _linkage(n: int) -> Callable[[], Callable[[], object]]:
    def setup():
        pop = patients(n, seed=3)
        attack = ProbabilisticLinkageAttack(["height", "weight", "age"])
        return lambda: attack.run(pop, pop)

    return setup


_QDB_DUMMY_QUERY = Query(Aggregate.SUM, "x", TruePredicate())


def _qdb_overlap(
    h: int, n: int, seed_impl: bool = False
) -> Callable[[], Callable[[], object]]:
    """Overlap review at session depth *h* over *n* records.

    The history holds ``h`` answered ~n/2-sized random query sets; each
    rep audits 8 probe query sets against the full history.
    ``max_overlap`` sits above every actual overlap (~n/4) but below the
    probe sizes (~n/2), so neither implementation can refuse or skip the
    scan — the timed work is the complete history pass.
    """
    max_overlap = (2 * n) // 5

    def setup():
        rng = np.random.default_rng(11)
        hist_masks = rng.random((h, n)) < 0.5
        probes = list(rng.random((8, n)) < 0.5)
        if seed_impl:
            policy = SeedOverlapControl(max_overlap)
            history: list = [
                LogEntry(_QDB_DUMMY_QUERY, m, True, 1.0) for m in hist_masks
            ]
        else:
            policy = OverlapControl(max_overlap)
            history = QueryHistory(n)
            for m in hist_masks:
                history.record(LogEntry(_QDB_DUMMY_QUERY, m, True, 1.0))

        def run():
            for probe in probes:
                reason = policy.review(_QDB_DUMMY_QUERY, probe, None, history)
                if reason is not None:  # would skew the timing
                    raise RuntimeError(f"unexpected refusal: {reason}")

        return run

    return setup


def _qdb_overlap_uint8(h: int, n: int) -> Callable[[], Callable[[], object]]:
    """The ``_qdb_overlap`` workload on the frozen uint8 audit pipeline."""
    max_overlap = (2 * n) // 5

    def setup():
        rng = np.random.default_rng(11)
        hist_masks = rng.random((h, n)) < 0.5
        probes = list(rng.random((8, n)) < 0.5)
        log = Uint8MaskLog(n)
        for m in hist_masks:
            log.append(m)

        def run():
            for probe in probes:
                reason = uint8_overlap_review(probe, log, max_overlap)
                if reason is not None:  # would skew the timing
                    raise RuntimeError(f"unexpected refusal: {reason}")

        return run

    return setup


def _qdb_sum_audit(
    h: int, n: int, n_unique: int, seed_impl: bool = False
) -> Callable[[], Callable[[], object]]:
    """Sum-audit review+transform at session depth *h* over *n* records.

    The answered session is ``h`` queries cycling over ``n_unique``
    nested threshold predicates, so the audit basis holds ``n_unique``
    orthonormal rows — exactly the state both implementations carry after
    those ``h`` answers (the basis depends only on the answered span).
    Each rep audits and commits 4 query sets the run has not reviewed
    yet: interval indicators ``(col > a) & (col <= b)`` of the nested
    thresholds.  They lie in the answered span, so each is approved
    without growing the basis — the steady-state cost of one more query
    at that depth.  Fresh sets keep every review a projection: the
    incremental policy memoizes a repeated set's outcome until its basis
    grows, so re-auditing answered sets would time only that memo.
    """

    def setup():
        rng = np.random.default_rng(13)
        col = rng.integers(0, n_unique, n)
        unique_masks = [col <= t for t in range(n_unique)]
        assert h >= len(unique_masks)
        if seed_impl:
            policy = SeedSumAuditPolicy()
            # The seed basis after the session: orthonormalize the unique
            # indicator span in one shot (state-equivalent, setup-cheap).
            stacked = np.array(unique_masks, dtype=np.float64)
            q, r = np.linalg.qr(stacked.T, mode="reduced")
            keep = np.abs(np.diag(r)) > policy.tolerance
            policy._basis = q[:, keep].T
        else:
            policy = SumAuditPolicy()
            for mask in unique_masks:
                policy.review(_QDB_DUMMY_QUERY, mask, None, [])
                policy.transform(
                    _QDB_DUMMY_QUERY, Answer(_QDB_DUMMY_QUERY, value=1.0),
                    mask, None, None,
                )
        intervals = itertools.combinations(range(n_unique), 2)

        def run():
            for a, b in itertools.islice(intervals, 4):
                mask = (col > a) & (col <= b)
                reason = policy.review(_QDB_DUMMY_QUERY, mask, None, [])
                if reason is not None:
                    raise RuntimeError(f"unexpected refusal: {reason}")
                policy.transform(
                    _QDB_DUMMY_QUERY, Answer(_QDB_DUMMY_QUERY, value=1.0),
                    mask, None, None,
                )

        return run

    return setup


def _qdb_plan_cache_batch(
    n: int, n_queries: int, n_unique: int
) -> Callable[[], Callable[[], object]]:
    """Per-query decision overhead in ``ask_batch`` on a fresh engine.

    A small population and a size-control-only stack keep the per-query
    evaluation cheap, so the timed work is mostly the decision path
    itself: ``n_queries`` COUNT queries cycling ``n_unique`` predicate
    shapes, each decided from the planner's stack memo (one miss on the
    first query, hits after).
    """

    def setup():
        pop = patients(n, seed=3)
        columns = ("height", "weight", "age")
        predicates = []
        for i in range(n_unique):
            column = columns[i % len(columns)]
            quantile = (i % 17 + 1) / 18.0
            value = float(np.quantile(pop[column], quantile))
            predicates.append(
                Comparison(column, "<=" if i % 2 else ">", value)
            )
        queries = [
            Query(Aggregate.COUNT, None, predicates[i % n_unique])
            for i in range(n_queries)
        ]

        def run():
            db = StatisticalDatabase(pop, [QuerySetSizeControl(5)])
            return db.ask_batch(queries)

        return run

    return setup


def _qdb_overlap_memmap(
    h: int, n: int, ram_budget: int
) -> Callable[[], Callable[[], object]]:
    """The ``_qdb_overlap`` workload with the packed history on disk.

    Same probes and history as ``qdb_overlap_h2000``, but the
    :class:`~repro.qdb.QueryHistory` keeps its packed mask log in a
    memory-mapped word store scanned in ``chunk_rows`` slices under
    *ram_budget* — the session-history-larger-than-RAM configuration.
    Absolute baseline only: the point is that out-of-core histories stay
    within tolerance of the committed normalized time, not a speedup.
    """
    max_overlap = (2 * n) // 5

    def setup():
        rng = np.random.default_rng(11)
        hist_masks = rng.random((h, n)) < 0.5
        probes = list(rng.random((8, n)) < 0.5)
        policy = OverlapControl(max_overlap)
        history = QueryHistory(n, store="memmap", ram_budget=ram_budget)
        for m in hist_masks:
            history.record(LogEntry(_QDB_DUMMY_QUERY, m, True, 1.0))

        def run():
            for probe in probes:
                reason = policy.review(_QDB_DUMMY_QUERY, probe, None, history)
                if reason is not None:  # would skew the timing
                    raise RuntimeError(f"unexpected refusal: {reason}")

        return run

    return setup


def _qdb_ask_batch(
    n: int, n_queries: int, n_unique: int
) -> Callable[[], Callable[[], object]]:
    """End-to-end batched workload: mask cache + policy pipeline.

    Replays a ``n_queries``-query workload with ``n_unique`` distinct
    threshold predicates (COUNT/SUM/AVG mix) through ``ask_batch`` on a
    fresh size-control + sum-audit database each rep.
    """

    def setup():
        pop = patients(n, seed=3)
        columns = ("height", "weight", "age")
        predicates = []
        for i in range(n_unique):
            column = columns[i % len(columns)]
            quantile = (i % 17 + 1) / 18.0
            value = float(np.quantile(pop[column], quantile))
            predicates.append(
                Comparison(column, "<=" if i % 2 else ">", value)
            )
        aggregates = (Aggregate.COUNT, Aggregate.SUM, Aggregate.AVG)
        queries = []
        for i in range(n_queries):
            aggregate = aggregates[i % len(aggregates)]
            column = None if aggregate is Aggregate.COUNT else "blood_pressure"
            queries.append(Query(aggregate, column, predicates[i % n_unique]))

        def run():
            db = StatisticalDatabase(
                pop, [QuerySetSizeControl(5), SumAuditPolicy()]
            )
            return db.ask_batch(queries)

        return run

    return setup


def _qdb_ask_batch_telemetry(
    n: int, n_queries: int, n_unique: int
) -> Callable[[], Callable[[], object]]:
    """The ``qdb_ask_batch`` workload inside a live telemetry session.

    Each rep enables telemetry (buffered tracer, no JSONL sink — disk
    I/O would swamp the instrumentation cost being measured), replays
    the identical batched workload, and disables again, so the timed
    delta against the bare ``qdb_ask_batch`` kernel is the full enabled
    cost: session setup, one ``qdb.query`` span with attribute assembly
    per query, the ``ask_batch`` parent span, histogram observations,
    and the end-of-session counter fold.  OVERHEAD_PAIRS bounds the
    ratio at <10% — the telemetry-cost datapoint of the bench
    trajectory.
    """
    base_setup = _qdb_ask_batch(n, n_queries, n_unique)

    def setup():
        from repro.telemetry import instrument

        run_bare = base_setup()

        def run():
            with instrument.session():
                return run_bare()

        return run

    return setup


def _qdb_ask_batch_observatory(
    n: int, n_queries: int, n_unique: int
) -> Callable[[], Callable[[], object]]:
    """The ``qdb_ask_batch`` workload with a live observatory attached.

    Telemetry session plus ``Observatory().attach(tracer)`` — per-span
    series folding, detectors, and rule evaluation, but no service
    layer.  This is the reference side of the ``observatory_sse_fanout``
    overhead pair: the monitoring cost the observatory already charges
    when attached live, so the pair isolates what the *service*
    (session timelines, event bus, HTTP/SSE fan-out) adds on top.
    """
    base_setup = _qdb_ask_batch(n, n_queries, n_unique)

    def setup():
        from repro.telemetry import instrument
        from repro.telemetry.observatory import Observatory

        run_bare = base_setup()

        def run():
            with instrument.session() as active_tracer:
                observatory = Observatory().attach(active_tracer)
                try:
                    return run_bare()
                finally:
                    observatory.detach()

        return run

    return setup


def _qdb_ask_batch_service(
    n: int, n_queries: int, n_unique: int
) -> Callable[[], Callable[[], object]]:
    """The ``qdb_ask_batch`` workload with the observatory *service* live.

    On top of the live-observatory cost, this attaches the resident
    service — session-timeline folding, event-bus point/alert fan-out —
    with a real HTTP server and one connected SSE client draining
    ``/events`` throughout.  The server, service, and drain client
    persist across reps (they are the resident infrastructure); each rep
    opens a fresh telemetry session and attaches/detaches the service.
    OVERHEAD_PAIRS bounds the ratio against the observatory-attached
    reference at <10% (the ISSUE 8 gate): exposing the observatory over
    HTTP/SSE must cost the monitored engine almost nothing beyond the
    monitoring itself.
    """
    base_setup = _qdb_ask_batch(n, n_queries, n_unique)
    state: dict = {}

    def setup():
        import threading
        from urllib.request import urlopen

        from repro.telemetry import instrument
        from repro.telemetry.observatory.service import (
            ObservatoryService,
            create_server,
        )

        run_bare = base_setup()
        if not state:
            service = ObservatoryService()
            server = create_server(service)
            host, port = server.server_address[:2]
            threading.Thread(
                target=server.serve_forever, name="bench-observatory-http",
                daemon=True,
            ).start()
            ready = threading.Event()

            def drain():
                with urlopen(f"http://{host}:{port}/events") as response:
                    for _ in response:
                        if not ready.is_set():
                            ready.set()

            threading.Thread(
                target=drain, name="bench-sse-drain", daemon=True
            ).start()
            if not ready.wait(timeout=10.0):
                raise RuntimeError("benchmark SSE drain failed to connect")
            state["service"] = service

        service = state["service"]

        def run():
            with instrument.session() as active_tracer:
                service.attach(active_tracer)
                try:
                    return run_bare()
                finally:
                    service.detach()

        return run

    return setup


# Ops submitted per serving_qps rep; results["serving"]["qps"] is this
# divided by the kernel's median rep seconds.
_SERVING_QPS_OPS = 256
# Serialized asks per serving_p99 rep; every per-op latency lands in
# _SERVING_STATE["latencies"] for the p99 section of the JSON record.
_SERVING_P99_OPS = 64

# Resident serving infrastructure shared by the serving_* kernels (the
# same pattern as the observatory service kernel: booting shard worker
# pools per rep would time thread creation, not the serving hot path).
_SERVING_STATE: dict = {}


def _serving_runtime(n: int, shards: int):
    """The resident sharded runtime + scripted op mix (built once)."""
    if not _SERVING_STATE:
        from repro.serving import ServingRuntime

        pop = patients(n, seed=3)
        # Stateless policy stack (size control only): the stateful
        # audits grow history across reps, which would trend the rep
        # time instead of measuring steady-state dispatch throughput.
        runtime = ServingRuntime(
            pop, shards=shards, sum_audit=False, shared_audit=False,
            queue_depth=4096,
            pir_values=[int(v) for v in pop["blood_pressure"][:64]],
        )
        atexit.register(runtime.close)
        columns = ("height", "weight", "age")
        pool = []
        for i in range(24):
            column = columns[i % len(columns)]
            quantile = (i % 11 + 1) / 12.0
            value = float(np.quantile(pop[column], quantile))
            op = "<=" if i % 2 else ">"
            aggregate = ("COUNT(*)", "SUM(blood_pressure)",
                         "AVG(blood_pressure)")[i % 3]
            pool.append(f"SELECT {aggregate} WHERE {column} {op} {value:g}")
        rng = np.random.default_rng(7)
        script = []
        for i in range(_SERVING_QPS_OPS):
            session = f"bench-user-{i % 16}"
            if i % 4 == 0:
                indices = [int(j) for j in rng.integers(64, size=4)]
                script.append((session, "pir", indices))
            else:
                script.append((session, "qdb", pool[i % len(pool)]))
        _SERVING_STATE.update(
            runtime=runtime, script=script, latencies=[],
        )
    return _SERVING_STATE


def _serving_qps(n: int, shards: int) -> Callable[[], Callable[[], object]]:
    """Sustained sharded throughput: submit a mixed op burst, await all.

    One rep pipelines :data:`_SERVING_QPS_OPS` operations (3:1
    statistical queries to 4-index PIR retrievals, 16 sessions) through
    the resident runtime's admission + router + shards and blocks until
    every future resolves — the serving path end to end.  A query whose
    shard is idle is decided on this thread, which then yields the CPU,
    so the workers drain the retrievals in between: most queries (about
    11 in 12) are decided here, and the rest queue with the retrievals
    for cross-thread hand-offs, batch grouping and `ask_batch`
    dispatch.  ``results["serving"]["qps"]`` derives from this kernel's
    median rep time.
    """

    def setup():
        state = _serving_runtime(n, shards)
        runtime = state["runtime"]
        script = state["script"]

        def run():
            futures = []
            for session, kind, payload in script:
                if kind == "qdb":
                    futures.append(runtime.submit(session, payload))
                else:
                    futures.append(runtime.submit_pir(session, payload,
                                                      seed=11))
            for future in futures:
                answer = future.result()
                if getattr(answer, "refused", False):
                    raise RuntimeError(  # would skew the timing
                        f"unexpected refusal: {answer.reason}"
                    )
            return futures

        return run

    return setup


def _serving_p99(n: int, shards: int) -> Callable[[], Callable[[], object]]:
    """Tail latency of the serialized request path.

    One rep issues :data:`_SERVING_P99_OPS` blocking ``runtime.ask``
    calls (no pipelining: each op finds its shard idle unless a worker
    is still finishing earlier work, so it is decided on this thread
    and pays submit, admission, the shard claim and the decision, with
    no queue round trip) and records every per-op wall
    time; ``results["serving"]["p99_seconds"]`` is the 99th percentile
    over all reps and trials, gated against
    ``MAX_SERVING_P99_NORMALIZED`` under ``--check``.
    """

    def setup():
        state = _serving_runtime(n, shards)
        runtime = state["runtime"]
        latencies = state["latencies"]
        queries = [payload for _, kind, payload in state["script"]
                   if kind == "qdb"][:_SERVING_P99_OPS]

        def run():
            for i, query in enumerate(queries):
                t0 = time.perf_counter()
                answer = runtime.ask(f"bench-p99-{i % 8}", query)
                latencies.append(time.perf_counter() - t0)
                if answer.refused:
                    raise RuntimeError(
                        f"unexpected refusal: {answer.reason}"
                    )

        return run

    return setup


def _serving_telemetry_qps(
    n: int, shards: int, traced: bool
) -> Callable[[], Callable[[], object]]:
    """The ``serving_qps`` workload inside a live telemetry session.

    Each rep opens a telemetry session (buffered tracer, no JSONL sink)
    and replays the identical mixed-op burst through the *same* resident
    runtime.  With ``traced=False`` request tracing is sampled out (the
    per-session sequence numbers still advance, nothing else happens):
    that is ``ref_telemetry_serving_qps``, the engine/serving span cost
    that ISSUE 5 already charges when telemetry is on.  With
    ``traced=True`` every request materialises its trace context — id
    minting, eight monotonic marks across threads, the
    ``serving.request`` span with its stage decomposition, and seven
    per-shard stage-histogram observations (with exemplar tracking) per
    request.  OVERHEAD_PAIRS bounds traced/reference at <10% — the
    ISSUE 10 traced-path gate isolates what *tracing* adds on top of
    the (already live) telemetry, mirroring how observatory_sse_fanout
    is gated against its observatory-attached reference.
    """
    base_setup = _serving_qps(n, shards)

    def setup():
        from repro.telemetry import instrument

        run_bare = base_setup()
        runtime = _SERVING_STATE["runtime"]
        trace_every = 1 if traced else (1 << 30)

        def run():
            previous = runtime._trace_every
            runtime._trace_every = trace_every
            try:
                with instrument.session():
                    return run_bare()
            finally:
                runtime._trace_every = previous

        return run

    return setup


def _serving_profiled_qps(
    n: int, shards: int
) -> Callable[[], Callable[[], object]]:
    """The ``serving_qps`` workload under the continuous profiler.

    An untraced rep (no telemetry session) with a
    :class:`~repro.telemetry.profiler.SamplingProfiler` interrupting the
    process ~100 times a second: the delta against bare ``serving_qps``
    is what always-on profiling steals from the serving hot path — GIL
    contention from ``sys._current_frames`` plus the stack folds.  The
    profiler starts and stops *inside* each rep (thread start/join is
    ~0.5% of a rep) rather than staying resident: a resident sampler
    would interrupt every later kernel too, including the bare side of
    its own overhead pair, and quietly measure the ratio against a
    profiled baseline.  OVERHEAD_PAIRS bounds the ratio at <5%, the
    tighter ISSUE 10 gate: sampling must stay cheap enough to leave on.
    """
    base_setup = _serving_qps(n, shards)

    def setup():
        from repro.telemetry.profiler import SamplingProfiler

        run_bare = base_setup()

        def run():
            with SamplingProfiler(hz=101):
                return run_bare()

        return run

    return setup


KERNELS: list[Kernel] = [
    Kernel("pir_single_retrieve_n1024", _pir_single(1024), reps=10),
    Kernel("pir_single_retrieve_n4096", _pir_single(4096), reps=5),
    Kernel("pir_batch64_retrieve_n4096", _pir_batch(4096, 64), reps=2),
    Kernel("pir_batch64_retrieve_n65536", _pir_batch(65536, 64), reps=2),
    Kernel("ref_uint8_pir_batch64_retrieve_n65536",
           _pir_uint8_batch(65536, 64), reps=1, reference_only=True),
    # 262144 x 64-byte blocks = 16 MiB on disk, scanned under a 2 MiB
    # budget (32768-row chunks): the databases-larger-than-RAM shape, at
    # a size every CI machine can still hold on disk.
    Kernel("pir_memmap_batch8_retrieve_n262144",
           _pir_memmap_batch(262144, 8, ram_budget=2 << 20), reps=1),
    Kernel("pir_square_retrieve_n4096", _pir_square(4096), reps=10),
    Kernel("pir_multiserver3_retrieve_n1024", _pir_multiserver(1024, 3), reps=5),
    Kernel("pir_faulty_batch64_retrieve_n4096", _pir_faulty_batch(4096, 64),
           reps=2),
    Kernel("pir_faulty_retrieve_n1024", _pir_faulty_single(1024), reps=5),
    Kernel("seed_pir_single_retrieve_n4096", _seed_pir_single(4096), reps=1,
           reference_only=True),
    Kernel("mdav_n1000_k5", _mdav(1000, 5), reps=1),
    Kernel("mdav_n2000_k10", _mdav(2000, 10), reps=1),
    Kernel("linkage_n600", _linkage(600), reps=1),
    Kernel("qdb_overlap_h2000", _qdb_overlap(2000, 5000), reps=5),
    Kernel("seed_qdb_overlap", _qdb_overlap(2000, 5000, seed_impl=True),
           reps=1, reference_only=True),
    Kernel("ref_uint8_qdb_overlap_h2000", _qdb_overlap_uint8(2000, 5000),
           reps=5, reference_only=True),
    # 2000 x 5000-bit packed rows = ~1.2 MiB of history, scanned under a
    # 1 MiB budget (two chunks): the out-of-core session-history shape.
    Kernel("qdb_memmap_history_overlap",
           _qdb_overlap_memmap(2000, 5000, ram_budget=1 << 20), reps=5),
    Kernel("qdb_plan_cache_batch", _qdb_plan_cache_batch(250, 256, 16),
           reps=3),
    Kernel("qdb_sum_audit", _qdb_sum_audit(2000, 5000, 400), reps=3),
    Kernel("seed_qdb_sum_audit",
           _qdb_sum_audit(2000, 5000, 400, seed_impl=True),
           reps=1, reference_only=True),
    # The overhead pair runs 3 reps per trial: one ~58 ms rep is noisy
    # enough to flip the <10% telemetry-overhead gate on scheduler jitter.
    Kernel("qdb_ask_batch", _qdb_ask_batch(5000, 256, 32), reps=3),
    Kernel("telemetry_overhead_qdb_ask_batch",
           _qdb_ask_batch_telemetry(5000, 256, 32), reps=3),
    Kernel("ref_observatory_attached_ask_batch",
           _qdb_ask_batch_observatory(5000, 256, 32), reps=3,
           reference_only=True),
    Kernel("observatory_sse_fanout",
           _qdb_ask_batch_service(5000, 256, 32), reps=3),
    # The sharded serving runtime (ISSUE 9): pipelined mixed-op
    # throughput and serialized round-trip tail latency over resident
    # 4-shard worker pools (n=5000 records, 64 PIR blocks).
    Kernel("serving_qps", _serving_qps(5000, 4), reps=3),
    Kernel("serving_p99", _serving_p99(5000, 4), reps=3),
    # The ISSUE 10 observability-cost pairs: the same resident runtime
    # and op script under a live telemetry session with tracing sampled
    # out (reference), with every request traced, and (separately,
    # telemetry off) with the ~100 Hz sampling profiler resident.
    Kernel("ref_telemetry_serving_qps",
           _serving_telemetry_qps(5000, 4, traced=False), reps=3,
           reference_only=True),
    Kernel("serving_traced_qps",
           _serving_telemetry_qps(5000, 4, traced=True), reps=3),
    Kernel("serving_profiled_qps", _serving_profiled_qps(5000, 4), reps=3),
]


def calibrate() -> float:
    """Seconds for a fixed numpy workload; the machine-speed yardstick."""
    rng = np.random.default_rng(0)
    a = rng.normal(size=(192, 192))
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(5):
            b = a @ a
            float(np.sort(b, axis=None)[-10:].sum())
        best = min(best, (time.perf_counter() - t0) / 5)
    return best


def time_kernel(kernel: Kernel, trials: int) -> tuple[float, float]:
    """(median, best) over *trials* of the mean per-rep wall time.

    The median is what the absolute baselines compare against; the best
    (minimum) is recorded in the JSON for post-hoc noise analysis,
    because scheduler noise only ever *inflates* a sample.  The overhead
    gates do not use either — they re-time their kernel pairs
    interleaved (:func:`time_overhead_ratio`), which independent timings
    like these cannot replace on a shared machine.
    """
    run = kernel.setup()
    run()  # warm-up (bit matrices, caches) outside the timed region
    samples = []
    for _ in range(trials):
        t0 = time.perf_counter()
        for _ in range(kernel.reps):
            run()
        samples.append((time.perf_counter() - t0) / kernel.reps)
    return statistics.median(samples), min(samples)


def _counter_totals() -> dict[str, int]:
    """Aggregated process-registry counter values (live + folded)."""
    return process_registry().snapshot()["counters"]


def time_overhead_ratio(
    wrapped: Kernel,
    bare: Kernel,
    trials: int,
    cpu_time: bool = False,
    samples_scale: int = 1,
) -> float:
    """Median pairwise ratio from *interleaved* single-rep trials.

    The overhead gates discriminate a 10% bound, which independent
    kernel timings cannot do on a shared machine: load phases (another
    tenant, the scheduler) can last seconds and inflate samples by
    double-digit percentages, swallowing the signal entirely.  So the
    pair alternates at single-rep granularity — bare, wrapped, bare,
    wrapped — and each adjacent pair yields one wrapped/bare ratio taken
    under (almost) the same load; the median of those ratios discards
    the pairs a load transition split down the middle.

    With ``cpu_time`` (the CPU_CLOCK_OVERHEADS pairs) the ratio is
    taken on :func:`time.process_time` — summed CPU seconds across all
    threads — instead of wall time; see CPU_CLOCK_OVERHEADS for why
    multi-threaded pairs cannot be wall-gated on a one-core box.

    ``samples_scale`` multiplies the pair count.  The serving pairs use
    it because their per-rep *work* is stochastic even on a quiet
    machine: batch grouping depends on thread interleaving, so one rep
    may dispatch 256 singleton groups and the next a handful of wide
    batches, and the two halves of a pair draw that lottery
    independently.  Single-pair ratios spread roughly 0.9x-1.2x around
    a ~1.06 center; a median over ~15 pairs still wobbles by a few
    points around a 1.10 gate, while ~45 pairs pins it.
    """
    run_wrapped = wrapped.setup()
    run_bare = bare.setup()
    run_wrapped()  # warm-up both outside the timed region
    run_bare()
    clock = time.process_time if cpu_time else time.perf_counter
    ratios = []
    for _ in range(trials * max(wrapped.reps, bare.reps) * samples_scale):
        # A full collection *between* samples, outside the timed
        # region: whether a gen-2 sweep of the resident benchmark heap
        # lands inside the bare or the wrapped half is pure luck, and at
        # a 10% discrimination bound that luck is bigger than the
        # signal.  Allocation pressure the wrapped layer adds still
        # shows up — young-generation collections triggered by its own
        # garbage run inside the timed window as before.  (gc.freeze()
        # around this loop was tried and reverted: with the resident
        # heap frozen the collector's long-lived total collapses, full
        # collections fire far more often, and the span-buffer-holding
        # wrapped kernels pay for every one of them.)
        gc.collect()
        t0 = clock()
        run_bare()
        bare_seconds = clock() - t0
        t0 = clock()
        run_wrapped()
        ratios.append((clock() - t0) / bare_seconds)
    return statistics.median(ratios)


def run_benchmarks(trials: int, names: list[str] | None = None) -> dict:
    calibration = calibrate()
    results: dict = {
        "schema": 5,
        "generated_by": "python -m benchmarks.runner",
        "calibration_seconds": calibration,
        "trials": trials,
        "backend": backend_info(),
        "kernels": {},
        "speedups": {},
        "overheads": {},
    }
    for kernel in KERNELS:
        if names and kernel.name not in names:
            continue
        before = _counter_totals()
        median, best = time_kernel(kernel, trials)
        after = _counter_totals()
        # What the kernel's workload cost in telemetry counters: the
        # components die with the timing closure and fold their totals
        # into the process registry, so the delta covers the whole run.
        counters = {
            name: value - before.get(name, 0)
            for name, value in after.items()
            if value != before.get(name, 0)
        }
        # Schema 4: per-kernel plan-cache efficiency, from the same
        # counter fold the totals come from (zeros for kernels whose
        # workload never touches the planner).
        hits = counters.get("qdb.plan_cache_hits", 0)
        misses = counters.get("qdb.plan_cache_misses", 0)
        results["kernels"][kernel.name] = {
            "median_seconds": median,
            "best_seconds": best,
            "normalized": median / calibration,
            "reps": kernel.reps,
            "reference_only": kernel.reference_only,
            "counters": counters,
            "plan_cache": {
                "hits": hits,
                "misses": misses,
                "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            },
        }
    pair_groups = [
        (fast, ref, suffix)
        for pairs, suffix in ((SPEEDUP_PAIRS, "seed"), (UINT8_PAIRS, "uint8"))
        for fast, ref in pairs
    ]
    for fast_name, ref_name, suffix in pair_groups:
        ref = results["kernels"].get(ref_name)
        fast = results["kernels"].get(fast_name)
        if ref and fast:
            results["speedups"][f"{fast_name}_vs_{suffix}"] = (
                ref["median_seconds"] / fast["median_seconds"]
            )
    by_name = {kernel.name: kernel for kernel in KERNELS}
    for wrapped_name, bare_name in OVERHEAD_PAIRS:
        if wrapped_name in results["kernels"] and bare_name in results["kernels"]:
            cpu = wrapped_name in CPU_CLOCK_OVERHEADS
            results["overheads"][f"{wrapped_name}_vs_bare"] = (
                time_overhead_ratio(by_name[wrapped_name], by_name[bare_name],
                                    trials, cpu_time=cpu,
                                    samples_scale=5 if cpu else 1)
            )
    # Schema 5: the serving section — sustained qps, tail latency, and
    # the resident runtime's per-shard counters.
    if {"serving_qps", "serving_p99"} & set(results["kernels"]):
        serving: dict = {}
        qps_entry = results["kernels"].get("serving_qps")
        if qps_entry:
            serving["ops_per_rep"] = _SERVING_QPS_OPS
            serving["qps"] = _SERVING_QPS_OPS / qps_entry["median_seconds"]
        latencies = _SERVING_STATE.get("latencies")
        if latencies:
            p99 = float(np.percentile(latencies, 99))
            serving["p99_seconds"] = p99
            serving["p99_normalized"] = p99 / calibration
            serving["latency_samples"] = len(latencies)
        runtime = _SERVING_STATE.get("runtime")
        if runtime is not None:
            stats = runtime.stats()
            serving["n_shards"] = stats["n_shards"]
            serving["per_shard"] = stats["shards"]
        results["serving"] = serving
    return results


def check_regressions(
    results: dict, tolerance: float, baselines: dict | None = None
) -> list[str]:
    """Normalized-time comparison against the committed baselines."""
    if baselines is None:
        baselines = BASELINES
    failures = []
    if not baselines:
        failures.append(
            "the committed baseline contains no kernels — the check guards "
            "nothing; regenerate benchmarks/baselines.py with `make "
            "bench-refresh` (trials >= 5) and commit the normalized values"
        )
    if not results["kernels"]:
        failures.append(
            "no kernels were timed in this run — nothing to compare; run "
            "without --kernels or pass at least one registered name"
        )
    recorded_backend = results.get("backend", {}).get("name")
    if recorded_backend is not None and recorded_backend != BASELINE_BACKEND:
        failures.append(
            f"kernel backend mismatch: this run used {recorded_backend!r} "
            f"but the committed baselines were measured with "
            f"{BASELINE_BACKEND!r} — absolute times are not comparable; "
            f"either unset REPRO_KERNELS (or fix the toolchain so "
            f"{BASELINE_BACKEND!r} probes successfully) or regenerate the "
            f"baselines on this backend and update BASELINE_BACKEND"
        )
    for name, entry in results["kernels"].items():
        if entry["reference_only"]:
            continue
        baseline = baselines.get(name)
        if baseline is None:
            continue
        if entry["normalized"] > baseline * tolerance:
            failures.append(
                f"{name}: normalized {entry['normalized']:.2f} exceeds "
                f"baseline {baseline:.2f} x tolerance {tolerance:.2f}"
            )
    speedup_groups = [
        (fast, suffix, what)
        for pairs, suffix, what in (
            (SPEEDUP_PAIRS, "seed", "the seed implementation"),
            (UINT8_PAIRS, "uint8", "the uint8 kernels it replaced"),
        )
        for fast, _ in pairs
    ]
    for fast_name, suffix, what in speedup_groups:
        key = f"{fast_name}_vs_{suffix}"
        speedup = results["speedups"].get(key)
        required = MIN_SPEEDUPS.get(key)
        if (speedup is not None and required is not None
                and speedup < required):
            failures.append(
                f"{fast_name}: only {speedup:.1f}x faster than {what} "
                f"(required: {required}x)"
            )
    for wrapped_name, bare_name in OVERHEAD_PAIRS:
        overhead = results.get("overheads", {}).get(
            f"{wrapped_name}_vs_bare"
        )
        allowed = MAX_OVERHEADS.get(wrapped_name)
        if overhead is not None and allowed is not None and overhead > allowed:
            failures.append(
                f"{wrapped_name}: {overhead:.3f}x the bare {bare_name} "
                f"(allowed: {allowed}x)"
            )
    p99_normalized = (results.get("serving") or {}).get("p99_normalized")
    if (p99_normalized is not None
            and p99_normalized > MAX_SERVING_P99_NORMALIZED * tolerance):
        failures.append(
            f"serving p99: normalized {p99_normalized:.3f} exceeds "
            f"{MAX_SERVING_P99_NORMALIZED:.3f} x tolerance {tolerance:.2f} "
            f"— the serialized request round trip grew a tail"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.runner",
        description="Time the hot-path kernels and check for regressions.",
    )
    parser.add_argument("--trials", type=int, default=5,
                        help="timing trials per kernel (median is kept)")
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero when a kernel regresses past "
                             "baseline x tolerance")
    parser.add_argument("--no-compare", action="store_true",
                        help="skip the baseline comparison entirely")
    parser.add_argument("--tolerance", type=float, default=TOLERANCE,
                        help="allowed slowdown factor over the baseline")
    parser.add_argument("--output", default=str(DEFAULT_OUTPUT),
                        help="where to write the JSON record")
    parser.add_argument("--kernels", nargs="*", default=None,
                        help="subset of kernel names to run")
    parser.add_argument("--list", action="store_true",
                        help="print the registered kernel names and exit")
    args = parser.parse_args(argv)

    if args.list:
        width = max(len(k.name) for k in KERNELS)
        for kernel in KERNELS:
            tag = "  [seed reference]" if kernel.reference_only else ""
            print(f"{kernel.name:<{width}s}  reps={kernel.reps}{tag}")
        return 0

    if args.kernels is not None:
        known = {k.name for k in KERNELS}
        unknown = [name for name in args.kernels if name not in known]
        if unknown:
            parser.error(
                f"unknown kernel(s): {', '.join(unknown)} "
                f"(choose from: {', '.join(sorted(known))})"
            )

    results = run_benchmarks(args.trials, args.kernels)
    Path(args.output).write_text(json.dumps(results, indent=2) + "\n")

    width = max(len(k) for k in results["kernels"])
    print(f"calibration: {results['calibration_seconds'] * 1e3:.2f} ms")
    print(f"kernel backend: {results['backend']['name']} "
          f"(numpy {results['backend']['numpy']})")
    for name, entry in results["kernels"].items():
        print(f"  {name:<{width}s} {entry['median_seconds'] * 1e3:10.3f} ms "
              f"(normalized {entry['normalized']:8.2f})")
    for name, value in results["speedups"].items():
        print(f"  {name}: {value:.1f}x")
    for name, value in results["overheads"].items():
        print(f"  {name}: {value:.3f}x")

    if args.no_compare:
        return 0
    failures = check_regressions(results, args.tolerance)
    for failure in failures:
        print(f"REGRESSION: {failure}", file=sys.stderr)
    if failures and args.check:
        return 1
    if not failures:
        print("all kernels within baseline tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
