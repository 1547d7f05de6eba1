"""Committed baselines for the hot-path benchmark harness.

Values are *normalized* wall times: kernel median seconds divided by the
:func:`benchmarks.runner.calibrate` loop's seconds on the same machine,
so they transfer (roughly) across hardware.  A kernel regresses when its
normalized time exceeds ``baseline * TOLERANCE``.

To refresh after an intentional perf change::

    python -m benchmarks.runner --output BENCH_hotpaths.json

then copy the ``normalized`` numbers printed (or from the JSON) into
``BASELINES`` below and commit both files — this is the trajectory every
future perf PR appends to.
"""

# Normalized medians measured for the vectorized kernels introduced with
# this harness (see BENCH_hotpaths.json for the raw record).  The qdb_*
# kernels cover the query-engine throughput layer: packed-bitset overlap
# auditing and the incremental-QR sum audit at session depth H=2000 over
# n=5000 records, and the batched workload API end to end.  The
# pir_batch64_retrieve_n65536 and memmap entries time the word-level
# kernel tier (ISSUE 6) at sizes where the uint8 pipeline dominated.
BASELINES: dict[str, float] = {
    "pir_single_retrieve_n1024": 0.35,
    "pir_single_retrieve_n4096": 1.25,
    "pir_batch64_retrieve_n4096": 6.0,
    "pir_batch64_retrieve_n65536": 60.0,
    "pir_memmap_batch8_retrieve_n262144": 55.0,
    # The word-tier query path adds a few fixed microseconds to this
    # sub-0.1ms kernel (packed sampling + one unpack per retrieval) in
    # exchange for the multi-x batched gains; re-measured with ISSUE 6.
    "pir_square_retrieve_n4096": 0.22,
    "pir_multiserver3_retrieve_n1024": 0.55,
    "pir_faulty_batch64_retrieve_n4096": 7.0,
    "pir_faulty_retrieve_n1024": 2.3,
    "mdav_n1000_k5": 30.0,
    "mdav_n2000_k10": 50.0,
    "linkage_n600": 12.0,
    "qdb_overlap_h2000": 2.0,
    # The bench-plan kernels: the packed history on a memmap word store
    # under a 1 MiB budget and the batched size-control workload.
    "qdb_memmap_history_overlap": 3.0,
    "qdb_plan_cache_batch": 24.0,
    "qdb_sum_audit": 24.0,
    "qdb_ask_batch": 100.0,
    "telemetry_overhead_qdb_ask_batch": 110.0,
    # ask_batch with the resident service attached *and* a live SSE
    # consumer draining the polled event ring: the observatory's
    # per-span processing dominates (see ref_observatory_attached_
    # ask_batch); the service layer itself adds <10% on top, gated by
    # MAX_OVERHEADS below rather than by this absolute number.
    "observatory_sse_fanout": 140.0,
    # The sharded serving runtime (ISSUE 9): serving_qps pipelines 256
    # mixed ops (qdb + PIR scatters) through 4 resident shard worker
    # pools per rep; serving_p99 serializes 64 blocking round trips.
    # Cross-thread future handoff dominates both — the engine work is
    # the same qdb_ask_batch substrate.
    "serving_qps": 120.0,
    "serving_p99": 25.0,
    # The request-tracing layer (ISSUE 10): the serving_qps burst inside
    # a live telemetry session with tracing sampled out (the reference —
    # engine/serving span cost ISSUE 5 already charges), with every
    # request materialising full trace context (id mint, monotonic
    # marks across threads, the serving.request span, seven stage
    # histogram observations), and under the ~100 Hz sampling profiler.
    # The absolute numbers absorb VM noise via TOLERANCE; the real
    # gates are the MAX_OVERHEADS ratios below.
    "ref_telemetry_serving_qps": 130.0,
    "serving_traced_qps": 140.0,
    "serving_profiled_qps": 125.0,
}

# Normalized ceiling for the serving runtime's serialized-request p99
# (results["serving"]["p99_normalized"]; per-op wall time over every
# rep, 99th percentile, divided by the calibration loop seconds).
# Checked against MAX_SERVING_P99_NORMALIZED * TOLERANCE — the tail is
# the first thing queue mismanagement (lost wakeups, batch starvation,
# lock convoys on the decision path) would inflate.
MAX_SERVING_P99_NORMALIZED = 1.0

# The kernel backend the absolute BASELINES above were measured with
# (see repro.kernels.backends).  --check fails loudly when a run's
# recorded backend differs: a pure-numpy fallback timing compared
# against compiled-C baselines would either mask real regressions or
# manufacture false ones.
BASELINE_BACKEND = "cext"

# Allowed slowdown factor before --check fails; generous because the
# calibration loop cannot fully cancel scheduler noise on busy machines.
TOLERANCE = 2.0

# Minimum recorded speedups, keyed by the speedup record name in
# BENCH_hotpaths.json: ``*_vs_seed`` entries compare against the seed's
# pure-Python replicas (benchmarks/seed_replicas.py, SPEEDUP_PAIRS in
# runner.py), ``*_vs_uint8`` entries compare the word-level kernel tier
# against the frozen uint8 pipelines it replaced
# (benchmarks/uint8_replicas.py, UINT8_PAIRS in runner.py).
MIN_SPEEDUPS: dict[str, float] = {
    "pir_single_retrieve_n4096_vs_seed": 10.0,
    "qdb_overlap_h2000_vs_seed": 10.0,
    "qdb_sum_audit_vs_seed": 10.0,
    "pir_batch64_retrieve_n65536_vs_uint8": 4.0,
    "qdb_overlap_h2000_vs_uint8": 2.0,
}

# Wrapping layers must stay within these factors of their bare kernels
# (pairs are OVERHEAD_PAIRS in runner.py): resilience must not tax the
# healthy hot path, and a live telemetry session — spans, attribute
# assembly, histograms, the observatory feed — must not tax the query
# engine by more than 10% (the ISSUE 5 enabled-overhead gate; the
# *disabled* cost is held at zero by the golden-fingerprint tests).
# The observatory_sse_fanout pair (ISSUE 8) holds the resident service
# layer — session timelines, event-bus fan-out, a live HTTP/SSE
# subscriber — to the same 10% budget over the observatory-attached
# reference kernel: serving the observatory must cost the monitored
# engine almost nothing beyond the (already live) monitoring itself.
MAX_OVERHEADS: dict[str, float] = {
    "pir_faulty_batch64_retrieve_n4096": 1.10,
    "telemetry_overhead_qdb_ask_batch": 1.10,
    "observatory_sse_fanout": 1.10,
    # ISSUE 10: full per-request trace context (id minting, cross-thread
    # stage marks, the serving.request span, per-shard stage histograms
    # with exemplars) must add <= 10% over the traced-out telemetry
    # reference, and the always-on sampling profiler <= 5% over bare
    # serving.  Both pairs are measured on process CPU time
    # (CPU_CLOCK_OVERHEADS in runner.py): the workload runs five
    # threads, and on a one-core CI box a wall ratio of that measures
    # scheduler interleaving, not the layer under test.
    "serving_traced_qps": 1.10,
    "serving_profiled_qps": 1.05,
}
