PYTHON ?= python

.PHONY: verify test bench bench-check bench-qdb bench-kernels bench-plan \
	bench-refresh telemetry-smoke observe-smoke serve-smoke chaos doctest

.DEFAULT_GOAL := verify

# The default gate: tests, benchmark regressions, the kernel-tier speedup
# gates, telemetry schema drift, the observatory's detection invariants,
# the served stack's end-to-end HTTP/SSE smoke, fault-layer/observatory/
# serving/tracing doctests, and the chaos scenario's privacy invariants.
# It writes no tracked file: the runner gates discard their timings, and
# bench-refresh is the one target that rewrites BENCH_hotpaths.json.
verify: test bench-check bench-kernels bench-plan telemetry-smoke \
	observe-smoke serve-smoke doctest chaos

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# Time the hot-path kernels and write BENCH_hotpaths.json.
bench:
	PYTHONPATH=src $(PYTHON) -m benchmarks.runner

# Fail (exit nonzero) when any kernel regresses past baseline x tolerance.
bench-check:
	PYTHONPATH=src $(PYTHON) -m benchmarks.runner --check --output /dev/null

# Query-engine kernels only (packed overlap, incremental sum audit, batched
# workloads) against their timed seed replicas; `--list` self-diagnoses
# kernel-name typos.
bench-qdb:
	PYTHONPATH=src $(PYTHON) -m benchmarks.runner --check --output /dev/null \
		--kernels qdb_overlap_h2000 seed_qdb_overlap qdb_sum_audit \
		seed_qdb_sum_audit qdb_ask_batch

# The word-level kernel tier (ISSUE 6) against the frozen uint8 pipelines
# it replaced, plus the memory-mapped larger-than-RAM retrieval kernel;
# fails when a *_vs_uint8 speedup gate in benchmarks/baselines.py breaks
# or when the active backend differs from the one the baselines recorded.
bench-kernels:
	PYTHONPATH=src $(PYTHON) -m benchmarks.runner --check --output /dev/null \
		--kernels pir_batch64_retrieve_n65536 \
		ref_uint8_pir_batch64_retrieve_n65536 qdb_overlap_h2000 \
		seed_qdb_overlap ref_uint8_qdb_overlap_h2000 \
		pir_memmap_batch8_retrieve_n262144

# The query-engine decision gates against their absolute baselines:
# batched size-control decisions on a fresh engine, and the
# memmap-backed out-of-core query history.
bench-plan:
	PYTHONPATH=src $(PYTHON) -m benchmarks.runner --check --output /dev/null \
		--kernels qdb_plan_cache_batch qdb_memmap_history_overlap

# Refresh the committed benchmark record after an intentional perf change;
# copy the printed normalized values into benchmarks/baselines.py too.
bench-refresh:
	PYTHONPATH=src $(PYTHON) -m benchmarks.runner --output BENCH_hotpaths.json

# Where telemetry-smoke, serve-smoke and chaos write their JSONL captures,
# one file per target overwritten by each run (git-ignored).  Run by hand
# without --out, each command captures to a fresh file in the temp dir.
CAPTURES := .bench_build/captures

# Run the instrumented S1/S3a scenario and validate its JSONL capture
# against the span schema; fails on schema drift or lost refusal forensics.
telemetry-smoke:
	mkdir -p $(CAPTURES)
	PYTHONPATH=src $(PYTHON) -m repro telemetry smoke \
		--out $(CAPTURES)/telemetry-smoke.jsonl

# Replay the tracker scenario through the streaming observatory and fail
# unless the expected alerts — and only those — fire, with the tracker
# warning raised before the attack completes.
observe-smoke:
	PYTHONPATH=src $(PYTHON) -m repro observe --smoke

# The served stack's one end-to-end gate.  Boots the sharded serving
# runtime (router + admission + shared audit), the observatory service on
# an ephemeral HTTP port and the concurrent load generator with its split
# tracker cohort once, with a JSONL capture attached.  Fails unless: the
# SSE hello frame carries the current schema and announces trace frames,
# and the bye frame arrives; load runs on >= 2 shards; the split tracker
# (padding and tracker halves on distinct shards) never succeeds and is
# refused at least once; the SSE alert frames equal the live span alerts,
# including a critical tracker-probe; /metrics is strict OpenMetrics;
# /sessions lists the cohort sessions, one with refusals; the /incident
# replay proof verifies; point frames arrive; and the capture alone
# rebuilds complete 7-stage waterfalls (shard, queue depth, outcome,
# linked qdb.query) for an answered query and a refused cohort query,
# whose trace ids also crossed SSE trace frames and /traces.
serve-smoke:
	mkdir -p $(CAPTURES)
	PYTHONPATH=src $(PYTHON) -m repro serve --smoke \
		--out $(CAPTURES)/serve-smoke.jsonl

# Executable documentation, in one pytest process: every module-level
# example in the fault layer, the observatory package (detectors and
# exporters), the serving runtime (router determinism, token-bucket
# admission under a fake clock) and its env-knob table, and the tracing
# layer (trace-id minting, the synthetic-capture waterfall walkthrough,
# the live sampling example) must keep running exactly as written.
doctest:
	PYTHONPATH=src $(PYTHON) -m pytest --doctest-modules -q \
		src/repro/faults src/repro/telemetry/observatory \
		src/repro/serving src/repro/envdoc.py \
		src/repro/telemetry/requesttrace.py \
		src/repro/telemetry/report.py \
		src/repro/telemetry/profiler.py

# Scripted failure scenario at a fixed seed: byzantine PIR replicas,
# crashed SMC parties, failing qdb backends; exits nonzero when any
# privacy/integrity invariant breaks or a degradation decision is lost.
chaos:
	mkdir -p $(CAPTURES)
	PYTHONPATH=src $(PYTHON) -m repro faults chaos --seed 3 \
		--out $(CAPTURES)/chaos.jsonl
