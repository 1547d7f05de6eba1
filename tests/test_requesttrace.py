"""Request tracing: the ``serving.request`` span of a PIR retrieval and
of a query decided on the calling thread, the stage-histogram bucket
ladder ``STAGE_BUCKETS``, and pinned emission.

A traced retrieval is one request on its session's shard: one span, all
seven stages, and every slice's ``pir.retrieve_batch`` span linked to it
by trace id.  A caller-run query has all seven stages too, with a zero
``queue_wait`` and queue depth 0, and links to its ``qdb.query`` span.
The ladder tests check the claim in the ``STAGE_BUCKETS``
comment of ``repro.telemetry.requesttrace``, on synthetic stage timings
and on the histograms a traced run feeds.  The emission pins drive
``emit_request_span`` directly with hand-marked traces, one per outcome
the runtime emits, and hold every record and stage histogram to values
recorded before the emit path was folded into one.
"""

import json
import math

import numpy as np
import pytest

from repro.data import patients
from repro.serving import ServingRuntime
from repro.telemetry import instrument as tele
from repro.telemetry.observatory.stream import quantile_from_buckets
from repro.telemetry.registry import DEFAULT_BUCKETS, process_registry
from repro.telemetry.report import load_trace
from repro.telemetry.requesttrace import (
    STAGE_BUCKETS,
    TRACE_STAGES,
    RequestTrace,
    emit_request_span,
    mint_trace_id,
)

pytestmark = pytest.mark.usefixtures("clean_telemetry")

QUANTILES = (0.5, 0.95)


@pytest.fixture
def clean_telemetry():
    tele.disable()
    tele.reset_metrics()
    yield
    tele.disable()
    tele.reset_metrics()


def _runtime(blocks: int = 1024) -> ServingRuntime:
    return ServingRuntime(patients(64, seed=0), shards=4,
                          pir_values=list(range(blocks)))


def _traced_retrievals(path, session, batches, seed=0):
    """Run traced retrievals of *batches*; returns (runtime, report)."""
    with tele.session(path):
        with _runtime() as runtime:
            for op, indices in enumerate(batches):
                got = runtime.retrieve_batch_int(session, indices,
                                                 seed=seed + op)
                assert got == list(indices)
    return runtime, load_trace(path, validate=True)


def _counts(bounds, values):
    """Bucket counts as ``Histogram.observe`` files *values*."""
    counts = [0] * (len(bounds) + 1)
    for value in values:
        counts[int(np.searchsorted(bounds, value, side="left"))] += 1
    return counts


def _exact(values, q):
    """The smallest observation whose rank reaches ``q * n``: the rank
    rule ``quantile_from_buckets`` applies to the buckets."""
    return float(np.quantile(values, q, method="inverted_cdf"))


def _width(bounds, upper):
    """Width of the bucket whose upper edge is *upper*."""
    position = list(bounds).index(upper)
    return upper - (bounds[position - 1] if position else 0.0)


class TestTracedPirRetrieval:
    def test_one_request_span_on_the_session_shard(self, tmp_path):
        runtime, report = _traced_retrievals(
            tmp_path / "pir.jsonl", "reader", [range(0, 1024, 37)]
        )
        requests = report.requests
        assert len(requests) == 1
        attrs = requests[0]["attrs"]
        assert attrs["kind"] == "pir"
        assert attrs["session"] == "reader"
        assert attrs["shard"] == runtime.shard_of("reader")
        assert attrs["outcome"] == "answered"
        for stage in TRACE_STAGES:
            assert attrs[f"stage_{stage}_seconds"] >= 0.0

    def test_every_slice_span_links_to_the_request(self, tmp_path):
        _, report = _traced_retrievals(
            tmp_path / "pir.jsonl", "reader", [range(0, 1024, 37)]
        )
        trace_id = report.requests[0]["attrs"]["trace_id"]
        retrievals = report.by_name["pir.retrieve_batch"]
        # 28 indices over 4 slices: every slice owns some of them.
        assert len(retrievals) == 4
        assert {s["attrs"]["trace_id"] for s in retrievals} == {trace_id}
        info = report.waterfall(trace_id)
        assert sorted(info["stages"]) == sorted(TRACE_STAGES)
        assert info["linked"] == retrievals

    def test_each_retrieval_gets_its_own_trace(self, tmp_path):
        _, report = _traced_retrievals(
            tmp_path / "pir.jsonl", "reader",
            [range(0, 1024, 101), range(5, 1024, 211)],
        )
        ids = [r["attrs"]["trace_id"] for r in report.requests]
        assert len(ids) == len(set(ids)) == 2
        linked = [s["attrs"]["trace_id"]
                  for s in report.by_name["pir.retrieve_batch"]]
        assert set(linked) == set(ids)

    def test_a_failed_retrieval_reports_once_as_error(self, tmp_path,
                                                      monkeypatch):
        """Two retrievals of one session share a worker group; when the
        second fails, the first keeps its one ``answered`` span."""
        path = tmp_path / "pir.jsonl"
        with tele.session(path):
            with ServingRuntime(patients(64, seed=0), shards=1,
                                pir_values=list(range(64)),
                                auto_start=False) as runtime:
                pir = runtime.shards[0].pir
                read = pir.retrieve_batch_int
                calls = []

                def second_fails(indices, rng=None):
                    calls.append(rng)
                    if len(calls) == 2:
                        raise RuntimeError("slice unavailable")
                    return read(indices, rng=rng)

                monkeypatch.setattr(pir, "retrieve_batch_int", second_fails)
                first = runtime.submit_pir("reader", [3, 1], seed=1)
                second = runtime.submit_pir("reader", [2], seed=2)
                runtime.start()
                assert first.result(timeout=30) == [3, 1]
                with pytest.raises(RuntimeError, match="slice unavailable"):
                    second.result(timeout=30)
        requests = load_trace(path, validate=True).requests
        assert [r["attrs"]["outcome"] for r in requests] == [
            "answered", "error"
        ]
        assert len({r["attrs"]["trace_id"] for r in requests}) == 2


class TestStageBuckets:
    """``STAGE_BUCKETS``: the registry default saturates its lowest
    bucket on 1-500us stage timings, and the ladder keeps bucket-derived
    p50/p95 within one bucket width of the exact quantiles."""

    @pytest.mark.parametrize("seed", range(5))
    def test_ladder_within_one_bucket_width(self, seed):
        rng = np.random.default_rng(seed)
        timings = np.exp(rng.uniform(np.log(1e-6), np.log(5e-4), 400))
        counts = _counts(STAGE_BUCKETS, timings)
        for q in QUANTILES:
            estimate = quantile_from_buckets(STAGE_BUCKETS, counts, q)
            exact = _exact(timings, q)
            assert 0.0 <= estimate - exact < _width(STAGE_BUCKETS, estimate)

    def test_default_buckets_saturate_the_lowest_bucket(self):
        timings = np.linspace(1e-6, 9e-6, 200)
        default = _counts(DEFAULT_BUCKETS, timings)
        assert default[0] == len(timings)
        assert {quantile_from_buckets(DEFAULT_BUCKETS, default, q)
                for q in QUANTILES} == {DEFAULT_BUCKETS[0]}
        ladder = _counts(STAGE_BUCKETS, timings)
        p50, p95 = (quantile_from_buckets(STAGE_BUCKETS, ladder, q)
                    for q in QUANTILES)
        assert p50 < p95

    def test_traced_histograms_within_one_bucket_width(self, tmp_path):
        rng = np.random.default_rng(3)
        batches = [rng.integers(0, 1024, 16).tolist() for _ in range(60)]
        runtime, report = _traced_retrievals(
            tmp_path / "pir.jsonl", "reader", batches, seed=500
        )
        requests = report.requests
        assert len(requests) == len(batches)
        shard = runtime.shard_of("reader")
        registry = process_registry()
        for stage in TRACE_STAGES:
            exact_values = [r["attrs"][f"stage_{stage}_seconds"]
                            for r in requests]
            hist = registry.histogram(
                f"serving.shard{shard}.{stage}_seconds", STAGE_BUCKETS
            )
            assert hist.count == len(batches)
            for q in QUANTILES:
                estimate = quantile_from_buckets(
                    STAGE_BUCKETS, hist.bucket_counts, q
                )
                exact = _exact(exact_values, q)
                assert 0.0 <= estimate - exact < _width(STAGE_BUCKETS,
                                                        estimate), stage


# Mark spacing for the emission pins: a dyadic step, so every mark is
# exact above an integral base and every stage duration is the same
# float whatever the tracer's epoch.
UNIT = 2.0 ** -20

# (kind, session, seq, shard, queue_depth, outcome, reason, marks in
# UNITs after the base).  Marks are monotone along the request path, as
# the runtime records them: an answered and a refused query, a PIR
# retrieval (its audit stage is zero: the first slice lock was free), an
# overload refusal (submit, refused and done only; the queue depth
# stays unset) and an error raised after the ``lock`` mark.
EMIT_CASES = [
    ("qdb", "alice", 1, 0, 2, "answered", None,
     dict(submit=0, enqueue=3, dequeue=40, dispatch=45, lock=300,
          kernel=2000, gather=2010, done=2100)),
    ("qdb", "bob", 1, 1, 0, "refused",
     "overlap: query set overlaps a previous answer",
     dict(submit=0, enqueue=2, dequeue=9000, dispatch=9001, lock=9500,
          kernel=60000, gather=60004, done=60050)),
    ("pir", "reader", 1, 0, 5, "answered", None,
     dict(submit=0, enqueue=1, dequeue=100, dispatch=130, lock=130,
          kernel=50000, gather=50300, done=50310)),
    ("qdb", "carol", 1, 1, None, "refused-overload",
     "admission: shard ingress queue full",
     dict(submit=0, refused=7, done=20)),
    ("qdb", "alice", 2, 0, 1, "error", "RuntimeError('boom')",
     dict(submit=0, enqueue=4, dequeue=12, dispatch=14, lock=200,
          done=500)),
]

# Each case's ``serving.request`` record without ``start``, as JSON.
PINNED_RECORDS = [
    '{"type": "span", "span_id": 1, "parent_id": null, "name": '
    '"serving.request", "depth": 0, "duration": 0.0, "attrs": {"trace_id": '
    '"278ebc47-000001", "session": "alice", "kind": "qdb", "shard": 0, '
    '"queue_depth": 2, "outcome": "answered", "stage_admission_seconds": '
    '2.86102294921875e-06, "stage_queue_wait_seconds": '
    '3.528594970703125e-05, "stage_batch_assembly_seconds": '
    '4.76837158203125e-06, "stage_audit_seconds": 0.00024318695068359375, '
    '"stage_kernel_seconds": 0.001621246337890625, "stage_gather_seconds": '
    '9.5367431640625e-06, "stage_serialize_seconds": 8.58306884765625e-05}}',
    '{"type": "span", "span_id": 2, "parent_id": null, "name": '
    '"serving.request", "depth": 0, "duration": 0.0, "attrs": {"trace_id": '
    '"f5cbb140-000001", "session": "bob", "kind": "qdb", "shard": 1, '
    '"queue_depth": 0, "outcome": "refused", "reason": "overlap: query set '
    'overlaps a previous answer", "stage_admission_seconds": '
    '1.9073486328125e-06, "stage_queue_wait_seconds": 0.008581161499023438, '
    '"stage_batch_assembly_seconds": 9.5367431640625e-07, '
    '"stage_audit_seconds": 0.00047588348388671875, "stage_kernel_seconds": '
    '0.048160552978515625, "stage_gather_seconds": 3.814697265625e-06, '
    '"stage_serialize_seconds": 4.38690185546875e-05}}',
    '{"type": "span", "span_id": 3, "parent_id": null, "name": '
    '"serving.request", "depth": 0, "duration": 0.0, "attrs": {"trace_id": '
    '"cc3f893c-000001", "session": "reader", "kind": "pir", "shard": 0, '
    '"queue_depth": 5, "outcome": "answered", "stage_admission_seconds": '
    '9.5367431640625e-07, "stage_queue_wait_seconds": 9.441375732421875e-05, '
    '"stage_batch_assembly_seconds": 2.86102294921875e-05, '
    '"stage_audit_seconds": 0.0, "stage_kernel_seconds": '
    '0.04755973815917969, "stage_gather_seconds": 0.000286102294921875, '
    '"stage_serialize_seconds": 9.5367431640625e-06}}',
    '{"type": "span", "span_id": 4, "parent_id": null, "name": '
    '"serving.request", "depth": 0, "duration": 0.0, "attrs": {"trace_id": '
    '"6a3e8cc3-000001", "session": "carol", "kind": "qdb", "shard": 1, '
    '"queue_depth": -1, "outcome": "refused-overload", "reason": '
    '"admission: shard ingress queue full", "stage_admission_seconds": '
    '6.67572021484375e-06, "stage_serialize_seconds": 1.239776611328125e-05}}',
    '{"type": "span", "span_id": 5, "parent_id": null, "name": '
    '"serving.request", "depth": 0, "duration": 0.0, "attrs": {"trace_id": '
    '"278ebc47-000002", "session": "alice", "kind": "qdb", "shard": 0, '
    '"queue_depth": 1, "outcome": "error", "reason": "RuntimeError(\'boom\')", '
    '"stage_admission_seconds": 3.814697265625e-06, '
    '"stage_queue_wait_seconds": 7.62939453125e-06, '
    '"stage_batch_assembly_seconds": 1.9073486328125e-06, '
    '"stage_audit_seconds": 0.0001773834228515625}}',
]

# Every stage histogram the five emissions feed:
# name -> (bucket_counts, count, total, (exemplar trace id, value)).
PINNED_HISTOGRAMS = {
    "serving.shard0.admission_seconds": (
        [1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], 3,
        7.62939453125e-06, ("278ebc47-000002", 3.814697265625e-06)),
    "serving.shard0.audit_seconds": (
        [1, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0], 3,
        0.00042057037353515625,
        ("278ebc47-000001", 0.00024318695068359375)),
    "serving.shard0.batch_assembly_seconds": (
        [0, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], 3,
        3.528594970703125e-05, ("cc3f893c-000001", 2.86102294921875e-05)),
    "serving.shard0.gather_seconds": (
        [0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0], 2,
        0.0002956390380859375, ("cc3f893c-000001", 0.000286102294921875)),
    "serving.shard0.kernel_seconds": (
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0], 2,
        0.04918098449707031, ("cc3f893c-000001", 0.04755973815917969)),
    "serving.shard0.queue_wait_seconds": (
        [0, 0, 0, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], 3,
        0.0001373291015625, ("cc3f893c-000001", 9.441375732421875e-05)),
    "serving.shard0.serialize_seconds": (
        [0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], 2,
        9.5367431640625e-05, ("278ebc47-000001", 8.58306884765625e-05)),
    "serving.shard1.admission_seconds": (
        [0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], 2,
        8.58306884765625e-06, ("6a3e8cc3-000001", 6.67572021484375e-06)),
    "serving.shard1.audit_seconds": (
        [0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0], 1,
        0.00047588348388671875,
        ("f5cbb140-000001", 0.00047588348388671875)),
    "serving.shard1.batch_assembly_seconds": (
        [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], 1,
        9.5367431640625e-07, ("f5cbb140-000001", 9.5367431640625e-07)),
    "serving.shard1.gather_seconds": (
        [0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], 1,
        3.814697265625e-06, ("f5cbb140-000001", 3.814697265625e-06)),
    "serving.shard1.kernel_seconds": (
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0], 1,
        0.048160552978515625, ("f5cbb140-000001", 0.048160552978515625)),
    "serving.shard1.queue_wait_seconds": (
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0], 1,
        0.008581161499023438, ("f5cbb140-000001", 0.008581161499023438)),
    "serving.shard1.serialize_seconds": (
        [0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], 2,
        5.626678466796875e-05, ("f5cbb140-000001", 4.38690185546875e-05)),
}


def _emit_cases(tracer):
    """Emit every EMIT_CASES trace once; returns the traces."""
    base = math.floor(tracer._epoch) + 1.0
    traces = []
    for (kind, session, seq, shard, depth, outcome, reason,
         marks) in EMIT_CASES:
        trace = RequestTrace(mint_trace_id(session, seq), session, kind,
                             shard)
        if depth is not None:
            trace.queue_depth = depth
        for point, units in marks.items():
            setattr(trace, point, base + units * UNIT)
        emit_request_span(trace, outcome, reason)
        traces.append(trace)
    return traces


def _stage_histograms():
    """The stage histograms' state: name -> the PINNED_HISTOGRAMS shape."""
    out = {}
    for name, hist in tele.snapshot()["histograms"].items():
        if name.startswith("serving.shard"):
            exemplar = hist.get("exemplar", {})
            out[name] = (list(hist["buckets"].values()), hist["count"],
                         hist["total"],
                         (exemplar.get("trace_id"), exemplar.get("value")))
    return out


def _without_start(record):
    return json.dumps({k: v for k, v in record.items() if k != "start"})


def _emit_session(path=None):
    """Emit the cases in a fresh session, buffered-only without *path*
    and with a JSONL sink plus a subscriber with it.  Returns
    ``(records, histograms)``; ``start`` is checked here against the
    submit mark minus the tracer's epoch."""
    tele.reset_metrics()
    delivered = []
    with tele.session(path) as tracer:
        if path is not None:
            tracer.add_subscriber(delivered.append)
        traces = _emit_cases(tracer)
        records = [dict(record) for record in tracer.finished]
        histograms = _stage_histograms()
    assert len(records) == len(traces)
    for record, trace in zip(records, traces):
        assert record["start"] == trace.submit - tracer._epoch
    if path is not None:
        assert delivered == records
        lines = path.read_text().splitlines()[1:]
        assert lines == [json.dumps(record, separators=(",", ":"))
                         for record in records]
    return records, histograms


class TestEmissionPins:
    @pytest.mark.parametrize("consumers", ["buffered", "sink+subscriber"])
    def test_records_match_the_pins(self, tmp_path, consumers):
        path = tmp_path / "emit.jsonl" if consumers != "buffered" else None
        records, _ = _emit_session(path)
        assert [_without_start(r) for r in records] == PINNED_RECORDS

    @pytest.mark.parametrize("consumers", ["buffered", "sink+subscriber"])
    def test_stage_histograms_match_the_pins(self, tmp_path, consumers):
        path = tmp_path / "emit.jsonl" if consumers != "buffered" else None
        _, histograms = _emit_session(path)
        assert histograms == PINNED_HISTOGRAMS

    def test_both_sessions_give_the_same_records(self, tmp_path):
        buffered, buffered_hists = _emit_session()
        live, live_hists = _emit_session(tmp_path / "emit.jsonl")
        assert ([_without_start(r) for r in buffered]
                == [_without_start(r) for r in live])
        assert buffered_hists == live_hists

    def test_disabled_emission_is_a_no_op(self):
        trace = RequestTrace(mint_trace_id("alice", 1), "alice", "qdb", 0)
        trace.submit = trace.enqueue = trace.done = 1.0
        emit_request_span(trace, "answered")
        assert trace.outcome is None
        assert tele.snapshot()["histograms"] == {}


class TestTraceSampleKnob:
    """``REPRO_TRACE_SAMPLE`` is read like the other serving knobs: an
    integer >= 1, unset meaning 1, anything else a ``ValueError`` that
    names the knob when the runtime is built."""

    def _request_ids(self, path, asks):
        with tele.session(path):
            with ServingRuntime(patients(64, seed=0), shards=1) as runtime:
                for _ in range(asks):
                    runtime.ask("alice", "SELECT COUNT(*) WHERE age > 30")
        return [r["attrs"]["trace_id"] for r in load_trace(path).requests]

    @pytest.mark.parametrize("raw", ["0", "-3", "abc", "2.5"])
    def test_bad_values_raise_naming_the_knob(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", raw)
        with pytest.raises(ValueError, match="REPRO_TRACE_SAMPLE"):
            ServingRuntime(patients(64, seed=0), shards=1, auto_start=False)

    def test_unset_traces_every_request(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_TRACE_SAMPLE", raising=False)
        ids = self._request_ids(tmp_path / "all.jsonl", 3)
        assert ids == [mint_trace_id("alice", seq) for seq in (1, 2, 3)]

    def test_four_traces_every_fourth_request(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "4")
        ids = self._request_ids(tmp_path / "sampled.jsonl", 9)
        assert ids == [mint_trace_id("alice", seq) for seq in (1, 5, 9)]


class TestTracedCallerRunQuery:
    """A query decided on the calling thread never waits in a queue."""

    def test_seven_stages_no_queue_wait_and_a_linked_query_span(
            self, tmp_path):
        path = tmp_path / "qdb.jsonl"
        with tele.session(path):
            with ServingRuntime(patients(64, seed=0), shards=2) as runtime:
                future = runtime.submit(
                    "alice", "SELECT COUNT(*) WHERE height > 170")
                assert future.done()
        report = load_trace(path, validate=True)
        (request,) = report.requests
        attrs = request["attrs"]
        assert attrs["kind"] == "qdb"
        assert attrs["outcome"] == "answered"
        assert attrs["queue_depth"] == 0
        assert attrs["stage_queue_wait_seconds"] == 0.0
        info = report.waterfall(attrs["trace_id"])
        assert sorted(info["stages"]) == sorted(TRACE_STAGES)
        assert info["stages"]["queue_wait"] == 0.0
        assert [s["name"] for s in info["linked"]] == ["qdb.query"]
        assert info["linked"] == [
            s for s in report.by_name["qdb.query"]
            if s["attrs"].get("trace_id") == attrs["trace_id"]
        ]
