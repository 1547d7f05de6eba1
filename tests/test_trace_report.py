"""One indexed fold of a capture, and the one alert replay proof.

``TraceReport`` indexes a capture once, by span name and by trace id.
The scan-based reconstruction it replaced (``request_records``,
``waterfall`` and ``format_waterfall`` rescanned the whole capture per
lookup, and three decision extractors and three stage sums were written
out by hand) is kept below verbatim as the reference: the report text,
every waterfall dict and rendering, and ``repro trace --list`` of a
traced serving capture must match it byte for byte.

``replay_proof`` is the one replay comparison.  Every caller that reads
a capture or an incident bundle must still reject a doctored one, each
with its own error.
"""

import hashlib
import json

import pytest

from repro.cli import main
from repro.data import patients
from repro.serving import FakeClock, ServingRuntime
from repro.telemetry import instrument as tele
from repro.telemetry.observatory import (
    ALERT_SPAN_NAME,
    AlertSchemaError,
    replay_proof,
)
from repro.telemetry.observatory.service import verify_incident_bundle
from repro.telemetry.observatory.smoke import (
    ObserveSmokeError,
    default_golden_path,
    run_observe_smoke,
)
from repro.telemetry.report import (
    TraceReport,
    cache_efficiency,
    load_trace,
    read_trace,
    slowest_spans,
    summarize,
)
from repro.telemetry.requesttrace import REQUEST_SPAN_NAME, TRACE_STAGES

#: sha256 of the golden capture's report text, recorded from the
#: scan-based report before the index replaced it.
GOLDEN_REPORT_SHA256 = (
    "47af25b6106311651fb00fd67451781ebc48dac281cc34c8fc36ecfb6d604a8a"
)
GOLDEN_LABEL = "tests/data/observatory_golden.jsonl"


@pytest.fixture(autouse=True)
def clean_telemetry():
    tele.disable()
    tele.reset_metrics()
    yield
    tele.disable()
    tele.reset_metrics()


# ---------------------------------------------------------------------------
# The scan-based reference, verbatim.
# ---------------------------------------------------------------------------


def _ref_request_records(spans):
    return [s for s in spans if s.get("name") == REQUEST_SPAN_NAME]


def _ref_waterfall(spans, trace_id):
    spans = list(spans)
    request = None
    for record in _ref_request_records(spans):
        if record.get("attrs", {}).get("trace_id") == trace_id:
            request = record
            break
    if request is None:
        return None
    attrs = request.get("attrs", {})
    stages = {}
    for stage in TRACE_STAGES:
        value = attrs.get(f"stage_{stage}_seconds")
        if value is not None:
            stages[stage] = float(value)
    linked = [
        s for s in spans
        if s is not request and s.get("attrs", {}).get("trace_id") == trace_id
    ]
    return {
        "trace_id": trace_id,
        "session": attrs.get("session"),
        "kind": attrs.get("kind"),
        "shard": attrs.get("shard"),
        "queue_depth": attrs.get("queue_depth"),
        "outcome": attrs.get("outcome"),
        "reason": attrs.get("reason"),
        "stages": stages,
        "total_seconds": sum(stages.values()),
        "linked": linked,
    }


def _ref_fmt_seconds(value):
    if value >= 1.0:
        return f"{value:8.3f}s "
    if value >= 1e-3:
        return f"{value * 1e3:8.3f}ms"
    return f"{value * 1e6:8.1f}us"


def _ref_format_waterfall(spans, trace_id, width=40):
    info = _ref_waterfall(spans, trace_id)
    if info is None:
        raise KeyError(trace_id)
    lines = [
        (
            f"trace {info['trace_id']}  session={info['session']} "
            f"kind={info['kind']} shard={info['shard']} "
            f"queue_depth={info['queue_depth']} outcome={info['outcome']}"
        )
    ]
    if info["reason"]:
        lines.append(f"  reason: {info['reason']}")
    total = info["total_seconds"]
    lines.append(f"  total {_ref_fmt_seconds(total)}")
    offset = 0.0
    for stage in TRACE_STAGES:
        if stage not in info["stages"]:
            continue
        value = info["stages"][stage]
        if total > 0:
            lead = int(round(width * offset / total))
            bar = int(round(width * value / total))
        else:
            lead = bar = 0
        bar = max(1, bar) if value > 0 else bar
        lines.append(
            f"    {stage:<14s}{_ref_fmt_seconds(value)}  "
            f"{' ' * lead}{'#' * bar}"
        )
        offset += value
    if info["linked"]:
        lines.append("  linked spans:")
        for record in info["linked"]:
            attrs = record.get("attrs", {})
            detail = ""
            if "refused" in attrs:
                detail = " refused" if attrs["refused"] else " answered"
            if "decision" in attrs:
                detail += f" decision={attrs['decision']}"
            lines.append(
                f"    {record['name']} "
                f"{_ref_fmt_seconds(float(record['duration']))}"
                f"{detail}"
            )
    return "\n".join(lines)


def _ref_trace_list(spans):
    lines = []
    for record in _ref_request_records(spans):
        attrs = record["attrs"]
        wall = sum(
            float(attrs.get(f"stage_{s}_seconds", 0.0))
            for s in TRACE_STAGES
        )
        lines.append(
            f"{attrs.get('trace_id')}  {attrs.get('kind', '?'):<4s} "
            f"{wall * 1e3:8.3f} ms  session={attrs.get('session')} "
            f"shard={attrs.get('shard')} "
            f"outcome={attrs.get('outcome')}"
        )
    return lines


def _ref_refusal_decisions(spans):
    decisions = []
    for span in spans:
        attrs = span["attrs"]
        if span["name"] == "qdb.query" and attrs.get("refused") is True:
            decisions.append({
                "span_id": span["span_id"],
                "query": attrs.get("query", "?"),
                "policy": attrs.get("policy", "?"),
                "reason": attrs.get("reason", "?"),
            })
    return decisions


def _ref_degradation_decisions(spans):
    decisions = []
    for span in spans:
        if span["name"] != "faults.degrade":
            continue
        attrs = span["attrs"]
        decisions.append({
            "span_id": span["span_id"],
            "component": attrs.get("component", "?"),
            "decision": attrs.get("decision", "?"),
            "reason": attrs.get("reason", "?"),
        })
    return decisions


def _ref_alert_decisions(spans):
    decisions = []
    for span in spans:
        if span["name"] != "observatory.alert":
            continue
        attrs = span["attrs"]
        decisions.append({
            "span_id": span["span_id"],
            "alert": attrs.get("alert", "?"),
            "severity": attrs.get("severity", "?"),
            "dimension": attrs.get("dimension", "?"),
            "step": attrs.get("step", 0),
            "detail": attrs.get("detail", ""),
        })
    return decisions


def _ref_format(path, spans, top=10):
    lines = [f"trace: {path} ({len(spans)} spans)", ""]
    stats = summarize(spans)
    if stats:
        width = max(len(name) for name in stats)
        lines.append(
            f"{'span':<{width}s} {'count':>7s} {'total_ms':>10s} "
            f"{'mean_ms':>9s} {'max_ms':>9s} {'refused':>8s}"
        )
        for name, s in stats.items():
            lines.append(
                f"{name:<{width}s} {s.count:>7d} {s.total * 1e3:>10.3f} "
                f"{s.mean * 1e3:>9.3f} {s.max * 1e3:>9.3f} "
                f"{s.refused:>8d}"
            )
    else:
        lines.append("(no spans)")
    slow = slowest_spans(spans, top)
    if slow:
        lines += ["", f"top {len(slow)} slowest spans:"]
        name_width = max(len(s["name"]) for s in slow)
        for span in slow:
            detail = span["attrs"].get("query") or ""
            lines.append(
                f"  #{span['span_id']:<5d} {span['name']:<{name_width}s} "
                f"{span['duration'] * 1e3:9.3f} ms  {detail}"
            )
    caches = cache_efficiency(spans)
    if any(c["hits"] + c["misses"]
           for c in (caches["mask_cache"], caches["plan_cache"])):
        lines += ["", "cache efficiency:"]
        for label, key in (("mask cache", "mask_cache"),
                           ("plan cache", "plan_cache")):
            entry = caches[key]
            if entry["hits"] + entry["misses"] == 0:
                continue
            lines.append(
                f"  {label:<11s} {entry['hits']} hits / "
                f"{entry['misses']} misses "
                f"({entry['hit_rate']:.1%} hit rate)"
            )
    refusals = _ref_refusal_decisions(spans)
    lines += ["", f"refusal decisions: {len(refusals)}"]
    for decision in refusals:
        lines.append(
            f"  [{decision['policy']}] {decision['query']}\n"
            f"      -> {decision['reason']}"
        )
    degradations = _ref_degradation_decisions(spans)
    lines += ["", f"degradation decisions: {len(degradations)}"]
    for decision in degradations:
        lines.append(
            f"  [{decision['component']}] {decision['decision']}\n"
            f"      -> {decision['reason']}"
        )
    alerts = _ref_alert_decisions(spans)
    lines += ["", f"observatory alerts: {len(alerts)}"]
    for decision in alerts:
        lines.append(
            f"  [{decision['severity']}] {decision['alert']} "
            f"({decision['dimension']}, step {decision['step']})\n"
            f"      -> {decision['detail']}"
        )
    requests = _ref_request_records(spans)
    if requests:
        outcomes = {}
        stage_totals = {}
        for record in requests:
            attrs = record["attrs"]
            outcome = attrs.get("outcome", "?")
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
            for stage in TRACE_STAGES:
                value = attrs.get(f"stage_{stage}_seconds")
                if value is not None:
                    stage_totals[stage] = (
                        stage_totals.get(stage, 0.0) + float(value)
                    )
        summary = ", ".join(
            f"{count} {outcome}" for outcome, count in
            sorted(outcomes.items())
        )
        lines += ["", f"traced requests: {len(requests)} ({summary})"]
        total = sum(stage_totals.values())
        for stage in TRACE_STAGES:
            if stage not in stage_totals:
                continue
            value = stage_totals[stage]
            share = value / total if total else 0.0
            lines.append(
                f"  {stage:<14s} {value * 1e3:>10.3f} ms total "
                f"({share:5.1%} of traced wall time)"
            )
        slow_requests = sorted(
            requests,
            key=lambda r: -sum(
                float(r["attrs"].get(f"stage_{s}_seconds", 0.0))
                for s in TRACE_STAGES
            ),
        )[:min(top, 5)]
        lines.append("  slowest requests (see `repro trace <id>`):")
        for record in slow_requests:
            attrs = record["attrs"]
            wall = sum(
                float(attrs.get(f"stage_{s}_seconds", 0.0))
                for s in TRACE_STAGES
            )
            lines.append(
                f"    {attrs.get('trace_id')}  {wall * 1e3:8.3f} ms  "
                f"session={attrs.get('session')} "
                f"shard={attrs.get('shard')} "
                f"outcome={attrs.get('outcome')}"
            )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The fold matches the reference.
# ---------------------------------------------------------------------------

GREEDY = (
    "SELECT COUNT(*) WHERE height > 170",
    "SELECT AVG(blood_pressure) WHERE height <= 175",
    "SELECT COUNT(*) WHERE weight <= 80",
)


@pytest.fixture(scope="module")
def serving_capture(tmp_path_factory):
    """A traced serving capture whose first requests are overload refusals.

    With no refill and a burst of 3, the runtime refuses the greedy
    session's later submits at admission, before any worker starts, so
    those admission-and-serialize-only requests sit ahead of every full
    seven-stage request in the capture.  A size-control refusal, a
    queued burst and a PIR retrieval follow.
    """
    path = tmp_path_factory.mktemp("fold") / "serving.jsonl"
    tele.disable()
    tele.reset_metrics()
    with tele.session(path):
        with ServingRuntime(patients(150, seed=3), shards=2,
                            session_rate=0.0, session_burst=3,
                            clock=FakeClock(), auto_start=False,
                            pir_values=list(range(64))) as runtime:
            futures = [runtime.submit("greedy", GREEDY[i % 3])
                       for i in range(8)]
            futures.append(runtime.submit("whole", "SELECT COUNT(*)"))
            futures += [runtime.submit(f"user-{i}", GREEDY[i % 3])
                        for i in range(6)]
            fetch = runtime.submit_pir("reader", [3, 40, 17, 63], seed=7)
            runtime.start()
            answers = [f.result(timeout=30) for f in futures]
            assert fetch.result(timeout=30) == [3, 40, 17, 63]
    tele.disable()
    tele.reset_metrics()
    assert sum(a.refused for a in answers) >= 6
    return path


class TestFoldMatchesScan:
    def test_golden_report_digest(self):
        report = TraceReport(GOLDEN_LABEL, read_trace(default_golden_path()))
        digest = hashlib.sha256(report.format().encode()).hexdigest()
        assert digest == GOLDEN_REPORT_SHA256

    def test_capture_puts_overload_refusals_first(self, serving_capture):
        requests = load_trace(serving_capture).requests
        outcomes = [r["attrs"]["outcome"] for r in requests]
        assert outcomes[:5] == ["refused-overload"] * 5
        assert "refused" in outcomes and "answered" in outcomes
        first = requests[0]["attrs"]
        assert [s for s in TRACE_STAGES
                if f"stage_{s}_seconds" in first] == ["admission",
                                                      "serialize"]
        assert {r["attrs"]["kind"] for r in requests} == {"qdb", "pir"}

    def test_every_waterfall_matches(self, serving_capture):
        report = load_trace(serving_capture)
        spans = read_trace(serving_capture)
        trace_ids = [r["attrs"]["trace_id"]
                     for r in _ref_request_records(spans)]
        assert len(trace_ids) == len(report.requests) >= 16
        linked = 0
        for trace_id in trace_ids:
            got = report.waterfall(trace_id)
            want = _ref_waterfall(spans, trace_id)
            assert json.dumps(got, sort_keys=True) == json.dumps(
                want, sort_keys=True
            )
            assert got == want
            assert report.format_waterfall(trace_id) == (
                _ref_format_waterfall(spans, trace_id)
            )
            assert report.format_waterfall(trace_id, width=13) == (
                _ref_format_waterfall(spans, trace_id, width=13)
            )
            linked += len(got["linked"])
        assert linked >= len(trace_ids)
        assert report.waterfall("00000000-000000") is None
        with pytest.raises(KeyError):
            report.format_waterfall("00000000-000000")

    @pytest.mark.parametrize("top", [10, 3])
    def test_report_text_matches(self, serving_capture, top):
        report = load_trace(serving_capture)
        spans = read_trace(serving_capture)
        assert report.format(top=top) == _ref_format(
            str(serving_capture), spans, top=top
        )
        assert report.decisions("refusal") == _ref_refusal_decisions(spans)
        assert report.decisions("degradation") == (
            _ref_degradation_decisions(spans)
        )
        assert report.decisions("alert") == _ref_alert_decisions(spans)

    def test_golden_decisions_match(self):
        spans = read_trace(default_golden_path())
        report = TraceReport(GOLDEN_LABEL, spans)
        assert report.decisions("alert") == _ref_alert_decisions(spans)
        assert report.decisions("refusal") == _ref_refusal_decisions(spans)
        assert report.format() == _ref_format(GOLDEN_LABEL, spans)

    def test_trace_cli_matches(self, serving_capture, capsys):
        spans = read_trace(serving_capture)
        capture = ["--capture", str(serving_capture)]
        assert main(["trace", *capture, "--list"]) == 0
        assert capsys.readouterr().out == "\n".join(
            _ref_trace_list(spans)) + "\n"
        for record in _ref_request_records(spans)[:6]:
            trace_id = record["attrs"]["trace_id"]
            assert main(["trace", trace_id, *capture]) == 0
            assert capsys.readouterr().out == (
                _ref_format_waterfall(spans, trace_id) + "\n"
            )
            assert main(["trace", trace_id, *capture, "--json"]) == 0
            assert capsys.readouterr().out == json.dumps(
                _ref_waterfall(spans, trace_id), indent=2, sort_keys=True
            ) + "\n"


# ---------------------------------------------------------------------------
# Every caller of the replay proof rejects a doctored capture.
# ---------------------------------------------------------------------------


def _alert_positions(records):
    return [i for i, r in enumerate(records) if r["name"] == ALERT_SPAN_NAME]


def _first_span_sourced(records):
    return next(i for i in _alert_positions(records)
                if records[i]["attrs"]["source"] == "span")


def _with_attrs(records, position, attrs):
    doctored = list(records)
    doctored[position] = dict(records[position], attrs=attrs)
    return doctored


def _step_plus_one(records):
    i = _first_span_sourced(records)
    attrs = records[i]["attrs"]
    return _with_attrs(records, i, dict(attrs, step=attrs["step"] + 1))


def _drop_alert(records):
    i = _alert_positions(records)[-1]
    return records[:i] + records[i + 1:]


def _drop_source(records):
    i = _first_span_sourced(records)
    attrs = dict(records[i]["attrs"])
    del attrs["source"]
    return _with_attrs(records, i, attrs)


def _append_metric_alert(records):
    last = records[_alert_positions(records)[-1]]
    return list(records) + [dict(
        last, span_id=max(r["span_id"] for r in records) + 1,
        attrs=dict(last["attrs"], source="metric"),
    )]


#: What ``repro observe --smoke`` reports for each doctored golden capture.
OBSERVE_SMOKE_FAILURES = {
    _step_plus_one:
        "recorded alert spans (5) do not match the re-derived alerts (5)",
    _drop_alert:
        "recorded alert spans (4) do not match the re-derived alerts (5)",
    _drop_source: "malformed alert span: alert span missing attr 'source'",
    _append_metric_alert:
        "recorded alert spans (6) do not match the re-derived alerts (5)",
}

DOCTORS = {
    "step+1": _step_plus_one,
    "deleted alert": _drop_alert,
    "no source": _drop_source,
    "metric alert": _append_metric_alert,
}


def _doctored_load_trace(monkeypatch, module, doctor):
    def load(path, validate=True):
        return TraceReport(str(path), doctor(read_trace(path, validate)))

    monkeypatch.setattr(module, "load_trace", load)


def _write_capture(path, records):
    lines = [json.dumps({"type": "meta", "schema": 1})]
    lines += [json.dumps(record) for record in records]
    path.write_text("\n".join(lines) + "\n")
    return path


class TestReplayProofCallers:
    def test_the_undoctored_golden_verifies(self):
        report = load_trace(default_golden_path())
        alerts = [s["attrs"] for s in report.by_name[ALERT_SPAN_NAME]]
        proof = replay_proof(report.spans, alerts)
        assert proof == {
            "verified": True,
            "alerts_recorded": 5,
            "alerts_replayed": 5,
            "detail": "replay re-derived all 5 span-sourced alert(s)",
        }

    @pytest.mark.parametrize("doctor", DOCTORS.values(), ids=DOCTORS.keys())
    def test_observe_smoke(self, tmp_path, capsys, doctor):
        records = read_trace(default_golden_path())
        path = _write_capture(tmp_path / "golden.jsonl", doctor(records))
        with pytest.raises(ObserveSmokeError):
            run_observe_smoke(path)
        assert main(["observe", "--smoke", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"observe smoke FAILED: {OBSERVE_SMOKE_FAILURES[doctor]}\n"
        )

    @pytest.mark.parametrize("doctor", DOCTORS.values(), ids=DOCTORS.keys())
    def test_telemetry_smoke(self, tmp_path, monkeypatch, doctor):
        import repro.telemetry.smoke as smoke
        from repro.telemetry import SmokeError, run_smoke

        _doctored_load_trace(monkeypatch, smoke, doctor)
        with pytest.raises(SmokeError):
            run_smoke(tmp_path / "smoke.jsonl")

    @pytest.mark.parametrize("doctor", DOCTORS.values(), ids=DOCTORS.keys())
    def test_chaos(self, tmp_path, monkeypatch, capsys, doctor):
        import repro.faults.chaos as chaos
        from repro.faults import ChaosError, run_chaos

        _doctored_load_trace(monkeypatch, chaos, doctor)
        error = AlertSchemaError if doctor is _drop_source else ChaosError
        with pytest.raises(error):
            run_chaos(tmp_path / "chaos.jsonl")
        out = str(tmp_path / "cli.jsonl")
        assert main(["faults", "chaos", "--out", out]) == 1
        assert "chaos FAILED" in capsys.readouterr().err

    def test_incident_bundle(self):
        records = read_trace(default_golden_path())

        def bundle(records):
            return {
                "spans_dropped": 0,
                "trace": records,
                "alerts": [dict(r["attrs"]) for r in records
                           if r["name"] == ALERT_SPAN_NAME],
            }

        assert verify_incident_bundle(bundle(records))["verified"] is True
        for doctor in (_step_plus_one, _drop_alert):
            proof = verify_incident_bundle(bundle(doctor(records)))
            assert proof["verified"] is False
            assert proof["detail"].startswith("replay drift")
        with pytest.raises(AlertSchemaError, match="source"):
            verify_incident_bundle(bundle(_drop_source(records)))
        # A bundle's proof covers its span-sourced alerts only: a metric
        # alert cannot be re-derived from the trace, so it is not counted.
        proof = verify_incident_bundle(bundle(_append_metric_alert(records)))
        assert proof["verified"] is True
        assert proof["alerts_recorded"] == 5
