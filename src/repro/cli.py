"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``table1``
    Print the paper's Table 1 and its anonymity analysis.
``table2``
    Run the empirical technology scoring and print the comparison.
``recommend R,O,U``
    Print the Section 6 deployment recommendation for the requested
    privacy dimensions (any of ``respondent``, ``owner``, ``user``).
``mask <csv> --method ... --k ...``
    Mask a CSV file and write the release next to it.
``tracker``
    Demonstrate the Schlörer tracker against a synthetic database.
``attack-pir``
    Run the Section 3 COUNT/AVG attack on Dataset 2.
``qdb explain "<query>" --policies size:5,overlap:40,sum-audit``
    Print the checks and transforms the policy stack runs on the query,
    in stack order (a policy whose type does not override ``review`` or
    ``transform`` is left out of that list); ``--pir-demo`` adds the
    requested and unique cell counts of a Section 3 range batch.
``telemetry report <trace.jsonl>``
    Summarize a captured trace: latency table, slowest spans, refusals.
``telemetry dashboard``
    Render the privacy-meter dashboard beside live operational metrics.
``telemetry smoke``
    Run the instrumented S1/S3a scenario and validate its capture
    against the span schema (the CI drift gate).
``faults chaos``
    Run the scripted chaos scenario: byzantine PIR replicas, crashed
    SMC parties and failing qdb backends, asserting the privacy
    invariants hold under fire (the ``make chaos`` gate).
``observe [trace.jsonl]``
    The privacy observatory: replay a captured trace (``--follow``
    narrates each alert as it fires, ``--limit N`` caps the narration)
    or run the live instrumented scenario, then render per-dimension
    posture meters beside the fired alerts.  ``--smoke`` validates the
    committed golden trace (the ``make observe-smoke`` gate);
    ``--metrics-out`` exports the metrics snapshot as OpenMetrics text
    or JSONL.
``observe http://host:port``
    Follow a running ``repro serve`` observatory's SSE stream: alerts
    are narrated as they fire (``--follow`` adds posture points,
    ``--limit N`` disconnects after N alerts); Ctrl-C exits cleanly.
``serve``
    Boot the sharded serving runtime with the observatory service's
    HTTP surface on top: consistent-hash session routing, bounded
    per-shard queues, token-bucket admission, the shared cross-shard
    audit view, and the OpenMetrics scrape (``/metrics``), live SSE
    event stream (``/events``), per-session timelines
    (``/sessions``), request traces (``/traces``) and one-call
    incident bundles (``/incident``).  ``--load`` drives the
    concurrent load generator (split-tracker cohort) once at startup;
    ``--smoke`` runs the served stack's end-to-end gate (``make
    serve-smoke``): the cross-shard split tracker must be refused,
    its tracker-probe alert must arrive over real HTTP/SSE, every
    endpoint must answer consistently, and the JSONL capture
    (``--out``, default a temp file) must reconstruct complete
    request waterfalls.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np


def _cmd_table1(_args: argparse.Namespace) -> int:
    from .data import dataset_1, dataset_2, format_table_1
    from .sdc import anonymity_level

    print(format_table_1())
    print()
    print(f"Dataset 1 anonymity level: {anonymity_level(dataset_1())}")
    print(f"Dataset 2 anonymity level: {anonymity_level(dataset_2())}")
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from .core import format_table2, score_technologies

    comparison = score_technologies(seed=args.seed)
    print(format_table2(comparison))
    return 0 if comparison.agreement == 1.0 else 1


def _parse_dimensions(spec: str):
    from .core import PrivacyDimension

    alias = {
        "r": PrivacyDimension.RESPONDENT,
        "respondent": PrivacyDimension.RESPONDENT,
        "o": PrivacyDimension.OWNER,
        "owner": PrivacyDimension.OWNER,
        "u": PrivacyDimension.USER,
        "user": PrivacyDimension.USER,
    }
    dims = set()
    for token in spec.split(","):
        token = token.strip().lower()
        if token not in alias:
            raise SystemExit(
                f"unknown dimension {token!r}; use respondent/owner/user"
            )
        dims.add(alias[token])
    return dims


def _cmd_recommend(args: argparse.Namespace) -> int:
    from .core import recommend

    for rec in recommend(_parse_dimensions(args.dimensions)):
        print(f"* {rec.description}")
        print(f"  {rec.rationale}")
    return 0


_METHODS = {
    "microaggregation": lambda a: _sdc().Microaggregation(a.k),
    "mondrian": lambda a: _sdc().MondrianKAnonymizer(a.k),
    "condensation": lambda a: _sdc().Condensation(a.k),
    "noise": lambda a: _sdc().UncorrelatedNoise(a.scale),
    "rankswap": lambda a: _sdc().RankSwap(a.scale * 100),
    "pram": lambda a: _sdc().Pram(1.0 - a.scale),
}


def _sdc():
    from . import sdc

    return sdc


def _cmd_mask(args: argparse.Namespace) -> int:
    from .data import read_csv, write_csv
    from .sdc import assess_risk, assess_utility

    source = Path(args.csv)
    data = read_csv(source)
    method = _METHODS[args.method](args)
    release = method.mask(data, np.random.default_rng(args.seed))
    target = source.with_name(f"{source.stem}.masked{source.suffix}")
    write_csv(release, target)
    print(f"wrote {target} ({release.n_rows} rows) using {method.name}")
    numeric = [
        c for c in data.numeric_columns()
        if c in release.column_names and release.is_numeric(c)
    ]
    if numeric and release.n_rows == data.n_rows:
        risk = assess_risk(data, release, numeric)
        utility = assess_utility(data, release, numeric)
        print(f"linkage risk {risk.linkage_rate:.3f}, "
              f"IL1s {utility.il1s:.3f}")
    return 0


def _cmd_tracker(args: argparse.Namespace) -> int:
    from .data import patients
    from .qdb import (
        QuerySetSizeControl,
        StatisticalDatabase,
        tracker_attack,
        tracker_targets,
    )

    pop = patients(args.records, seed=args.seed)
    unique = tracker_targets(pop, ["height", "weight"], 5)
    if not unique:
        print("no trackable unique target in this population")
        return 1
    db = StatisticalDatabase(pop, [QuerySetSizeControl(5)])
    result = tracker_attack(
        db, pop, unique[0], ["height", "weight"], "blood_pressure"
    )
    print(f"target record #{unique[0]}")
    print(f"tracker succeeded: {result.succeeded}")
    if result.succeeded:
        print(f"inferred blood pressure {result.inferred_value:.0f} "
              f"(truth {result.true_value:.0f}) "
              f"in {result.queries_asked} size-controlled queries")
    return 0 if result.succeeded else 1


def _cmd_scoreboard(args: argparse.Namespace) -> int:
    from .core import masking_scoreboard
    from .data import patients
    from .sdc import (
        Condensation,
        IdentityMasking,
        Microaggregation,
        MondrianKAnonymizer,
        RankSwap,
        SyntheticRelease,
        UncorrelatedNoise,
    )

    population = patients(args.records, seed=args.seed).drop(["patient_id"])
    methods = [
        IdentityMasking(),
        Microaggregation(5),
        MondrianKAnonymizer(5),
        Condensation(14),
        SyntheticRelease(),
        UncorrelatedNoise(0.5),
        RankSwap(15),
    ]
    for assessment in masking_scoreboard(
        methods, population, with_pir=args.pir, seed=args.seed
    ):
        print(assessment.summary())
    return 0


def _cmd_attack_pir(_args: argparse.Namespace) -> int:
    from .attacks import isolation_attack
    from .data import dataset_2
    from .pir import PrivateAggregateIndex

    ds2 = dataset_2()
    index = PrivateAggregateIndex(
        ds2, ["height", "weight"], "blood_pressure",
        edges={"height": [150, 165, 180, 200], "weight": [50, 80, 105, 130]},
    )
    result = index.query({"height": (0, 165), "weight": (105, 1000)})
    print("SELECT COUNT(*)             WHERE height < 165 AND weight > 105 "
          f"-> {result.count}")
    print("SELECT AVG(blood_pressure)  WHERE height < 165 AND weight > 105 "
          f"-> {result.average:.0f}")
    sweep = isolation_attack(index, ds2.n_rows)
    print(f"full sweep: {len(sweep.victims)}/{sweep.population} respondents "
          "isolated while the PIR servers learned nothing")
    return 0


def _parse_policy_stack(spec: str):
    from .qdb import (
        CamouflageIntervals,
        NoisePerturbation,
        OverlapControl,
        QuerySetSizeControl,
        RandomSampleQueries,
        SumAuditPolicy,
    )

    factories = {
        "size": lambda arg: QuerySetSizeControl(int(arg or 5)),
        "overlap": lambda arg: OverlapControl(int(arg or 40)),
        "sum-audit": lambda arg: SumAuditPolicy(),
        "noise": lambda arg: NoisePerturbation(float(arg or 1.0)),
        "sample": lambda arg: RandomSampleQueries(float(arg or 0.9)),
        "camouflage": lambda arg: CamouflageIntervals(int(arg or 2)),
    }
    policies = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        name, _, arg = token.partition(":")
        if name not in factories:
            raise SystemExit(
                f"unknown policy {name!r}; choose from "
                f"{', '.join(sorted(factories))} (e.g. size:5,overlap:40)"
            )
        try:
            policies.append(factories[name](arg))
        except ValueError as exc:
            raise SystemExit(f"bad policy {token!r}: {exc}") from None
    return policies


def _cmd_qdb(args: argparse.Namespace) -> int:
    return _QDB_COMMANDS[args.qdb_command](args)


def _cmd_qdb_explain(args: argparse.Namespace) -> int:
    from .data import patients
    from .qdb import ParseError, StatisticalDatabase

    pop = patients(args.records, seed=args.seed)
    db = StatisticalDatabase(pop, _parse_policy_stack(args.policies))
    try:
        print(db.explain(args.query))
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.pir_demo:
        from .data import dataset_2
        from .pir import PrivateAggregateIndex

        index = PrivateAggregateIndex(
            dataset_2(), ["height", "weight"], "blood_pressure",
            edges={"height": [150, 165, 180, 200],
                   "weight": [50, 80, 105, 130]},
        )
        cells, routes = index.batch_cells([
            {"height": (0, 165), "weight": (105, 1000)},
            {"height": (0, 165)},
        ])
        print()
        print("-- PIR range batch (Section 3 grid, 2 predicates) --")
        print(f"cells requested: {sum(map(len, routes))}")
        print(f"unique cells fetched: {len(cells)}, one retrieve_batch round")
    return 0


_QDB_COMMANDS = {
    "explain": _cmd_qdb_explain,
}


def _cmd_telemetry(args: argparse.Namespace) -> int:
    from .telemetry import SpanSchemaError

    try:
        return _TELEMETRY_COMMANDS[args.telemetry_command](args)
    except (SpanSchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_telemetry_report(args: argparse.Namespace) -> int:
    from .telemetry import load_trace

    report = load_trace(args.trace, validate=not args.no_validate)
    print(report.format(top=args.top))
    return 0


def _cmd_telemetry_dashboard(args: argparse.Namespace) -> int:
    from .core import assess_masking
    from .data import patients
    from .sdc import Microaggregation, RankSwap, UncorrelatedNoise
    from .telemetry import instrument as tele
    from .telemetry import render_dashboard

    population = patients(args.records, seed=args.seed).drop(["patient_id"])
    methods = [Microaggregation(5), UncorrelatedNoise(0.5), RankSwap(15)]
    with tele.session():
        assessments = [
            assess_masking(m, population, with_pir=args.pir, seed=args.seed)
            for m in methods
        ]
        snapshot = tele.snapshot()
    print(render_dashboard(assessments, snapshot))
    return 0


def _cmd_telemetry_smoke(args: argparse.Namespace) -> int:
    import json

    from .telemetry import SmokeError, run_smoke
    from .telemetry.tracing import temp_capture

    trace = args.out or str(temp_capture("repro-telemetry-smoke-"))
    try:
        summary = run_smoke(trace, records=args.records, seed=args.seed)
    except SmokeError as exc:
        print(f"telemetry smoke FAILED: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary, indent=2, sort_keys=True))
    print("telemetry smoke OK")
    return 0


_TELEMETRY_COMMANDS = {
    "report": _cmd_telemetry_report,
    "dashboard": _cmd_telemetry_dashboard,
    "smoke": _cmd_telemetry_smoke,
}


def _cmd_faults(args: argparse.Namespace) -> int:
    return _FAULTS_COMMANDS[args.faults_command](args)


def _cmd_faults_chaos(args: argparse.Namespace) -> int:
    import json

    from .faults import ChaosError, run_chaos
    from .telemetry import SpanSchemaError
    from .telemetry.observatory import AlertSchemaError
    from .telemetry.tracing import temp_capture

    trace = args.out or str(temp_capture("repro-faults-chaos-"))
    try:
        summary = run_chaos(trace, records=args.records, seed=args.seed,
                            f=args.f)
    except (ChaosError, SpanSchemaError, AlertSchemaError) as exc:
        print(f"chaos FAILED: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary, indent=2, sort_keys=True))
    print(f"chaos OK: {summary['invariants_held']} invariants held, "
          f"{summary['degradation_decisions']} degradation decisions "
          f"logged to {summary['trace']}")
    return 0


_FAULTS_COMMANDS = {
    "chaos": _cmd_faults_chaos,
}


def _export_metrics(args: argparse.Namespace) -> None:
    from .telemetry import instrument as tele
    from .telemetry.observatory import render_openmetrics, write_snapshot_jsonl

    snapshot = tele.snapshot()
    if args.metrics_format == "openmetrics":
        Path(args.metrics_out).write_text(
            render_openmetrics(snapshot), encoding="utf-8"
        )
    else:
        write_snapshot_jsonl(snapshot, args.metrics_out)
    print(f"metrics snapshot ({args.metrics_format}) -> {args.metrics_out}")


def _cmd_observe(args: argparse.Namespace) -> int:
    try:
        return _observe_dispatch(args)
    except KeyboardInterrupt:
        # A follow session is normally ended by Ctrl-C; exit the
        # way interactive unix tools do — a clean line, no traceback.
        print("\ninterrupted", file=sys.stderr)
        return 130


def _observe_dispatch(args: argparse.Namespace) -> int:
    import json

    from .telemetry import SpanSchemaError
    from .telemetry.observatory import replay_trace
    from .telemetry.observatory.smoke import (
        ObserveSmokeError,
        run_observe_smoke,
    )

    if args.trace is not None and args.trace.startswith(("http://",
                                                         "https://")):
        return _observe_follow_sse(args)

    if args.smoke:
        try:
            summary = run_observe_smoke(args.trace)
        except (ObserveSmokeError, SpanSchemaError) as exc:
            print(f"observe smoke FAILED: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(summary, indent=2, sort_keys=True))
        print("observe smoke OK")
        return 0

    trace = args.trace
    if trace is None:
        # Live mode: run the instrumented attack scenario, capture it,
        # then read the observatory state back off the capture — the
        # same path `--follow` replays, so what you watch is exactly
        # what a later forensic replay will re-derive.
        from .telemetry import SmokeError, run_smoke
        from .telemetry.tracing import temp_capture

        trace = args.out or str(temp_capture("repro-observe-"))
        try:
            run_smoke(trace, records=args.records, seed=args.seed)
        except SmokeError as exc:
            print(f"observe scenario FAILED: {exc}", file=sys.stderr)
            return 1
        print(f"live scenario captured -> {trace}\n")

    narrated = 0

    def narrate(alert, record):
        nonlocal narrated
        if args.limit is not None and narrated >= args.limit:
            return
        narrated += 1
        print(f"  step {alert.step:>5d}  [{alert.severity:<8s}] "
              f"{alert.name} ({alert.dimension}): {alert.detail}")
        if args.limit is not None and narrated == args.limit:
            print(f"  ... narration capped at --limit {args.limit}")

    try:
        observatory = replay_trace(
            trace, on_alert=narrate if args.follow else None
        )
    except (SpanSchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.follow:
        print()
    print(observatory.render(title=f"privacy observatory — {trace}"))
    if args.metrics_out:
        print()
        _export_metrics(args)
    return 0


def _observe_follow_sse(args: argparse.Namespace) -> int:
    from urllib.error import URLError
    from urllib.request import urlopen

    from .telemetry.observatory.service import iter_sse_frames

    url = args.trace.rstrip("/") + "/events"
    print(f"following {url} (Ctrl-C to stop)")
    alerts = 0
    try:
        stream = urlopen(url)
    except (URLError, OSError) as exc:
        print(f"error: cannot reach {url}: {exc}", file=sys.stderr)
        return 1
    with stream as response:
        for event, payload in iter_sse_frames(response):
            if event == "hello":
                print(f"connected: schema {payload['schema']}, "
                      f"step {payload['step']}, watching "
                      f"{', '.join(payload['series'])}")
            elif event == "alert":
                print(f"  step {payload.get('step', 0):>5d}  "
                      f"[{payload.get('severity', '?'):<8s}] "
                      f"{payload.get('alert', '?')} "
                      f"({payload.get('dimension', '?')}): "
                      f"{payload.get('detail', '')}")
                alerts += 1
                if args.limit is not None and alerts >= args.limit:
                    print(f"--limit {args.limit} reached, disconnecting")
                    return 0
            elif event == "point" and args.follow:
                meters = "  ".join(
                    f"{dim}={score:.2f}"
                    for dim, score in sorted(payload["posture"].items())
                )
                print(f"  step {payload['step']:>5d}  {meters}")
            elif event == "bye":
                print("service closed the stream (bye)")
                return 0
    print("stream ended")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    try:
        return _serve_dispatch(args)
    except KeyboardInterrupt:
        print("\ninterrupted", file=sys.stderr)
        return 130


def _serve_dispatch(args: argparse.Namespace) -> int:
    import json
    import threading
    import time

    from .data import patients
    from .serving import ServingRuntime
    from .serving.smoke import ServingSmokeError, run_serving_smoke
    from .telemetry import instrument
    from .telemetry.observatory.service import (
        LoadGenerator,
        ObservatoryService,
        create_server,
    )

    if args.smoke:
        try:
            summary = run_serving_smoke(
                records=args.records, seed=args.seed, shards=args.shards,
                profile=args.profile, out=args.out,
            )
        except ServingSmokeError as exc:
            print(f"serve smoke FAILED: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(summary, indent=2, sort_keys=True))
        print("serve smoke OK")
        return 0

    pop = patients(args.records, seed=args.seed)
    runtime = ServingRuntime(
        pop, shards=args.shards, sum_audit=True,
        queue_depth=args.queue_depth,
        session_rate=args.session_rate, session_burst=args.session_burst,
        pir_values=[int(v) for v in pop["blood_pressure"][:16]],
    )
    service = ObservatoryService()
    server = create_server(service, port=args.port)
    host, port = server.server_address[:2]
    server_thread = threading.Thread(
        target=server.serve_forever, name="serving-http", daemon=True
    )
    with instrument.session(args.out) as tracer:
        service.attach(tracer)
        server_thread.start()
        stats = runtime.stats()
        print(f"serving runtime up: {stats['n_shards']} shards, "
              f"queue depth {stats['queue_depth']}, "
              f"shared cross-shard audit")
        print(f"observatory listening on http://{host}:{port}")
        print("endpoints: /  /metrics  /events  /sessions  /traces  "
              "/incident")
        try:
            if args.load:
                generator = LoadGenerator(
                    runtime, seed=args.seed, profile=args.profile
                )
                report = generator.run()
                runtime.drain()
                print(f"load generator done: {report['ops']} ops, "
                      f"{report['refusals']} refusals, "
                      f"cohort {report['cohort']}")
            print("Ctrl-C to stop")
            while True:
                time.sleep(1)
        finally:
            runtime.close()
            service.close()
            server.shutdown()
            server.server_close()


def _cmd_trace(args: argparse.Namespace) -> int:
    """Reconstruct one request's causal waterfall from a JSONL capture."""
    import json

    from .telemetry.report import load_trace, request_stages

    report = load_trace(args.capture, validate=not args.no_validate)
    if args.list or args.trace_id is None:
        if not report.requests:
            print(f"no serving.request spans in {args.capture}",
                  file=sys.stderr)
            return 1
        for record in report.requests:
            attrs = record["attrs"]
            wall = sum(request_stages(attrs).values())
            print(f"{attrs.get('trace_id')}  {attrs.get('kind', '?'):<4s} "
                  f"{wall * 1e3:8.3f} ms  session={attrs.get('session')} "
                  f"shard={attrs.get('shard')} "
                  f"outcome={attrs.get('outcome')}")
        return 0
    info = report.waterfall(args.trace_id)
    if info is None:
        print(f"trace id {args.trace_id!r} not found in {args.capture} "
              f"(try --list)", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(info, indent=2, sort_keys=True))
    else:
        print(report.format_waterfall(args.trace_id))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Profile a short serving burst with the sampling profiler."""
    from pathlib import Path

    from .data import patients
    from .serving import ServingRuntime
    from .telemetry.profiler import (
        SamplingProfiler,
        render_folded,
        top_frames,
    )

    queries = (
        "SELECT COUNT(*) WHERE height > 170",
        "SELECT AVG(blood_pressure) WHERE height <= 175",
        "SELECT COUNT(*) WHERE weight <= 80",
    )
    pop = patients(args.records, seed=args.seed)
    pir_values = [int(v) for v in pop["blood_pressure"][:16]]
    sessions = [f"profiled-{i}" for i in range(8)]
    profiler = SamplingProfiler(hz=args.hz)
    with profiler:
        runtime = ServingRuntime(
            pop, shards=args.shards, sum_audit=False,
            pir_values=pir_values,
        )
        try:
            for op in range(args.ops):
                session = sessions[op % len(sessions)]
                if op % 4 == 3:
                    runtime.retrieve_batch_int(
                        session, [op % 16, (op + 5) % 16], seed=op,
                    )
                else:
                    runtime.ask(session, queries[op % len(queries)])
        finally:
            runtime.close()
    lines = profiler.folded()
    print(f"profile: {profiler.sample_count} samples at {profiler.hz} Hz, "
          f"{len(lines)} distinct stacks over {args.ops} serving ops")
    if args.out:
        Path(args.out).write_text(render_folded(lines), encoding="utf-8")
        print(f"folded stacks (flamegraph-ready) -> {args.out}")
    print(f"hottest frames (top {args.top}):")
    for frame, count in top_frames(lines, args.top):
        print(f"  {count:>6d}  {frame}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse CLI."""
    from .envdoc import env_knob_epilog

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Three-dimensional database privacy framework "
                    "(Domingo-Ferrer, SDM@VLDB 2007 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # One generated epilog (repro.envdoc) for every command whose
    # behaviour REPRO_* knobs change — the same table the README embeds.
    knob_epilog = env_knob_epilog()

    sub.add_parser("table1", help="print the paper's Table 1")

    p2 = sub.add_parser("table2", help="empirical Table 2 scoring")
    p2.add_argument("--seed", type=int, default=0)

    pr = sub.add_parser("recommend", help="Section 6 deployment advice")
    pr.add_argument("dimensions",
                    help="comma-separated: respondent,owner,user (or r,o,u)")

    pm = sub.add_parser("mask", help="mask a CSV file")
    pm.add_argument("csv")
    pm.add_argument("--method", choices=sorted(_METHODS), required=True)
    pm.add_argument("--k", type=int, default=5,
                    help="group size for k-based methods")
    pm.add_argument("--scale", type=float, default=0.5,
                    help="noise scale / swap window / PRAM flip rate")
    pm.add_argument("--seed", type=int, default=0)

    pt = sub.add_parser("tracker", help="run the Schlörer tracker demo")
    pt.add_argument("--records", type=int, default=250)
    pt.add_argument("--seed", type=int, default=3)

    sub.add_parser("attack-pir", help="the Section 3 COUNT/AVG attack")

    pq = sub.add_parser("qdb", help="statistical-database tools")
    qdb_sub = pq.add_subparsers(dest="qdb_command", required=True)
    qe = qdb_sub.add_parser(
        "explain", help="print the checks and transforms a stack runs",
        epilog=knob_epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    qe.add_argument("query",
                    help='e.g. "SELECT SUM(blood_pressure) WHERE height > 170"')
    qe.add_argument("--policies", default="size:5,overlap:40,sum-audit",
                    help="comma-separated stack: size:K, overlap:R, "
                         "sum-audit, noise:SD, sample:F, camouflage:K")
    qe.add_argument("--records", type=int, default=300)
    qe.add_argument("--seed", type=int, default=0)
    qe.add_argument("--pir-demo", action="store_true",
                    help="also count a Section 3 range batch's cells")

    ps = sub.add_parser(
        "scoreboard", help="score masking methods on the three dimensions"
    )
    ps.add_argument("--records", type=int, default=300)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--pir", action="store_true",
                    help="model a PIR front-end for the user dimension")

    ptel = sub.add_parser("telemetry", help="observability consumers")
    tel_sub = ptel.add_subparsers(dest="telemetry_command", required=True)

    tr = tel_sub.add_parser("report", help="summarize a JSONL trace")
    tr.add_argument("trace", help="path to a telemetry JSONL capture")
    tr.add_argument("--top", type=int, default=10,
                    help="slowest spans to list")
    tr.add_argument("--no-validate", action="store_true",
                    help="skip span-schema validation")

    td = tel_sub.add_parser(
        "dashboard", help="privacy meters + operational metrics"
    )
    td.add_argument("--records", type=int, default=300)
    td.add_argument("--seed", type=int, default=0)
    td.add_argument("--pir", action="store_true",
                    help="model a PIR front-end for the user dimension")

    tk = tel_sub.add_parser(
        "smoke", help="instrumented S1/S3a scenario + schema gate"
    )
    tk.add_argument("--out", default=None,
                    help="trace path (default: a temp file)")
    tk.add_argument("--records", type=int, default=150)
    tk.add_argument("--seed", type=int, default=3)

    po = sub.add_parser(
        "observe", help="privacy observatory: replay, posture, alerts",
        epilog=knob_epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    po.add_argument("trace", nargs="?", default=None,
                    help="JSONL trace to replay, or the http(s):// URL "
                         "of a running `repro serve` observatory to "
                         "follow its SSE stream (default: run the live "
                         "instrumented scenario)")
    po.add_argument("--follow", action="store_true",
                    help="narrate each alert as the replay reaches it "
                         "(SSE mode: also print posture points)")
    po.add_argument("--limit", type=int, default=None,
                    help="cap narrated alerts (SSE mode: disconnect "
                         "after N alerts)")
    po.add_argument("--smoke", action="store_true",
                    help="validate the committed golden trace and exit")
    po.add_argument("--out", default=None,
                    help="live-mode trace path (default: a temp file)")
    po.add_argument("--records", type=int, default=150)
    po.add_argument("--seed", type=int, default=3)
    po.add_argument("--metrics-out", default=None,
                    help="export the process metrics snapshot to this path")
    po.add_argument("--metrics-format",
                    choices=("openmetrics", "jsonl"), default="openmetrics")

    pv = sub.add_parser(
        "serve", help="boot the sharded serving runtime + observatory HTTP",
        epilog=knob_epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    pv.add_argument("--smoke", action="store_true",
                    help="run the end-to-end serving gate and exit "
                         "(runtime + loadgen + observatory over HTTP, "
                         "then request waterfalls from the capture)")
    pv.add_argument("--shards", type=int, default=None,
                    help="shard count (default: REPRO_SERVING_SHARDS or 4)")
    pv.add_argument("--queue-depth", type=int, default=None,
                    help="per-shard ingress queue bound "
                         "(default: REPRO_SERVING_QUEUE_DEPTH or 64)")
    pv.add_argument("--session-rate", type=float, default=None,
                    help="token-bucket refill rate per session "
                         "(default: rate limiting disabled)")
    pv.add_argument("--session-burst", type=float, default=None,
                    help="token-bucket burst per session")
    pv.add_argument("--load", action="store_true",
                    help="drive the concurrent load generator "
                         "(split-tracker cohort) once at startup")
    pv.add_argument("--profile",
                    choices=("mixed", "audit-heavy", "pir-heavy"),
                    default="mixed",
                    help="load-generator traffic profile")
    pv.add_argument("--records", type=int, default=150)
    pv.add_argument("--seed", type=int, default=3)
    pv.add_argument("--port", type=int, default=0,
                    help="TCP port for the observatory (default: ephemeral)")
    pv.add_argument("--out", default=None,
                    help="also capture the trace to this JSONL path "
                         "(--smoke: default a temp file)")

    ptr = sub.add_parser(
        "trace", help="reconstruct a request waterfall from a capture",
        epilog=knob_epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ptr.add_argument("trace_id", nargs="?", default=None,
                     help="trace id to reconstruct (omit to list all "
                          "traced requests in the capture)")
    ptr.add_argument("--capture", required=True,
                     help="telemetry JSONL capture to read")
    ptr.add_argument("--list", action="store_true",
                     help="list traced requests instead of one waterfall")
    ptr.add_argument("--json", action="store_true",
                     help="emit the waterfall as JSON instead of ASCII")
    ptr.add_argument("--no-validate", action="store_true",
                     help="skip span-schema validation")

    ppr = sub.add_parser(
        "profile", help="sample a short serving burst into folded stacks",
        epilog=knob_epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ppr.add_argument("--hz", type=float, default=97.0,
                     help="sampling rate (default: 97 Hz, off the 100 Hz "
                          "beat of periodic work)")
    ppr.add_argument("--records", type=int, default=150)
    ppr.add_argument("--seed", type=int, default=3)
    ppr.add_argument("--shards", type=int, default=None,
                     help="shard count (default: REPRO_SERVING_SHARDS or 4)")
    ppr.add_argument("--ops", type=int, default=2000,
                     help="serving operations to drive under the profiler")
    ppr.add_argument("--out", default=None,
                     help="write flamegraph-ready folded stacks here")
    ppr.add_argument("--top", type=int, default=20,
                     help="hottest leaf frames to print")

    pf = sub.add_parser("faults", help="fault injection and chaos runs")
    fl_sub = pf.add_subparsers(dest="faults_command", required=True)
    fc = fl_sub.add_parser(
        "chaos", help="scripted failure scenario + privacy-invariant gate"
    )
    fc.add_argument("--out", default=None,
                    help="trace path (default: a temp file)")
    fc.add_argument("--records", type=int, default=120)
    fc.add_argument("--seed", type=int, default=3)
    fc.add_argument("--f", type=int, default=1,
                    help="byzantine replicas to tolerate (2f+1 groups)")
    return parser


_COMMANDS = {
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "recommend": _cmd_recommend,
    "mask": _cmd_mask,
    "tracker": _cmd_tracker,
    "attack-pir": _cmd_attack_pir,
    "scoreboard": _cmd_scoreboard,
    "qdb": _cmd_qdb,
    "telemetry": _cmd_telemetry,
    "faults": _cmd_faults,
    "observe": _cmd_observe,
    "serve": _cmd_serve,
    "trace": _cmd_trace,
    "profile": _cmd_profile,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
