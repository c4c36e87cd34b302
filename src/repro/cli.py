"""Command-line interface.

::

    python -m repro compare [--clones N] [--db-dir DIR] [--servers ...]
    python -m repro run --server OStore [--clones N] [--db-dir DIR]
    python -m repro graph [--workflow FILE]
    python -m repro eer [--workflow FILE]
    python -m repro demo [--clones N]
    python -m repro query DBFILE "state(M, S)."
    python -m repro shell DBFILE
    python -m repro serve [DBFILE] [--server NAME] [--port P] [--smoke N]
    python -m repro monitor --port P [--samples N] [--interval SEC]
    python -m repro bench record [--schemas A4 A5 A6 A7 A8]
    python -m repro bench compare --baseline BENCH_A4.json ... [--tolerance T]
    python -m repro verify DBFILE [--server OStore]
    python -m repro recover DBFILE [--server OStore]
    python -m repro lint [PATHS] [--format json]

``compare`` regenerates the paper's Section 10 table; ``graph`` and
``eer`` emit the Appendix B and Figure 1 artefacts; ``query``/``shell``
run the deductive language against a persisted database file;
``verify``/``recover`` check and repair a database file after a crash;
``monitor`` attaches to a running ``serve`` and streams interval
samples; ``bench record``/``bench compare`` maintain the committed
``BENCH_*.json`` baselines and gate regressions against them.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.benchmark import (
    BenchmarkConfig,
    SERVER_ORDER,
    render_comparison,
    render_run,
    render_stats,
    run_comparison,
    run_server,
    server_spec,
)
from repro.benchmark.schema_report import eer_text
from repro.labbase import Chronicle, LabBase
from repro.query import Program
from repro.storage import ObjectStoreSM
from repro.util.fmt import format_table
from repro.util.rng import DeterministicRng
from repro.workflow import (
    WorkflowEngine,
    build_genome_spec,
    build_genome_workflow,
    load_workflow,
)


def _load_graph(path: str | None):
    if path is None:
        return build_genome_workflow()
    with open(path) as handle:
        return load_workflow(handle.read())


def _object_cache_capacity(value: str) -> int:
    """Parse ``--object-cache on|off|SIZE`` into a capacity (A4 knob)."""
    from repro.storage import DEFAULT_CACHE_OBJECTS

    if value == "on":
        return DEFAULT_CACHE_OBJECTS
    if value == "off":
        return 0
    try:
        capacity = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'on', 'off' or an object count, got {value!r}"
        ) from None
    if capacity < 0:
        raise argparse.ArgumentTypeError("object-cache size must be >= 0")
    return capacity


def _add_object_cache_flag(parser) -> None:
    parser.add_argument(
        "--object-cache", type=_object_cache_capacity, default="on",
        metavar="on|off|SIZE",
        help="object-cache capacity: on (default), off, or max cached objects",
    )


def _readahead_window(value: str) -> int:
    """Parse ``--readahead on|off|N`` into a page window (A5 knob)."""
    from repro.storage import DEFAULT_READAHEAD_PAGES

    if value == "on":
        return DEFAULT_READAHEAD_PAGES
    if value == "off":
        return 0
    try:
        window = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'on', 'off' or a page count, got {value!r}"
        ) from None
    if window < 0:
        raise argparse.ArgumentTypeError("readahead window must be >= 0")
    return window


def _add_readahead_flag(parser) -> None:
    parser.add_argument(
        "--readahead", type=_readahead_window, default="on",
        metavar="on|off|N",
        help="read-ahead window in pages: on (default), off (also disables "
             "vectored commit writes), or an explicit window",
    )


def _add_codec_flag(parser) -> None:
    from repro.storage.codec import CODEC_NAMES, DEFAULT_CODEC

    parser.add_argument(
        "--codec", choices=CODEC_NAMES, default=DEFAULT_CODEC,
        help="record codec (A8 knob): labf = schema-aware fixed layouts "
             "with pickle fallback (default), pickle = legacy pickles",
    )


def _config(args) -> BenchmarkConfig:
    return BenchmarkConfig(
        clones_per_interval=args.clones,
        seed=args.seed,
        db_dir=args.db_dir,
        object_cache=args.object_cache,
        readahead=args.readahead,
        codec=args.codec,
    )


# -- subcommands ------------------------------------------------------------


def cmd_compare(args) -> int:
    config = _config(args)
    servers = tuple(args.servers) if args.servers else SERVER_ORDER
    comparison = run_comparison(config, servers=servers)
    print(render_comparison(comparison))
    print()
    print(render_stats(comparison))
    return 0


def cmd_run(args) -> int:
    config = _config(args)
    result = run_server(server_spec(args.server), config)
    print(render_run(result))
    return 0


def cmd_graph(args) -> int:
    graph = _load_graph(args.workflow)
    print(graph.to_text())
    return 0


def cmd_eer(args) -> int:
    if args.workflow is None:
        spec = build_genome_spec()
    else:
        spec = _load_graph(args.workflow).spec
    print(eer_text(spec))
    return 0


def cmd_demo(args) -> int:
    graph = _load_graph(args.workflow)
    db = LabBase(ObjectStoreSM(path=args.db))
    engine = WorkflowEngine(db, graph, DeterministicRng(args.seed))
    engine.install_schema()
    print(f"processing {args.clones} materials...")
    intake_class = graph.spec.materials[0].class_name
    for _ in range(args.clones):
        engine.create_material(intake_class)
    executed = engine.pump(1_000_000)
    print(f"{executed} workflow steps executed\n")

    chronicle = Chronicle(db)
    rows = [
        [p.class_name, p.executions, p.materials_touched]
        for p in chronicle.step_profiles()
    ]
    print(format_table(["step class", "runs", "materials"], rows,
                       align_right=(1, 2)))
    census = {s: n for s, n in db.sets.state_census().items() if n}
    print(f"\nfinal state census: {census}")
    if args.db:
        db.storage.close()
        print(f"database saved to {args.db}")
    return 0


def _open_program(db_path: str) -> tuple[Program, LabBase]:
    db = LabBase(ObjectStoreSM(path=db_path))
    return Program(db=db), db


def _print_solutions(program: Program, query: str, limit: int) -> None:
    try:
        shown = 0
        for row in program.solve(query):
            print("  " + (", ".join(f"{k} = {v!r}" for k, v in row.items())
                          if row else "yes"))
            shown += 1
            if shown >= limit:
                print(f"  ... (stopped at {limit} solutions)")
                break
        if shown == 0:
            print("  no")
    except Exception as exc:
        print(f"  error: {exc}", file=sys.stderr)


def cmd_record(args) -> int:
    from repro.benchmark import LabFlowWorkload, TracingServer
    from repro.storage import OStoreMM

    config = BenchmarkConfig(clones_per_interval=args.clones, seed=args.seed)
    traced = TracingServer(LabBase(OStoreMM()))
    LabFlowWorkload(traced, config).run_all()
    with open(args.trace, "w") as fp:
        traced.trace.dump(fp)
    counts = traced.trace.operations()
    print(f"recorded {len(traced.trace)} events to {args.trace}: {counts}")
    return 0


def cmd_replay(args) -> int:
    from repro.benchmark import Trace, replay
    from repro.util.timing import ResourceMeter

    with open(args.trace) as fp:
        trace = Trace.load(fp)
    config = BenchmarkConfig(db_dir=args.db_dir, object_cache=args.object_cache,
                             readahead=args.readahead, codec=args.codec)
    sm = server_spec(args.server).make(config)
    db = LabBase(sm, object_cache=config.object_cache)
    meter = ResourceMeter(fault_source=sm.stats)
    meter.start()
    counts = replay(trace, db)
    usage = meter.lap(size_bytes=sm.size_bytes())
    print(f"replayed {sum(counts.values())} events onto {args.server}")
    for resource, value in usage.as_rows():
        print(f"  {resource:14s} {value}")
    sm.close()
    return 0


def _open_existing_store(args):
    """Open a database file for verify/recover; refuse to create one.

    Constructing a store on a missing path would silently create an
    empty (trivially valid) database — the opposite of what someone
    checking a file after a crash wants.
    """
    if not os.path.exists(args.db):
        print(f"error: no such database file: {args.db}", file=sys.stderr)
        return None
    from repro.storage.registry import backend

    return backend(args.server).cls(path=args.db)  # type: ignore[call-arg]


def cmd_verify(args) -> int:
    sm = _open_existing_store(args)
    if sm is None:
        return 2
    report = sm.verify()
    print(f"{report.manager}: checked {report.objects_checked} objects, "
          f"{report.pages_checked} pages")
    for problem in report.problems:
        print(f"  {problem}")
    print("OK" if report.ok else f"{len(report.problems)} problem(s) found "
          "— run 'repro recover' to repair")
    # Deliberately no close(): closing checkpoints, and verification
    # must never modify the store it is judging.
    return 0 if report.ok else 1


def cmd_recover(args) -> int:
    sm = _open_existing_store(args)
    if sm is None:
        return 2
    outcome = sm.recover()
    print(f"dropped {outcome['dropped_objects']} object(s), "
          f"{outcome['dropped_roots']} root(s); "
          f"vacuumed {outcome['vacuumed_slots']} slot(s)")
    report = sm.verify()
    sm.close()
    if not report.ok:
        for problem in report.problems:
            print(f"  {problem}", file=sys.stderr)
        print("store is still inconsistent after recovery", file=sys.stderr)
        return 1
    print("store is consistent")
    return 0


def cmd_lint(args) -> int:
    from repro.analysis.main import main as lint_main

    lint_argv = list(args.paths)
    lint_argv += ["--format", args.format]
    if args.rules:
        lint_argv += ["--rules", args.rules]
    if args.list_rules:
        lint_argv.append("--list-rules")
    if args.check_ignores:
        lint_argv.append("--check-ignores")
    return lint_main(lint_argv)


def cmd_sanitize(args) -> int:
    """Both sanitizer prongs in one command: static rules, then runtime.

    Static: LF08 (lock-order/2PL) + LF09 (unguarded shared state) over
    the tree.  Runtime: a watchdog-instrumented served smoke run, then a
    bounded schedule-fuzz sweep asserting serial equivalence on every
    registered backend.  Exit 0 only if every prong is clean.
    """
    import json as json_mod

    from repro.analysis.core import run_rules
    from repro.analysis.main import collect_paths, default_root, load_project
    from repro.analysis.rules import rules_by_id
    from repro.server.fuzz import fuzz_sweep

    rules = rules_by_id(["LF08", "LF09"])
    roots = list(args.paths) or [default_root()]
    project, errors = load_project(collect_paths(roots))
    if errors:
        for error in errors:
            print(f"error: {error}", file=sys.stderr)
        return 2
    static_findings = run_rules(project, rules)

    smoke = None if args.no_smoke else _sanitize_smoke(
        clients=args.smoke_clients, units=args.smoke_units
    )

    reports = [] if args.no_fuzz else fuzz_sweep(
        args.backends.split(",") if args.backends else None,
        seeds=tuple(range(args.seeds)),
        sessions=args.sessions,
        units_per_session=args.units,
    )

    fuzz_ok = all(r.identical and r.watchdog_violations == 0 for r in reports)
    smoke_ok = smoke is None or bool(smoke["ok"])
    ok = not static_findings and smoke_ok and fuzz_ok

    if args.format == "json":
        payload = {
            "static": {
                "findings": [
                    {
                        "path": f.path,
                        "line": f.line,
                        "col": f.col,
                        "rule": f.rule,
                        "message": f.message,
                    }
                    for f in static_findings
                ],
                "checked_files": len(project.modules),
            },
            "smoke": smoke,
            "fuzz": [r.to_json() for r in reports],
            "ok": ok,
        }
        print(json_mod.dumps(payload, indent=2, sort_keys=True))
        return 0 if ok else 1

    for finding in static_findings:
        print(finding.render())
    print(
        f"static: {len(static_findings)} finding(s) in "
        f"{len(project.modules)} file(s) [LF08+LF09]"
    )
    if smoke is not None:
        print(
            f"smoke:  {smoke['clients']} clients x {smoke['units']} units "
            f"on {smoke['backend']}: "
            f"{smoke['acquisitions']} acquisitions, "
            f"{len(smoke['edges'])} lock-order edges, "
            f"{len(smoke['violations'])} violation(s), "
            f"verify {'OK' if smoke['verify_ok'] else 'FAILED'}"
        )
        for violation in smoke["violations"]:
            print(f"        {violation}")
    for r in reports:
        status = "identical" if r.identical else "DIVERGED"
        print(
            f"fuzz:   {r.backend} seed={r.seed} sessions={r.sessions} "
            f"completed={r.completed_units} {status}, "
            f"{r.watchdog_violations} watchdog violation(s)"
        )
    print("sanitize: OK" if ok else "sanitize: FAILED")
    return 0 if ok else 1


def _sanitize_smoke(*, clients: int, units: int) -> dict:
    """One watchdog-instrumented served run over real sockets."""
    from repro.obs.watchdog import LockOrderWatchdog
    from repro.server import (
        LabFlowService,
        ServiceRunner,
        bootstrap_schema,
        run_concurrent_clients,
    )
    from repro.storage.registry import backends

    info = backends(concurrent=True)[0]
    sm = info.cls(path=None)  # type: ignore[call-arg]
    db = LabBase(sm)
    bootstrap_schema(db)
    watchdog = LockOrderWatchdog()
    service = LabFlowService(db, retry_backoff=0.0, watchdog=watchdog)
    runner = ServiceRunner(service, watchdog=watchdog)
    host, port = runner.start()
    try:
        run_concurrent_clients(host, port, clients=clients, units=units)
        service.drain()
        verify_ok = db.verify_storage().ok
    finally:
        runner.stop()
        sm.close()
    digest = watchdog.summary()
    return {
        "backend": info.name,
        "clients": clients,
        "units": units,
        "acquisitions": digest["acquisitions"],
        "edges": digest["edges"],
        "violations": digest["violations"],
        "verify_ok": verify_ok,
        "ok": bool(digest["ok"]) and verify_ok,
    }


def cmd_serve(args) -> int:
    import threading

    from repro.obs import IntervalSampler, UnitTracer, gauges_from
    from repro.server import (
        LabFlowService,
        ServiceRunner,
        bootstrap_schema,
        run_concurrent_clients,
    )
    from repro.storage.registry import backend
    from repro.storage.report import stats_report

    sm = backend(args.server).cls(  # type: ignore[call-arg]
        path=args.db, checkpoint_every=args.checkpoint_every, codec=args.codec
    )
    db = LabBase(sm)
    bootstrap_schema(db)
    trace_sink = open(args.trace, "w") if args.trace else None
    tracer = UnitTracer(sink=trace_sink) if trace_sink else None
    watchdog = None
    if args.sanitize:
        from repro.obs.watchdog import LockOrderWatchdog

        watchdog = LockOrderWatchdog(tracer=tracer)
    service = LabFlowService(
        db,
        group_commit=not args.no_group_commit,
        group_cap=args.group_cap,
        tracer=tracer,
        watchdog=watchdog,
    )
    sample_sink = open(args.sample_log, "w") if args.sample_log else None
    stop_sampling = threading.Event()
    sampler_thread: threading.Thread | None = None
    if sample_sink:
        sampler = IntervalSampler(service.stats_snapshot, sink=sample_sink)

        def sampling_loop() -> None:
            while not stop_sampling.wait(args.sample_interval):
                sampler.sample()

        sampler_thread = threading.Thread(
            target=sampling_loop, name="labflow-sampler", daemon=True
        )
        sampler_thread.start()
    runner = ServiceRunner(
        service, host=args.host, port=args.port, watchdog=watchdog
    )
    host, port = runner.start()
    try:  # clients may send SIGINT the moment they read the serving line
        print(f"serving {args.db or '<in-memory>'} [{args.server}] on "
              f"{host}:{port} "
              f"(group commit {'off' if args.no_group_commit else 'on'}, "
              f"cap {args.group_cap}"
              f"{', lock-order watchdog on' if watchdog else ''})")
        if args.smoke:
            summary = run_concurrent_clients(
                host, port, clients=args.smoke, units=args.units
            )
            for name in sorted(summary):
                print(f"  {name}: {summary[name]}")
            stats = service.stats_snapshot()
            print(stats_report(
                stats, gauges_from(stats), title="smoke-run storage counters"
            ))
            service.drain()
            report = db.verify_storage()
            if not report.ok:
                for problem in report.problems:
                    print(f"  {problem}", file=sys.stderr)
                print("verify: FAILED", file=sys.stderr)
                return 1
            print("verify: OK")
            if watchdog is not None:
                digest = watchdog.summary()
                print(
                    f"watchdog: {digest['acquisitions']} acquisitions, "
                    f"{len(digest['edges'])} lock-order edges, "  # type: ignore[arg-type]
                    f"{len(digest['violations'])} violation(s)"  # type: ignore[arg-type]
                )
                if not digest["ok"]:
                    for violation in digest["violations"]:  # type: ignore[attr-defined]
                        print(f"  {violation}", file=sys.stderr)
                    print("watchdog: FAILED", file=sys.stderr)
                    return 1
            return 0
        threading.Event().wait()
    except KeyboardInterrupt:
        if args.smoke:
            raise  # an interrupted smoke run has no verdict to report
        print("shutting down")
    finally:
        runner.stop()
        stop_sampling.set()
        if sampler_thread is not None:
            sampler_thread.join(timeout=5.0)
        if sample_sink:
            sample_sink.close()
        if trace_sink:
            trace_sink.close()
        sm.close()
    return 0


def cmd_monitor(args) -> int:
    from repro.errors import ReproError
    from repro.obs.monitor import monitor

    try:
        monitor(
            args.host,
            args.port,
            samples=args.samples,
            interval=args.interval,
            out=sys.stdout,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_bench(args) -> int:
    from repro.obs import baseline as bl
    from repro.obs.render import render_drift_table

    if args.bench_command == "record":
        for schema in args.schemas:
            try:
                path = bl.record(schema, args.results, args.out)
            except FileNotFoundError as exc:
                print(f"error: {schema}: missing bench result: {exc}",
                      file=sys.stderr)
                return 2
            except KeyError as exc:  # a gauge's counter is not in the result
                print(f"error: {schema}: {exc.args[0]}", file=sys.stderr)
                return 2
            print(f"recorded {path}")
        return 0

    # compare
    all_drifts: list[bl.Drift] = []
    all_notes: list[str] = []
    compared: list[str] = []
    for baseline_file in args.baseline:
        try:
            drifts, notes = bl.compare_files(
                baseline_file, args.results, tolerance=args.tolerance
            )
        except (FileNotFoundError, ValueError) as exc:
            print(f"error: {baseline_file}: {exc}", file=sys.stderr)
            return 2
        except KeyError as exc:  # a gauge's counter is not in the result
            print(f"error: {baseline_file}: {exc.args[0]}", file=sys.stderr)
            return 2
        compared.append(baseline_file)
        all_drifts.extend(drifts)
        all_notes.extend(notes)
    print(render_drift_table(
        [d.as_dict() for d in all_drifts],
        title=(f"bench compare: {len(compared)} baseline(s), "
               f"tolerance {args.tolerance:g}"),
    ))
    for note in all_notes:
        print(f"  note: {note}")
    if args.report:
        bl.dump_json(args.report, {
            "baselines": compared,
            "tolerance": args.tolerance,
            "drifts": [d.as_dict() for d in all_drifts],
            "notes": all_notes,
            "ok": not all_drifts,
        })
        print(f"report written to {args.report}")
    return 1 if all_drifts else 0


def cmd_query(args) -> int:
    program, db = _open_program(args.db)
    _print_solutions(program, args.goal, args.limit)
    db.storage.close()
    return 0


def cmd_shell(args) -> int:
    program, db = _open_program(args.db)
    print("LabBase deductive shell — end queries with '.', 'quit.' to exit")
    while True:
        try:
            line = input("?- ").strip()
        except (EOFError, KeyboardInterrupt):
            break
        if not line:
            continue
        if line in ("quit.", "quit", "halt."):
            break
        _print_solutions(program, line, args.limit)
    db.storage.close()
    return 0


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LabFlow-1 workflow-management benchmark (EDBT 1996 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scale(p):
        p.add_argument("--clones", type=int, default=15,
                       help="clones per 0.5X interval (default 15)")
        p.add_argument("--seed", type=int, default=1996)
        p.add_argument("--db-dir", default=None,
                       help="directory for database files (default: in-memory)")
        _add_object_cache_flag(p)
        _add_readahead_flag(p)
        _add_codec_flag(p)

    p = sub.add_parser("compare", help="the Section 10 five-server table")
    add_scale(p)
    p.add_argument("--servers", nargs="*", choices=SERVER_ORDER,
                   help="subset of server versions")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("run", help="run the stream on one server version")
    add_scale(p)
    p.add_argument("--server", choices=SERVER_ORDER, default="OStore")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("graph", help="print the workflow graph (Appendix B)")
    p.add_argument("--workflow", help="workflow DSL file (default: genome)")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("eer", help="print the EER schema (Figure 1)")
    p.add_argument("--workflow", help="workflow DSL file (default: genome)")
    p.set_defaults(func=cmd_eer)

    p = sub.add_parser("demo", help="run a workflow and print lab reports")
    p.add_argument("--workflow", help="workflow DSL file (default: genome)")
    p.add_argument("--clones", type=int, default=10)
    p.add_argument("--seed", type=int, default=1996)
    p.add_argument("--db", default=None, help="persist the database here")
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("record", help="record the benchmark stream to a trace file")
    p.add_argument("trace", help="output trace file (JSON lines)")
    p.add_argument("--clones", type=int, default=10)
    p.add_argument("--seed", type=int, default=1996)
    p.set_defaults(func=cmd_record)

    p = sub.add_parser("replay", help="replay a trace onto a server version")
    p.add_argument("trace", help="trace file produced by 'record'")
    p.add_argument("--server", choices=SERVER_ORDER, default="OStore")
    p.add_argument("--db-dir", default=None)
    _add_object_cache_flag(p)
    _add_readahead_flag(p)
    _add_codec_flag(p)
    p.set_defaults(func=cmd_replay)

    from repro.storage.registry import backends

    persistent_servers = [info.name for info in backends(persistent=True)]
    concurrent_servers = [info.name for info in backends(concurrent=True)]

    p = sub.add_parser("verify", help="check a database file's integrity")
    p.add_argument("db", help="database file to check (read-only)")
    p.add_argument("--server", choices=persistent_servers,
                   default=persistent_servers[0],
                   help="store format of the file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("recover",
                       help="repair a database file after a crash")
    p.add_argument("db", help="database file to repair (rewritten)")
    p.add_argument("--server", choices=persistent_servers,
                   default=persistent_servers[0],
                   help="store format of the file")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("lint",
                       help="run the storage-stack invariant linter "
                       "(LF01-LF04, LF06, LF08, LF09)")
    p.add_argument("paths", nargs="*",
                   help="files or directories (default: the repro package)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--rules", default=None, metavar="LF01,LF02,...")
    p.add_argument("--list-rules", action="store_true")
    p.add_argument("--check-ignores", action="store_true",
                   help="also flag lint: ignore markers that suppress nothing")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "sanitize",
        help="concurrency sanitizer: static LF08/LF09 pass + watchdog "
             "smoke + schedule-fuzz sweep")
    p.add_argument("paths", nargs="*",
                   help="files or directories for the static pass "
                        "(default: the repro package)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--seeds", type=int, default=2,
                   help="fuzz seeds per backend (default 2)")
    p.add_argument("--sessions", type=int, default=3,
                   help="fuzz sessions on concurrent backends (default 3)")
    p.add_argument("--units", type=int, default=8,
                   help="fuzzed units per session (default 8)")
    p.add_argument("--backends", default=None, metavar="NAME,NAME,...",
                   help="fuzz only these backends (default: all registered)")
    p.add_argument("--smoke-clients", type=int, default=3,
                   help="clients in the watchdog smoke run (default 3)")
    p.add_argument("--smoke-units", type=int, default=12,
                   help="units per smoke client (default 12)")
    p.add_argument("--no-smoke", action="store_true",
                   help="skip the served watchdog smoke run")
    p.add_argument("--no-fuzz", action="store_true",
                   help="skip the schedule-fuzz sweep")
    p.set_defaults(func=cmd_sanitize)

    p = sub.add_parser("serve",
                       help="serve a database to concurrent socket clients")
    p.add_argument("db", nargs="?", default=None,
                   help="database file (created if missing; omitted = "
                        "in-memory)")
    p.add_argument("--server", choices=concurrent_servers,
                   default=concurrent_servers[0],
                   help="storage backend serving the sessions")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="listening port (default 0 picks a free one)")
    p.add_argument("--group-cap", type=int, default=8,
                   help="update units that close a commit group (default 8)")
    p.add_argument("--no-group-commit", action="store_true",
                   help="one storage commit per update unit")
    p.add_argument("--checkpoint-every", type=int, default=1,
                   help="checkpoint cadence in commits (default 1)")
    _add_codec_flag(p)
    p.add_argument("--smoke", type=int, default=0, metavar="N",
                   help="run N scripted concurrent clients, verify, and exit")
    p.add_argument("--units", type=int, default=24,
                   help="units per smoke client (default 24)")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="write unit-of-work span events here (JSONL)")
    p.add_argument("--sample-log", default=None, metavar="FILE",
                   help="write interval counter samples here (JSONL)")
    p.add_argument("--sample-interval", type=float, default=1.0,
                   help="seconds between interval samples (default 1.0)")
    p.add_argument("--sanitize", action="store_true",
                   help="wrap service locks in the lock-order watchdog; "
                        "with --smoke, fail on any recorded violation")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("monitor",
                       help="attach to a running serve and stream live samples")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True,
                   help="port of the running 'repro serve'")
    p.add_argument("--samples", type=int, default=10,
                   help="observations to take before detaching (default 10)")
    p.add_argument("--interval", type=float, default=1.0,
                   help="seconds between polls (default 1.0)")
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser("bench",
                       help="record / compare the committed BENCH_*.json baselines")
    bench_sub = p.add_subparsers(dest="bench_command", required=True)
    bp = bench_sub.add_parser(
        "record", help="canonicalize fresh bench results into baseline files"
    )
    bp.add_argument("--results", default="benchmarks/results",
                    help="bench results directory (default benchmarks/results)")
    bp.add_argument("--out", default=".",
                    help="where the BENCH_*.json files go (default: repo root)")
    bp.add_argument("--schemas", nargs="*",
                    default=["A4", "A5", "A6", "A7", "A8"],
                    choices=["A4", "A5", "A6", "A7", "A8"],
                    help="baseline schemas to record (default: all)")
    bp.set_defaults(func=cmd_bench)
    bp = bench_sub.add_parser(
        "compare", help="diff fresh bench results against committed baselines"
    )
    bp.add_argument("--baseline", nargs="+", required=True, metavar="FILE",
                    help="committed BENCH_*.json files to compare against")
    bp.add_argument("--results", default="benchmarks/results",
                    help="fresh bench results directory")
    bp.add_argument("--tolerance", type=float, default=0.10,
                    help="relative counter tolerance (default 0.10); gauges "
                         "use their per-metric absolute tolerances")
    bp.add_argument("--report", default=None, metavar="FILE",
                    help="write the comparison report as JSON here")
    bp.set_defaults(func=cmd_bench)

    p = sub.add_parser("query", help="run one deductive query on a database")
    p.add_argument("db", help="database file (ObjectStoreSM format)")
    p.add_argument("goal", help="the query, e.g. \"state(M, S).\"")
    p.add_argument("--limit", type=int, default=25)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("shell", help="interactive deductive shell")
    p.add_argument("db", help="database file (ObjectStoreSM format)")
    p.add_argument("--limit", type=int, default=25)
    p.set_defaults(func=cmd_shell)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
