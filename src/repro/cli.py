"""Command-line interface: ``rtc-compliance``.

Subcommands::

    rtc-compliance run --app zoom --network wifi_relay   # one experiment
    rtc-compliance matrix --duration 30 --scale 0.5      # full matrix + tables
    rtc-compliance synthesize --app discord --out d.pcap # write a pcap trace
    rtc-compliance pcap capture.pcap                     # analyze a real pcap
    rtc-compliance pipeline-stats --app zoom             # per-stage stream counters
    rtc-compliance conformance record                    # (re-)record goldens
    rtc-compliance conformance check                     # diff engines vs goldens
    rtc-compliance conformance fuzz --iterations 2000    # mutation oracle
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional

from repro.apps import APP_NAMES, CallConfig, NetworkCondition, get_simulator
from repro.core import ComplianceSummary
from repro.dpi import ColumnarEngine
from repro.experiments import ExperimentConfig, run_experiment, run_matrix
from repro.experiments.figures import figure3, figure4, figure5, render_ratio_series
from repro.experiments.tables import (
    render_observed_types,
    render_table1,
    render_table2,
    render_table3,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
)
from repro.packets.batch import IngestStats, iter_capture_chunks
from repro.packets.packet import PacketRecord
from repro.packets.pcap import PcapFormatError, write_pcap
from repro.service.session import AnalysisSession
from repro.utils.bytesview import TruncatedError

#: What opening or decoding a missing, damaged or non-capture file raises.
_UNREADABLE = (OSError, PcapFormatError, TruncatedError)


def _unreadable_capture(path: str, exc: Exception) -> int:
    print(f"rtc-compliance: cannot read capture {path}: {exc}", file=sys.stderr)
    return 1


def _workers(value: str) -> int:
    workers = int(value)
    if workers < 1:
        raise argparse.ArgumentTypeError("expected a positive integer")
    return workers


def _positive_float(value: str) -> float:
    number = float(value)
    # ``> 0`` rejects NaN, which fails every comparison; ``isfinite`` infinity.
    if not (number > 0 and math.isfinite(number)):
        raise argparse.ArgumentTypeError("expected a positive, finite number")
    return number


def add_execution_flags(
    parser: argparse.ArgumentParser,
    workers: bool = False,
    impairment: bool = False,
) -> None:
    """Attach the shared execution-matrix flags to *parser*.

    One definition per flag — ``--workers``, ``--impairment`` — so every
    subcommand wires the same names, types, defaults, and help text, and
    :func:`config_from_args` can rebuild an :class:`ExperimentConfig`
    from any of them.
    """
    if workers:
        parser.add_argument("--workers", type=_workers, default=None,
                            help="worker processes for matrix cells "
                                 "(default: one per CPU core; 1 = serial)")
    if impairment:
        from repro.netem import PROFILE_NAMES

        parser.add_argument("--impairment", choices=PROFILE_NAMES,
                            default="none",
                            help="network-impairment profile applied to every "
                                 "cell's record stream post-synthesis (loss, "
                                 "burst loss, reordering, duplication, NAT "
                                 "rebinding, UDP blackout with TURN-over-TCP "
                                 "fallback; default: none)")


def config_from_args(args: argparse.Namespace, **overrides) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from whatever flags *args* has.

    Tolerant of subcommands that attach only a subset of the execution
    flags: anything missing falls back to the config's own default, so
    every command resolves its config through this one helper.
    """
    kwargs = {
        "call_duration": getattr(args, "duration", 30.0),
        "media_scale": getattr(args, "scale", 0.5),
        "seed": getattr(args, "seed", 0),
        "repeats": getattr(args, "repeats", 1),
        "impairment": getattr(args, "impairment", "none"),
    }
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def _network(value: str) -> NetworkCondition:
    try:
        return NetworkCondition(value)
    except ValueError:
        choices = ", ".join(n.value for n in NetworkCondition)
        raise argparse.ArgumentTypeError(f"expected one of: {choices}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtc-compliance",
        description="Protocol-compliance measurement for RTC applications",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment cell")
    run_p.add_argument("--app", choices=APP_NAMES, required=True)
    run_p.add_argument("--network", type=_network, default=NetworkCondition.WIFI_RELAY)
    run_p.add_argument("--duration", type=_positive_float, default=30.0)
    run_p.add_argument("--scale", type=_positive_float, default=0.5)
    run_p.add_argument("--seed", type=int, default=0)
    add_execution_flags(run_p, impairment=True)

    matrix_p = sub.add_parser("matrix", help="run the full experiment matrix")
    matrix_p.add_argument("--duration", type=_positive_float, default=30.0)
    matrix_p.add_argument("--scale", type=_positive_float, default=0.5)
    matrix_p.add_argument("--repeats", type=int, default=1)
    matrix_p.add_argument("--seed", type=int, default=0)
    add_execution_flags(matrix_p, workers=True, impairment=True)

    synth_p = sub.add_parser("synthesize", help="write a synthetic call trace to pcap")
    synth_p.add_argument("--app", choices=APP_NAMES, required=True)
    synth_p.add_argument("--network", type=_network, default=NetworkCondition.WIFI_RELAY)
    synth_p.add_argument("--duration", type=_positive_float, default=30.0)
    synth_p.add_argument("--scale", type=_positive_float, default=0.5)
    synth_p.add_argument("--seed", type=int, default=0)
    synth_p.add_argument("--out", required=True)
    add_execution_flags(synth_p, impairment=True)

    pcap_p = sub.add_parser("pcap", help="analyze an existing pcap capture")
    pcap_p.add_argument("path")
    pcap_p.add_argument("--max-offset", type=int, default=200)

    report_p = sub.add_parser("report", help="write a markdown compliance report")
    report_p.add_argument("--app", choices=APP_NAMES)
    report_p.add_argument("--network", type=_network, default=NetworkCondition.WIFI_RELAY)
    report_p.add_argument("--duration", type=_positive_float, default=30.0)
    report_p.add_argument("--scale", type=_positive_float, default=0.5)
    report_p.add_argument("--seed", type=int, default=0)
    report_p.add_argument("--out", help="output file (default: stdout)")
    add_execution_flags(report_p, workers=True, impairment=True)

    dataset_p = sub.add_parser(
        "dataset", help="synthesize a pcap dataset with ground-truth manifest"
    )
    dataset_p.add_argument("--root", required=True)
    dataset_p.add_argument("--duration", type=_positive_float, default=30.0)
    dataset_p.add_argument("--scale", type=_positive_float, default=0.5)
    dataset_p.add_argument("--repeats", type=int, default=1)
    dataset_p.add_argument("--seed", type=int, default=0)
    dataset_p.add_argument("--apps", nargs="*", choices=APP_NAMES, default=APP_NAMES)

    interop_p = sub.add_parser(
        "interop", help="estimate per-app interoperability adaptation effort"
    )
    interop_p.add_argument("--duration", type=_positive_float, default=20.0)
    interop_p.add_argument("--scale", type=_positive_float, default=0.4)
    interop_p.add_argument("--seed", type=int, default=0)

    fingerprint_p = sub.add_parser(
        "fingerprint", help="identify the RTC application behind a pcap"
    )
    fingerprint_p.add_argument("path")
    fingerprint_p.add_argument("--max-offset", type=int, default=200)

    dissect_p = sub.add_parser(
        "dissect", help="print a per-datagram dissection of a pcap"
    )
    dissect_p.add_argument("path")
    dissect_p.add_argument("--max-offset", type=int, default=200)
    dissect_p.add_argument("--limit", type=int, default=20,
                           help="datagrams to print (default 20)")

    pstats_p = sub.add_parser(
        "pipeline-stats",
        help="run experiments and print per-stage streaming instrumentation",
    )
    pstats_p.add_argument("--app", choices=APP_NAMES,
                          help="single app (default: full matrix)")
    pstats_p.add_argument("--network", type=_network, default=None,
                          help="single network condition (default: all three)")
    pstats_p.add_argument("--duration", type=_positive_float, default=30.0)
    pstats_p.add_argument("--scale", type=_positive_float, default=0.5)
    pstats_p.add_argument("--seed", type=int, default=0)
    pstats_p.add_argument("--json", action="store_true",
                          help="emit machine-readable JSON instead of a table")
    add_execution_flags(pstats_p, impairment=True)

    serve_p = sub.add_parser(
        "serve", help="run the always-on compliance service (HTTP + SSE)"
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8787,
                         help="listen port (0 = pick a free port)")
    add_execution_flags(serve_p, impairment=True)

    conf_p = sub.add_parser(
        "conformance",
        help="golden-corpus recording, differential checks, mutation fuzzing",
    )
    conf_sub = conf_p.add_subparsers(dest="conformance_command", required=True)

    record_p = conf_sub.add_parser(
        "record", help="record golden corpus cells under the reference engine"
    )
    record_p.add_argument("--dir", help="corpus directory "
                          "(default: tests/golden/conformance)")
    record_p.add_argument("--duration", type=_positive_float, default=None,
                          help="override call duration (default: corpus standard)")
    record_p.add_argument("--scale", type=_positive_float, default=None,
                          help="override media scale (default: corpus standard)")
    record_p.add_argument("--seed", type=int, default=None,
                          help="override simulation seed (default: corpus standard)")
    record_p.add_argument("--apps", nargs="*", choices=APP_NAMES, default=None)
    record_p.add_argument("--networks", nargs="*", type=_network, default=None)
    add_execution_flags(record_p, impairment=True)
    record_p.add_argument("--impaired", action="store_true",
                          help="record the standard impaired sibling corpora "
                               "(impaired-<profile>/ next to the clean corpus) "
                               "instead of the clean corpus")

    check_p = conf_sub.add_parser(
        "check", help="replay the corpus through every engine config and diff"
    )
    check_p.add_argument("--dir", help="corpus directory "
                         "(default: tests/golden/conformance)")
    check_p.add_argument("--apps", nargs="*", choices=APP_NAMES, default=None)
    check_p.add_argument("--networks", nargs="*", type=_network, default=None)
    check_p.add_argument("--report-out",
                         help="also write the drift report to this file")
    check_p.add_argument("--impaired", action="store_true",
                         help="check the impaired sibling corpora "
                              "(impaired-<profile>/) instead of the clean "
                              "corpus")

    fuzz_p = conf_sub.add_parser(
        "fuzz", help="criterion-targeted mutation fuzzing with exact oracle"
    )
    fuzz_p.add_argument("--iterations", type=int, default=2000)
    fuzz_p.add_argument("--seed", type=int, default=0)
    fuzz_p.add_argument("--dir", help="harvest extra seed messages from this "
                        "corpus directory (default: tests/golden/conformance "
                        "when present; builtin seeds otherwise)")
    fuzz_p.add_argument("--no-corpus", action="store_true",
                        help="fuzz builtin seed messages only")
    fuzz_p.add_argument("--no-minimize", action="store_true",
                        help="skip payload minimization of failures")
    fuzz_p.add_argument("--report-out",
                        help="also write the fuzz report to this file")

    return parser


def _print_summary(summary: ComplianceSummary) -> None:
    print(f"Application: {summary.app}")
    print(f"Volume compliance: {summary.volume.ratio * 100:.2f}% "
          f"({summary.volume.compliant}/{summary.volume.total} messages)")
    for protocol, volume in summary.volume_by_protocol.items():
        print(f"  {protocol:<10} {volume.ratio * 100:6.2f}% "
              f"({volume.compliant}/{volume.total})")
    compliant, total = summary.type_ratio()
    print(f"Message-type compliance: {compliant}/{total}")
    for entry in sorted(summary.types.values(), key=lambda e: (e.protocol, e.type_label)):
        status = "OK " if entry.compliant else "BAD"
        line = f"  [{status}] {entry.protocol:<10} {entry.type_label:<14} x{entry.total}"
        if entry.example_violations:
            line += f"  e.g. {entry.example_violations[0]}"
        print(line)


def cmd_run(args: argparse.Namespace) -> int:
    config = config_from_args(args)
    aggregate = run_experiment(args.app, args.network, config)
    _print_summary(aggregate.summary)
    print(f"Filter precision: {aggregate.filter_precision:.3f}  "
          f"recall: {aggregate.filter_recall:.3f}")
    return 0


def cmd_matrix(args: argparse.Namespace) -> int:
    config = config_from_args(args)
    matrix = run_matrix(config=config, workers=args.workers)
    print(render_table1(table1(matrix)))
    print()
    print(render_table2(table2(matrix)))
    print()
    print(render_table3(table3(matrix)))
    print()
    print(render_observed_types(table4(matrix), "Table 4: STUN/TURN message types"))
    print()
    print(render_observed_types(table5(matrix), "Table 5: RTP payload types"))
    print()
    print(render_observed_types(table6(matrix), "Table 6: RTCP packet types"))
    print()
    fig4 = figure4(matrix)
    print(render_ratio_series(fig4["by_app"], "Figure 4 (by app, volume)"))
    print(render_ratio_series(fig4["by_protocol"], "Figure 4 (by protocol, volume)"))
    fig5 = figure5(matrix)
    print(render_ratio_series(fig5["by_app"], "Figure 5 (by app, types)"))
    print(render_ratio_series(fig5["by_protocol"], "Figure 5 (by protocol, types)"))
    fig3 = figure3(matrix)
    for app, shares in fig3.items():
        print(f"Figure 3 {app}: " + ", ".join(
            f"{k}={v * 100:.1f}%" for k, v in shares.items()
        ))
    return 0


def cmd_synthesize(args: argparse.Namespace) -> int:
    simulator = get_simulator(args.app)
    records = list(
        simulator.iter_records(
            CallConfig(
                network=args.network,
                seed=args.seed,
                call_duration=args.duration,
                media_scale=args.scale,
                impairment=args.impairment,
            )
        )
    )
    count = write_pcap(args.out, records)
    print(f"wrote {count} packets to {args.out}")
    return 0


def cmd_pcap(args: argparse.Namespace) -> int:
    """Analyze a capture by streaming it off disk chunk by chunk.

    Records of a ``.pcap`` (mmap batch decoder) or ``.pcapng`` (block
    reader) file flow straight into the streaming pipeline — peak memory
    is one chunk, not the capture.  Output is bit-identical to the
    historical read-everything-then-analyze path.
    """
    import time as _time

    ingest = IngestStats()
    records = 0
    decode_seconds = 0.0

    def timed_records():
        nonlocal records, decode_seconds
        chunk_iter = iter_capture_chunks(args.path, stats=ingest)
        while True:
            start = _time.perf_counter()
            batch = next(chunk_iter, None)
            decode_seconds += _time.perf_counter() - start
            if batch is None:
                return
            records += len(batch)
            yield from batch

    session = AnalysisSession(engine=ColumnarEngine(args.max_offset))
    try:
        session.feed(timed_records())
        result = session.close()
    except _UNREADABLE as exc:
        return _unreadable_capture(args.path, exc)
    if records == 0:
        print("no decodable packets found", file=sys.stderr)
        return 1
    _print_summary(result.summary(args.path))
    by_class = result.dpi.by_class()
    total = sum(by_class.values())
    if total:
        print("Datagram classes:")
        for cls, count in by_class.items():
            print(f"  {cls.value:<20} {count} ({count / total * 100:.1f}%)")
    # Only the batch decoder (``.pcap``) counts frames and its fast path.
    if ingest.frames and decode_seconds > 0:
        rate = ingest.records / decode_seconds
        fast_pct = ingest.fast_path / ingest.frames * 100
        print(
            f"Ingest: {ingest.frames} frames -> {ingest.records} records "
            f"in {decode_seconds:.3f}s ({rate:.0f} rec/s, "
            f"fast-path {fast_pct:.1f}%, "
            f"fallback rate {ingest.fallback_rate:.4f})"
        )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import aggregate_report, matrix_report

    config = config_from_args(args)
    if args.app:
        aggregate = run_experiment(args.app, args.network, config)
        text = aggregate_report(aggregate)
    else:
        text = matrix_report(run_matrix(config=config, workers=args.workers))
    if args.out:
        with open(args.out, "w") as fileobj:
            fileobj.write(text)
        print(f"wrote report to {args.out}")
    else:
        print(text)
    return 0


def cmd_dataset(args: argparse.Namespace) -> int:
    from repro.experiments.dataset import build_dataset

    dataset = build_dataset(
        args.root,
        apps=tuple(args.apps),
        call_duration=args.duration,
        media_scale=args.scale,
        repeats=args.repeats,
        seed=args.seed,
    )
    total = sum(entry.packet_count for entry in dataset.entries)
    print(f"wrote {len(dataset.entries)} traces ({total} packets) to {dataset.root}")
    return 0


def cmd_interop(args: argparse.Namespace) -> int:
    from repro.experiments.interop import compute_interop_gap, render_gap_table
    from repro.experiments.runner import run_cell_pipeline

    config = ExperimentConfig(
        call_duration=args.duration, media_scale=args.scale, seed=args.seed
    )
    gaps = []
    for app in APP_NAMES:
        verdicts = []
        analyses = []
        for network in NetworkCondition:
            run = run_cell_pipeline(app, network, config)
            analyses.extend(run.dpi.analyses)
            verdicts.extend(run.verdicts)
        gaps.append(compute_interop_gap(app, verdicts, analyses))
    print(render_gap_table(gaps))
    print("\nWorkload details:")
    for gap in gaps:
        print(f"\n{gap.app} (effort {gap.effort_score}/10):")
        for item in gap.workload_items():
            print(f"  - {item}")
    return 0


def _read_capture(path: str) -> Optional[List[PacketRecord]]:
    """Every decodable record of a capture; ``None`` (after printing why)
    when the file cannot be read, ``[]`` when nothing in it decodes."""
    try:
        records = [r for chunk in iter_capture_chunks(path) for r in chunk]
    except _UNREADABLE as exc:
        _unreadable_capture(path, exc)
        return None
    if not records:
        print("no decodable packets found", file=sys.stderr)
    return records


def cmd_fingerprint(args: argparse.Namespace) -> int:
    from repro.analysis.classifier import classify_application

    records = _read_capture(args.path)
    if not records:
        return 1
    result = ColumnarEngine(args.max_offset).analyze_records(records)
    scores = classify_application(result.analyses)
    if scores.best is None:
        print("no RTC application fingerprint recognized")
        return 1
    confidence = "high" if scores.confident else "low"
    print(f"best match: {scores.best} (confidence: {confidence})")
    for app, score in sorted(scores.scores.items(), key=lambda kv: -kv[1]):
        print(f"  {app:<11} score {score:.1f}")
        for reason in scores.evidence.get(app, []):
            print(f"    - {reason}")
    return 0


def cmd_dissect(args: argparse.Namespace) -> int:
    from repro.analysis.dissect import dissect_records

    records = _read_capture(args.path)
    if not records:
        return 1
    print(dissect_records(records, max_offset=args.max_offset,
                          limit=args.limit))
    return 0


def cmd_pipeline_stats(args: argparse.Namespace) -> int:
    """Per-stage counters of each app's cells, summed over networks.

    The ``dpi`` stage's records out is the number of datagrams DPI
    analyzed (``DpiStats.datagrams``).
    """
    import json as json_module

    from repro.pipeline import merge_stage_stats

    config = config_from_args(args)
    apps = [args.app] if args.app else list(APP_NAMES)
    networks = [args.network] if args.network else list(NetworkCondition)
    per_app = {}
    totals = {}
    for app in apps:
        stats = {}
        for network in networks:
            aggregate = run_experiment(app, network, config)
            merge_stage_stats(stats, aggregate.stage_stats.values())
        per_app[app] = stats
        merge_stage_stats(totals, stats.values())
    if args.json:
        payload = {
            "config": {
                "call_duration": config.call_duration,
                "media_scale": config.media_scale,
                "seed": config.seed,
                "impairment": config.impairment,
                "apps": apps,
                "networks": [n.value for n in networks],
            },
            "per_app": {
                app: {name: stat.to_json() for name, stat in stats.items()}
                for app, stats in per_app.items()
            },
            "total": {name: stat.to_json() for name, stat in totals.items()},
        }
        print(json_module.dumps(payload, indent=2))
        return 0
    header = (f"{'stage':<8} {'records in':>12} {'records out':>12} "
              f"{'wall (s)':>10} {'peak buffered':>14} {'chunks':>8}")

    def print_rows(stats) -> None:
        print(f"  {header}")
        for stat in stats.values():
            print(f"  {stat.name:<8} {stat.records_in:>12} "
                  f"{stat.records_out:>12} {stat.wall_seconds:>10.4f} "
                  f"{stat.peak_buffered:>14} {stat.chunks:>8}")

    for app, stats in per_app.items():
        print(f"{app}:")
        print_rows(stats)
    if len(per_app) > 1:
        print("total:")
        print_rows(totals)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the HTTP/SSE daemon until SIGTERM/SIGINT, then drain and exit.

    ``--impairment`` becomes the daemon's per-session default: a ``POST
    /sessions`` body only overrides what it names.  Shutdown is
    graceful — sessions are drained (ingest stopped, results finalized)
    while ``/healthz`` keeps answering, then the listener stops.  The
    daemon never runs a matrix, so it has no worker pool to tear down.
    """
    import signal
    import threading

    from repro.service.http import ComplianceService, make_server

    service = ComplianceService(defaults={"impairment": args.impairment})
    server = make_server(args.host, args.port, service)
    host, port = server.server_address[:2]

    stop = threading.Event()

    def _request_shutdown(signum, frame) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, _request_shutdown)
    signal.signal(signal.SIGINT, _request_shutdown)

    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"rtc-compliance service listening on http://{host}:{port}",
          flush=True)
    try:
        stop.wait()
    except KeyboardInterrupt:
        pass
    print("shutting down: draining sessions", flush=True)
    service.shutdown()          # drain while /healthz still answers
    server.shutdown()
    server.server_close()
    thread.join(timeout=5.0)
    print("shutdown complete", flush=True)
    return 0


def _conformance_dir(args: argparse.Namespace):
    from pathlib import Path

    from repro.conformance import default_corpus_dir

    return Path(args.dir) if args.dir else default_corpus_dir()


def _write_report(path: Optional[str], text: str) -> None:
    if path:
        with open(path, "w") as fileobj:
            fileobj.write(text + "\n")
        print(f"wrote report to {path}")


def cmd_conformance(args: argparse.Namespace) -> int:
    from dataclasses import replace as dc_replace

    from repro.conformance import (
        CorpusConfig,
        GoldenMismatchError,
        check_corpus,
        check_impaired_corpora,
        default_corpus_dir,
        fuzz,
        record_corpus,
        record_impaired_corpora,
    )

    directory = _conformance_dir(args)
    if args.conformance_command == "record":
        config = CorpusConfig()
        overrides = {
            key: value
            for key, value in (
                ("call_duration", args.duration),
                ("media_scale", args.scale),
                ("seed", args.seed),
            )
            if value is not None
        }
        if args.impairment != "none":
            overrides["impairment"] = args.impairment
        if overrides:
            config = dc_replace(config, **overrides)
        if args.impaired:
            manifests = record_impaired_corpora(
                base=directory, config=config,
                apps=tuple(args.apps) if args.apps else APP_NAMES,
                progress=print,
            )
            total = sum(len(m["cells"]) for m in manifests.values())
            print(f"recorded {total} impaired cells under {directory}")
            return 0
        kwargs = {}
        if args.apps:
            kwargs["apps"] = tuple(args.apps)
        if args.networks:
            kwargs["networks"] = tuple(args.networks)
        manifest = record_corpus(directory, config, progress=print, **kwargs)
        print(f"recorded {len(manifest['cells'])} cells to {directory}")
        return 0
    if args.conformance_command == "check":
        try:
            if args.impaired:
                report = check_impaired_corpora(
                    base=directory, apps=args.apps or None
                )
            else:
                report = check_corpus(
                    directory, apps=args.apps or None,
                    networks=args.networks or None,
                )
        except GoldenMismatchError as exc:
            print(f"conformance check failed: {exc}", file=sys.stderr)
            return 1
        text = report.render()
        print(text)
        if not report.ok:
            _write_report(args.report_out, text)
        return 0 if report.ok else 1
    # fuzz
    corpus_dir = None
    if not args.no_corpus:
        candidate = directory if args.dir else default_corpus_dir()
        if (candidate / "manifest.json").exists():
            corpus_dir = candidate
        elif args.dir:
            print(f"no conformance manifest in {candidate}", file=sys.stderr)
            return 1
    report = fuzz(
        iterations=args.iterations,
        seed=args.seed,
        corpus_dir=corpus_dir,
        minimize=not args.no_minimize,
    )
    text = report.render()
    print(text)
    if not report.ok:
        _write_report(args.report_out, text)
    return 0 if report.ok else 1


def _install_signal_handlers() -> None:
    """Terminate matrix pool workers on SIGTERM/SIGINT, then die normally.

    A signal that kills the process skips the pool's shutdown, so a
    ``kill`` against a matrix run could orphan pool workers mid-task.
    The handler signals the workers directly (:func:`kill_pool_workers`
    — deliberately *not* ``ProcessPoolExecutor.shutdown``, which
    acquires locks the interrupted main thread may hold), restores the
    default disposition, and re-raises the signal so the exit status
    still reflects the signal death.  ``serve`` replaces these with its
    own graceful-drain handlers.
    """
    import os
    import signal
    import threading

    from repro.experiments.parallel import kill_pool_workers

    if threading.current_thread() is not threading.main_thread():
        return

    owner_pid = os.getpid()

    def _handler(signum, frame) -> None:
        signal.signal(signum, signal.SIG_DFL)
        # A forked child that inherited this handler (a pool worker)
        # must just die — only the installing process owns the pool.
        if os.getpid() == owner_pid:
            kill_pool_workers()
        os.kill(os.getpid(), signum)

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, _handler)
        except (ValueError, OSError):  # pragma: no cover - exotic host
            pass


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    _install_signal_handlers()
    handlers = {
        "run": cmd_run,
        "matrix": cmd_matrix,
        "synthesize": cmd_synthesize,
        "pcap": cmd_pcap,
        "report": cmd_report,
        "dataset": cmd_dataset,
        "interop": cmd_interop,
        "fingerprint": cmd_fingerprint,
        "dissect": cmd_dissect,
        "pipeline-stats": cmd_pipeline_stats,
        "serve": cmd_serve,
        "conformance": cmd_conformance,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
