"""Raw pipeline throughput: synthesis, pcap I/O, DPI, compliance.

Not a paper table — an engineering benchmark for the library itself, so
regressions in the hot paths (candidate scan, TLV parsing) are visible.
The headline numbers — DPI datagrams/second with the flow-sticky fast
path on vs off, hit rates, and the serial matrix wall-clock both ways —
are written to ``BENCH_pipeline.json`` at the repo root so CI can archive
the trajectory.
"""

import dataclasses
import functools
import gc
import io
import json
import os
import pathlib
import time
import tracemalloc

from repro.apps import CallConfig, NetworkCondition, get_simulator
from repro.core import ComplianceChecker, StreamingSummary
from repro.core.metrics import ComplianceSummary
from repro.dpi import ColumnarScanner, DpiEngine
from repro.experiments import ExperimentConfig, plan_shard_workers, run_matrix
from repro.experiments.runner import default_engine
from repro.packets.pcap import PcapReader, PcapWriter
from repro.packets.packet import PacketRecord
from repro.pipeline import DEFAULT_CHUNK_SIZE, run_streaming, run_streaming_sharded
from repro.protocols.rtp.header import RtpPacket

#: Filled by the tests below, flushed by ``test_emit_bench_json`` (last in
#: this module, so plain file order runs it after the producers).
RESULTS = {}

BENCH_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCH_pipeline.json"


def test_synthesis_throughput(benchmark):
    simulator = get_simulator("whatsapp")
    config = CallConfig(network=NetworkCondition.WIFI_RELAY, seed=1,
                        call_duration=20.0, media_scale=0.5)
    trace = benchmark(simulator.simulate, config)
    assert len(trace.records) > 1000


def test_pcap_write_read_throughput(zoom_kept_records, benchmark):
    records = zoom_kept_records[:2000]

    def round_trip():
        buffer = io.BytesIO()
        writer = PcapWriter(buffer)
        for record in records:
            writer.write_record(record)
        buffer.seek(0)
        return sum(1 for _ in PcapReader(buffer).records())

    count = benchmark(round_trip)
    assert count == len(records)


def test_dpi_throughput(zoom_kept_records, benchmark):
    engine = DpiEngine()
    records = zoom_kept_records[:3000]
    result = benchmark(engine.analyze_records, records)
    assert result.analyses


def test_dpi_sweep_vs_fastpath(zoom_kept_records):
    """Datagrams/second with the flow-sticky fast path off vs on.

    Fresh engines per run (best of two); the fast path must beat the full
    sweep by the acceptance margin on this single-stream-heavy trace.
    """
    records = zoom_kept_records

    def run(fastpath):
        best_seconds, stats = None, None
        for _ in range(2):
            engine = DpiEngine(fastpath=fastpath)
            start = time.perf_counter()
            stats = engine.analyze_records(records).stats
            elapsed = time.perf_counter() - start
            if best_seconds is None or elapsed < best_seconds:
                best_seconds = elapsed
        return best_seconds, stats

    sweep_seconds, sweep_stats = run(False)
    fast_seconds, fast_stats = run(True)
    speedup = sweep_seconds / fast_seconds
    RESULTS["dpi"] = {
        "datagrams": fast_stats.datagrams,
        "sweep_datagrams_per_second": round(
            sweep_stats.datagrams / sweep_seconds, 1
        ),
        "fastpath_datagrams_per_second": round(
            fast_stats.datagrams / fast_seconds, 1
        ),
        "speedup": round(speedup, 3),
        "fastpath_hit_rate": round(fast_stats.fastpath_hit_rate, 4),
        "fastpath_fallbacks": fast_stats.fastpath_fallbacks,
        "fastpath_redos": fast_stats.fastpath_redos,
    }
    assert fast_stats.fastpath_hits > 0
    assert speedup >= 1.5


def test_columnar_sweep_throughput(zoom_kept_records):
    """Stage-one sweeps/second: scalar per-payload scan vs columnar batches.

    Both sides run the same ``ColumnarScanner`` — ``scan_payload`` is the
    scalar reference (the exact matcher loop ``DpiEngine._sweep`` runs),
    ``scan_batch`` the chunked columnar pass.  Rounds interleave the two
    and take the best of each so scheduler noise cannot fake a win either
    way, and the candidate lists must match bit for bit with zero parity
    fallbacks before any number is recorded.
    """
    payloads = [record.payload for record in zoom_kept_records]
    chunks = [
        payloads[i:i + DEFAULT_CHUNK_SIZE]
        for i in range(0, len(payloads), DEFAULT_CHUNK_SIZE)
    ]
    scanner = ColumnarScanner(max_offset=200)

    def scalar_pass():
        scan = scanner.scan_payload
        return [scan(payload) for payload in payloads]

    def columnar_pass():
        out = []
        for chunk in chunks:
            out.extend(scanner.scan_batch(chunk))
        return out

    # Warm both paths once (numpy's first ufunc dispatch and the regex
    # caches are one-time costs) before the interleaved timed rounds.
    scalar_pass()
    columnar_pass()

    best_scalar = best_columnar = None
    reference = columnar = None
    # Cyclic GC pauses land wherever allocation bursts do — which in a
    # long-lived pytest process means mid-round, and disproportionately on
    # whichever pass happens to cross a generation threshold.  Park it so
    # both passes pay zero collection cost instead of a random one.
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(5):
            start = time.perf_counter()
            reference = scalar_pass()
            elapsed = time.perf_counter() - start
            if best_scalar is None or elapsed < best_scalar:
                best_scalar = elapsed
            start = time.perf_counter()
            columnar = columnar_pass()
            elapsed = time.perf_counter() - start
            if best_columnar is None or elapsed < best_columnar:
                best_columnar = elapsed
    finally:
        if gc_was_enabled:
            gc.enable()

    assert columnar == reference, "columnar scan diverged from the scalar sweep"
    assert scanner.stats.fallbacks == 0

    speedup = best_scalar / best_columnar
    RESULTS["columnar"] = {
        "payloads": len(payloads),
        "chunk_size": DEFAULT_CHUNK_SIZE,
        "vectorized": scanner.vectorized,
        "scalar_sweeps_per_second": round(len(payloads) / best_scalar, 1),
        "columnar_sweeps_per_second": round(len(payloads) / best_columnar, 1),
        "speedup": round(speedup, 3),
        "fallback_rate": scanner.stats.fallback_rate,
    }
    # The >= 3x acceptance bar needs the vector path; the mandatory
    # pure-Python fallback only has the matcher gating to work with.
    floor = 3.0 if scanner.vectorized else 1.05
    assert speedup >= floor, RESULTS["columnar"]


def test_batch_ingest_throughput(zoom_kept_records, tmp_path):
    """Capture decode throughput: per-frame scalar reader vs mmap batch.

    The same Ethernet/UDP-heavy zoom trace is serialized once; each round
    then ingests the file end-to-end both ways — the scalar side paying
    one ``read()`` per record header plus the layer-by-layer object
    decode, the batch side the mmap index scan plus the struct fast path.
    Rounds interleave and take the best of each, records must match bit
    for bit with zero undecodable skips, and the recorded numbers carry
    the fallback rate so a fast-path coverage regression is visible in
    the bench trajectory.
    """
    from repro.packets.batch import BatchPcapReader, IngestStats
    from repro.packets.pcap import write_pcap

    path = tmp_path / "ingest-bench.pcap"
    frames = write_pcap(path, zoom_kept_records)

    def scalar_pass():
        with open(path, "rb") as fileobj:
            return list(PcapReader(fileobj).records())

    stats = IngestStats()

    def batch_pass():
        with BatchPcapReader(path, stats=stats) as reader:
            return list(reader.records())

    reference = scalar_pass()
    batch = batch_pass()
    vectorized_probe = BatchPcapReader(path)
    vectorized = vectorized_probe.vectorized
    vectorized_probe.close()

    best_scalar = best_batch = None
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(5):
            start = time.perf_counter()
            reference = scalar_pass()
            elapsed = time.perf_counter() - start
            if best_scalar is None or elapsed < best_scalar:
                best_scalar = elapsed
            start = time.perf_counter()
            batch = batch_pass()
            elapsed = time.perf_counter() - start
            if best_batch is None or elapsed < best_batch:
                best_batch = elapsed
    finally:
        if gc_was_enabled:
            gc.enable()

    assert batch == reference, "batch decode diverged from the scalar reader"
    assert stats.skipped == 0, "bench trace must contain no parity fallbacks"

    speedup = best_scalar / best_batch
    RESULTS["ingest"] = {
        "frames": frames,
        "records": len(reference),
        "vectorized": vectorized,
        "scalar_datagrams_per_second": round(len(reference) / best_scalar, 1),
        "batch_datagrams_per_second": round(len(reference) / best_batch, 1),
        "speedup": round(speedup, 3),
        "fast_path_rate": round(
            stats.fast_path / stats.frames, 4
        ) if stats.frames else 0.0,
        "fallback_rate": round(stats.fallback_rate, 6),
    }
    # The >= 3x acceptance bar needs the struct fast path to carry the
    # trace; without numpy the index scan alone still has to win.
    floor = 3.0 if vectorized else 1.05
    assert speedup >= floor, RESULTS["ingest"]


def test_checker_throughput(zoom_dpi, benchmark):
    checker = ComplianceChecker()
    messages = zoom_dpi.messages()
    verdicts = benchmark(checker.check, messages)
    assert len(verdicts) == len(messages)


def test_matrix_throughput(benchmark):
    """Serial vs parallel wall-clock for a small matrix, fast path on/off.

    The parallel run is the benchmarked quantity; the serial runs (one per
    fast-path mode, each on a cold process-wide engine) are timed once and
    recorded in ``extra_info``/``BENCH_pipeline.json`` so both speedups are
    visible in the bench trajectory.  Results must match bit-for-bit in
    every mode.
    """
    apps = ("whatsapp", "discord", "meet")
    networks = (NetworkCondition.WIFI_RELAY, NetworkCondition.CELLULAR)
    config = ExperimentConfig(call_duration=8.0, media_scale=0.25, seed=3)
    sweep_config = dataclasses.replace(config, fastpath=False)

    default_engine.cache_clear()
    start = time.perf_counter()
    serial = run_matrix(apps, networks, config=config, workers=1)
    serial_seconds = time.perf_counter() - start

    default_engine.cache_clear()
    start = time.perf_counter()
    sweep = run_matrix(apps, networks, config=sweep_config, workers=1)
    sweep_seconds = time.perf_counter() - start

    parallel = benchmark(run_matrix, apps, networks, config, None)

    benchmark.extra_info["serial_seconds"] = serial_seconds
    benchmark.extra_info["serial_sweep_seconds"] = sweep_seconds
    RESULTS["matrix_serial"] = {
        "fastpath_seconds": round(serial_seconds, 3),
        "sweep_seconds": round(sweep_seconds, 3),
        "speedup": round(sweep_seconds / serial_seconds, 3),
    }
    for app in apps:
        for other in (parallel, sweep):
            assert other.per_app[app].summary == serial.per_app[app].summary
            assert other.per_app[app].class_counts == serial.per_app[app].class_counts
            assert (other.per_app[app].protocol_counts
                    == serial.per_app[app].protocol_counts)
        assert sweep.per_app[app].dpi_stats.fastpath_hits == 0
        assert serial.per_app[app].dpi_stats.fastpath_hits > 0
    # The fast path must not lose the serial matrix race; the hard >= 1.5x
    # bar lives on the DPI stage itself (test_dpi_sweep_vs_fastpath),
    # where simulation time cannot dilute it.
    assert sweep_seconds > serial_seconds


def _rotating_flow_records(flows, packets_per_flow):
    """Sequential short RTP flows, one UDP source port per flow.

    Each flow carries enough packets for the stream-scoped RTP validator
    to engage, and flows never interleave — so a streaming consumer can
    retire each flow (``finish_stream``) the moment the next one starts,
    while a batch consumer must hold the whole capture.
    """
    for flow in range(flows):
        ssrc = 0x5EED0000 + flow
        base = flow * packets_per_flow * 0.02
        for seq in range(packets_per_flow):
            packet = RtpPacket(
                payload_type=96,
                sequence_number=(1000 + seq) & 0xFFFF,
                timestamp=(seq * 960) & 0xFFFFFFFF,
                ssrc=ssrc,
                payload=bytes(160),
            )
            yield PacketRecord(
                timestamp=base + seq * 0.02,
                src_ip="192.168.7.2",
                src_port=30000 + flow,
                dst_ip="198.51.100.9",
                dst_port=50004,
                transport="UDP",
                payload=packet.build(),
            )


def _pipeline_peak(mode, flows, packets_per_flow=24):
    """tracemalloc peak (bytes), wall seconds, and the finished summary.

    ``fastpath=False`` on both sides so the fast path's per-flow sticky
    state (deliberately O(flows)) does not muddy the measurement; the only
    variable is whether the run materializes the capture or streams it.
    """
    engine = DpiEngine(fastpath=False)
    checker = ComplianceChecker()
    gc.collect()
    tracemalloc.start()
    start = time.perf_counter()
    try:
        if mode == "batch":
            records = list(_rotating_flow_records(flows, packets_per_flow))
            dpi = engine.analyze_records(records)
            summary = ComplianceSummary.from_verdicts(
                "bench", checker.check(dpi.messages())
            )
        else:
            session = engine.stream_session()
            stream = checker.stream()
            folding = StreamingSummary("bench")
            previous = None
            for record in _rotating_flow_records(flows, packets_per_flow):
                key = record.flow_key
                if previous is not None and key != previous:
                    for analysis in session.finish_stream(previous):
                        for index, verdict in stream.feed(analysis.messages):
                            folding.add(verdict, index=index)
                session.feed(record)
                previous = key
            for analysis in session.flush():
                for index, verdict in stream.feed(analysis.messages):
                    folding.add(verdict, index=index)
            for index, verdict in stream.flush():
                folding.add(verdict, index=index)
            summary = folding.result()
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, elapsed, summary


def test_streaming_memory_bounded():
    """Streaming peak memory is flat in call duration; batch grows with it.

    Same rotating-flow workload at 1x and 4x duration: the batch path's
    tracemalloc peak must scale roughly with the capture (> 2.5x), while
    the streaming path — which retires each flow as the next begins —
    must stay essentially flat (< 2x).  Both modes must still agree on
    the compliance summary, so the memory win provably costs no fidelity.
    """
    flows = 40
    batch_1x, _, batch_summary = _pipeline_peak("batch", flows)
    batch_4x, _, _ = _pipeline_peak("batch", flows * 4)
    stream_1x, _, stream_summary = _pipeline_peak("streaming", flows)
    stream_4x, seconds_4x, _ = _pipeline_peak("streaming", flows * 4)

    assert stream_summary == batch_summary
    assert batch_summary.volume.total > 0

    batch_ratio = batch_4x / batch_1x
    stream_ratio = stream_4x / stream_1x
    RESULTS["memory"] = {
        "flows_1x": flows,
        "packets_per_flow": 24,
        "batch_peak_kb_1x": round(batch_1x / 1024, 1),
        "batch_peak_kb_4x": round(batch_4x / 1024, 1),
        "batch_peak_ratio_4x": round(batch_ratio, 3),
        "streaming_peak_kb_1x": round(stream_1x / 1024, 1),
        "streaming_peak_kb_4x": round(stream_4x / 1024, 1),
        "streaming_peak_ratio_4x": round(stream_ratio, 3),
        "streaming_datagrams_per_second": round(flows * 4 * 24 / seconds_4x, 1),
    }
    assert batch_ratio > 2.5, RESULTS["memory"]
    assert stream_ratio < 2.0, RESULTS["memory"]


#: Streaming datagrams/second recorded in BENCH_pipeline.json by PR 4's
#: per-record pipeline (memory block, cache and fast path off).  The
#: chunked pipeline with production engine defaults must clear 1.5x this.
PR4_STREAMING_BASELINE = 1864.3


def test_sharded_parallel_throughput():
    """Chunked and flow-sharded streaming throughput, with parity proof.

    Measures datagrams/second for per-record (``chunk_size=1``) versus
    chunked streaming, and for the flow-sharded executor at 1/2/4 shards
    on a many-flow workload.  All five runs must produce bit-identical
    verdicts.  The multi-core speedup assertions only fire on machines
    with at least 4 CPUs — on smaller boxes the shard numbers are
    recorded for the trajectory but process overhead makes a hard bar
    meaningless.
    """
    flows, packets_per_flow = 96, 24
    records = list(_rotating_flow_records(flows, packets_per_flow))

    def fingerprint(verdicts):
        return [
            (verdict.message.protocol.value, verdict.compliant,
             tuple((v.criterion, v.code) for v in verdict.violations))
            for verdict in verdicts
        ]

    def timed_streaming(chunk_size):
        best_dgs, reference = 0.0, None
        for _ in range(2):
            engine = DpiEngine()
            start = time.perf_counter()
            dpi, verdicts, _ = run_streaming(
                records, engine, ComplianceChecker(), chunk_size=chunk_size
            )
            elapsed = time.perf_counter() - start
            best_dgs = max(best_dgs, dpi.stats.datagrams / elapsed)
            reference = fingerprint(verdicts)
        return best_dgs, reference

    per_record_dgs, per_record_fp = timed_streaming(1)
    chunked_dgs, chunked_fp = timed_streaming(DEFAULT_CHUNK_SIZE)
    assert chunked_fp == per_record_fp

    # Resolve every swept shard count through the production plan first:
    # counts the plan refuses (clamped to the CPU count, or degraded to
    # in-process entirely) are still measured for the trajectory, but
    # they are *annotated* so a sub-1.0 "speedup" on a small box reads as
    # a clamped configuration, not a regression.
    shard_plans = {
        shards: plan_shard_workers(shards, shards) for shards in (1, 2, 4)
    }
    refused = sorted(
        shards for shards, plan in shard_plans.items()
        if plan.effective < shards
    )

    shard_dgs = {}
    for shards in (1, 2, 4):
        start = time.perf_counter()
        dpi, verdicts, _ = run_streaming_sharded(
            records,
            engine_factory=functools.partial(DpiEngine),
            shards=shards,
            workers=0 if shards == 1 else shards,
        )
        elapsed = time.perf_counter() - start
        shard_dgs[shards] = dpi.stats.datagrams / elapsed
        assert fingerprint(verdicts) == per_record_fp

    cpus = os.cpu_count() or 1
    plan_4 = shard_plans[4]
    RESULTS["parallel"] = {
        "flows": flows,
        "packets_per_flow": packets_per_flow,
        "chunk_size": DEFAULT_CHUNK_SIZE,
        "per_record_datagrams_per_second": round(per_record_dgs, 1),
        "chunked_datagrams_per_second": round(chunked_dgs, 1),
        "chunked_vs_pr4_baseline": round(chunked_dgs / PR4_STREAMING_BASELINE, 3),
        "sharded_datagrams_per_second": {
            str(shards): round(dgs, 1) for shards, dgs in shard_dgs.items()
        },
        "cpu_count": cpus,
        "shard_speedup_4_vs_1": round(shard_dgs[4] / shard_dgs[1], 3),
        "shard_speedup_4_vs_1_note": (
            f"4-shard request refused by the plan on this machine "
            f"({plan_4.describe()}); the ratio documents clamped-config "
            f"overhead, not production behavior"
            if 4 in refused else "4 shards accepted by the plan"
        ),
        # Every swept shard count resolved through the production plan
        # (the executor clamps to the CPU count; see ShardPlan).
        "shard_plans": {
            str(shards): plan.as_dict() for shards, plan in shard_plans.items()
        },
        "refused_shard_counts": refused,
    }
    assert chunked_dgs >= 1.5 * PR4_STREAMING_BASELINE, RESULTS["parallel"]
    if cpus >= 4:
        # CI runners have the cores; the sharded path must actually win.
        assert shard_dgs[4] >= chunked_dgs, RESULTS["parallel"]
        assert shard_dgs[4] >= 2.0 * shard_dgs[1], RESULTS["parallel"]


def test_planner_auto_vs_fixed(tmp_path):
    """Acceptance bench for the adaptive execution planner.

    Runs the small bench matrix under three hand-picked fixed
    configurations (naive defaults, columnar backend, the 4-shard request
    the old bench documented as a 0.81x cliff) and under ``--plan auto``
    with a fresh calibration cache.  Auto must stay within the acceptance
    envelope of the best fixed configuration, and on a machine whose
    shard plan *refuses* 4 shards it must strictly beat that clamped
    configuration — that is the scenario the planner exists to avoid.
    Auto results must also stay bit-identical to the fixed-default run.
    """
    from repro.experiments import costmodel

    apps = ("whatsapp", "discord", "meet")
    networks = (NetworkCondition.WIFI_RELAY, NetworkCondition.CELLULAR)
    base = ExperimentConfig(call_duration=8.0, media_scale=0.25, seed=3)

    costmodel.reset_stores()
    configs = {
        name: dataclasses.replace(
            config, calibration_file=str(tmp_path / f"{name}.json")
        )
        for name, config in {
            "defaults": base,
            "columnar": dataclasses.replace(base, dpi_backend="columnar"),
            "shards4": dataclasses.replace(base, shard_workers=4),
            "auto": dataclasses.replace(base, plan="auto"),
        }.items()
    }

    def run_once(config):
        start = time.perf_counter()
        result = run_matrix(apps, networks, config=config, workers=1)
        return time.perf_counter() - start, result

    # Warm-up repetition of every config (auto's probes each cell and
    # seeds its calibration cache, exactly like the first repetition of
    # any real sweep), then interleaved best-of-3 timed rounds — the
    # matrix differences at stake (a few percent) are smaller than the
    # drift between non-interleaved measurement blocks.
    results = {}
    for name, config in configs.items():
        _, results[name] = run_once(config)
    best = {}
    for _ in range(3):
        for name, config in configs.items():
            elapsed, _ = run_once(config)
            best[name] = min(best.get(name, elapsed), elapsed)

    reference, auto_result = results["defaults"], results["auto"]
    for app in apps:
        assert auto_result.per_app[app].summary == reference.per_app[app].summary
        assert (auto_result.per_app[app].class_counts
                == reference.per_app[app].class_counts)

    auto_seconds = best.pop("auto")
    fixed_seconds = best
    best_name = min(fixed_seconds, key=fixed_seconds.__getitem__)
    ratio = auto_seconds / fixed_seconds[best_name]
    plan_4 = plan_shard_workers(4, 4)
    RESULTS["planner"] = {
        "matrix": {
            "apps": list(apps),
            "networks": [n.value for n in networks],
            "call_duration": base.call_duration,
            "media_scale": base.media_scale,
            "seed": base.seed,
        },
        "cpu_count": os.cpu_count() or 1,
        "auto_seconds": round(auto_seconds, 3),
        "fixed_seconds": {
            name: round(seconds, 3) for name, seconds in fixed_seconds.items()
        },
        "best_fixed": best_name,
        "auto_vs_best_fixed": round(ratio, 3),
        "target_ratio": 1.05,
        "within_target": ratio <= 1.05,
        "clamped_case": {
            "config": "shard_workers=4",
            "plan": plan_4.as_dict(),
            "refused": plan_4.in_process,
            "seconds": round(fixed_seconds["shards4"], 3),
            "auto_beats_clamped": auto_seconds < fixed_seconds["shards4"],
        },
        "sample_plans": {
            app: auto_result.per_app[app].plans[0] for app in apps
        },
    }
    # Hard bar with measurement slack; the 1.05 target itself is recorded
    # in the JSON so the trajectory shows how close auto actually runs.
    assert ratio <= 1.25, RESULTS["planner"]
    if plan_4.in_process:
        # The clamped-CPU scenario the old bench mis-read as a regression:
        # auto refuses the sharding and must win outright.
        assert auto_seconds < fixed_seconds["shards4"], RESULTS["planner"]


def test_emit_bench_json():
    """Flush the numbers gathered above to ``BENCH_pipeline.json``."""
    assert "dpi" in RESULTS and "matrix_serial" in RESULTS and "memory" in RESULTS
    assert "parallel" in RESULTS and "columnar" in RESULTS
    assert "planner" in RESULTS and "ingest" in RESULTS
    payload = dict(RESULTS)
    payload["trace"] = {
        "app": "zoom", "network": "wifi_relay",
        "call_duration": 40.0, "media_scale": 0.5, "seed": 0,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
