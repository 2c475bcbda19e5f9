"""Seeded inputs, pass drivers and the sweep-oracle gate of the benchmark.

Each workload's captures are written to disk once per seed
(:func:`prepare`) and reused by later runs, so simulation never lands in
a timed pass or in set-up time.  The program under test receives only
the capture files, plus the call window where the paper's filtered
pipeline needs it.

* ``clean-call``: one host's capture of eight concurrent 60-second zoom x
  wifi_relay calls with background traffic (see ``CONCURRENT_CALLS``),
  through the filtered session (``AnalysisSession(window=...)``, the
  ``run_cell_pipeline`` shape).  Long-lived media and fast-path DPI
  dominate, so every DPI-engine change shows here.
* ``udp-blocked-call``: the same calls under the ``udp_blocked``
  impairment, so RTC media rides TURN ChannelData over TCP/443.  The
  session's DPI skips non-UDP, which leaves decode, index scan and filter
  doing the work; a DPI-only change should not move this workload.
* ``rotating-captures``: short calls across every app x network with
  mixed impairments, written as time-rotated pcap files and run through
  the service's pcap-directory shape minus polling and HTTP.  A producer
  thread replays each file into a blocking ``BoundedQueue`` and the
  feeder drains it into one filterless ``AnalysisSession`` with idle
  eviction.  It is the only workload that measures the service layer, and
  it bypasses the filter.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import threading
import time
from dataclasses import asdict, dataclass
from itertools import chain
from pathlib import Path
from typing import Dict, List, Optional

from repro.apps import APP_NAMES, CallConfig, NetworkCondition, get_simulator
from repro.conformance.golden import build_facts, facts_digest
from repro.dpi.engine import DpiEngine
from repro.packets.batch import DEFAULT_CHUNK_SIZE, BatchPcapReader
from repro.packets.pcap import write_pcap
from repro.service.ingest import (
    BoundedQueue,
    QueueCounters,
    ReplaySource,
    produce,
    pump,
)
from repro.service.session import AnalysisSession, EvictionPolicy, SessionResult
from repro.streams.timeline import CallWindow

WORKLOADS = ("clean-call", "udp-blocked-call", "rotating-captures")

#: Bump whenever the generator's output for a given size and seed changes,
#: so cached inputs from an older generator are never reused.
GENERATOR_VERSION = 2

#: Concurrent zoom x wifi_relay calls in the clean-call and
#: udp-blocked-call capture, one host's background traffic among them.
#: One call's DPI cost depends on per-call random constants: its sweep
#: ratio lands anywhere from 0.10 to 0.32 by seed, which moved a single
#: call's throughput by 40-50% between seeds.  Eight calls hold the sweep
#: ratio at 0.16-0.18 for every seed.
CONCURRENT_CALLS = 8

#: Impairments the rotating captures cycle through, one per call.
ROTATING_IMPAIRMENTS = ("none", "lossy", "burst", "rebind")

#: Capture seconds between the end of one rotating call and the next.
ROTATING_GAP_SECONDS = 1.0

#: What ``rtc-compliance serve`` builds for a ``pcap_dir`` source: a
#: filterless session with idle eviction at the service defaults, fed
#: from a 64-batch queue that blocks the producer when full.
SERVICE_EVICTION = EvictionPolicy(mode="idle")
SERVICE_QUEUE_SIZE = 64


@dataclass(frozen=True)
class Size:
    """How much capture each workload generates."""

    #: Length and media rate of each clean-call and udp-blocked-call call.
    call_seconds: float
    call_media_scale: float
    #: Length and media rate of each short rotating-captures call.
    rotating_call_seconds: float
    rotating_media_scale: float
    #: Capture seconds covered by one rotated file.
    rotate_seconds: float


#: The benchmark's inputs.
FULL = Size(
    call_seconds=60.0,
    call_media_scale=0.0625,
    rotating_call_seconds=6.0,
    rotating_media_scale=0.3,
    rotate_seconds=10.0,
)
#: Inputs small enough for the benchmark's own tests.
TINY = Size(
    call_seconds=3.0,
    call_media_scale=0.1,
    rotating_call_seconds=1.0,
    rotating_media_scale=0.1,
    rotate_seconds=20.0,
)


@dataclass
class Inputs:
    """One workload's captures for one seed, as written to disk."""

    workload: str
    directory: Path
    captures: List[Path]
    #: The call window for the filtered session; ``None`` runs filterless.
    window: Optional[CallWindow]
    #: Frames, bytes, flows, capture seconds and files written.
    record: Dict[str, float]


def prepare(workload: str, seed: int, cache: Path, size: Size = FULL) -> Inputs:
    """Write *workload*'s captures for *seed* under *cache*, or reuse them.

    A finished input directory is published with one rename, so an
    interrupted run never leaves a half-written input behind.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    key = hashlib.blake2b(
        json.dumps([GENERATOR_VERSION, asdict(size)]).encode(), digest_size=6
    ).hexdigest()
    directory = Path(cache) / f"{workload}-seed{seed}-{key}"
    manifest_path = directory / "manifest.json"
    if not manifest_path.is_file():
        staging = directory.with_name(f".staging-{os.getpid()}-{directory.name}")
        shutil.rmtree(staging, ignore_errors=True)
        staging.mkdir(parents=True)
        manifest = _generate(workload, seed, size, staging)
        (staging / "manifest.json").write_text(json.dumps(manifest, indent=1))
        try:
            staging.rename(directory)
        except OSError:
            # Another run published the same inputs first.
            shutil.rmtree(staging, ignore_errors=True)
    manifest = json.loads(manifest_path.read_text())
    window = manifest["window"]
    return Inputs(
        workload=workload,
        directory=directory,
        captures=[directory / name for name in manifest["captures"]],
        window=CallWindow(**window) if window is not None else None,
        record=manifest["record"],
    )


def _call(app, network, seed, index, seconds, scale, impairment, background=True):
    config = CallConfig(
        network=network,
        seed=seed,
        call_index=index,
        call_duration=seconds,
        media_scale=scale,
        include_background=background,
        impairment=impairment,
    )
    return config.window(), list(get_simulator(app).iter_records(config))


def _generate(workload: str, seed: int, size: Size, directory: Path) -> dict:
    window: Optional[CallWindow] = None
    if workload == "rotating-captures":
        records = []
        offset = 0.0
        calls = [(app, network) for app in APP_NAMES for network in NetworkCondition]
        for index, (app, network) in enumerate(calls):
            call_window, call = _call(
                app, network, seed, index,
                size.rotating_call_seconds, size.rotating_media_scale,
                ROTATING_IMPAIRMENTS[index % len(ROTATING_IMPAIRMENTS)],
            )
            records.extend(
                dataclasses.replace(record, timestamp=record.timestamp + offset)
                for record in call
            )
            end = max([call_window.capture_end] + [r.timestamp for r in call])
            offset += end + ROTATING_GAP_SECONDS
        names = _write_rotated(records, size.rotate_seconds, directory)
    else:
        impairment = "none" if workload == "clean-call" else "udp_blocked"
        records = []
        for index in range(CONCURRENT_CALLS):
            window, call = _call(
                "zoom", NetworkCondition.WIFI_RELAY, seed, index,
                size.call_seconds, size.call_media_scale, impairment,
                background=index == 0,
            )
            records.extend(call)
        records.sort(key=lambda record: record.timestamp)
        names = ["capture.pcap"]
        write_pcap(directory / names[0], records)
    timestamps = [record.timestamp for record in records]
    return {
        "workload": workload,
        "seed": seed,
        "size": asdict(size),
        "captures": names,
        "window": asdict(window) if window is not None else None,
        "record": {
            "frames": len(records),
            "bytes": sum((directory / name).stat().st_size for name in names),
            "flows": len({record.flow_key for record in records}),
            "capture_seconds": max(timestamps) - min(timestamps),
            "files": len(names),
        },
    }


def _write_rotated(records, span: float, directory: Path) -> List[str]:
    """Split time-ordered *records* into files of *span* capture seconds."""
    files: List[list] = []
    boundary = None
    for record in records:
        if boundary is None or record.timestamp >= boundary:
            files.append([])
            boundary = (record.timestamp // span + 1) * span
        files[-1].append(record)
    names = []
    for index, chunk in enumerate(files):
        name = f"capture-{index:04d}.pcap"
        write_pcap(directory / name, chunk)
        names.append(name)
    return names


def new_session(inputs: Inputs, engine: Optional[DpiEngine] = None) -> AnalysisSession:
    """A fresh session in the workload's shape.

    *engine* defaults to a fresh production engine (scalar backend, fast
    path on), and the checker is always fresh, as in every CLI run and
    service session.
    """
    if inputs.window is None:
        return AnalysisSession(engine=engine, eviction=SERVICE_EVICTION)
    return AnalysisSession(window=inputs.window, engine=engine)


@dataclass
class PassOutcome:
    """What one pass produced and how long it took."""

    #: Decoded capture records fed to the session.
    records: int
    #: Opening the first capture to the last verdict.
    wall_s: float
    #: ``AnalysisSession.close()`` alone.
    close_s: float
    result: SessionResult
    queue: Optional[QueueCounters] = None
    producer_thread: Optional[int] = None
    producer_wall_s: float = 0.0


def run_pass(inputs: Inputs, session: AnalysisSession) -> PassOutcome:
    """Capture bytes on disk to complete, batch-ordered verdicts."""
    clock = time.perf_counter
    if inputs.window is not None:
        start = clock()
        records = 0
        with BatchPcapReader(inputs.captures[0]) as reader:
            for chunk in reader.chunks(DEFAULT_CHUNK_SIZE):
                records += len(chunk)
                session.feed(chunk)
        close_start = clock()
        result = session.close()
        end = clock()
        return PassOutcome(records, end - start, end - close_start, result)

    queue = BoundedQueue(maxsize=SERVICE_QUEUE_SIZE, policy="block")
    source = chain.from_iterable(
        ReplaySource.from_pcap(str(path)) for path in inputs.captures
    )
    producer_state: Dict[str, object] = {}

    def producer_main() -> None:
        producer_state["thread"] = threading.get_ident()
        producer_state["start"] = clock()
        try:
            produce(source, queue)
        except Exception as exc:  # re-raised on the feeder below
            producer_state["error"] = exc
        finally:
            producer_state["end"] = clock()

    producer = threading.Thread(target=producer_main, name="perfbench-producer")
    start = clock()
    producer.start()
    try:
        records = pump(queue, session.feed)
    finally:
        queue.close()
        producer.join()
    if "error" in producer_state:
        raise RuntimeError("capture producer failed") from producer_state["error"]
    close_start = clock()
    result = session.close()
    end = clock()
    return PassOutcome(
        records,
        end - start,
        end - close_start,
        result,
        queue=queue.counters,
        producer_thread=producer_state["thread"],
        producer_wall_s=producer_state["end"] - producer_state["start"],
    )


def sweep_engine() -> DpiEngine:
    """The conformance ``sweep`` configuration: Algorithm 1, uncached."""
    return DpiEngine(fastpath=False, cache_size=0)


def output_facts(inputs: Inputs, result: SessionResult) -> Dict[str, object]:
    """What every pass must reproduce: verdicts in order, datagram classes
    (``by_class``) and the filter's Table 1 accounting."""
    facts = build_facts(inputs.workload, NetworkCondition.WIFI_RELAY, result.dpi, result.verdicts)
    # Labels only, and extraction counters that legitimately differ
    # between the fast path and the sweep.
    for key in ("app", "network", "dpi_stats"):
        del facts[key]
    accounting = None
    filtered = result.filter_result
    if filtered is not None:
        accounting = {
            name: asdict(getattr(filtered, name))
            for name in ("raw", "stage1_removed", "stage2_removed", "kept")
        }
        accounting["stage2_by_heuristic"] = {
            name: asdict(counts)
            for name, counts in sorted(filtered.stage2_by_heuristic().items())
        }
    return {
        "digest": facts_digest(facts),
        "verdicts": len(result.verdicts),
        "by_class": facts["class_counts"],
        "filter": accounting,
    }


def reference(inputs: Inputs, source_key: str) -> Dict[str, object]:
    """The sweep oracle's facts for *inputs*, computed once per program
    source (*source_key*) and cached beside the captures."""
    path = inputs.directory / f"reference-{source_key}.json"
    if path.is_file():
        return json.loads(path.read_text())
    outcome = run_pass(inputs, new_session(inputs, sweep_engine()))
    facts = output_facts(inputs, outcome.result)
    staging = path.with_name(f".{path.name}.{os.getpid()}")
    staging.write_text(json.dumps(facts))
    os.replace(staging, path)
    return facts


def gate(inputs: Inputs, facts: Dict[str, object], expected: Dict[str, object]) -> List[str]:
    """Every way a pass's output differs from the oracle's; empty if none."""
    problems = []
    if facts != expected:
        differing = sorted(key for key in expected if facts.get(key) != expected[key])
        problems.append(f"output differs from the sweep oracle in {', '.join(differing)}")
    if inputs.workload == "udp-blocked-call":
        if facts["verdicts"]:
            problems.append(f"{facts['verdicts']} verdicts where media rides TCP; expected none")
    elif not facts["verdicts"]:
        problems.append("no verdicts, so the oracle gate checks nothing")
    return problems
