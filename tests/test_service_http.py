"""Daemon-layer tests: ingest plumbing, HTTP/SSE surface, stats schema.

The end-to-end test drives a real ``ThreadingHTTPServer`` bound to an
ephemeral port — the same wiring ``rtc-compliance serve`` uses — and
pins the service's core guarantee: the SSE verdict stream for a replayed
cell is bit-identical to the batch pipeline over the same records.
"""

import http.client
import json
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.apps import NetworkCondition
from repro.conformance.golden import CorpusConfig, cell_records
from repro.core.metrics import ComplianceSummary
from repro.experiments.runner import ExperimentConfig, run_cell_pipeline
from repro.packets.batch import DEFAULT_CHUNK_SIZE
from repro.packets.pcap import read_pcap, write_pcap
from repro.pipeline import StageStats
from repro.service.http import (
    ComplianceService,
    EventStream,
    ServiceError,
    make_server,
)
from repro.service.ingest import (
    BoundedQueue,
    PcapDirectoryWatcher,
    ReplaySource,
    produce,
    pump,
)

# ---------------------------------------------------------------------------
# StageStats wire schema (satellite: one serializer for every consumer)
# ---------------------------------------------------------------------------

STATS_KEYS = [
    "name",
    "records_in",
    "records_out",
    "wall_seconds",
    "peak_buffered",
    "chunks",
]


def test_stage_stats_to_json_schema_is_stable():
    stat = StageStats(
        name="dpi", records_in=10, records_out=8, wall_seconds=0.5,
        peak_buffered=4, chunks=2,
    )
    payload = stat.to_json()
    assert list(payload) == STATS_KEYS
    assert payload == {
        "name": "dpi", "records_in": 10, "records_out": 8,
        "wall_seconds": 0.5, "peak_buffered": 4, "chunks": 2,
    }
    assert json.loads(json.dumps(payload)) == payload


def test_stage_stats_snapshot_is_detached():
    stat = StageStats(name="check", records_in=5)
    copy = stat.snapshot()
    copy.records_in = 99
    copy.peak_buffered = 99
    assert stat.records_in == 5
    assert stat.peak_buffered == 0
    assert copy.to_json()["records_in"] == 99


# ---------------------------------------------------------------------------
# Ingest: bounded queue, replay source, pcap directory watcher
# ---------------------------------------------------------------------------

_RECORDS = cell_records("meet", NetworkCondition.WIFI_RELAY, CorpusConfig())


def test_bounded_queue_block_policy_applies_backpressure():
    queue = BoundedQueue(maxsize=2, policy="block")
    assert queue.put([1]) and queue.put([2])
    unblocked = threading.Event()

    def producer():
        queue.put([3])  # must wait: queue is full
        unblocked.set()

    thread = threading.Thread(target=producer)
    thread.start()
    assert not unblocked.wait(timeout=0.2), "put did not block on a full queue"
    assert queue.get() == [1]
    assert unblocked.wait(timeout=2.0), "put never unblocked after a get"
    thread.join()
    assert queue.counters.puts == 3
    assert queue.counters.blocked >= 1
    assert queue.counters.drops == 0


def test_bounded_queue_drop_oldest_sheds_and_counts():
    queue = BoundedQueue(maxsize=2, policy="drop_oldest")
    for batch in ([1], [2], [3]):
        assert queue.put(batch)
    assert len(queue) == 2
    assert queue.counters.drops == 1
    assert queue.counters.puts == 3
    assert queue.get() == [2]  # the oldest batch [1] was shed
    assert queue.get() == [3]
    assert queue.counters.to_json() == {"puts": 3, "drops": 1, "blocked": 0}


def test_bounded_queue_close_semantics():
    queue = BoundedQueue(maxsize=4)
    queue.put([1])
    queue.close()
    assert not queue.put([2]), "put after close must be refused"
    assert queue.get() == [1], "queued batches stay readable after close"
    assert queue.get() is None, "drained+closed queue returns None"
    # A blocked producer wakes (and fails) when the queue closes.
    full = BoundedQueue(maxsize=1)
    full.put([1])
    results = []
    thread = threading.Thread(target=lambda: results.append(full.put([2])))
    thread.start()
    time.sleep(0.05)
    full.close()
    thread.join(timeout=2.0)
    assert results == [False]


def test_bounded_queue_rejects_bad_config():
    with pytest.raises(ValueError):
        BoundedQueue(maxsize=0)
    with pytest.raises(ValueError):
        BoundedQueue(policy="drop_newest")


def test_replay_source_afap_preserves_records():
    source = ReplaySource(_RECORDS)
    batches = list(source)
    assert all(len(b) <= DEFAULT_CHUNK_SIZE for b in batches)
    assert [r for batch in batches for r in batch] == _RECORDS


def test_replay_source_clock_pacing_preserves_records():
    # 1000x speed: an 8 s capture replays in well under a second while
    # still going through the sleep-until-due path.
    source = ReplaySource(_RECORDS, pace="clock", speed=1000.0)
    start = time.monotonic()
    batches = list(source)
    assert [r for batch in batches for r in batch] == _RECORDS
    assert time.monotonic() - start < 5.0


def test_replay_source_rejects_bad_config():
    with pytest.raises(ValueError):
        ReplaySource([], pace="realtime")
    with pytest.raises(ValueError):
        ReplaySource([], speed=0.0)


def test_produce_pump_roundtrip():
    queue = BoundedQueue(maxsize=4)
    fed = []
    producer = threading.Thread(
        target=produce, args=(ReplaySource(_RECORDS), queue)
    )
    producer.start()
    count = pump(queue, fed.extend, poll_timeout=0.05)
    producer.join()
    assert count == len(_RECORDS)
    assert fed == _RECORDS
    assert queue.closed


def test_pcap_directory_watcher_picks_up_stable_files(tmp_path):
    udp = [r for r in _RECORDS if r.transport == "UDP"]
    write_pcap(tmp_path / "rotate-000.pcap", udp[:100])
    write_pcap(tmp_path / "rotate-001.pcap", udp[100:200])
    (tmp_path / "ignored.txt").write_text("not a capture")
    watcher = PcapDirectoryWatcher(
        str(tmp_path), poll_interval=0.01, drain_once=True
    )
    records = [r for batch in watcher for r in batch]
    expected = read_pcap(tmp_path / "rotate-000.pcap") + read_pcap(
        tmp_path / "rotate-001.pcap"
    )
    assert len(records) == 200
    assert [r.payload for r in records] == [r.payload for r in expected]


# ---------------------------------------------------------------------------
# Service registry (HTTP-free): lifecycle, errors, shutdown
# ---------------------------------------------------------------------------


def _wait_closed(service, session_id, timeout=30.0):
    handle = service.get(session_id)
    assert handle.done.wait(timeout=timeout), "session never closed"
    return handle


def test_service_rejects_bad_specs(monkeypatch):
    """Every refused spec is refused before the replay call is synthesized."""
    from repro.service import http

    synthesized = []
    real_get_simulator = http.get_simulator

    class RecordingSimulator:
        def __init__(self, app):
            self._simulator = real_get_simulator(app)

        def iter_records(self, config):
            synthesized.append(config)
            return self._simulator.iter_records(config)

    monkeypatch.setattr(http, "get_simulator", RecordingSimulator)
    service = ComplianceService()
    for spec, fragment in [
        ({"app": "not-an-app"}, "bad session spec"),
        ({"network": "wifi_relay"}, "need an 'app'"),
        ({"app": "meet", "network": "dialup"}, "bad session spec"),
        ({"source": "carrier-pigeon"}, "unknown source"),
        ({"source": {"kind": "pcap_dir"}}, "need a 'directory'"),
        ({"app": "meet", "eviction": "sometimes"}, "bad session spec"),
        ({"app": "meet", "chunk_size": 64, "batch": 8},
         "unknown spec keys: batch, chunk_size"),
        ({"app": "meet", "pace": "realtime"}, "unknown pace"),
        ({"app": "meet", "speed": -2.0}, "speed must be positive"),
        ({"app": "meet", "queue": {"max_size": 2}}, "unknown queue keys: max_size"),
        ({"app": "meet", "eviction": {"mode": "idle", "idlegap": 0.1}},
         "unknown eviction keys: idlegap"),
        ({"source": {"kind": "pcap_dir", "directory": "x", "poll": 1}},
         "unknown source keys: poll"),
        ({"app": "meet", "queue": 5}, "'queue' must be an object"),
        ({"app": "meet", "queue": None}, "'queue' must be an object"),
        ({"app": "meet", "eviction": 5}, "'eviction' must be a string or an object"),
        ({"app": "meet", "source": 5}, "'source' must be a string or an object"),
    ]:
        with pytest.raises(ServiceError) as excinfo:
            service.create_session(spec)
        assert excinfo.value.status == 400
        assert fragment in str(excinfo.value)
    assert synthesized == []
    assert service.list_sessions() == []
    # The recorder does see the synthesis of an accepted spec.
    created = service.create_session(
        {"app": "meet", "duration": 2.0, "scale": 0.2}
    )
    assert len(synthesized) == 1
    service.delete_session(created["id"])


def test_service_shutdown_drains_and_refuses_new_sessions():
    service = ComplianceService()
    created = service.create_session(
        {"app": "meet", "network": "wifi_relay", "duration": 2.0,
         "scale": 0.2, "seed": 1}
    )
    service.shutdown()
    handle = service.get(created["id"])
    assert handle.state == "closed"
    assert service.health()["status"] == "shutting-down"
    with pytest.raises(Exception) as excinfo:
        service.create_session({"app": "meet"})
    assert "shutting down" in str(excinfo.value)


def test_service_defaults_merge_under_spec():
    service = ComplianceService(defaults={"impairment": "none", "seed": 7})
    created = service.create_session(
        {"app": "meet", "network": "wifi_relay", "duration": 2.0, "scale": 0.2}
    )
    handle = _wait_closed(service, created["id"])
    assert handle.spec["seed"] == 7
    assert handle.spec["impairment"] == "none"


def test_service_pcap_dir_session(tmp_path):
    udp = [r for r in _RECORDS if r.transport == "UDP"]
    write_pcap(tmp_path / "capture-000.pcap", udp)
    expected = len(read_pcap(tmp_path / "capture-000.pcap"))
    service = ComplianceService()
    created = service.create_session(
        {
            "source": {
                "kind": "pcap_dir",
                "directory": str(tmp_path),
                "poll_interval": 0.02,
            },
        }
    )
    handle = service.get(created["id"])
    deadline = time.monotonic() + 20.0
    while time.monotonic() < deadline:
        if handle.session.records_fed >= expected:
            break
        time.sleep(0.05)
    payload = service.delete_session(created["id"])
    assert payload["state"] == "closed"
    assert handle.session.records_fed == expected
    assert handle.result is not None and handle.result.verdicts
    assert handle.result.filter_result is None
    assert handle.session._eviction.mode == "idle"


def test_pcap_dir_session_ends_with_error_when_directory_goes(tmp_path):
    """A watched directory deleted after the session starts ends the
    session with an error naming the path, instead of a session that
    polls an unlistable directory forever."""
    directory = tmp_path / "captures"
    directory.mkdir()
    service = ComplianceService()
    created = service.create_session(
        {"source": {"kind": "pcap_dir", "directory": str(directory),
                    "poll_interval": 0.05}}
    )
    directory.rmdir()
    handle = service.get(created["id"])
    assert handle.done.wait(timeout=1.0), "session still running"
    assert handle.state == "closed"
    assert str(directory) in handle.error
    assert str(directory) in handle.stats_json()["error"]
    assert str(directory) in service.delete_session(created["id"])["error"]


def test_failed_pcap_dir_session_still_streams_its_verdicts(tmp_path):
    """A session whose directory goes after one capture was analysed
    streams that capture's verdicts and summary, then the error, then
    ``end``; its close payload reports both."""
    directory = tmp_path / "captures"
    directory.mkdir()
    capture = directory / "capture-000.pcap"
    write_pcap(capture, [r for r in _RECORDS if r.transport == "UDP"])
    expected = len(read_pcap(capture))
    service = ComplianceService()
    created = service.create_session(
        {"source": {"kind": "pcap_dir", "directory": str(directory),
                    "poll_interval": 0.05}}
    )
    handle = service.get(created["id"])
    deadline = time.monotonic() + 20.0
    while handle.session.records_fed < expected:
        assert time.monotonic() < deadline, "capture never analysed"
        time.sleep(0.02)
    capture.unlink()
    directory.rmdir()
    assert handle.done.wait(timeout=5.0), "session still running"
    assert str(directory) in handle.error
    verdicts = handle.result.verdicts
    assert verdicts

    frames = [
        frame.decode("utf-8").split("\n")[:2]
        for frame in service.events(created["id"], snapshot_interval=0.05)
    ]
    events = [
        (event[len("event: "):], json.loads(data[len("data: "):]))
        for event, data in frames
    ]
    names = [name for name, _ in events if name != "snapshot"]
    assert names == ["verdict"] * len(verdicts) + ["summary", "error", "end"]
    streamed = [data for name, data in events if name == "verdict"]
    assert streamed == [
        {
            "index": index,
            "timestamp": v.message.timestamp,
            "protocol": v.message.type_key()[0],
            "type": v.message.type_key()[1],
            "compliant": v.compliant,
            "violations": [
                [int(criterion), code] for criterion, code in v.violation_keys()
            ],
        }
        for index, v in enumerate(verdicts)
    ]
    assert str(directory) in dict(events)["error"]["error"]
    closed = service.close_session(created["id"])
    assert str(directory) in closed["error"]
    assert closed["verdicts"] == len(verdicts)


def test_watcher_raises_when_directory_goes(tmp_path):
    directory = tmp_path / "captures"
    directory.mkdir()
    watcher = PcapDirectoryWatcher(
        str(directory), poll_interval=0.05, drain_once=True
    )
    directory.rmdir()
    with pytest.raises(FileNotFoundError, match="captures"):
        next(iter(watcher))


def test_produce_reports_source_errors_before_closing():
    """``on_error`` sees a failing source's exception before the queue
    closes; without it the exception propagates."""

    def failing():
        yield _RECORDS[:2]
        raise OSError("source went away")

    seen = []
    queue = BoundedQueue(maxsize=4)
    produce(failing(), queue,
            on_error=lambda exc: seen.append((str(exc), queue.closed)))
    assert seen == [("source went away", False)]
    assert queue.closed and queue.get(timeout=0.1) == _RECORDS[:2]
    with pytest.raises(OSError, match="went away"):
        produce(failing(), BoundedQueue(maxsize=4))


def test_event_stream_frame_format():
    frame = EventStream.frame("verdict", {"index": 0}).decode("utf-8")
    assert frame == 'event: verdict\ndata: {"index": 0}\n\n'


# ---------------------------------------------------------------------------
# HTTP end-to-end over a real server on an ephemeral port
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def daemon():
    server = make_server("127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


def _get(base, path):
    with urllib.request.urlopen(base + path, timeout=30) as response:
        return response.status, json.loads(response.read())


def _post(base, path, payload):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def _delete(base, path):
    request = urllib.request.Request(base + path, method="DELETE")
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def _read_sse(base, path, timeout=120):
    events = []
    event_name = None
    with urllib.request.urlopen(base + path, timeout=timeout) as response:
        for raw in response:
            line = raw.decode("utf-8").rstrip("\r\n")
            if line.startswith("event: "):
                event_name = line[len("event: "):]
            elif line.startswith("data: "):
                events.append((event_name, json.loads(line[len("data: "):])))
                if event_name == "end":
                    break
    return events


def test_healthz(daemon):
    status, payload = _get(daemon, "/healthz")
    assert status == 200
    assert payload["status"] == "ok"
    assert set(payload["sessions"]) == {"running", "closed"}


def test_http_errors(daemon):
    for method, path in [
        (_get, "/sessions/nope/stats"),
        (_get, "/sessions/nope/events"),
        (_get, "/no/such/route"),
    ]:
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            method(daemon, path)
        assert excinfo.value.code == 404
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(daemon, "/sessions", {"app": "not-an-app"})
    assert excinfo.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _delete(daemon, "/sessions/nope")
    assert excinfo.value.code == 404


_NAN = float("nan")


@pytest.mark.parametrize("eviction, poll_interval", [
    ({"mode": "idle", "idle_gap": _NAN}, 0.5),
    ({"mode": "idle", "sweep_interval": _NAN}, 0.5),
    ({"mode": "idle", "idle_gap": float("inf")}, 0.5),
    ("idle", 0),
    ("idle", -1),
    ("idle", _NAN),
], ids=["nan-idle-gap", "nan-sweep-interval", "inf-idle-gap",
        "zero-poll", "negative-poll", "nan-poll"])
def test_unusable_pcap_dir_timings_are_refused(
    daemon, tmp_path, eviction, poll_interval
):
    """A non-finite or non-positive timing gets 400, not a session whose
    idle eviction is silently off or whose watcher spins on listdir.
    (``json.dumps`` sends NaN as the ``NaN`` literal, which the daemon's
    ``json.loads`` accepts.)"""
    spec = {
        "source": {"kind": "pcap_dir", "directory": str(tmp_path),
                   "poll_interval": poll_interval},
        "eviction": eviction,
    }
    try:
        _status, payload = _post(daemon, "/sessions", spec)
    except urllib.error.HTTPError as exc:
        assert exc.code == 400
        assert "must be positive and finite" in json.loads(exc.read())["error"]
    else:
        _delete(daemon, f"/sessions/{payload['id']}")
        pytest.fail(f"session spec accepted: {spec!r}")


def test_missing_pcap_dir_is_refused(daemon, tmp_path):
    """A ``pcap_dir`` source on a directory that does not exist gets a 400
    naming the path, not a session that polls an empty answer forever;
    so does a path that names a file."""
    missing = tmp_path / "no-such-dir"
    not_a_dir = tmp_path / "capture.pcap"
    not_a_dir.write_bytes(b"")
    for path in (missing, not_a_dir):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(daemon, "/sessions",
                  {"source": {"kind": "pcap_dir", "directory": str(path)}})
        assert excinfo.value.code == 400
        assert str(path) in json.loads(excinfo.value.read())["error"]
    status, listing = _get(daemon, "/sessions")
    assert status == 200
    assert not any(str(tmp_path) in s["app"] for s in listing["sessions"])
    with pytest.raises(ValueError, match="not an existing directory"):
        PcapDirectoryWatcher(str(missing))


@pytest.mark.parametrize("spec", [
    {"app": "zoom", "scale": 0},
    {"app": "zoom", "eviction": "deadline"},
    {"app": "zoom", "chunk_size": 0},
    {"app": "zoom", "chunk_size": -1},
], ids=["zero-scale", "deadline-eviction", "zero-chunk", "negative-chunk"])
def test_unusable_replay_spec_is_refused(daemon, spec):
    """A zero media scale (which synthesis would divide by), an unknown
    eviction mode and the retired ``chunk_size`` key get 400, not a
    dropped connection, a session that never ends or a silently ignored
    setting."""
    try:
        _status, payload = _post(daemon, "/sessions", spec)
    except urllib.error.HTTPError as exc:
        assert exc.code == 400
        assert "bad session spec" in json.loads(exc.read())["error"]
    else:
        _delete(daemon, f"/sessions/{payload['id']}")
        pytest.fail(f"session spec accepted: {spec!r}")


def test_nan_replay_speed_is_refused(daemon):
    """A NaN replay speed gets 400, not a clock-paced session that never
    waits."""
    spec = {"app": "meet", "duration": 2.0, "scale": 0.2,
            "pace": "clock", "speed": _NAN}
    try:
        _status, payload = _post(daemon, "/sessions", spec)
    except urllib.error.HTTPError as exc:
        assert exc.code == 400
        assert "must be positive and finite" in json.loads(exc.read())["error"]
    else:
        _delete(daemon, f"/sessions/{payload['id']}")
        pytest.fail(f"session spec accepted: {spec!r}")


@pytest.mark.parametrize(
    "content_length, status",
    [("abc", 400), ("-1", 400), (str(1_000_000_000), 413)],
)
def test_untrusted_content_length_is_refused(daemon, content_length, status):
    """A bad or oversized Content-Length gets an answer, not a hung handler."""
    url = urllib.parse.urlsplit(daemon)
    connection = http.client.HTTPConnection(url.hostname, url.port, timeout=1.0)
    try:
        connection.putrequest("POST", "/sessions")
        connection.putheader("Content-Type", "application/json")
        connection.putheader("Content-Length", content_length)
        connection.endheaders()
        response = connection.getresponse()
        assert response.status == status
        assert "error" in json.loads(response.read())
        assert response.getheader("Connection") == "close"
    finally:
        connection.close()


def test_sse_verdict_stream_matches_batch(daemon):
    """The acceptance criterion: SSE verdicts == batch verdicts, in order."""
    spec = {
        "app": "meet",
        "network": "wifi_relay",
        "duration": 4.0,
        "scale": 0.3,
        "seed": 3,
    }
    batch = run_cell_pipeline(
        "meet",
        NetworkCondition.WIFI_RELAY,
        ExperimentConfig(call_duration=4.0, media_scale=0.3, seed=3),
    )

    status, created = _post(daemon, "/sessions", spec)
    assert status == 201 and created["state"] == "running"
    session_id = created["id"]

    events = _read_sse(daemon, f"/sessions/{session_id}/events")
    kinds = [name for name, _ in events]
    assert kinds[0] == "snapshot"
    assert kinds[-1] == "end"
    assert "summary" in kinds

    verdict_events = [data for name, data in events if name == "verdict"]
    assert [e["index"] for e in verdict_events] == list(
        range(len(batch.verdicts))
    )
    expected = [
        {
            "timestamp": v.message.timestamp,
            "protocol": v.message.type_key()[0],
            "type": v.message.type_key()[1],
            "compliant": v.compliant,
            "violations": [
                [int(criterion), code] for criterion, code in v.violation_keys()
            ],
        }
        for v in batch.verdicts
    ]
    streamed = [
        {k: e[k] for k in
         ("timestamp", "protocol", "type", "compliant", "violations")}
        for e in verdict_events
    ]
    assert streamed == expected

    summary = next(data for name, data in events if name == "summary")
    batch_summary = ComplianceSummary.from_verdicts("meet", batch.verdicts)
    assert summary["volume"]["total"] == batch_summary.volume.total
    assert summary["volume"]["compliant"] == batch_summary.volume.compliant

    status, stats = _get(daemon, f"/sessions/{session_id}/stats")
    assert status == 200
    assert stats["closed"] is True
    assert stats["verdicts_ready"] == len(batch.verdicts)
    assert [s["name"] for s in stats["stages"]] == ["filter", "dpi", "check"]
    for stage in stats["stages"]:
        assert list(stage) == STATS_KEYS
    assert set(stats["queue"]) == {"puts", "drops", "blocked", "depth"}

    status, listed = _get(daemon, "/sessions")
    assert any(s["id"] == session_id for s in listed["sessions"])

    status, deleted = _delete(daemon, f"/sessions/{session_id}")
    assert status == 200
    assert deleted["deleted"] is True
    assert deleted["verdicts"] == len(batch.verdicts)

    status, payload = _get(daemon, "/healthz")
    assert status == 200 and payload["status"] == "ok"
