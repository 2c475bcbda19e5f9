"""Stdlib-only HTTP/SSE surface for the always-on compliance service.

No web framework: :class:`ComplianceService` owns the session registry
and ingest threads, and a :class:`http.server.ThreadingHTTPServer`
handler maps five routes onto it —

* ``GET  /healthz`` — liveness plus session counts.
* ``POST /sessions`` — create a session from a JSON spec (app, network,
  impairment, pacing, eviction, queue policy).
* ``DELETE /sessions/{id}`` — stop ingest, close, and forget a session.
* ``GET  /sessions/{id}/stats`` — session snapshot + queue counters
  (the :meth:`StageStats.to_json` schema, shared with
  ``rtc-compliance pipeline-stats --json``).
* ``GET  /sessions/{id}/events`` — Server-Sent Events: periodic
  ``snapshot`` events while the session feeds, then — once the source
  is exhausted and the session closes — every verdict as a ``verdict``
  event **in exact batch order**, a ``summary`` event, and ``end``.

Verdicts stream at close rather than live because two layers are
deliberately lazy: keep/drop decisions are provisional until the capture
ends and STUN verdicts need whole-session context (see
:mod:`repro.service.session`).  What the service guarantees instead is
the strongest thing it can: the SSE verdict sequence is bit-identical to
the batch run over the same records.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple

from repro.apps import NetworkCondition, get_simulator
from repro.core.metrics import ComplianceSummary
from repro.service.ingest import (
    BoundedQueue,
    PcapDirectoryWatcher,
    ReplaySource,
    check_pacing,
    produce,
    pump,
)
from repro.service.session import AnalysisSession, EvictionPolicy, SessionResult


#: Largest request body the daemon will read.  A session spec is a small
#: JSON object; anything bigger is refused with 413 before it is buffered.
MAX_REQUEST_BODY = 64 * 1024

#: Every key a ``POST /sessions`` spec may name; any other is refused.
SPEC_KEYS = frozenset({
    "source", "app", "network", "impairment", "duration", "scale", "seed",
    "pace", "speed", "eviction", "queue",
})
#: Every key the object form of a nested spec value may name.
NESTED_SPEC_KEYS = {
    "queue": frozenset({"maxsize", "policy"}),
    "eviction": frozenset({"mode", "idle_gap", "sweep_interval"}),
    "source": frozenset({"kind", "directory", "poll_interval"}),
}


class ServiceError(ValueError):
    """A request the service understands but must refuse (HTTP 4xx)."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def _summary_json(summary: ComplianceSummary) -> Dict[str, object]:
    return {
        "app": summary.app,
        "volume": {
            "compliant": summary.volume.compliant,
            "total": summary.volume.total,
        },
        "volume_by_protocol": {
            protocol: {"compliant": vol.compliant, "total": vol.total}
            for protocol, vol in summary.volume_by_protocol.items()
        },
        "types": [
            {
                "protocol": entry.protocol,
                "type": entry.type_label,
                "total": entry.total,
                "non_compliant": entry.non_compliant,
            }
            for entry in summary.types.values()
        ],
    }


class ServiceSession:
    """One daemon-managed session: analysis + ingest threads + lifecycle.

    ``state`` moves ``running`` → ``closed`` exactly once, under
    ``lock``; ``done`` is set afterwards so SSE streams and shutdown can
    wait without polling the registry.
    """

    def __init__(
        self,
        session_id: str,
        spec: Dict[str, object],
        session: AnalysisSession,
        queue: BoundedQueue,
        app: str,
    ):
        self.id = session_id
        self.spec = spec
        self.session = session
        self.queue = queue
        self.app = app
        self.created = time.time()
        self.state = "running"
        self.error: Optional[str] = None
        self.result: Optional[SessionResult] = None
        self.lock = threading.Lock()
        self.done = threading.Event()
        self.stop = threading.Event()
        self.threads: List[threading.Thread] = []

    def finish(self) -> None:
        """Close the analysis session once and publish the result."""
        with self.lock:
            if self.state == "closed":
                return
            try:
                self.result = self.session.close()
            except Exception as exc:  # pragma: no cover - defensive
                self.error = f"{type(exc).__name__}: {exc}"
            self.state = "closed"
        self.done.set()

    def stats_json(self) -> Dict[str, object]:
        snapshot = self.session.snapshot()
        payload = snapshot.to_json()
        payload["id"] = self.id
        payload["state"] = self.state
        payload["queue"] = dict(
            self.queue.counters.to_json(), depth=len(self.queue)
        )
        if self.error:
            payload["error"] = self.error
        return payload


class ComplianceService:
    """Session registry + ingest orchestration behind the HTTP surface.

    Deliberately HTTP-free so tests (and future surfaces) can drive it
    directly: every route handler is a thin call into this class.
    """

    def __init__(self, defaults: Optional[Dict[str, object]] = None):
        #: Per-session spec defaults (the serve CLI's execution flags);
        #: a POSTed spec only overrides the keys it names.
        self._defaults = dict(defaults or {})
        self._sessions: Dict[str, ServiceSession] = {}
        self._lock = threading.Lock()
        self._started = time.time()
        self._shutting_down = False

    # -- registry ----------------------------------------------------

    def health(self) -> Dict[str, object]:
        with self._lock:
            sessions = list(self._sessions.values())
        return {
            "status": "shutting-down" if self._shutting_down else "ok",
            "uptime_seconds": time.time() - self._started,
            "sessions": {
                "running": sum(1 for s in sessions if s.state == "running"),
                "closed": sum(1 for s in sessions if s.state == "closed"),
            },
        }

    def get(self, session_id: str) -> ServiceSession:
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise ServiceError(404, f"no such session: {session_id}")
        return session

    def list_sessions(self) -> List[Dict[str, object]]:
        with self._lock:
            sessions = list(self._sessions.values())
        return [
            {"id": s.id, "state": s.state, "app": s.app, "spec": s.spec}
            for s in sessions
        ]

    # -- lifecycle ---------------------------------------------------

    def create_session(self, spec: Dict[str, object]) -> Dict[str, object]:
        """Create a session from a JSON spec and start its ingest threads.

        Spec keys (all optional unless noted): ``source`` (``"replay"``,
        the default, needs ``app``; or ``{"kind": "pcap_dir",
        "directory": ...}``), ``network``, ``impairment``, ``duration``,
        ``scale``, ``seed``, ``pace`` (``"afap"``/``"clock"``),
        ``speed``, ``eviction`` (mode string or
        ``{"mode", "idle_gap", "sweep_interval"}``), ``queue``
        (``{"maxsize", "policy"}``).  Any other key, at the top level or
        inside one of those objects, is refused with 400, and so is a
        ``queue`` that is not an object; the whole spec is checked before
        a replay call is synthesized.
        """
        if self._shutting_down:
            raise ServiceError(503, "service is shutting down")
        spec = {**self._defaults, **spec}
        try:
            handle = self._build_session(spec)
        except (ValueError, KeyError, TypeError) as exc:
            if isinstance(exc, ServiceError):
                raise
            raise ServiceError(400, f"bad session spec: {exc}") from exc
        with self._lock:
            self._sessions[handle.id] = handle
        for thread in handle.threads:
            thread.start()
        return {"id": handle.id, "state": handle.state}

    def _build_session(self, spec: Dict[str, object]) -> ServiceSession:
        unknown = sorted(set(spec) - SPEC_KEYS)
        if unknown:
            raise ValueError(f"unknown spec keys: {', '.join(unknown)}")
        for name, allowed in NESTED_SPEC_KEYS.items():
            if name not in spec:
                continue
            value = spec[name]
            if isinstance(value, dict):
                unknown = sorted(map(str, set(value) - allowed))
                if unknown:
                    raise ValueError(f"unknown {name} keys: {', '.join(unknown)}")
            elif name == "queue":
                raise ValueError("'queue' must be an object")
            elif not isinstance(value, str):
                raise ValueError(f"{name!r} must be a string or an object")
        eviction_spec = spec.get("eviction", "idle")
        if isinstance(eviction_spec, str):
            eviction = EvictionPolicy(mode=eviction_spec)
        else:
            eviction = EvictionPolicy(
                mode=eviction_spec.get("mode", "idle"),
                idle_gap=eviction_spec.get("idle_gap", 5.0),
                sweep_interval=eviction_spec.get("sweep_interval", 1.0),
            )
        queue_spec = spec.get("queue", {})
        queue = BoundedQueue(
            maxsize=int(queue_spec.get("maxsize", 64)),
            policy=queue_spec.get("policy", "block"),
        )
        source_spec = spec.get("source", "replay")

        session_id = uuid.uuid4().hex[:12]
        if source_spec == "replay" or (
            isinstance(source_spec, dict) and source_spec.get("kind") == "replay"
        ):
            app = spec.get("app")
            if not app:
                raise ServiceError(400, "replay sessions need an 'app'")
            from repro.apps import CallConfig

            simulator = get_simulator(app)
            network = NetworkCondition(spec.get("network", "wifi_relay"))
            call_config = CallConfig(
                network=network,
                seed=int(spec.get("seed", 0)),
                call_duration=float(spec.get("duration", 8.0)),
                media_scale=float(spec.get("scale", 0.3)),
                impairment=spec.get("impairment", "none"),
            )
            pace = spec.get("pace", "afap")
            speed = float(spec.get("speed", 1.0))
            check_pacing(pace, speed)
            # Synthesis is the costly step, so it runs last.
            source = ReplaySource(
                simulator.iter_records(call_config), pace=pace, speed=speed
            )
            session = AnalysisSession(
                window=call_config.window(), eviction=eviction
            )
            handle = ServiceSession(session_id, spec, session, queue, app=app)
        elif isinstance(source_spec, dict) and source_spec.get("kind") == "pcap_dir":
            directory = source_spec.get("directory")
            if not directory:
                raise ServiceError(400, "pcap_dir sessions need a 'directory'")
            handle_stop = threading.Event()
            source = PcapDirectoryWatcher(
                str(directory),
                poll_interval=float(source_spec.get("poll_interval", 0.5)),
                stop=handle_stop,
            )
            # No call window is known for arbitrary captures, so the
            # session runs filterless; idle eviction keeps live flow
            # state bounded.
            session = AnalysisSession(eviction=eviction)
            handle = ServiceSession(
                session_id, spec, session, queue, app=str(directory)
            )
            handle.stop = handle_stop
        else:
            raise ServiceError(400, f"unknown source: {source_spec!r}")

        def _record_error(exc: Exception) -> None:
            handle.error = f"{type(exc).__name__}: {exc}"

        # A source that fails (a watched directory deleted) records its
        # error and closes the queue, so the session ends with it.
        producer = threading.Thread(
            target=produce, args=(source, queue, _record_error),
            name=f"ingest-{session_id}", daemon=True,
        )

        def _feed_then_close() -> None:
            try:
                pump(queue, handle.session.feed)
            except Exception as exc:  # pragma: no cover - defensive
                _record_error(exc)
            handle.finish()

        feeder = threading.Thread(
            target=_feed_then_close, name=f"feed-{session_id}", daemon=True
        )
        handle.threads = [producer, feeder]
        return handle

    def close_session(self, session_id: str) -> Dict[str, object]:
        """Stop ingest, close the session, and report its final state."""
        handle = self.get(session_id)
        handle.stop.set()
        handle.queue.close()
        for thread in handle.threads:
            thread.join(timeout=10.0)
        handle.finish()
        payload: Dict[str, object] = {"id": handle.id, "state": handle.state}
        if handle.error:
            payload["error"] = handle.error
        if handle.result is not None:
            payload["verdicts"] = len(handle.result.verdicts)
        return payload

    def delete_session(self, session_id: str) -> Dict[str, object]:
        payload = self.close_session(session_id)
        with self._lock:
            self._sessions.pop(session_id, None)
        payload["deleted"] = True
        return payload

    def shutdown(self) -> None:
        """Drain every session: stop ingest, close, keep results readable."""
        self._shutting_down = True
        with self._lock:
            ids = list(self._sessions)
        for session_id in ids:
            try:
                self.close_session(session_id)
            except ServiceError:
                pass

    # -- SSE ---------------------------------------------------------

    def events(
        self, session_id: str, snapshot_interval: float = 0.5
    ) -> "EventStream":
        return EventStream(self.get(session_id), snapshot_interval)


class EventStream:
    """Iterator of SSE frames for one session's ``/events`` stream."""

    def __init__(self, handle: ServiceSession, snapshot_interval: float):
        self._handle = handle
        self._interval = snapshot_interval

    @staticmethod
    def frame(event: str, data: object) -> bytes:
        return (
            f"event: {event}\ndata: {json.dumps(data)}\n\n".encode("utf-8")
        )

    def __iter__(self):
        handle = self._handle
        while not handle.done.wait(timeout=self._interval):
            yield self.frame("snapshot", handle.stats_json())
        yield self.frame("snapshot", handle.stats_json())
        # A session that failed after analysing some input still streams
        # what it judged; the error follows its summary.
        result = handle.result
        if result is not None:
            for index, verdict in enumerate(result.verdicts):
                protocol, type_label = verdict.message.type_key()
                yield self.frame(
                    "verdict",
                    {
                        "index": index,
                        "timestamp": verdict.message.timestamp,
                        "protocol": protocol,
                        "type": type_label,
                        "compliant": verdict.compliant,
                        "violations": verdict.violation_keys(),
                    },
                )
            yield self.frame(
                "summary", _summary_json(result.summary(handle.app))
            )
        if handle.error or result is None:
            yield self.frame(
                "error", {"error": handle.error or "session produced no result"}
            )
        yield self.frame("end", {"id": handle.id})


class _Handler(BaseHTTPRequestHandler):
    """Route table over the service; one instance per request."""

    service: ComplianceService  # set by make_server
    protocol_version = "HTTP/1.1"

    # -- plumbing ----------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # quiet by default; the CLI prints its own lifecycle lines

    def _send_json(self, status: int, payload: object) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> Dict[str, object]:
        declared = self.headers.get("Content-Length") or "0"
        if not (declared.isascii() and declared.isdigit()):
            # The body is left unread, so the connection cannot be reused.
            self.close_connection = True
            raise ServiceError(400, f"invalid Content-Length: {declared!r}")
        length = int(declared)
        if length > MAX_REQUEST_BODY:
            self.close_connection = True
            raise ServiceError(
                413,
                f"request body of {length} bytes exceeds {MAX_REQUEST_BODY}",
            )
        if not length:
            return {}
        try:
            payload = json.loads(self.rfile.read(length) or b"{}")
        except json.JSONDecodeError as exc:
            raise ServiceError(400, f"invalid JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise ServiceError(400, "request body must be a JSON object")
        return payload

    def _route(self) -> Tuple[str, ...]:
        return tuple(part for part in self.path.split("?")[0].split("/") if part)

    # -- verbs -------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802
        try:
            route = self._route()
            if route == ("healthz",):
                self._send_json(200, self.service.health())
            elif route == ("sessions",):
                self._send_json(200, {"sessions": self.service.list_sessions()})
            elif len(route) == 3 and route[0] == "sessions" and route[2] == "stats":
                self._send_json(200, self.service.get(route[1]).stats_json())
            elif len(route) == 3 and route[0] == "sessions" and route[2] == "events":
                self._send_events(route[1])
            else:
                self._send_json(404, {"error": f"no such route: {self.path}"})
        except ServiceError as exc:
            self._send_json(exc.status, {"error": str(exc)})

    def do_POST(self) -> None:  # noqa: N802
        try:
            route = self._route()
            if route == ("sessions",):
                spec = self._read_json()
                self._send_json(201, self.service.create_session(spec))
            else:
                self._send_json(404, {"error": f"no such route: {self.path}"})
        except ServiceError as exc:
            self._send_json(exc.status, {"error": str(exc)})

    def do_DELETE(self) -> None:  # noqa: N802
        try:
            route = self._route()
            if len(route) == 2 and route[0] == "sessions":
                self._send_json(200, self.service.delete_session(route[1]))
            else:
                self._send_json(404, {"error": f"no such route: {self.path}"})
        except ServiceError as exc:
            self._send_json(exc.status, {"error": str(exc)})

    def _send_events(self, session_id: str) -> None:
        stream = self.service.events(session_id)
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        try:
            for frame in stream:
                self.wfile.write(frame)
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-stream
        self.close_connection = True


def make_server(
    host: str, port: int, service: Optional[ComplianceService] = None
) -> ThreadingHTTPServer:
    """Bind a threading HTTP server wired to *service* (a fresh one if
    omitted); the caller owns ``serve_forever``/``shutdown``."""
    if service is None:
        service = ComplianceService()
    handler = type("BoundHandler", (_Handler,), {"service": service})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    server.service = service  # type: ignore[attr-defined]
    return server
