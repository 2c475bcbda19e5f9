"""Ingest layer for the always-on service: sources → bounded queue → session.

Two pluggable record sources — :class:`ReplaySource` (feed a synthesized
cell back through the pipeline, clock-paced or as fast as possible) and
:class:`PcapDirectoryWatcher` (tail a directory that a rotating capture
process drops ``.pcap`` files into) — push record batches of at most
:data:`~repro.packets.batch.DEFAULT_CHUNK_SIZE` records into a
:class:`BoundedQueue`, and :func:`pump` moves batches from the queue into
an :class:`~repro.service.session.AnalysisSession` until the source is
exhausted.

The queue is where ingest policy lives.  A capture feed does not slow
down because analysis is behind, so the queue is explicitly bounded and
the overflow behavior is a named choice: ``"block"`` (apply backpressure
to the producer — right for replay, where the producer *can* wait) or
``"drop_oldest"`` (shed the oldest batch — right for live capture,
where falling behind must cost data, not memory).  Both paths count what
they did (``puts``/``drops``/``blocked``) so an operator can see
shedding happen instead of guessing.
"""

from __future__ import annotations

import math
import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Iterable, Iterator, List, Optional, Sequence

from repro.packets.batch import DEFAULT_CHUNK_SIZE, iter_capture_chunks
from repro.packets.packet import PacketRecord


@dataclass
class QueueCounters:
    """What the queue did, for the ``/stats`` endpoint and tests."""

    puts: int = 0
    drops: int = 0
    #: ``put`` calls that had to wait for space (block policy only).
    blocked: int = 0

    def to_json(self) -> dict:
        return {"puts": self.puts, "drops": self.drops, "blocked": self.blocked}


class BoundedQueue:
    """Thread-safe bounded batch queue with an explicit overflow policy.

    ``policy="block"`` makes :meth:`put` wait for space; ``"drop_oldest"``
    makes it evict the oldest queued batch instead.  :meth:`close` wakes
    every waiter; :meth:`get` returns ``None`` once the queue is closed
    and drained.
    """

    def __init__(self, maxsize: int = 64, policy: str = "block"):
        if maxsize < 1:
            raise ValueError("maxsize must be a positive integer")
        if policy not in ("block", "drop_oldest"):
            raise ValueError(f"unknown backpressure policy: {policy!r}")
        self._maxsize = maxsize
        self._policy = policy
        self._batches: Deque[List[PacketRecord]] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._closed = False
        self.counters = QueueCounters()

    @property
    def policy(self) -> str:
        return self._policy

    @property
    def closed(self) -> bool:
        return self._closed

    def __len__(self) -> int:
        with self._lock:
            return len(self._batches)

    def put(self, batch: Sequence[PacketRecord]) -> bool:
        """Enqueue one batch; returns False if the queue is closed.

        Under ``"block"`` this waits for space (backpressure reaches the
        producer); under ``"drop_oldest"`` it never waits — when full,
        the oldest queued batch is shed and counted.
        """
        batch = list(batch)
        with self._lock:
            if self._closed:
                return False
            if self._policy == "block":
                while len(self._batches) >= self._maxsize and not self._closed:
                    self.counters.blocked += 1
                    self._not_full.wait()
                if self._closed:
                    return False
            elif len(self._batches) >= self._maxsize:
                self._batches.popleft()
                self.counters.drops += 1
            self._batches.append(batch)
            self.counters.puts += 1
            self._not_empty.notify()
            return True

    def get(self, timeout: Optional[float] = None) -> Optional[List[PacketRecord]]:
        """Dequeue one batch; ``None`` when closed-and-empty or timed out."""
        with self._lock:
            if not self._batches:
                if self._closed:
                    return None
                self._not_empty.wait(timeout)
                if not self._batches:
                    return None
            batch = self._batches.popleft()
            self._not_full.notify()
            return batch

    def close(self) -> None:
        """No more puts; queued batches remain readable until drained."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()


def check_pacing(pace: str, speed: float) -> None:
    """Raise ``ValueError`` unless *pace* and *speed* can drive a replay."""
    if pace not in ("afap", "clock"):
        raise ValueError(f"unknown pace: {pace!r}")
    if not (speed > 0 and math.isfinite(speed)):
        # A NaN speed would make every pacing delay NaN: never slept.
        raise ValueError("speed must be positive and finite")


class ReplaySource:
    """Re-feed a record list or a capture file, optionally at capture pace.

    ``pace="afap"`` yields batches as fast as the consumer takes them.
    ``pace="clock"`` sleeps between batches so the feed advances at
    ``speed``× capture time (``speed=2.0`` replays an 8-second cell in
    ~4 wall seconds) — the shape a live capture source has, which is what
    the soak and smoke tests exercise.  Pacing affects wall-clock only;
    the batch contents and order are identical either way.

    :meth:`from_pcap` builds a replay straight off a capture file via the
    mmap batch decoder — batches stream out of the file per chunk, so
    peak memory is one batch, not the whole trace.
    """

    def __init__(
        self,
        records: Iterable[PacketRecord],
        pace: str = "afap",
        speed: float = 1.0,
    ):
        check_pacing(pace, speed)
        self._records = list(records)
        self._path: Optional[str] = None
        self._pace = pace
        self._speed = speed

    @classmethod
    def from_pcap(
        cls, path: str, pace: str = "afap", speed: float = 1.0
    ) -> "ReplaySource":
        """Replay a ``.pcap``/``.pcapng`` file without materializing it."""
        source = cls([], pace=pace, speed=speed)
        source._path = str(path)
        return source

    def _batches(self) -> Iterator[List[PacketRecord]]:
        if self._path is not None:
            yield from iter_capture_chunks(self._path)
            return
        records = self._records
        for index in range(0, len(records), DEFAULT_CHUNK_SIZE):
            yield records[index:index + DEFAULT_CHUNK_SIZE]

    def __iter__(self) -> Iterator[List[PacketRecord]]:
        start_capture: Optional[float] = None
        start_wall = 0.0
        for batch in self._batches():
            if self._pace == "clock":
                if start_capture is None:
                    start_capture = batch[0].timestamp
                    start_wall = time.monotonic()
                due = (batch[0].timestamp - start_capture) / self._speed
                delay = due - (time.monotonic() - start_wall)
                if delay > 0:
                    time.sleep(delay)
            yield batch


class PcapDirectoryWatcher:
    """Tail a directory a rotating capture process writes ``.pcap`` files to.

    Polls every ``poll_interval`` seconds; a file is picked up once its
    size has been stable across two polls (the writer has moved on),
    streamed through the mmap batch decoder one batch at a time, and
    never re-read.  The mmap length is pinned when the file is opened,
    so a file that starts growing again *after* pickup (a writer that
    reopened it) yields exactly the records present at open — the next
    rotation, not a torn read.  Iteration ends when ``stop`` is set (or,
    with ``drain_once=True``, after the first sweep — the batch-shaped
    mode tests use).
    """

    def __init__(
        self,
        directory: str,
        poll_interval: float = 0.5,
        stop: Optional[threading.Event] = None,
        drain_once: bool = False,
    ):
        if not (poll_interval > 0 and math.isfinite(poll_interval)):
            # Zero or negative would spin the poll loop on listdir.
            raise ValueError("poll_interval must be positive and finite")
        if not os.path.isdir(directory):
            # Refused here so a service spec naming it gets a 400; one
            # that goes away later raises from the poll loop.
            raise ValueError(f"{directory!r} is not an existing directory")
        self._directory = directory
        self._poll_interval = poll_interval
        self._stop = stop if stop is not None else threading.Event()
        self._drain_once = drain_once
        self._seen: dict = {}
        self._done: set = set()

    @property
    def stop(self) -> threading.Event:
        return self._stop

    def _ready_files(self) -> List[str]:
        # A directory that cannot be listed (deleted, unmounted) raises:
        # read as "no files yet", it would be watched forever.
        names = sorted(os.listdir(self._directory))
        ready = []
        for name in names:
            if not name.endswith((".pcap", ".pcapng")) or name in self._done:
                continue
            path = os.path.join(self._directory, name)
            try:
                size = os.path.getsize(path)
            except OSError:
                continue
            if self._seen.get(name) == size:
                ready.append(path)
                self._done.add(name)
            else:
                self._seen[name] = size
        return ready

    def __iter__(self) -> Iterator[List[PacketRecord]]:
        while not self._stop.is_set():
            for path in self._ready_files():
                # Manual next() so a malformed file (or one truncated by
                # the writer) drops just that file, mid-stream, instead
                # of aborting the watcher.
                chunk_iter = iter_capture_chunks(path)
                while True:
                    try:
                        batch = next(chunk_iter)
                    except StopIteration:
                        break
                    except (OSError, ValueError):
                        break
                    yield batch
            if self._drain_once:
                # One extra sweep picks up files whose size just became
                # stable, then the iterator ends.
                if not self._seen or all(n in self._done for n in self._seen):
                    return
            self._stop.wait(self._poll_interval)


def produce(
    source: Iterable[Sequence[PacketRecord]],
    queue: BoundedQueue,
    on_error: Optional[Callable[[Exception], None]] = None,
) -> None:
    """Push every batch of *source* into *queue*, then close it.

    When *source* raises, *on_error* gets the exception before the queue
    closes, so whoever drains the queue finds it already reported; with
    no *on_error* the exception propagates.
    """
    try:
        for batch in source:
            if not queue.put(batch):
                return
    except Exception as exc:
        if on_error is None:
            raise
        on_error(exc)
    finally:
        queue.close()


def pump(
    queue: BoundedQueue,
    feed: Callable[[Sequence[PacketRecord]], None],
    poll_timeout: float = 0.2,
    stop: Optional[threading.Event] = None,
) -> int:
    """Drain *queue* into *feed* until it closes; returns records fed.

    The consumer half of the ingest pipeline — the service runs this on
    a session's feeder thread with ``feed=session.feed``.  ``stop`` ends
    the pump early (graceful shutdown) without closing the queue.
    """
    fed = 0
    while stop is None or not stop.is_set():
        batch = queue.get(timeout=poll_timeout)
        if batch is None:
            if queue.closed and len(queue) == 0:
                return fed
            continue
        feed(batch)
        fed += len(batch)
    return fed
