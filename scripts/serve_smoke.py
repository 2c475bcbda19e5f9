#!/usr/bin/env python3
"""CI smoke for the always-on service (`rtc-compliance serve`).

Boots the real daemon on an ephemeral port, replays an **impaired** cell
through a live session, and asserts the strongest service guarantee
end-to-end: the SSE verdict stream is bit-identical — order included —
to the batch pipeline over the same cell.  Unusable specs (a negative
media scale, the removed ``deadline`` eviction mode, an unknown key
inside ``queue``, a non-object ``eviction``, a ``pcap_dir`` source on a
directory that does not exist) must get 400 and leave the daemon
healthy; the missing directory's 400 names its path.  Then sends SIGTERM and checks the daemon
drains gracefully while ``/healthz`` keeps answering 200.

Exit status 0 means every check passed; any assertion failure is fatal.
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.apps import NetworkCondition  # noqa: E402
from repro.experiments.runner import (  # noqa: E402
    ExperimentConfig,
    run_cell_pipeline,
)

APP = "zoom"
NETWORK = NetworkCondition.WIFI_RELAY
IMPAIRMENT = "lossy"  # the TURN-relay impaired golden corpus profile
DURATION, SCALE, SEED = 6.0, 0.3, 1


def get_json(url, timeout=30):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def post_json(url, payload, timeout=30):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def read_sse(url, timeout=300):
    events = []
    name = None
    with urllib.request.urlopen(url, timeout=timeout) as response:
        for raw in response:
            line = raw.decode("utf-8").rstrip("\r\n")
            if line.startswith("event: "):
                name = line[len("event: "):]
            elif line.startswith("data: "):
                events.append((name, json.loads(line[len("data: "):])))
                if name == "end":
                    break
    return events


def batch_verdict_facts():
    run = run_cell_pipeline(
        APP,
        NETWORK,
        ExperimentConfig(
            call_duration=DURATION,
            media_scale=SCALE,
            seed=SEED,
            impairment=IMPAIRMENT,
        ),
    )
    return [
        {
            "timestamp": v.message.timestamp,
            "protocol": v.message.type_key()[0],
            "type": v.message.type_key()[1],
            "compliant": v.compliant,
            "violations": [
                [int(criterion), code] for criterion, code in v.violation_keys()
            ],
        }
        for v in run.verdicts
    ]


def main():
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(REPO, "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
        cwd=REPO,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        banner = proc.stdout.readline()
        assert "listening on http://" in banner, f"bad banner: {banner!r}"
        base = banner.strip().rsplit(" ", 1)[-1]
        print(f"daemon up at {base}")

        status, health = get_json(base + "/healthz")
        assert status == 200 and health["status"] == "ok", health

        spec = {
            "app": APP,
            "network": NETWORK.value,
            "impairment": IMPAIRMENT,
            "duration": DURATION,
            "scale": SCALE,
            "seed": SEED,
        }
        status, created = post_json(base + "/sessions", spec)
        assert status == 201, created
        session_id = created["id"]
        print(f"session {session_id} replaying impaired cell "
              f"{APP}/{NETWORK.value} ({IMPAIRMENT})")

        events = read_sse(f"{base}/sessions/{session_id}/events")
        kinds = [name for name, _ in events]
        assert kinds[-1] == "end" and "summary" in kinds, kinds
        streamed = [
            {key: data[key] for key in
             ("timestamp", "protocol", "type", "compliant", "violations")}
            for name, data in events if name == "verdict"
        ]
        expected = batch_verdict_facts()
        assert len(streamed) == len(expected), (
            f"verdict count mismatch: SSE {len(streamed)} vs "
            f"batch {len(expected)}"
        )
        assert streamed == expected, "SSE verdict stream diverged from batch"
        print(f"SSE verdict parity OK: {len(streamed)} verdicts, "
              f"order bit-identical to batch")

        status, stats = get_json(f"{base}/sessions/{session_id}/stats")
        assert status == 200 and stats["closed"], stats
        status, health = get_json(base + "/healthz")
        assert status == 200 and health["status"] == "ok", health

        missing = os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "no-such-capture-dir"
        )
        assert not os.path.exists(missing), missing
        for bad in (
            {"app": APP, "scale": -1},
            {"app": APP, "eviction": "deadline"},
            {"app": APP, "queue": {"max_size": 2}},
            {"app": APP, "eviction": 5},
            {"source": {"kind": "pcap_dir", "directory": missing}},
        ):
            try:
                status, body = post_json(base + "/sessions", bad)
            except urllib.error.HTTPError as exc:
                status, body = exc.code, json.loads(exc.read())
            assert status == 400, (bad, status, body)
            if "source" in bad:
                assert missing in body["error"], body
        status, health = get_json(base + "/healthz")
        assert status == 200 and health["status"] == "ok", health
        print("unusable specs refused with 400, daemon healthy")

        # A clock-paced session is still feeding when SIGTERM arrives, so
        # the drain has real work: stop ingest, join threads, finalize.
        status, slow = post_json(
            base + "/sessions",
            dict(spec, pace="clock", speed=1.0, duration=6.0),
        )
        assert status == 201, slow
        time.sleep(0.5)

        # /healthz must stay green (HTTP 200) for as long as the listener
        # answers during the drain; refused connections mean it is gone.
        polls = []
        failures = []

        def poll_health():
            while True:
                try:
                    status, _ = get_json(base + "/healthz", timeout=5)
                except (urllib.error.URLError, ConnectionError, OSError):
                    return
                if status != 200:
                    failures.append(status)
                    return
                polls.append(status)

        import threading

        poller = threading.Thread(target=poll_health)
        poller.start()
        proc.send_signal(signal.SIGTERM)
        poller.join(timeout=120)
        assert not failures, f"healthz degraded during drain: {failures}"
        assert polls, "no healthz response observed around shutdown"
        output = proc.stdout.read()
        proc.wait(timeout=60)
        assert proc.returncode == 0, (proc.returncode, output)
        assert "shutdown complete" in output, output
        print(f"graceful shutdown OK ({len(polls)} healthz polls answered "
              f"200 through the drain)")
        print("serve smoke OK")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


if __name__ == "__main__":
    sys.exit(main())
