"""End-to-end benchmark: capture bytes on disk to complete verdicts.

Run from the repository root::

    python3 perfbench/run.py --workload clean-call --seed 1 --seconds 25 --trace 0

Each pass opens the workload's captures, decodes them, runs them through
a fresh ``AnalysisSession`` (filter, two-stage DPI, five-criterion
checker) with the program's default configuration, and closes the
session to complete, batch-ordered verdicts.  Every pass must reproduce
the conformance ``sweep`` engine's output for the same inputs, or it
counts as failed.

``--trace 0`` reports the end-to-end metrics.  Each pass's rate and
close time are taken at the nominal host speed of ``hostspeed.py``: a
shared host's CPU speed drops by up to ~1.8x for stretches of seconds to
minutes, which spread the raw run medians by 22-55% across ten runs.
``records_per_s`` is the slower quartile of the passes' rates (the lower)
and ``close_s`` the slower quartile of their close times (the upper).
What the reference work does not correct leaves the passes of a run in a
fast and a slow group; the slower quartile falls in the slow group on
every run, where the median flips between groups, so across ten runs it
spread by 4-14% where the median spread by 9-17%.  The report line keeps
medians, quartiles and extremes of the raw rates and close times and of
each pass's slowdown.
``setup_s`` (also at nominal host speed) and ``peak_rss_mb`` are medians
over several fresh processes, each importing the program, building an
engine and checker and running one warm-up pass (``peak_rss_mb`` is that
pass's resident-set growth).  ``--trace 1`` alternates untraced and
traced passes and reports the per-layer ledger of the median traced
pass (see ``ledger.py``), plus the untraced over the traced rate.  Both
modes print ``error_ratio``, the share of passes that raised or failed
the oracle gate; it is 0 on a correct program, so it is reported with
the per-layer metrics rather than bounded as an end-to-end one.

Inputs are generated once per workload and seed and cached, together
with the oracle's reference output, under ``.bench_cache/`` in the
working directory.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds the full report (run environment, input record, sample
spreads, ledgers and failures).

The benchmark's own tests: ``PYTHONPATH=src python3 -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed

#: Fresh processes measured for ``setup_s`` and ``peak_rss_mb``.
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 150.0
#: Seconds between samples of a probe's resident set.
RSS_POLL_S = 0.002

MIB = float(1 << 20)

#: Per-pass numbers kept for the report line; the first two are reported.
SAMPLED = ("records_per_s", "close_s", "raw_records_per_s", "raw_close_s", "slowdown")

END_TO_END_UNITS = {
    "records_per_s": "records/s",
    "close_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


def _anon_rss(pid="self") -> int:
    """Resident bytes not backed by files: the heap a pass grows.

    File-backed pages (the mapped capture, shared libraries) are left
    out because how many of them are mapped depends on the page cache,
    not on the program.
    """
    with open(f"/proc/{pid}/statm") as statm:
        fields = statm.read().split()
    return (int(fields[1]) - int(fields[2])) * os.sysconf("SC_PAGE_SIZE")


def _timed_pass(
    workloads, ledger, reference, inputs, expected, tracing: bool, main_thread: int
) -> dict:
    """One pass with a fresh session, checked against the oracle.

    The pass sits between two runs of the reference work
    (``hostspeed.py``); its rate and close time are reported at the
    nominal host speed.  The cyclic collector is parked for the pass and
    the reference work: otherwise a full collection lands at a random
    point, often inside the few milliseconds ``close_s`` measures.
    Returns only numbers and problems, so nothing of the pass stays
    alive into the next one.
    """
    gc.collect()
    session = workloads.new_session(inputs)
    tracer = ledger.Tracer() if tracing else None
    gc.disable()
    try:
        before = reference.seconds()
        with tracer.installed() if tracing else contextlib.nullcontext():
            outcome = workloads.run_pass(inputs, session)
        after = reference.seconds()
    except Exception as exc:
        return {"problems": [f"{type(exc).__name__}: {exc}"]}
    finally:
        gc.enable()
    slowdown = hostspeed.slowdown(before, after)
    measured = {
        "wall_s": outcome.wall_s,
        "slowdown": slowdown,
        "raw_records_per_s": outcome.records / outcome.wall_s,
        "raw_close_s": outcome.close_s,
        "records_per_s": outcome.records / outcome.wall_s * slowdown,
        "close_s": outcome.close_s / slowdown,
        "problems": workloads.gate(
            inputs, workloads.output_facts(inputs, outcome.result), expected
        ),
    }
    if tracing:
        ledgers, problems = ledger.analyse(tracer, outcome, main_thread)
        measured["problems"].extend(problems)
        measured["ledgers"] = ledgers
        measured["per_layer"] = ledger.per_layer(outcome, ledgers, tracer)
    return measured


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _quartile(values, index):
    return statistics.quantiles(values, n=4)[index] if len(values) > 1 else values[0]


def _summary(values):
    ordered = sorted(values)
    quartiles = statistics.quantiles(ordered, n=4) if len(ordered) > 1 else ordered * 3
    return {
        "n": len(ordered),
        "median": statistics.median(ordered),
        "q1": quartiles[0],
        "q3": quartiles[2],
        "min": ordered[0],
        "max": ordered[-1],
    }


def _git_sha(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def _source_key(root: Path) -> str:
    """Content hash of the program's sources; keys the cached oracle output."""
    digest = hashlib.blake2b(digest_size=8)
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _environment(root: Path, inputs, source_key: str) -> dict:
    from repro.dpi.columnar import ColumnarScanner
    from repro.packets.batch import BatchPcapReader

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    with BatchPcapReader(inputs.captures[0]) as reader:
        ingest_vectorized = reader.vectorized
    return {
        "git_sha": _git_sha(root),
        "source_key": source_key,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "columnar_vectorized": ColumnarScanner(max_offset=0).vectorized,
        "ingest_vectorized": ingest_vectorized,
    }


def _probe(args):
    """Set-up seconds and one pass's resident-set growth, in a fresh process.

    Set-up runs from process start until ready to open the first capture:
    imports, engine and checker construction, and one warm-up pass.
    ``time.monotonic`` is one system-wide clock, so the child's ready time
    compares directly with the parent's launch time.  The warm-up pass's
    peak resident-set growth is measured there too, because only a fresh
    process shows a pass's footprint: in a process that already ran a
    pass, the allocator reuses the memory that pass freed.  This process
    samples the child's resident set while it runs, so the child's
    timing carries no sampler.
    """
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    start = time.monotonic()
    peak = 0
    with subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    ) as child:
        try:
            while child.poll() is None:
                if time.monotonic() - start > PROBE_TIMEOUT_S:
                    raise RuntimeError("setup probe timed out")
                try:
                    peak = max(peak, _anon_rss(child.pid))
                except (OSError, IndexError, ValueError):
                    pass  # exiting between poll() and the read
                time.sleep(RSS_POLL_S)
            out, err = child.communicate()
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
    if child.returncode != 0:
        raise RuntimeError(f"setup probe failed: {err.strip()[-2000:]}")
    reported = json.loads(out.strip().splitlines()[-1])
    return reported["ready"] - start, peak - reported["rss_before_pass"]


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    import ledger
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cache = root / ".bench_cache"
    inputs = workloads.prepare(args.workload, args.seed, cache)

    if args.setup_probe:
        session = workloads.new_session(inputs)
        before = _anon_rss()
        workloads.run_pass(inputs, session)
        print(json.dumps({"ready": time.monotonic(), "rss_before_pass": before}))
        return 0

    source_key = _source_key(root)
    expected = workloads.reference(inputs, source_key)
    reference = hostspeed.ReferenceWork()
    reference.seconds()  # warm-up
    setup, setup_slowdown, rss_mb = [], [], []
    for _ in range(SETUP_PROBES):
        before = reference.seconds()
        seconds, growth = _probe(args)
        slowdown = hostspeed.slowdown(before, reference.seconds())
        setup.append(seconds / slowdown)
        setup_slowdown.append(slowdown)
        rss_mb.append(growth / MIB)
    environment = _environment(root, inputs, source_key)
    workloads.run_pass(inputs, workloads.new_session(inputs))  # warm-up

    main_thread = threading.get_ident()
    samples = {name: [] for name in SAMPLED}
    traced = []
    attempted = failed = 0
    failures = []
    deadline = time.monotonic() + args.seconds
    while attempted < 1 + args.trace or time.monotonic() < deadline:
        tracing = bool(args.trace) and attempted % 2 == 1
        attempted += 1
        measured = _timed_pass(
            workloads, ledger, reference, inputs, expected, tracing, main_thread
        )
        if measured["problems"]:
            failed += 1
            failures.extend(f"pass {attempted}: {problem}" for problem in measured["problems"])
        if "wall_s" not in measured:
            continue
        if tracing:
            traced.append(measured)
        else:
            for name in SAMPLED:
                samples[name].append(measured[name])

    if not samples["records_per_s"] or (args.trace and not traced):
        print("perfbench: no pass completed", *failures[:20], sep="\n", file=sys.stderr)
        return 1

    error_ratio = failed / attempted
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment,
        "inputs": inputs.record,
        "setup_s": _summary(setup),
        "setup_slowdown": _summary(setup_slowdown),
        "peak_rss_mb": _summary(rss_mb),
        "passes": {"attempted": attempted, "failed": failed, "error_ratio": error_ratio},
        "samples": {name: _summary(values) for name, values in samples.items()},
        "failures": failures[:20],
    }
    if args.trace:
        traced.sort(key=lambda measured: measured["wall_s"])
        median_pass = traced[len(traced) // 2]
        values = dict(median_pass["per_layer"])
        values["trace_overhead_ratio"] = statistics.median(samples["records_per_s"]) / (
            statistics.median([measured["records_per_s"] for measured in traced])
        )
        values["error_ratio"] = error_ratio
        report["ledger"] = {"wall_s": median_pass["wall_s"], "threads": median_pass["ledgers"]}
        units = {name: ledger.unit(name) for name in values}
    else:
        values = {
            "records_per_s": _quartile(samples["records_per_s"], 0),
            "close_s": _quartile(samples["close_s"], 2),
            "peak_rss_mb": statistics.median(rss_mb),
        }
        values["setup_s"] = statistics.median(setup)
        units = END_TO_END_UNITS

    print(f"perfbench {args.workload} seed={args.seed}: {attempted} passes, "
          f"{failed} failed (error_ratio {error_ratio:g} ratio)")
    for name, value in values.items():
        print(f"  {name:<28} {value:>16.6f} {units[name]}")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
