"""§4.1.1: the k=200 offset bound — recall vs runtime.

The paper reports that extraction with k=200 yields the same validated
message set as full-payload extraction; smaller bounds miss messages hidden
behind proprietary headers.  This bench sweeps k and times the engine.
"""

import time

from repro.dpi import DpiEngine


def test_k_offset_sweep(zoom_kept_records, benchmark):
    sweep = {}
    print()
    for k in (0, 8, 16, 32, 64, 128, 200, 100000):
        started = time.perf_counter()
        engine = DpiEngine(max_offset=k, backend="columnar")
        result = engine.analyze_records(zoom_kept_records)
        elapsed = time.perf_counter() - started
        count = len(result.messages())
        sweep[k] = count
        label = "full" if k == 100000 else str(k)
        print(f"  k={label:>5}  messages={count:6d}  time={elapsed:6.2f}s")

    # Zoom's 24-39 byte headers hide everything from k<24.
    assert sweep[0] < sweep[200]
    assert sweep[8] < sweep[200]
    # Monotone non-decreasing recall in k.
    ks = sorted(k for k in sweep)
    assert all(sweep[a] <= sweep[b] for a, b in zip(ks, ks[1:]))
    # The paper's headline: k=200 matches full-payload extraction.
    assert sweep[200] == sweep[100000]
    # And already k=64 suffices for Zoom's headers (24-39 bytes + wrapper).
    assert sweep[64] == sweep[200]

    engine = DpiEngine(max_offset=200, backend="columnar")
    benchmark.pedantic(
        engine.analyze_records, args=(zoom_kept_records,), rounds=2, iterations=1
    )
