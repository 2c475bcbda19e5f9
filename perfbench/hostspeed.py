"""A fixed reference workload that gauges the host's speed at the moment.

On a shared host the CPU's speed changes by up to ~1.8x for stretches of
seconds to minutes, so a pass timed in a slow stretch reads slower for
reasons that have nothing to do with the program.  The benchmark times
this reference work right before and right after each pass and reports
the pass's times at the host speed where the reference work takes
:data:`NOMINAL_S`.

The work is independent of the program, so a change to the program moves
the reported numbers and a change in the host's speed moves both sides of
the ratio.  It is interpreter work of the kind the program does most:
lookups and inserts in a dict with tuple keys, scattered over a working
set of several MiB, and short byte slices.  On a 2-vCPU 2.1 GHz Xeon
guest its time tracked ``clean-call``'s pass times with a log-log slope
of 0.94; a small in-cache loop tracked them with a slope of 0.58.
"""

from __future__ import annotations

import gc
import random
import time
from typing import List, Tuple

#: The reference work's time at the host speed the benchmark reports at
#: (its median on the host named above).
NOMINAL_S = 0.06

_KEYS = 200_000
_LOOKUPS = 60_000
_PAYLOADS = 2_000


class ReferenceWork:
    """The reference work's inputs, built once per process."""

    def __init__(self, seed: int = 1):
        rng = random.Random(seed)
        self._keys: List[Tuple[int, int]] = [
            (rng.randrange(1 << 30), rng.randrange(1 << 16)) for _ in range(_KEYS)
        ]
        self._order = [rng.randrange(_KEYS) for _ in range(_LOOKUPS)]
        self._payloads = [rng.randbytes(64) for _ in range(_PAYLOADS)]

    def run(self) -> int:
        table = {}
        keys, payloads = self._keys, self._payloads
        for index in self._order:
            key = keys[index]
            entry = table.get(key)
            if entry is None:
                table[key] = [payloads[index % _PAYLOADS][4:20], index]
            else:
                entry[1] += 1
        return len(table)

    def seconds(self) -> float:
        """Wall seconds of one run of the reference work, collector parked."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self.run()
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()


def slowdown(before: float, after: float) -> float:
    """How much slower than nominal the host ran between two timings of
    the reference work."""
    return (before + after) / 2 / NOMINAL_S
