"""A fixed pure-Python probe of the host's speed, for calibrating host time.

The benchmark runs on a share of a host whose speed, for one Python
process, swings by half and more as other load comes and goes, for
seconds to minutes at a time.  :func:`timed_probe` runs a fixed piece of
work shaped like the simulator's hot loop — a heap of timed entries, dict
lookups, small tuples and lists — and returns its CPU time.  It uses
nothing under ``src/``, so a change to the simulator cannot move it.

Host time measured right next to a probe is scaled by
``PROBE_NOMINAL_S / probe time``: the time the same work takes on a host
that runs one probe in exactly :data:`PROBE_NOMINAL_S`.
"""

# Host clock reads are what this benchmark measures; they never
# reach simulated state.
# taurlint: disable-file=TAU001

from __future__ import annotations

import gc
import heapq
import time

__all__ = ["PROBE_NOMINAL_S", "probe", "timed_probe", "calibrated"]

#: The reference host speed: the CPU time of one probe on it.  A
#: definition, not a measurement (an unloaded 2-core Xeon VM runs the
#: probe in about 0.75 ms, a busy one in 1.4 ms).
PROBE_NOMINAL_S = 1e-3
#: Entries the probe's event loop starts with.
PROBE_ENTRIES = 400


def probe(entries: int = PROBE_ENTRIES) -> int:
    """A small event loop: pop timed entries, update per-key state, push
    follow-ups.  Returns the number of keys touched."""
    heap = []
    state = {}
    push, pop = heapq.heappush, heapq.heappop
    seq = 0
    for index in range(entries):
        push(heap, (index * 0.37 % 11.0, seq, index))
        seq += 1
    while heap:
        when, __, index = pop(heap)
        record = state.get(index & 63)
        if record is None:
            record = state[index & 63] = [0, 0.0, []]
        record[0] += 1
        record[1] += when
        record[2].append((when, index))
        if len(record[2]) > 8:
            del record[2][:4]
        if index < entries * 3 and record[0] % 2:
            push(heap, (when + 1.5, seq, index + entries))
            seq += 1
    return len(state)


def timed_probe() -> float:
    """CPU seconds of one :func:`probe`.

    The garbage collector is off while it runs: the probe frees all it
    allocates, so the collections of the process around it happen exactly
    where they would without the probe.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        probe()
        return time.process_time() - start
    finally:
        if enabled:
            gc.enable()


def calibrated(seconds: float, before: float, after: float) -> float:
    """``seconds`` of host time at the reference speed, given the probe
    times taken just before and just after it."""
    return seconds * PROBE_NOMINAL_S / ((before + after) / 2)
