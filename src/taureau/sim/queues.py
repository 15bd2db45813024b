"""Alternative event-queue backends for the simulation kernel.

The default backend is a binary heap (``heapq`` on a plain list) — the
determinism oracle every other backend must replay byte-identically.
:class:`CalendarQueue` is an opt-in calendar-queue / timing-wheel
structure (Brown, CACM 1988) selected with ``Simulation(queue="wheel")``:
events hash into fixed-width time buckets kept in a dict, bucket keys sit
in a small heap, and each bucket is sorted lazily exactly once, when the
virtual clock reaches it.  For workloads whose events cluster in time
(arrival floods, same-second retry storms) the per-event cost approaches
an amortized append + one sort share instead of an O(log n) sift.

Entries are the kernel's ``(when, seq, callback, args)`` tuples.  The
``(when, seq)`` prefix is a *total* order (``seq`` is unique), so any
correct priority queue pops the exact same sequence — which is why the
backend can be swapped without touching the determinism contract
(``tests/test_sim_queues.py`` and the E39 smoke gate hold both backends
to digest-identical runs).
"""

from __future__ import annotations

import heapq
import typing

__all__ = ["CalendarQueue"]


class CalendarQueue:
    """A bucketed priority queue over ``(when, seq, callback, args)`` tuples.

    Parameters
    ----------
    bucket_width_s:
        Simulated seconds per bucket.  Width only affects speed, never
        pop order: too narrow degenerates to a heap of singleton buckets,
        too wide to one big sorted list — both still correct.
    """

    __slots__ = (
        "_width",
        "_buckets",
        "_keys",
        "_len",
        "_current_key",
        "_current",
        "_pos",
        "_overflow",
        "_infinite",
    )

    def __init__(self, bucket_width_s: float = 1.0):
        if bucket_width_s <= 0:
            raise ValueError("bucket_width_s must be positive")
        self._width = float(bucket_width_s)
        #: bucket key -> unsorted list of entries not yet reached.
        self._buckets: dict = {}
        #: min-heap of keys with a live bucket in ``_buckets``.
        self._keys: list = []
        self._len = 0
        #: The bucket currently being drained: a sorted snapshot plus a
        #: cursor, and a side heap for entries scheduled *into* the
        #: current bucket's time range after it was sorted (same-time
        #: cascades are common — event callbacks scheduling follow-ups).
        self._current_key: typing.Optional[float] = None
        self._current: list = []
        self._pos = 0
        self._overflow: list = []
        #: Entries at t=inf (an event that never comes, e.g. the ack of
        #: an append whose quorum crashed) have no bucket; they wait in a
        #: side heap that loads as one last bucket after every finite one.
        self._infinite: list = []

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0

    def push(self, entry: tuple) -> None:
        """Insert one entry; O(1) amortized off the current bucket."""
        try:
            key = int(entry[0] / self._width)
        except OverflowError:
            heapq.heappush(self._infinite, entry)
            self._len += 1
            return
        if self._current_key is not None and key <= self._current_key:
            heapq.heappush(self._overflow, entry)
        else:
            bucket = self._buckets.get(key)
            if bucket is None:
                self._buckets[key] = [entry]
                heapq.heappush(self._keys, key)
            else:
                bucket.append(entry)
        self._len += 1

    def extend(self, entries: typing.Iterable[tuple]) -> None:
        """Bulk insert (the ``schedule_many`` path)."""
        for entry in entries:
            self.push(entry)

    def _advance(self) -> None:
        """Load the next non-empty bucket as the sorted current snapshot."""
        while self._keys:
            key = heapq.heappop(self._keys)
            bucket = self._buckets.pop(key, None)
            if bucket:
                bucket.sort()
                self._current_key = key
                self._current = bucket
                self._pos = 0
                return
        if self._infinite:
            # Every finite key is below this one, so a finite entry pushed
            # while t=inf entries are current lands in ``_overflow`` and
            # still pops first.
            self._current_key = float("inf")
            self._current, self._infinite = self._infinite, []
            self._current.sort()
            self._pos = 0
            return
        # Queue fully drained; later pushes start fresh buckets.
        self._current_key = None
        self._current = []
        self._pos = 0

    def pop(self) -> tuple:
        """Remove and return the least entry by ``(when, seq)``."""
        if self._len == 0:
            raise IndexError("pop from an empty CalendarQueue")
        if self._pos >= len(self._current) and not self._overflow:
            self._advance()
        # Everything in ``_overflow`` lives in the current bucket's time
        # range, which precedes every future bucket — so the global min
        # is the smaller of the snapshot head and the overflow head.
        if self._overflow:
            if (
                self._pos < len(self._current)
                and self._current[self._pos] <= self._overflow[0]
            ):
                entry = self._current[self._pos]
                self._pos += 1
            else:
                entry = heapq.heappop(self._overflow)
        else:
            entry = self._current[self._pos]
            self._pos += 1
        self._len -= 1
        if self._pos >= len(self._current) and self._current:
            # Release the drained snapshot so its entries can be GC'd.
            self._current = []
            self._pos = 0
        return entry

    def peek(self) -> typing.Optional[tuple]:
        """The least entry without removing it (``None`` when empty)."""
        if self._len == 0:
            return None
        if self._pos >= len(self._current) and not self._overflow:
            self._advance()
        if self._overflow:
            if (
                self._pos < len(self._current)
                and self._current[self._pos] <= self._overflow[0]
            ):
                return self._current[self._pos]
            return self._overflow[0]
        return self._current[self._pos]
