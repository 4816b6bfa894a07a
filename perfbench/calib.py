"""Host-speed calibration and the statistics the benchmark reports.

The benchmark host's per-core speed drifts by a fifth or more within a
minute, so raw wall-clock cannot repeat within the bounds the benchmark
fixes.  Every timed item is therefore paired with a *reference unit*:
a fixed piece of interpreter-bound work (dict, attribute and
small-object traffic, the same mix the program's hot loops run),
timed between work items.  An item's calibrated seconds are

    raw seconds x (REF_NOMINAL_S / measured reference seconds)

so a calibrated value reads as "seconds on this host at its nominal
speed".  This module imports nothing from ``repro``: the reference
must not change when the program does.
"""

from __future__ import annotations

import gc
import math
import signal
import statistics
import time
from typing import Sequence

#: The reference unit's time at the host's nominal speed (the median
#: of the reference timings measured with ``run.py --self-check``; see
#: perfbench/README.md).  A constant, so calibrated values stay in
#: seconds and compare across commits.
REF_NOMINAL_S = 0.0014

#: Object-traffic trips of one reference unit.
REF_TRIPS = 600

#: Integer-loop trips per object trip (about 1.5 times the object
#: half's time).
INTEGER_TRIPS_PER_TRIP = 14

#: Back-to-back reference units per measurement; the minimum is kept,
#: which drops a unit that an interrupt landed in.
REF_REPEATS = 3

#: Seconds between the reference measurements a :class:`Ticker` takes
#: inside one work item.
TICK_S = 0.25


class _Cell:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value, next_cell):
        self.key = key
        self.value = value
        self.next = next_cell


class _Node:
    def __init__(self, index: int) -> None:
        self.index = index
        self.weight = index & 7
        self.tag = "n"


def _reference_unit(trips: int = REF_TRIPS) -> int:
    """Dict, attribute and small-object traffic followed by an integer
    loop; returns a checksum so the work cannot be skipped.

    Either half alone tracks the program badly when the host slows: the
    object half slows down more than the injector does, the integer half
    less than the Ballista sweep (see perfbench/README.md).
    """
    table: dict = {}
    head = None
    total = 0
    for i in range(trips):
        node = _Node(i)
        key = (i & 31, node.tag)
        table[key] = node
        head = _Cell(key, node.weight, head)
        hit = table.get((i & 15, "n"))
        if hit is not None:
            total += hit.weight + hit.index
        items = [node.index, node.weight, i]
        total += len(items) + items[-1]
    while head is not None:
        total += head.value
        head = head.next
    for i in range(INTEGER_TRIPS_PER_TRIP * trips):
        total += (i * 7) ^ (i >> 3)
    return total


def measure_reference(repeats: int = REF_REPEATS) -> float:
    """Seconds of one reference unit, timed now with ``gc`` paused so
    the program's heap cannot slow it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(repeats):
            started = time.perf_counter()
            _reference_unit()
            best = min(best, time.perf_counter() - started)
        return best
    finally:
        if was_enabled:
            gc.enable()


def scale(ref_seconds: float) -> float:
    """The factor that converts raw seconds measured at ``ref_seconds``
    per reference unit into calibrated seconds."""
    if ref_seconds <= 0:
        raise ValueError(f"reference time must be positive, got {ref_seconds}")
    return REF_NOMINAL_S / ref_seconds


def calibrate(raw_seconds: float, ref_before: float, ref_after: float | None = None) -> float:
    """Calibrated seconds of one item timed between two reference
    measurements (the mean of the two tracks a speed change during the
    item; without ``ref_after`` the one before is used)."""
    ref = ref_before if ref_after is None else (ref_before + ref_after) / 2
    return raw_seconds * scale(ref)


def calibrate_brackets(raw: Sequence[float], refs: Sequence[float], sizes: Sequence[int]) -> list[float]:
    """Calibrate items timed in brackets: bracket ``b`` holds the next
    ``sizes[b]`` items of ``raw`` and lies between ``refs[b]`` and
    ``refs[b + 1]``."""
    if len(refs) != len(sizes) + 1 or sum(sizes) != len(raw):
        raise ValueError(
            f"{len(raw)} items in {len(sizes)} brackets need {len(sizes) + 1} "
            f"references and sizes summing to the item count; got {len(refs)} "
            f"references and sizes summing to {sum(sizes)}"
        )
    out: list[float] = []
    position = 0
    for bracket, size in enumerate(sizes):
        factor = scale((refs[bracket] + refs[bracket + 1]) / 2)
        out.extend(seconds * factor for seconds in raw[position:position + size])
        position += size
    return out


class Ticker:
    """Reference measurements inside a long work item.

    A harden item (one function) can run for ten seconds and more, long
    enough for the host's speed to change several times; the references
    at its two ends then miss most of the change.  Used as a context
    manager around one item, a ticker measures the reference unit every
    ``TICK_S`` seconds from a ``SIGALRM`` handler on the main thread and
    records when each measurement ran, so :meth:`calibrate` can scale
    each stretch of work by the host speed around it and leave the
    measurements' own time out.  Main thread only.
    """

    def __init__(self, interval: float = TICK_S) -> None:
        self.interval = interval
        self.ticks: list[tuple[float, float, float]] = []
        self.start = self.end = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        started = time.perf_counter()
        ref = measure_reference()
        self.ticks.append((started, time.perf_counter(), ref))

    def __enter__(self) -> "Ticker":
        self.ticks = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def calibrate(self, ref_before: float, ref_after: float) -> tuple[float, float]:
        """Raw work seconds and calibrated seconds of the last item."""
        return calibrate_ticked(self.start, self.end, ref_before, ref_after, self.ticks)


def calibrate_ticked(start: float, end: float, ref_before: float, ref_after: float,
                     ticks: Sequence[tuple[float, float, float]]) -> tuple[float, float]:
    """Raw work seconds and calibrated seconds of an item that ran from
    ``start`` to ``end``, between reference measurements ``ref_before``
    and ``ref_after``, with ``ticks`` = ``(tick start, tick end,
    reference)`` measured inside it.  Each stretch of work between two
    measurements is scaled by the mean of the two; the ticks' own time
    is not work.  Without ticks this is :func:`calibrate`."""
    raw = calibrated = 0.0
    at, ref = start, ref_before
    for tick_start, tick_end, tick_ref in (*ticks, (end, end, ref_after)):
        work = tick_start - at
        raw += work
        calibrated += work * scale((ref + tick_ref) / 2)
        at, ref = tick_end, tick_ref
    return raw, calibrated


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


#: A reported percentile must have at least this many samples beyond
#: the order statistics it is computed from.
MIN_BEYOND = 10


def _window(count: int, pct: float) -> tuple[int, int]:
    """0-based slice ``[low, high)`` of the order statistics whose mean
    estimates the ``pct``-th percentile: the nearest-rank sample plus
    those within one binomial standard deviation of its rank."""
    p = pct / 100
    rank = max(math.ceil(p * count - 1e-9), 1)
    half = max(1, round(math.sqrt(count * p * (1 - p))))
    return max(rank - 1 - half, 0), min(rank + half, count)


def beyond(count: int, pct: float) -> int:
    """Samples above the window that estimates the ``pct``-th percentile."""
    return count - _window(count, pct)[1]


def samples_needed(pct: float, minimum: int = MIN_BEYOND) -> int:
    """The smallest sample count whose ``pct``-th percentile leaves
    ``minimum`` samples beyond its window."""
    if not 0 < pct < 100:
        raise ValueError(f"percentile must be in (0, 100), got {pct}")
    count = minimum + 1
    while beyond(count, pct) < minimum:
        count += 1
    return count


def percentile(values: Sequence[float], pct: float, minimum: int = MIN_BEYOND) -> float:
    """The ``pct``-th percentile as the mean of the order statistics
    within one binomial standard deviation of its rank.  Averaging the
    neighbourhood keeps the estimate steady where a sample is a mixture
    of operations with very different costs (a single order statistic
    jumps between cost tiers); it refuses a percentile that leaves
    fewer than ``minimum`` samples beyond that neighbourhood."""
    ordered = sorted(values)
    low, high = _window(len(ordered), pct)
    if len(ordered) - high < minimum:
        raise ValueError(
            f"p{pct} of {len(ordered)} samples leaves only "
            f"{len(ordered) - high} beyond its window (need {minimum})"
        )
    return statistics.fmean(ordered[low:high])


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (the rule the
    benchmark's steadiness is judged by)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else math.inf
