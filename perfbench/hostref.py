"""Host reference: state every timed slice at a fixed host speed.

The machine this benchmark runs on is shared, and its speed drifts by up
to 2x on a scale of about a second.  CPU time does not help, because it
tracks wall time.  So the benchmark times a fixed pure-Python kernel
right after every timed slice and scales the slice by how slow the host
was around it::

    scaled = raw * NOMINAL_S / measured_reference

``measured_reference`` is the mean of the kernel timings just before and
just after the slice.  The kernel imports nothing from ``repro`` and is
never inside a timed interval.  Raw times and the measured reference are
kept beside every scaled figure so that the scaling can be audited.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

#: Wall time of :func:`reference_kernel` on a quiet host (2-CPU box,
#: Python 3.11).  A constant: changing it rescales every timed metric.
NOMINAL_S = 0.025

_KERNEL_ITERATIONS = 60_000


def reference_kernel() -> int:
    """Fixed interpreter-bound work: dict, integer and list operations,
    the same mix that dominates the simulator's hot loops."""
    table = {}
    acc = 0
    out = []
    for i in range(_KERNEL_ITERATIONS):
        k = (i * 7919) & 1023
        v = table.get(k, 0) + (i ^ acc) % 97
        table[k] = v
        acc = (acc * 31 + v) & 0xFFFFFFFF
        if not i & 15:
            out.append(acc)
    out.sort()
    return acc + len(out)


def time_kernel() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def scale(raw_s: float, ref_before_s: float, ref_after_s: float,
          nominal_s: float = NOMINAL_S) -> float:
    """``raw_s`` restated at the nominal host speed."""
    if raw_s < 0 or ref_before_s <= 0 or ref_after_s <= 0 or nominal_s <= 0:
        raise ValueError("times must be positive")
    return raw_s * nominal_s / ((ref_before_s + ref_after_s) / 2.0)


@dataclass(frozen=True)
class Slice:
    """One timed interval and the host reference measured around it."""

    raw_s: float
    ref_s: float       # mean of the kernel timings before and after
    scaled_s: float


class SliceClock:
    """Cuts a run into timed slices with a reference kernel between them.

    ``restart()`` starts a slice (discarding any untimed work since the
    last cut); ``cut()`` ends it, times the kernel and returns the
    :class:`Slice`.  The kernel after one slice serves as the "before"
    reference of the next.
    """

    def __init__(self, timer: Callable[[], float] = time_kernel,
                 nominal_s: float = NOMINAL_S) -> None:
        self._timer = timer
        self.nominal_s = nominal_s
        self._ref_before = timer()
        self._t0 = time.perf_counter()

    def restart(self) -> None:
        self._t0 = time.perf_counter()

    def elapsed(self) -> float:
        """Seconds since the current slice started."""
        return time.perf_counter() - self._t0

    def cut(self) -> Slice:
        raw = time.perf_counter() - self._t0
        ref_after = self._timer()
        scaled = scale(raw, self._ref_before, ref_after, self.nominal_s)
        ref = (self._ref_before + ref_after) / 2.0
        self._ref_before = ref_after
        self._t0 = time.perf_counter()
        return Slice(raw, ref, scaled)


@dataclass
class Sample:
    """``work`` units done over a group of slices."""

    work: float
    raw_s: float
    ref_s: float       # time-weighted reference of the group
    scaled_s: float
    key: Optional[str] = None


class Series:
    """Samples of one end-to-end metric.

    Without keys, a rate metric reports the median of ``work / seconds``
    over its samples and a duration metric the median of the samples'
    seconds.  A ``pooled`` rate is the total work over the total seconds
    instead, for work that varies more from sample to sample (with the
    inputs) than its seconds do.  With keys (one per kind of sample, e.g. per engine path),
    each key's work and seconds are reduced to their medians first, and
    the metric is the sum of the median work over the sum of the median
    seconds (or that sum of seconds): one typical round assembled from
    every sample of every kind.
    """

    def __init__(self, name: str, unit: str, rate: bool,
                 pooled: bool = False) -> None:
        self.name = name
        self.unit = unit
        self.rate = rate
        self.pooled = pooled
        self.samples: List[Sample] = []

    def add(self, work: float, slices: Sequence[Slice], key: Optional[str] = None,
            repeats: int = 1, nominal_s: float = NOMINAL_S) -> None:
        """One sample of ``work`` done in ``slices``; ``repeats`` times
        the same work in them counts as one sample of the mean."""
        raw = sum(s.raw_s for s in slices) / repeats
        scaled = sum(s.scaled_s for s in slices) / repeats
        ref = raw * nominal_s / scaled if scaled > 0 else nominal_s
        self.samples.append(Sample(work, raw, ref, scaled, key))

    def _median(self, seconds: Callable[[Sample], float]) -> float:
        keys = sorted({s.key for s in self.samples if s.key is not None})
        if keys:
            work = secs = 0.0
            for key in keys:
                group = [s for s in self.samples if s.key == key]
                work += statistics.median(s.work for s in group)
                secs += statistics.median(seconds(s) for s in group)
            return work / secs if self.rate else secs
        if self.pooled:
            return (sum(s.work for s in self.samples)
                    / sum(seconds(s) for s in self.samples))
        if self.rate:
            return statistics.median(s.work / seconds(s) for s in self.samples)
        return statistics.median(seconds(s) for s in self.samples)

    def value(self) -> float:
        """The metric: median at the nominal host speed."""
        return self._median(lambda s: s.scaled_s)

    def raw(self) -> float:
        """The same median from raw wall times (printed, never reported)."""
        return self._median(lambda s: s.raw_s)

    def ref(self) -> float:
        return statistics.median(s.ref_s for s in self.samples)
