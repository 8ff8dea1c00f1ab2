"""Host time in seconds of a reference-speed host.

The sandbox is a small shared VM whose speed steps by 5-15 % for tens of
seconds at a time and dips by 30-40 % for fractions of a second (its CPU
time moves with its wall time, so it is the host slowing, not this
process waiting).  Ten runs of one commit therefore differ by more than
the 10 % regression bound, however long each run is.  Nothing in the
program causes that, so the benchmark measures it and divides it out: as
the process starts and ``workloads.SEGMENTS`` times during the measured
phase a :class:`HostClock` times one fixed loop, and
:meth:`HostClock.normalise` stretches or shrinks each stretch of host
time between two samples by how fast the loop ran at its two ends.

Every op is still timed, in one pass, with the collector on; only the
unit changes, from seconds of whatever the host was doing to seconds of a
host on which the loop takes ``REFERENCE_NS``.  ``host_speed`` (1.0 = the
reference) is printed with every run.
"""

from __future__ import annotations

from bisect import bisect_right
from statistics import median
from time import perf_counter_ns

# What the loop below took on this repository's sandbox when it was quiet.
REFERENCE_NS = 7_500_000


def _reference_loop() -> None:
    """Interpreter, dict and string work that allocates nothing the cyclic
    collector tracks: a loop that builds tuples triggers collections whose
    cost is the size of the workload's heap, not the speed of the host."""
    counts: dict = {}
    for i in range(30_000):
        key = "p%d" % (i % 977)
        counts[key] = counts.get(key, 0) + (i & 7)
    sum(counts.values())


class HostClock:
    def __init__(self) -> None:
        self._starts: list[int] = []  # perf_counter_ns when a sample began
        self._took: list[int] = []
        self.sample()

    def sample(self) -> None:
        """Time the reference loop.  Call between events, never inside a
        timed call: the time it takes is cut out of the normalised clock."""
        start = perf_counter_ns()
        _reference_loop()
        self._starts.append(start)
        self._took.append(perf_counter_ns() - start)

    @property
    def host_speed(self) -> float:
        return REFERENCE_NS / median(self._took)

    def normalise(self, times_ns: list[int]) -> list[float]:
        """Map ``perf_counter_ns`` readings to reference-host ns since the
        first sample.  Between samples i and i+1 host time is scaled by
        ``REFERENCE_NS / mean(took_i, took_i+1)``; the samples themselves
        take no time; after the last sample its own speed holds."""
        starts, took = self._starts, self._took
        ends = [s + t for s, t in zip(starts, took)]
        scale = [
            REFERENCE_NS / ((a + b) / 2) for a, b in zip(took, took[1:])
        ] + [REFERENCE_NS / took[-1]]
        at_end = [0.0]  # normalised time when sample i ended
        for i in range(1, len(starts)):
            at_end.append(at_end[-1] + (starts[i] - ends[i - 1]) * scale[i - 1])
        out = []
        for t in times_ns:
            i = max(0, bisect_right(starts, t) - 1)
            out.append(at_end[i] + max(0, t - ends[i]) * scale[i])
        return out
