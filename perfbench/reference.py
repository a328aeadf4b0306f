"""A fixed pure-Python reference workload: the yardstick for host speed.

The benchmark runs on shared machines whose speed drifts, in phases of
tens of seconds to minutes, by up to a factor of two, and a pure-Python loop
slows with the simulator in those phases.  Each repetition therefore times
this loop on both sides of its set-up and of its run phase, and the
end-to-end host-time metrics rescale each phase to the reference speed: the
seconds it would have taken on a host where the loop takes ``NOMINAL_S``.
A host phase moves that figure far less than the raw seconds.

The loop is shaped like the simulator's own hot paths -- a heap-ordered
event queue resuming generator processes that read attributes of small
objects and update dict-keyed tables -- and does the same work on every
call, whatever the program under test does.
"""

import heapq
import statistics
import time

#: Events the loop processes per call (20-40 ms on a 2-vCPU Xeon VM).
EVENTS = 30000
#: Calls per sample.  The host's speed wanders at every time scale, from
#: tenths of a second up, so a sample averages about 0.3 s of it: the mean
#: of twelve calls tracks a run phase's speed far better than the median of
#: three (on ``fleet``, the spread of 40 s medians fell from 0.09 to 0.02).
SAMPLES = 12
#: The reference speed: host seconds of one call on the reference host.
#: Only a scale -- it fixes the unit, not the ratios between runs.
NOMINAL_S = 0.02


class _Item:
    __slots__ = ("name", "value")

    def __init__(self, name, value):
        self.name = name
        self.value = value


def _process(number, table, items):
    clock = 0
    while True:
        item = items[(clock + number) % len(items)]
        table[item.name] = table.get(item.name, 0) + item.value
        clock = yield (number * 7 + clock) % 97 + 1


def reference_loop(events=EVENTS):
    """Run the fixed workload once; returns a checksum of its result."""
    items = [_Item("key%d" % index, index % 13) for index in range(64)]
    table = {}
    processes = [_process(number, table, items) for number in range(32)]
    queue = []
    for number, process in enumerate(processes):
        heapq.heappush(queue, (next(process), number))
    for _ in range(events):
        now, number = heapq.heappop(queue)
        heapq.heappush(queue, (now + processes[number].send(now), number))
    return sum(table.values())


#: What every call returns.  Changing the loop changes the unit of every
#: rescaled metric, so a changed loop must fail here, not pass silently.
CHECKSUM = 177048


def reference_s(samples=SAMPLES):
    """Mean host seconds of ``samples`` calls of the reference loop."""
    times = []
    for _ in range(samples):
        started = time.perf_counter()
        checksum = reference_loop()
        times.append(time.perf_counter() - started)
        if checksum != CHECKSUM:
            raise RuntimeError("reference loop returned %r, not %r"
                               % (checksum, CHECKSUM))
    return statistics.fmean(times)


def at_reference_speed(seconds, reference_seconds):
    """``seconds`` measured while one reference call took
    ``reference_seconds``, rescaled to the reference speed."""
    return seconds * NOMINAL_S / reference_seconds
