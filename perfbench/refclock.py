"""Time a stretch of work in host-speed-scaled seconds.

The shared host this benchmark runs on changes speed by up to 3x within
seconds, with no steal time: the cores themselves run slower, so wall
time and CPU time move together and no statistic over repetitions
removes it.  :class:`RefClock` measures the host's speed while the work
runs.  An interval timer interrupts the work every :data:`INTERVAL_S`
and runs one *reference chunk*, a fixed pure-Python loop of the kind the
simulator runs (list and dict indexing, a method call, integer
arithmetic); the chunk allocates no object the garbage collector tracks.
The part of each stretch of work between two chunks that the thread
spent on the core is scaled by how long the chunks around it took; the
part it spent off the core (waiting on ``fsync``, say) does not run
slower on a slow core and is counted as it is::

    scaled = sum(cpu * NOMINAL_CHUNK_NS / local chunk time + (wall - cpu))

so a scaled second is a second on a host where one chunk takes exactly
:data:`NOMINAL_CHUNK_NS`.  The time spent in chunks is not counted, in
either the wall or the scaled figure.  Only the main thread can take the
timer's signal, and a long call into C defers it until the call returns.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Tuple

#: Wall time between two reference chunks.
INTERVAL_S = 0.05
#: Loop iterations in one reference chunk (about 1 ms on the host the
#: benchmark was defined on, in its fast phases).
CHUNK_ITERATIONS = 3000
#: A scaled second is a second at the speed where one chunk takes this.
NOMINAL_CHUNK_NS = 1_000_000

_now = time.perf_counter_ns
_cpu = time.thread_time_ns
_TABLE = list(range(1024))
_MAP = {i: i for i in range(512)}


class _Accumulator:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def step(self, x: int) -> int:
        self.value = (self.value + x) & 0xFFFF
        return self.value


_ACC = _Accumulator()


def reference_chunk(iterations: int = CHUNK_ITERATIONS) -> int:
    table, mapping, acc, out = _TABLE, _MAP, _ACC, 0
    for i in range(iterations):
        key = (i * 7) & 511
        value = mapping[key] + table[(i * 13) & 1023]
        mapping[key] = value & 0xFFFF
        out ^= acc.step(value)
        if out & 1:
            out += 3
    return out


class RefClock:
    """Reference chunks around a stretch of work; see the module docstring.

    ``arm()`` starts the timer, ``begin()`` opens the measured window
    with a chunk, ``end()`` stops the timer and closes the window with a
    chunk, and ``times()`` gives ``(wall_s, scaled_s)`` of the window.
    """

    def __init__(self) -> None:
        #: ``(wall start, wall end, thread CPU start, thread CPU end)``, ns.
        self.chunks: List[Tuple[int, int, int, int]] = []
        self._busy = False
        self._previous = None
        reference_chunk()  # warm: the first call of a fresh process is slower

    def _chunk(self, *_signal_args) -> None:
        if self._busy:
            return
        self._busy = True
        start, cpu_start = _now(), _cpu()
        reference_chunk()
        self.chunks.append((start, _now(), cpu_start, _cpu()))
        self._busy = False

    def arm(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._chunk)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def disarm(self) -> None:
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def begin(self) -> None:
        self.chunks.clear()
        self._chunk()

    def end(self) -> None:
        self.disarm()
        self._chunk()

    def times(self) -> Tuple[float, float]:
        chunks = self.chunks
        durations = [chunk[1] - chunk[0] for chunk in chunks]
        wall = scaled = 0.0
        for j in range(len(chunks) - 1):
            segment = chunks[j + 1][0] - chunks[j][1]
            on_core = min(segment, max(0, chunks[j + 1][2] - chunks[j][3]))
            # The median of the four nearest chunks, so one chunk that the
            # host interrupted does not rescale its neighbours.
            local = statistics.median(durations[max(0, j - 1): j + 3])
            wall += segment
            scaled += on_core * NOMINAL_CHUNK_NS / local + (segment - on_core)
        return wall / 1e9, scaled / 1e9
