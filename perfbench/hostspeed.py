"""Host speed reference for normalising op times.

A small shared host can change speed by 1.5-2x for seconds to minutes at
a time, in CPU time as much as in wall time, so raw op times of two run
sets made minutes apart differ by more than any code change worth
measuring. While a worker runs, a timer signal every ``INTERVAL_S``
times a fixed probe: the C JSON encoder on a small document and a loop
of tuple-keyed dict updates, the interpreter work greenloop's ops are
made of. Each op is scaled by the median probe time around it:

    normalised seconds = seconds * NOMINAL_S / median probe seconds

that is, the op's time on a host where the probe takes ``NOMINAL_S``.
The probe lives here, outside the program, so no change to greenloop
moves it. Probe time is taken out of the op times it interrupts.
"""

from __future__ import annotations

import bisect
import json
import signal
import statistics
import time

DOC_KEYS = 300
LOOP = 3_000
NOMINAL_S = 0.001  # a fixed scale; normalised seconds compare only with each other
INTERVAL_S = 0.1
WINDOW_S = 0.5  # an op's speed is the median probe within this margin of it


class HostSpeed:
    """The probe's input, the samples taken so far and the time they took."""

    def __init__(self) -> None:
        self.doc = {f"k{i}": [i, i * 0.5, f"v{i % 7}"] for i in range(DOC_KEYS)}
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self.spent_s = 0.0
        self._busy = False

    def probe(self) -> None:
        """Time one probe now and keep it as a sample."""
        if self._busy:  # the timer fired during a probe called directly
            return
        self._busy = True
        start = time.perf_counter()
        json.dumps(self.doc, sort_keys=True)
        table: dict[tuple[int, int], float] = {}
        for i in range(LOOP):
            key = (i & 63, i % 5)
            table[key] = table.get(key, 0.0) * 0.5 + i
        end = time.perf_counter()
        self.starts.append(start)
        self.seconds.append(end - start)
        self.spent_s += time.perf_counter() - start
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def around(self, start: float, end: float) -> float:
        """Median probe seconds of the samples within WINDOW_S of [start, end]."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        return statistics.median(self.seconds[lo:hi])
