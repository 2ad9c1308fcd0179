"""Host speed, measured inside the child that is being timed.

The 2-vCPU host this benchmark was built on changes speed by a third or more
within seconds to minutes, and CPU time tracks wall time, so neither reading
alone compares two runs.  ``SpeedSampler`` times a short fixed piece of
stdlib work every SAMPLE_EVERY_S from a SIGALRM handler, that is between two
bytecodes of whatever runs, and rescales the elapsed wall time to a fixed
reference speed.  The sample adds ``Fraction``s: allocation-heavy arithmetic
like tropfan's own, which tracked the host's slow spells better than a plain
integer loop did.  ``probe`` is a longer integer loop timed before and after
each round, so that the drift also shows in plain seconds.
"""

import gc
import signal
import time
from fractions import Fraction

SAMPLE_ADDITIONS = 60
SAMPLE_EVERY_S = 0.015
# one sample at reference speed: a fixed unit.  Inside the workloads a sample
# took longer on the 2-vCPU Xeon host (2.1 GHz) the baseline was recorded on,
# so reference times read about 0.6-0.7 of wall time there (median per workload).
REFERENCE_SAMPLE_S = 150e-6
PROBE_ITERATIONS = 1_000_000


def probe() -> float:
    """Seconds for a fixed pure-Python loop."""
    t = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t


class SpeedSampler:
    """Samples host speed from ``start()`` to ``stop()``."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (end, loop seconds)

    def _sample(self, signum, frame):
        # the round's garbage collections stay in the round, not in a sample
        collecting = gc.isenabled()
        gc.disable()
        t = time.perf_counter()
        x = Fraction(0)
        for i in range(1, SAMPLE_ADDITIONS + 1):
            x += Fraction(i, i + 1)
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.samples.append((end, end - t))

    def start(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._sample)
        self.started = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def stop(self) -> float:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.stopped = time.perf_counter()
        return self.stopped

    def wall_s(self, since: float) -> float:
        """Wall time from ``since`` to ``stop()``, the samples' own time excluded."""
        return self.stopped - since - sum(loop for end, loop in self.samples if end > since)

    def reference_s(self, since: float) -> float:
        """``wall_s`` at reference speed: each stretch between samples counts
        at the speed that the sample closing it measured, the last stretch at
        the last speed."""
        ref = REFERENCE_SAMPLE_S
        total, prev, loop = 0.0, since, ref
        for end, loop in self.samples:
            if end > since:
                total += (end - loop - prev) * ref / loop
                prev = end
        return total + (self.stopped - prev) * ref / loop
