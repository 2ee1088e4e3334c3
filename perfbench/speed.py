"""
The machine's speed over time, so that timings taken minutes apart compare.

On the shared 2-CPU VM this benchmark was written on, the same command ran
40 % slower in one minute than in the next, and CPU time slowed with wall
time: the core itself goes slower, nothing waits.  So a sampler process
times a fixed pure-Python loop every PERIOD_S seconds, in its own CPU time,
on the CPU the operations run on (run.py pins itself and all its children
to one CPU): a loop timed on the other CPU tracked the operations' speed
far worse.  The sampler takes about 3 % of that CPU.  `Speedometer.scale(a, b)` is
REF_PROBE_S over the loop's mean cost around the interval [a, b], and a time
multiplied by it reads in seconds at the reference speed: the loop's cost on
that VM when it ran fastest.  The loop never calls the library, so no change
to the library moves the scale.

Times are perf_counter readings, which on Linux are CLOCK_MONOTONIC and so
agree between processes.

    python3 perfbench/speed.py OUT_FILE     # the sampler; stopped by SIGTERM
"""

from __future__ import annotations

import bisect
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

PERIOD_S = 0.05       # one sample every 50 ms
REF_PROBE_S = 0.0012  # the loop's CPU time on the VM at its fastest
NEAREST = 5           # an interval with fewer samples inside uses the 5 nearest
MAX_LIFE_S = 900      # the sampler ends itself after this, whatever happens


def probe() -> float:
    """CPU seconds of a fixed loop of integer arithmetic."""
    c0 = time.thread_time()
    s = 0
    for i in range(20_000):
        s += i * i % 7
    return time.thread_time() - c0


def sample(out: Path) -> int:
    parent = os.getppid()
    end = time.perf_counter() + MAX_LIFE_S
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    with open(out, "w", buffering=1) as fh:
        while time.perf_counter() < end and os.getppid() == parent:
            t = time.perf_counter()
            cost = probe()
            fh.write(f"{t + cost / 2:.6f} {cost:.9f}\n")
            time.sleep(PERIOD_S)
    return 0


class Speedometer:
    """Starts the sampler; `close` stops it and waits for it."""

    def __init__(self, out: Path):
        self.out = out
        out.unlink(missing_ok=True)
        self.proc = subprocess.Popen([sys.executable, __file__, str(out)])
        self.times, self.costs = [], []
        deadline = time.monotonic() + 10
        while not self._read() and time.monotonic() < deadline:
            time.sleep(PERIOD_S)
        if not self.times:
            self.close()
            raise RuntimeError("the speed sampler wrote no sample")

    def _read(self) -> int:
        try:
            lines = self.out.read_text().splitlines()
        except FileNotFoundError:
            return 0
        for line in lines[len(self.times):]:
            parts = line.split()
            if len(parts) != 2:
                break  # a line still being written
            self.times.append(float(parts[0]))
            self.costs.append(float(parts[1]))
        return len(self.times)

    def scale(self, a: float, b: float) -> float:
        """Reference seconds per measured second over the interval [a, b]."""
        if not self.times or self.times[-1] < b:
            self._read()
        lo = bisect.bisect_left(self.times, a)
        hi = bisect.bisect_right(self.times, b)
        if hi - lo < NEAREST:
            mid = bisect.bisect_left(self.times, (a + b) / 2)
            lo = max(0, min(mid - NEAREST // 2, len(self.times) - NEAREST))
            hi = lo + NEAREST
        return REF_PROBE_S / statistics.fmean(self.costs[lo:hi])

    def close(self):
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.wait()


if __name__ == "__main__":
    sys.exit(sample(Path(sys.argv[1])))
