"""Host-speed probe: timings rescaled to a fixed host speed.

On a shared host the CPU the benchmark runs on is slowed by work outside it
(a loaded sibling core, a busy neighbour): the same rotlat command takes up
to 1.6x longer, in stretches of a fraction of a second to minutes, and CPU
time slows with wall time.  Medians over a run cannot remove a slowdown
that lasts the whole run.

So the driver pins itself and every worker to one CPU and, while a worker
computes, runs a short fixed probe of exact arithmetic (Fraction
elimination and big-integer products, like rotlat's own inner loops) every
PERIOD_S seconds, timing it by its own thread CPU time.  An operation's CPU
time is then rescaled by REF_PROBE_S / (mean probe time over the
operation's interval): the time it would take on a host where the probe
takes REF_PROBE_S.  The program cannot change the probe, so a faster
program still reads faster; the raw times are kept in the results file.
"""

from __future__ import annotations

import os
import select
import statistics
import subprocess
import time
from fractions import Fraction

PERIOD_S = 0.1  # time between probes while a worker computes
PROBE_REPEATS = 4  # _probe_work calls per probe, about 2.5 ms
# Median probe time on the machine the benchmark was written on (2-vCPU
# Intel Xeon VM, Python 3.11.7), so that rescaled times read about as raw
# times read there.
REF_PROBE_S = 0.0026


def _probe_work() -> Fraction:
    n = 6
    a = [[Fraction((i * 7 + j * 13) % 17 - 8, 1 + (i + j) % 3) for j in range(n)] for i in range(n)]
    for i in range(n):
        a[i][i] += 20
    for k in range(n):
        pivot = a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / pivot
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    x = 1
    for i in range(200):
        x = x * (i + 12345678901234567) % (1 << 3000)
    return a[n - 1][n - 1] + x % 7


def pin_to_one_cpu() -> int:
    """Run this process, and the workers it starts, on one CPU: the probe
    must see the CPU the worker runs on."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class HostSpeed:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter at start, probe CPU seconds)

    def probe(self) -> None:
        start, cpu = time.perf_counter(), time.thread_time()
        for _ in range(PROBE_REPEATS):
            _probe_work()
        self.samples.append((start, time.thread_time() - cpu))

    def wait_exit(self, proc, timeout: float) -> float:
        """Probe until the child ``proc`` exits; reap it, set its return
        code and give its CPU seconds.  After ``timeout`` seconds the child
        is killed and reaped, and TimeoutExpired is raised."""
        deadline = time.perf_counter() + timeout
        fd = os.pidfd_open(proc.pid)
        try:
            self.probe()
            while not select.select([fd], [], [], PERIOD_S)[0]:
                if time.perf_counter() > deadline:
                    proc.kill()
                    proc.wait()
                    raise subprocess.TimeoutExpired(proc.args, timeout)
                self.probe()
        finally:
            os.close(fd)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.probe()
        return usage.ru_utime + usage.ru_stime

    def read_line(self, fd: int, buffer: bytearray) -> bytes:
        """Probe until a whole line can be read from ``fd``; b"" at end of file."""
        self.probe()
        while b"\n" not in buffer:
            if select.select([fd], [], [], PERIOD_S)[0]:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    break
                buffer += chunk
            else:
                self.probe()
        self.probe()
        end = buffer.find(b"\n") + 1 or len(buffer)
        line = bytes(buffer[:end])
        del buffer[:end]
        return line

    def scale(self, start: float, end: float) -> float:
        """REF_PROBE_S over the mean probe time from one period before
        ``start`` to one after ``end`` (the nearest probe if none is there)."""
        window = [p for t, p in self.samples if start - 1.5 * PERIOD_S <= t <= end + 1.5 * PERIOD_S]
        if not window:
            window = [min(self.samples, key=lambda s: abs(s[0] - start))[1]]
        return REF_PROBE_S / statistics.fmean(window)
