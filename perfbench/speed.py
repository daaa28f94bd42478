"""How fast the machine runs right now, from a fixed probe loop.

The shared 2-vCPU host these figures come from switches between speed
states (the slowest about 1.8x slower than the fastest) over stretches of a
second to a minute, and the same batch of work took 1.2 to 2.5 s in fresh
processes.  Steal time stays below 1%, so the cause lies below the guest,
and a probe running on the other vCPU at the same time does not follow the
state of this one.  What does follow it is a fixed loop of interpreted
arithmetic and ``math`` calls run in the same process, on the same vCPU,
right before and after a stretch of work: the stretch's time scaled by
``REF_PROBE_S`` over the mean of the two probes is its time at a fixed
reference speed.  A ``Clock`` also probes every ``SAMPLE_S`` seconds inside
a long operation, so a state change in the middle of it is followed too.

The probe is the benchmark's own code, not the program's, so a change to
the program moves the scaled time as it moves the wall time.  It needs only
the standard library, so that a fresh interpreter can start its clock
before it imports anything the program needs.
"""

import math
import os
import signal
import time

# seconds between probes inside a long operation
SAMPLE_S = 0.25

# about the probe's median time on a 2-vCPU Intel Xeon (2.0 GHz) in its
# common state; scaled times are seconds at that speed
REF_PROBE_S = 0.0035


def _loop():
    start = time.perf_counter()
    s = 0.0
    table = {}
    for i in range(7000):
        x = math.exp(-1e-4 * i) * (i % 7) + math.sqrt(i)
        table[i & 63] = x
        s += x * len(table)
    return time.perf_counter() - start


def probe():
    """The fixed loop's time now: the fastest of three runs, so that a tick
    given to another process does not count."""
    return min(_loop(), _loop(), _loop())


def scaled(seconds, before, after):
    """``seconds`` of work between probes ``before`` and ``after``, at reference speed."""
    return seconds * REF_PROBE_S / (0.5 * (before + after))


class Clock:
    """Times stretches of work plainly and at reference speed, probes cut out.

    Between ``start()`` and ``stop()`` a timer signal probes the speed every
    ``every`` seconds (never if ``every`` is None); each piece of work
    between two probes is scaled by their mean.  ``stop()`` ends with a
    probe; the first piece is scaled by ``last_probe``, the probe before it,
    taken here if not given.  ``plain`` and ``ref`` sum the work,
    ``probing`` the probes taken.
    """

    def __init__(self, last_probe=None, every=SAMPLE_S):
        self.every = every
        self.probing = 0.0
        if last_probe is None:
            start = time.perf_counter()
            last_probe = probe()
            self.probing = time.perf_counter() - start
        self.first_probe = self.last_probe = last_probe
        self.plain = 0.0
        self.ref = 0.0
        self._running = False
        self._in_probe = False
        self._since = 0.0

    def start(self):
        self._running = True
        if self.every:
            signal.signal(signal.SIGALRM, self._tick)
            # restart system calls the signal interrupts, such as the reads of
            # an extension module being loaded, instead of failing them
            signal.siginterrupt(signal.SIGALRM, False)
            signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        self._since = time.perf_counter()

    def stop(self):
        self._running = False
        if self.every:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self._close(time.perf_counter())

    def _close(self, now):
        after = probe()
        self.plain += now - self._since
        self.ref += scaled(now - self._since, self.last_probe, after)
        self.last_probe = after
        self._since = time.perf_counter()
        self.probing += self._since - now

    def _tick(self, signum, frame):
        # a tick that lands in a probe (or after stop()) is dropped
        if self._running and not self._in_probe:
            self._in_probe = True
            self._close(time.perf_counter())
            self._in_probe = False

    def figures(self):
        return {"plain": self.plain, "ref": self.ref, "probing": self.probing,
                "first_probe": self.first_probe, "last_probe": self.last_probe}


def scaled_outside(wall, figures):
    """``wall``, the whole life of a process whose ``Clock.figures()`` these
    are, at reference speed: the clocked work as the clock scaled it, the
    rest (interpreter start and exit) by the clock's first and last probes,
    and the probes left out."""
    outside = wall - figures["plain"] - figures["probing"]
    return figures["ref"] + scaled(outside, figures["first_probe"], figures["last_probe"])


def pin_to_one_cpu():
    """Keep this process and its children on one vCPU, so probes and work share it."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
