"""Machine-speed probe for the timed operations.

On a shared two-core virtual machine the speed drifted in phases of one
to twenty seconds by up to a third: a fixed loop ran at 104 to 171
passes per second within two minutes, and its CPU time per pass drifted
the same way, so the drift is in the machine's speed, not in time taken
from the process. A run of
ten seconds cannot average such phases out, and a reference loop timed
between operations misses the phases inside a long operation.

So while an operation runs, an interval timer interrupts it every 20 ms
and the signal handler, on the same thread, times a fixed loop of about
0.3 ms that touches no program code. The runner subtracts the loop's
time from the operation's wall time and scales what is left by
NOMINAL_S over the mean loop time of the stretch. The program's own
cost enters the scaled figure unchanged; the machine's phase mostly
cancels: over 1 s stretches the log of model_scan's time and of a text
writer's time followed the log of the loop time with slope 1.0, and the
stretch-to-stretch scatter fell from 10-14% to 5-6%.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Loop time, in seconds, at the median speed of the machine the
# benchmark was set up on; it fixes the scale of the figures only.
NOMINAL_S = 3.5e-4
INTERVAL_S = 0.02
# Fewest loop samples behind one scale factor.
MIN_GROUP_SAMPLES = 10

_SMALL = np.linspace(0.0, 1.0, 64)
_MATRIX = np.eye(4) + 0.1


def loop() -> None:
    """The fixed mix: a pure-Python integer loop and small numpy calls,
    the two costs the program's Python-level loops are made of."""
    total = 0
    for k in range(4000):
        total += k * k
    for _ in range(30):
        np.exp(_SMALL)
        _MATRIX @ _MATRIX


class SpeedProbe:
    """Times ``loop`` every INTERVAL_S while an operation is open. The
    timer runs for a whole pass, so operations shorter than the interval
    are sampled too, in proportion to their length.

    Samples go into a preallocated array: a Python float kept from every
    tick would pin a heap arena among the operation's short-lived objects
    and raise its resident size by hundreds of MB.
    """

    def __init__(self) -> None:
        self.active = False
        self.count = 0
        self._buffer = np.empty(1 << 16)
        self._previous = signal.signal(signal.SIGALRM, self._tick)

    @property
    def samples(self) -> np.ndarray:
        return self._buffer[: self.count]

    def _tick(self, signum, frame) -> None:
        if not self.active:
            return
        start = time.perf_counter()
        loop()
        if self.count == self._buffer.size:
            self._buffer = np.concatenate([self._buffer, np.empty(self._buffer.size)])
        self._buffer[self.count] = time.perf_counter() - start
        self.count += 1

    def start(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        self.active = False
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def close(self) -> None:
        self.stop()
        signal.signal(signal.SIGALRM, self._previous)


def scaled_seconds(stretches: list[tuple[float, np.ndarray]]) -> float:
    """Sum of net times (wall minus loop time) of consecutive operations,
    each scaled by NOMINAL_S over the mean loop time of the group of
    operations it falls in; groups hold at least MIN_GROUP_SAMPLES loop
    samples, and a short tail joins the group before it."""
    groups: list[list[tuple[float, np.ndarray]]] = [[]]
    count = 0
    for wall, samples in stretches:
        if count >= MIN_GROUP_SAMPLES:
            groups.append([])
            count = 0
        groups[-1].append((wall, samples))
        count += len(samples)
    if count < MIN_GROUP_SAMPLES and len(groups) > 1:
        groups[-2].extend(groups.pop())
    total = 0.0
    for group in groups:
        samples = np.concatenate([group_samples for _, group_samples in group])
        net = sum(wall - float(group_samples.sum()) for wall, group_samples in group)
        total += net * (NOMINAL_S / float(samples.mean()) if samples.size else 1.0)
    return total
