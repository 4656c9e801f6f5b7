"""Machine-speed calibration for timings on a shared machine.

On a shared virtual machine the speed a process gets changes by tens of
percent from one ten-second spell to the next, with no change to the
program.  Every timed operation is therefore bracketed by a fixed
pure-Python loop, and its time is reported in reference seconds:

    reference_s = measured_s * REFERENCE_S / loop_s

where `loop_s` is the mean of the loop's time just before and just after
the operation.  A change to semiflex moves the measured time and not the
loop, so it shows in full; a slow spell of the machine moves both and
mostly cancels.  `REFERENCE_S` is the loop's median time on the 2-core
Xeon virtual machine the benchmark was written on, so reference seconds
read close to wall seconds there.  The measured seconds are printed next
to every scaled figure.
"""

from __future__ import annotations

from time import perf_counter

REFERENCE_S = 0.048
_LOOP = 500_000


def calibrate() -> float:
    """Seconds one fixed interpreter loop takes right now."""
    t0 = perf_counter()
    s = 0
    for i in range(_LOOP):
        s += i * i
    return perf_counter() - t0


def scale(seconds: float, loop_s: float) -> float:
    """Measured seconds expressed in reference seconds."""
    return seconds * REFERENCE_S / loop_s
