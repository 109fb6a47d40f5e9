"""Host-speed calibration, so that reported times compare across runs.

The benchmark runs on a few shared cores whose speed drifts by 30% and more
within seconds (a fixed loop of pure Python takes 24 ms in one stretch and
32 ms in the next, in CPU time as much as in wall time). Repeating the
workload does not cancel that, because a whole run can fall in a slow
stretch. So every worker times a fixed calibration loop, which uses only the
standard library, right before and right after each stretch of measured work
in the same process, and scales the work's times by

    REFERENCE_S / (mean of the two calibration times).

The speed also changes within tens of milliseconds, so a calibration runs
for at least a tenth of the work it follows (the first one of a process, for
FIRST_S), and it reports the mean time of its rounds, which is what the work
sees, not the fastest round.

A scaled time is the time the work would take on a host where one
calibration round takes REFERENCE_S. The constant is the round's time in the
fast state of the 2-vCPU host (Python 3.11) the benchmark was defined on, so
scaled times read roughly as that host's seconds when it is not contended.
Changes to the package move the work and leave the calibration alone, so
they show in full.
"""

from __future__ import annotations

from time import perf_counter

REFERENCE_S = 0.0044  # one calibration round at the reference speed
MIN_ROUNDS = 4
SHARE = 0.1  # a calibration lasts at least this share of the work before it
FIRST_S = 0.05  # and the first one of a process at least this long
EVERY_S = 0.15  # calibrate again once this much work has run since the last

_MODULUS = 5**4500


def _round() -> int:
    """Interpreter dispatch, dict stores and multi-thousand-bit integer
    arithmetic: the mix the package spends its time in."""
    acc = 0
    table = {}
    for i in range(30_000):
        acc = (acc * 31 + i) & 0xFFFFFFFFFFFF
        table[i & 255] = acc
    big = 3**4000
    for i in range(120):
        big = (big * 7 + i) % _MODULUS
    return acc ^ big


def calibrate(seconds: float) -> float:
    """Mean seconds a calibration round takes now, over at least MIN_ROUNDS
    rounds and at least ``seconds``."""
    rounds = 0
    begin = perf_counter()
    while True:
        _round()
        rounds += 1
        spent = perf_counter() - begin
        if rounds >= MIN_ROUNDS and spent >= seconds:
            return spent / rounds


def scale(before: float, after: float) -> float:
    """Factor taking times measured between two calibrations to the
    reference speed."""
    return REFERENCE_S / ((before + after) / 2)
