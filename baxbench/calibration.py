"""Operation times at a reference speed of the box.

On a shared host the speed of Python changes while a run goes on: here it
switched between a fast and a slow state every few seconds, the slow one
about a third slower, and the share of slow time differed from run to run.
CPU time does not leave that out, since the process keeps running, only
slower.  So each operation is timed together with the speed of the box:
while it runs, a wall-clock interval timer interrupts it every
``INTERVAL_S`` and a signal handler times one calibration unit, a fixed
piece of work of the benchmark's own that does not call baxlab.  The
operation's CPU time, less the handler's, is then scaled by
``REFERENCE_UNIT_S`` over the median unit time measured during it: it is the
time the operation would take on a box where the unit takes 1 ms.

A change to baxlab moves the operation's time and not the unit's, so it
moves the scaled time by the same share.  The unit (descent sets of small
permutations) is pure-Python work on small tuples and sets, as most of
baxlab's is; it slowed by the same share as both workloads' operations did.
"""
from __future__ import annotations

import signal
import statistics
import time
from itertools import permutations

import oracles

INTERVAL_S = 0.03
REFERENCE_UNIT_S = 0.001
_PERMS = list(permutations(range(1, 6)))


def unit() -> float:
    """CPU seconds of one calibration unit, about a millisecond."""
    started = time.process_time()
    for p in _PERMS:
        oracles.descent_sets(p)
    return time.process_time() - started


_state = None  # [unit times, handler CPU seconds] of the operation being timed


def _on_alarm(signum, frame) -> None:
    state = _state
    if state is None:  # a signal still pending after the timer stopped
        return
    started = time.process_time()
    state[0].append(unit())
    state[1] += time.process_time() - started


def timed(op):
    """Run ``op`` under the interval timer.

    Returns its output, its CPU seconds less the handler's, those seconds
    scaled to the reference speed, and the unit times measured during it.
    An operation shorter than the interval gets one unit timed after it.
    """
    global _state
    if signal.getsignal(signal.SIGALRM) is not _on_alarm:
        signal.signal(signal.SIGALRM, _on_alarm)
    state = _state = [[], 0.0]
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        started = time.process_time()
        output = op()
        cpu = time.process_time() - started
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        _state = None
    units = state[0] or [unit()]
    cpu -= state[1]
    return output, cpu, scaled(cpu, units), units


def scaled(cpu: float, units: list[float]) -> float:
    return cpu * REFERENCE_UNIT_S / statistics.median(units)
