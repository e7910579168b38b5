"""Tests of the timing of operations at a reference speed.

    python3 -m pytest baxbench -q
"""
import signal

import pytest

import calibration


def busy(seconds):
    def op():
        import time

        started = time.process_time()
        while time.process_time() - started < seconds:
            pass
        return "done"

    return op


def test_a_long_operation_is_sampled_while_it_runs_and_scaled():
    output, cpu, scaled, units = calibration.timed(busy(0.2))
    assert output == "done"
    assert len(units) >= 3  # the timer fired during the operation
    assert 0.15 < cpu < 0.25  # the handler's time is taken out
    assert scaled == calibration.scaled(cpu, units)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_a_short_operation_gets_one_unit_after_it():
    output, cpu, scaled, units = calibration.timed(lambda: 7)
    assert output == 7 and len(units) == 1 and units[0] > 0
    assert scaled == calibration.scaled(cpu, units)


def test_a_failing_operation_raises_and_stops_the_timer():
    with pytest.raises(ZeroDivisionError):
        calibration.timed(lambda: 1 / 0)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_scaling_follows_the_unit():
    # the same CPU time on a box twice as slow is half as much work
    assert calibration.scaled(2.0, [0.001]) == pytest.approx(2.0)
    assert calibration.scaled(2.0, [0.002, 0.002, 0.009]) == pytest.approx(1.0)
