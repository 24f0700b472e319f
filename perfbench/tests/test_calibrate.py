"""The host-speed scaling: arithmetic, and the campaign workers' readings."""

import pytest

import calibrate
import suite


def test_reading_at_nominal_speed_leaves_seconds_unchanged():
    assert calibrate.normalize(2.0, calibrate.NOMINAL_S) == pytest.approx(2.0)


def test_slower_host_scales_seconds_down_by_the_elasticity():
    slow = 2 * calibrate.NOMINAL_S  # the loop took twice as long
    assert calibrate.normalize(1.0, slow, 1.0) == pytest.approx(0.5)
    assert calibrate.normalize(1.0, slow, 0.75) == pytest.approx(0.5 ** 0.75)
    assert calibrate.normalize(1.0, slow) == pytest.approx(
        0.5 ** calibrate.RUN_ELASTICITY
    )


def test_measure_reads_a_positive_time():
    assert calibrate.measure() > 0


def test_pass_factor_weights_jobs_by_host_seconds(tmp_path):
    nominal = calibrate.NOMINAL_S
    # A 3 s job at nominal speed and a 1 s job on a host twice as slow.
    (tmp_path / "100.txt").write_text(f"3.0 {nominal!r} {nominal!r}\n")
    (tmp_path / "101.txt").write_text(f"1.0 {2 * nominal!r} {2 * nominal!r}\n")
    expected = (3.0 + calibrate.normalize(1.0, 2 * nominal)) / 4.0
    assert suite._pass_factor(str(tmp_path)) == pytest.approx(expected)


def test_pass_factor_without_readings_is_none(tmp_path):
    assert suite._pass_factor(str(tmp_path)) is None
