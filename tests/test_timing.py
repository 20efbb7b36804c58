"""Clock sampling, RMS arithmetic, deadline checks."""

import math
from random import Random
from types import SimpleNamespace

import pytest

from acqsim import (
    ClockModel,
    DeadlineMisses,
    DeadlineSpec,
    InvalidSpecError,
    check_deadlines,
    timestamp_rms,
)
from acqsim.timing import sample_timestamp_detailed
from conftest import frame_table


def sample_timestamp(clock, t, rng):
    return sample_timestamp_detailed(clock, t, rng)[0]


def fake_record(generated, measured, latency=None, frame_id=0):
    return SimpleNamespace(
        frame_id=frame_id,
        generated_at_ns=generated,
        camera_timestamp_ns=measured,
        latency_ns=latency,
    )


NONE = DeadlineMisses([], [], [], [])


def missed(records, deadlines):
    """check_deadlines over the records' frame table, with the run's RMS."""
    frames = frame_table(records)
    return check_deadlines(frames, deadlines, timestamp_rms(frames) if records else 0.0)


class TestSampleTimestamp:
    def test_zero_clock_is_identity(self):
        rng = Random(0)
        clock = ClockModel()
        for t in (0, 1, 999, 10**6, 10**15):
            assert sample_timestamp(clock, t, rng) == t

    def test_pure_offset(self):
        assert sample_timestamp(ClockModel(offset_ns=10.0), 1000, Random(0)) == 1010

    def test_drift(self):
        assert sample_timestamp(ClockModel(drift_ppm=100.0), 10**6, Random(0)) == 1_000_100

    def test_jitter_golden_value(self):
        # Frozen from the documented stream construction: Random("12345:clock").
        rng = Random("12345:clock")
        clock = ClockModel(jitter_sigma_ns=20.0)
        assert sample_timestamp(clock, 10**6, rng) == 999_992
        assert sample_timestamp(clock, 10**6, rng) == 999_969  # draw index 1

    def test_jitter_reproducible(self):
        clock = ClockModel(jitter_sigma_ns=35.0)
        a = [sample_timestamp(clock, 10**6, Random("s:clock")) for _ in range(1)]
        b = [sample_timestamp(clock, 10**6, Random("s:clock")) for _ in range(1)]
        assert a == b

    def test_clamps_below_zero(self):
        value, clamped = sample_timestamp_detailed(ClockModel(offset_ns=-5000.0), 100, Random(0))
        assert value == 0 and clamped is True

    def test_negative_sigma_rejected(self):
        with pytest.raises(InvalidSpecError):
            ClockModel(jitter_sigma_ns=-1.0)


class TestTimestampRms:
    def test_all_zero(self):
        records = [fake_record(t, t) for t in (0, 10, 20)]
        assert timestamp_rms(frame_table(records)) == 0.0

    def test_plus_minus_ten(self):
        records = [fake_record(100, 110), fake_record(200, 190)]
        assert timestamp_rms(frame_table(records)) == pytest.approx(10.0, abs=1e-12)

    def test_empty_is_error(self):
        with pytest.raises(ValueError):
            timestamp_rms(frame_table([]))

    def test_sign_flip_invariance(self):
        errs = [3, -7, 12, 0, -2]
        a = timestamp_rms(frame_table([fake_record(0, e) for e in errs]))
        b = timestamp_rms(frame_table([fake_record(0, -e) for e in errs]))
        assert a == pytest.approx(b, rel=1e-12)

    def test_linear_scaling(self):
        errs = [3, -7, 12, 5]
        base = timestamp_rms(frame_table([fake_record(0, e) for e in errs]))
        scaled = timestamp_rms(frame_table([fake_record(0, 4 * e) for e in errs]))
        assert scaled == pytest.approx(4 * base, rel=1e-12)

    def test_statistical_convergence(self):
        rng = Random("stat:clock")
        clock = ClockModel(jitter_sigma_ns=20.0)
        records = [fake_record(10**6, sample_timestamp(clock, 10**6, rng)) for _ in range(10_000)]
        assert 18.0 <= timestamp_rms(frame_table(records)) <= 22.0

    def test_brute_force_oracle(self):
        errs = [5, -3, 8, 1, -9, 4]
        records = [fake_record(1000, 1000 + e) for e in errs]
        expected = math.sqrt(sum(e * e for e in errs) / len(errs))
        assert timestamp_rms(frame_table(records)) == pytest.approx(expected, rel=1e-12)


class TestCheckDeadlines:
    def test_safety_violation_flagged(self):
        records = [fake_record(0, 0, latency=150_000, frame_id=3)]
        assert missed(records, DeadlineSpec()) == DeadlineMisses(["safety"], [3], [150_000], [100_000])

    def test_below_budget_passes(self):
        records = [fake_record(0, 0, latency=80_000)]
        assert missed(records, DeadlineSpec()) == NONE

    def test_control_violation(self):
        records = [fake_record(0, 0, latency=25_000_000)]
        misses = missed(records, DeadlineSpec())
        assert misses.kind == ["safety", "control"]  # a frame's safety miss first
        assert misses.budget_ns == [100_000, 20_000_000]

    def test_timestamp_violation_is_run_level(self):
        records = [fake_record(0, 80, latency=10), fake_record(0, -80, latency=10)]
        misses = missed(records, DeadlineSpec())
        assert (misses.kind, misses.frame_id, misses.budget_ns) == (["timestamp"], [None], [50.0])
        assert misses.measured_ns == [pytest.approx(80.0)]

    def test_undelivered_frames_skip_latency_checks(self):
        records = [fake_record(0, 0, latency=None)]
        assert missed(records, DeadlineSpec()) == NONE

    def test_empty_report(self):
        assert missed([], DeadlineSpec()) == NONE

    def test_spec_validation(self):
        with pytest.raises(InvalidSpecError):
            DeadlineSpec(safety_ns=0)
        with pytest.raises(InvalidSpecError):
            DeadlineSpec(timestamp_rms_ns=0)

    def test_exhaustive_rescan_agreement(self):
        rng = Random(9)
        deadlines = DeadlineSpec(safety_ns=50_000, control_ns=200_000, timestamp_rms_ns=30.0)
        records = [
            fake_record(0, rng.randint(-60, 60), latency=rng.choice([None, rng.randint(0, 300_000)]), frame_id=i)
            for i in range(200)
        ]
        misses = missed(records, deadlines)
        expected = []
        for r in records:
            if r.latency_ns is not None and r.latency_ns > 50_000:
                expected.append(("safety", r.frame_id, r.latency_ns, 50_000))
            if r.latency_ns is not None and r.latency_ns > 200_000:
                expected.append(("control", r.frame_id, r.latency_ns, 200_000))
        rms = math.sqrt(sum((r.camera_timestamp_ns - r.generated_at_ns) ** 2 for r in records) / 200)
        if rms > 30.0:
            expected.append(("timestamp", None, pytest.approx(rms), 30.0))
        assert {"safety", "control", "timestamp"} <= {kind for kind, *_ in expected}
        assert list(zip(misses.kind, misses.frame_id, misses.measured_ns, misses.budget_ns)) == expected
