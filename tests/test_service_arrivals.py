"""Tests for the deterministic open-loop arrival feeder."""

import numpy as np
import pytest

from repro.engine.rng import RngStreams
from repro.engine.units import MILLISECOND
from repro.service import (
    ARRIVALS_STREAM,
    ArrivalProfile,
    BurstWindow,
    draw_arrivals,
)


def stream(seed=42):
    return RngStreams(seed).stream(ARRIVALS_STREAM)


class TestValidation:
    def test_profile_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ArrivalProfile(rate_per_sec=0)
        with pytest.raises(ValueError):
            ArrivalProfile(num_requests=-1)
        with pytest.raises(ValueError):
            ArrivalProfile(diurnal_amplitude=1.5)
        with pytest.raises(ValueError):
            ArrivalProfile(diurnal_period=0)

    def test_burst_rejects_bad_windows(self):
        with pytest.raises(ValueError):
            BurstWindow(start=-1, end=10, factor=2.0)
        with pytest.raises(ValueError):
            BurstWindow(start=10, end=10, factor=2.0)
        with pytest.raises(ValueError):
            BurstWindow(start=0, end=10, factor=0.0)


class TestProfileIdentity:
    def test_hashable_and_compares_by_value(self):
        a = ArrivalProfile(bursts=(BurstWindow(0, MILLISECOND, 2.0),))
        b = ArrivalProfile(bursts=[BurstWindow(0, MILLISECOND, 2.0)])
        assert a == b
        assert hash(a) == hash(b)
        assert a in {b}

    def test_describe_mentions_modulation(self):
        plain = ArrivalProfile()
        assert "diurnal" not in plain.describe()
        modulated = ArrivalProfile(
            diurnal_amplitude=0.5, bursts=(BurstWindow(0, MILLISECOND, 2.0),)
        )
        assert "diurnal" in modulated.describe()
        assert "burst" in modulated.describe()


class TestDeterminism:
    def test_same_profile_same_seed_identical(self):
        profile = ArrivalProfile(num_requests=500)
        first = draw_arrivals(profile, stream())
        second = draw_arrivals(profile, stream())
        assert np.array_equal(first, second)

    def test_modulated_profile_identical(self):
        profile = ArrivalProfile(
            num_requests=500,
            diurnal_amplitude=0.5,
            diurnal_period=10 * MILLISECOND,
            bursts=(BurstWindow(MILLISECOND, 5 * MILLISECOND, 3.0),),
        )
        assert np.array_equal(
            draw_arrivals(profile, stream()), draw_arrivals(profile, stream())
        )

    def test_seed_changes_arrivals(self):
        profile = ArrivalProfile(num_requests=500)
        assert not np.array_equal(
            draw_arrivals(profile, stream(1)), draw_arrivals(profile, stream(2))
        )

    def test_null_profile_consumes_zero_draws(self):
        # FaultPlan-style guarantee: a disabled feeder leaves the stream
        # byte-identical to one that was never touched.
        rng = stream()
        arrivals = draw_arrivals(ArrivalProfile(num_requests=0), rng)
        assert len(arrivals) == 0
        untouched = stream()
        assert np.array_equal(rng.random(16), untouched.random(16))

    def test_homogeneous_draw_count_is_exact(self):
        # The unmodulated path consumes exactly num_requests exponential
        # draws — part of the determinism contract (stream consumption is
        # a function of the profile alone).
        count = 257
        rng = stream()
        draw_arrivals(ArrivalProfile(num_requests=count), rng)
        reference = stream()
        reference.exponential(size=count)
        assert np.array_equal(rng.random(16), reference.random(16))


class TestArrivalShape:
    def test_strictly_increasing_int64(self):
        arrivals = draw_arrivals(ArrivalProfile(num_requests=1_000), stream())
        assert arrivals.dtype == np.int64
        assert len(arrivals) == 1_000
        assert np.all(np.diff(arrivals) >= 1)

    def test_mean_gap_tracks_rate(self):
        profile = ArrivalProfile(rate_per_sec=100_000.0, num_requests=5_000)
        arrivals = draw_arrivals(profile, stream())
        mean_gap = float(np.diff(arrivals).mean())
        assert mean_gap == pytest.approx(profile.mean_gap_ns, rel=0.1)

    def test_modulated_length_and_order(self):
        profile = ArrivalProfile(
            num_requests=800,
            diurnal_amplitude=0.5,
            diurnal_period=20 * MILLISECOND,
        )
        arrivals = draw_arrivals(profile, stream())
        assert len(arrivals) == 800
        assert np.all(np.diff(arrivals) >= 0)

    def test_burst_concentrates_arrivals(self):
        window = BurstWindow(40 * MILLISECOND, 50 * MILLISECOND, 4.0)
        profile = ArrivalProfile(
            rate_per_sec=20_000.0, num_requests=2_000, bursts=(window,)
        )
        arrivals = draw_arrivals(profile, stream())
        horizon = int(arrivals[-1])
        assert horizon > window.end
        inside = int(
            np.count_nonzero((arrivals >= window.start) & (arrivals < window.end))
        )
        outside = len(arrivals) - inside
        density_in = inside / (window.end - window.start)
        density_out = outside / (horizon - (window.end - window.start))
        # 4x rate inside the window: the density ratio must clearly
        # reflect the burst (loose bound; the draw is random but fixed).
        assert density_in / density_out > 2.0

    def test_unsatisfiable_modulation_raises(self, monkeypatch):
        # A burst that suppresses essentially all acceptance mass makes
        # thinning spin; the guard reports instead of looping forever.
        # The round bound is patched down so the test stays fast.
        from repro.service import arrivals as arrivals_module

        monkeypatch.setattr(arrivals_module, "_MAX_ROUNDS", 3)
        profile = ArrivalProfile(
            rate_per_sec=10_000.0,
            num_requests=100,
            # A near-zero rate factor over an enormous window rejects
            # virtually every candidate the bounded rounds can produce.
            bursts=(BurstWindow(0, 10**18, 1e-12),),
        )
        with pytest.raises(ValueError, match="thinning"):
            draw_arrivals(profile, stream())
