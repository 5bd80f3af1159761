"""Tests for quantum policies (Algorithm 1), barrier model, and stats."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    AdaptiveQuantumPolicy,
    AimdQuantumPolicy,
    BarrierModel,
    BucketTimeline,
    FixedQuantumPolicy,
    HostCostBreakdown,
    QuantumPolicy,
    QuantumStats,
)
from repro.engine.units import MICROSECOND


US = MICROSECOND


class TestFixedPolicy:
    def test_constant(self):
        policy = FixedQuantumPolicy(10 * US)
        q = policy.initial()
        assert q == 10 * US
        assert policy.next(q, 0) == 10 * US
        assert policy.next(q, 500) == 10 * US

    def test_idle_chunk_counts(self):
        policy = FixedQuantumPolicy(10)
        lengths, state = policy.idle_chunk(10.0, span=95, max_windows=100)
        assert list(lengths) == [10] * 9
        assert state == 10.0

    def test_idle_chunk_respects_max_windows(self):
        policy = FixedQuantumPolicy(10)
        lengths, _ = policy.idle_chunk(10.0, span=1000, max_windows=3)
        assert len(lengths) == 3

    def test_describe(self):
        assert FixedQuantumPolicy(US).describe() == "fixed 1.000us"


class TestAdaptivePolicy:
    def make(self, inc=1.03, dec=0.02):
        return AdaptiveQuantumPolicy(US, 1000 * US, inc=inc, dec=dec)

    def test_starts_at_minimum(self):
        assert self.make().initial() == US

    def test_algorithm1_grow_on_silence(self):
        policy = self.make()
        assert policy.next(1000.0, 0) == pytest.approx(1030.0)

    def test_algorithm1_shrink_on_traffic(self):
        policy = self.make()
        q = policy.next(500_000.0, 1)
        assert q == pytest.approx(10_000.0)
        # One more busy quantum floors it (the "speed bump").
        assert policy.next(q, 7) == pytest.approx(US)  # clamped at min

    def test_clamped_at_max(self):
        policy = self.make()
        q = float(1000 * US)
        assert policy.next(q, 0) == 1000 * US

    def test_clamped_at_min(self):
        policy = self.make()
        assert policy.next(float(US), 100) == US

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AdaptiveQuantumPolicy(US, 1000 * US, inc=1.0)
        with pytest.raises(ValueError):
            AdaptiveQuantumPolicy(US, 1000 * US, dec=0.0)
        with pytest.raises(ValueError):
            AdaptiveQuantumPolicy(US, 1000 * US, dec=1.0)
        with pytest.raises(ValueError):
            AdaptiveQuantumPolicy(0, 1000)
        with pytest.raises(ValueError):
            AdaptiveQuantumPolicy(1000, 10)

    @given(
        st.floats(min_value=1000, max_value=1_000_000),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_property_always_in_bounds(self, q, np_count):
        policy = self.make()
        next_q = policy.next(q, np_count)
        assert US <= next_q <= 1000 * US

    @settings(max_examples=50)
    @given(
        st.floats(min_value=1000, max_value=900_000),
        st.integers(min_value=1, max_value=500_000),
        st.integers(min_value=1, max_value=64),
    )
    def test_property_idle_chunk_matches_iteration(self, q0, span, max_windows):
        """The vectorised idle path must equal iterating Algorithm 1."""
        policy = self.make()
        lengths, final_state = policy.idle_chunk(q0, span, max_windows)
        expected, state = QuantumPolicy.idle_chunk(policy, q0, span, max_windows)
        assert list(lengths) == list(expected)
        assert final_state == pytest.approx(state, rel=1e-9)

    def test_idle_chunk_empty_when_window_does_not_fit(self):
        policy = self.make()
        lengths, state = policy.idle_chunk(10_000.0, span=5_000, max_windows=10)
        assert len(lengths) == 0
        assert state == 10_000.0


class TestAblationPolicies:
    def test_aimd_grows_additively(self):
        policy = AimdQuantumPolicy(US, 1000 * US, step=500)
        assert policy.next(5_000.0, 0) == 5_500.0
        assert policy.next(5_000.0, 3) == pytest.approx(US)

    def test_aimd_idle_chunk_matches_iteration(self):
        policy = AimdQuantumPolicy(US, 1000 * US, step=777)
        lengths, final_state = policy.idle_chunk(1_000.0, span=100_000, max_windows=50)
        expected, state = QuantumPolicy.idle_chunk(policy, 1_000.0, 100_000, 50)
        assert list(lengths) == list(expected)
        assert final_state == pytest.approx(state)

    def test_invalid(self):
        with pytest.raises(ValueError):
            AimdQuantumPolicy(US, 1000 * US, step=0)


def _policies():
    """A Fixed, Adaptive or AIMD policy and a quantum state it can be in."""
    low = st.integers(min_value=1, max_value=20_000)
    fixed = low.map(lambda q: (FixedQuantumPolicy(q), float(q)))
    ranged = st.tuples(low, st.integers(min_value=1, max_value=2_000))
    adaptive = st.builds(
        lambda bounds, inc, dec: AdaptiveQuantumPolicy(
            bounds[0], bounds[0] * bounds[1], inc=inc, dec=dec
        ),
        ranged,
        st.floats(min_value=1.001, max_value=3.0),
        st.floats(min_value=0.01, max_value=0.99),
    )
    aimd = st.builds(
        lambda bounds, step: AimdQuantumPolicy(bounds[0], bounds[0] * bounds[1], step=step),
        ranged,
        st.integers(min_value=1, max_value=50_000),
    )
    in_range = st.one_of(adaptive, aimd).flatmap(
        lambda policy: st.tuples(
            st.just(policy),
            st.floats(min_value=float(policy.min_quantum), max_value=float(policy.max_quantum)),
        )
    )
    return st.one_of(fixed, in_range)


class TestIdleChunkClosedForms:
    """Each policy's closed-form ``idle_chunk`` against the base class's
    reference, which iterates :meth:`QuantumPolicy.next` window by window."""

    @settings(max_examples=300)
    @given(
        _policies(),
        st.integers(min_value=0, max_value=5_000_000),
        st.integers(min_value=0, max_value=200),
    )
    def test_matches_the_iterating_reference(self, drawn, span, max_windows):
        policy, state = drawn
        lengths, final_state = policy.idle_chunk(state, span, max_windows)
        expected, expected_state = QuantumPolicy.idle_chunk(policy, state, span, max_windows)
        assert lengths.dtype == expected.dtype == np.int64
        assert lengths.tolist() == expected.tolist()
        assert final_state == pytest.approx(expected_state, rel=1e-12, abs=0)


class TestBarrierModel:
    def test_linear_in_nodes(self):
        barrier = BarrierModel(base=1e-3, per_node=1e-4)
        assert barrier.overhead(8) == pytest.approx(1.8e-3)
        assert barrier.overhead(64) - barrier.overhead(8) == pytest.approx(5.6e-3)

    def test_free_barrier(self):
        assert BarrierModel.free().overhead(100) == 0.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            BarrierModel(base=-1)
        with pytest.raises(ValueError):
            BarrierModel().overhead(0)


class TestQuantumStats:
    def test_record_scalar(self):
        stats = QuantumStats()
        stats.record(10)
        stats.record(30)
        stats.record(20, count=2)
        assert stats.quanta == 4
        assert stats.total_quantum_time == 80
        assert stats.min_used == 10
        assert stats.max_used == 30
        assert stats.mean_quantum == 20

    def test_record_lengths(self):
        stats = QuantumStats()
        stats.record_lengths(np.array([5, 50, 10], dtype=np.int64))
        stats.record_lengths(np.empty(0, dtype=np.int64))
        assert stats.quanta == 3
        assert stats.min_used == 5
        assert stats.max_used == 50

    def test_empty(self):
        assert QuantumStats().mean_quantum == 0.0


class TestHostCostBreakdown:
    def test_accumulates(self):
        breakdown = HostCostBreakdown()
        breakdown.add(2.0, 1.0)
        breakdown.add(1.0, 0.0)
        assert breakdown.total == 4.0
        assert breakdown.barrier_fraction == 0.25

    def test_empty_fraction(self):
        assert HostCostBreakdown().barrier_fraction == 0.0


class TestBucketTimeline:
    def test_add_accumulates_per_bucket(self):
        timeline = BucketTimeline(100)
        timeline.add(5, 1.0)
        timeline.add(50, 2.0)
        timeline.add(150, 4.0)
        assert timeline.series() == [(0, 3.0), (100, 4.0)]
        assert timeline.total_host_time == 7.0
        assert len(timeline) == 2

    def test_add_span_distributes_proportionally(self):
        timeline = BucketTimeline(100)
        timeline.add_span(50, 250, 4.0)  # 25% / 50% / 25%
        series = dict(timeline.series())
        assert series[0] == pytest.approx(1.0)
        assert series[100] == pytest.approx(2.0)
        assert series[200] == pytest.approx(1.0)

    def test_add_span_degenerate(self):
        timeline = BucketTimeline(100)
        timeline.add_span(70, 70, 3.0)
        assert timeline.series() == [(0, 3.0)]

    def test_speedup_series(self):
        timeline = BucketTimeline(1_000_000)  # 1 ms buckets
        timeline.add(0, 0.002)  # 2 host-seconds per sim-second
        timeline.add(1_000_000, 0.0005)
        series = timeline.speedup_series(baseline_host_per_sim_second=2.0)
        assert series[0] == (0, pytest.approx(1.0))
        assert series[1] == (1_000_000, pytest.approx(4.0))

    def test_invalid(self):
        with pytest.raises(ValueError):
            BucketTimeline(0)
        timeline = BucketTimeline(10)
        with pytest.raises(ValueError):
            timeline.add(0, -1.0)
        with pytest.raises(ValueError):
            timeline.speedup_series(0.0)
