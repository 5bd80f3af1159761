"""Tests for accuracy aggregation, Pareto analysis, and traffic traces."""

import pytest
from hypothesis import given, strategies as st

from repro.metrics import ParetoPoint, TrafficTrace, nas_aggregate, pareto_front, relative_error
from repro.metrics.accuracy import nas_aggregate_error
from repro.metrics.pareto import distance_to_front


class TestRelativeError:
    def test_basic(self):
        assert relative_error(90, 100) == pytest.approx(0.1)
        assert relative_error(110, 100) == pytest.approx(0.1)
        assert relative_error(100, 100) == 0.0

    def test_can_exceed_one(self):
        # Time metrics can be dilated beyond 2x (paper reports 104%).
        assert relative_error(210, 100) == pytest.approx(1.1)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            relative_error(1, 0)


class TestNasAggregate:
    def test_harmonic_aggregation(self):
        assert nas_aggregate({"EP": 2.0, "IS": 2.0}) == pytest.approx(2.0)

    def test_error_requires_matching_suites(self):
        with pytest.raises(ValueError):
            nas_aggregate_error({"EP": 1.0}, {"EP": 1.0, "IS": 2.0})

    def test_error_value(self):
        config = {"EP": 50.0, "IS": 50.0}
        truth = {"EP": 100.0, "IS": 100.0}
        assert nas_aggregate_error(config, truth) == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            nas_aggregate({})


class TestPareto:
    def test_dominates(self):
        better = ParetoPoint("a", error=0.1, speedup=10)
        worse = ParetoPoint("b", error=0.2, speedup=5)
        assert better.dominates(worse)
        assert not worse.dominates(better)

    def test_equal_points_do_not_dominate(self):
        a = ParetoPoint("a", 0.1, 10)
        b = ParetoPoint("b", 0.1, 10)
        assert not a.dominates(b)
        assert not b.dominates(a)

    def test_tradeoff_points_incomparable(self):
        accurate = ParetoPoint("a", 0.01, 2)
        fast = ParetoPoint("b", 0.5, 50)
        assert not accurate.dominates(fast)
        assert not fast.dominates(accurate)

    def test_front_extraction(self):
        points = [
            ParetoPoint("slow-accurate", 0.01, 2),
            ParetoPoint("fast-sloppy", 0.5, 50),
            ParetoPoint("dominated", 0.5, 10),
            ParetoPoint("balanced", 0.1, 20),
        ]
        front = pareto_front(points)
        labels = [p.label for p in front]
        assert labels == ["slow-accurate", "balanced", "fast-sloppy"]

    def test_front_keeps_duplicates(self):
        points = [ParetoPoint("a", 0.1, 10), ParetoPoint("b", 0.1, 10)]
        assert len(pareto_front(points)) == 2

    def test_distance_zero_on_front(self):
        points = [ParetoPoint("a", 0.1, 10), ParetoPoint("b", 0.5, 50)]
        front = pareto_front(points)
        assert distance_to_front(points[0], front) == 0.0

    def test_distance_of_dominated_point(self):
        front = pareto_front([ParetoPoint("a", 0.10, 10)])
        dominated = ParetoPoint("c", 0.12, 9)
        distance = distance_to_front(dominated, front)
        assert distance == pytest.approx(max(0.02, 1 / 10))

    def test_distance_requires_front(self):
        with pytest.raises(ValueError):
            distance_to_front(ParetoPoint("a", 0.1, 1), [])

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1),
                st.floats(min_value=0.1, max_value=100),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_property_front_members_are_mutually_nondominating(self, raw):
        points = [ParetoPoint(str(i), e, s) for i, (e, s) in enumerate(raw)]
        front = pareto_front(points)
        assert front  # at least one point always survives
        for member in front:
            assert not any(other.dominates(member) for other in points)


class TestTrafficTrace:
    def fill(self, trace, count, num_nodes=4, step=100):
        for index in range(count):
            trace.record(index * step, index % num_nodes, (index + 1) % num_nodes, 1000)

    def test_records_and_counts(self):
        trace = TrafficTrace(4)
        self.fill(trace, 10)
        assert trace.total_packets == 10
        assert trace.total_bytes == 10_000
        assert len(trace.samples) == 10

    def test_thinning_bounds_memory(self):
        trace = TrafficTrace(4, max_samples=64)
        self.fill(trace, 10_000)
        assert trace.total_packets == 10_000
        assert len(trace.samples) <= 65
        # Sampling stays roughly uniform: span covered end to end.
        start, end = trace.time_span()
        assert start < 10_000 * 100 * 0.1
        assert end > 10_000 * 100 * 0.8

    def test_density_covers_span(self):
        trace = TrafficTrace(4)
        self.fill(trace, 600)
        density = trace.density(buckets=6)
        assert sum(density) == 600
        assert all(count > 50 for count in density)

    def test_busy_fraction_sparse_vs_dense(self):
        sparse = TrafficTrace(4)
        sparse.record(0, 0, 1, 10)
        sparse.record(1_000_000, 0, 1, 10)
        dense = TrafficTrace(4)
        self.fill(dense, 5000, step=10)
        assert sparse.busy_fraction() < 0.1
        assert dense.busy_fraction() > 0.9

    def test_ascii_chart_shape(self):
        trace = TrafficTrace(8)
        self.fill(trace, 100, num_nodes=8)
        chart = trace.ascii_chart(width=40, max_rows=8)
        lines = chart.splitlines()
        assert len(lines) == 9  # header + 8 node rows
        assert "|" in chart

    def test_ascii_chart_empty(self):
        assert TrafficTrace(4).ascii_chart() == "(no traffic)"

    def test_validation(self):
        with pytest.raises(ValueError):
            TrafficTrace(1)
        with pytest.raises(ValueError):
            TrafficTrace(4, max_samples=1)
        with pytest.raises(ValueError):
            TrafficTrace(4).density(0)
