"""Tests for the CPU timing model and the host execution model."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.engine import RngStreams
from repro.node import CpuModel, HostExecutionModel, HostModelParams
from repro.node.hostmodel import BUSY, IDLE, JITTER_BUFFER


class TestCpuModel:
    def test_defaults_are_paper_opteron(self):
        cpu = CpuModel()
        assert cpu.frequency_hz == pytest.approx(2.6e9)
        # 2.6e9 ops == one simulated second.
        assert cpu.compute_time(2.6e9) == 1_000_000_000

    def test_zero_ops_is_free(self):
        assert CpuModel().compute_time(0) == 0

    def test_tiny_work_rounds_up_to_1ns(self):
        assert CpuModel().compute_time(1) == 1

    def test_ipc_scales(self):
        wide = CpuModel(frequency_hz=1e9, ipc=4.0)
        narrow = CpuModel(frequency_hz=1e9, ipc=1.0)
        assert narrow.compute_time(4e9) == 4 * wide.compute_time(4e9)

    def test_ops_for_time_round_trip(self):
        cpu = CpuModel()
        ops = 1_000_000
        assert cpu.ops_for_time(cpu.compute_time(ops)) == pytest.approx(ops, rel=1e-6)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CpuModel(frequency_hz=0)
        with pytest.raises(ValueError):
            CpuModel(ipc=-1)
        with pytest.raises(ValueError):
            CpuModel().compute_time(-1)
        with pytest.raises(ValueError):
            CpuModel().ops_for_time(-1)

    @given(st.floats(min_value=0, max_value=1e12, allow_nan=False))
    def test_property_monotone(self, ops):
        cpu = CpuModel()
        assert cpu.compute_time(ops) <= cpu.compute_time(ops + 1000)


class TestHostModelParams:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            HostModelParams(busy_slowdown=0)
        with pytest.raises(ValueError):
            HostModelParams(idle_slowdown=-1)
        with pytest.raises(ValueError):
            HostModelParams(jitter_sigma=-0.1)


class TestHostExecutionModel:
    def make(self, seed=1, **kwargs):
        return HostExecutionModel(0, HostModelParams(**kwargs), RngStreams(seed))

    def test_busy_slower_than_idle_on_average(self):
        model = self.make(busy_slowdown=20, idle_slowdown=1, jitter_sigma=0.2)
        busy = model.slowdowns(500, BUSY).mean()
        idle = model.slowdowns(500, IDLE).mean()
        assert busy > 10 * idle

    def test_no_jitter_is_deterministic(self):
        model = self.make(jitter_sigma=0.0, hetero_sigma=0.0)
        assert model.slowdown(BUSY) == 20.0
        assert list(model.slowdowns(5, IDLE)) == [1.0] * 5

    def test_jitter_mean_is_unbiased(self):
        model = self.make(jitter_sigma=0.3, hetero_sigma=0.0)
        draws = model.slowdowns(20_000, BUSY)
        assert draws.mean() == pytest.approx(20.0, rel=0.02)

    def test_reproducible_given_seed(self):
        first = self.make(seed=7).slowdowns(10, BUSY)
        second = self.make(seed=7).slowdowns(10, BUSY)
        assert np.array_equal(first, second)

    def test_nodes_differ(self):
        streams = RngStreams(3)
        params = HostModelParams()
        node0 = HostExecutionModel(0, params, streams)
        node1 = HostExecutionModel(1, params, streams)
        assert node0.slowdown(BUSY) != node1.slowdown(BUSY)

    def test_scalar_and_vector_share_stream(self):
        base = self.make(seed=11)
        mixed = [base.slowdown(BUSY)] + list(base.slowdowns(3, BUSY))
        replay = list(self.make(seed=11).slowdowns(4, BUSY))
        assert mixed == pytest.approx(replay)

    def test_unknown_activity_rejected(self):
        with pytest.raises(ValueError):
            self.make().slowdown("sleeping")

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            self.make().slowdowns(-1, BUSY)

    def test_expected_max_grows_with_nodes(self):
        model = self.make(jitter_sigma=0.2)
        assert model.expected_max_slowdown(BUSY, 8) > model.expected_max_slowdown(BUSY, 2)
        assert model.expected_max_slowdown(BUSY, 1) == 20.0
        with pytest.raises(ValueError):
            model.expected_max_slowdown(BUSY, 0)

    def test_all_slowdowns_positive(self):
        model = self.make(jitter_sigma=0.5)
        assert (model.slowdowns(1000, BUSY) > 0).all()


#: One request to a host model's jitter stream: a ``slowdown_pair`` draw
#: (None) or a ``take_jitter`` count below, at or above the buffer bound.
_REQUESTS = st.one_of(
    st.none(),
    st.integers(0, JITTER_BUFFER - 1),
    st.just(JITTER_BUFFER),
    st.integers(JITTER_BUFFER + 1, 3 * JITTER_BUFFER),
)


class TestJitterStream:
    @given(
        requests=st.lists(_REQUESTS, max_size=12),
        sigma=st.sampled_from([0.0, 0.2]),
        seed=st.integers(0, 2**32),
    )
    def test_any_chunking_draws_the_values_of_one_long_draw(self, requests, sigma, seed):
        params = HostModelParams(jitter_sigma=sigma)
        model = HostExecutionModel(3, params, RngStreams(seed))
        total = sum(1 if request is None else request for request in requests)
        stream = RngStreams(seed).fresh("host-jitter[3]")
        if sigma == 0:
            reference = np.ones(total)
        else:
            reference = np.exp(stream.normal(-sigma**2 / 2, sigma, size=total))
        position = 0
        for request in requests:
            if request is None:
                jitter = reference[position] * model.node_factor
                assert model.slowdown_pair() == (
                    params.busy_slowdown * jitter,
                    params.idle_slowdown * jitter,
                )
                position += 1
            else:
                taken = model.take_jitter(request)
                assert np.array_equal(taken, reference[position : position + request])
                position += request
            assert len(model._buffer) <= JITTER_BUFFER
        if sigma == 0:
            # Zero jitter consumes no draws at all.
            assert model._rng.bit_generator.state == stream.bit_generator.state
