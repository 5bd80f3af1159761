"""RunnerSettings: every knob sits in one group, and shapes what it says.

One test per field instead of one per knob author: a new field with no
group, or with no sample value below, fails here — which is what replaces a
reviewer remembering to write another "X never enters key_fragment" test.
The golden-hash and ``faults``/``recovery`` elision tests live with their
layers (``test_service_workload``, ``test_engine_backend``, ``test_faults``).
"""

import dataclasses
import json
import pickle

import pytest

from repro.core.barrier import BarrierModel
from repro.engine.units import MICROSECOND
from repro.faults.plan import FaultPlan
from repro.harness.configs import ground_truth_policy
from repro.harness.experiment import ExperimentRunner
from repro.harness.parallel import DiskResultCache, RunSpec
from repro.harness.settings import (
    ARTEFACT_SHAPING,
    EXECUTION_ONLY,
    RESULT_SHAPING,
    RunnerSettings,
)
from repro.network.latency import UniformLatencyModel
from repro.node.hostmodel import HostModelParams
from repro.node.transport import RecoveryConfig, TransportConfig
from repro.obs.collector import TraceConfig
from repro.workloads import IsWorkload

GROUPS = (RESULT_SHAPING, ARTEFACT_SHAPING, EXECUTION_ONLY)
FIELDS = dataclasses.fields(RunnerSettings)


def uniform_network(num_nodes: int) -> UniformLatencyModel:
    return UniformLatencyModel(fixed=3 * MICROSECOND)


#: Non-default values per field (every one of them must differ from the
#: field's default).  A new field needs an entry, or the coverage test fails.
NON_DEFAULT = {
    "seed": [7],
    "host_params": [HostModelParams(busy_slowdown=21.0)],
    "barrier": [BarrierModel.free()],
    "latency_factory": [uniform_network],
    "transport": [
        TransportConfig(),
        TransportConfig(window_bytes=8192),
        TransportConfig(recovery=RecoveryConfig()),
    ],
    "faults": [FaultPlan(), FaultPlan(drop_rate=0.01)],
    "timeline_bucket": [1000 * MICROSECOND],
    "record_traffic": [True],
    "trace": [TraceConfig()],
    "check": [True, False],
    "shards": [1, 4],
    "backend": ["python", "native"],
    "checkpoint_dir": ["/tmp/ckpt"],
    "checkpoint_every_quanta": [4],
    "resume": [True],
    "run_timeout": [3600.0],
    "stall_timeout": [300.0],
    "retries": [5],
}


def declared_group(field: dataclasses.Field) -> str:
    group = field.metadata.get("group")
    assert group in GROUPS, (
        f"RunnerSettings.{field.name} declares no group: say whether it is "
        f"result-shaping, artefact-shaping or execution-only"
    )
    return group


def keys(settings: RunnerSettings) -> dict:
    """Everything that is derived from the group declaration."""
    spec = RunSpec(IsWorkload(), 8, ground_truth_policy().build(), "1", settings)
    payload = spec.key_payload()
    return {
        "fragments": [
            json.dumps(settings.key_fragment(size), sort_keys=True)
            for size in (2, 4, 8, 64)
        ],
        "payload": json.dumps(payload, sort_keys=True),
        "cache_key": DiskResultCache.key_of(payload),
        "snapshot_key": settings.snapshot_key(),
        "cacheable": settings.cacheable,
    }


def test_groups_partition_the_fields():
    names = [f.name for f in FIELDS]
    grouped = [name for group in GROUPS for name in RunnerSettings.knobs(group)]
    assert sorted(grouped) == sorted(names)  # each field once: no gap, no overlap
    assert set(NON_DEFAULT) == set(names), "give every field a sample value"


def test_an_ungrouped_field_is_refused():
    @dataclasses.dataclass(frozen=True)
    class Nineteen(RunnerSettings):
        nineteenth: int = 0

    with pytest.raises(AssertionError, match="nineteenth declares no group"):
        declared_group(dataclasses.fields(Nineteen)[-1])


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_knob_shapes_exactly_what_its_group_says(field):
    group = declared_group(field)
    plain = keys(RunnerSettings())
    assert plain["cacheable"]
    for value in NON_DEFAULT[field.name]:
        assert value != field.default
        knobbed = keys(RunnerSettings(**{field.name: value}))
        if group == EXECUTION_ONLY:
            # Byte-identical everywhere: cache entries and snapshots are
            # shared across every way of executing the same experiment.
            assert knobbed == plain, (field.name, value)
        elif group == RESULT_SHAPING:
            for derived in ("payload", "cache_key", "snapshot_key"):
                assert knobbed[derived] != plain[derived], (field.name, value, derived)
            assert all(a != b for a, b in zip(knobbed["fragments"], plain["fragments"]))
            assert knobbed["cacheable"]
        else:
            # Observes only: hashes exactly as the plain run, but its
            # record cannot be cached and its recorder is snapshot state.
            assert not knobbed["cacheable"], (field.name, value)
            assert knobbed["snapshot_key"] != plain["snapshot_key"]
            for derived in ("fragments", "payload", "cache_key"):
                assert knobbed[derived] == plain[derived], (field.name, value, derived)


def test_all_execution_only_knobs_at_once_leave_every_key_unchanged():
    everything = {
        name: NON_DEFAULT[name][-1] for name in RunnerSettings.knobs(EXECUTION_ONLY)
    }
    assert keys(RunnerSettings(**everything)) == keys(RunnerSettings())
    # With a non-default experiment underneath, too.
    base = RunnerSettings(seed=3, transport=TransportConfig(window_bytes=8192))
    assert keys(dataclasses.replace(base, **everything)) == keys(base)


def test_settings_stay_frozen_hashable_and_picklable():
    settings = RunnerSettings(seed=3, backend="python", trace=TraceConfig())
    with pytest.raises(dataclasses.FrozenInstanceError):
        settings.seed = 4
    assert hash(settings) == hash(dataclasses.replace(settings))
    assert pickle.loads(pickle.dumps(settings)) == settings


class TestRunnerHoldsOneSettingsObject:
    def test_keywords_settings_and_both(self):
        by_keyword = ExperimentRunner(seed=7, check=True)
        assert by_keyword.settings == RunnerSettings(seed=7, check=True)
        by_settings = ExperimentRunner(by_keyword.settings)
        assert by_settings.settings == by_keyword.settings
        derived = type(by_settings)(by_settings.settings, record_traffic=True)
        assert derived.settings == RunnerSettings(
            seed=7, check=True, record_traffic=True
        )

    def test_unknown_knob_is_the_dataclass_type_error(self):
        with pytest.raises(TypeError, match="no_such_knob"):
            ExperimentRunner(no_such_knob=1)
