"""The runner's knobs, stated once, and what each of them may shape.

:class:`RunnerSettings` is the only list of harness knobs.  An
:class:`~repro.harness.experiment.ExperimentRunner` holds one, the CLI
builds one from its flags, and every
:class:`~repro.harness.parallel.RunSpec` carries one to its pool worker.
Each field declares the one group it belongs to, and everything that has
to tell *what defines an experiment* from *how it is executed* — the disk
cache key, cacheability, the checkpoint snapshot fingerprint — is derived
from that declaration here.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.core.barrier import BarrierModel
from repro.engine.units import SimTime
from repro.faults.plan import FaultPlan
from repro.network.latency import PAPER_NETWORK
from repro.node.hostmodel import HostModelParams
from repro.node.transport import TransportConfig
from repro.obs.collector import TraceConfig


class Uncacheable(TypeError):
    """A configuration or result that cannot be stably serialized."""


def _jsonable(value: Any) -> Any:
    """Convert *value* to plain JSON types, or raise :class:`Uncacheable`.

    Floats round-trip exactly through JSON (shortest-repr encoding), so
    cached records reproduce byte-identical comparison rows.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    # Nested config dataclasses (ArrivalProfile, TierModel, ...) serialize
    # by value so they participate in cache keys like scalar parameters.
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _jsonable(dataclasses.asdict(value))
    # numpy scalars (np.int64 lengths, np.float64 draws) leak into stats.
    item = getattr(value, "item", None)
    if callable(item) and type(value).__module__.startswith("numpy"):
        return _jsonable(value.item())
    raise Uncacheable(f"cannot serialize {type(value).__name__!r} for the cache")


def _describe_component(obj: Any) -> dict:
    """Stable identity of a model object: class path + scalar parameters."""
    payload = {"class": f"{type(obj).__module__}.{type(obj).__qualname__}"}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        payload["params"] = _jsonable(dataclasses.asdict(obj))
    else:
        # Underscore attributes are derived per-run state (the service
        # workload's arrival array and query manager), not configuration:
        # identity is the public constructor surface only.
        payload["params"] = _jsonable(
            {key: value for key, value in vars(obj).items() if not key.startswith("_")}
        )
    return payload


#: What defines the experiment: enters the cache key and the snapshot key.
RESULT_SHAPING = "result-shaping"
#: Adds a per-run artefact (timeline, traffic trace, event trace) to the
#: record without changing a result bit: absent from the cache key, but a
#: record carrying one does not round-trip through the cache, and the
#: artefact's recorder is simulator state, so it is part of snapshot identity.
ARTEFACT_SHAPING = "artefact-shaping"
#: How the run is executed.  Each of these is held bit-identical to its
#: default by an acceptance gate of its own (the sanitizer only observes;
#: sharded == serial in repro.shard; native == python in
#: repro.engine.backend; restored, supervised and retried == plain in
#: repro.checkpoint), so none of them reaches a cache key or a snapshot
#: key: results computed under any of them share entries, and keys stay
#: byte-identical to what harness versions older than the knob computed.
EXECUTION_ONLY = "execution-only"


def _knob(group: str, default: Any = dataclasses.MISSING, **kwargs: Any) -> Any:
    """A :class:`RunnerSettings` field declared in *group*."""
    return field(default=default, metadata={"group": group}, **kwargs)


@dataclass(frozen=True)
class RunnerSettings:
    """Every knob of an :class:`~repro.harness.experiment.ExperimentRunner`.

    Frozen, hashable and picklable: it rides inside every ``RunSpec`` across
    the process pool, so a worker's runner is identical to the parent's.
    Every field declares its group; field order within the result- and
    artefact-shaping groups is the snapshot fingerprint's order.
    """

    seed: int = _knob(RESULT_SHAPING, 42)
    host_params: HostModelParams = _knob(RESULT_SHAPING, default_factory=HostModelParams)
    barrier: BarrierModel = _knob(RESULT_SHAPING, default_factory=BarrierModel)
    latency_factory: Callable = _knob(RESULT_SHAPING, PAPER_NETWORK)
    timeline_bucket: Optional[SimTime] = _knob(ARTEFACT_SHAPING, None)
    record_traffic: bool = _knob(ARTEFACT_SHAPING, False)
    transport: Optional[TransportConfig] = _knob(RESULT_SHAPING, None)
    #: None defers to ``REPRO_CHECK``.
    check: Optional[bool] = _knob(EXECUTION_ONLY, None)
    faults: Optional[FaultPlan] = _knob(RESULT_SHAPING, None)
    trace: Optional[TraceConfig] = _knob(ARTEFACT_SHAPING, None)
    #: Worker processes per single run (None defers to ``REPRO_SHARDS``).
    shards: Optional[int] = _knob(EXECUTION_ONLY, None)
    checkpoint_dir: Optional[str] = _knob(EXECUTION_ONLY, None)
    checkpoint_every_quanta: Optional[int] = _knob(EXECUTION_ONLY, None)
    resume: bool = _knob(EXECUTION_ONLY, False)
    run_timeout: Optional[float] = _knob(EXECUTION_ONLY, None)
    stall_timeout: Optional[float] = _knob(EXECUTION_ONLY, None)
    retries: int = _knob(EXECUTION_ONLY, 0)
    #: Engine core: "auto" (defers to ``REPRO_BACKEND``), "python", "native".
    backend: str = _knob(EXECUTION_ONLY, "auto")

    @classmethod
    @functools.cache  # read on every cache-key computation
    def knobs(cls, *groups: str) -> tuple[str, ...]:
        """Names of the fields declared in any of *groups*, in field order."""
        return tuple(
            f.name for f in dataclasses.fields(cls) if f.metadata.get("group") in groups
        )

    @property
    def cacheable(self) -> bool:
        """Traces and timelines do not round-trip through the cache: true
        only while every artefact-shaping knob is at its (off) default."""
        return all(
            getattr(self, f.name) == f.default
            for f in dataclasses.fields(self)
            if f.metadata.get("group") == ARTEFACT_SHAPING
        )

    def key_fragment(self, size: int) -> dict:
        """The runner's share of a cache key: the result-shaping group."""
        factory = self.latency_factory
        transport = None
        if self.transport is not None:
            transport = _jsonable(dataclasses.asdict(self.transport))
            if transport.get("recovery") is None:
                # Elide the absent recovery block so pre-recovery cache
                # entries (and fault-free keys in general) stay byte-
                # identical to what older harness versions computed.
                del transport["recovery"]
        # One encoding per result-shaping field, by field name: a field
        # declared result-shaping with no encoding here is a KeyError on
        # the first key computed, never a silently narrower key.
        encoded = {
            "seed": self.seed,
            "host_params": _jsonable(dataclasses.asdict(self.host_params)),
            "barrier": _describe_component(self.barrier),
            "latency_factory": {
                "factory": f"{factory.__module__}.{factory.__qualname__}",
                # Calibration probe: the minimum latency pins the PDES
                # ``T`` for this size even if the factory name collides.
                "min_latency": factory(size).min_latency(),
            },
            "transport": transport,
            "faults": (
                None if self.faults is None else _jsonable(self.faults.to_dict())
            ),
        }
        fragment = {name: encoded[name] for name in self.knobs(RESULT_SHAPING)}
        fragment["latency"] = fragment.pop("latency_factory")
        if fragment["faults"] is None:
            # Only faulted runs carry the key: fault-free payloads hash
            # exactly as they did before the fault layer existed.
            del fragment["faults"]
        return fragment

    def snapshot_key(self) -> str:
        """Fingerprint of everything that shapes simulator state.

        Names a checkpoint snapshot's configuration, so a stale snapshot
        from a different one is a plain miss rather than a wrong resume.
        The execution-only group is absent by definition (``check``, for
        one: the sanitizer is re-synthesized on restore).
        """
        factory = self.latency_factory
        values = tuple(
            getattr(factory, "__name__", type(factory).__name__)
            if name == "latency_factory"
            else getattr(self, name)
            for name in self.knobs(RESULT_SHAPING, ARTEFACT_SHAPING)
        )
        return hashlib.sha256(repr(values).encode()).hexdigest()[:16]
