"""The deterministic open-loop request feeder.

Arrival times are a pure function of an :class:`ArrivalProfile` and the
root seed: they are drawn from the dedicated ``"arrivals"`` named RNG
stream (:class:`~repro.engine.rng.RngStreams`), so the feeder can never
perturb host jitter, fault injection, or any other stream — and, like
:class:`~repro.faults.plan.FaultPlan`'s null-plan guarantee, a null
profile (``num_requests == 0``) consumes **zero** draws, so configurations
without a feeder keep byte-identical RNG histories and cache keys.

The base process is Poisson (exponential inter-arrival gaps at
``rate_per_sec``).  Two modulations compose on top of it:

* **diurnal** — a sinusoidal rate factor ``1 + A * sin(2*pi*t/period)``,
  the day/night load curve scaled down to simulated seconds;
* **bursts** — declarative :class:`BurstWindow` spans that multiply the
  rate (FaultPlan-style explicit windows: hashable, JSON round-trippable,
  and draw-free — the randomness stays in the Poisson process).

Modulated profiles are sampled by Lewis–Shedler thinning: candidates are
drawn at the peak rate and accepted with probability ``rate(t)/peak``.
Draw *counts* are part of the determinism contract: an unmodulated
profile consumes exactly one exponential draw per request (no acceptance
uniforms), and the chunk schedule is fixed, so the same profile always
consumes the same stream prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.engine.units import SECOND, SimTime

#: Name of the feeder's dedicated RNG stream (composition-insensitive:
#: adding it never shifts the draws of any other named stream).
ARRIVALS_STREAM = "arrivals"

#: Fixed draw-chunk length for thinning rounds.  Part of the determinism
#: contract: stream consumption depends only on the profile, never on the
#: caller's buffering choices.
_CHUNK = 1 << 15

#: Upper bound on thinning rounds before we declare the profile
#: unsatisfiable (acceptance mass too thin); at _CHUNK candidates per
#: round this allows hundreds of millions of candidates.
_MAX_ROUNDS = 10_000


@dataclass(frozen=True)
class BurstWindow:
    """A load burst: the arrival rate is multiplied by *factor* in
    ``[start, end)`` (simulated nanoseconds)."""

    start: SimTime
    end: SimTime
    factor: float

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"burst start must be non-negative, got {self.start}")
        if self.end <= self.start:
            raise ValueError(f"burst window [{self.start}, {self.end}) is empty")
        if self.factor <= 0:
            raise ValueError(f"burst factor must be positive, got {self.factor}")


@dataclass(frozen=True)
class ArrivalProfile:
    """A hashable, cache-key-safe description of an open-loop arrival
    process.

    Attributes:
        rate_per_sec: base Poisson arrival rate, requests per simulated
            second.
        num_requests: total requests the feeder issues (0 = null profile,
            zero RNG draws).
        diurnal_amplitude: sinusoidal rate modulation depth in [0, 1]
            (0 disables the diurnal term and its acceptance draws).
        diurnal_period: period of the diurnal sinusoid, simulated ns.
        bursts: declarative burst windows (may overlap; factors multiply).
    """

    rate_per_sec: float = 10_000.0
    num_requests: int = 1_000
    diurnal_amplitude: float = 0.0
    diurnal_period: SimTime = SECOND
    bursts: tuple[BurstWindow, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.rate_per_sec <= 0:
            raise ValueError(f"arrival rate must be positive, got {self.rate_per_sec}")
        if self.num_requests < 0:
            raise ValueError(f"num_requests must be non-negative, got {self.num_requests}")
        if not 0.0 <= self.diurnal_amplitude <= 1.0:
            raise ValueError(
                f"diurnal amplitude must lie in [0, 1], got {self.diurnal_amplitude}"
            )
        if self.diurnal_period <= 0:
            raise ValueError(f"diurnal period must be positive, got {self.diurnal_period}")
        # Normalise list inputs so profiles hash and compare by value.
        if not isinstance(self.bursts, tuple):
            object.__setattr__(self, "bursts", tuple(self.bursts))

    # -- contract helpers ------------------------------------------------ #

    def is_null(self) -> bool:
        """True when the feeder issues nothing (and draws nothing)."""
        return self.num_requests == 0

    @property
    def is_modulated(self) -> bool:
        """True when sampling needs thinning (acceptance draws)."""
        return self.diurnal_amplitude > 0.0 or bool(self.bursts)

    @property
    def peak_factor(self) -> float:
        """Upper bound of the rate modulation (thinning envelope)."""
        burst_peak = 1.0
        for burst in self.bursts:
            burst_peak = max(burst_peak, burst.factor)
        return (1.0 + self.diurnal_amplitude) * burst_peak

    @property
    def mean_gap_ns(self) -> float:
        """Mean base inter-arrival gap in simulated nanoseconds."""
        return SECOND / self.rate_per_sec

    def modulation(self, times: np.ndarray) -> np.ndarray:
        """Rate factor (relative to ``rate_per_sec``) at each time."""
        factors = np.ones(len(times), dtype=np.float64)
        if self.diurnal_amplitude > 0.0:
            phase = (2.0 * math.pi / float(self.diurnal_period)) * times
            factors *= 1.0 + self.diurnal_amplitude * np.sin(phase)
        for burst in self.bursts:
            inside = (times >= burst.start) & (times < burst.end)
            factors[inside] *= burst.factor
        return factors

    def describe(self) -> str:
        parts = [f"{self.num_requests} requests @ {self.rate_per_sec:g}/s"]
        if self.diurnal_amplitude > 0.0:
            parts.append(
                f"diurnal A={self.diurnal_amplitude:g} "
                f"period={self.diurnal_period / SECOND:g}s"
            )
        if self.bursts:
            parts.append(f"{len(self.bursts)} burst window(s)")
        return ", ".join(parts)


def draw_arrivals(profile: ArrivalProfile, rng: np.random.Generator) -> np.ndarray:
    """Sample the arrival times (int64 simulated ns, non-decreasing).

    A pure function of (profile, stream state).  A null profile returns an
    empty array without touching *rng*; an unmodulated profile consumes
    exactly ``num_requests`` exponential draws; a modulated profile
    consumes fixed-size thinning rounds (exponential + uniform pairs).
    """
    if profile.is_null():
        return np.empty(0, dtype=np.int64)
    if profile.is_modulated:
        return _draw_thinned(profile, rng)
    return _draw_homogeneous(profile, rng)


def _draw_homogeneous(profile: ArrivalProfile, rng: np.random.Generator) -> np.ndarray:
    count = profile.num_requests
    gaps = rng.exponential(scale=profile.mean_gap_ns, size=count)
    # Every gap is at least 1 ns so arrival times strictly increase; the
    # float64 cumulative sum is exact far beyond any realistic horizon.
    ticks = np.maximum(1, np.rint(gaps)).astype(np.int64)
    return np.cumsum(ticks)


def _draw_thinned(profile: ArrivalProfile, rng: np.random.Generator) -> np.ndarray:
    peak = profile.peak_factor
    peak_gap = profile.mean_gap_ns / peak
    accepted: list[np.ndarray] = []
    total = 0
    last = 0.0
    for _ in range(_MAX_ROUNDS):
        gaps = rng.exponential(scale=peak_gap, size=_CHUNK)
        uniforms = rng.random(size=_CHUNK)
        candidates = last + np.cumsum(gaps)
        keep = uniforms * peak < profile.modulation(candidates)
        kept = candidates[keep]
        if len(kept):
            accepted.append(kept)
            total += len(kept)
        last = float(candidates[-1])
        if total >= profile.num_requests:
            times = np.concatenate(accepted)[: profile.num_requests]
            return np.rint(times).astype(np.int64)
    raise ValueError(
        f"arrival profile accepted only {total}/{profile.num_requests} "
        f"candidates after {_MAX_ROUNDS} thinning rounds; the modulation "
        "suppresses the rate too strongly"
    )
