"""Named, reproducible random-number streams.

Every stochastic component of the simulator (per-node host jitter, workload
compute-time variation, OS noise) draws from its own stream, derived from a
single root seed and a *stable string name*.  Two properties follow:

* **Reproducibility** — the same root seed replays the whole experiment
  bit-for-bit.
* **Insensitivity to composition** — adding a new consumer (say, a disk
  model) does not shift the draws seen by existing consumers, because
  streams are keyed by name rather than by creation order.

Streams are ``numpy.random.Generator`` instances (PCG64), seeded through
``SeedSequence`` with the name folded in via a stable (non-salted) hash.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _name_key(name: str) -> int:
    """Map a stream name to a stable 64-bit integer key."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RngStreams:
    """A factory of named random streams sharing one root seed."""

    def __init__(self, root_seed: int) -> None:
        if not 0 <= root_seed < 2**63:
            raise ValueError("root seed must fit in a non-negative 63-bit integer")
        self.root_seed = root_seed
        self._cache: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for *name*, creating it on first use.

        Repeated calls with the same name return the *same* generator object,
        so a component that re-fetches its stream continues its sequence
        rather than restarting it.
        """
        generator = self._cache.get(name)
        if generator is None:
            sequence = np.random.SeedSequence([self.root_seed, _name_key(name)])
            generator = np.random.Generator(np.random.PCG64(sequence))
            self._cache[name] = generator
        return generator

    def spawn(self, name: str, index: int) -> np.random.Generator:
        """Return the generator for an indexed family member, e.g. per node."""
        return self.stream(f"{name}[{index}]")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStreams(root_seed={self.root_seed}, streams={sorted(self._cache)})"
