"""Deterministic, named random-number streams.

Experiments need randomness (player movement, packet jitter, workload think
times) but must be exactly reproducible.  Every consumer asks the
:class:`RngRegistry` for a stream by name; the stream's seed is derived from
the registry seed and the name, so adding a new consumer never perturbs the
sequences other consumers observe.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Sequence, TypeVar

T = TypeVar("T")


class RngStream:
    """A seeded pseudo-random stream with a small convenience API."""

    def __init__(self, seed: int, name: str = "") -> None:
        self.name = name
        self.seed = seed
        self._rng = random.Random(seed)

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in ``[low, high)``."""
        return self._rng.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` (inclusive)."""
        return self._rng.randint(low, high)

    def choice(self, options: Sequence[T]) -> T:
        """Uniformly pick one element of ``options``."""
        return self._rng.choice(options)

    def shuffle(self, items: list) -> None:
        """Shuffle ``items`` in place."""
        self._rng.shuffle(items)

    def random(self) -> float:
        """Uniform float in ``[0, 1)``."""
        return self._rng.random()

    def getrandbits(self, bits: int) -> int:
        """Return an integer with ``bits`` random bits."""
        return self._rng.getrandbits(bits)


class RngRegistry:
    """Hands out named :class:`RngStream` objects with derived seeds."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._streams: Dict[str, RngStream] = {}

    def stream(self, name: str) -> RngStream:
        """Return the stream for ``name``, creating it on first use."""
        if name not in self._streams:
            self._streams[name] = RngStream(_derive_seed(self.seed, name), name=name)
        return self._streams[name]

    def __contains__(self, name: str) -> bool:
        return name in self._streams


def _derive_seed(base_seed: int, name: str) -> int:
    """Derive a 64-bit seed from a base seed and a stream name."""
    digest = hashlib.sha256(f"{base_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")
