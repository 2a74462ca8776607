"""Deterministic named random streams for the cloud simulator.

Every stochastic component of the simulated substrate (cold-start latency,
scheduling jitter, OS noise, storage latency) draws from its own named stream
so that adding a new source of randomness never perturbs existing ones, and
experiments are exactly reproducible for a given master seed.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Dict

import numpy as np


@lru_cache(maxsize=65536)
def _derived_seed(seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def derive_stream_seed(seed: int, name: str) -> int:
    """The substream seed for ``name`` under master ``seed``.

    Hash-derived so that streams are independent and adding a new named
    stream never perturbs the draws of existing ones.  The SHA-256 digests
    are memoized: recurring stream names (cold starts, storage keys, arrival
    streams) are re-derived on every platform construction, and the digest
    is a pure function of ``(seed, name)``.
    """
    return _derived_seed(int(seed), name)


#: Bound of the PCG64 seed-state memo.  Most repeats are short-range: the
#: seed-0 ``figures --all`` plan creates 39.7k streams over 26.7k distinct
#: derived seeds, and 2048 entries catch 10.7k of its 13.0k repeats.  The
#: rest recur ~10k streams apart and would cost ~3 MiB of resident memory.
_SEED_STATE_MEMO_SIZE = 2048


@lru_cache(maxsize=_SEED_STATE_MEMO_SIZE)
def _pcg64_seed_state(derived_seed: int) -> bytes:
    """The four 64-bit words ``SeedSequence`` feeds PCG64 for ``derived_seed``."""
    return np.random.SeedSequence(derived_seed).generate_state(4, np.uint64).tobytes()


@lru_cache(maxsize=1)
def _memoized_seed_type() -> type:
    # Built on first use: importing ``numpy.random.bit_generator`` at module
    # scope would load ``numpy.random`` into processes that never simulate.
    from numpy.random.bit_generator import ISeedSequence

    class _MemoizedSeedState(ISeedSequence):
        """Hands PCG64 a memoized ``SeedSequence`` state without re-hashing."""

        __slots__ = ("_derived_seed",)

        def __init__(self, derived_seed: int) -> None:
            self._derived_seed = derived_seed

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words == 4 and dtype is np.uint64:  # PCG64's request
                return np.frombuffer(_pcg64_seed_state(self._derived_seed), np.uint64)
            return np.random.SeedSequence(self._derived_seed).generate_state(n_words, dtype)

    return _MemoizedSeedState


def named_stream(seed: int, name: str) -> np.random.Generator:
    """A fresh, deterministically seeded generator for one named stream.

    The free-function twin of :meth:`RandomStreams.stream` for code that
    holds a seed but no stream family -- benchmark dataset synthesis, for
    example.  Same derivation, so ``named_stream(s, n)`` and
    ``RandomStreams(s).stream(n)`` produce identical draws.

    The draws equal ``np.random.default_rng(derive_stream_seed(seed, name))``;
    the ``SeedSequence`` hashing behind that seeding is memoized per derived
    seed, so a recurring stream only pays for the generator itself.
    """
    seed_state = _memoized_seed_type()(derive_stream_seed(seed, name))
    return np.random.Generator(np.random.PCG64(seed_state))


class RandomStreams:
    """A family of independent, deterministically seeded numpy generators."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the generator for ``name``."""
        if name not in self._streams:
            self._streams[name] = named_stream(self._seed, name)
        return self._streams[name]

    # Convenience wrappers used throughout the simulator -----------------------
    def uniform(self, name: str, low: float, high: float) -> float:
        if high < low:
            raise ValueError("uniform bounds reversed")
        return float(self.stream(name).uniform(low, high))

    def lognormal_around(self, name: str, median: float, sigma: float = 0.25) -> float:
        """A positive sample whose median is ``median`` (latency-style distribution)."""
        if median <= 0:
            return 0.0
        return float(median * np.exp(self.stream(name).normal(0.0, sigma)))

    def exponential(self, name: str, mean: float) -> float:
        if mean <= 0:
            return 0.0
        return float(self.stream(name).exponential(mean))

    def choice_bool(self, name: str, probability_true: float) -> bool:
        return bool(self.stream(name).random() < probability_true)

    def integers(self, name: str, low: int, high: int) -> int:
        return int(self.stream(name).integers(low, high))
