"""Deterministic named random streams for the cloud simulator.

Every stochastic component of the simulated substrate (cold-start latency,
scheduling jitter, OS noise, storage latency) draws from its own named stream
so that adding a new source of randomness never perturbs existing ones, and
experiments are exactly reproducible for a given master seed.
"""

from __future__ import annotations

import hashlib
import struct
from functools import lru_cache
from typing import Dict

import numpy as np


def derive_stream_seed(seed: int, name: str) -> int:
    """The substream seed for ``name`` under master ``seed``.

    Hash-derived so that streams are independent and adding a new named
    stream never perturbs the draws of existing ones.  The first eight bytes
    of a SHA-256 digest, so every derived seed lies in ``[0, 2**64)``.
    """
    digest = hashlib.sha256(f"{int(seed)}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


#: Bound of the PCG64 seed-state memo.  The seed-0 ``figures --all`` plan
#: creates 39.7k streams over 26.7k distinct derived seeds; 2048 entries
#: (~460 KiB, ~230 B an entry under tracemalloc) catch 10.7k of its 13.0k
#: repeats.  Catching the other 2.3k takes 16k entries (~3.7 MiB) to save
#: 2.3k recomputations of ~8 us each.
_SEED_STATE_MEMO_SIZE = 2048

_pack_state = struct.Struct("=4Q").pack


@lru_cache(maxsize=_SEED_STATE_MEMO_SIZE)
def _pcg64_seed_state(derived_seed: int) -> bytes:
    """The four 64-bit words ``SeedSequence`` feeds PCG64 for ``derived_seed``.

    Equals ``np.random.SeedSequence(derived_seed).generate_state(4,
    np.uint64).tobytes()``, computed in straight-line integer code for a seed
    in ``[0, 2**64)``: its entropy is at most two uint32 words, so numpy's
    loops unroll into the 16 ``hashmix`` steps of ``mix_entropy`` (4 over the
    pool, 12 cross-mixing it) and the 8 output ``hashmix`` steps.  A
    ``hashmix`` step xors a word with the current hash constant, multiplies
    it by the next one (mod 2**32) and xorshifts it right by 16.  Every
    hash constant ``INIT_A * MULT_A**k`` and ``INIT_B * MULT_B**k`` (mod
    2**32) is folded into a literal, as are pool words 2 and 3, which only
    zero entropy feeds.  The output words pair little-endian into uint64
    values packed in native byte order, as numpy's
    ``astype('<u4').view('<u8').astype(np.uint64)`` leaves them.  Any other
    seed goes to numpy.
    """
    if not 0 <= derived_seed < 1 << 64:
        return np.random.SeedSequence(derived_seed).generate_state(4, np.uint64).tobytes()
    # mix_entropy: hashmix the two entropy words into pool words 0 and 1.
    p0 = ((derived_seed & 0xFFFFFFFF) ^ 0x43B0D7E5) * 0xAE5A53A9 & 0xFFFFFFFF
    p0 ^= p0 >> 16
    p1 = ((derived_seed >> 32) ^ 0xAE5A53A9) * 0x8488043D & 0xFFFFFFFF
    p1 ^= p1 >> 16
    # Cross-mix each pool word into the other three: x = mix(x, hashmix(y)),
    # mix(x, h) = MIX_MULT_L * x - MIX_MULT_R * h, then xorshifted.  Pool
    # words 2 and 3 enter as the constants hashmix(0) leaves them.
    h = (p0 ^ 0x9205B1D5) * 0xE9096E59 & 0xFFFFFFFF
    p1 = (0xCA01F9DD * p1 - 0x4973F715 * (h ^ h >> 16)) & 0xFFFFFFFF
    p1 ^= p1 >> 16
    h = (p0 ^ 0xE9096E59) * 0x8D5CB6AD & 0xFFFFFFFF
    p2 = (0xCA01F9DD * 0x894CFDD1 - 0x4973F715 * (h ^ h >> 16)) & 0xFFFFFFFF
    p2 ^= p2 >> 16
    h = (p0 ^ 0x8D5CB6AD) * 0x9BB16511 & 0xFFFFFFFF
    p3 = (0xCA01F9DD * 0x30409F75 - 0x4973F715 * (h ^ h >> 16)) & 0xFFFFFFFF
    p3 ^= p3 >> 16
    h = (p1 ^ 0x9BB16511) * 0x00C238C5 & 0xFFFFFFFF
    p0 = (0xCA01F9DD * p0 - 0x4973F715 * (h ^ h >> 16)) & 0xFFFFFFFF
    p0 ^= p0 >> 16
    h = (p1 ^ 0x00C238C5) * 0x4D029A09 & 0xFFFFFFFF
    p2 = (0xCA01F9DD * p2 - 0x4973F715 * (h ^ h >> 16)) & 0xFFFFFFFF
    p2 ^= p2 >> 16
    h = (p1 ^ 0x4D029A09) * 0xCC132E1D & 0xFFFFFFFF
    p3 = (0xCA01F9DD * p3 - 0x4973F715 * (h ^ h >> 16)) & 0xFFFFFFFF
    p3 ^= p3 >> 16
    h = (p2 ^ 0xCC132E1D) * 0x83A97B41 & 0xFFFFFFFF
    p0 = (0xCA01F9DD * p0 - 0x4973F715 * (h ^ h >> 16)) & 0xFFFFFFFF
    p0 ^= p0 >> 16
    h = (p2 ^ 0x83A97B41) * 0xFA8DDCB5 & 0xFFFFFFFF
    p1 = (0xCA01F9DD * p1 - 0x4973F715 * (h ^ h >> 16)) & 0xFFFFFFFF
    p1 ^= p1 >> 16
    h = (p2 ^ 0xFA8DDCB5) * 0xAC4C06B9 & 0xFFFFFFFF
    p3 = (0xCA01F9DD * p3 - 0x4973F715 * (h ^ h >> 16)) & 0xFFFFFFFF
    p3 ^= p3 >> 16
    h = (p3 ^ 0xAC4C06B9) * 0x26FF5A8D & 0xFFFFFFFF
    p0 = (0xCA01F9DD * p0 - 0x4973F715 * (h ^ h >> 16)) & 0xFFFFFFFF
    p0 ^= p0 >> 16
    h = (p3 ^ 0x26FF5A8D) * 0x0E554A71 & 0xFFFFFFFF
    p1 = (0xCA01F9DD * p1 - 0x4973F715 * (h ^ h >> 16)) & 0xFFFFFFFF
    p1 ^= p1 >> 16
    h = (p3 ^ 0x0E554A71) * 0x78C50DA5 & 0xFFFFFFFF
    p2 = (0xCA01F9DD * p2 - 0x4973F715 * (h ^ h >> 16)) & 0xFFFFFFFF
    p2 ^= p2 >> 16
    # generate_state: eight output words, hashmixed with the B constants
    # and paired little-endian into uint64.
    w0 = (p0 ^ 0x8B51F9DD) * 0x464A0A99 & 0xFFFFFFFF
    w1 = (p1 ^ 0x464A0A99) * 0x819D14A5 & 0xFFFFFFFF
    w2 = (p2 ^ 0x819D14A5) * 0xD369FDC1 & 0xFFFFFFFF
    w3 = (p3 ^ 0xD369FDC1) * 0x501638AD & 0xFFFFFFFF
    w4 = (p0 ^ 0x501638AD) * 0xA600C129 & 0xFFFFFFFF
    w5 = (p1 ^ 0xA600C129) * 0x8B0167F5 & 0xFFFFFFFF
    w6 = (p2 ^ 0x8B0167F5) * 0x5C1E2ED1 & 0xFFFFFFFF
    w7 = (p3 ^ 0x5C1E2ED1) * 0x301D747D & 0xFFFFFFFF
    return _pack_state(
        w0 ^ w0 >> 16 | (w1 ^ w1 >> 16) << 32,
        w2 ^ w2 >> 16 | (w3 ^ w3 >> 16) << 32,
        w4 ^ w4 >> 16 | (w5 ^ w5 >> 16) << 32,
        w6 ^ w6 >> 16 | (w7 ^ w7 >> 16) << 32,
    )


@lru_cache(maxsize=1)
def _memoized_seed_type() -> type:
    # Built on first use: importing ``numpy.random.bit_generator`` at module
    # scope would load ``numpy.random`` into processes that never simulate.
    from numpy.random.bit_generator import ISeedSequence

    class _MemoizedSeedState(ISeedSequence):
        """Hands PCG64 the ``SeedSequence`` state of :func:`_pcg64_seed_state`."""

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

    The draws equal ``np.random.default_rng(derive_stream_seed(seed, name))``
    without building numpy's ``SeedSequence``: the seed digest is recomputed
    on every call, and the PCG64 state is ported to integer code and kept in
    a small memo, so a recurring stream pays only for the digest and the
    generator itself.
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
        if sigma < 0:  # numpy's ``normal`` rejected a negative scale
            raise ValueError("lognormal sigma must be non-negative")
        # Bit-identical to ``median * np.exp(stream.normal(0.0, sigma))``:
        # numpy draws a normal as ``loc + scale * z``, and ``loc`` is 0.0.
        return float(median * np.exp(sigma * self.stream(name).standard_normal()))

    def exponential(self, name: str, mean: float) -> float:
        if mean <= 0:
            return 0.0
        return float(self.stream(name).exponential(mean))

    def integers(self, name: str, low: int, high: int) -> int:
        return int(self.stream(name).integers(low, high))
