"""Reproducible random-number streams.

Every stochastic component of the simulation (arrival process, query
difficulty, image generation noise, random routing, ...) draws from its own
named stream derived from a single root seed.  This keeps experiments
reproducible and makes components statistically independent of each other,
so adding randomness to one component does not perturb another.

Per-query streams (image noise, discriminator observation noise) are
``default_rng(k)`` for a 32-bit :func:`stable_hash` key ``k``.  Building one
costs a :class:`~numpy.random.SeedSequence` hash per query; a
:class:`SeedTable` computes that hash for a whole chunk of keys at once
(:func:`pcg64_states`) and hands out a reseeded generator that draws the same
bits.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Hashable, Optional, Sequence

import numpy as np


def _stable_stream_key(name: str) -> int:
    """Map a stream name to a stable 64-bit integer (independent of PYTHONHASHSEED)."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def stable_hash(*parts) -> int:
    """Deterministic 32-bit hash of a tuple of primitives.

    Unlike the built-in :func:`hash`, the result does not depend on
    ``PYTHONHASHSEED``, so seeds derived from it are reproducible across
    processes and machines.
    """
    digest = hashlib.sha256(repr(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


class RandomStreams:
    """A factory of independent, named :class:`numpy.random.Generator` streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        if name not in self._streams:
            ss = np.random.SeedSequence([self.seed, _stable_stream_key(name)])
            self._streams[name] = np.random.default_rng(ss)
        return self._streams[name]

    def __getitem__(self, name: str) -> np.random.Generator:
        return self.stream(name)

    def spawn(self, name: str, index: int) -> np.random.Generator:
        """Return an indexed sub-stream, e.g. one per worker or per query batch."""
        return self.stream(f"{name}/{index}")

    def reset(self) -> None:
        """Drop all streams so they restart from their initial state."""
        self._streams.clear()


# numpy's SeedSequence entropy-pool hash (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16

# PCG64's 128-bit LCG multiplier as (high, low) 64-bit words.
_PCG_MULT_HI = 0x2360ED051FC65DA4
_PCG_MULT_LO = 0x4385DF649FCCF645
_LO32 = 0xFFFFFFFF


def seed_sequence_states(keys: Sequence[int]) -> np.ndarray:
    """``SeedSequence(k).generate_state(4, np.uint64)`` for every key, one row each.

    A bit-exact port of numpy's pool hash for keys in ``[0, 2**32)`` (one
    entropy word, no spawn key), evaluated column-wise.  The reference's
    ``uint32_t`` words are held in uint64 arrays and masked to 32 bits after
    every product and difference: one integer width keeps the ufunc loops a
    process pages in to a minimum.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    if keys.size and int(keys.max()) > _LO32:
        raise ValueError("seed keys must lie in [0, 2**32)")
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint64(hash_const)
        hash_const = hash_const * _MULT_A & _LO32
        value = value * np.uint64(hash_const) & _LO32
        return value ^ (value >> _XSHIFT)

    zeros = np.zeros_like(keys)
    pool = [hashmix(keys)] + [hashmix(zeros) for _ in range(_POOL_SIZE - 1)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed = hashmix(pool[src])
                mixed = np.uint64(_MIX_MULT_L) * pool[dst] - np.uint64(_MIX_MULT_R) * hashed
                mixed &= _LO32
                pool[dst] = mixed ^ (mixed >> _XSHIFT)

    hash_const = _INIT_B
    words = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint64(hash_const)
        hash_const = hash_const * _MULT_B & _LO32
        value = value * np.uint64(hash_const) & _LO32
        words.append(value ^ (value >> _XSHIFT))
    return np.stack([words[2 * j] | (words[2 * j + 1] << 32) for j in range(4)], axis=1)


def _add128(a_hi, a_lo, b_hi, b_lo):
    """``a + b`` modulo ``2**128`` on (high, low) uint64 words."""
    carry = ((a_lo >> 1) + (b_lo >> 1) + (a_lo & b_lo & 1)) >> 63
    return a_hi + b_hi + carry, a_lo + b_lo


def _mulhi64(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of the 128-bit products ``a * b``, from 32-bit halves."""
    a0, a1 = a & _LO32, a >> 32
    b0, b1 = np.uint64(b & _LO32), np.uint64(b >> 32)
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _LO32) + (p10 & _LO32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def pcg64_states(keys: Sequence[int]) -> np.ndarray:
    """The state ``PCG64(k)`` starts from, for every key, one row each.

    Columns are ``(state_hi, state_lo, inc_hi, inc_lo)`` 64-bit words.  PCG64
    seeds itself from ``w = SeedSequence(k).generate_state(4, np.uint64)``
    with ``seed = w0:w1`` and ``seq = w2:w3``: ``inc = 2 * seq + 1`` and
    ``state = (inc + seed) * MULT + inc`` modulo ``2**128`` (the two LCG
    steps of ``pcg_setseq_128_srandom_r``, the first from state 0).
    """
    seed_hi, seed_lo, seq_hi, seq_lo = seed_sequence_states(keys).T
    inc_hi = (seq_hi << 1) | (seq_lo >> 63)
    inc_lo = (seq_lo << 1) | 1
    hi, lo = _add128(inc_hi, inc_lo, seed_hi, seed_lo)
    hi = _mulhi64(lo, _PCG_MULT_LO) + lo * np.uint64(_PCG_MULT_HI) + hi * np.uint64(_PCG_MULT_LO)
    lo = lo * np.uint64(_PCG_MULT_LO)
    hi, lo = _add128(hi, lo, inc_hi, inc_lo)
    return np.stack([hi, lo, inc_hi, inc_lo], axis=1)


class SeedTable:
    """Precomputed per-query stream states for one chunk of arrivals.

    :meth:`fill` computes, in one vectorised call, the state
    ``default_rng(key)`` starts from for each of a chunk's keys, filed under
    one *tag* (a variant name) and the query's id.  :meth:`take` removes one
    entry and returns a single reusable generator jumped to that state
    through ``bit_generator.state``: the draws that follow are bit-identical
    to ``default_rng(key)``'s, at a fraction of its construction cost.  An
    id the table does not hold returns ``None`` and its owner falls back to
    ``default_rng``, so the table only decides speed, never a result.

    The table holds at most one chunk (each :meth:`fill` replaces it) and a
    pickled table arrives empty.
    """

    def __init__(self) -> None:
        self.tag: Optional[str] = None
        self._rows: Dict[Hashable, int] = {}
        self._states = np.empty((0, 4), dtype=np.uint64)
        self._bit_generator = np.random.PCG64(0)
        self._rng = np.random.Generator(self._bit_generator)

    def __reduce__(self):
        return (SeedTable, ())

    def __len__(self) -> int:
        return len(self._rows)

    def fill(self, tag: str, ids: Sequence[Hashable], keys: Sequence[int]) -> None:
        """Replace the table with the streams of ``keys``, filed under ``tag`` and ``ids``."""
        self.tag = tag
        self._states = pcg64_states(keys)
        self._rows = dict(zip(ids, range(len(ids))))

    def take(self, tag: str, id_: Hashable) -> Optional[np.random.Generator]:
        """The stream of ``(tag, id_)`` at its start, removed from the table.

        ``None`` if the table does not hold it.  The generator is shared by
        every take: it is valid until the next one.
        """
        if tag != self.tag:
            return None
        row = self._rows.pop(id_, None)
        if row is None:
            return None
        state_hi, state_lo, inc_hi, inc_lo = self._states[row].tolist()
        self._bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo},
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self._rng

    def clear(self) -> None:
        """Drop every entry."""
        self.tag = None
        self._rows = {}
        self._states = np.empty((0, 4), dtype=np.uint64)
