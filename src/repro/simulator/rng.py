"""Reproducible random-number streams.

Every stochastic component of the simulation (arrival process, query
difficulty, image generation noise, random routing, ...) draws from its own
named stream derived from a single root seed.  This keeps experiments
reproducible and makes components statistically independent of each other,
so adding randomness to one component does not perturb another.

Per-query streams (image noise, discriminator observation noise) are
``default_rng(k)`` for a 32-bit :func:`stable_hash` key ``k``, and every
per-query draw is a row of standard normals.  Building one generator per
query costs a :class:`~numpy.random.SeedSequence` hash and a state jump, so
a chunk of arrivals draws its rows in one vectorised pass instead:

* :func:`stable_hashes` hashes the chunk's keys, formatting each one as
  :func:`stable_hash` does;
* :func:`pcg64_states` ports the seed hash, giving each key's starting
  PCG64 state;
* :func:`standard_normal_rows` steps PCG64 on every lane at once and
  applies numpy's ziggurat fast path with numpy's own tables
  (:mod:`repro.simulator.ziggurat_tables`).  A lane that hits one of the
  ziggurat's rare slow branches (the tail or a wedge) is redrawn by a
  scalar generator jumped to its state.

Row ``i`` equals ``default_rng(keys[i]).standard_normal(width)`` bit for
bit, and ``default_rng`` stays the path of every draw not seeded ahead, so
the vectorised pass decides speed only, never a result.  A
:class:`SeedTable` draws one pass for a whole chunk, over streams of any
widths, and holds what an owner computes from those rows, under one tag
per variant, until its draws take them.  A row nobody took yet survives
exactly one more chunk, copied out of its chunk's arrays.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

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


def stable_hashes(head: tuple, ids: Sequence[int], tail: tuple = ()) -> List[int]:
    """``[stable_hash(*head, i, *tail) for i in ids]`` for integer ``ids``, one template for all.

    Each key is the text ``repr`` gives the whole tuple: the parts of
    ``head`` and ``tail`` are rendered once with ``repr`` into a bytes
    template, and each id is written into it as the integer it is.
    """
    head_text = "".join(f"{part!r}, " for part in head)
    tail_text = "".join(f", {part!r}" for part in tail) + ("" if head or tail else ",")
    template = "(%s%%d%s)" % (head_text.replace("%", "%%"), tail_text.replace("%", "%%"))
    template = template.encode("utf-8")
    sha256 = hashlib.sha256
    return [int.from_bytes(sha256(template % i).digest()[:4], "little") for i in ids]


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
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _mulhi64(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of the 128-bit products ``a * b``, from 32-bit halves."""
    a0, a1 = a & _LO32, a >> 32
    b0, b1 = np.uint64(b & _LO32), np.uint64(b >> 32)
    t = a1 * b0 + ((a0 * b0) >> 32)
    u = a0 * b1 + (t & _LO32)
    return a1 * b1 + (t >> 32) + (u >> 32)


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 LCG step, ``state * MULT + inc`` modulo ``2**128``, on (high, low) words."""
    hi = _mulhi64(lo, _PCG_MULT_LO) + lo * np.uint64(_PCG_MULT_HI) + hi * np.uint64(_PCG_MULT_LO)
    return _add128(hi, lo * np.uint64(_PCG_MULT_LO), inc_hi, inc_lo)


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
    hi, lo = _lcg_step(*_add128(inc_hi, inc_lo, seed_hi, seed_lo), inc_hi, inc_lo)
    return np.stack([hi, lo, inc_hi, inc_lo], axis=1)


_SHIFT_OUT = np.uint64(58)
_ROT_MASK = np.uint64(63)
_WORD_BITS = np.uint64(64)
_IDX_MASK = np.uint64(0xFF)
_SIGN_TO_TOP = np.uint64(55)
_TOP_BIT = np.uint64(1 << 63)
_RABS_SHIFT = np.uint64(9)
_MANTISSA = np.uint64(2**52 - 1)


def _draw_normal_rows(keys: Sequence[int], rows: np.ndarray) -> int:
    """Write :func:`standard_normal_rows` into ``rows``; return the lanes the scalar path redrew."""
    states = pcg64_states(keys)
    if not rows.size:
        return 0
    from repro.simulator.ziggurat_tables import KI_DOUBLE, WI_DOUBLE

    hi, lo, inc_hi, inc_lo = states.T
    slow = np.zeros(len(states), dtype=bool)
    for column in rows.T:
        # PCG64 steps, then emits XSL-RR: (hi ^ lo) rotated right by hi >> 58.
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
        xored, rot = hi ^ lo, hi >> _SHIFT_OUT
        r = (xored >> rot) | (xored << ((_WORD_BITS - rot) & _ROT_MASK))
        # random_standard_normal's fast path: 8 bits pick a layer, 1 bit the
        # sign and 52 bits the magnitude, kept when under the layer's bound.
        # The magnitude is exact as a double and its product is >= 0, so the
        # sign bit (bit 8) moves straight to the double's sign bit.
        idx = (r & _IDX_MASK).astype(np.intp)
        rabs = (r >> _RABS_SHIFT) & _MANTISSA
        slow |= rabs >= KI_DOUBLE[idx]
        value = rabs * WI_DOUBLE[idx]
        value.view(np.uint64)[:] ^= (r << _SIGN_TO_TOP) & _TOP_BIT
        column[:] = value
    redraw = np.flatnonzero(slow)
    if len(redraw):
        bit_generator = np.random.PCG64(0)
        rng = np.random.Generator(bit_generator)
        for i in redraw.tolist():
            words = states[i].tolist()
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": words[0] << 64 | words[1], "inc": words[2] << 64 | words[3]},
                "has_uint32": 0,
                "uinteger": 0,
            }
            rng.standard_normal(out=rows[i])
    return len(redraw)


def standard_normal_rows(keys: Sequence[int], width: int) -> np.ndarray:
    """``default_rng(k).standard_normal(width)`` for every key ``k``, one row each, bit for bit.

    Keys lie in ``[0, 2**32)``.  Every lane's PCG64 outputs are generated
    together and go through the fast path of numpy's ziggurat
    (``random_standard_normal``); about 1.5% of draws miss it, and a row
    with any miss is redrawn by a scalar :class:`~numpy.random.Generator`
    jumped to the lane's starting state.
    """
    rows = np.empty((len(keys), width))
    _draw_normal_rows(keys, rows)
    return rows


class SeedTable:
    """Per-query rows precomputed for a chunk of arrivals, one tag per variant.

    :meth:`normals` draws a chunk's standard normals in one vectorised pass
    and counts, as telemetry, the passes, the lanes the pass finished and
    the lanes its scalar path redrew.  An owner turns those normals into
    columns and :meth:`fill` files them, per *tag* (a variant): row ``i``
    of every column under query ``ids[i]``.  :meth:`take` removes one
    query's row under one tag and says where it is, and retires the
    query's rows under every other tag: a query enters one first stage
    only.  A row the table does not hold returns ``None`` and its owner
    draws afresh from ``default_rng``, which gives the same bits, so the
    table decides speed only, never a result.

    A fill replaces the chunk the table holds.  The rows of that chunk that
    nobody took (a query still queued when the next chunk arrives) survive
    exactly one more fill, and no longer.  Survivors are copied out of
    their chunk's columns (arrays read-only), so the table never keeps a
    chunk's arrays alive past the next fill.  The table therefore holds at
    most one chunk plus its survivors; :meth:`clear` (at the end of a
    system's run) drops both.  A pickled table arrives empty, with its
    counters at zero.
    """

    def __init__(self) -> None:
        self._filed: Dict[Hashable, _Rows] = {}
        self._carried: Dict[Hashable, _Rows] = {}
        #: Every row index held, filed and carried: a take retires from all.
        self._indexes: Tuple[Dict[Hashable, int], ...] = ()
        self.passes = 0
        self.vector_lanes = 0
        self.scalar_lanes = 0

    def __reduce__(self):
        return (SeedTable, ())

    def __len__(self) -> int:
        return sum(len(index) for index, _ in self._filed.values()) + self.survivors

    @property
    def survivors(self) -> int:
        """Rows carried over from the previous fill, not yet taken."""
        return sum(len(index) for index, _ in self._carried.values())

    def normals(self, groups: Sequence[Tuple[Sequence[int], int]]) -> List[np.ndarray]:
        """:func:`standard_normal_rows` of every ``(keys, width)`` group, drawn in one pass.

        Returns one array per group, ``len(keys)`` rows by ``width``; the
        arrays are views into the pass's one buffer.
        """
        keys = [key for group, _ in groups for key in group]
        if not keys:
            return [np.empty((0, width)) for _, width in groups]
        # A row's first w normals are its stream's first w, so one pass at
        # the widest width serves every group.
        rows = np.empty((len(keys), max(width for _, width in groups)))
        scalar = _draw_normal_rows(keys, rows)
        self.passes += 1
        self.vector_lanes += len(keys) - scalar
        self.scalar_lanes += scalar
        views, start = [], 0
        for group, width in groups:
            views.append(rows[start : start + len(group), :width])
            start += len(group)
        return views

    def fill(self, chunk: Dict[Hashable, Tuple[Sequence[Hashable], Tuple[Sequence, ...]]]) -> None:
        """Hold ``chunk``, ``tag -> (ids, columns)``, and carry the untaken rows of the last one."""
        self._carried = {
            tag: _carried(index, columns) for tag, (index, columns) in self._filed.items() if index
        }
        self._filed = {
            tag: (dict(zip(ids, range(len(ids)))), columns) for tag, (ids, columns) in chunk.items()
        }
        self._indexes = tuple(
            index for index, _ in (*self._filed.values(), *self._carried.values())
        )

    def take(self, tag: Hashable, id_: Hashable) -> Optional[Tuple[Tuple[Sequence, ...], int]]:
        """Where the row of ``(tag, id_)`` is, ``(columns, i)``; it leaves the table.

        ``id_``'s rows under every other tag leave with it.  ``None`` if the
        table does not hold the row.
        """
        for held in (self._filed, self._carried):
            index, columns = held.get(tag, _NO_ROWS)
            i = index.pop(id_, None)
            if i is not None:
                for other in self._indexes:
                    other.pop(id_, None)
                return columns, i
        return None

    def clear(self) -> None:
        """Drop every row, survivors included."""
        self._filed = {}
        self._carried = {}
        self._indexes = ()


#: A tag's rows: query id -> row index, and the columns.
_Rows = Tuple[Dict[Hashable, int], Tuple[Sequence, ...]]

#: What a tag the table does not hold reads as; its index is only ever popped from.
_NO_ROWS: _Rows = ({}, ())


def _carried(index: Dict[Hashable, int], columns: Tuple[Sequence, ...]) -> _Rows:
    """The rows of ``index``, copied out of ``columns`` (arrays read-only) and renumbered."""
    rows = list(index.values())
    copied = []
    for column in columns:
        if isinstance(column, np.ndarray):
            column = column[rows]
            column.flags.writeable = False
        else:
            column = [column[i] for i in rows]
        copied.append(column)
    return dict(zip(index, range(len(rows)))), tuple(copied)
