"""Deterministic random-stream derivation.

Every Monte Carlo replicate in the package draws from its own generator,
derived from a ``(seed, label, replicate)`` triple.  Streams are therefore
independent of scheduling: any partition of replicates across workers
reproduces the same per-replicate draws.

``derive_stream`` defines the bits.  ``lane_blocks`` gives the same streams
for a whole replicate range at a fraction of the cost, as ``LaneBlock``s of
at most ``_BLOCK`` replicates, one lane each.  The entropy words of ``(seed,
label)`` come first and are shared by every replicate, so ``SeedSequence``'s
mixing of them runs once, and only the replicate word's mixing and
``generate_state`` run per replicate, as uint32 passes across a block of
replicates.  PCG64's seeding then sets each lane's state on one reused
generator, so numpy itself still makes every draw.  This relies on numpy's
``SeedSequence`` and ``PCG64`` seeding algorithms, stable since numpy 1.17
(NEP 19); ``tests/test_streams.py`` and ``adagof selfcheck`` compare the two
routes.

A sampler draws from a lane block as from a generator, except that
``random`` takes one count per lane and returns one row per lane: each pass
of a rejection or mixture sampler advances every lane of the block at once,
and each lane consumes exactly the uniforms its own generator would.
``as_lanes`` makes a plain generator a one-lane block.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator
from itertools import islice

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence's hash constants (numpy/random/bit_generator.pyx) and PCG64's
# 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645

_BLOCK = 512  # replicates whose states one set of uint32 passes derives, and
# the lanes of one lane block
_GROWTH = 5  # a grown lane's prefix over its first draw: every catalog
# sampler takes 1 to 5 uniforms per observation


def _label_words(label: str) -> list[int]:
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return [int.from_bytes(digest[i : i + 8], "little") for i in range(0, 32, 8)]


def _entropy_prefix(seed: int, label: str) -> list[int]:
    """The entropy integers every replicate of ``(seed, label)`` starts with."""
    return [int(seed) & _MASK64, *_label_words(label)]


def derive_stream(seed: int, label: str, replicate: int) -> np.random.Generator:
    """Return the generator owned by one replicate of one labelled batch.

    Mixing function: the label is hashed with SHA-256 into four 64-bit words
    and the triple ``(seed, words..., replicate)`` seeds a
    ``numpy.random.SeedSequence``.  Identical triples give identical streams
    on every platform and worker count; distinct triples give independent
    streams.
    """
    entropy = [*_entropy_prefix(seed, label), int(replicate) & _MASK64]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _words32(value: int) -> list[int]:
    """``SeedSequence``'s uint32 words of one entropy integer, low word first."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


# The two helpers below take Python ints or uint32 arrays alike: a product is
# masked to 32 bits, which is what uint32 arithmetic wraps to anyway.


def _hash(value, hash_const: int, mult: int):
    """One step of ``SeedSequence``'s hash; returns the hashed value and the
    next hash constant."""
    value = value ^ hash_const
    hash_const = hash_const * mult & _MASK32
    value = value * hash_const & _MASK32
    return value ^ value >> 16, hash_const


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


def _pool(prefix: list[int]) -> tuple[list[int], int]:
    """``SeedSequence``'s pool after mixing the words of ``prefix`` (at least
    ``_POOL_SIZE`` of them), and the hash constant it leaves."""
    words = [w for value in prefix for w in _words32(value)]
    hash_const = _INIT_A
    pool = []
    for w in words[:_POOL_SIZE]:
        h, hash_const = _hash(w, hash_const, _MULT_A)
        pool.append(h)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                h, hash_const = _hash(pool[src], hash_const, _MULT_A)
                pool[dst] = _mix(pool[dst], h)
    for w in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            h, hash_const = _hash(w, hash_const, _MULT_A)
            pool[dst] = _mix(pool[dst], h)
    return pool, hash_const


def _replicate_states(prefix: list[int], start: int, stop: int) -> Iterator[tuple[int, int]]:
    """PCG64 ``(state, inc)`` seeded by ``SeedSequence([*prefix, r & _MASK64])``
    for ``r`` in ``range(start, stop)``, in order, derived a block at a time."""
    shared, shared_const = _pool(prefix)
    for first in range(start, stop, _BLOCK):
        lanes = np.uint64(first & _MASK64) + np.arange(min(_BLOCK, stop - first), dtype=np.uint64)
        low, high = (lanes & _MASK32).astype(np.uint32), (lanes >> 32).astype(np.uint32)
        pool = [np.full(lanes.size, p, dtype=np.uint32) for p in shared]
        hash_const = shared_const
        for dst in range(_POOL_SIZE):
            h, hash_const = _hash(low, hash_const, _MULT_A)
            pool[dst] = _mix(pool[dst], h)
        # a replicate below 2**32 is one entropy word, from 2**32 on two
        wide = np.flatnonzero(high)
        if wide.size:
            for dst in range(_POOL_SIZE):
                h, hash_const = _hash(high[wide], hash_const, _MULT_A)
                pool[dst][wide] = _mix(pool[dst][wide], h)
        # generate_state(4, np.uint64): eight uint32 words cycling over the
        # pool, read as little-endian uint64 pairs
        state, hash_const = [], _INIT_B
        for i in range(8):
            h, hash_const = _hash(pool[i % _POOL_SIZE], hash_const, _MULT_B)
            state.append(h.astype(np.uint64))
        seed_hi, seed_lo, seq_hi, seq_lo = (
            (state[2 * k] | state[2 * k + 1] << np.uint64(32)).tolist() for k in range(4)
        )
        # PCG64's srandom: inc = 2 * initseq + 1, then two LCG steps with
        # initstate added in between, starting from state 0
        for a, b, c, d in zip(seed_hi, seed_lo, seq_hi, seq_lo):
            inc = ((c << 64 | d) << 1 | 1) & _MASK128
            yield ((inc + (a << 64 | b)) * _PCG64_MULT + inc) & _MASK128, inc


class LaneBlock:
    """The uniform streams of a block of replicates, one lane each: lane ``i``
    draws what the generator of its ``(state, inc)`` PCG64 seed would.

    Each lane keeps a drawn prefix of its stream and a cursor into it.  A lane
    asked for more than its prefix holds is drawn again from the start of its
    stream, longer, so its bits do not depend on when it grew.
    """

    def __init__(self, states: list[tuple[int, int]]) -> None:
        self.rows = len(states)
        self._states = states
        self._bit_generator = np.random.PCG64(0)
        self._generator = np.random.Generator(self._bit_generator)
        # lane i's prefix is _buffer[_offset[i] : _offset[i] + _drawn[i]]
        self._buffer = np.empty(0)
        self._offset = np.zeros(self.rows, dtype=np.intp)
        self._drawn = np.zeros(self.rows, dtype=np.intp)
        self._cursor = np.zeros(self.rows, dtype=np.intp)

    def random(self, counts) -> np.ndarray:
        """The next ``counts[i]`` uniforms of each lane ``i`` (an int draws as
        many on every lane), as the rows of a ``(rows, max(counts))`` array.
        A row shorter than the widest is padded with 0.5, a value every
        sampler maps without warnings; the padding is no lane's draw."""
        counts = np.broadcast_to(np.asarray(counts, dtype=np.intp), (self.rows,))
        stop = self._cursor + counts
        short = np.flatnonzero(stop > self._drawn)
        if short.size:
            self._extend(short, stop[short])
        cols = np.arange(counts.max(initial=0))
        index = (self._offset + self._cursor)[:, None] + cols
        pad = cols >= counts[:, None]
        index[pad] = 0
        out = self._buffer.take(index)
        out[pad] = 0.5
        self._cursor = stop
        return out

    def _extend(self, lanes: np.ndarray, need: np.ndarray) -> None:
        """Draw each of ``lanes`` again, from the start of its stream, to at
        least ``need`` uniforms.  A lane's first draw is exactly its first
        request (a null sampler's only one); after that it grows to
        ``_GROWTH`` times its prefix, so a rejection or mixture sampler draws
        most lanes twice."""
        drawn = self._drawn[lanes]
        size = np.where(drawn == 0, need, np.maximum(need, _GROWTH * drawn))
        offset = self._buffer.size + np.cumsum(size) - size
        buffer = np.empty(self._buffer.size + int(size.sum()))
        buffer[: self._buffer.size] = self._buffer
        value = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
        for lane, start, length in zip(lanes.tolist(), offset.tolist(), size.tolist()):
            state, inc = self._states[lane]
            value["state"] = {"state": state, "inc": inc}
            self._bit_generator.state = value
            self._generator.random(out=buffer[start : start + length])
        self._buffer = buffer
        self._offset[lanes] = offset
        self._drawn[lanes] = size


class _OneLane:
    """A generator seen as a one-lane block."""

    rows = 1

    def __init__(self, generator: np.random.Generator) -> None:
        self._generator = generator

    def random(self, counts) -> np.ndarray:
        return self._generator.random(int(np.max(counts)))[None, :]


def as_lanes(stream):
    """``stream`` as a lane block: a ``LaneBlock`` as it is, a generator as one
    lane."""
    return _OneLane(stream) if isinstance(stream, np.random.Generator) else stream


def lane_blocks(seed: int, label: str, start: int, stop: int) -> Iterator[LaneBlock]:
    """Lane blocks of at most ``_BLOCK`` replicates covering ``range(start,
    stop)`` in order; lane ``i`` of a block starting at replicate ``first``
    draws the uniforms of ``derive_stream(seed, label, first + i)``, bit for
    bit."""
    states = _replicate_states(_entropy_prefix(seed, label), start, stop)
    while block := list(islice(states, _BLOCK)):
        yield LaneBlock(block)
