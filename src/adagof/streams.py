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
replicates.  PCG64's seeding (``srandom``) then runs as uint64 passes, each
128-bit sum and product as a high and a low word, and gives each lane four
words: its state's high and low word, then its increment's.

numpy itself still makes every draw, on one reused PCG64 per thread.  A lane
is reseeded by copying its four words into that generator's ``{state, inc}``
struct in place.  That struct is what the first field of the struct at the
public ``BitGenerator.ctypes.state_address`` points at (``pcg64_state`` in
numpy/random/src/pcg64/pcg64.h); its word order is low word first for a
native little-endian ``__uint128_t`` and high word first for numpy's
emulated 128-bit type.  A probe reads the order off once per generator: it
sets a known state through the ``state`` setter and reads the struct back.
If it does not read back the known words in some order, every lane is
reseeded through the ``state`` setter instead, at about 2.5 times the cost
per lane.  Either route leaves ``has_uint32`` at the 0 the setter wrote, and a
lane block draws only doubles, which never set it.  ``adagof selfcheck``
names the route it ran.

This relies on numpy's ``SeedSequence`` and ``PCG64`` seeding algorithms,
stable since numpy 1.17 (NEP 19); ``tests/test_streams.py`` and ``adagof
selfcheck`` compare the lane blocks with ``derive_stream``.

A sampler draws from a lane block as from a generator, except that
``random`` takes one count per lane and returns one row per lane: each pass
of a rejection or mixture sampler advances every lane of the block at once,
and each lane consumes exactly the uniforms its own generator would.
``as_lanes`` makes a plain generator a one-lane block.
"""

from __future__ import annotations

import ctypes
import hashlib
import threading
from collections.abc import Iterator

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1

# SeedSequence's hash constants (numpy/random/bit_generator.pyx) and PCG64's
# 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h), as its high and low
# words.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4
_PCG64_MULT = (np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645))
_U1, _U32, _U63 = np.uint64(1), np.uint64(32), np.uint64(63)
_LOW32 = np.uint64(_MASK32)

_BLOCK = 512  # replicates whose words one set of passes derives, and
# the lanes of one lane block
_GROWTH = 5  # uniforms a multi-pass sampler reserves per observation, and a
# grown lane's prefix over its last: every catalog sampler takes 1 to 5
# uniforms per observation


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


def _add128(a, b):
    """``a + b`` mod 2**128, for (high, low) pairs of uint64 words."""
    low = a[1] + b[1]
    return a[0] + b[0] + (low < b[1]), low


def _mulhi(a, b):
    """The high words of the 128-bit products ``a * b`` of uint64 words, from
    their 32-bit limbs."""
    a0, a1, b0, b1 = a & _LOW32, a >> _U32, b & _LOW32, b >> _U32
    cross_a, cross_b = a0 * b1, a1 * b0
    mid = (a0 * b0 >> _U32) + (cross_a & _LOW32) + (cross_b & _LOW32)
    return a1 * b1 + (cross_a >> _U32) + (cross_b >> _U32) + (mid >> _U32)


def _mul128(a, b):
    """``a * b`` mod 2**128, for (high, low) pairs of uint64 words."""
    return _mulhi(a[1], b[1]) + a[1] * b[0] + a[0] * b[1], a[1] * b[1]


def _replicate_words(prefix: list[int], start: int, stop: int) -> Iterator[np.ndarray]:
    """The PCG64 seeded by ``SeedSequence([*prefix, r & _MASK64])`` for ``r``
    in ``range(start, stop)``, in order, as one ``(lanes, 4)`` uint64 array
    per block of at most ``_BLOCK`` replicates: row ``i`` holds the high and
    low word of lane ``i``'s state, then of its increment."""
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
        generated, hash_const = [], _INIT_B
        for i in range(8):
            h, hash_const = _hash(pool[i % _POOL_SIZE], hash_const, _MULT_B)
            generated.append(h.astype(np.uint64))
        seed_hi, seed_lo, seq_hi, seq_lo = (generated[2 * k] | generated[2 * k + 1] << _U32 for k in range(4))
        # PCG64's srandom: inc = 2 * initseq + 1, then two LCG steps with
        # initstate added in between, starting from state 0
        inc = (seq_hi << _U1 | seq_lo >> _U63, seq_lo << _U1 | _U1)
        state = _add128(_mul128(_add128(inc, (seed_hi, seed_lo)), _PCG64_MULT), inc)
        yield np.stack([*state, *inc], axis=1)


# A PCG64 state and increment whose four words differ, as (high, low) pairs.
_PROBE_WORDS = (0x0123456789ABCDEF, 0x1032547698BADCFE, 0xF0E1D2C3B4A59687, 0x8899AABBCCDDEEFF)


def _pcg64_value(words) -> dict:
    """The ``state`` setter's value for one lane's four words."""
    s_hi, s_lo, i_hi, i_lo = words
    state = {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo}
    return {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}


def _state_slots(bit_generator: np.random.PCG64):
    """The four uint64 words of ``bit_generator``'s ``{state, inc}`` struct, as
    a ctypes array over them: the first field of its ``pcg64_state`` points
    at that struct."""
    struct = ctypes.c_void_p.from_address(bit_generator.ctypes.state_address)
    return (ctypes.c_uint64 * 4).from_address(struct.value)


class _Reseeder:
    """One reused PCG64, the generator that draws from it, and the route that
    reseeds it for each lane.

    ``order[j]`` is the word of a lane's row that the generator's state slot
    ``j`` holds, read off by the probe; None when the probe did not read back
    its words, and every lane goes through the ``state`` setter.  The slots
    are a view into the generator, which this object keeps alive.
    """

    def __init__(self) -> None:
        self.bit_generator = np.random.PCG64(0)
        self.generator = np.random.Generator(self.bit_generator)
        self.bit_generator.state = _pcg64_value(_PROBE_WORDS)
        self._slots = _state_slots(self.bit_generator)
        seen = list(self._slots)
        self.order = [_PROBE_WORDS.index(w) for w in seen] if sorted(seen) == sorted(_PROBE_WORDS) else None

    @property
    def route(self) -> str:
        return "state setter" if self.order is None else "words written in place"

    def fill(self, words: np.ndarray, outs: list[np.ndarray]) -> None:
        """Fill ``outs[i]`` with the first uniforms of the stream whose words
        are ``words[i]``."""
        if self.order is None:
            for row, out in zip(words.tolist(), outs):
                self.bit_generator.state = _pcg64_value(row)
                self.generator.random(out=out)
            return
        slots = self._slots
        for row, out in zip(words[:, self.order].tolist(), outs):
            slots[:] = row
            self.generator.random(out=out)


_local = threading.local()


def _reseeder() -> _Reseeder:
    """This thread's ``_Reseeder``, built on first use: building one costs
    about 0.1 ms, and two threads must not reseed one generator.  A forked
    worker inherits a valid copy of its parent's."""
    try:
        return _local.reseeder
    except AttributeError:
        _local.reseeder = _Reseeder()
        return _local.reseeder


class LaneBlock:
    """The uniform streams of a block of replicates, one lane each: lane ``i``
    draws what the PCG64 of row ``i`` of ``words`` (a state's high and low
    word, then its increment's) would.

    Each lane keeps a drawn prefix of its stream and a cursor into it.  A lane
    asked for more than its prefix holds is drawn again from the start of its
    stream, longer, so its bits do not depend on when it grew, nor on what a
    sampler reserved.
    """

    def __init__(self, words: np.ndarray) -> None:
        self.rows = len(words)
        self._words = words
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
        width = counts.max(initial=0)
        cols = np.arange(width)
        index = (self._offset + self._cursor)[:, None] + cols
        self._cursor = stop
        if counts.min(initial=width) == width:
            return self._buffer.take(index)
        pad = cols >= counts[:, None]
        index[pad] = 0
        out = self._buffer.take(index)
        out[pad] = 0.5
        return out

    def reserve(self, counts) -> None:
        """Ahead of a multi-pass sampler's ``counts[i]`` observations on each
        lane ``i`` (an int on every lane): draw each lane that has drawn
        nothing yet to ``_GROWTH`` uniforms per observation at once, so that
        its later passes need not draw it again."""
        counts = np.broadcast_to(np.asarray(counts, dtype=np.intp), (self.rows,))
        fresh = np.flatnonzero((self._drawn == 0) & (counts > 0))
        if fresh.size:
            self._extend(fresh, _GROWTH * counts[fresh])

    def _extend(self, lanes: np.ndarray, need: np.ndarray) -> None:
        """Draw each of ``lanes`` again, from the start of its stream, to at
        least ``need`` uniforms.  A lane's first draw is exactly its first
        request or reservation (a null sampler's only one); after that it
        grows to ``_GROWTH`` times its prefix."""
        drawn = self._drawn[lanes]
        size = np.where(drawn == 0, need, np.maximum(need, _GROWTH * drawn))
        offset = self._buffer.size + np.cumsum(size) - size
        buffer = np.empty(self._buffer.size + int(size.sum()))
        buffer[: self._buffer.size] = self._buffer
        outs = [buffer[start : start + length] for start, length in zip(offset.tolist(), size.tolist())]
        _reseeder().fill(self._words[lanes], outs)
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

    def reserve(self, counts) -> None:
        """A generator draws as it is asked."""


def as_lanes(stream):
    """``stream`` as a lane block: a ``LaneBlock`` as it is, a generator as one
    lane."""
    return _OneLane(stream) if isinstance(stream, np.random.Generator) else stream


def lane_blocks(seed: int, label: str, start: int, stop: int) -> Iterator[LaneBlock]:
    """Lane blocks of at most ``_BLOCK`` replicates covering ``range(start,
    stop)`` in order; lane ``i`` of a block starting at replicate ``first``
    draws the uniforms of ``derive_stream(seed, label, first + i)``, bit for
    bit."""
    for words in _replicate_words(_entropy_prefix(seed, label), start, stop):
        yield LaneBlock(words)
