"""Deterministic random-stream derivation.

Every Monte Carlo replicate in the package draws from its own generator,
derived from a ``(seed, label, replicate)`` triple.  Streams are therefore
independent of scheduling: any partition of replicates across workers
reproduces the same per-replicate draws.

``derive_stream`` defines the bits.  ``replicate_streams`` yields the same
streams for a whole replicate range at a fraction of the cost: the entropy
words of ``(seed, label)`` come first and are shared by every replicate, so
``SeedSequence``'s mixing of them runs once, and only the replicate word's
mixing and ``generate_state`` run per replicate, as uint32 passes across a
block of replicates.  PCG64's seeding then sets each replicate's state on one
reused generator, so numpy itself still makes every draw.  This relies on
numpy's ``SeedSequence`` and ``PCG64`` seeding algorithms, stable since numpy
1.17 (NEP 19); ``tests/test_streams.py`` and ``adagof selfcheck`` compare the
two routes.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator

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

_BLOCK = 512  # replicates whose states one set of uint32 passes derives


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


def replicate_streams(
    seed: int, label: str, start: int, stop: int
) -> Iterator[np.random.Generator]:
    """The streams ``derive_stream(seed, label, r)`` for ``r`` in ``range(start,
    stop)``, in order, bit for bit.

    Every item is the same ``Generator``, reseeded in place before it is
    yielded: draw from it before asking for the next one.
    """
    bit_generator = np.random.PCG64(0)
    stream = np.random.Generator(bit_generator)
    # a fresh PCG64 holds no buffered half of a 64-bit output
    value = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
    for state, inc in _replicate_states(_entropy_prefix(seed, label), start, stop):
        value["state"] = {"state": state, "inc": inc}
        bit_generator.state = value
        yield stream
