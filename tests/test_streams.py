"""The lane blocks of replicate streams against their definition,
``derive_stream``.

``lane_blocks`` re-implements numpy's ``SeedSequence`` mixing and PCG64
seeding; these tests fail if a numpy release changes either algorithm.
"""

import ctypes
import threading

import numpy as np
import pytest

from adagof import streams
from adagof.alternatives import from_id
from adagof.calibration import draw_samples
from adagof.null_models import Exponential, Uniform01
from adagof.selfcheck import _check_streams
from adagof.streams import _BLOCK, _MASK64, LaneBlock, _replicate_words, derive_stream, lane_blocks

K = 7


def _bulk_rows(seed, label, start, stop, k=K):
    return [row for block in lane_blocks(seed, label, start, stop) for row in block.random(k)]


def _assert_rows_match(seed, label, start, stop):
    rows = _bulk_rows(seed, label, start, stop)
    assert len(rows) == max(0, stop - start)
    for r, row in zip(range(start, stop), rows):
        expected = derive_stream(seed, label, r).random(K)
        np.testing.assert_array_equal(row, expected, err_msg=f"{seed} {label!r} {r}")


def test_random_triples():
    rng = np.random.default_rng(2024)
    for trial in range(40):
        seed = int(rng.integers(0, 2**64, dtype=np.uint64))
        label = f"label:{trial}:{rng.integers(0, 10**6)}"
        bits = int(rng.choice([8, 32, 33, 48, 64]))
        replicate = int(rng.integers(0, 2**bits - 3, dtype=np.uint64))
        _assert_rows_match(seed, label, replicate, replicate + 3)


@pytest.mark.parametrize("seed", [0, 1, 2**32, 2**64 - 1])
@pytest.mark.parametrize(
    "start, stop",
    [
        (0, 5),
        (2**32 - 3, 2**32 + 3),  # one entropy word, then two
        (2**64 - 2, 2**64 + 2),  # wraps like derive_stream's 64-bit mask
        (_BLOCK - 3, 2 * _BLOCK + 3),  # across block boundaries
        (-2, 2),
    ],
)
def test_edge_replicates_and_seeds(seed, start, stop):
    _assert_rows_match(seed, "calib:thresholds", start, stop)


def test_empty_range():
    assert _bulk_rows(3, "x", 5, 5) == []
    assert _bulk_rows(3, "x", 5, 2) == []


def _seed_words(prefix, r):
    """The ``(initstate, initseq)`` numpy's PCG64 seeding reads from
    ``SeedSequence([*prefix, r])``."""
    w = np.random.SeedSequence([*prefix, r & _MASK64]).generate_state(4, np.uint64).tolist()
    return w[0] << 64 | w[1], w[2] << 64 | w[3]


# replicate 0 of each: inc + initstate carries past 2**64 only, past 2**128
# only, past both
_CARRY_PREFIXES = {"carry64": [1, 1, 2, 3, 4], "carry128": [7, 1, 2, 3, 4], "carry64+128": [3, 1, 2, 3, 4]}


@pytest.mark.parametrize("name, prefix", _CARRY_PREFIXES.items())
def test_carry_prefixes_carry(name, prefix):
    initstate, initseq = _seed_words(prefix, 0)
    inc = (initseq << 1 | 1) % 2**128
    low_carry = (inc % 2**64 + initstate % 2**64) >= 2**64
    assert (low_carry, inc + initstate >= 2**128) == (name != "carry128", name != "carry64")


@pytest.mark.parametrize(
    "prefix",
    [
        [0, 7, 2**40 + 3, 0, 2**64 - 1],  # label words below 2**32 are one entropy word
        [5, 1, 2, 3, 4],
        [2**64 - 1, 2**63, 2**32, 2**32 - 1, 0],
        [9, 2**50, 2**60, 2**33, 2**62, 11],  # more prefix words than the pool holds
        *_CARRY_PREFIXES.values(),
    ],
)
def test_states_match_seed_sequence(prefix):
    for start, stop in [(0, 4), (2**32 - 2, 2**32 + 2), (2**64 - 1, 2**64 + 1)]:
        words = np.concatenate(list(_replicate_words(prefix, start, stop)))
        assert words.shape == (stop - start, 4) and words.dtype == np.uint64
        for r, (s_hi, s_lo, i_hi, i_lo) in zip(range(start, stop), words.tolist()):
            expected = np.random.PCG64(np.random.SeedSequence([*prefix, r & _MASK64])).state["state"]
            assert (s_hi << 64 | s_lo, i_hi << 64 | i_lo) == (expected["state"], expected["inc"]), (prefix, r)


def _force_setter_route(monkeypatch):
    """Give this thread a fresh reseeder whose probe reads back zeros, so its
    lanes go through the ``state`` setter."""
    monkeypatch.setattr(streams, "_state_slots", lambda bit_generator: (ctypes.c_uint64 * 4)())
    monkeypatch.setattr(streams, "_local", threading.local())
    assert streams._reseeder().route == "state setter"


def _route_rows():
    """A block's rows of mixed lengths, its lanes grown once, by whichever
    route this thread's reseeder takes."""
    block = next(lane_blocks(31, "route", 2**32 - 100, 2**32 + 100))
    first = block.random(np.arange(200) % 7)
    return first, block.random(40)


def test_probe_reads_a_known_word_order():
    # a native little-endian __uint128_t stores the low word first, numpy's
    # emulated type the high word
    assert streams._reseeder().order in ([1, 0, 3, 2], [0, 1, 2, 3])
    assert streams._reseeder().route == "words written in place"


def test_both_reseed_routes_draw_the_same_uniforms(monkeypatch):
    in_place = _route_rows()
    with monkeypatch.context() as m:
        _force_setter_route(m)
        setter = _route_rows()
    for a, b in zip(in_place, setter):
        np.testing.assert_array_equal(a, b)


def test_a_failed_probe_still_draws_derive_stream_rows(monkeypatch):
    _force_setter_route(monkeypatch)
    _assert_rows_match(8, "calib:thresholds", _BLOCK - 3, _BLOCK + 3)
    ok, line = _check_streams(np.random.default_rng(0), cases=5)
    assert ok and "state setter" in line


def test_block_draws_leave_has_uint32_clear():
    block = next(lane_blocks(32, "uint32", 0, 3))
    block.random([3, 1, 2])
    assert streams._reseeder().bit_generator.state["has_uint32"] == 0


def test_ragged_counts_draw_each_lane_in_order():
    block = next(lane_blocks(23, "ragged", 0, 4))
    rows = [block.random([2, 0, 5, 1]), block.random(3), block.random([0, 9, 0, 2])]
    assert [r.shape for r in rows] == [(4, 5), (4, 3), (4, 9)]
    counts = [[2, 0, 5, 1], [3, 3, 3, 3], [0, 9, 0, 2]]
    for lane in range(4):
        got = np.concatenate([r[lane, : c[lane]] for r, c in zip(rows, counts)])
        np.testing.assert_array_equal(got, derive_stream(23, "ragged", lane).random(got.size))
        # the padding of a short row is 0.5, never a draw
        for r, c in zip(rows, counts):
            assert np.all(r[lane, c[lane] :] == 0.5)


def test_reserved_lanes_draw_once_and_keep_their_bits(monkeypatch):
    drawn = []
    extend = LaneBlock._extend

    def counted(self, lanes, need):
        drawn.extend(lanes.tolist())
        extend(self, lanes, need)

    monkeypatch.setattr(LaneBlock, "_extend", counted)
    block = next(lane_blocks(24, "reserve", 0, 4))
    block.reserve([3, 0, 1, 2])  # 15, 0, 5 and 10 uniforms
    block.reserve([9, 0, 9, 9])  # a lane that has drawn is left as it is
    counts = [[4, 2, 5, 6], [11, 0, 0, 4]]  # each reserved lane's whole prefix
    rows = [block.random(c) for c in counts]
    assert drawn == [0, 2, 3, 1]  # lane 1 on its first request
    for lane in range(4):
        got = np.concatenate([r[lane, : c[lane]] for r, c in zip(rows, counts)])
        np.testing.assert_array_equal(got, derive_stream(24, "reserve", lane).random(got.size))


def _reference_samples(sample, n, seed, label, start, stop):
    return np.array([sample(n, derive_stream(seed, label, r)) for r in range(start, stop)])


@pytest.mark.parametrize("null", [Uniform01(), Exponential()], ids=["uniform", "exponential"])
def test_draw_samples_null_rows(null):
    args = (null.sample, 30, 11, "calib:level", 95, 140)
    np.testing.assert_array_equal(draw_samples(*args), _reference_samples(*args))


@pytest.mark.parametrize("alt_id", ["f:0.5,2", "exp:g:4"])
def test_draw_samples_alternative_rows(alt_id):
    args = (from_id(alt_id).sampler, 40, 12, f"power:{alt_id}", 0, 60)
    np.testing.assert_array_equal(draw_samples(*args), _reference_samples(*args))
