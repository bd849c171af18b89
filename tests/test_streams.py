"""The lane blocks of replicate streams against their definition,
``derive_stream``.

``lane_blocks`` re-implements numpy's ``SeedSequence`` mixing and PCG64
seeding; these tests fail if a numpy release changes either algorithm.
"""

import numpy as np
import pytest

from adagof.alternatives import from_id
from adagof.calibration import draw_samples
from adagof.null_models import Exponential, Uniform01
from adagof.streams import _BLOCK, _MASK64, _replicate_states, derive_stream, lane_blocks

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


@pytest.mark.parametrize(
    "prefix",
    [
        [0, 7, 2**40 + 3, 0, 2**64 - 1],  # label words below 2**32 are one entropy word
        [5, 1, 2, 3, 4],
        [2**64 - 1, 2**63, 2**32, 2**32 - 1, 0],
        [9, 2**50, 2**60, 2**33, 2**62, 11],  # more prefix words than the pool holds
    ],
)
def test_states_match_seed_sequence(prefix):
    for start, stop in [(0, 4), (2**32 - 2, 2**32 + 2), (2**64 - 1, 2**64 + 1)]:
        states = list(_replicate_states(prefix, start, stop))
        assert len(states) == stop - start
        for r, (state, inc) in zip(range(start, stop), states):
            seed_seq = np.random.SeedSequence([*prefix, r & _MASK64])
            expected = np.random.PCG64(seed_seq).state["state"]
            assert (state, inc) == (expected["state"], expected["inc"]), (prefix, r)


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


def _reference_samples(sample, n, seed, label, start, stop):
    return np.array([sample(n, derive_stream(seed, label, r)) for r in range(start, stop)])


@pytest.mark.parametrize("null", [Uniform01(), Exponential()], ids=["uniform", "exponential"])
def test_draw_samples_null_rows(null):
    args = (null.sample, 30, 11, "calib:level", 95, 140)
    np.testing.assert_array_equal(draw_samples(*args), _reference_samples(*args))


@pytest.mark.parametrize("alt_id", ["f:0.5,2", "exp:g:4"])
def test_draw_samples_alternative_rows(alt_id):
    sampler = from_id(alt_id).sampler

    def sample(size, stream):
        return sampler(stream, size)

    args = (sample, 40, 12, f"power:{alt_id}", 0, 60)
    np.testing.assert_array_equal(draw_samples(*args), _reference_samples(*args))
