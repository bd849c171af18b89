"""The bulk replicate streams against their definition, ``derive_stream``.

``replicate_streams`` re-implements numpy's ``SeedSequence`` mixing and
PCG64 seeding; these tests fail if a numpy release changes either algorithm.
"""

import numpy as np
import pytest

from adagof.alternatives import from_id
from adagof.calibration import draw_samples
from adagof.null_models import Exponential, Uniform01
from adagof.streams import _BLOCK, _MASK64, _replicate_states, derive_stream, replicate_streams

K = 7


def _bulk_rows(seed, label, start, stop, k=K):
    return [stream.random(k) for stream in replicate_streams(seed, label, start, stop)]


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


def test_reused_generator_carries_no_buffered_word():
    # float32 draws consume half a 64-bit output and buffer the other half
    bulk = [s.random(3, dtype=np.float32) for s in replicate_streams(4, "f32", 0, 4)]
    for r, row in enumerate(bulk):
        np.testing.assert_array_equal(row, derive_stream(4, "f32", r).random(3, dtype=np.float32))


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
