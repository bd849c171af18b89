import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adagof import estimators
from adagof.adaptive_test import run_simple_test
from adagof.bases import BasisFamily, fourier_eval
from adagof.calibration import StatisticKind, calibrate
from adagof.errors import (
    AdagofError,
    InsufficientSampleError,
    InvalidInputError,
    SupportViolationError,
)
from adagof.estimators import (
    ModelIndex,
    ScaleSearchPolicy,
    _scale_search,
    composite_scale_stats_batch,
    pinned_order,
    scale_free_ratios,
    simple_stats_batch,
    t_hat,
    t_tilde_scale,
    theta_hat,
    theta_hat_naive,
)
from adagof.null_models import Exponential, Gaussian, Uniform01
from adagof.streams import derive_stream

PW = BasisFamily.PIECEWISE_CONSTANT
FOURIER = BasisFamily.FOURIER


class TestThetaHat:
    def test_single_bin_holds_both_points(self):
        assert theta_hat(np.array([0.1, 0.9]), ModelIndex(PW, 1)) == 1.0

    def test_no_shared_bin(self):
        assert theta_hat(np.array([0.1, 0.9]), ModelIndex(PW, 2)) == 0.0

    def test_hand_expansion(self):
        x = np.array([0.1, 0.2, 0.9])
        assert theta_hat(x, ModelIndex(PW, 2)) == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert theta_hat_naive(x, ModelIndex(PW, 2)) == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_needs_two_observations(self):
        with pytest.raises(InsufficientSampleError):
            theta_hat(np.array([0.5]), ModelIndex(PW, 2))

    def test_oracle_equivalence_randomized(self):
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            n = int(rng.integers(2, 51))
            if rng.random() < 0.5:
                m = ModelIndex(PW, int(rng.integers(1, 17)))
                x = rng.normal(size=n) if rng.random() < 0.5 else rng.random(n)
            else:
                m = ModelIndex(FOURIER, int(rng.integers(1, 17)))
                x = rng.random(n)
            fast, naive = theta_hat(x, m), theta_hat_naive(x, m)
            assert fast == pytest.approx(naive, rel=1e-10, abs=1e-10), (m, n)

    def test_unbiased_for_uniform_projection(self):
        # E[theta] = 1 under the uniform for every piecewise resolution
        reps, n = 10_000, 50
        rng = np.random.default_rng(7)
        samples = rng.random((reps, n))
        for D in (1, 2, 4, 8):
            stats = simple_stats_batch(samples, [ModelIndex(PW, D)], Uniform01())
            thetas = stats[:, 0] + 1.0  # t_hat = theta - 1 under the uniform null
            se = thetas.std(ddof=1) / math.sqrt(reps)
            assert abs(thetas.mean() - 1.0) <= 3.0 * se, (D, thetas.mean(), se)


class TestTHat:
    def test_degenerate_single_bin_model(self):
        x = np.random.default_rng(0).random(20)
        assert t_hat(x, ModelIndex(PW, 1), Uniform01()) == 0.0

    def test_hand_values(self):
        assert t_hat(np.array([0.1, 0.9]), ModelIndex(PW, 2), Uniform01()) == -1.0
        assert t_hat(np.array([0.01, 0.02]), ModelIndex(PW, 2), Uniform01()) == 1.0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.random(30)
        m = ModelIndex(FOURIER, 4)
        base = t_hat(x, m, Uniform01())
        assert t_hat(rng.permutation(x), m, Uniform01()) == base

    def test_upper_edge_observation_kept(self):
        # an observation exactly at 1.0 lands in the last bin, not bin D
        x = np.array([1.0, 0.95])
        assert t_hat(x, ModelIndex(PW, 4), Uniform01()) == pytest.approx(4.0 + 1.0 - 2.0)


def _reference_scale_search(x, m, d, policy):
    """Literal grid-and-refine search, one candidate ratio at a time, each
    scored with ``t_hat``.  Candidates use the kernel's formulas (coarse
    ``y * (1 / r)``, refined ``y / exp(lo + (hi - lo) * (t / steps))``, each
    round's window one step either side of the log of the running argmin
    ratio, inside the first window), so the two can agree exactly.
    Returns (value, ratio)."""
    y = np.sort(scale_free_ratios(x))
    grid = policy.ratios()
    values = [t_hat(y * (1.0 / r), m, d) for r in grid]
    j = int(np.argmin(values))
    best, best_ratio = values[j], grid[j]
    log_grid = np.log(grid)
    lo, hi = log_grid[max(j - 1, 0)], log_grid[min(j + 1, grid.size - 1)]
    cur_lo, cur_hi = lo, hi
    steps = 2 * policy.refine_factor
    for _ in range(policy.refine_rounds):
        for t in range(steps + 1):
            r = np.exp(cur_lo + (cur_hi - cur_lo) * (t / steps))
            v = t_hat(y / r, m, d)
            if v < best:
                best, best_ratio = v, r
        width = (cur_hi - cur_lo) / steps
        cur_lo = max(np.log(best_ratio) - width, lo)
        cur_hi = min(np.log(best_ratio) + width, hi)
    return best, best_ratio


def _search_block_rows(n, models, policy):
    """Rows the scale search puts in one block at sample size ``n``."""
    width = n * max(policy.coarse_points, len(models) * (2 * policy.refine_factor + 1))
    return max(1, estimators._BLOCK_ELEMENTS // width)


def _search_samples(kind, rows, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "exponential":
        return rng.exponential(size=(rows, n))
    if kind == "rounded":  # tied ratios
        return np.maximum(np.round(rng.exponential(size=(rows, n)), 1), 0.1)
    return rng.lognormal(0.0, 3.0, size=(rows, n))  # one point can carry most of the mean


_SEARCH_POLICIES = {
    "default": ScaleSearchPolicy(),
    "rounds0": ScaleSearchPolicy(refine_rounds=0),
    "rounds2": ScaleSearchPolicy(refine_rounds=2),
    "rounds3": ScaleSearchPolicy(refine_rounds=3),
    "points33": ScaleSearchPolicy(coarse_points=33),
    "span4": ScaleSearchPolicy(relative_span=4.0),
}


@pytest.fixture(scope="module")
def exp_sample():
    return Exponential().sample(500, derive_stream(42, "scale-search", 0))


class TestScaleSearch:

    def test_scale_invariance_bit_identical(self, exp_sample):
        m = ModelIndex(PW, 5)
        base = t_tilde_scale(exp_sample, m, Exponential())
        for c in (0.1, 3.0, 100.0):
            scaled = t_tilde_scale(c * exp_sample, m, Exponential())
            assert scaled.value == base.value
            assert scaled.sigma_ratio == base.sigma_ratio

    def test_value_at_most_statistic_at_mean(self, exp_sample):
        m = ModelIndex(PW, 5)
        res = t_tilde_scale(exp_sample, m, Exponential())
        y = np.sort(scale_free_ratios(exp_sample))
        assert res.value <= t_hat(y, m, Exponential())

    def test_value_is_min_over_coarse_grid(self, exp_sample):
        m = ModelIndex(PW, 7)
        policy = ScaleSearchPolicy(refine_rounds=0)
        res = t_tilde_scale(exp_sample, m, Exponential(), policy)
        y = np.sort(scale_free_ratios(exp_sample))
        grid_vals = [t_hat(y * (1.0 / r), m, Exponential()) for r in policy.ratios()]
        assert res.value == min(grid_vals)

    def test_refinement_never_increases_value(self, exp_sample):
        m = ModelIndex(PW, 5)
        coarse = t_tilde_scale(exp_sample, m, Exponential(), ScaleSearchPolicy(refine_rounds=0))
        refined = t_tilde_scale(exp_sample, m, Exponential(), ScaleSearchPolicy(refine_rounds=2))
        assert refined.value <= coarse.value

    def test_against_dense_scan(self, exp_sample):
        # The refined grid search tracks a 1e5-point dense scan.  The
        # objective has bin-crossing jitter, so distinct local basins can
        # differ at the 1e-3 scale; the frozen bound reflects the measured
        # envelope (see the search-policy docstring).
        d = Exponential()
        y = np.sort(scale_free_ratios(exp_sample))
        span = math.log(10.0)
        dense = np.exp(np.linspace(-span, span, 100_000))
        models = [ModelIndex(PW, D) for D in (2, 5, 10)]
        # row k of each chunk is t_hat(y * (1.0 / dense[k])) for every model
        dense_min = np.min(
            [
                simple_stats_batch(y[None, :] * (1.0 / chunk[:, None]), models, d).min(axis=0)
                for chunk in np.array_split(dense, 50)
            ],
            axis=0,
        )
        for D, m, lowest in zip((2, 5, 10), models, dense_min):
            res = t_tilde_scale(exp_sample, m, d, ScaleSearchPolicy(refine_rounds=3))
            gap = res.value - lowest
            assert gap >= -1e-4, (D, gap)
            assert gap <= 1e-3, (D, gap)

    def test_support_violation(self):
        with pytest.raises(SupportViolationError):
            t_tilde_scale(np.array([-0.5, 1.0, 2.0]), ModelIndex(PW, 3), Exponential())

    def test_null_not_on_the_positive_half_line_is_refused(self):
        # x / mean(x) is a scale-family statistic; under a Gaussian null
        # mean(x) sits near 0, so no null off [0, inf) is searched
        models = [ModelIndex(PW, D) for D in (2, 3, 4)]
        x = np.abs(Gaussian(0.0, 1.0).sample(50, derive_stream(15, "off-zero", 0)))[None, :]
        with pytest.raises(InvalidInputError, match=r"needs a null on \[0, inf\)"):
            composite_scale_stats_batch(x, models, Gaussian(0.0, 1.0), ScaleSearchPolicy())
        with pytest.raises(InvalidInputError, match=r"needs a null on \[0, inf\)"):
            calibrate(
                Gaussian(0.0, 1.0), models, n=50, B1=100, B2=100,
                statistic_kind=StatisticKind.COMPOSITE_INVARIANT,
            )
        for d in (Uniform01(), Exponential()):
            assert composite_scale_stats_batch(x / 10.0, models, d, ScaleSearchPolicy()).shape == (1, 3)

    def test_a_search_past_the_stack_bound_is_refused_before_it_allocates(self):
        # one row of this policy's refinement is a (9, 131073, 100) stack of
        # 900 MiB, which exited 1 with _ArrayMemoryError; refine_rounds=0
        # never builds it and runs
        models = [ModelIndex(PW, D) for D in range(2, 11)]
        x = np.linspace(0.01, 3.0, 100)[None, :]
        policy = ScaleSearchPolicy(10.0, 257, 1, 65536)
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInputError, match="above its bound"):
                composite_scale_stats_batch(x, models, Exponential(), policy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        coarse = dataclasses.replace(policy, refine_rounds=0)
        assert composite_scale_stats_batch(x, models, Exponential(), coarse).shape == (1, 9)

    def test_batch_matches_single_path(self, exp_sample):
        d = Exponential()
        policy = ScaleSearchPolicy()
        models = [ModelIndex(PW, D) for D in (2, 5, 10)]
        samples = np.stack([exp_sample[:100], exp_sample[100:200], exp_sample[200:300]])
        batch = composite_scale_stats_batch(samples, models, d, policy)
        for r in range(3):
            for c, m in enumerate(models):
                value, ratio = _reference_scale_search(samples[r], m, d, policy)
                single = t_tilde_scale(samples[r], m, d, policy)
                assert batch[r, c] == single.value == value
                assert single.sigma_ratio == ratio

    @pytest.mark.parametrize("rounds", [0, 1, 2, 3])
    def test_refinement_matches_reference_search(self, rounds):
        d = Exponential()
        policy = ScaleSearchPolicy(refine_rounds=rounds)
        models = [ModelIndex(PW, D) for D in (2, 5, 10)]
        samples = np.stack([d.sample(100, derive_stream(43, "refine", r)) for r in range(15)])
        batch = composite_scale_stats_batch(samples, models, d, policy)
        for k, x in enumerate(samples):
            for c, m in enumerate(models):
                assert batch[k, c] == _reference_scale_search(x, m, d, policy)[0], (k, m)

    @pytest.mark.parametrize("policy", sorted(_SEARCH_POLICIES))
    @pytest.mark.parametrize("kind", ["exponential", "rounded", "lognormal"])
    def test_blocked_batches_match_reference_search(self, kind, policy):
        # batches ending inside, at and one row past a block boundary
        d, policy = Exponential(), _SEARCH_POLICIES[policy]
        models = [ModelIndex(PW, D) for D in (2, 5, 10)]
        n = 20
        block = _search_block_rows(n, models, policy)
        samples = _search_samples(kind, block + 1, n, seed=len(kind) * 31 + block)
        expected = [[_reference_scale_search(x, m, d, policy) for m in models] for x in samples]
        for rows in sorted({1, max(block - 1, 1), block, block + 1}):
            values, ratios = _scale_search(samples[:rows], models, d, policy)
            for k in range(rows):
                for c, m in enumerate(models):
                    assert (values[k, c], ratios[k, c]) == expected[k][c], (rows, k, m)

    @pytest.mark.parametrize("policy", ["default", "rounds3"])
    def test_two_observations_match_reference_search(self, policy):
        d, policy = Exponential(), _SEARCH_POLICIES[policy]
        models = [ModelIndex(PW, D) for D in (1, 2, 7)]
        samples = np.concatenate(
            [_search_samples(kind, 3, 2, seed=5) for kind in ("exponential", "rounded", "lognormal")]
        )
        values, ratios = _scale_search(samples, models, d, policy)
        for k, x in enumerate(samples):
            for c, m in enumerate(models):
                assert (values[k, c], ratios[k, c]) == _reference_scale_search(x, m, d, policy)

    @pytest.mark.parametrize("policy", ["default", "rounds2"])
    def test_ties_keep_the_first_candidate(self, policy):
        # the uniform density is flat, so t_hat ties across many ratios
        d, policy = Uniform01(), _SEARCH_POLICIES[policy]
        models = [ModelIndex(PW, D) for D in (2, 5, 10)]
        samples = _search_samples("exponential", 6, 20, seed=1)
        values, ratios = _scale_search(samples, models, d, policy)
        for k, x in enumerate(samples):
            for c, m in enumerate(models):
                assert (values[k, c], ratios[k, c]) == _reference_scale_search(x, m, d, policy)

    def test_rows_are_searched_independently(self):
        d, policy = Exponential(), ScaleSearchPolicy()
        models = [ModelIndex(PW, D) for D in range(2, 11)]
        samples = np.concatenate(
            [_search_samples(kind, 234, 50, seed=9) for kind in ("exponential", "rounded", "lognormal")]
        )[:700]
        values, ratios = _scale_search(samples, models, d, policy)
        for k, x in enumerate(samples):
            one_values, one_ratios = _scale_search(x[None, :], models, d, policy)
            np.testing.assert_array_equal(values[k], one_values[0])
            np.testing.assert_array_equal(ratios[k], one_ratios[0])

    def test_single_observation_raises(self):
        m, d = ModelIndex(PW, 3), Exponential()
        with pytest.raises(InsufficientSampleError):
            composite_scale_stats_batch(np.ones((4, 1)), [m], d, ScaleSearchPolicy())
        with pytest.raises(InsufficientSampleError):
            t_tilde_scale(np.array([2.0]), m, d)


def _oracle_t_hat(x, m, d):
    upper = d.support[1] if math.isfinite(d.support[1]) else None
    plug_in = d.l2_norm_sq - 2.0 * float(np.sum(d.pdf(x))) / x.size
    return theta_hat_naive(x, m, upper=upper) + plug_in


class TestBatchedSimpleStats:
    def test_matches_single_path(self):
        rng = np.random.default_rng(5)
        samples = rng.random((8, 60))
        samples[0, 0] = 1.0  # upper support edge
        models = pinned_order(
            [ModelIndex(FOURIER, 3), ModelIndex(PW, 4), ModelIndex(PW, 2), ModelIndex(FOURIER, 1)]
        )
        batch = simple_stats_batch(samples, models, Uniform01())
        for r in range(8):
            for c, m in enumerate(models):
                expected = _oracle_t_hat(samples[r], m, Uniform01())
                assert batch[r, c] == pytest.approx(expected, abs=1e-13)

    def test_gaussian_null_unbounded_bins(self):
        rng = np.random.default_rng(6)
        samples = rng.normal(size=(5, 40))
        d = Gaussian(0.0, 1.0)
        models = [ModelIndex(PW, D) for D in (1, 3, 10)]
        batch = simple_stats_batch(samples, models, d)
        for r in range(5):
            for c, m in enumerate(models):
                assert batch[r, c] == pytest.approx(_oracle_t_hat(samples[r], m, d), abs=1e-13)


def _libm_fourier(l, x):
    """The l-th trigonometric function from np.cos/np.sin of the multiple angle."""
    if l == 0:
        return np.ones_like(x)
    p = (l + 1) // 2
    return math.sqrt(2.0) * (np.cos if l % 2 == 1 else np.sin)(2.0 * np.pi * p * x)


def _fourier_reference(samples, top, d, evaluate=fourier_eval):
    """``t_hat`` for fourier:1..top, one ``evaluate`` pass per function,
    with the summation order of the kernel."""
    x = np.sort(samples, axis=1)
    n = x.shape[1]
    cols = []
    for l in range(top + 1):
        vals = evaluate(l, x)
        S = vals.sum(axis=1)
        cols.append(S * S - (vals * vals).sum(axis=1))
    theta = np.cumsum(cols, axis=0)[1:].T / (n * (n - 1))
    return theta + (d.l2_norm_sq - 2.0 * np.sum(d.pdf(x), axis=1) / n)[:, None]


def _fourier_block_rows(n, top):
    return max(1, estimators._BLOCK_ELEMENTS // (n * (top + 2)))


@pytest.mark.parametrize("n", [2, 100, 1001])
@pytest.mark.parametrize("top", [1, 2, 12, 13])
def test_stacked_fourier_matches_per_function_reference_bit_for_bit(top, n):
    block = _fourier_block_rows(n, top)
    rng = np.random.default_rng(1000 * top + n)
    models = [ModelIndex(FOURIER, degree) for degree in range(1, top + 1)]
    for rows in sorted({1, max(block - 1, 1), block, block + 1}):
        samples = rng.random((rows, n))
        samples[::2, 0] = 0.0  # both support edges, in every block
        samples[1::3, -1] = 1.0
        got = simple_stats_batch(samples, models, Uniform01())
        want = _fourier_reference(samples, top, Uniform01())
        assert got.tobytes() == want.tobytes(), (top, n, rows)
    assert simple_stats_batch(np.empty((0, n)), models, Uniform01()).shape == (0, top)


@pytest.mark.parametrize("n", [2, 50, 100])
def test_fourier_columns_match_libm_trig(n):
    # the kernel's recurrence against np.cos/np.sin of every multiple angle,
    # on batches of several row blocks; the first harmonic is libm's own
    top = 12
    rows = 3 * _fourier_block_rows(n, top) + 1
    samples = np.random.default_rng(16 + n).random((rows, n))
    samples[::5, 0] = 0.0
    samples[1::7, -1] = 1.0
    models = [ModelIndex(FOURIER, degree) for degree in range(1, top + 1)]
    got = simple_stats_batch(samples, models, Uniform01())
    want = _fourier_reference(samples, top, Uniform01(), evaluate=_libm_fourier)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    assert got[:, :2].tobytes() == np.ascontiguousarray(want[:, :2]).tobytes()


def test_single_row_calls_equal_the_batch():
    from adagof.harness import mixed_models

    samples = np.random.default_rng(17).random((7, 100))
    models = pinned_order(mixed_models(12, 10))[::-1]  # fourier columns first
    batch = simple_stats_batch(samples, models, Uniform01())
    for row, sample in zip(batch, samples):
        assert row.tobytes() == simple_stats_batch(sample[None], models, Uniform01())[0].tobytes()


def test_a_statistic_past_the_float_range_raises():
    # under sd 1e-306 each null density value is near 4e305, so the plug-in
    # sum over 2,000 null draws overflows; the statistic read -inf and the
    # calibration stopped on a bare AssertionError
    d = Gaussian(0.0, 1e-306)
    x = d.sample(2000, derive_stream(1, "overflow", 0))[None]
    with np.errstate(over="ignore"), pytest.raises(InvalidInputError, match="not finite"):
        simple_stats_batch(x, [ModelIndex(PW, 2)], d)


@pytest.mark.parametrize("family", [FOURIER, PW])
def test_a_simple_statistic_past_the_stack_bound_is_refused_before_it_allocates(family):
    # one row just above the bound: 256 observations times a Fourier degree's
    # 2 ** 16 + 2 stacked functions, or 257 times 2 ** 16 piecewise degrees;
    # each float64 temporary of it is 128 MiB, and nothing refused it
    if family is FOURIER:
        n, models = 256, [ModelIndex(FOURIER, estimators._MAX_DEGREE)]
    else:
        n, models = 257, [ModelIndex(PW, D) for D in range(1, estimators._MAX_DEGREE + 1)]
    x = np.linspace(0.0, 1.0, n)[None, :]
    tracemalloc.start()
    try:
        with pytest.raises(InvalidInputError, match="above its bound"):
            simple_stats_batch(x, models, Uniform01())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 23  # the column lists and the (1, models) output


@pytest.mark.parametrize("bad", [np.nextafter(1.0, 2.0), -1e-300])
def test_fourier_domain_checked_on_every_row(bad):
    models = [ModelIndex(FOURIER, degree) for degree in range(1, 13)]
    n = 30
    samples = np.random.default_rng(8).random((3 * _fourier_block_rows(n, 12) + 1, n))
    samples[-1, n // 2] = bad  # the last row of the last block
    with pytest.raises(InvalidInputError, match=r"defined on \[0, 1\]"):
        simple_stats_batch(samples, models, Uniform01())
    with pytest.raises(InvalidInputError, match=r"defined on \[0, 1\]"):
        t_hat(samples[-1], models[-1], Uniform01())
    table = calibrate(Uniform01(), models, n=n, B1=200, B2=200, seed=4)
    with pytest.raises(InvalidInputError, match=r"defined on \[0, 1\]"):
        run_simple_test(samples[-1], Uniform01(), table)


_ENTRY_POINTS = {
    "theta_hat_fourier": lambda x: theta_hat(x, ModelIndex(FOURIER, 3)),
    "theta_hat_piecewise": lambda x: theta_hat(x, ModelIndex(PW, 3)),
    "t_hat_fourier": lambda x: t_hat(x, ModelIndex(FOURIER, 3), Uniform01()),
    "t_hat_piecewise": lambda x: t_hat(x, ModelIndex(PW, 3), Gaussian(0.0, 1.0)),
    "t_tilde_scale": lambda x: t_tilde_scale(x, ModelIndex(PW, 3), Exponential()),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_non_finite_observation_raises(entry, bad):
    x = np.linspace(0.05, 0.95, 30)
    x[7] = bad
    with pytest.raises(AdagofError):
        _ENTRY_POINTS[entry](x)


def test_pinned_order():
    models = [ModelIndex(FOURIER, 2), ModelIndex(PW, 9), ModelIndex(FOURIER, 1), ModelIndex(PW, 3)]
    ordered = pinned_order(models)
    assert [(m.family, m.degree) for m in ordered] == [
        (PW, 3),
        (PW, 9),
        (FOURIER, 1),
        (FOURIER, 2),
    ]


def test_union_columns_of_overlapping_out_of_order_collections():
    first = [ModelIndex(FOURIER, 3), ModelIndex(PW, 5), ModelIndex(FOURIER, 1)]
    second = [ModelIndex(PW, 5), ModelIndex(FOURIER, 3), ModelIndex(PW, 2), ModelIndex(FOURIER, 3)]
    union, columns = estimators._union_columns([first, second, []])
    assert union == [ModelIndex(PW, 2), ModelIndex(PW, 5), ModelIndex(FOURIER, 1), ModelIndex(FOURIER, 3)]
    # each collection's columns follow its own order, repeats included
    assert columns == [[3, 1, 2], [1, 3, 0, 3], []]
    for models, cols in zip((first, second), columns):
        assert [union[j] for j in cols] == models


def test_model_index_validation():
    with pytest.raises(InvalidInputError):
        ModelIndex("legendre", 3)
    with pytest.raises(InvalidInputError):
        ModelIndex(PW, 0)


# A column of a statistic matrix depends only on its own model, so a batch
# over a union of collections holds each collection's matrix bit for bit;
# the harness and calibrate_collections read tables' columns off one union.
_UNION = pinned_order(
    [ModelIndex(PW, degree) for degree in range(2, 11)]
    + [ModelIndex(FOURIER, degree) for degree in range(1, 13)]
)
_SUBSETS = {
    "fourier-lower-top": [ModelIndex(FOURIER, degree) for degree in range(1, 7)],
    "fourier-odd-top": [ModelIndex(FOURIER, 3), ModelIndex(FOURIER, 9)],
    "piecewise-only": [ModelIndex(PW, degree) for degree in range(2, 11)],
    "piecewise-sparse": [ModelIndex(PW, 3), ModelIndex(PW, 7)],
    "mixed": [ModelIndex(PW, 4), ModelIndex(FOURIER, 2), ModelIndex(FOURIER, 12)],
}


@pytest.mark.parametrize("null", [Uniform01(), Gaussian(0.0, 1.0), Exponential()], ids=lambda d: d.name)
@pytest.mark.parametrize("subset", sorted(_SUBSETS))
@pytest.mark.parametrize("n", [50, 100])
def test_simple_stats_of_a_subset_are_columns_of_the_union(null, subset, n):
    models = _SUBSETS[subset]
    columns = [_UNION.index(m) for m in models]
    # rows that cross the block boundaries of the union's and the subset's passes
    union_block = _fourier_block_rows(n, 12)
    rows = 3 * max(union_block, estimators._BLOCK_ELEMENTS // (n * 9)) + 1
    rng = np.random.default_rng(n)
    samples = rng.random((rows, n))
    samples[::2, 0] = 0.0
    samples[1::3, -1] = 1.0
    for batch in (samples[:1], samples[: union_block + 1], samples):
        union = simple_stats_batch(batch, _UNION, null)
        assert np.array_equal(simple_stats_batch(batch, models, null), union[:, columns]), batch.shape


@pytest.mark.parametrize("null", [Gaussian(0.0, 1.0), Exponential()], ids=lambda d: d.name)
def test_piecewise_stats_of_null_samples_are_columns_of_the_union(null):
    models = _SUBSETS["piecewise-sparse"]
    pw_union = [m for m in _UNION if m.family is PW]
    samples = np.stack([null.sample(100, derive_stream(6, "union", r)) for r in range(400)])
    union = simple_stats_batch(samples, pw_union, null)
    assert np.array_equal(
        simple_stats_batch(samples, models, null), union[:, [pw_union.index(m) for m in models]]
    )


@pytest.mark.parametrize("degrees", [(2,), (3, 7), (2, 5, 9, 10)], ids=str)
def test_composite_stats_of_a_subset_are_columns_of_the_union(degrees):
    from adagof.harness import scale_models

    union = scale_models(2, 10)
    models = [ModelIndex(PW, degree) for degree in degrees]
    policy = ScaleSearchPolicy()
    n = 20
    rows = 2 * _search_block_rows(n, union, policy) + 3
    samples = _search_samples("exponential", rows, n, 11)
    whole = composite_scale_stats_batch(samples, union, Exponential(), policy)
    part = composite_scale_stats_batch(samples, models, Exponential(), policy)
    assert np.array_equal(part, whole[:, [union.index(m) for m in models]])


# ---------------------------------------------------------------------------
# The run-length pair counter against a literal count per row
# ---------------------------------------------------------------------------


def _unique_pair_theta(bins, degree):
    """``theta_hat`` of each row from its ``np.unique`` bin counts."""
    n = bins.shape[-1]
    degrees = np.broadcast_to(degree, bins.shape[:-1]).reshape(-1)
    out = []
    for row, D in zip(bins.reshape(-1, n), degrees):
        _, counts = np.unique(row, return_counts=True)
        pairs = int(np.sum(counts * (counts - 1))) // 2
        out.append(D * (2.0 * pairs) / (n * (n - 1)))
    return np.array(out).reshape(bins.shape[:-1])


def _transposed_slice(bins):
    """The same values as a non-contiguous view: last axis first, padded,
    then moved back and sliced."""
    holder = np.zeros((bins.shape[-1] + 2,) + bins.shape[:-1])
    holder[1:-1] = np.moveaxis(bins, -1, 0)
    return np.moveaxis(holder, 0, -1)[..., 1:-1]


@st.composite
def _sorted_bin_batches(draw):
    """Sorted integer-valued float bins, ``(rows, n)`` with a scalar degree
    or ``(k, rows, n)`` with a degree per k."""
    stacked = draw(st.booleans())
    k, rows, n = draw(st.integers(1, 3)), draw(st.integers(1, 5)), draw(st.integers(2, 9))
    top = draw(st.integers(0, 2 * n))  # 0: every row one run
    size = k * rows * n
    values = draw(st.lists(st.integers(-2, top), min_size=size, max_size=size))
    bins = np.sort(np.array(values, dtype=float).reshape(k, rows, n), axis=-1)
    if draw(st.booleans()):  # each row opens on its predecessor's last bin
        flat = bins.reshape(-1, n)
        flat[1:, 0] = np.minimum(flat[:-1, -1], flat[1:, 1])
    degrees = np.array(draw(st.lists(st.integers(1, 12), min_size=k, max_size=k)))
    if not stacked:
        return bins[0], int(degrees[0])
    return bins, degrees[:, None]


@settings(max_examples=300, deadline=None)
@given(batch=_sorted_bin_batches(), transposed=st.booleans())
def test_pair_counter_matches_unique_counts(batch, transposed):
    bins, degree = batch
    want = _unique_pair_theta(bins, degree)
    if transposed:
        bins = _transposed_slice(bins)
        assert bins.flags.c_contiguous == (bins.size == bins.shape[-1])  # a lone row stays contiguous
    got = estimators._piecewise_theta(bins, degree)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("layout", ["contiguous", "transposed"])
def test_pair_counter_on_equal_distinct_and_chained_rows(layout):
    n = 6
    bins = np.array([
        [3.0] * n,                       # all equal
        [3.0, 4, 5, 6, 7, 8],            # all distinct, opens on the last row's bin
        [8.0, 8, 8, 9, 9, 10],           # opens on the last row's bin
        [10.0, 11, 12, 13, 14, 15],      # all distinct, opens on the last row's bin
        [15.0] * n,                      # all equal to the last row's last bin
    ])
    stacked = np.stack([bins, bins[::-1]])
    degrees = np.array([[2], [7]])
    for b, degree in ((bins, 5), (stacked, degrees)):
        want = _unique_pair_theta(b, degree)
        if layout == "transposed":
            b = _transposed_slice(b)
        assert estimators._piecewise_theta(b, degree).tobytes() == want.tobytes()
    assert _unique_pair_theta(bins, 5).tolist() == [5.0, 0.0, 5.0 * 8 / 30, 0.0, 5.0]


# ---------------------------------------------------------------------------
# Golden pins: sha256 of kernel outputs on fixed batches, recorded before the
# flat pair counter replaced the strided one
# ---------------------------------------------------------------------------


def _golden_search_batch(kind):
    rng = np.random.default_rng({"exponential": 1, "weibull": 2, "rounded": 3}[kind])
    if kind == "exponential":
        return rng.exponential(size=(40, 100))
    if kind == "weibull":
        return rng.weibull(1.5, size=(40, 100))
    return np.maximum(np.round(rng.exponential(size=(40, 100)), 1), 0.1)  # ties


_GOLDEN_SEARCH_POLICIES = {
    "default": ScaleSearchPolicy(),
    "coarse31-rounds2": ScaleSearchPolicy(coarse_points=31, refine_rounds=2),
}
# sha256 of values.tobytes() + ratios.tobytes() of _scale_search over
# piecewise:2-10 under the exponential null
GOLDEN_SEARCH = {
    ("exponential", "default"): "9c7f32f8c96004738b1a7f4a56559eeaa161f58028cc69aaed4d31dacdd46be7",
    ("exponential", "coarse31-rounds2"): "59d7464aebeb6f55694a2b782c609463371fb50d378b25d4e6119ffc078567d7",
    ("weibull", "default"): "6227905b0bd07149c2ec09c8b7157e34a77b0878a2fecdbc327786728990819c",
    ("weibull", "coarse31-rounds2"): "f263bb3a2bf07012487d5ae6f422d6af18ccdb124355937d929f3fb3c6f12b30",
    ("rounded", "default"): "01dc9437e0e68a043095d3c4f69b3d219dce70fb0f6fc13e709728eb683eb14e",
    ("rounded", "coarse31-rounds2"): "6bc6fd09caa177c45c25df537126b5fe15fd749d2ea1e54dce6fa0464ce60af5",
}


@pytest.mark.parametrize("kind, policy", sorted(GOLDEN_SEARCH))
def test_scale_search_golden(kind, policy):
    models = [ModelIndex(PW, degree) for degree in range(2, 11)]
    values, ratios = _scale_search(
        _golden_search_batch(kind), models, Exponential(), _GOLDEN_SEARCH_POLICIES[policy]
    )
    digest = hashlib.sha256(values.tobytes() + ratios.tobytes()).hexdigest()
    assert digest == GOLDEN_SEARCH[kind, policy]


def _golden_simple_stats():
    from adagof.harness import mixed_models

    rng = np.random.default_rng(4)
    x = rng.random((300, 100))
    x[::3] = np.round(x[::3], 2)  # ties
    x[::5, 0] = 0.0
    x[::7, -1] = 1.0  # the upper-edge clamp
    stats = simple_stats_batch(x, mixed_models(12, 10), Uniform01())
    assert stats.shape == (300, 21)
    return stats


def test_simple_stats_golden_piecewise():
    # the nine piecewise columns: recorded before the flat pair counter and
    # before the Fourier recurrence, and unchanged by both
    stats = _golden_simple_stats()
    assert hashlib.sha256(np.ascontiguousarray(stats[:, :9]).tobytes()).hexdigest() == (
        "89ff29ad636c39e462ac276e52315a3a442ea396d5c4d1cae796aee8f75a3ada"
    )


def test_simple_stats_golden():
    # the whole matrix, recorded on the Chebyshev-recurrence Fourier columns
    # (with np.cos/np.sin of every multiple angle it was e122eeee3d28...)
    assert hashlib.sha256(_golden_simple_stats().tobytes()).hexdigest() == (
        "f650a4dea4eab7a9864cd6062343b675042d2e811037f89db2df68413e4c5593"
    )
