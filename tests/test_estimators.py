import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adagof.bases import BasisFamily
from adagof.errors import (
    AdagofError,
    InsufficientSampleError,
    InvalidInputError,
    SupportViolationError,
)
from adagof.estimators import (
    ModelIndex,
    ScaleSearchPolicy,
    composite_scale_stats_batch,
    pinned_order,
    scale_free_ratios,
    simple_stats_batch,
    t_hat,
    t_tilde_affine,
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


@pytest.fixture(scope="module")
def exp_sample():
    return Exponential().sample(500, derive_stream(42, "scale-search", 0))


@pytest.fixture(scope="module")
def gauss_sample():
    return Gaussian(0.3, 1.2).sample(200, derive_stream(42, "affine-search", 0))


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

    def test_single_observation_raises(self):
        m, d = ModelIndex(PW, 3), Exponential()
        with pytest.raises(InsufficientSampleError):
            composite_scale_stats_batch(np.ones((4, 1)), [m], d, ScaleSearchPolicy())
        with pytest.raises(InsufficientSampleError):
            t_tilde_scale(np.array([2.0]), m, d)


class TestAffineSearch:
    def test_degenerate_rectangle_reduces_to_t_hat(self, gauss_sample):
        m = ModelIndex(PW, 4)
        d = Gaussian(0.0, 1.0)
        res = t_tilde_affine(gauss_sample, m, d, ((0.3, 0.3), (1.2, 1.2)))
        expected = t_hat((gauss_sample - 0.3) / 1.2, m, d)
        assert res.value == pytest.approx(expected, abs=1e-12)
        assert res.mu == 0.3 and res.sigma == 1.2

    def test_min_property_over_grid_nodes(self, gauss_sample):
        m = ModelIndex(PW, 4)
        d = Gaussian(0.0, 1.0)
        K = ((-1.0, 1.0), (0.5, 2.0))
        res = t_tilde_affine(gauss_sample, m, d, K, grid=(9, 7), refine_rounds=0)
        for mu in np.linspace(-1.0, 1.0, 9):
            for sig in np.linspace(0.5, 2.0, 7):
                assert res.value <= t_hat((gauss_sample - mu) / sig, m, d) + 1e-12

    def test_against_dense_grid_oracle(self, gauss_sample):
        m = ModelIndex(PW, 4)
        d = Gaussian(0.0, 1.0)
        K = ((-1.0, 1.0), (0.5, 2.0))
        res = t_tilde_affine(gauss_sample, m, d, K, grid=(33, 33), refine_rounds=2)
        mus = np.linspace(-1.0, 1.0, 400)
        sigs = np.linspace(0.5, 2.0, 400)
        x = np.sort(gauss_sample)
        dense = min(
            t_hat((x - mu) / sig, m, d) for mu in mus for sig in sigs
        )
        # within the oracle's own resolution envelope around the refinement cell
        assert res.value <= dense + 5e-3

    def test_inverted_rectangle_rejected(self, gauss_sample):
        with pytest.raises(InvalidInputError):
            t_tilde_affine(gauss_sample, ModelIndex(PW, 2), Gaussian(0.0, 1.0), ((1.0, -1.0), (0.5, 2.0)))
        with pytest.raises(InvalidInputError):
            t_tilde_affine(gauss_sample, ModelIndex(PW, 2), Gaussian(0.0, 1.0), ((0.0, 0.0), (-1.0, 2.0)))


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


_ENTRY_POINTS = {
    "theta_hat_fourier": lambda x: theta_hat(x, ModelIndex(FOURIER, 3)),
    "theta_hat_piecewise": lambda x: theta_hat(x, ModelIndex(PW, 3)),
    "t_hat_fourier": lambda x: t_hat(x, ModelIndex(FOURIER, 3), Uniform01()),
    "t_hat_piecewise": lambda x: t_hat(x, ModelIndex(PW, 3), Gaussian(0.0, 1.0)),
    "t_tilde_scale": lambda x: t_tilde_scale(x, ModelIndex(PW, 3), Exponential()),
    "t_tilde_affine": lambda x: t_tilde_affine(
        x, ModelIndex(PW, 3), Gaussian(0.0, 1.0), ((-0.5, 0.5), (0.5, 2.0))
    ),
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


def test_model_index_validation():
    with pytest.raises(InvalidInputError):
        ModelIndex("legendre", 3)
    with pytest.raises(InvalidInputError):
        ModelIndex(PW, 0)
