import hashlib
import math

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

from adagof.baselines import (
    BaselineConfig,
    BaselineKind,
    _cosine_colsums,
    bickel_ritov_statistic,
    bickel_ritov_statistic_batch,
    calibrate_baseline,
    default_dimension,
    kallenberg_ledwina_statistic_batch,
    kallenberg_ledwina_test,
    ks_exponential_statistic,
    ks_statistic,
)
from adagof.errors import BudgetTooSmallError, InvalidInputError, SupportViolationError
from adagof.estimators import _BLOCK_ELEMENTS
from adagof.null_models import Exponential, Uniform01
from adagof.streams import derive_stream


class TestKS:
    def test_single_point(self):
        assert ks_statistic(np.array([0.5]), Uniform01()) == 0.5

    def test_two_points_enumerated(self):
        assert ks_statistic(np.array([0.25, 0.75]), Uniform01()) == 0.25

    def test_grid_oracle(self):
        # brute-force sup scan; the grid must include the jump locations,
        # otherwise its resolution (1e-5) caps the achievable agreement
        rng = np.random.default_rng(10)
        base_grid = np.linspace(0.0, 1.0, 100_001)
        for _ in range(10):
            x = rng.random(int(rng.integers(1, 80)))
            xs = np.sort(x)
            t_grid = np.union1d(base_grid, xs)
            right = np.searchsorted(xs, t_grid, side="right") / x.size
            left = np.searchsorted(xs, t_grid, side="left") / x.size
            oracle = max(
                np.abs(right - t_grid).max(), np.abs(left - t_grid).max()
            )
            assert ks_statistic(x, Uniform01()) == pytest.approx(oracle, abs=1e-6)


class TestKSExponential:
    def test_two_equal_points(self):
        val = ks_exponential_statistic(np.array([1.0, 1.0]))
        assert val == pytest.approx(1.0 - math.exp(-1.0), abs=1e-7)

    def test_exact_scale_invariance(self):
        x = Exponential().sample(200, derive_stream(50, "ksx", 0))
        base = ks_exponential_statistic(x)
        for c in (0.1, 3.0, 100.0):
            assert ks_exponential_statistic(c * x) == base

    def test_grid_oracle(self):
        x = Exponential().sample(150, derive_stream(50, "ksx", 1))
        r = np.float32(x / x.mean()).astype(np.float64)
        rs = np.sort(r)
        t_grid = np.union1d(np.linspace(0.0, rs[-1] * 1.5, 200_001), rs)
        fitted = 1.0 - np.exp(-t_grid)
        right = np.searchsorted(rs, t_grid, side="right") / r.size
        left = np.searchsorted(rs, t_grid, side="left") / r.size
        oracle = max(np.abs(right - fitted).max(), np.abs(left - fitted).max())
        assert ks_exponential_statistic(x) == pytest.approx(oracle, abs=1e-6)

    def test_support_violation(self):
        with pytest.raises(SupportViolationError):
            ks_exponential_statistic(np.array([0.5, -0.1]))


def _legendre(l, x):
    """Unit-norm shifted Legendre polynomial of degree l on [0, 1]."""
    return math.sqrt(2 * l + 1) * npleg.legval(2.0 * x - 1.0, [0.0] * l + [1.0])


def _bickel_ritov_triple_loop(x, d_of_n):
    n = x.size
    best = -np.inf
    for dim in range(1, d_of_n + 1):
        total = 0.0
        for l in range(1, dim + 1):
            for i in range(n):
                for j in range(n):
                    total += 2.0 * math.cos(l * math.pi * x[i]) * math.cos(l * math.pi * x[j])
        best = max(best, (total / n - dim) / math.sqrt(2.0 * dim))
    return best


class TestBickelRitov:
    def test_point_mass_at_zero(self):
        assert bickel_ritov_statistic(np.array([0.0]), 12) == pytest.approx(
            math.sqrt(6.0), abs=1e-12
        )

    def test_per_dimension_terms_nonnegative(self):
        rng = np.random.default_rng(11)
        x = rng.random((4, 40))
        sums = np.stack([np.cos(l * np.pi * x).sum(axis=1) for l in range(1, 13)])
        t_nd = np.cumsum(2.0 * sums * sums / 40, axis=0)
        assert np.all(t_nd >= 0.0)

    def test_triple_loop_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(12):
            n = int(rng.integers(2, 31))
            x = rng.random(n)
            fast = bickel_ritov_statistic(x, 8)
            slow = _bickel_ritov_triple_loop(x, 8)
            assert fast == pytest.approx(slow, rel=1e-10, abs=1e-10)

    def test_domain_check(self):
        with pytest.raises(InvalidInputError):
            bickel_ritov_statistic(np.array([1.5]), 10)

    @pytest.mark.parametrize("d_of_n", [1, 12, 20])
    def test_recurrence_matches_libm_cosines(self, d_of_n):
        # several row blocks; np.cos of every multiple angle is the oracle and
        # the l = 1 sums are libm's own
        n = 100
        rows = 3 * max(1, _BLOCK_ELEMENTS // (n * (d_of_n + 1))) + 1
        x = np.random.default_rng(18 + d_of_n).random((rows, n))
        x[::4, 0], x[1::5, -1] = 0.0, 1.0
        sums = np.stack([np.cos(l * np.pi * x).sum(axis=1) for l in range(1, d_of_n + 1)])
        got = _cosine_colsums(x, d_of_n)
        np.testing.assert_allclose(got, sums, rtol=1e-12, atol=1e-12)
        assert got[0].tobytes() == sums[0].tobytes()
        t_nd = np.cumsum(2.0 * sums * sums / n, axis=0)
        dims = np.arange(1, d_of_n + 1)[:, None]
        want = ((t_nd - dims) / np.sqrt(2.0 * dims)).max(axis=0)
        np.testing.assert_allclose(
            bickel_ritov_statistic_batch(x, d_of_n), want, rtol=1e-12, atol=1e-12
        )

    def test_golden(self):
        # recorded on the Chebyshev-recurrence cosines
        x = np.random.default_rng(5).random((300, 100))
        stats = bickel_ritov_statistic_batch(x, 12)
        assert hashlib.sha256(stats.tobytes()).hexdigest() == (
            "f0d793370fac7b1fe3289891cb9857305784b233482918cd87b8bf15cf38c99f"
        )


class TestKallenbergLedwina:
    def test_point_mass_at_half_selects_two(self):
        # phi_1(0.5) = 0 and phi_2(0.5) = -sqrt(5)/2, so with d = 2 the
        # selected dimension is 2 as soon as 5n/4 beats the extra penalty
        for n in (2, 10, 50):
            x = np.full(n, 0.5)
            selected, stat, _ = kallenberg_ledwina_test(x, 2, critical_value=np.inf)
            assert selected == 2
            assert stat == pytest.approx(1.25 * n, rel=1e-12)

    def test_statistic_matches_legendre_sum_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(5, 60))
            x = rng.random(n)
            selected, stats = kallenberg_ledwina_statistic_batch(x[None, :], 10)
            t_d = np.cumsum(
                [np.sum(_legendre(l, x)) ** 2 / n for l in range(1, 11)]
            )
            penalized = t_d - np.arange(1, 11) * math.log(n)
            d_hat = int(np.argmax(penalized)) + 1
            assert selected[0] == d_hat
            assert stats[0] == pytest.approx(t_d[d_hat - 1], rel=1e-10)

    def test_t_d_nondecreasing(self):
        rng = np.random.default_rng(14)
        x = rng.random(50)
        t_d = np.cumsum([np.sum(_legendre(l, x)) ** 2 / 50 for l in range(1, 11)])
        assert np.all(np.diff(t_d) >= 0.0)

    def test_dimension_cap(self):
        with pytest.raises(InvalidInputError):
            kallenberg_ledwina_test(np.full(5, 0.5), 21, 1.0)


class TestCalibrateBaseline:
    def test_deterministic(self):
        a = calibrate_baseline(BaselineKind.KS, 30, B=1000, seed=3)
        b = calibrate_baseline(BaselineKind.KS, 30, B=1000, seed=3)
        assert a == b

    def test_config_json_keys_and_values(self):
        cfg = BaselineConfig(BaselineKind.BICKEL_RITOV, 0.05, 3.25, 50, d_of_n=10, budget=1000, seed=2)
        doc = cfg.to_json()
        assert list(doc) == ["kind", "alpha", "critical_value", "n", "d_of_n", "budget", "seed"]
        assert doc == {
            "kind": "bickel_ritov", "alpha": 0.05, "critical_value": 3.25, "n": 50,
            "d_of_n": 10, "budget": 1000, "seed": 2,
        }
        assert BaselineConfig(BaselineKind.KS, 0.1, 0.2, 30).to_json()["d_of_n"] is None

    def test_budget_floor(self):
        with pytest.raises(BudgetTooSmallError):
            calibrate_baseline(BaselineKind.KS, 30, B=500, seed=3)

    def test_default_dimensions(self):
        assert default_dimension(50) == 10
        assert default_dimension(100) == 12
        with pytest.raises(InvalidInputError):
            default_dimension(73)

    def test_ks_critical_value_near_literature(self):
        # asymptotic 5% two-sided KS quantile is 1.358 / sqrt(n)
        cfg = calibrate_baseline(BaselineKind.KS, 100, B=8000, seed=4)
        assert cfg.critical_value == pytest.approx(1.358 / 10.0, abs=0.01)

    def test_ks_exponential_critical_value_near_literature(self):
        # estimated-scale exponential KS quantile is about 1.08 / sqrt(n)
        cfg = calibrate_baseline(BaselineKind.KS_EXPONENTIAL, 100, B=8000, seed=5)
        assert cfg.critical_value == pytest.approx(0.108, abs=0.008)

    @pytest.mark.parametrize(
        "kind",
        [BaselineKind.KS, BaselineKind.KS_EXPONENTIAL, BaselineKind.BICKEL_RITOV,
         BaselineKind.KALLENBERG_LEDWINA],
    )
    def test_fresh_batch_level(self, kind):
        cfg = calibrate_baseline(kind, 50, B=4000, seed=6)
        null = Exponential() if kind is BaselineKind.KS_EXPONENTIAL else Uniform01()
        rejections = 0
        reps = 2000
        samples = np.empty((reps, 50))
        for r in range(reps):
            samples[r] = null.sample(50, derive_stream(7, f"lvl:{kind.value}", r))
        if kind is BaselineKind.KS:
            from adagof.baselines import ks_statistic_batch

            stats = ks_statistic_batch(samples, Uniform01())
        elif kind is BaselineKind.KS_EXPONENTIAL:
            from adagof.baselines import ks_exponential_statistic_batch

            stats = ks_exponential_statistic_batch(samples)
        elif kind is BaselineKind.BICKEL_RITOV:
            stats = bickel_ritov_statistic_batch(samples, cfg.d_of_n)
        else:
            stats = kallenberg_ledwina_statistic_batch(samples, cfg.d_of_n)[1]
        level = (stats > cfg.critical_value).mean()
        assert abs(level - 0.05) < 0.02


_ENTRY_POINTS = {
    "ks_statistic": lambda x: ks_statistic(x, Uniform01()),
    "ks_exponential_statistic": ks_exponential_statistic,
    "bickel_ritov_statistic": lambda x: bickel_ritov_statistic(x, 6),
    "kallenberg_ledwina_test": lambda x: kallenberg_ledwina_test(x, 6, 1.0),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_non_finite_observation_raises(entry, bad):
    x = np.linspace(0.05, 0.95, 30)
    x[7] = bad
    with pytest.raises(InvalidInputError):
        _ENTRY_POINTS[entry](x)
