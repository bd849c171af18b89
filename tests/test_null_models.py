import math

import numpy as np
import pytest
from scipy import integrate

from adagof.baselines import ks_statistic
from adagof.errors import InvalidInputError
from adagof.null_models import (
    Exponential,
    Gaussian,
    Uniform01,
    null_from_spec,
    transform_to_uniform,
)
from adagof.streams import derive_stream

ALL_NULLS = [Uniform01(), Gaussian(0.0, 1.0), Gaussian(0.0, 0.1), Exponential()]


def _truncated_domain(d):
    if isinstance(d, Uniform01):
        return 0.0, 1.0
    if isinstance(d, Gaussian):
        return d.mean - 8.0 * d.sd, d.mean + 8.0 * d.sd
    return 0.0, 40.0


@pytest.mark.parametrize("d", ALL_NULLS, ids=lambda d: d.name)
class TestDensityContract:
    def test_pdf_integrates_to_one(self, d):
        lo, hi = _truncated_domain(d)
        mass, _ = integrate.quad(d.pdf, lo, hi, limit=200)
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_l2_norm_matches_quadrature(self, d):
        lo, hi = _truncated_domain(d)
        val, _ = integrate.quad(lambda x: d.pdf(x) ** 2, lo, hi, limit=200)
        assert d.l2_norm_sq == pytest.approx(val, abs=1e-8)

    def test_cdf_quantile_roundtrip(self, d):
        for u in np.linspace(1e-6, 1.0 - 1e-6, 41):
            assert d.cdf(d.quantile(u)) == pytest.approx(u, abs=1e-10)

    def test_cdf_nondecreasing(self, d):
        lo, hi = _truncated_domain(d)
        vals = d.cdf(np.linspace(lo, hi, 1001))
        assert np.all(np.diff(vals) >= 0.0)

    def test_quantile_domain(self, d):
        with pytest.raises(InvalidInputError):
            d.quantile(0.0)
        with pytest.raises(InvalidInputError):
            d.quantile(1.0)


class TestClosedForms:
    def test_uniform_cdf(self):
        assert Uniform01().cdf(0.3) == 0.3

    def test_exponential_pdf_at_zero(self):
        assert Exponential().pdf(0.0) == 1.0

    def test_exponential_quantile(self):
        assert Exponential().quantile(1.0 - math.exp(-1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_l2_norms_exact(self):
        assert Uniform01().l2_norm_sq == 1.0
        assert Exponential().l2_norm_sq == 0.5
        assert Gaussian(0.0, 1.0).l2_norm_sq == pytest.approx(
            1.0 / (2.0 * math.sqrt(math.pi)), abs=1e-15
        )

    def test_gaussian_cdf_reference_values(self):
        d = Gaussian(0.0, 1.0)
        # classic high-precision reference values of the standard normal cdf
        assert d.cdf(0.0) == pytest.approx(0.5, abs=1e-14)
        assert d.cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-12)
        assert d.cdf(-2.0) == pytest.approx(0.02275013194817921, abs=1e-12)


class TestSampling:
    def test_uniform_range(self):
        x = Uniform01().sample(3, derive_stream(1, "t", 0))
        assert np.all((x >= 0.0) & (x < 1.0))

    def test_exponential_mean_clt(self):
        x = Exponential().sample(100_000, derive_stream(1, "t", 1))
        assert abs(x.mean() - 1.0) < 4.0 / math.sqrt(100_000)

    def test_gaussian_variance_clt(self):
        x = Gaussian(0.0, 1.0).sample(100_000, derive_stream(1, "t", 2))
        assert abs(x.var() - 1.0) < 0.03

    def test_deterministic_given_stream(self):
        a = Gaussian(0.0, 1.0).sample(16, derive_stream(5, "s", 3))
        b = Gaussian(0.0, 1.0).sample(16, derive_stream(5, "s", 3))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("d", ALL_NULLS, ids=lambda d: d.name)
    @pytest.mark.parametrize("n", [2.5, True, 0, -1])
    def test_sample_size_must_be_a_positive_integer(self, d, n):
        with pytest.raises(InvalidInputError, match="sample size"):
            d.sample(n, derive_stream(5, "size", 0))


class TestTransformToUniform:
    def test_uniform_identity(self):
        x = np.array([0.0, 0.2, 0.9, 1.0])
        np.testing.assert_array_equal(transform_to_uniform(Uniform01(), x), x)

    def test_exponential_hand_value(self):
        out = transform_to_uniform(Exponential(), np.array([math.log(2.0)]))
        assert out[0] == pytest.approx(0.5, abs=1e-14)

    def test_gaussian_symmetry(self):
        out = transform_to_uniform(Gaussian(0.0, 1.0), np.array([0.0]))
        assert out[0] == 0.5

    def test_monotone(self):
        x = np.sort(np.random.default_rng(0).normal(size=50))
        out = transform_to_uniform(Gaussian(0.0, 1.0), x)
        assert np.all(np.diff(out) >= 0.0)

    @pytest.mark.parametrize("d", [Gaussian(0.0, 1.0), Exponential(), Gaussian(2.0, 0.5)])
    def test_ks_distribution_freeness_identity(self, d):
        # KS of the raw sample against F0 equals KS of the transformed sample
        # against uniform, bit for bit
        stream = derive_stream(11, "ks", 0)
        x = d.sample(200, stream)
        raw = ks_statistic(x, d)
        transformed = ks_statistic(transform_to_uniform(d, x), Uniform01())
        assert raw == transformed

    def test_null_transform_is_empirically_uniform(self):
        # At the exact 1% critical value the failure count is Binomial(100, 0.01):
        # asking for <= 1 would flake ~26% of the time, so allow 3 (P(X > 3) = 1.9%).
        from scipy import stats

        failures = 0
        crit = stats.kstwo.ppf(0.99, 1000)
        for trial in range(100):
            x = Exponential().sample(1000, derive_stream(42, "unif-bridge", trial))
            u = transform_to_uniform(Exponential(), x)
            if ks_statistic(u, Uniform01()) > crit:
                failures += 1
        assert failures <= 3


def test_null_from_spec_parsing():
    assert null_from_spec("uniform") == Uniform01()
    assert null_from_spec("exponential") == Exponential()
    assert null_from_spec("gaussian:0,0.1") == Gaussian(0.0, 0.1)
    with pytest.raises(InvalidInputError):
        null_from_spec("cauchy")
