import math

import numpy as np
import pytest
from scipy import integrate, stats

from adagof.alternatives import (
    _rejection_unit_counted,
    alt_l2_distance_sq,
    alt_pdf,
    alt_sample,
    beta_mixture,
    beta_sample,
    chi2_three_alt,
    cosine_contamination,
    double_exponential,
    exp_beta_mixture,
    exp_cosine_bump,
    exp_gamma_mixture,
    exp_sine_bump,
    from_id,
    gamma_sample,
    gaussian_location_mixture,
    legendre_contamination,
    lognormal_alt,
    uniform_box,
    weibull_alt,
)
from adagof.errors import InvalidInputError
from adagof.null_models import Exponential, Uniform01
from adagof.streams import derive_stream

CATALOG_IDS = [
    "f:0.5,2", "f:0.7,4", "f:0.7,6",
    "g:3,3,0.5", "g:10,20,0.25", "g:2,2,0.8", "g:2,4,0.5",
    "h:0.4,2", "h:0.3,5",
    "norm:f:2", "norm:g:1,1", "norm:g:0.5,2", "norm:h:0.7978845608028654",
    "exp:g:4", "exp:h:4", "exp:h:1",
    "exp:k:10,20,0.25", "exp:l:2,5,0.5", "exp:l:2,5,0.75",
    "exp:t", "exp:v", "exp:w",
]


@pytest.mark.parametrize("alt_id", CATALOG_IDS)
def test_pdf_integrates_to_one(alt_id):
    spec = from_id(alt_id)
    lo, hi = spec.quad_window
    mass, _ = integrate.quad(lambda x: float(alt_pdf(spec, x)), lo, hi, limit=400)
    assert mass == pytest.approx(1.0, abs=1e-6), alt_id


@pytest.mark.parametrize("alt_id", CATALOG_IDS)
def test_pdf_nonnegative(alt_id):
    spec = from_id(alt_id)
    lo, hi = spec.quad_window
    xs = np.linspace(lo, hi, 20_001)
    assert np.all(alt_pdf(spec, xs) >= -1e-12), alt_id


@pytest.mark.parametrize("alt_id", CATALOG_IDS)
def test_sampler_consistent_with_pdf(alt_id):
    # one-sample KS of 20k draws against the numeric cdf, at the 0.1% level
    spec = from_id(alt_id)
    draws = alt_sample(spec, derive_stream(60, f"cons:{alt_id}", 0), 20_000)
    lo, hi = spec.quad_window
    assert np.all(draws >= spec.support[0])
    assert np.all(alt_pdf(spec, draws) > 0.0)
    grid = np.linspace(lo, hi, 8001)
    pdf_vals = alt_pdf(spec, grid)
    cdf_vals = np.concatenate(
        [[0.0], np.cumsum((pdf_vals[1:] + pdf_vals[:-1]) / 2.0 * np.diff(grid))]
    )
    cdf_at_draws = np.interp(np.clip(draws, lo, hi), grid, cdf_vals)
    d_stat = stats.kstest(cdf_at_draws, "uniform").statistic
    assert d_stat < stats.kstwo.ppf(0.999, 20_000) + 5e-4, (alt_id, d_stat)


def test_hand_pdf_values():
    assert alt_pdf(from_id("f:0.5,2"), 0.0) == pytest.approx(1.5)
    # eps = 0 collapses the exponential-beta mixture to the unit exponential
    k0 = exp_beta_mixture(10, 20, 0.0)
    xs = np.linspace(0.0, 5.0, 50)
    np.testing.assert_allclose(alt_pdf(k0, xs), Exponential().pdf(xs), atol=1e-14)
    v = chi2_three_alt()
    expected = math.exp(-0.5) / (2.0**1.5 * math.gamma(1.5))
    assert alt_pdf(v, 1.0) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.2420, abs=5e-5)


def test_zero_weight_beta_mixture_is_uniform():
    g0 = beta_mixture(3, 3, 0.0)
    draws = alt_sample(g0, derive_stream(61, "g0", 0), 1000)
    assert np.all((draws >= 0.0) & (draws < 1.0))
    xs = np.linspace(0.0, 1.0, 11)
    np.testing.assert_allclose(alt_pdf(g0, xs), 1.0)


def test_cosine_contamination_moment():
    # for even j the first moment of 1 + rho cos(j pi x) equals 1/2
    spec = from_id("f:0.7,4")
    draws = alt_sample(spec, derive_stream(62, "mom", 0), 100_000)
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - 0.5) < 4.0 * se


def test_legendre_contamination_support_and_positivity():
    spec = from_id("h:0.3,5")
    draws = alt_sample(spec, derive_stream(63, "sup", 0), 50_000)
    assert np.all((draws >= 0.0) & (draws <= 1.0))
    assert np.all(alt_pdf(spec, draws) > 0.0)


def test_legendre_contamination_validation():
    # rho * sqrt(2j+1) > 1 would make the density negative
    with pytest.raises(InvalidInputError):
        legendre_contamination(0.5, 5)


def test_sine_bump_requires_even_frequency():
    with pytest.raises(InvalidInputError):
        exp_sine_bump(3)


class TestL2Distances:
    def test_cosine_vs_uniform(self):
        for rho, j in ((0.5, 2), (0.7, 4)):
            spec = cosine_contamination(rho, j)
            assert alt_l2_distance_sq(spec, Uniform01()) == pytest.approx(
                rho**2 / 2.0, abs=1e-6
            )

    def test_legendre_vs_uniform(self):
        spec = legendre_contamination(0.3, 5)
        assert alt_l2_distance_sq(spec, Uniform01()) == pytest.approx(0.09, abs=1e-6)

    def test_null_itself_is_zero(self):
        spec = exp_beta_mixture(10, 20, 0.0)
        assert alt_l2_distance_sq(spec, Exponential()) == pytest.approx(0.0, abs=1e-8)


class TestRejectionSamplers:
    def test_acceptance_rate_matches_envelope_mass(self):
        # constant envelope c over [0,1): acceptance probability is 1/c
        stream = derive_stream(64, "acc", 0)
        n = 40_000
        for rho, j in ((0.5, 2), (0.7, 6)):
            _, proposals = _rejection_unit_counted(
                stream, n, lambda x: 1.0 + rho * np.cos(j * np.pi * x), 1.0 + rho
            )
            rate = n / proposals
            expected = 1.0 / (1.0 + rho)
            se = math.sqrt(expected * (1.0 - expected) / proposals)
            assert abs(rate - expected) < 4.0 * se

    def test_perturbed_unit_part_envelope_two(self):
        stream = derive_stream(64, "acc", 1)
        n = 40_000
        _, proposals = _rejection_unit_counted(
            stream, n, lambda x: 1.0 + np.sin(4 * np.pi * x), 2.0
        )
        rate = n / proposals
        se = math.sqrt(0.5 * 0.5 / proposals)
        assert abs(rate - 0.5) < 4.0 * se


class TestGammaBetaPrimitives:
    def test_gamma_matches_scipy_cdf(self):
        for shape in (0.7, 1.5, 4.0):
            draws = gamma_sample(derive_stream(65, f"gam{shape}", 0), shape, 30_000)
            d = stats.kstest(draws, stats.gamma(shape).cdf).statistic
            assert d < stats.kstwo.ppf(0.999, 30_000), shape

    def test_beta_matches_scipy_cdf(self):
        for p, q in ((2.0, 4.0), (10.0, 20.0)):
            draws = beta_sample(derive_stream(66, f"beta{p},{q}", 0), p, q, 30_000)
            d = stats.kstest(draws, stats.beta(p, q).cdf).statistic
            assert d < stats.kstwo.ppf(0.999, 30_000), (p, q)

    def test_gamma_shape_validation(self):
        with pytest.raises(InvalidInputError):
            gamma_sample(derive_stream(65, "bad", 0), -1.0, 10)


def test_from_id_rejects_unknown():
    with pytest.raises(InvalidInputError):
        from_id("q:1,2")
    with pytest.raises(InvalidInputError):
        from_id("norm:z:3")


def test_ids_roundtrip_for_constructors():
    assert from_id("f:0.5,2").params == cosine_contamination(0.5, 2).params
    assert from_id("exp:l:2,5,0.75").params == exp_gamma_mixture(2, 5, 0.75).params
    assert from_id("norm:g:1,1").params == gaussian_location_mixture(1.0, 1.0).params
    assert from_id("norm:f:2").params == uniform_box(2.0).params
    assert from_id("norm:h:0.5").params == double_exponential(0.5).params
    assert from_id("exp:g:4").params == exp_sine_bump(4).params
    assert from_id("exp:h:1").params == exp_cosine_bump(1).params
    assert from_id("exp:t").id == lognormal_alt().id
    assert from_id("exp:w").id == weibull_alt().id


@pytest.mark.parametrize(
    "alt_id",
    ["f:abc,2", "exp:g:4.5", "norm:f:x", "f:0.5,2.7"],
)
def test_from_id_rejects_malformed_parameters(alt_id):
    # integer parameters parse as integers: f:0.5,2.7 is not silently j=2
    with pytest.raises(InvalidInputError):
        from_id(alt_id)


def test_every_preset_row_resolves():
    from adagof.harness import _PRESETS

    ids = [alt_id for blocks in _PRESETS.values() for _, _, rows, _ in blocks for _, alt_id, _ in rows]
    assert len(ids) == 2 * 9 + 8 + 8 + 9
    for alt_id in ids:
        assert from_id(alt_id).sampler is not None
