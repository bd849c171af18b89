import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from adagof.alternatives import (
    _CATALOG,
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
from adagof.calibration import draw_samples
from adagof.errors import InvalidInputError
from adagof.null_models import Exponential, Uniform01, null_from_spec
from adagof.streams import _BLOCK, LaneBlock, derive_stream, lane_blocks

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
    ["f:abc,2", "exp:g:4.5", "norm:f:x", "f:0.5,2.7", "exp:t:", "exp:v:"],
)
def test_from_id_rejects_malformed_parameters(alt_id):
    # integer parameters parse as integers: f:0.5,2.7 is not silently j=2;
    # a parameterless id takes no ':', as a null spec does not
    with pytest.raises(InvalidInputError):
        from_id(alt_id)


def test_every_preset_row_resolves():
    from adagof.harness import _PRESETS

    ids = [alt_id for blocks in _PRESETS.values() for _, _, rows, _ in blocks for _, alt_id, _ in rows]
    assert len(ids) == 2 * 9 + 8 + 8 + 9
    for alt_id in ids:
        assert from_id(alt_id).sampler is not None


@pytest.mark.parametrize("n", [2.5, True, 0, -3])
def test_alt_sample_size_must_be_a_positive_integer(n):
    with pytest.raises(InvalidInputError, match="sample size"):
        alt_sample(from_id("f:0.5,2"), derive_stream(67, "size", 0), n)


# ---------------------------------------------------------------------------
# Lane blocks: every sampler over a block of replicate streams
# ---------------------------------------------------------------------------

# sha256 of draw_samples(sample, 100, 9, f"golden:{key}", 0, 300), recorded
# when every sampler still drew one replicate at a time
GOLDEN_DRAWS = {
    "exp:g:4": "ef0558e7aadf3cc636ebcd4e0fb17f4d784d4ad22a0ece7c0f0e4ba1fd29fc87",
    "exp:h:1": "d5bd1138bf7af8447c6e5eef7e47a94d480b64558c383543405d4ba0eefd21fd",
    "exp:h:4": "314b0c8b01cf793ed08fa5ef8d59c54f7bb387638aa58b736f8f243f0319b5e8",
    "exp:k:10,20,0.25": "34025c3fb6a40de7cf5267fdfde9846df45819148f0ff99d3bd135972ad99c13",
    "exp:l:2,5,0.5": "6c42933345b12d65f27035dc9df38d769828c9bb658e6504cb8a912fc3e3cce9",
    "exp:l:2,5,0.75": "c9c1c0d5e5b2d85f6800548e28c1dcdaa1c93fb2e8864b57fde1a14c01a21beb",
    "exp:t": "82bb0fb8f017cf7fd18efb12ee48d02ccb146bc6ff8791c1d3240e380236d5bc",
    "exp:v": "9d73f2e37d0ba9c53f00e075dad4062aa3571e24d758d6fa109313816e963e5a",
    "exp:w": "9a7f8c792818501d891aac3c9d705d40193f7261a15d2eb2a44a4cb146306abe",
    "f:0.5,2": "c314e23835f83d07cdff6fb9f28d856cbf4fcf2068d270b0868f42a17f195b8f",
    "f:0.7,4": "aa343c0b12b12dec4d51aa1196439aec7af92851f719d20cd3cc40ae047ca873",
    "f:0.7,6": "680fa4e10bed50af199ce02d8cf48852d5854bbad6bda4e5482dc0e67ac74d9e",
    "g:10,20,0.25": "69e350a327cf98d2663aa0f17a114e2f48a9055715093a03740aa3f580be9538",
    "g:2,2,0.8": "37b6f7f225dcfebfc2b87c0b342dd987b8e278d42dc8141df1ae3fe80fcac9a5",
    "g:2,4,0.5": "1d5e49e356a0b6e0063a488c2fabdff35437ccdc557b2e7f40132d0e99ee72ec",
    "g:3,3,0.5": "4c0299dcf9eb841e443fe94bd2b7db411884660178e792f44bc3aeb84962f1c9",
    "h:0.3,5": "3d85342577495064260294404aa0ca64f26445fe00da24365c6d0442e12e5e28",
    "h:0.4,2": "69138e55a868d752a1c645a864def88709d7b10c337dd33c159e3f62a7196eb6",
    "norm:f:0.12": "da43d2507cb8757dd0d073cb9443635e39d61891d7f5dedf6a0af9870a90731e",
    "norm:f:0.16": "3c9ceac802ce6b5d5c93a0797ebeb6cf49c98b9225e92bdf5c2b846e9260b30f",
    "norm:f:0.17": "e400e7fe7bafbf6a4e604e2dddeb0fcb1b4d5f17208c114a23bea6b8c800d4d8",
    "norm:f:1.2533141373155001": "ed706831554da8770f1c6c9b6539576c3fea2c95240e4cc40d6e0b7cafc170c9",
    "norm:f:1.8": "1c37dd019e3cd96e0676bd934f15f105285490aae3f8b5700b84eefcc4166bc1",
    "norm:f:2": "51d4997731d9a6db2d7cd065ecc5f429f5e4addc24934a62e0ffdbf8a6699fa6",
    "norm:g:0.05,0.015": "134dc2d48e5de2a450c90dfd9e1639bc3e833c3f397c2d19adee99938674eff1",
    "norm:g:0.05,0.02": "175f55c5f5c93bc2d908da71644e69af14d8941d8c52e817f0ee2ba519f853a3",
    "norm:g:0.1,0.01": "54ba5e604504081cac9eb734408ab36b888b9519b4fc381dcfdf2b89fcb31f45",
    "norm:g:0.5,2": "d7015a8276925f978f70f67c142df537ba25088c786a13ae88d61e7ba6d80a70",
    "norm:g:1,1": "15d9201344d045461e9cc25a8875233f6469d8e9bbae8a75539f7a01b8c62ffb",
    "norm:g:1,2": "6ab975a30ce68bd687ea0a91dc38bd3f322025ea9ea1abdfe25d8b9c302d2762",
    "norm:h:0.5984134206021491": "7f010b1aae6f190a1f34e9837b3e37ae4f150dd47e9eca1bc7ab7353a8157776",
    "norm:h:0.7978845608028654": "dc3e13fb4e2b35d2a0d11ed19e2b003204d5b4adc7eea6faa04a403d92a554dc",
    "norm:h:5.984134206021491": "facb036b6d82278c724d03dc1cae0f0b6b9bdb3a35d78f831d8a49eaeb727fad",
    "norm:h:7.978845608028655": "dbd80cd5024184bbaa76331fca64f2714b0b3e23463bda5b0c56f08d4cf682aa",
    "uniform": "e693688c3136e2907b2d5e9d29552d06ea67a509340faeadc39a1c4552c298bc",
    "exponential": "97251200323baf1fb124988866b00c572c9a4ec1041aecb8ae2f09f4d96d2167",
    "gaussian:0,1": "a780c3eb788eb8ea22244a726bf8ecafe3d2ddeb6013647017b132518996c369",
    "gaussian:0,0.1": "3fbbdec061174a13e0c98c7db94ef9ca53e6d55fc82e4698e64fd7a746bd88dc",
}


def _draw_function(key):
    """``sample(n, stream)`` of a null spec or an alternative id."""
    if key in ("uniform", "exponential") or key.startswith("gaussian"):
        return null_from_spec(key).sample
    sampler = from_id(key).sampler
    return lambda size, stream: sampler(stream, size)


def test_golden_ids_cover_every_preset_row_and_null():
    from adagof.harness import _PRESETS

    ids = {alt_id for blocks in _PRESETS.values() for _, _, rows, _ in blocks for _, alt_id, _ in rows}
    nulls = {null for blocks in _PRESETS.values() for null, *_ in blocks}
    assert set(GOLDEN_DRAWS) == ids | nulls


@pytest.mark.parametrize("key", sorted(GOLDEN_DRAWS))
def test_lane_draws_match_golden_digest(key):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # padding maps without warnings
        draws = draw_samples(_draw_function(key), 100, 9, f"golden:{key}", 0, 300)
    assert draws.shape == (300, 100)
    assert hashlib.sha256(draws.tobytes()).hexdigest() == GOLDEN_DRAWS[key]


# a rejection id, a beta mixture, a gamma mixture with the shape boost, an
# exponential/rejection mixture, a pure gamma, an inverse transform, two nulls
LANE_KEYS = [
    "h:0.3,5", "g:2,2,0.8", "exp:l:0.5,1,0.5", "exp:g:4", "exp:v", "norm:g:1,1",
    "uniform", "gaussian:0.3,2",
]


@pytest.mark.parametrize("key", LANE_KEYS)
@pytest.mark.parametrize(
    "start, stop, n",
    [
        (0, _BLOCK + 3, 4),  # crosses a block boundary
        (_BLOCK // 2 + 1, _BLOCK // 2 + 12, 30),  # starts mid-block
        (2**32 - 2, 2**32 + 2, 1),  # one entropy word, then two; n = 1
    ],
)
def test_lane_rows_equal_one_lane_generator_calls(key, start, stop, n):
    sample = _draw_function(key)
    draws = draw_samples(sample, n, 21, f"lanes:{key}", start, stop)
    assert draws.shape == (stop - start, n)
    for r, row in zip(range(start, stop), draws):
        np.testing.assert_array_equal(row, sample(n, derive_stream(21, f"lanes:{key}", r)))


@pytest.mark.parametrize("key", LANE_KEYS)
def test_empty_range_draws_nothing(key):
    assert draw_samples(_draw_function(key), 10, 21, "empty", 7, 7).shape == (0, 10)


def test_lanes_that_outgrow_their_prefix_more_than_once(monkeypatch):
    grown = {}
    extend = LaneBlock._extend

    def counted(self, lanes, need):
        for lane in lanes.tolist():
            grown[lane] = grown.get(lane, 0) + 1
        extend(self, lanes, need)

    monkeypatch.setattr(LaneBlock, "_extend", counted)
    # the block is driven directly, since a sampler reserves enough for most
    # lanes never to grow: each request outgrows the prefix the requests
    # before it left (1 uniform, then 5 to 8, then 25 to 44), on ragged counts
    lanes = np.arange(200)
    counts = [np.ones_like(lanes), 1 + lanes % 7, 6 + lanes % 31]
    block = next(lane_blocks(22, "grow", 0, 200))
    rows = [block.random(c) for c in counts]
    assert max(grown.values()) >= 3
    for r in lanes:
        got = np.concatenate([row[r, : c[r]] for row, c in zip(rows, counts)])
        np.testing.assert_array_equal(got, derive_stream(22, "grow", r).random(got.size))



# sha256 of draw_samples(sample, 100, 9, f"golden:{key}", 0, 300), recorded at
# the commit before the catalog's sampling steps were shared, for branches no
# preset row reaches: the gamma shape boost inside a mixture, beta shapes
# below one, a beta part on the exponential, and m = 0
GOLDEN_BRANCH_DRAWS = {
    "exp:l:0.5,1,0.5": "ebfee27488cdef59f02d385dad9290df25493d20939a3bb1ade6531229150516",
    "g:0.5,0.7,0.6": "997ad1b61185146c372b79a2001f6e02193a678ffebabd9c017812b86b84989b",
    "exp:k:0.8,3,0.4": "094e00cf63230cf08d88bbef40f14142fb6cdecd2e6adc3bf3d0d6fc599b3ed5",
    "norm:g:0,1": "9d3fa074e3785c454fca77c983a5b26fac36dd6943a55caaa67cc3cc820a56c7",
}


@pytest.mark.parametrize("key", sorted(GOLDEN_BRANCH_DRAWS))
def test_branch_draws_match_golden_digest(key):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        draws = draw_samples(_draw_function(key), 100, 9, f"golden:{key}", 0, 300)
    assert hashlib.sha256(draws.tobytes()).hexdigest() == GOLDEN_BRANCH_DRAWS[key]


@pytest.mark.parametrize(
    "spec, alt_id",
    [
        (cosine_contamination(0.5, 2), "f:0.5,2"),
        (beta_mixture(10, 20, 0.25), "g:10,20,0.25"),
        (legendre_contamination(0.3, 5), "h:0.3,5"),
        (uniform_box(2), "norm:f:2"),
        (gaussian_location_mixture(0.05, 0.015), "norm:g:0.05,0.015"),
        (gaussian_location_mixture(0, 1), "norm:g:0,1"),
        # a float that six significant digits do not hold prints in full
        (double_exponential(math.sqrt(2.0 / math.pi)), "norm:h:0.7978845608028654"),
        (exp_sine_bump(4), "exp:g:4"),
        (exp_cosine_bump(1), "exp:h:1"),
        (exp_beta_mixture(10, 20, 0.25), "exp:k:10,20,0.25"),
        (exp_gamma_mixture(2, 5, 0.75), "exp:l:2,5,0.75"),
        (lognormal_alt(), "exp:t"),
        (chi2_three_alt(), "exp:v"),
        (weibull_alt(), "exp:w"),
    ],
)
def test_constructor_ids_are_catalog_ids(spec, alt_id):
    assert spec.id == alt_id
    assert from_id(spec.id).id == spec.id


_POSITIVE = st.floats(min_value=0.0, max_value=1e6, exclude_min=True)
_WEIGHT = st.floats(min_value=0.0, max_value=1.0)


def _legendre_params(j):
    # rho * sqrt(2 j + 1) must lie in (0, 1]
    top = math.nextafter(1.0 / math.sqrt(2 * j + 1), 0.0)
    return st.tuples(st.floats(min_value=0.0, max_value=top, exclude_min=True), st.just(j))


# Catalog prefix -> strategy of valid constructor parameters.
_VALID_PARAMS = {
    "f": st.tuples(st.floats(min_value=0.0, max_value=1.0, exclude_min=True), st.integers(1, 10**6)),
    "g": st.tuples(_POSITIVE, _POSITIVE, _WEIGHT),
    "h": st.integers(1, 10**4).flatmap(_legendre_params),
    "norm:f": st.tuples(_POSITIVE),
    "norm:g": st.tuples(st.floats(min_value=-1e6, max_value=1e6), _POSITIVE),
    "norm:h": st.tuples(_POSITIVE),
    "exp:g": st.tuples(st.integers(1, 10**6).map(lambda k: 2 * k)),
    "exp:h": st.tuples(st.integers(1, 10**6)),
    "exp:k": st.tuples(_POSITIVE, _POSITIVE, _WEIGHT),
    "exp:l": st.tuples(_POSITIVE, _POSITIVE, _WEIGHT),
    "exp:t": st.just(()),
    "exp:v": st.just(()),
    "exp:w": st.just(()),
}


def test_every_catalog_prefix_has_a_parameter_strategy():
    assert set(_VALID_PARAMS) == set(_CATALOG)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_VALID_PARAMS)).flatmap(
    lambda prefix: st.tuples(st.just(prefix), _VALID_PARAMS[prefix])
))
def test_id_resolves_to_the_same_parameters(case):
    prefix, params = case
    spec = _CATALOG[prefix][0](*params)
    assert spec.id.startswith(prefix)
    back = from_id(spec.id)
    assert back.params == spec.params
    assert back.id == spec.id


@pytest.mark.parametrize(
    "alt_id, at_zero, at_one",
    [
        # the uniformity alternatives include both edges
        ("f:0.5,2", 1.5, 1.5),
        ("h:0.3,5", 0.005012562893380146, 1.9949874371066199),
        ("h:0.4,2", 1.894427190999916, 1.894427190999916),
        # the unit half of an exponential mixture excludes both: exp(-x) / 2
        ("exp:g:4", 0.5, 0.18393972058572117),
        ("exp:h:1", 0.5, 0.18393972058572117),
        ("exp:h:4", 0.5, 0.18393972058572117),
    ],
)
def test_pdf_at_support_edges(alt_id, at_zero, at_one):
    spec = from_id(alt_id)
    assert float(alt_pdf(spec, 0.0)) == at_zero
    assert float(alt_pdf(spec, 1.0)) == at_one
    np.testing.assert_array_equal(alt_pdf(spec, np.array([0.0, 1.0])), [at_zero, at_one])
