import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from adagof.bases import (
    BasisFamily,
    basis_sums,
    bin_counts,
    bin_index,
    fourier_eval,
    multiple_angles,
)
from adagof.errors import InvalidInputError

SQRT2 = math.sqrt(2.0)


class TestBinIndex:
    def test_left_endpoint(self):
        assert bin_index(0.0, 4) == 0

    def test_hand_values(self):
        assert bin_index(0.9, 2) == 1
        assert bin_index(-0.3, 2) == -1

    def test_upper_edge_clamps_into_last_bin(self):
        assert bin_index(1.0, 4, upper=1.0) == 3
        assert bin_index(1.0, 4) == 4

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            bin_index(math.nan, 2)
        with pytest.raises(InvalidInputError):
            bin_index(math.inf, 2)

    @given(st.floats(-100, 100), st.integers(1, 64))
    @example(-1.1, 50)  # (k + 1) / D rounds to the double x itself
    def test_point_lies_in_its_bin(self, x, D):
        # the bin is the floor of the float64 product D * x, as in the kernels
        k = bin_index(x, D)
        assert k == math.floor(D * x)
        assert k <= D * x < k + 1


class TestFourier:
    def test_constant_function(self):
        assert fourier_eval(0, 0.37) == 1.0

    def test_hand_values(self):
        assert fourier_eval(1, 0.0) == pytest.approx(SQRT2, abs=1e-15)
        assert fourier_eval(2, 0.25) == pytest.approx(SQRT2, abs=1e-15)

    def test_domain_check(self):
        with pytest.raises(InvalidInputError):
            fourier_eval(1, 1.2)

    def test_recurrence_matches_libm_trig(self):
        # every value comes from cos(2 pi x) and sin(2 pi x) by the Chebyshev
        # recurrence; np.cos/np.sin of the multiple angle is the oracle
        x = np.concatenate([
            [0.0, 0.25, 0.5, 1.0],
            np.linspace(0.0, 1.0, 2001),
            np.clip(0.5 + np.linspace(-1e-3, 1e-3, 201), 0.0, 1.0),  # theta near pi
            np.random.default_rng(13).random(2000),
        ])
        for l in range(1, 129):
            p = (l + 1) // 2
            trig = np.cos if l % 2 == 1 else np.sin
            want = SQRT2 * trig(2.0 * np.pi * p * x)
            got = fourier_eval(l, x)
            assert np.abs(got - want).max() <= 5e-13, l
            if p == 1:  # the first harmonic is libm's own
                assert got.tobytes() == want.tobytes(), l

    def test_scalar_input_gives_float(self):
        for l in (0, 1, 2, 7, 128):
            value = fourier_eval(l, 0.3)
            assert type(value) is float
            assert value == fourier_eval(l, np.array([0.3]))[0]
            assert value == fourier_eval(l, np.array(0.3))


class TestMultipleAngles:
    def test_layout(self):
        theta = np.array([[0.3, 1.1], [2.0, 3.0]])
        cosines = multiple_angles(theta, 5)
        mixed = multiple_angles(theta, 7, sines=True)
        assert cosines.shape == (5, 2, 2) and mixed.shape == (7, 2, 2)
        assert np.all(cosines[0] == 1.0) and np.all(mixed[0] == 1.0) and np.all(mixed[1] == 0.0)
        for p in range(5):
            np.testing.assert_allclose(cosines[p], np.cos(p * theta), rtol=0, atol=1e-14)
        for p in range(1, 4):
            np.testing.assert_allclose(mixed[2 * p], np.cos(p * theta), rtol=0, atol=1e-14)
        for p in range(1, 3):
            np.testing.assert_allclose(mixed[2 * p + 1], np.sin(p * theta), rtol=0, atol=1e-14)

    def test_rows_do_not_depend_on_the_count_or_the_sines(self):
        theta = np.random.default_rng(15).random(50) * np.pi
        long, short = multiple_angles(theta, 13), multiple_angles(theta, 4)
        assert long[:4].tobytes() == short.tobytes()
        assert multiple_angles(theta, 24, sines=True)[::2].tobytes() == long[:12].tobytes()


def _simpson_inner_product(f, g, panels=2**14):
    xs = np.linspace(0.0, 1.0, panels + 1)
    return integrate.simpson(f(xs) * g(xs), x=xs)


@pytest.mark.parametrize(
    "family,evaluate,max_degree",
    [
        (BasisFamily.FOURIER, fourier_eval, 32),
    ],
)
def test_orthonormality_smooth_families(family, evaluate, max_degree):
    for l in range(max_degree + 1):
        for lp in range(l, max_degree + 1):
            val = _simpson_inner_product(
                lambda x, l=l: np.asarray(evaluate(l, x)),
                lambda x, lp=lp: np.asarray(evaluate(lp, x)),
            )
            assert abs(val - (1.0 if l == lp else 0.0)) < 1e-6, (family, l, lp)


def test_orthonormality_piecewise_simpson():
    # Simpson cannot do better than O(1/panels) on a discontinuous product,
    # so the quadrature check runs at the tolerance it can actually certify;
    # the exact identity below pins the sharp version.
    for D in (1, 2, 3, 5, 8, 16, 32):
        for k in range(min(D, 6)):
            for kp in range(k, min(k + 2, D)):
                def f(x, k=k):
                    return np.where((x >= k / D) & (x < (k + 1) / D), math.sqrt(D), 0.0)

                def g(x, kp=kp):
                    return np.where((x >= kp / D) & (x < (kp + 1) / D), math.sqrt(D), 0.0)

                val = _simpson_inner_product(f, g)
                assert abs(val - (1.0 if k == kp else 0.0)) < 1e-2


def test_orthonormality_piecewise_exact_overlap():
    # exact interval algebra: D * |bin_k intersect bin_k'| = delta_{kk'}
    for D in range(1, 33):
        for k in range(-2, D + 2):
            for kp in range(-2, D + 2):
                lo = max(k / D, kp / D)
                hi = min((k + 1) / D, (kp + 1) / D)
                val = D * max(hi - lo, 0.0)
                assert val == pytest.approx(1.0 if k == kp else 0.0, abs=1e-12)


class TestBasisSums:
    def test_sparse_counts(self):
        counts = basis_sums(np.array([0.1, 0.9]), BasisFamily.PIECEWISE_CONSTANT, 2)
        assert counts == {0: 1, 1: 1}

    def test_counts_total_is_n(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=257)
        counts = bin_counts(x, 7)
        assert sum(counts.values()) == 257

    def test_fourier_single_point(self):
        S, Q = basis_sums(np.array([0.5]), BasisFamily.FOURIER, 0)
        np.testing.assert_allclose(S, [1.0])
        np.testing.assert_allclose(Q, [1.0])

    def test_domain_violation(self):
        with pytest.raises(InvalidInputError):
            basis_sums(np.array([0.5, 1.5]), BasisFamily.FOURIER, 2)

    @pytest.mark.parametrize("family", list(BasisFamily))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_observation_raises(self, family, bad):
        x = np.linspace(0.05, 0.95, 30)
        x[7] = bad
        with pytest.raises(InvalidInputError):
            basis_sums(x, family, 2)
        with pytest.raises(InvalidInputError):
            fourier_eval(1, x)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 60))
    def test_matches_naive_pointwise_sums(self, seed, D, n):
        rng = np.random.default_rng(seed)
        x = rng.random(n)
        S, Q = basis_sums(x, BasisFamily.FOURIER, D)
        for l in range(D + 1):
            vals = np.array([fourier_eval(l, v) for v in x])
            assert S[l] == pytest.approx(vals.sum(), rel=1e-12, abs=1e-12)
            assert Q[l] == pytest.approx((vals**2).sum(), rel=1e-12, abs=1e-12)

    def test_sparse_counts_match_naive(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=100)
        counts = basis_sums(x, BasisFamily.PIECEWISE_CONSTANT, 5)
        naive = {}
        for v in x:
            k = bin_index(v, 5)
            naive[k] = naive.get(k, 0) + 1
        assert counts == naive
