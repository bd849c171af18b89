import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adagof
from adagof.adaptive_test import (
    run_composite_compact_test,
    run_composite_invariant_test,
    run_simple_test,
)
from adagof.baselines import (
    bickel_ritov_statistic,
    kallenberg_ledwina_test,
    ks_exponential_statistic,
    ks_statistic,
)
from adagof.bases import BasisFamily
from adagof.calibration import StatisticKind, calibrate
from adagof.errors import AdagofError, InvalidInputError, SupportViolationError, TableMismatchError
from adagof.estimators import (
    ModelIndex,
    ScaleSearchPolicy,
    composite_scale_stats_batch,
    simple_stats_batch,
    t_hat,
)
from adagof.harness import mixed_models, scale_models
from adagof.null_models import Exponential, Gaussian, Uniform01
from adagof.streams import derive_stream

PW = BasisFamily.PIECEWISE_CONSTANT
FOURIER = BasisFamily.FOURIER


@pytest.fixture(scope="module")
def simple_table():
    return calibrate(
        Uniform01(),
        [ModelIndex(FOURIER, d) for d in (1, 2, 3)] + [ModelIndex(PW, d) for d in (2, 3)],
        n=40, alpha=0.05, B1=2000, B2=2000, seed=21,
    )


@pytest.fixture(scope="module")
def composite_table():
    return calibrate(
        Exponential(), [ModelIndex(PW, d) for d in (2, 4, 6)],
        n=60, alpha=0.05, B1=1500, B2=1500,
        statistic_kind=StatisticKind.COMPOSITE_INVARIANT, seed=22,
        policy=ScaleSearchPolicy(coarse_points=65),
    )


class TestSimpleTest:
    def test_degenerate_model_never_rejects(self):
        table = calibrate(
            Uniform01(), [ModelIndex(PW, 1)], n=30, alpha=0.05, B1=500, B2=500, seed=23
        )
        for r in range(25):
            x = Uniform01().sample(30, derive_stream(24, "deg", r))
            res = run_simple_test(x, Uniform01(), table)
            assert not res.reject
            assert res.statistic == 0.0

    def test_exceedances_bounded_by_statistic(self, simple_table):
        x = Uniform01().sample(40, derive_stream(25, "s", 0))
        res = run_simple_test(x, Uniform01(), simple_table)
        exceedances = [p.exceedance for p in res.per_model]
        assert max(exceedances) == res.statistic
        assert res.reject == (res.statistic > 0.0)

    def test_sample_size_mismatch(self, simple_table):
        with pytest.raises(TableMismatchError):
            run_simple_test(np.full(10, 0.5), Uniform01(), simple_table)

    def test_null_mismatch(self, simple_table):
        with pytest.raises(TableMismatchError):
            run_simple_test(np.full(40, 0.5), Exponential(), simple_table)

    def test_kind_mismatch(self, composite_table):
        x = Exponential().sample(60, derive_stream(26, "k", 0))
        with pytest.raises(TableMismatchError):
            run_simple_test(x, Exponential(), composite_table)

    def test_witness_is_first_positive_exceedance(self, simple_table):
        # a sharp peak rejects; the witness must be the first model (in
        # pinned order) whose exceedance is positive
        x = np.concatenate([np.full(20, 0.31), Uniform01().sample(20, derive_stream(27, "w", 0))])
        res = run_simple_test(x, Uniform01(), simple_table)
        assert res.reject
        positives = [p.model for p in res.per_model if p.exceedance > 0.0]
        assert res.argwitness == positives[0]

    def test_result_serializes(self, simple_table):
        x = Uniform01().sample(40, derive_stream(28, "j", 0))
        doc = run_simple_test(x, Uniform01(), simple_table).to_json()
        assert set(doc) == {"statistic", "reject", "u_alpha_used", "argwitness", "per_model"}
        assert len(doc["per_model"]) == len(simple_table.models)


class TestCompositeInvariantTest:
    def test_decision_invariant_under_rescaling(self, composite_table):
        x = Exponential().sample(60, derive_stream(29, "ci", 0))
        base = run_composite_invariant_test(x, Exponential(), None, composite_table)
        scaled = run_composite_invariant_test(7.0 * x, Exponential(), None, composite_table)
        assert scaled.reject == base.reject
        assert scaled.statistic == base.statistic
        for a, b in zip(base.per_model, scaled.per_model):
            assert a.stat == b.stat
            assert a.sigma_ratio == b.sigma_ratio

    def test_policy_mismatch_rejected(self, composite_table):
        x = Exponential().sample(60, derive_stream(29, "ci", 1))
        with pytest.raises(TableMismatchError):
            run_composite_invariant_test(
                x, Exponential(), ScaleSearchPolicy(coarse_points=17), composite_table
            )

    def test_support_violation(self, composite_table):
        x = np.linspace(-1.0, 5.0, 60)
        with pytest.raises(SupportViolationError):
            run_composite_invariant_test(x, Exponential(), None, composite_table)


@pytest.fixture(scope="module")
def gauss_table():
    return calibrate(
        Gaussian(0.0, 1.0), [ModelIndex(PW, d) for d in (2, 3, 4)],
        n=50, alpha=0.05, B1=1500, B2=1500, seed=31,
    )


class TestCompositeCompactTest:
    def test_single_point_rectangle_matches_simple_test(self, gauss_table):
        mu0, sig0 = 0.4, 1.3
        x = Gaussian(mu0, sig0).sample(50, derive_stream(32, "cc", 0))
        res = run_composite_compact_test(
            x, Gaussian(0.0, 1.0), ((mu0, mu0), (sig0, sig0)), (2, 2), gauss_table
        )
        simple = run_simple_test((x - mu0) / sig0, Gaussian(0.0, 1.0), gauss_table)
        assert res.reject == simple.reject
        assert res.statistic == pytest.approx(simple.statistic, abs=1e-12)

    def test_statistic_below_any_grid_standardization(self, gauss_table):
        x = Gaussian(0.2, 1.1).sample(50, derive_stream(32, "cc", 1))
        K = ((-0.5, 0.5), (0.8, 1.6))
        res = run_composite_compact_test(x, Gaussian(0.0, 1.0), K, (5, 5), gauss_table)
        for mu in np.linspace(-0.5, 0.5, 5):
            for sig in np.linspace(0.8, 1.6, 5):
                z = (x - mu) / sig
                for p, m in zip(res.per_model, gauss_table.models):
                    assert p.stat <= t_hat(z, m, Gaussian(0.0, 1.0)) + 1e-12

    def test_level_bounded_at_grid_member(self, gauss_table):
        # data from a family member whose parameters sit on the search grid:
        # the compact test can reject at most as often as the simple test on
        # the correctly standardized data, so its level is controlled
        mu0, sig0 = 0.25, 1.25
        K = ((-1.0, 1.0), (0.5, 2.0))
        rejections = simple_rejections = 0
        for r in range(60):
            x = Gaussian(mu0, sig0).sample(50, derive_stream(33, "lvl", r))
            res = run_composite_compact_test(
                x, Gaussian(0.0, 1.0), K, (9, 7), gauss_table, refine_rounds=0
            )
            rejections += res.reject
            simple_rejections += run_simple_test(
                (x - mu0) / sig0, Gaussian(0.0, 1.0), gauss_table
            ).reject
        assert rejections <= simple_rejections


@pytest.fixture(scope="module")
def fourier_table():
    return calibrate(
        Uniform01(), [ModelIndex(FOURIER, d) for d in (1, 2, 3)],
        n=40, alpha=0.05, B1=200, B2=200, seed=34,
    )


def _with_bad_value(n, bad):
    x = np.linspace(0.05, 0.95, n)
    x[7] = bad
    return x


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
class TestNonFiniteObservation:
    def test_simple_test_raises(self, bad, simple_table, fourier_table):
        for table in (simple_table, fourier_table):
            with pytest.raises(AdagofError):
                run_simple_test(_with_bad_value(40, bad), Uniform01(), table)

    def test_composite_invariant_test_raises(self, bad, composite_table):
        with pytest.raises(AdagofError):
            run_composite_invariant_test(_with_bad_value(60, bad), Exponential(), None, composite_table)

    def test_composite_compact_test_raises(self, bad, gauss_table):
        with pytest.raises(AdagofError):
            run_composite_compact_test(
                _with_bad_value(50, bad), Gaussian(0.0, 1.0), ((-0.5, 0.5), (0.5, 2.0)), (3, 3),
                gauss_table,
            )


def _assert_decisions_are_kernel_rows(results, batch, table):
    for res, row in zip(results, batch):
        stats = np.array([p.stat for p in res.per_model])
        assert stats.tobytes() == row.tobytes()
        assert res.reject == bool((row > table.thresholds_at_u_alpha).any())


class TestDecisionsUseTheKernel:
    """A decision's per-model statistics are the kernel's row for its sample,
    bit for bit, so the decision matches the simulation that calibrated it."""

    def test_simple_uniform_mixed_collection(self):
        d = Uniform01()
        table = calibrate(d, mixed_models(12, 10), n=100, alpha=0.05, B1=1000, B2=1000, seed=35)
        rng = np.random.default_rng(36)
        samples = np.vstack([rng.random((100, 100)), rng.beta(1.5, 1.5, (100, 100))])
        results = [run_simple_test(x, d, table) for x in samples]
        _assert_decisions_are_kernel_rows(results, simple_stats_batch(samples, table.models, d), table)

    def test_simple_gaussian_direct_collection(self):
        d = Gaussian(0.0, 1.0)
        table = calibrate(d, scale_models(1, 10), n=100, alpha=0.05, B1=200, B2=200, seed=37)
        rng = np.random.default_rng(38)
        samples = np.vstack([rng.normal(size=(100, 100)), rng.standard_t(4, (100, 100))])
        results = [run_simple_test(x, d, table) for x in samples]
        _assert_decisions_are_kernel_rows(results, simple_stats_batch(samples, table.models, d), table)

    def test_composite_exponential_scale_collection(self):
        d = Exponential()
        table = calibrate(
            d, scale_models(2, 10), n=100, alpha=0.1, B1=200, B2=200, seed=39,
            statistic_kind=StatisticKind.COMPOSITE_INVARIANT,
        )
        rng = np.random.default_rng(40)
        scales = np.exp(rng.uniform(-2.0, 2.0, (200, 1)))
        samples = np.vstack([rng.exponential(1.0, (100, 100)), rng.weibull(1.5, (100, 100))]) * scales
        results = [run_composite_invariant_test(x, d, None, table) for x in samples]
        batch = composite_scale_stats_batch(samples, table.models, d, table.policy)
        _assert_decisions_are_kernel_rows(results, batch, table)


# Every public decision entry point, as (null the sample is drawn from, n,
# call); the tables come from the module fixtures.
_ENTRY_POINTS = {
    "run_simple_test": (Uniform01(), 40, lambda x, t: run_simple_test(x, Uniform01(), t["simple"])),
    "run_composite_invariant_test": (
        Exponential(), 60,
        lambda x, t: run_composite_invariant_test(x, Exponential(), None, t["composite"]),
    ),
    "run_composite_compact_test": (
        Gaussian(0.0, 1.0), 50,
        lambda x, t: run_composite_compact_test(
            x, Gaussian(0.0, 1.0), ((-0.5, 0.5), (0.8, 1.6)), (3, 3), t["gauss"]
        ),
    ),
    "ks_statistic": (Uniform01(), 40, lambda x, t: ks_statistic(x, Uniform01())),
    "ks_exponential_statistic": (Exponential(), 60, lambda x, t: ks_exponential_statistic(x)),
    "bickel_ritov_statistic": (Uniform01(), 40, lambda x, t: bickel_ritov_statistic(x, 6)),
    "kallenberg_ledwina_test": (Uniform01(), 40, lambda x, t: kallenberg_ledwina_test(x, 6, 1.0)),
}


@pytest.fixture(scope="module")
def tables(simple_table, composite_table, gauss_table):
    return {"simple": simple_table, "composite": composite_table, "gauss": gauss_table}


@settings(max_examples=60, deadline=None)
@given(
    entry=st.sampled_from(sorted(_ENTRY_POINTS)),
    replicate=st.integers(0, 2**32 - 1),
    bad=st.lists(
        st.tuples(
            st.floats(0.0, 1.0, exclude_max=True), st.sampled_from([math.nan, math.inf, -math.inf])
        ),
        min_size=1, max_size=3,
    ),
)
def test_non_finite_sample_raises_at_every_entry_point(tables, entry, replicate, bad):
    null, n, call = _ENTRY_POINTS[entry]
    x = null.sample(n, derive_stream(34, "non-finite", replicate))
    for where, value in bad:
        x[int(where * n)] = value
    with pytest.raises(AdagofError):
        call(x, tables)


@pytest.mark.filterwarnings("error")
def test_a_sample_whose_mean_overflows_is_refused(composite_table):
    # the decision is scale invariant up to the top of the float range; past
    # it the mean overflowed to inf and the test rejected, warning only
    x = Exponential().sample(60, derive_stream(35, "overflow", 0))
    base = run_composite_invariant_test(x, Exponential(), None, composite_table)
    for c in (1e300, 1e306):
        scaled = run_composite_invariant_test(c * x, Exponential(), None, composite_table)
        assert scaled.statistic == base.statistic
    assert ks_exponential_statistic(1e306 * x) == ks_exponential_statistic(x)
    with pytest.raises(InvalidInputError, match="mean overflows"):
        run_composite_invariant_test(1e307 * x, Exponential(), None, composite_table)
    with pytest.raises(InvalidInputError, match="mean overflows"):
        ks_exponential_statistic(1e307 * x)


@pytest.mark.filterwarnings("error")
def test_an_observation_whose_bin_overflows_is_refused(gauss_table):
    # floor(D * x) overflowed to inf, so distinct huge observations shared a bin
    x = Gaussian(0.0, 1.0).sample(50, derive_stream(35, "overflow", 1))
    x[[3, 17]] = 1e308, -1e308
    with pytest.raises(InvalidInputError, match="overflows the float range"):
        run_simple_test(x, Gaussian(0.0, 1.0), gauss_table)


_DECIDE_WITHOUT_SCIPY_SPECIAL = """
import sys
import numpy as np
from adagof import Exponential, ModelIndex, BasisFamily, StatisticKind, Uniform01, calibrate
from adagof import run_composite_invariant_test, run_simple_test
from adagof.estimators import ScaleSearchPolicy
from adagof.harness import mixed_models
rng = np.random.default_rng(3)
table = calibrate(Uniform01(), mixed_models(4, 3), n=30, B1=200, B2=200, seed=1)
run_simple_test(rng.random(30), Uniform01(), table)
models = [ModelIndex(BasisFamily.PIECEWISE_CONSTANT, d) for d in (2, 3)]
table = calibrate(
    Exponential(), models, n=30, B1=200, B2=200, seed=2,
    statistic_kind=StatisticKind.COMPOSITE_INVARIANT, policy=ScaleSearchPolicy(coarse_points=17),
)
run_composite_invariant_test(rng.exponential(2.0, 30), Exponential(), None, table)
print(sorted(m for m in ("scipy.special", "scipy.integrate") if m in sys.modules))
"""


def _fresh_interpreter_output(script: str) -> str:
    # a fresh interpreter: this test process may have loaded scipy.special already
    src = str(Path(adagof.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()


def test_uniform_and_exponential_decisions_do_not_load_scipy_special():
    assert _fresh_interpreter_output(_DECIDE_WITHOUT_SCIPY_SPECIAL) == "[]"


# T3 is left out: its Gaussian null's cdf is scipy.special.ndtr
_SAMPLE_WITHOUT_SCIPY_SPECIAL = """
import sys
from adagof.harness import ExperimentConfig, ModelParams, TestKind, estimate_power, reproduce_table
for table in ("T1", "T2", "T4"):
    reproduce_table(table, seed=1, scale=0.012)
estimate_power(ExperimentConfig(
    test=TestKind.TTR, null="uniform", n=20, model_params=ModelParams(d_tr=3),
    alternatives=("f:0.5,2", "g:10,20,0.25", "h:0.3,5"),
    reps_power=100, reps_level=100, calib=(100, 100), seed=1,
), build_missing=True)
estimate_power(ExperimentConfig(
    test=TestKind.KS_EXP, null="exponential", n=20, alternatives=("exp:t", "exp:k:10,20,0.25"),
    reps_power=100, reps_level=1000, calib=(1000, 1000), seed=1,
), build_missing=True)
print(sorted(m for m in ("scipy.special", "scipy.integrate") if m in sys.modules))
"""


def test_tables_and_power_rows_that_sample_normals_do_not_load_scipy_special():
    # the Marsaglia-Tsang proposals (g:, exp:k:) and exp:t draw through
    # null_models.ndtri
    assert _fresh_interpreter_output(_SAMPLE_WITHOUT_SCIPY_SPECIAL) == "[]"
