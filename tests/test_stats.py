"""Statistics kernel: frozen hand-formula oracles, scipy cross-checks, invariants."""

import numpy as np
import pytest
from scipy import stats as scipy_stats

from prefaudit.errors import DegenerateDataError, InsufficientSupportError
from prefaudit.stats import (
    betainc_regularized,
    cohens_d,
    one_sample_t,
    paired_t,
    pearson_r,
    seeded_sampler,
    t_p_two_sided,
    t_sf,
    welch_t,
)

# Expected values below were evaluated by hand from the textbook formulas
# (mean/variance arithmetic plus the t-tail integral) and are frozen here.

WELCH_CASES = [
    ((1, 2, 3), (4, 5, 6), -3.6742346141747673, 4.0, 0.021311641128756727),
    (
        (10.0, 12.0, 9.0, 11.0),
        (20.0, 25.0, 30.0, 27.0, 22.0),
        -7.582535549591888,
        5.014280303252743,
        0.00062522412625103,
    ),
]

PAIRED_CASES = [
    ((10, 10, 10, 14, 6), 7.905694150420948, 4.0, 0.0013849379404235027, 3.5355339059327373),
    ((3.0, -1.0, 2.5, 0.5, 1.0, 2.0), 2.218800784900916, 5.0, 0.07724463240599828, 0.9058216273156766),
]

PEARSON_CASES = [
    ((1, 2, 3, 4, 5), (2, 1, 4, 3, 7), 0.824163383692134),
    (
        (10.0, 8.0, 13.0, 9.0, 11.0, 14.0, 6.0),
        (8.04, 6.95, 7.58, 8.81, 8.33, 9.96, 7.24),
        0.6442618813255092,
    ),
]


@pytest.mark.parametrize("a,b,t,df,p", WELCH_CASES)
def test_welch_matches_hand_oracle(a, b, t, df, p):
    result = welch_t(a, b)
    assert result.statistic == pytest.approx(t, abs=1e-9)
    assert result.df == pytest.approx(df, abs=1e-9)
    assert result.p_value == pytest.approx(p, abs=1e-9)
    assert result.kind == "welch_two_sample"


def test_pooled_variant_equal_sizes_matches_welch_statistic():
    welch = welch_t((1, 2, 3), (4, 5, 6))
    pooled = welch_t((1, 2, 3), (4, 5, 6), pooled=True)
    assert pooled.statistic == pytest.approx(welch.statistic, abs=1e-12)
    assert pooled.df == 4.0
    assert pooled.kind == "pooled_two_sample"


@pytest.mark.parametrize("diffs,t,df,p,d", PAIRED_CASES)
def test_paired_and_cohens_d_match_hand_oracle(diffs, t, df, p, d):
    result = paired_t(diffs)
    assert result.statistic == pytest.approx(t, abs=1e-9)
    assert result.df == df
    assert result.p_value == pytest.approx(p, abs=1e-9)
    assert cohens_d(diffs) == pytest.approx(d, abs=1e-9)


@pytest.mark.parametrize("x,y,r", PEARSON_CASES)
def test_pearson_matches_hand_oracle(x, y, r):
    assert pearson_r(x, y) == pytest.approx(r, abs=1e-9)


def test_one_sample_matches_hand_oracle():
    result = one_sample_t((0.8, 0.9, 1.1, 0.95, 1.05), 1.0)
    assert result.statistic == pytest.approx(-0.7492686492653557, abs=1e-9)
    assert result.df == 4.0
    assert result.p_value == pytest.approx(0.49535430889103216, abs=1e-9)


def test_identical_samples_give_zero_statistic_max_p():
    result = welch_t((5.0, 5.0, 5.0), (5.0, 5.0, 5.0))
    assert result.statistic == 0.0
    assert result.p_value == 1.0


def test_degenerate_and_short_inputs_raise():
    with pytest.raises(InsufficientSupportError):
        welch_t((1.0,), (2.0, 3.0))
    with pytest.raises(DegenerateDataError):
        welch_t((1.0, 1.0), (2.0, 2.0))
    with pytest.raises(DegenerateDataError):
        paired_t((3.0, 3.0, 3.0))
    with pytest.raises(DegenerateDataError):
        one_sample_t((2.0, 2.0), 1.0)


def test_cohens_d_zero_diffs_reports_zero():
    assert cohens_d((0.0, 0.0, 0.0)) == 0.0
    with pytest.raises(DegenerateDataError):
        cohens_d((3.0, 3.0, 3.0))


def test_pearson_perfect_line_and_degenerate():
    x = [1.0, 2.0, 3.0, 4.0]
    assert pearson_r(x, [2 * v + 1 for v in x]) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DegenerateDataError):
        pearson_r([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


def test_pearson_symmetry_and_positive_affine_invariance():
    rng = np.random.default_rng(11)
    x = rng.normal(size=30)
    y = rng.normal(size=30)
    assert pearson_r(x, y) == pytest.approx(pearson_r(y, x), abs=1e-12)
    assert pearson_r(3.0 * x + 7.0, y) == pytest.approx(pearson_r(x, y), abs=1e-9)
    assert pearson_r(x, 0.5 * y - 2.0) == pytest.approx(pearson_r(x, y), abs=1e-9)


def test_welch_antisymmetry():
    a, b = (1.0, 4.0, 2.0, 6.0), (3.0, 9.0, 5.0)
    fwd = welch_t(a, b)
    back = welch_t(b, a)
    assert back.statistic == pytest.approx(-fwd.statistic, abs=1e-12)
    assert back.p_value == pytest.approx(fwd.p_value, abs=1e-12)


def test_t_tail_matches_scipy_to_1e12():
    for df in (1.0, 2.0, 4.0, 7.5, 30.0, 120.0):
        for t in (-8.0, -2.5, -0.3, 0.0, 0.7, 3.1, 15.0):
            assert t_sf(t, df) == pytest.approx(scipy_stats.t.sf(t, df), abs=1e-12)


def test_betainc_matches_scipy():
    from scipy.special import betainc

    for a in (0.5, 1.0, 2.5, 10.0):
        for b in (0.5, 1.5, 4.0):
            for x in (0.0, 0.01, 0.3, 0.5, 0.77, 0.99, 1.0):
                assert betainc_regularized(a, b, x) == pytest.approx(betainc(a, b, x), abs=1e-12)


def test_p_monotone_in_statistic_magnitude():
    values = [t_p_two_sided(t, 9.0) for t in (0.1, 0.5, 1.0, 2.0, 4.0, 9.0)]
    assert all(earlier > later for earlier, later in zip(values, values[1:]))


def test_sampler_identical_streams_for_identical_keys():
    draws_a = seeded_sampler(7, "a").random(100)
    draws_b = seeded_sampler(7, "a").random(100)
    assert np.array_equal(draws_a, draws_b)
    assert not np.array_equal(draws_a, seeded_sampler(7, "b").random(100))
    assert not np.array_equal(draws_a, seeded_sampler(8, "a").random(100))


def test_sampler_substreams_uniform_and_unrelated():
    draws = seeded_sampler(123, "uniformity").random(5000)
    counts, _ = np.histogram(draws, bins=10, range=(0.0, 1.0))
    chi2 = float(((counts - 500.0) ** 2 / 500.0).sum())
    assert chi2 < 27.88  # chi-square df=9 critical value at p=0.001
    other = seeded_sampler(123, "other-key").random(5000)
    assert abs(pearson_r(draws, other)) < 0.05
