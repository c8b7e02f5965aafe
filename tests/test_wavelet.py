"""Haar pyramid, interpolation, shrinkage and rank-normal transform."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import norm, rankdata

from _oracles import quantile_transform_reference

from wavescreen import wavelet
from wavescreen.wavelet import (
    DyadicGrid,
    WaveletError,
    block_sum_matrix,
    haar_full,
    haar_pyramid,
    interpolation_matrix,
    inverse_haar,
    normalize_positions,
    pyramid_variances,
    quantile_transform,
    soft_threshold,
    visushrink,
)


class TestHaarPyramid:
    def test_known_four_point_example(self):
        # v = [1, 2, 3, 4]: c00 = 10/2, d00 = (3 - 7)/2, d1 = (-1, -1)/sqrt(2)
        c, d = haar_pyramid(np.array([1.0, 2.0, 3.0, 4.0]), depth=1)
        np.testing.assert_allclose(c[0], [5.0])
        np.testing.assert_allclose(d[0], [-2.0])
        np.testing.assert_allclose(c[1], [3 / np.sqrt(2), 7 / np.sqrt(2)])
        np.testing.assert_allclose(d[1], [-1 / np.sqrt(2), -1 / np.sqrt(2)])

    def test_parseval(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(64)
        c0, d = haar_full(v)
        total = c0[0] ** 2 + sum(float(np.sum(ds ** 2)) for ds in d)
        assert abs(total - float(v @ v)) < 1e-10

    def test_roundtrip(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal((128, 3))
        c0, d = haar_full(v)
        rec = inverse_haar(c0, d)
        np.testing.assert_allclose(rec, v, atol=1e-12)

    def test_block_sums_match_full_grid(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal((256, 5))
        c_full, d_full = haar_pyramid(v, depth=3)
        A = block_sum_matrix(256, 16)
        c_agg, d_agg = haar_pyramid(A @ v, depth=3, n_grid=256)
        for s in range(4):
            np.testing.assert_allclose(c_agg[s], c_full[s], atol=1e-12)
            np.testing.assert_allclose(d_agg[s], d_full[s], atol=1e-12)

    def test_rejects_bad_shapes(self):
        with pytest.raises(WaveletError):
            haar_pyramid(np.zeros(3), 0)
        with pytest.raises(WaveletError):
            haar_pyramid(np.zeros(8), 3)  # depth must stay below J
        with pytest.raises(WaveletError):
            haar_pyramid(np.zeros(8), 1, n_grid=12)

    def test_burden_monotone_in_dosage(self):
        rng = np.random.default_rng(3)
        v = rng.uniform(0, 2, size=32)
        c_lo, _ = haar_pyramid(v, 0)
        c_hi, _ = haar_pyramid(v + 0.5, 0)
        assert c_hi[0][0] > c_lo[0][0]

    def test_left_heavy_signal_gives_positive_d(self):
        v = np.concatenate([np.full(16, 2.0), np.zeros(16)])
        _, d = haar_pyramid(v, 0)
        assert d[0][0] > 0


class TestInterpolation:
    def test_on_grid_exactness(self):
        grid = DyadicGrid(5)
        x = grid.points[[3, 7, 12, 20, 29]]
        W = interpolation_matrix(x, grid)
        vals = np.array([1.0, -2.0, 0.5, 3.0, 1.5])
        out = W @ vals
        np.testing.assert_allclose(out[[3, 7, 12, 20, 29]], vals, atol=1e-12)

    def test_rows_are_convex_combinations(self):
        grid = DyadicGrid(6)
        x = np.sort(np.random.default_rng(4).uniform(0, 1, size=17))
        W = interpolation_matrix(x, grid)
        np.testing.assert_allclose(np.asarray(W.sum(axis=1)).ravel(), 1.0, atol=1e-12)
        assert W.min() >= 0.0
        assert (W != 0).sum(axis=1).max() <= 2

    def test_constant_extrapolation(self):
        grid = DyadicGrid(4)
        x = np.array([0.4, 0.6])
        vals = np.array([1.0, 3.0])
        out = interpolation_matrix(x, grid) @ vals
        assert np.all(out[grid.points < 0.4] == 1.0)
        assert np.all(out[grid.points > 0.6] == 3.0)

    def test_variance_floor(self):
        # perfectly imputed SNPs: every coefficient's variance sits at the floor
        grid = DyadicGrid(3)
        W = interpolation_matrix(np.array([0.2, 0.8]), grid)
        var_c, var_d = pyramid_variances(W, np.zeros(2), depth=2)
        for var in var_c + var_d:
            assert np.all(var == wavelet.VARIANCE_FLOOR)

    def test_normalize_positions(self):
        out = normalize_positions(np.array([100, 150, 200]), 100, 200)
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0])
        with pytest.raises(WaveletError):
            normalize_positions(np.array([1]), 5, 5)

    def test_needs_increasing_positions(self):
        with pytest.raises(WaveletError):
            interpolation_matrix(np.array([0.5, 0.5]), DyadicGrid(3))


class TestPyramidVariances:
    def test_matches_bruteforce_linear_combination(self):
        rng = np.random.default_rng(5)
        grid = DyadicGrid(5)
        x = np.sort(rng.uniform(0, 1, size=12))
        sig2 = rng.uniform(0.0, 0.3, size=12)
        W = interpolation_matrix(x, grid)
        var_c, var_d = pyramid_variances(W, sig2, depth=2)
        Wd = W.toarray()
        N = grid.n_points
        for s in range(3):
            block = N >> s
            for l in range(1 << s):
                rows = Wd[l * block: (l + 1) * block]
                a_c = rows.sum(axis=0) / np.sqrt(block)
                left = rows[: block // 2].sum(axis=0)
                right = rows[block // 2:].sum(axis=0)
                a_d = (left - right) / np.sqrt(block)
                np.testing.assert_allclose(
                    var_c[s][l], max(float(a_c ** 2 @ sig2), wavelet.VARIANCE_FLOOR),
                    rtol=1e-10,
                )
                np.testing.assert_allclose(
                    var_d[s][l], max(float(a_d ** 2 @ sig2), wavelet.VARIANCE_FLOOR),
                    rtol=1e-10,
                )

    def test_aggregated_rows_match(self):
        rng = np.random.default_rng(6)
        grid = DyadicGrid(7)
        x = np.sort(rng.uniform(0, 1, size=40))
        sig2 = rng.uniform(0.0, 0.5, size=40)
        W = interpolation_matrix(x, grid)
        vc0, vd0 = pyramid_variances(W, sig2, depth=3)
        Wt = block_sum_matrix(grid.n_points, 16) @ W
        vc1, vd1 = pyramid_variances(Wt, sig2, depth=3, n_grid=grid.n_points)
        for s in range(4):
            np.testing.assert_allclose(vc1[s], vc0[s], rtol=1e-10)
            np.testing.assert_allclose(vd1[s], vd0[s], rtol=1e-10)


class TestShrinkage:
    def test_soft_threshold_values(self):
        v = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
        out = soft_threshold(v, np.full_like(v, 1.0))
        np.testing.assert_allclose(out, [-2.0, 0.0, 0.0, 0.0, 2.0])

    def test_visushrink_kills_pure_noise_scale(self):
        # threshold sqrt(2 log N) * sigma exceeds typical N(0, sigma^2) draws
        rng = np.random.default_rng(7)
        d = [rng.normal(0, 0.1, size=(8, 50))]
        var_d = [np.full(8, 0.01)]
        out = visushrink(d, var_d, n_grid=4096)
        assert np.mean(out[0] == 0.0) > 0.95

    def test_visushrink_keeps_strong_signal(self):
        d = [np.full((1, 4), 50.0)]
        out = visushrink(d, [np.array([1.0])], n_grid=1024)
        assert np.all(out[0] > 40.0)


@st.composite
def rank_inputs(draw):
    """(values, axis): 1-D or 2-D rows with heavy ties, zero runs or constant rows."""
    axis = draw(st.sampled_from([0, -1]))
    n = draw(st.integers(2, 40))
    shape = (n,) if draw(st.booleans()) else (
        (n, draw(st.integers(1, 6))) if axis == 0 else (draw(st.integers(1, 6)), n)
    )
    elements = draw(st.sampled_from([
        st.integers(-3, 3).map(float),  # integer-valued: heavy ties
        # soft-thresholded coefficients: runs of zeros of either sign
        st.one_of(st.sampled_from([0.0, -0.0]),
                  st.floats(-5, 5, allow_nan=False, allow_subnormal=False)),
        st.floats(-1e6, 1e6, allow_nan=False),
    ]))
    values = draw(hnp.arrays(np.float64, shape, elements=elements))
    if len(shape) == 2:
        # constant rows along the transform axis, +-0 mixes included
        for i in range(values.shape[1 + axis]):
            fill = draw(st.sampled_from([None, 1.5, 0.0, "zeros"]))
            row = values[:, i] if axis == 0 else values[i]
            if fill == "zeros":
                row[:] = np.where(np.arange(n) % 2, 0.0, -0.0)
            elif fill is not None:
                row[:] = fill
    return values, axis


class TestQuantileTransform:
    @given(rank_inputs())
    @example((np.array([3.0, 3.0]), -1))
    @example((np.array([[1.0, -0.0], [0.0, 2.0]]), 0))
    @example((np.array([[0.0, -0.0, 0.0, -0.0], [1.0, -1.0, 0.0, -0.0]]), -1))
    @settings(max_examples=300, deadline=None)
    def test_bitwise_equal_to_reference(self, case):
        values, axis = case
        scores, deg = quantile_transform(values, axis=axis)
        ref_scores, ref_deg = quantile_transform_reference(values, axis=axis)
        assert scores.shape == ref_scores.shape
        assert np.array_equal(scores.view(np.int64), ref_scores.view(np.int64))
        assert np.shape(deg) == np.shape(ref_deg)
        assert np.array_equal(deg, ref_deg)

    def test_matches_blom_formula(self):
        rng = np.random.default_rng(8)
        v = rng.standard_normal((6, 101))
        scores, deg = quantile_transform(v)
        r = rankdata(v, method="average", axis=-1)
        ref = norm.ppf((r - 0.375) / (101 + 0.25))
        np.testing.assert_allclose(scores, ref, atol=1e-12)
        assert not deg.any()

    def test_exact_antisymmetry(self):
        rng = np.random.default_rng(9)
        v = rng.standard_normal((4, 200))
        s_pos, _ = quantile_transform(v)
        s_neg, _ = quantile_transform(-v)
        assert np.all((s_neg == -s_pos) | ((s_pos == 0.0) & (s_neg == 0.0)))

    def test_degenerate_rows_flagged_and_zeroed(self):
        v = np.vstack([np.ones(10), np.arange(10.0)])
        scores, deg = quantile_transform(v)
        np.testing.assert_array_equal(deg, [True, False])
        assert np.all(scores[0] == 0.0)
        assert np.any(scores[1] != 0.0)

    def test_needs_two_values(self):
        with pytest.raises(WaveletError):
            quantile_transform(np.array([[1.0]]))

    @given(
        hnp.arrays(
            np.float64, st.tuples(st.integers(2, 6), st.integers(2, 40)),
            elements=st.floats(-5, 5, allow_nan=False).map(lambda x: round(x, 1)),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_blom_on_scipy_ranks(self, arr):
        scores, deg = quantile_transform(arr)
        r = rankdata(arr, method="average", axis=-1)
        ref = norm.ppf((r - 0.375) / (arr.shape[-1] + 0.25))
        ref[deg] = 0.0
        np.testing.assert_allclose(scores, ref, rtol=1e-13, atol=1e-15)
        np.testing.assert_array_equal(deg, np.ptp(arr, axis=-1) == 0.0)

    @given(
        hnp.arrays(np.float64, st.integers(2, 60),
                   elements=st.floats(-100, 100, allow_nan=False), unique=True)
    )
    @settings(max_examples=50, deadline=None)
    def test_transform_preserves_order(self, v):
        scores, _ = quantile_transform(v)
        assert np.array_equal(np.argsort(scores), np.argsort(v))


class TestBlockSumMatrix:
    def test_sums_blocks(self):
        A = block_sum_matrix(8, 4)
        v = np.arange(8.0)
        np.testing.assert_allclose(A @ v, [1.0, 5.0, 9.0, 13.0])

    def test_rejects_non_divisible(self):
        with pytest.raises(WaveletError):
            block_sum_matrix(8, 3)
