"""Haar pyramid, interpolation, shrinkage and rank-normal transform."""

import mmap

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import norm, rankdata

from _oracles import (
    haar_full,
    inverse_haar,
    pyramid_variances_reference,
    quantile_transform_reference,
)

from wavescreen import wavelet
from wavescreen.wavelet import (
    block_sum_matrix,
    haar_pyramid,
    interpolation_matrix,
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
        with pytest.raises(ValueError, match="^grid length 3 is not a power of two$"):
            haar_pyramid(np.zeros(3), 0)
        with pytest.raises(ValueError, match=r"^depth 3 outside \[0, 2\] for 8 block sums$"):
            haar_pyramid(np.zeros(8), 3)  # depth must stay below J
        with pytest.raises(ValueError, match="^n_grid 12 must be a power of two >= 8$"):
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

    @pytest.mark.parametrize("shape, n_grid", [((64,), None), ((64, 3), None), ((64, 3), 512),
                                               ((128, 1), 128), ((2, 5), 8)])
    def test_dense_pyramid_equals_the_old_formula_on_a_copy(self, shape, n_grid):
        grid = np.random.default_rng(len(shape)).standard_normal(shape)
        grid[::7] = 0.0
        grid[3::7] = -0.0
        copy = grid.copy()
        M = shape[0]
        N = M if n_grid is None else n_grid
        J = M.bit_length() - 1
        for depth in range(J):
            c, d = haar_pyramid(grid, depth, n_grid=n_grid)
            assert grid.tobytes() == copy.tobytes()  # the input is only read
            # the pyramid as it was: every level's sums, then c and d from them
            sums = [None] * (J + 1)
            sums[J] = copy
            for s in range(J - 1, -1, -1):
                sums[s] = sums[s + 1][0::2] + sums[s + 1][1::2]
            assert len(c) == len(d) == depth + 1
            for s in range(depth + 1):
                root = np.sqrt(N >> s)
                want_d = (sums[s + 1][0::2] - sums[s + 1][1::2]) / root
                for got, want in ((c[s], sums[s] / root), (d[s], want_d)):
                    assert got.shape == want.shape and got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes()
            # each array lies on an anonymous map of its own
            owners = [_map_of(a) for a in c + d]
            assert all(isinstance(o, mmap.mmap) for o in owners)
            assert len({id(o) for o in owners}) == len(owners)


def _map_of(a):
    """The object that owns the memory of array ``a``."""
    while isinstance(a, np.ndarray):
        a = a.base
    return a.obj if isinstance(a, memoryview) else a


def _grid_points(n_grid):
    """The grid ``interpolation_matrix`` maps onto: t_k = (k + 1/2) / N."""
    return (np.arange(n_grid) + 0.5) / n_grid


class TestInterpolation:
    def test_on_grid_exactness(self):
        x = _grid_points(32)[[3, 7, 12, 20, 29]]
        W = interpolation_matrix(x, 32)
        vals = np.array([1.0, -2.0, 0.5, 3.0, 1.5])
        out = W @ vals
        np.testing.assert_allclose(out[[3, 7, 12, 20, 29]], vals, atol=1e-12)

    def test_rows_are_convex_combinations(self):
        x = np.sort(np.random.default_rng(4).uniform(0, 1, size=17))
        W = interpolation_matrix(x, 64)
        np.testing.assert_allclose(np.asarray(W.sum(axis=1)).ravel(), 1.0, atol=1e-12)
        assert W.min() >= 0.0
        assert (W != 0).sum(axis=1).max() <= 2

    def test_constant_extrapolation(self):
        x = np.array([0.4, 0.6])
        vals = np.array([1.0, 3.0])
        out = interpolation_matrix(x, 16) @ vals
        assert np.all(out[_grid_points(16) < 0.4] == 1.0)
        assert np.all(out[_grid_points(16) > 0.6] == 3.0)

    def test_variance_floor(self):
        # perfectly imputed SNPs: every detail coefficient's variance sits at the floor
        W = interpolation_matrix(np.array([0.2, 0.8]), 8)
        for var in pyramid_variances(W, np.zeros(2), depth=2):
            assert np.all(var == wavelet.VARIANCE_FLOOR)

    def test_normalize_positions(self):
        out = normalize_positions(np.array([100, 150, 200]), 100, 200)
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0])
        with pytest.raises(ValueError, match="^end_bp must exceed start_bp$"):
            normalize_positions(np.array([1]), 5, 5)

    def test_needs_increasing_positions(self):
        with pytest.raises(ValueError, match="^positions must be strictly increasing$"):
            interpolation_matrix(np.array([0.5, 0.5]), 8)


@st.composite
def variance_inputs(draw):
    """(W, sigma^2, depth, n_grid) as ``window_spectra`` builds them, or without block sums."""
    J = draw(st.integers(1, 9))
    depth = draw(st.integers(0, J - 1))
    m = draw(st.integers(2, 60))
    bp = draw(st.lists(st.integers(0, 10**6), min_size=m, max_size=m, unique=True))
    N = 1 << J
    W = interpolation_matrix(np.sort(bp) / 10**6, N)
    n_grid = draw(st.sampled_from([None, N]))
    n_top = 1 << (depth + 1)
    if n_top < N and draw(st.booleans()):
        W = block_sum_matrix(N, n_top) @ W
        n_grid = N
    sig2 = draw(hnp.arrays(np.float64, m, elements=st.one_of(st.just(0.0), st.floats(0.0, 0.3))))
    return W, sig2, depth, n_grid


class TestPyramidVariances:
    def test_matches_bruteforce_linear_combination(self):
        rng = np.random.default_rng(5)
        N = 32
        x = np.sort(rng.uniform(0, 1, size=12))
        sig2 = rng.uniform(0.0, 0.3, size=12)
        W = interpolation_matrix(x, N)
        var_d = pyramid_variances(W, sig2, depth=2)
        assert len(var_d) == 3
        Wd = W.toarray()
        for s in range(3):
            block = N >> s
            assert var_d[s].shape == (1 << s,)
            for l in range(1 << s):
                rows = Wd[l * block: (l + 1) * block]
                left = rows[: block // 2].sum(axis=0)
                right = rows[block // 2:].sum(axis=0)
                a_d = (left - right) / np.sqrt(block)
                np.testing.assert_allclose(
                    var_d[s][l], max(float(a_d ** 2 @ sig2), wavelet.VARIANCE_FLOOR),
                    rtol=1e-10,
                )

    @given(variance_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, case):
        W, sig2, depth, n_grid = case
        got = pyramid_variances(W, sig2, depth, n_grid=n_grid)
        ref = pyramid_variances_reference(W, sig2, depth, n_grid=n_grid)
        assert len(got) == len(ref) == depth + 1
        for g, r in zip(got, ref):
            assert g.shape == r.shape
            np.testing.assert_allclose(g, r, rtol=1e-14, atol=0.0)
            floor = (g == wavelet.VARIANCE_FLOOR) | (r == wavelet.VARIANCE_FLOOR)
            np.testing.assert_array_equal(g[floor], r[floor])

    def test_aggregated_rows_match(self):
        rng = np.random.default_rng(6)
        x = np.sort(rng.uniform(0, 1, size=40))
        sig2 = rng.uniform(0.0, 0.5, size=40)
        W = interpolation_matrix(x, 128)
        vd0 = pyramid_variances(W, sig2, depth=3)
        Wt = block_sum_matrix(128, 16) @ W
        vd1 = pyramid_variances(Wt, sig2, depth=3, n_grid=128)
        for s in range(4):
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

    def test_visushrink_in_place_equals_the_old_formula_on_a_copy(self):
        assert wavelet._ROW_BLOCK == 64
        rng = np.random.default_rng(11)
        n_grid = 1024
        factor = np.sqrt(2.0 * np.log(n_grid))
        var_d = [rng.uniform(0.5, 2.0, rows) for rows in (1, 63, 64, 65, 129)]
        d = [rng.standard_normal((len(vs), 30)) * 6.0 for vs in var_d]
        for ds, vs in zip(d, var_d):
            ds[:, :4] = [0.0, -0.0, 0.5, -0.5]
            ds[:, 4] = np.sqrt(vs) * factor  # exactly at the threshold
            ds[:, 5] = -ds[:, 4]
        copy = [ds.copy() for ds in d]
        arrays = list(d)
        out = visushrink(d, var_d, n_grid)
        assert out is d and all(a is b for a, b in zip(out, arrays))
        for got, ds, vs in zip(out, copy, var_d):
            # the shrinkage as it was: a new array per scale
            shrunk = np.abs(ds)
            shrunk -= (np.sqrt(vs) * factor)[:, None]
            np.maximum(shrunk, 0.0, out=shrunk)
            want = np.copysign(shrunk, ds)
            assert got.tobytes() == want.tobytes()


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


@st.composite
def row_class_inputs(draw):
    """(R, n) rows, each tie-free, tied (+-0 runs included) or constant."""
    n = draw(st.integers(2, 30))
    rows = []
    for cls in draw(st.lists(st.sampled_from(["free", "tied", "constant"]),
                             min_size=1, max_size=8)):
        if cls == "free":
            values = draw(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=n,
                                   max_size=n, unique_by=lambda x: x + 0.0))
        elif cls == "tied":
            values = draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.5]), min_size=n,
                                   max_size=n))
            values[draw(st.integers(1, n - 1))] = values[0]  # at least one tie
        else:
            values = [draw(st.sampled_from([1.5, 0.0, -0.0]))] * n
        rows.append(values)
    return np.array(rows)


def _assert_bitwise_equal_to_reference(values, axis):
    # the transform takes (k, n) rows: a case along axis 0 is transposed, and
    # a 1-D case is one row; the reference zeroes constant rows itself
    rows = values.T if axis == 0 else values
    scores = quantile_transform(np.atleast_2d(rows)).reshape(rows.shape)
    if axis == 0:
        scores = scores.T
    ref_scores, _ = quantile_transform_reference(values, axis=axis)
    assert scores.shape == ref_scores.shape
    assert np.array_equal(scores.view(np.int64), ref_scores.view(np.int64))


class TestQuantileTransform:
    @given(rank_inputs())
    @example((np.array([3.0, 3.0]), -1))
    @example((np.array([[1.0, -0.0], [0.0, 2.0]]), 0))
    @example((np.array([[0.0, -0.0, 0.0, -0.0], [1.0, -1.0, 0.0, -0.0]]), -1))
    # every row tie-free
    @example((np.array([[0.5, -1.0, 2.0, 0.0], [3.0, 1.0, -0.0, 2.0]]), -1))
    # every row tied
    @example((np.array([[0.0, -0.0, 1.0], [2.0, 2.0, -1.0], [4.0, 4.0, 4.0]]), -1))
    # tie-free rows among tied and constant rows, +-0 runs included
    @example((np.array([[1.0, 0.0, -2.0, 3.0], [0.0, -0.0, 0.0, 1.0], [2.0, 2.0, 2.0, 2.0],
                        [-0.0, 4.0, -1.0, 0.5], [-0.0, 0.0, -0.0, 0.0]]), -1))
    @settings(max_examples=300, deadline=None)
    def test_bitwise_equal_to_reference(self, case):
        _assert_bitwise_equal_to_reference(*case)

    @given(row_class_inputs())
    @settings(max_examples=200, deadline=None)
    def test_mixed_row_classes_bitwise_equal_to_reference(self, values):
        _assert_bitwise_equal_to_reference(values, -1)

    @pytest.mark.parametrize("n_rows", [1, 63, 64, 65, 129])
    def test_row_blocks_and_out_give_each_row_its_own_scores(self, n_rows):
        assert wavelet._ROW_BLOCK == 64
        rng = np.random.default_rng(n_rows)
        rows = rng.standard_normal((n_rows, 25))
        rows[::2] = np.round(rows[::2])  # tied rows next to tie-free ones
        rows[1::5] = np.where(np.arange(25) % 2, 0.0, -0.0)  # constant, +-0 mixed
        alone = np.vstack([quantile_transform(row[None]) for row in rows])
        assert quantile_transform(rows).tobytes() == alone.tobytes()
        out = np.full(rows.shape, np.nan)
        assert quantile_transform(rows, out=out) is out
        assert out.tobytes() == alone.tobytes()
        assert quantile_transform(rows, out=rows) is rows  # in place
        assert rows.tobytes() == alone.tobytes()

    def test_rejects_an_out_it_cannot_fill(self):
        rows = np.zeros((3, 4))
        for out in (np.zeros((3, 5)), np.zeros((3, 4), dtype=np.float32), np.zeros((4, 3)).T):
            with pytest.raises(ValueError, match="^out must be a C-contiguous float64 array"):
                quantile_transform(rows, out=out)

    def test_matches_blom_formula(self):
        rng = np.random.default_rng(8)
        v = rng.standard_normal((6, 101))
        scores = quantile_transform(v)
        r = rankdata(v, method="average", axis=-1)
        ref = norm.ppf((r - 0.375) / (101 + 0.25))
        np.testing.assert_allclose(scores, ref, atol=1e-12)

    def test_exact_antisymmetry(self):
        rng = np.random.default_rng(9)
        v = rng.standard_normal((4, 200))
        s_pos = quantile_transform(v)
        s_neg = quantile_transform(-v)
        assert np.all((s_neg == -s_pos) | ((s_pos == 0.0) & (s_neg == 0.0)))

    def test_constant_row_scores_zero(self):
        v = np.vstack([np.ones(10), np.arange(10.0)])
        scores = quantile_transform(v)
        assert np.all(scores[0] == 0.0)
        assert np.any(scores[1] != 0.0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 10, 101, 1000, 4999, 100_000])
    def test_constant_rows_score_positive_zero_bitwise(self, n):
        # a constant row is one tie run at the middle rank, whose table entry
        # is +0.0; +-0 mixes are constant too, and must not score -0.0
        mixed = np.where(np.arange(n) % 2, 0.0, -0.0)
        rows = np.vstack([np.full(n, 1.5), np.zeros(n), np.full(n, -0.0), mixed, mixed[::-1],
                          np.linspace(-1.0, 1.0, n)])
        scores = quantile_transform(rows)
        assert np.array_equal(scores[:5].view(np.int64), np.zeros((5, n), dtype=np.int64))
        assert np.any(scores[5] != 0.0)

    def test_needs_two_values(self):
        with pytest.raises(ValueError, match="^quantile transform needs at least 2 values$"):
            quantile_transform(np.array([[1.0]]))

    @given(
        hnp.arrays(
            np.float64, st.tuples(st.integers(2, 6), st.integers(2, 40)),
            elements=st.floats(-5, 5, allow_nan=False).map(lambda x: round(x, 1)),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_blom_on_scipy_ranks(self, arr):
        scores = quantile_transform(arr)
        r = rankdata(arr, method="average", axis=-1)
        ref = norm.ppf((r - 0.375) / (arr.shape[-1] + 0.25))
        ref[np.ptp(arr, axis=-1) == 0.0] = 0.0
        np.testing.assert_allclose(scores, ref, rtol=1e-13, atol=1e-15)

    @given(
        hnp.arrays(np.float64, st.integers(2, 60),
                   elements=st.floats(-100, 100, allow_nan=False), unique=True)
    )
    @settings(max_examples=50, deadline=None)
    def test_transform_preserves_order(self, v):
        scores = quantile_transform(v[None])[0]
        assert np.array_equal(np.argsort(scores), np.argsort(v))


class TestBlockSumMatrix:
    def test_sums_blocks(self):
        A = block_sum_matrix(8, 4)
        v = np.arange(8.0)
        np.testing.assert_allclose(A @ v, [1.0, 5.0, 9.0, 13.0])

    def test_rejects_non_divisible(self):
        with pytest.raises(ValueError, match="^8 grid points do not split into 3 blocks$"):
            block_sum_matrix(8, 3)
