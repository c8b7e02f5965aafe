"""The Lambda-hat solver, its per-window wrapper and full window screens."""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.stats import chi2

from wavescreen import bayes, dataio, nullsim, screening, simharness, wavelet
from wavescreen.screening import (
    fisher_combine,
    max_log_lambda,
    maximize_lambda,
    posterior_gamma,
    window_spectra,
)

from _oracles import (
    block_sums_reference,
    lambda_max_grid,
    max_log_lambda_newton1,
    max_log_lambda_reference,
    screen_spectra,
    screen_window,
    window_spectra_reference,
)


class TestEM:
    def test_single_large_bf_gives_pi_one(self):
        pi, log_lam = max_log_lambda(np.log([[7.0]]))
        assert pi[0] == 1.0
        assert log_lam[0] == pytest.approx(np.log(7.0), rel=1e-15)

    def test_all_small_bfs_give_pi_zero(self):
        pi, log_lam = max_log_lambda(np.log([[0.2, 0.9, 0.5]]))
        assert pi[0] == 0.0 and log_lam[0] == 0.0

    def test_interior_solution_matches_gradient_root(self):
        log_bf = np.log([6.0, 0.2, 0.2, 0.2])
        pi = max_log_lambda(log_bf[None, :])[0][0]
        bf = np.exp(log_bf)
        assert 0.0 < pi < 1.0
        # d/dpi sum log(pi bf + 1 - pi) = 0 at the maximum
        assert abs(np.sum((bf - 1.0) / (1.0 + pi * (bf - 1.0)))) < 1e-12

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            k = int(rng.integers(1, 32))
            log_bf = rng.normal(0, 1.5, size=k)
            pi_hat, lam = maximize_lambda([log_bf])
            _, lam_ref = lambda_max_grid([np.exp(log_bf)])
            assert lam >= 1.0 - 1e-12
            assert abs(lam - lam_ref) <= 1e-8 * lam_ref

    def test_batch_matches_per_window(self):
        # the null simulator's composition: one batched solve per scale,
        # log values summed over scales
        rng = np.random.default_rng(2)
        log_bf_by_scale = [rng.normal(0, 1, size=(50, 1 << s)) for s in range(4)]
        batch = np.exp(sum(max_log_lambda(lb)[1] for lb in log_bf_by_scale))
        for r in range(0, 50, 7):
            _, lam = maximize_lambda([lb[r] for lb in log_bf_by_scale])
            assert abs(batch[r] - lam) <= 1e-10 * lam

    def test_phenotype_rows_match_single_rows(self):
        # a (P, k_s) entry per scale is P windows solved together
        rng = np.random.default_rng(3)
        log_bf_by_scale = [rng.normal(0, 1.5, size=(6, 1 << s)) for s in range(4)]
        log_bf_by_scale[2] = np.empty((6, 0))
        pi, lam = maximize_lambda(log_bf_by_scale)
        assert pi.shape == (6, 4) and lam.shape == (6,)
        for r in range(6):
            pi_r, lam_r = maximize_lambda([lb[r] for lb in log_bf_by_scale])
            assert pi[r].tobytes() == pi_r.tobytes()
            assert lam[r] == lam_r
        assert np.all(pi[:, 2] == 0.0)

    def test_empty_scale_gets_pi_zero(self):
        [pi], [lam] = maximize_lambda([np.empty(0), np.log([5.0])])
        assert pi[0] == 0.0 and pi[1] == 1.0
        assert abs(lam - 5.0) < 1e-12

    def test_near_null_lambda_hat_never_below_one(self):
        # Bayes factors scattered just around 1 once drove the maximum
        # below its starting value Lambda(0) = 1, which p_value rejects
        rng = np.random.default_rng(0)
        model = nullsim.NullModel(np.array([1.0, 1.5, 2.0]))
        lams = []
        for _ in range(20_000):
            log_bf = rng.normal(0.0, 0.05, size=int(rng.integers(1, 64)))
            lams.append(maximize_lambda([log_bf])[1][0])
        assert min(lams) >= 1.0
        for lam in lams:
            assert 0.0 < nullsim.p_value(model, lam) <= 1.0


# log10 BF from -300 to 300, with exact 1s mixed in
_log10_bf = st.one_of(
    st.floats(-300.0, 300.0, allow_nan=False), st.just(0.0), st.floats(-0.05, 0.05)
)
_bf_rows = st.integers(1, 16).flatmap(
    lambda k: st.lists(st.lists(_log10_bf, min_size=k, max_size=k), min_size=1, max_size=8)
)


def _assert_matches_reference(log_bf):
    pi, log_lam = max_log_lambda(log_bf)
    pi_ref, log_lam_ref = max_log_lambda_reference(log_bf)
    assert pi.tobytes() == pi_ref.tobytes()
    # ==, not bytes: the reference sums log1p(-0.0) on a pi = 0 row to -0.0
    assert np.all(log_lam == log_lam_ref)


class TestSolverProperties:
    @settings(max_examples=300, deadline=None)
    @given(_bf_rows)
    def test_optimal_bounded_and_row_independent(self, rows):
        log_bf = np.log(10.0) * np.array(rows)
        _assert_matches_reference(log_bf)
        pi, log_lam = max_log_lambda(log_bf)
        assert np.all((pi >= 0.0) & (pi <= 1.0))
        assert np.all(np.isfinite(log_lam)) and np.all(log_lam >= 0.0)
        bf = np.exp(log_bf)
        for r in range(bf.shape[0]):
            p1, l1 = max_log_lambda(log_bf[r:r + 1])
            assert p1[0] == pi[r] and l1[0] == log_lam[r]
            b = bf[r] - 1.0
            if pi[r] == 0.0:
                # score at 0 is <= 0, up to the rounding that can push a
                # tiny positive maximum below 0 and so back to pi = 0
                assert np.sum(b) <= 1e-12 * np.sum(np.abs(b))
            elif pi[r] == 1.0:
                assert np.sum(b / bf[r]) >= 0.0
            else:
                # zero score, to within the change one ulp of pi can make
                t = b / (1.0 + pi[r] * b)
                slack = 4.0 * np.spacing(pi[r]) * np.sum(t * t) + 1e-12 * np.sum(np.abs(t))
                assert abs(np.sum(t)) <= slack


class TestSolverMatchesReference:
    """Skipping the log1p sum on pi = 0 rows changes no bit of pi_hat or log Lambda_hat
    (arbitrary rows are checked in ``TestSolverProperties``)."""

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.01, 0.9999), st.integers(0, 8), st.integers(0, 2**32 - 1))
    def test_null_draws(self, lambda1, scale, seed):
        # the null simulator's input: near lambda1 = 1 most rows have pi = 0
        z = np.random.default_rng(seed).standard_normal((64, 1 << scale))
        _assert_matches_reference(0.5 * (lambda1 * z * z + np.log1p(-lambda1)))

    def test_overflowed_bf_is_not_hidden(self):
        # a BF that overflows to inf leaves pi = 0 with a NaN score: the row
        # keeps its NaN rather than reading as Lambda_hat = 1
        log_bf = np.log([[1.0, 3.0], [0.5, 0.9]])
        log_bf[0, 0] = 1000.0
        with np.errstate(over="ignore", invalid="ignore"):  # exp(1000), inf / inf, 0 * inf
            _, log_lam = max_log_lambda(log_bf)
            _, log_lam_ref = max_log_lambda_reference(log_bf)
        assert np.isnan(log_lam[0]) and np.isnan(log_lam_ref[0])
        assert log_lam[1] == log_lam_ref[1] == 0.0


def _null_log_bf(lambda1, z):
    return 0.5 * (lambda1 * z * z + np.log1p(-lambda1))


def _assert_near_newton1(log_bf):
    pi, log_lam = max_log_lambda(log_bf)
    pi_ref, log_lam_ref = max_log_lambda_newton1(log_bf)
    assert np.max(np.abs(pi - pi_ref)) <= 1e-13
    assert np.max(np.abs(log_lam - log_lam_ref)) <= 1e-13


class TestSolverMatchesNewton1:
    """Stopping a row on a score zero to rounding moves pi_hat and log Lambda_hat
    by no more than rounding from the solver that split each bracket to its end."""

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([0.1, 0.98, 0.9997]), st.integers(0, 9), st.integers(0, 2**32 - 1))
    def test_null_draws(self, lambda1, scale, seed):
        z = np.random.default_rng(seed).standard_normal((64, 1 << scale))
        _assert_near_newton1(_null_log_bf(lambda1, z))

    def test_one_sided_row(self):
        # row 1366 of chunk 0, scale 6, of simulate_null(0.1, 6, M, seed=1):
        # Newton reaches its fixed point from one side on the fourth pass, and
        # the newton1 solver then bisected its bracket for dozens of passes
        rng = np.random.Generator(np.random.Philox(key=np.array([1, 0], dtype=np.uint64)))
        for s in range(7):
            z = rng.standard_normal(size=(nullsim.SIM_CHUNK, 1 << s))
        row = _null_log_bf(0.1, z[1366:1367])
        _assert_near_newton1(row)
        _assert_matches_reference(row)
        assert 0.0 < max_log_lambda(row)[0][0] < 1.0


class TestPosteriorAndFisher:
    def test_posterior_gamma_values(self):
        np.testing.assert_allclose(posterior_gamma(np.array([1.0]), 0.3), [0.3])
        np.testing.assert_allclose(posterior_gamma(np.array([4.0]), 0.5), [0.8])
        assert posterior_gamma(np.array([2.0]), 0.0)[0] == 0.0

    def test_fisher_identity_on_single_p(self):
        for p in (0.01, 0.3, 0.9):
            assert abs(fisher_combine([p]) - p) < 1e-12

    def test_fisher_known_value(self):
        # -2(ln .1 + ln .1) = 9.2103; chi2.sf(9.2103, 4) = exp(-x/2)(1 + x/2) = 0.0560517
        assert abs(fisher_combine([0.1, 0.1]) - 0.0560517) < 1e-6

    def test_fisher_equals_scipy_stats_bitwise(self):
        rng = np.random.default_rng(4)
        for k in range(1, 101):
            p = rng.uniform(1e-12, 1.0, size=k) ** rng.uniform(0.1, 4.0)
            stat = -2.0 * np.sum(np.log(p))
            assert fisher_combine(p) == float(chi2.sf(stat, df=2 * k))

    def test_fisher_rejects_bad_input(self):
        with pytest.raises(ValueError, match="^need at least one p-value$"):
            fisher_combine([])
        with pytest.raises(ValueError, match=r"^p-values must lie in \(0, 1\]$"):
            fisher_combine([0.0, 0.5])
        with pytest.raises(ValueError, match=r"^p-values must lie in \(0, 1\]$"):
            fisher_combine([1.5])

    def test_fisher_rejects_nan(self):
        # NaN fails both p <= 0 and p > 1, so only a test that it lies in
        # (0, 1] catches it
        with pytest.raises(ValueError, match=r"^p-values must lie in \(0, 1\]$"):
            fisher_combine([np.nan, 0.5])


@pytest.fixture(scope="module")
def screen_setup():
    cohort = simharness.generate_genotypes(
        n=600, n_snps=320, n_blocks=10, flip_prob=0.1, seed=3
    )
    window = simharness.synthetic_window(cohort, min_snps_per_coeff=10)
    signal = simharness.plant_signal(cohort, 5, 0.15, "mono", seed=4)
    phenotype = simharness.simulate_phenotype(cohort, signal, seed=5)
    return cohort, window, phenotype


class TestWindowSpectra:
    def test_shapes(self, screen_setup):
        cohort, window, _ = screen_setup
        spectra = window_spectra(window, cohort, ("c", "d"))
        assert sorted(spectra) == ["c", "d"]
        for scores, degenerate in spectra.values():
            assert len(scores) == window.depth + 1
            for s, arr in enumerate(scores):
                assert arr.shape == (1 << s, cohort.n)
                assert degenerate[s].shape == (1 << s,)

    def test_one_pass_matches_single_kind_passes(self, screen_setup):
        cohort, window, _ = screen_setup
        both = window_spectra(window, cohort, ("c", "d"))
        for kind in ("c", "d"):
            alone = window_spectra(window, cohort, (kind,))
            assert list(alone) == [kind]
            for got, want in zip(both[kind], alone[kind]):
                for g, w in zip(got, want):
                    assert np.array_equal(g, w)

    def test_rejects_unknown_kind(self, screen_setup):
        cohort, window, _ = screen_setup
        with pytest.raises(ValueError, match="^unknown coefficient kind 'x'$"):
            window_spectra(window, cohort, ("c", "x"))


class TestScreenWindow:
    def test_signal_beats_permuted_null(self, screen_setup):
        cohort, window, phenotype = screen_setup
        ctx = bayes.build_design(phenotype, sigma_b=0.2)
        hit = screen_window(window, cohort, ctx, "c")
        assert hit.lambda_hat > 100.0

        permuted = np.random.default_rng(6).permutation(phenotype)
        ctx0 = bayes.build_design(permuted, sigma_b=0.2)
        null = screen_window(window, cohort, ctx0, "c")
        assert null.lambda_hat < hit.lambda_hat

    def test_result_is_consistent(self, screen_setup):
        cohort, window, phenotype = screen_setup
        ctx = bayes.build_design(phenotype, sigma_b=0.2)
        res = screen_window(window, cohort, ctx, "c")
        assert res.coefficient_kind == "c"
        assert len(res.log_bf) == window.depth + 1
        # Lambda recomputes from the stored per-scale log BFs and pi_hat
        log_lam = sum(
            float(np.sum(np.log1p(p * np.expm1(lb)))) for lb, p in zip(res.log_bf, res.pi_hat)
        )
        assert abs(np.exp(log_lam) - res.lambda_hat) <= 1e-9 * res.lambda_hat

    def test_constant_dosages_are_degenerate(self):
        cohort = simharness.generate_genotypes(50, 64, n_blocks=2, seed=8)
        cohort.store[:] = 1.0
        window = simharness.synthetic_window(cohort, min_snps_per_coeff=8)
        y = np.random.default_rng(9).standard_normal(50)
        res = screen_window(window, cohort, bayes.build_design(y), "d")
        assert res.degenerate
        np.testing.assert_array_equal(res.pi_hat, np.zeros(window.depth + 1), strict=True)
        for per_scale in (res.log_bf, res.locations):
            assert len(per_scale) == window.depth + 1
            assert all(arr.size == 0 for arr in per_scale)
        assert res.lambda_hat == 1.0
        assert res.p_value is None

    def test_dosage_flip_leaves_d_screen_unchanged(self, screen_setup):
        cohort, window, phenotype = screen_setup
        ctx = bayes.build_design(phenotype, sigma_b=0.2)
        res = screen_window(window, cohort, ctx, "d")
        flipped = dataclasses.replace(cohort, store=2.0 - cohort.dosages())
        res_f = screen_window(window, flipped, ctx, "d")
        assert res_f.lambda_hat == res.lambda_hat


class TestScaleLogBF:
    def test_live_rows_reach_the_transform_and_a_live_scale_is_not_copied(self, monkeypatch):
        rng = np.random.default_rng(2)
        original = rng.standard_normal((4, 30))
        ctx = bayes.build_design(rng.standard_normal(30))
        transform, seen = wavelet.quantile_transform, []
        monkeypatch.setattr(wavelet, "quantile_transform",
                            lambda rows, out: seen.append((rows, out, rows.copy()))
                            or transform(rows, out=out))
        # every row live: the scale itself is transformed into itself
        coeffs = original.copy()
        log_bf, locs = screening.scale_log_bf(ctx, coeffs, np.zeros(4, dtype=bool))
        rows, out, before = seen[0]
        assert rows is out and rows.base is coeffs and rows.shape == coeffs.shape
        assert before.tobytes() == original.tobytes()
        assert np.array_equal(locs, np.arange(4))
        assert coeffs.tobytes() == transform(original).tobytes()
        want = bayes.log_bayes_factor(ctx, transform(original).T)
        assert log_bf.tobytes() == want.tobytes()
        # a flagged row: the live rows move to the scale's front, in order,
        # and are transformed there
        coeffs = original.copy()
        log_bf, locs = screening.scale_log_bf(ctx, coeffs, np.array([False, True, False, False]))
        assert np.array_equal(locs, [0, 2, 3])
        rows, out, before = seen[1]
        assert rows is out and rows.base is coeffs and rows.shape == (3, 30)
        assert before.tobytes() == original[[0, 2, 3]].tobytes()
        assert coeffs[:3].tobytes() == transform(original[[0, 2, 3]]).tobytes()
        want = bayes.log_bayes_factor(ctx, transform(original[[0, 2, 3]]).T)
        assert log_bf.tobytes() == want.tobytes()

    @staticmethod
    def _scale(n_rows, n, flagged, rng):
        """(coeffs, degenerate): random rows with ties and +-0 values, and
        constant or +-0-mixed rows, flagged as ``window_spectra`` flags them,
        at the rows ``flagged``."""
        coeffs = rng.standard_normal((n_rows, n))
        coeffs[::3] = np.round(coeffs[::3] * 2.0) / 2.0  # ties, +-0 among them
        coeffs[1::4, :4] = [0.0, -0.0, 0.0, -0.0]  # +-0 ties in live rows
        for k, r in enumerate(r for r in flagged if r < n_rows):
            coeffs[r] = 1.5 if k % 2 else np.where(np.arange(n) % 2, -0.0, 0.0)
        return coeffs, np.ptp(coeffs, axis=-1) == 0.0

    @pytest.mark.parametrize("n_pheno", [1, 3])
    @pytest.mark.parametrize("n_rows", [1, 63, 64, 65, 129])
    @pytest.mark.parametrize("flagged", [(), (0,), (62, 63, 64, 127, 128), (63, 65, 128)],
                             ids=["none", "first", "block_edges", "straddling"])
    def test_equals_the_transform_of_a_copy_at_block_edges(self, n_rows, n_pheno, flagged):
        assert screening._ROW_BLOCK == 64
        rng = np.random.default_rng([n_rows, n_pheno, len(flagged)])
        n = 40
        coeffs, degenerate = self._scale(n_rows, n, flagged, rng)
        assert degenerate.sum() == sum(r < n_rows for r in flagged)
        ctx = bayes.build_design(rng.standard_normal((n, n_pheno)),
                                 rng.standard_normal((n, 2)))
        copy = coeffs.copy()
        log_bf, locs = screening.scale_log_bf(ctx, coeffs, degenerate)
        want_locs = np.flatnonzero(~degenerate)
        assert np.array_equal(locs, want_locs)
        assert log_bf.shape == (n_pheno, len(want_locs))
        if len(want_locs):
            scores = wavelet.quantile_transform(copy[want_locs])
            want = bayes.log_bayes_factor(ctx, scores.T)
            assert log_bf.tobytes() == want.tobytes()
            assert coeffs[:len(want_locs)].tobytes() == scores.tobytes()


class TestStreamedInterpolation:
    """The block sums streamed a row block at a time equal the one product, bit for bit."""

    @staticmethod
    def _bits(a):
        return np.ascontiguousarray(a).view(np.int64)

    @pytest.mark.parametrize("n_snps, depth, n_rows", [
        (200, 3, 16),  # fewer weight rows than a block
        (400, 5, 64),  # exactly one block
        (100, 6, 128),  # 2^(depth+1) = n_grid: the raw interpolation weights
        (700, 7, 256),  # row blocks share the SNPs of interpolation pairs
    ], ids=["below_block", "one_block", "n_top_is_n_grid", "straddling"])
    def test_window_spectra_equal_the_one_product(self, n_snps, depth, n_rows):
        block = simharness.generate_genotypes(n=90, n_snps=n_snps, n_blocks=6, seed=depth)
        block.imputation_quality = np.random.default_rng(depth).uniform(0.7, 1.0, n_snps)
        window = dataio.Window("1", int(block.positions[0]), int(block.positions[-1]) + 1,
                               0, n_snps, depth)
        W, sums = block_sums_reference(window, block)
        assert W.shape[0] == n_rows
        if n_rows > screening._ROW_BLOCK:
            # the last SNP of a block's rows is also the first of the next block's
            first, second = np.split(W.indices, [W.indptr[screening._ROW_BLOCK]])
            assert first.max() >= second[:W.indptr[2 * screening._ROW_BLOCK] - len(first)].min()
        reference = window_spectra_reference(window, block, ("c", "d"))
        # the float64 store and its 16-bit codes give the same bits
        codes = dataclasses.replace(block, store=dataio._codes(block.store)[0])
        assert codes.store.dtype == np.uint16
        for store in (block, codes):
            assert np.array_equal(self._bits(screening._centered_product(W, store, 0)),
                                  self._bits(sums))
            spectra = window_spectra(window, store, ("c", "d"))
            for kind in ("c", "d"):
                (scores, degenerate), (ref_scores, ref_degenerate) = spectra[kind], reference[kind]
                assert len(scores) == len(ref_scores) == depth + 1
                for got, want in zip(scores, ref_scores):
                    assert np.array_equal(self._bits(got), self._bits(want))
                for got, want in zip(degenerate, ref_degenerate):
                    assert np.array_equal(got, want)

    def test_rows_without_weights_sum_to_zero(self):
        W = sparse.csr_matrix(np.vstack([np.zeros((screening._ROW_BLOCK, 4)),
                                         [[0.0, 0.25, 0.75, 0.0]]]))
        # W's columns are the block's SNPs from the third on
        dosages = np.random.default_rng(3).uniform(0.0, 2.0, (6, 5))
        block = dataio.ChromosomeBlock("1", np.arange(6), np.ones(6), dosages)
        out = screening._centered_product(W, block, 2)
        assert np.array_equal(self._bits(out), self._bits(W @ (dosages[2:] - 1.0)))


@functools.cache
def _batch_window():
    """A small window with its c and d spectra, and the dosages of its SNPs."""
    cohort = simharness.generate_genotypes(n=160, n_snps=128, n_blocks=6, seed=12)
    window = simharness.synthetic_window(cohort, min_snps_per_coeff=8)
    return window, window_spectra(window, cohort, ("c", "d")), cohort.dosages()


class TestBatchScreen:
    """One screen of P phenotypes equals P single-phenotype screens, bit for bit."""

    @given(
        n_pheno=st.integers(1, 5),
        n_cov=st.sampled_from([0, 2]),
        kind=st.sampled_from(["c", "d"]),
        sigma_b=st.floats(0.05, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_batch_equals_single_screens(self, n_pheno, n_cov, kind, sigma_b, seed):
        window, spectra, dosages = _batch_window()
        n = dosages.shape[1]
        rng = np.random.default_rng(seed)
        # a random SNP's dosage at a random strength, so that some screens
        # find a signal and others do not
        snps = rng.integers(0, len(dosages), size=n_pheno)
        Y = dosages[snps].T * rng.uniform(0.0, 1.0, n_pheno) + rng.standard_normal((n, n_pheno))
        C = rng.standard_normal((n, n_cov)) if n_cov else None
        batch = screen_spectra(window, *spectra[kind], bayes.build_design(Y, C, sigma_b), kind)
        assert len(batch) == n_pheno
        for p, got in enumerate(batch):
            ctx = bayes.build_design(Y[:, p], C, sigma_b)
            [want] = screen_spectra(window, *spectra[kind], ctx, kind)
            assert (got.window, got.coefficient_kind) == (want.window, kind)
            for g, w in zip(got.log_bf, want.log_bf, strict=True):
                assert g.shape == w.shape
                assert np.array_equal(g.view(np.int64), w.view(np.int64))
            for g, w in zip(got.locations, want.locations, strict=True):
                assert np.array_equal(g, w)
            assert got.pi_hat.shape == want.pi_hat.shape
            assert np.all(got.pi_hat == want.pi_hat)
            assert got.lambda_hat == want.lambda_hat
            assert got.degenerate == want.degenerate

    def test_degenerate_window_gives_one_result_per_phenotype(self):
        cohort = simharness.generate_genotypes(50, 64, n_blocks=2, seed=8)
        cohort.store[:] = 1.0
        window = simharness.synthetic_window(cohort, min_snps_per_coeff=8)
        Y = np.random.default_rng(9).standard_normal((50, 3))
        spectra = window_spectra(window, cohort, ("d",))["d"]
        results = screen_spectra(window, *spectra, bayes.build_design(Y), "d")
        assert len(results) == 3
        for res in results:
            assert res.degenerate and res.lambda_hat == 1.0
            np.testing.assert_array_equal(res.pi_hat, np.zeros(window.depth + 1), strict=True)
            assert all(lb.shape == (0,) for lb in res.log_bf)



class TestPhenotypeScale:
    """The phenotype's units do not change the screen: a*y + b screens as y."""

    @given(
        a=st.floats(1e-3, 1e3).flatmap(lambda m: st.sampled_from([m, -m])),
        b=st.floats(-100.0, 100.0),
        with_covariates=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_affine_phenotype_gives_the_same_screen(self, screen_setup, a, b, with_covariates):
        cohort, window, y = screen_setup
        spectra = window_spectra(window, cohort, ("c", "d"))
        C = np.random.default_rng(7).standard_normal((cohort.n, 2)) if with_covariates else None
        ref, ctx = bayes.build_design(y, C), bayes.build_design(a * y + b, C)
        assert bayes.lambda1(ctx) == bayes.lambda1(ref)
        for kind in ("c", "d"):
            [want] = screen_spectra(window, *spectra[kind], ref, kind)
            [got] = screen_spectra(window, *spectra[kind], ctx, kind)
            np.testing.assert_allclose(got.pi_hat, want.pi_hat, rtol=1e-9, atol=0.0)
            assert np.log(got.lambda_hat) == pytest.approx(np.log(want.lambda_hat), rel=1e-9)
