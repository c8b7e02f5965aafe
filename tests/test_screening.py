"""The Lambda-hat solver, its per-window wrapper and full window screens."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavescreen import bayes, nullsim, simharness
from wavescreen.screening import (
    ScreeningError,
    fisher_combine,
    max_log_lambda,
    maximize_lambda,
    posterior_gamma,
    screen_window,
    window_spectra,
)

from _oracles import lambda_max_grid


class TestEM:
    def test_single_large_bf_gives_pi_one(self):
        pi, log_lam = max_log_lambda(np.array([[7.0]]))
        assert pi[0] == 1.0
        assert log_lam[0] == pytest.approx(np.log(7.0), rel=1e-15)

    def test_all_small_bfs_give_pi_zero(self):
        pi, log_lam = max_log_lambda(np.array([[0.2, 0.9, 0.5]]))
        assert pi[0] == 0.0 and log_lam[0] == 0.0

    def test_interior_solution_matches_gradient_root(self):
        bf = np.array([6.0, 0.2, 0.2, 0.2])
        pi = max_log_lambda(bf[None, :])[0][0]
        assert 0.0 < pi < 1.0
        # d/dpi sum log(pi bf + 1 - pi) = 0 at the maximum
        assert abs(np.sum((bf - 1.0) / (1.0 + pi * (bf - 1.0)))) < 1e-12

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            k = int(rng.integers(1, 32))
            bf = np.exp(rng.normal(0, 1.5, size=k))
            pi_hat, lam = maximize_lambda([bf])
            _, lam_ref = lambda_max_grid([bf])
            assert lam >= 1.0 - 1e-12
            assert abs(lam - lam_ref) <= 1e-8 * lam_ref

    def test_batch_matches_per_window(self):
        # the null simulator's composition: one batched solve per scale,
        # log values summed over scales
        rng = np.random.default_rng(2)
        bf_by_scale = [
            np.exp(rng.normal(0, 1, size=(50, 1 << s))) for s in range(4)
        ]
        batch = np.exp(sum(max_log_lambda(bf)[1] for bf in bf_by_scale))
        for r in range(0, 50, 7):
            _, lam = maximize_lambda([bf[r] for bf in bf_by_scale])
            assert abs(batch[r] - lam) <= 1e-10 * lam

    def test_empty_scale_gets_pi_zero(self):
        pi, lam = maximize_lambda([np.empty(0), np.array([5.0])])
        assert pi[0] == 0.0 and pi[1] == 1.0
        assert abs(lam - 5.0) < 1e-12

    def test_rejects_nonpositive_bf(self):
        with pytest.raises(ScreeningError):
            maximize_lambda([np.array([0.0])])

    def test_near_null_lambda_hat_never_below_one(self):
        # Bayes factors scattered just around 1 once drove the maximum
        # below its starting value Lambda(0) = 1, which p_value rejects
        rng = np.random.default_rng(0)
        model = nullsim.NullModel(
            lambda1=0.1, depth=0, M=3, seed=0, sample=np.array([1.0, 1.5, 2.0])
        )
        lams = []
        for _ in range(20_000):
            bf = np.exp(rng.normal(0.0, 0.05, size=int(rng.integers(1, 64))))
            lams.append(maximize_lambda([bf])[1])
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


class TestSolverProperties:
    @settings(max_examples=300, deadline=None)
    @given(_bf_rows)
    def test_optimal_bounded_and_row_independent(self, rows):
        bf = 10.0 ** np.array(rows)
        pi, log_lam = max_log_lambda(bf)
        assert np.all((pi >= 0.0) & (pi <= 1.0))
        assert np.all(np.isfinite(log_lam)) and np.all(log_lam >= 0.0)
        for r in range(bf.shape[0]):
            p1, l1 = max_log_lambda(bf[r:r + 1])
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

    def test_fisher_rejects_bad_input(self):
        with pytest.raises(ScreeningError):
            fisher_combine([])
        with pytest.raises(ScreeningError):
            fisher_combine([0.0, 0.5])
        with pytest.raises(ScreeningError):
            fisher_combine([1.5])


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
        spectra = window_spectra(window, cohort.as_block(), ("c", "d"))
        assert sorted(spectra) == ["c", "d"]
        for scores, degenerate in spectra.values():
            assert len(scores) == window.depth + 1
            for s, arr in enumerate(scores):
                assert arr.shape == (1 << s, cohort.n)
                assert degenerate[s].shape == (1 << s,)

    def test_one_pass_matches_single_kind_passes(self, screen_setup):
        cohort, window, _ = screen_setup
        block = cohort.as_block()
        both = window_spectra(window, block, ("c", "d"))
        for kind in ("c", "d"):
            alone = window_spectra(window, block, (kind,))
            assert list(alone) == [kind]
            for got, want in zip(both[kind], alone[kind]):
                for g, w in zip(got, want):
                    assert np.array_equal(g, w)

    def test_rejects_unknown_kind(self, screen_setup):
        cohort, window, _ = screen_setup
        with pytest.raises(ScreeningError):
            window_spectra(window, cohort.as_block(), ("c", "x"))


class TestScreenWindow:
    def test_signal_beats_permuted_null(self, screen_setup):
        cohort, window, phenotype = screen_setup
        ctx = bayes.build_design(phenotype, sigma_b=0.2)
        hit = screen_window(window, cohort.as_cohort(phenotype), ctx, "c")
        assert hit.lambda_hat > 100.0

        permuted = np.random.default_rng(6).permutation(phenotype)
        ctx0 = bayes.build_design(permuted, sigma_b=0.2)
        null = screen_window(window, cohort.as_cohort(permuted), ctx0, "c")
        assert null.lambda_hat < hit.lambda_hat

    def test_result_is_consistent(self, screen_setup):
        cohort, window, phenotype = screen_setup
        ctx = bayes.build_design(phenotype, sigma_b=0.2)
        res = screen_window(window, cohort.as_cohort(phenotype), ctx, "c")
        assert res.coefficient_kind == "c"
        assert len(res.bf) == window.depth + 1
        # Lambda recomputes from the stored per-scale BFs and pi_hat
        log_lam = sum(
            float(np.sum(np.log1p(p * (bf - 1.0)))) for bf, p in zip(res.bf, res.pi_hat)
        )
        assert abs(np.exp(log_lam) - res.lambda_hat) <= 1e-9 * res.lambda_hat
        for s, g in enumerate(res.posterior_gamma):
            np.testing.assert_allclose(
                g, posterior_gamma(res.bf[s], res.pi_hat[s]), atol=1e-12
            )

    def test_constant_dosages_are_degenerate(self):
        cohort = simharness.generate_genotypes(50, 64, n_blocks=2, seed=8)
        cohort.dosages[:] = 1.0
        window = simharness.synthetic_window(cohort, min_snps_per_coeff=8)
        y = np.random.default_rng(9).standard_normal(50)
        res = screen_window(window, cohort.as_cohort(y), bayes.build_design(y), "d")
        assert res.degenerate
        assert res.lambda_hat == 1.0
        assert res.p_value is None

    def test_dosage_flip_leaves_d_screen_unchanged(self, screen_setup):
        cohort, window, phenotype = screen_setup
        ctx = bayes.build_design(phenotype, sigma_b=0.2)
        res = screen_window(window, cohort.as_cohort(phenotype), ctx, "d")
        flipped = simharness.SyntheticWindowCohort(
            positions=cohort.positions,
            dosages=2.0 - cohort.dosages,
            block_of_snp=cohort.block_of_snp,
            block_center_indices=cohort.block_center_indices,
            allele_frequencies=cohort.allele_frequencies,
        )
        res_f = screen_window(window, flipped.as_cohort(phenotype), ctx, "d")
        assert res_f.lambda_hat == res.lambda_hat
