"""Design construction and closed-form Bayes factors."""

import re

import numpy as np
import pytest

from wavescreen.bayes import build_design, lambda1, log_bayes_factor

from _oracles import log_bf_numeric


class TestBuildDesign:
    def test_basic_properties(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(50)
        C = rng.standard_normal((50, 2))
        ctx = build_design(y, C, sigma_b=0.3)
        assert ctx.n == 50 and ctx.q == 3 and ctx.x_tilde.shape == (50, 1)
        # x_tilde is orthogonal to the nuisance span
        np.testing.assert_allclose(ctx.basis.T @ ctx.x_tilde, 0.0, atol=1e-10)
        # ... and scaled to unit variance: x'x = n
        assert ctx.x_tilde[:, 0] @ ctx.x_tilde[:, 0] == pytest.approx(50.0, rel=1e-14)

    def test_residualize_idempotent(self):
        rng = np.random.default_rng(1)
        ctx = build_design(rng.standard_normal(30), rng.standard_normal((30, 1)))
        v = rng.standard_normal((30, 4))
        r1 = ctx.residualize(v)
        np.testing.assert_allclose(ctx.residualize(r1), r1, atol=1e-12)

    def test_rank_deficient_covariates(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal(20)
        C = np.column_stack([np.ones(20), rng.standard_normal(20)])  # dup intercept
        with pytest.raises(ValueError, match="rank-deficient"):
            build_design(y, C)

    def test_constant_phenotype(self):
        with pytest.raises(ValueError, match="zero variance"):
            build_design(np.ones(20))

    def test_collinear_phenotype(self):
        rng = np.random.default_rng(3)
        c = rng.standard_normal(20)
        with pytest.raises(ValueError, match="collinear"):
            build_design(2.0 * c + 1.0, c[:, None])

    def test_batch_columns_match_single_designs(self):
        rng = np.random.default_rng(12)
        Y, C = rng.standard_normal((40, 4)), rng.standard_normal((40, 2))
        ctx = build_design(Y, C, sigma_b=0.3)
        assert ctx.x_tilde.shape == (40, 4)
        for j in range(4):
            one = build_design(Y[:, j], C, sigma_b=0.3)
            assert ctx.x_tilde[:, j].tobytes() == one.x_tilde.tobytes()
            assert lambda1(ctx) == lambda1(one)
        # an (n,) phenotype is the one column of an (n, 1) design
        vec, col = build_design(Y[:, 0], C, sigma_b=0.3), build_design(Y[:, :1], C, sigma_b=0.3)
        assert vec.x_tilde.shape == (40, 1)
        assert vec.x_tilde.tobytes() == col.x_tilde.tobytes()
        Z = rng.standard_normal((40, 6))
        assert log_bayes_factor(vec, Z).tobytes() == log_bayes_factor(col, Z).tobytes()

    def test_batch_column_with_zero_variance_is_named(self):
        Y = np.random.default_rng(13).standard_normal((20, 4))
        Y[:, 2] = 3.0
        with pytest.raises(ValueError, match="phenotype column 2 has zero variance"):
            build_design(Y)

    def test_batch_column_collinear_with_covariates_is_named(self):
        rng = np.random.default_rng(14)
        c = rng.standard_normal(20)
        Y = rng.standard_normal((20, 3))
        Y[:, 1] = 2.0 * c + 1.0
        with pytest.raises(ValueError, match="phenotype column 1 is collinear"):
            build_design(Y, c[:, None])

    def test_bad_sigma_b(self):
        with pytest.raises(ValueError, match="sigma_b"):
            build_design(np.arange(10.0), sigma_b=0.0)

    @pytest.mark.parametrize("sigma_b", [1e155, 1e200, 1e-160, 1e-200, np.inf, np.nan])
    def test_sigma_b_with_an_unusable_square(self, sigma_b):
        # sigma_b^2 or sigma_b^-2 overflows, or sigma_b^2 underflows to 0
        with pytest.raises(ValueError, match="sigma_b must be positive with a finite"):
            build_design(np.arange(10.0), sigma_b=sigma_b)

    @pytest.mark.parametrize("n, sigma_b", [(10, 1e8), (1000, 1e7)])
    def test_sigma_b_that_rounds_lambda1_to_1(self, n, sigma_b):
        # sigma_b^2 n = 1e17 is past 2^53, whatever the phenotype's scale
        for scale in (1e-10, 1.0, 1e10):
            with pytest.raises(ValueError, match=(
                    rf"^sigma_b = {re.escape(f'{sigma_b:g}')} and n = {n} give sigma_b\^2 n = "
                    r".*, so lambda1 = sigma_b\^2 n / \(1 \+ sigma_b\^2 n\) rounds to 1; "
                    r"it must lie below 1$")):
                build_design(scale * np.arange(float(n)), sigma_b=sigma_b)

    @pytest.mark.parametrize("scale", [1e-160, 1e160, -1e300, 2.0**-600, 2.0**600])
    def test_phenotype_at_an_extreme_scale(self, scale):
        # its sum of squares under- or overflows unless the column is first
        # scaled by a power of two, which leaves a power-of-two scale no trace
        rng = np.random.default_rng(16)
        y, C = rng.standard_normal(50), rng.standard_normal((50, 2))
        ref, ctx = build_design(y, C), build_design(scale * y, C)
        np.testing.assert_allclose(ctx.x_tilde, np.sign(scale) * ref.x_tilde, rtol=1e-12,
                                   atol=1e-14)
        if np.log2(abs(scale)).is_integer():
            assert ctx.x_tilde.tobytes() == ref.x_tilde.tobytes()

    def test_sigma_b_just_below_the_rounding_is_accepted(self):
        # sigma_b^2 n = 2.5e15 < 2^53 leaves lambda1 below 1
        assert lambda1(build_design(np.arange(10.0), sigma_b=np.sqrt(2.5e14))) < 1.0

    def test_too_few_rows(self):
        with pytest.raises(ValueError, match="n > q"):
            build_design(np.array([0.0, 1.0]))


class TestLogBayesFactor:
    def test_orthogonal_response_hits_floor(self):
        # y orthogonal to x_tilde: RSS1 = RSS0, BF = (1 + sigma_b^2 n)^(-1/2)
        n = 64
        x = np.zeros(n)
        x[0], x[1] = 1.0, -1.0
        ctx = build_design(x, sigma_b=0.2)
        y = np.zeros(n)
        y[2], y[3] = 1.0, -1.0
        expected = -0.5 * np.log1p(0.04 * n)
        assert abs(log_bayes_factor(ctx, y) - expected) < 1e-12

    def test_matches_numeric_oracle(self):
        rng = np.random.default_rng(4)
        for with_cov in (False, True):
            x = rng.standard_normal(50)
            C = rng.standard_normal((50, 2)) if with_cov else None
            ctx = build_design(x, C, sigma_b=0.2)
            y = rng.standard_normal(50)
            [closed] = log_bayes_factor(ctx, y)
            oracle = log_bf_numeric(ctx, y)
            assert abs(closed - oracle) < 1e-8 * max(1.0, abs(oracle))

    def test_vectorized_matches_columns(self):
        rng = np.random.default_rng(5)
        ctx = build_design(rng.standard_normal(40), rng.standard_normal((40, 1)))
        Y = rng.standard_normal((40, 7))
        [batch] = log_bayes_factor(ctx, Y)
        singles = [log_bayes_factor(ctx, Y[:, j])[0] for j in range(7)]
        np.testing.assert_allclose(batch, singles, rtol=1e-12)

    def test_batch_rows_equal_single_phenotypes_bitwise(self):
        rng = np.random.default_rng(15)
        X, C = rng.standard_normal((300, 3)), rng.standard_normal((300, 1))
        Y = rng.standard_normal((300, 64))
        ctx = build_design(X, C, sigma_b=0.2)
        batch = log_bayes_factor(ctx, Y)
        assert batch.shape == (3, 64)
        assert log_bayes_factor(ctx, Y[:, 0]).shape == (3,)
        for p in range(3):
            one = log_bayes_factor(build_design(X[:, p], C, sigma_b=0.2), Y)
            assert batch[p].tobytes() == one.tobytes()

    def test_shape_and_finiteness_checks(self):
        ctx = build_design(np.random.default_rng(6).standard_normal(30))
        with pytest.raises(ValueError, match="rows"):
            log_bayes_factor(ctx, np.zeros(29))
        bad = np.zeros(30)
        bad[0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            log_bayes_factor(ctx, bad)

    def test_association_increases_bf(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(200)
        ctx = build_design(x, sigma_b=0.2)
        noise = rng.standard_normal(200)
        weak = log_bayes_factor(ctx, noise)
        strong = log_bayes_factor(ctx, 0.5 * (x - x.mean()) / x.std() + noise)
        assert strong > weak


class TestLambda1:
    def test_formula(self):
        rng = np.random.default_rng(8)
        ctx = build_design(rng.standard_normal(100), sigma_b=0.2)
        s2n = 0.2 ** 2 * 100
        assert isinstance(lambda1(ctx), float) and lambda1(ctx) == s2n / (1.0 + s2n)

    def test_grows_with_prior_scale(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(100)
        assert lambda1(build_design(x, sigma_b=0.5)) > lambda1(build_design(x, sigma_b=0.1))
