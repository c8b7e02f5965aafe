"""Synthetic cohorts, planted signals and the GWAS baseline."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import special, stats

from _oracles import generate_genotypes_reference, screen_window
from wavescreen import bayes, dataio, nullsim, screening, wavelet
from wavescreen.simharness import (
    PowerConfig,
    generate_genotypes,
    gwas_lm_baseline,
    plant_signal,
    power_experiment,
    simulate_phenotype,
    synthetic_window,
)


class TestGenerateGenotypes:
    def test_shapes_and_ranges(self):
        c = generate_genotypes(100, 200, n_blocks=5, seed=0)
        assert c.dosages().shape == (200, 100)
        assert set(np.unique(c.dosages())) <= {0.0, 1.0, 2.0}
        assert np.all(np.diff(c.positions) > 0)
        assert len(c.block_center_indices) == 5

    def test_deterministic(self):
        a = generate_genotypes(50, 64, seed=3)
        b = generate_genotypes(50, 64, seed=3)
        np.testing.assert_array_equal(a.dosages(), b.dosages())
        np.testing.assert_array_equal(a.positions, b.positions)

    def test_ld_strength_tracks_flip_prob(self):
        def mean_block_corr(flip):
            c = generate_genotypes(800, 60, n_blocks=2, flip_prob=flip, seed=4)
            block = c.dosages(slice(30))  # of two blocks, the first holds the first half
            r = np.corrcoef(block)
            return float(np.mean(r[np.triu_indices_from(r, 1)]))

        assert mean_block_corr(0.0) > 0.999
        assert mean_block_corr(0.05) > mean_block_corr(0.4)
        assert mean_block_corr(0.4) < 0.2

    @pytest.mark.parametrize("n, n_snps, n_blocks, flip_prob, span_bp", [
        (3000, 896, 28, 0.1, 1_000_000),  # the power workload's window
        (70, 200, 7, 0.1, 1_000_000),  # n_snps not a multiple of the chunk rows
        (40, 130, 5, 0.0, 1_000_000),
        (40, 130, 5, 0.5, 1_000_000),
        (30, 150, 150, 0.1, 1_000_000),  # one SNP per block
        (20, 300, 3, 0.1, 200),  # more SNPs than base pairs: positions collide
    ])
    def test_matches_reference_bitwise(self, n, n_snps, n_blocks, flip_prob, span_bp):
        c = generate_genotypes(n, n_snps, n_blocks, flip_prob, span_bp, seed=11)
        dosages, positions = generate_genotypes_reference(
            n, n_snps, n_blocks, flip_prob, span_bp, seed=11
        )
        assert c.store.dtype == dosages.dtype and c.positions.dtype == positions.dtype
        np.testing.assert_array_equal(c.dosages().view(np.int64), dosages.view(np.int64))
        np.testing.assert_array_equal(c.positions, positions)

    def test_validates_arguments(self):
        with pytest.raises(ValueError, match="^n and n_snps must be positive$"):
            generate_genotypes(0, 10)
        with pytest.raises(ValueError, match=r"^n_blocks must lie in \[1, n_snps\]$"):
            generate_genotypes(10, 5, n_blocks=6)


class TestPlantSignal:
    def test_mono_signs(self):
        c = generate_genotypes(50, 100, n_blocks=10, seed=5)
        sig = plant_signal(c, 4, 0.05, "mono", seed=0)
        assert np.all(sig.signs == 1)
        assert len(sig.causal_snp_indices) == 4
        assert set(sig.causal_snp_indices) <= set(c.block_center_indices)

    def test_random_signs(self):
        c = generate_genotypes(50, 100, n_blocks=10, seed=5)
        sig = plant_signal(c, 10, 0.05, "random", seed=1)
        assert set(np.unique(sig.signs)) <= {-1, 1}

    def test_validation(self):
        c = generate_genotypes(50, 100, n_blocks=4, seed=6)
        with pytest.raises(ValueError, match="^more components than blocks$"):
            plant_signal(c, 5, 0.05)  # more components than blocks
        with pytest.raises(ValueError, match=r"^heritability must lie in \(0, 1\)$"):
            plant_signal(c, 2, 1.5)
        with pytest.raises(ValueError, match="^unknown direction mode 'sideways'$"):
            plant_signal(c, 2, 0.05, "sideways")


class TestSimulatePhenotype:
    def test_target_heritability(self):
        c = generate_genotypes(20_000, 100, n_blocks=10, seed=7)
        sig = plant_signal(c, 5, 0.1, "mono", seed=2)
        y = simulate_phenotype(c, sig, seed=3)
        score = sig.signs @ c.dosages(sig.causal_snp_indices)
        r2 = np.corrcoef(score, y)[0, 1] ** 2
        assert abs(r2 - 0.1) < 0.02

    def test_deterministic(self):
        c = generate_genotypes(100, 64, seed=8)
        sig = plant_signal(c, 2, 0.05, seed=4)
        np.testing.assert_array_equal(
            simulate_phenotype(c, sig, seed=5), simulate_phenotype(c, sig, seed=5)
        )


class TestGwasBaseline:
    def test_matches_linregress(self):
        rng = np.random.default_rng(9)
        G = rng.integers(0, 3, size=(12, 150)).astype(float)
        y = rng.standard_normal(150) + 0.3 * G[4]
        [pvals] = gwas_lm_baseline(G, y)
        for j in range(12):
            ref = stats.linregress(G[j], y).pvalue
            assert abs(pvals[j] - ref) < 1e-10

    def test_p_values_equal_scipy_stats_bitwise(self, monkeypatch):
        # the package evaluates the t survival through scipy.special, imported
        # by name when gwas_lm_baseline runs; record each (dof, -|t|) it asks
        # for and check the p-values against scipy.stats
        calls, stdtr = [], special.stdtr

        def recording_stdtr(dof, x):
            calls.append((dof, np.array(x)))
            return stdtr(dof, x)

        monkeypatch.setattr(special, "stdtr", recording_stdtr)
        rng = np.random.default_rng(13)
        for n in (12, 40, 300, 3000):
            G = rng.integers(0, 3, size=(30, n)).astype(float)
            Y = rng.standard_normal((3, n)) + 0.4 * G[:3]
            calls.clear()
            pvals = gwas_lm_baseline(G, Y)
            assert len(calls) == 3
            for (dof, x), row in zip(calls, pvals):
                assert dof == n - 2
                assert np.array_equal(row, 2.0 * stats.t.sf(-x, dof))

    def test_monomorphic_snp_gets_p_one(self):
        rng = np.random.default_rng(11)
        G = np.vstack([np.ones(50), rng.integers(0, 3, 50)]).astype(float)
        [pvals] = gwas_lm_baseline(G, rng.standard_normal(50))
        assert pvals[0] == 1.0 and pvals[1] < 1.0

    def test_constant_phenotype_rejected(self):
        with pytest.raises(ValueError, match="^phenotype has zero variance$"):
            gwas_lm_baseline(np.zeros((2, 30)), np.ones(30))

    def test_stacked_phenotypes_match_single_calls(self):
        rng = np.random.default_rng(12)
        G = rng.integers(0, 3, size=(20, 120)).astype(float)
        G[3] = 1.0  # monomorphic
        Y = rng.standard_normal((5, 120)) + 0.2 * G[7]
        stacked = gwas_lm_baseline(G, Y)
        assert stacked.shape == (5, 20)
        for y, row in zip(Y, stacked):
            assert np.array_equal(row, gwas_lm_baseline(G, y)[0])
        assert np.all(stacked[:, 3] == 1.0)

    def test_any_constant_phenotype_row_rejected(self):
        Y = np.vstack([np.arange(30.0), np.ones(30)])
        with pytest.raises(ValueError, match="^phenotype column 1 has zero variance$"):
            gwas_lm_baseline(np.zeros((2, 30)), Y)


class TestSyntheticWindow:
    def test_spans_all_snps(self):
        c = generate_genotypes(50, 128, n_blocks=4, seed=12)
        w = synthetic_window(c, min_snps_per_coeff=8)
        assert (w.snp_start, w.snp_end) == (0, 128)
        assert w.depth == 4  # 128 / 8 = 16 coefficients at the deepest scale
        assert w.start_bp <= c.positions[0] and w.end_bp > c.positions[-1]

    def test_too_sparse(self):
        c = generate_genotypes(50, 8, n_blocks=2, seed=13)
        with pytest.raises(ValueError,
                           match="^too few SNPs for the requested coefficient density$"):
            synthetic_window(c, min_snps_per_coeff=100)


class TestPowerExperiment:
    def test_smoke(self):
        cfg = PowerConfig(
            n=400, n_snps=128, n_blocks=8, replicates=6, heritability=0.1,
            max_components=8, null_m=4000, seed=1, min_snps_per_coeff=8,
        )
        rows, detail = power_experiment(cfg)
        assert len(detail) == 6
        methods = {r.method for r in rows}
        assert methods == {"WS-c", "WS-d", "GWAS-LM"}
        for r in rows:
            assert 0.0 <= r.power <= 1.0
        for rec in detail:
            assert 1 <= rec["k"] <= 8
            for key in ("p_ws_c", "p_ws_d", "p_gwas"):
                assert 0.0 < rec[key] <= 1.0

    def test_uses_cache(self, tmp_path):
        cfg = PowerConfig(
            n=300, n_snps=64, n_blocks=4, replicates=2, heritability=0.1,
            max_components=4, null_m=2000, seed=2, min_snps_per_coeff=8,
        )
        _, detail1 = power_experiment(cfg, cache_dir=str(tmp_path))
        assert list(tmp_path.glob("null_*.tsv"))
        _, detail2 = power_experiment(cfg, cache_dir=str(tmp_path))
        assert detail1 == detail2

    def test_asks_for_one_worker(self, tmp_path, monkeypatch):
        # on eight usable CPUs, the cold null simulation, over three chunks,
        # and the screen each ask for one thread: more would give each its
        # own malloc arena and raise the run's peak memory
        monkeypatch.setattr(dataio, "_usable_cpus", lambda: 8)
        pools = []

        class Recorded(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(nullsim, "ThreadPoolExecutor", Recorded)
        cfg = PowerConfig(
            n=300, n_snps=64, n_blocks=4, replicates=2, heritability=0.1,
            max_components=4, null_m=2 * nullsim.SIM_CHUNK + 1, seed=2, min_snps_per_coeff=8,
        )
        power_experiment(cfg, cache_dir=str(tmp_path))
        assert pools == [1, 1]  # the simulation's pool, then the screen's

    def test_window_work_is_built_once(self, monkeypatch):
        cfg = PowerConfig(
            n=300, n_snps=64, n_blocks=4, replicates=4, heritability=0.1,
            max_components=4, null_m=2000, seed=5, min_snps_per_coeff=8,
        )
        calls = {"window_spectra": 0, "interpolation_matrix": 0, "load_or_build_null_model": 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(screening, "window_spectra")
        counted(wavelet, "interpolation_matrix")
        counted(nullsim, "load_or_build_null_model")
        _, detail = power_experiment(cfg)
        assert calls == {"window_spectra": 1, "interpolation_matrix": 1,
                         "load_or_build_null_model": 1}
        monkeypatch.undo()

        # every replicate recomputed from scratch, as one screen per kind and
        # one single-phenotype GWAS
        cohort = generate_genotypes(cfg.n, cfg.n_snps, cfg.n_blocks, cfg.flip_prob,
                                    seed=cfg.seed)
        window = synthetic_window(cohort, cfg.min_snps_per_coeff)
        # lambda1 depends on n and sigma_b alone
        s2n = bayes.DEFAULT_SIGMA_B ** 2 * cfg.n
        model = nullsim.load_or_build_null_model(
            s2n / (1.0 + s2n), window.depth, cfg.null_m, cfg.seed, None
        )
        rng = np.random.Generator(np.random.Philox(key=np.array([cfg.seed, 3], dtype=np.uint64)))
        assert len(detail) == cfg.replicates
        for rep, rec in enumerate(detail):
            k = int(rng.integers(1, cfg.max_components + 1))
            seed = cfg.seed * 1_000_003 + rep
            sig = plant_signal(cohort, k, cfg.heritability, cfg.direction_mode, seed=seed)
            y = simulate_phenotype(cohort, sig, seed=seed)
            ctx = bayes.build_design(y)
            want = {"replicate": rep, "k": k}
            for kind in ("c", "d"):
                res = screen_window(window, cohort, ctx, kind)
                want[f"p_ws_{kind}"] = nullsim.p_value(model, res.lambda_hat)
            want["p_gwas"] = min(1.0, cohort.n_snps * float(np.min(gwas_lm_baseline(
                cohort.dosages(), y))))
            # p-values lie in (0, 1], where equal floats are equal bits
            assert rec == want

    def test_replicates_are_screened_as_one_batch(self, monkeypatch):
        # each kind's coefficients are residualized once for all replicates,
        # and each kind's scales are solved in one maximize_lambda call
        cfg = PowerConfig(
            n=300, n_snps=64, n_blocks=4, replicates=3, heritability=0.1,
            max_components=4, null_m=2000, seed=5, min_snps_per_coeff=8,
        )
        calls = {"log_bayes_factor": [], "maximize_lambda": 0}
        log_bayes_factor, maximize_lambda = screening.log_bayes_factor, screening.maximize_lambda

        def counted_log_bf(ctx, y):
            calls["log_bayes_factor"].append(ctx.x_tilde.shape)
            return log_bayes_factor(ctx, y)

        def counted_maximize(log_bfs_by_scale):
            calls["maximize_lambda"] += 1
            return maximize_lambda(log_bfs_by_scale)

        monkeypatch.setattr(screening, "log_bayes_factor", counted_log_bf)
        monkeypatch.setattr(screening, "maximize_lambda", counted_maximize)
        power_experiment(cfg)
        monkeypatch.undo()

        cohort = generate_genotypes(cfg.n, cfg.n_snps, cfg.n_blocks, cfg.flip_prob,
                                    seed=cfg.seed)
        window = synthetic_window(cohort, cfg.min_snps_per_coeff)
        spectra = screening.window_spectra(window, cohort, ("c", "d"))
        live_scales = sum(
            int(not deg.all()) for _, degenerate in spectra.values() for deg in degenerate
        )
        assert calls["log_bayes_factor"] == [(cfg.n, cfg.replicates)] * live_scales
        assert calls["maximize_lambda"] == 2
