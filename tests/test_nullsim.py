"""Null simulation, GPD tail fitting and p-value lookup."""

import math
import os
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.stats import genpareto, chi2

from _oracles import gpd_fit_reference, gpd_negloglik, simulate_null_reference
from wavescreen import dataio, nullsim, screening
from wavescreen.nullsim import (
    GPDFitError,
    GPDTail,
    NullModel,
    fit_gpd_exceedances,
    fit_gpd_tail,
    load_or_build_null_model,
    p_value,
    save_null_model,
    simulate_null,
)


class TestSimulateNull:
    def test_deterministic_and_sorted(self):
        a = simulate_null(0.5, depth=2, M=5000, seed=42)
        b = simulate_null(0.5, depth=2, M=5000, seed=42)
        np.testing.assert_array_equal(a, b)
        assert np.all(np.diff(a) >= 0)
        assert a[0] >= 1.0

    def test_seed_changes_sample(self):
        a = simulate_null(0.5, depth=2, M=2000, seed=1)
        b = simulate_null(0.5, depth=2, M=2000, seed=2)
        assert not np.array_equal(a, b)

    def test_depth_zero_matches_analytic_law(self):
        # depth 0: Lambda = max(BF, 1) with 2 log BF = lam*Q + log(1-lam)
        lam = 0.9
        sample = simulate_null(lam, depth=0, M=200_000, seed=7)
        # P(Lambda > x) for x > 1 equals P(Q > (2 log x - log(1-lam))/lam)
        for x in (1.5, 3.0, 10.0):
            q = (2.0 * np.log(x) - np.log1p(-lam)) / lam
            expected = chi2.sf(q, df=1)
            observed = float(np.mean(sample > x))
            assert abs(observed - expected) < 4.0 * np.sqrt(expected / 200_000) + 1e-4

    def test_depth_zero_draws_squared_normals(self):
        # the draw scheme the cache key names: chunk 0 of seed s is
        # Philox([s, 0]), and Q is a squared standard normal
        lam, M, seed = 0.9, 4000, 11
        assert nullsim.SIM_DRAWS == "z2" and M <= nullsim.SIM_CHUNK
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
        q = rng.standard_normal((M, 1)) ** 2
        bf = np.exp(0.5 * (lam * q[:, 0] + np.log1p(-lam)))
        np.testing.assert_allclose(
            simulate_null(lam, 0, M, seed), np.sort(np.maximum(bf, 1.0)), rtol=1e-12
        )

    def test_low_lambda1_draws_never_below_one(self):
        # at lambda1 = 0.1 every scale has an interior maximum; a solver that
        # stops short of it can return Lambda_hat < 1, which p_value rejects
        sample = simulate_null(0.1, depth=6, M=20_000, seed=3)
        assert sample[0] >= 1.0

    def test_thread_count_does_not_change_the_sample(self, monkeypatch):
        # eight usable CPUs, so that eight threads are clamped to the three
        # chunks; switching every microsecond interleaves the chunks
        monkeypatch.setattr(dataio, "_usable_cpus", lambda: 8)
        pools = []

        class Recorded(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(nullsim, "ThreadPoolExecutor", Recorded)
        M = 2 * nullsim.SIM_CHUNK + 100
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            samples = [simulate_null(0.5, 3, M, 7, threads) for threads in (1, 2, 8)]
        finally:
            sys.setswitchinterval(interval)
        assert pools == [1, 2, 3]
        assert samples[0].tobytes() == samples[1].tobytes() == samples[2].tobytes()
        assert np.all(np.diff(samples[0]) >= 0)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("rows", [None, 3])
    @pytest.mark.parametrize("lam, depth, M", [
        (0.1, 6, 2 * nullsim.SIM_CHUNK + 700),
        (0.9997, 9, nullsim.SIM_CHUNK + 1),
        (0.5, 0, nullsim.SIM_CHUNK + 700),
    ])
    def test_row_blocks_draw_the_whole_scale_stream(self, monkeypatch, lam, depth, M, rows,
                                                    threads):
        # 3 rows a block at the deepest scale, 3 x 2^k at k scales above it: no
        # block size divides a chunk, so every scale ends on a partial block
        monkeypatch.setattr(dataio, "_usable_cpus", lambda: 2)
        if rows is not None:
            monkeypatch.setattr(nullsim, "SIM_BLOCK", rows << depth)
        got = simulate_null(lam, depth, M, 5, threads)
        assert got.tobytes() == simulate_null_reference(lam, depth, M, 5).tobytes()

    def test_a_thread_holds_blocks_not_chunks(self):
        # a whole depth-9 chunk is 16 MiB of draws, and the solver's
        # temporaries three times that
        tracemalloc.start()
        try:
            simulate_null(0.984, 9, 4096, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2**20

    def test_chunk_error_is_raised(self, monkeypatch):
        def failing(log_bf):
            raise FloatingPointError("solver failed")

        monkeypatch.setattr(screening, "max_log_lambda", failing)
        with pytest.raises(FloatingPointError, match="^solver failed$"):
            simulate_null(0.5, 1, 3 * nullsim.SIM_CHUNK, 0, threads=2)

    def test_validates_arguments(self):
        with pytest.raises(ValueError, match=r"^lambda1 must lie in \(0, 1\)$"):
            simulate_null(0.0, 1, 10, 0)
        with pytest.raises(ValueError, match="^depth must be >= 0$"):
            simulate_null(0.5, -1, 10, 0)
        with pytest.raises(ValueError, match="^M must be positive$"):
            simulate_null(0.5, 1, 0, 0)


def _null_exceedances(lambda1, depth, M):
    sample = simulate_null(lambda1, depth, M, seed=1)
    u = np.quantile(sample, 0.99)
    return sample[sample > u] - u


def _gpd(shape, size=1000):
    return lambda: genpareto.rvs(shape, scale=1.5, size=size,
                                 random_state=np.random.default_rng(5))


_ORACLE_CASES = {
    **{f"null_{lam}_{depth}_{M}": lambda a=(lam, depth, M): _null_exceedances(*a)
       for lam, depth, M in ((0.1, 6, 20_000), (0.984, 5, 4096), (0.984, 7, 4096),
                             (0.984, 9, 4096), (0.988, 6, 8192), (0.9997, 9, 100_000))},
    **{f"gpd_{shape}": _gpd(shape) for shape in (-0.8, -0.4, 0.2, 2.0, 3.0)},
    "min_exceedances": _gpd(0.3, nullsim.MIN_EXCEEDANCES),
    # 500 draws on a half-unit lattice: 29 distinct values, 149 draws at 0.5
    "tied": lambda: np.ceil(_gpd(0.3, 500)() * 2.0) / 2.0,
}


class TestGPDFit:
    def test_recovers_parameters(self):
        exc = genpareto.rvs(0.2, scale=0.05, size=30_000,
                            random_state=np.random.default_rng(0))
        xi, beta, se_xi, _ = fit_gpd_exceedances(exc)
        assert abs(xi - 0.2) < 0.02
        assert abs(beta - 0.05) < 0.002
        assert np.isfinite(se_xi) and se_xi < 0.02

    def test_exponential_control(self):
        rng = np.random.default_rng(1)
        xi, beta, _, _ = fit_gpd_exceedances(rng.exponential(0.3, size=30_000))
        assert abs(xi) < 0.05
        assert abs(beta - 0.3) < 0.01

    def test_too_few_points(self):
        with pytest.raises(GPDFitError, match="exceedances"):
            fit_gpd_exceedances(np.ones(5))

    def test_constant_exceedances(self):
        with pytest.raises(GPDFitError, match="constant"):
            fit_gpd_exceedances(np.ones(100))

    @pytest.mark.parametrize("case", list(_ORACLE_CASES))
    def test_reaches_the_two_parameter_optimum(self, case):
        # the profile search reaches the optimum of the 2-D likelihood, and
        # the heavy tails, whose optima lie far up the theta axis, too
        exc = _ORACLE_CASES[case]()
        xi, beta, _, _ = fit_gpd_exceedances(exc)
        assert np.isfinite(xi) and np.isfinite(beta)
        ref_xi, ref_beta = gpd_fit_reference(exc)
        ll = -gpd_negloglik([xi, math.log(beta)], exc)
        ref_ll = -gpd_negloglik([ref_xi, math.log(ref_beta)], exc)
        assert ll >= ref_ll - 1e-9 * abs(ref_ll)
        assert ref_xi > -1.0 + 1e-6  # both optima are interior
        assert xi == pytest.approx(ref_xi, rel=1e-5)
        assert beta == pytest.approx(ref_beta, rel=1e-5)

    def test_uniform_exceedances_have_no_interior_maximum(self):
        # shape -1 is the uniform law; the likelihood is highest there, at
        # scale max(x), the edge of the region where it is bounded
        exc = np.random.default_rng(6).uniform(0.0, 2.0, size=1000)
        ref_xi, ref_beta = gpd_fit_reference(exc)
        assert ref_xi == pytest.approx(-1.0, abs=1e-9)
        assert ref_beta == pytest.approx(exc.max(), rel=1e-6)
        with pytest.raises(GPDFitError, match="no interior maximum"):
            fit_gpd_exceedances(exc)

    def test_non_positive_exceedances(self):
        # with an exceedance at 0 the likelihood grows without bound in xi
        exc = np.linspace(0.0, 1.0, 100)
        with pytest.raises(GPDFitError, match="positive"):
            fit_gpd_exceedances(exc)

    def test_standard_errors_match_the_spread_of_fits(self):
        # Smith's information: over 300 GPD(0.2, 1.5) samples of 400 points,
        # the fits' standard deviations are the reported errors
        rng = np.random.default_rng(8)
        fits = np.array([fit_gpd_exceedances(genpareto.rvs(0.2, scale=1.5, size=400,
                                                           random_state=rng))
                         for _ in range(300)])
        np.testing.assert_allclose(fits[:, :2].std(axis=0), np.median(fits[:, 2:], axis=0),
                                   rtol=0.15)

    def test_no_standard_errors_at_or_below_shape_minus_half(self):
        rng = np.random.default_rng(9)
        for shape, finite in ((-0.8, False), (-0.3, True)):
            _, _, se_xi, se_beta = fit_gpd_exceedances(
                genpareto.rvs(shape, scale=1.0, size=2000, random_state=rng))
            assert np.isfinite([se_xi, se_beta]).tolist() == [finite, finite]


class TestThresholdRules:
    def test_quantile_99(self):
        rng = np.random.default_rng(12)
        sample = rng.exponential(1.0, size=20_000) + 1.0
        tail = fit_gpd_tail(sample)
        assert abs(tail.threshold - np.quantile(sample, 0.99)) < 1e-9
        assert tail.n_exceedances == np.count_nonzero(sample > tail.threshold)

    @pytest.mark.parametrize("ordered", [True, False], ids=["sorted", "unsorted"])
    @pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties_at_u"])
    def test_tail_slice_equals_the_mask(self, ties, ordered):
        # the sorted sample's values past u are the ones above it, ties at u
        # left out; an unsorted sample gives the same fit as its sorted one
        rng = np.random.default_rng(4)
        sample = np.sort(np.concatenate([
            rng.uniform(0.0, 5.0, 4900), np.full(60, 7.0) if ties else rng.uniform(6.0, 7.0, 60),
            7.0 + rng.exponential(1.0, 40)]))
        u = float(np.quantile(sample, 0.99))
        assert (u == 7.0) == ties
        exc = sample[sample > u] - u
        xi, beta, se_xi, se_beta = fit_gpd_exceedances(exc)
        tail = fit_gpd_tail(sample if ordered else rng.permutation(sample))
        assert tail == GPDTail(u, xi, beta, len(exc), se_xi, se_beta)


class TestBuildAndPValue:
    def test_build_has_tail(self):
        model = load_or_build_null_model(0.9, depth=3, M=20_000, seed=3)
        assert model.tail is not None
        assert model.tail.threshold > 1.0
        assert model.tail.n_exceedances >= nullsim.MIN_EXCEEDANCES

    def test_fallback_without_tail(self):
        # 20 draws leave no 30 exceedances above the 99% quantile: the tail
        # fit fails and p-values stay empirical
        model = load_or_build_null_model(0.5, 0, 20, 0)
        assert model.tail is None
        assert model.tail_error.startswith("only 1 exceedances above u=")
        assert p_value(model, model.sample[-1] + 1.0) == pytest.approx(1.0 / 21.0)

    def test_empirical_p_value_convention(self):
        sample = np.arange(1.0, 101.0)  # 100 values
        model = NullModel(sample)
        # 50.5: 50 values >= it -> (50+1)/101
        assert p_value(model, 50.5) == pytest.approx(51.0 / 101.0)
        assert p_value(model, 1000.0) == pytest.approx(1.0 / 101.0)

    def test_tail_p_value_uses_gpd(self):
        model = load_or_build_null_model(0.9, depth=2, M=50_000, seed=4)
        tail = model.tail
        x = tail.threshold * 1.5
        expected = tail.n_exceedances / len(model.sample) * genpareto.sf(
            x - tail.threshold, tail.shape, scale=tail.scale
        )
        assert p_value(model, x) == pytest.approx(expected, rel=1e-12)

    def test_p_value_monotone(self):
        model = load_or_build_null_model(0.9, depth=2, M=20_000, seed=5)
        xs = np.linspace(1.0, model.tail.threshold * 3, 50)
        ps = [p_value(model, x) for x in xs]
        assert all(b <= a + 1e-15 for a, b in zip(ps, ps[1:]))

    def test_tail_p_value_equals_scipy_stats_bitwise(self):
        # scipy.special's inv_boxcox is the GPD survival scipy.stats evaluates;
        # a xi < 0 tail ends at -1/xi, and its survival is 0 from there on
        M, n_exc, u, beta = 100_000, 1000, 3.0, 0.37
        for xi in np.linspace(-0.5, 2.0, 126):
            z = np.geomspace(1e-8, 1e4, 160)
            if xi < 0:
                end = -1.0 / xi
                z = np.concatenate([z, [np.nextafter(end, 0.0), end, np.nextafter(end, 2 * end)]])
            lam = u + z * beta
            exc = lam - u
            model = NullModel(np.linspace(1.0, u, M), GPDTail(u, xi, beta, n_exc, 0.0, 0.0))
            expected = n_exc / M * genpareto.sf(exc, xi, scale=beta)
            got = np.array([p_value(model, x) for x in lam])
            assert got.tobytes() == expected.tobytes(), xi

    def test_rejects_lambda_below_one(self):
        model = load_or_build_null_model(0.5, depth=0, M=1000, seed=6)
        with pytest.raises(ValueError, match=r"^Lambda_hat must be at least 1, got 0\.5$"):
            p_value(model, 0.5)

    def test_rejects_nan(self):
        # a NaN Lambda_hat fails every comparison, so a "< 1" check let it
        # through to the empirical floor 1/(M+1)
        model = load_or_build_null_model(0.9, depth=2, M=20_000, seed=5)
        assert model.tail is not None
        with pytest.raises(ValueError, match="^Lambda_hat must be at least 1, got nan$"):
            p_value(model, float("nan"))


def _cache_files(cache_dir):
    return sorted(p.name for p in cache_dir.iterdir())


class TestCache:
    def test_save_and_reload_identical(self, tmp_path):
        model = load_or_build_null_model(0.7, depth=2, M=3000, seed=9)
        save_null_model(model, 0.7, 2, 9, str(tmp_path))
        again = load_or_build_null_model(0.7, 2, 3000, 9, str(tmp_path))
        np.testing.assert_array_equal(again.sample, model.sample)
        assert again.tail == model.tail

    def test_build_populates_cache(self, tmp_path):
        first = load_or_build_null_model(0.7, 1, 2000, 10, str(tmp_path))
        files = list(tmp_path.glob("null_*.tsv"))
        assert len(files) == 1
        # the write leaves no temporary file behind
        assert _cache_files(tmp_path) == [files[0].name]
        # cached file is reused, not rewritten
        mtime = files[0].stat().st_mtime_ns
        second = load_or_build_null_model(0.7, 1, 2000, 10, str(tmp_path))
        assert files[0].stat().st_mtime_ns == mtime
        np.testing.assert_array_equal(second.sample, first.sample)

    def test_file_is_synced_before_it_is_renamed(self, tmp_path, monkeypatch):
        calls = []
        fsync, replace = os.fsync, os.replace
        monkeypatch.setattr(os, "fsync", lambda fd: calls.append("fsync") or fsync(fd))
        monkeypatch.setattr(os, "replace",
                            lambda *args: calls.append("replace") or replace(*args))
        load_or_build_null_model(0.7, 1, 2000, 10, str(tmp_path))
        assert calls == ["fsync", "replace"]
        assert _cache_files(tmp_path) == [nullsim._cache_name(0.7, 1, 2000, 10)]

    def test_file_holds_each_value_as_17_significant_digits(self, tmp_path):
        sample = np.array([5e-324, 2.2250738585072014e-308, 1.0, 3.0, 1e16,
                           0.1 + 0.2, 1.2345678901234567, 123456789.01234567])
        save_null_model(NullModel(sample), 0.7, 1, 10, str(tmp_path))
        path = tmp_path / nullsim._cache_name(0.7, 1, len(sample), 10)
        want = (nullsim._cache_header(0.7, 1, len(sample), 10) + "lambda_hat\n"
                + "".join(f"{v:.17g}\n" for v in sample.tolist()))
        assert path.read_bytes() == want.encode("utf-8")

    def test_failed_write_leaves_no_file(self, tmp_path):
        with pytest.raises(ValueError):
            save_null_model(NullModel(np.array([1.0, "x"], dtype=object)), 0.7, 1, 10,
                            str(tmp_path))
        assert _cache_files(tmp_path) == []

    def test_steps_are_looked_up_on_the_module(self, tmp_path, monkeypatch):
        # tracing wraps these module attributes; a cache miss is a load with a
        # simulate_null call inside it, and a hit reads the sample and fits
        # its tail
        calls = []
        for name in ("simulate_null", "save_null_model", "fit_gpd_tail"):
            fn = getattr(nullsim, name)
            monkeypatch.setattr(nullsim, name,
                                lambda *a, _fn=fn, _name=name: calls.append(_name) or _fn(*a))
        load_or_build_null_model(0.7, 1, 2000, 10, str(tmp_path))
        assert calls == ["simulate_null", "fit_gpd_tail", "save_null_model"]
        calls.clear()
        load_or_build_null_model(0.7, 1, 2000, 10, str(tmp_path))
        assert calls == ["fit_gpd_tail"]

    @pytest.mark.parametrize("damage", [
        "truncated", "header_row", "extra_draw", "unsorted", "non_finite", "not_a_number",
        "no_lambda_hat",
    ])
    def test_damaged_file_is_rebuilt(self, tmp_path, damage):
        load_or_build_null_model(0.7, 1, 2000, 10, str(tmp_path))
        path = tmp_path / nullsim._cache_name(0.7, 1, 2000, 10)
        good = path.read_text()
        lines = good.splitlines(keepends=True)
        if damage == "truncated":  # a reader that caught a write half-way
            bad = good[: len(good) // 2]
        elif damage == "header_row":  # same file name, another seed in the key
            bad = good.replace("\t2000\t10\t", "\t2000\t11\t", 1)
        elif damage == "extra_draw":
            bad = good + lines[-1]
        elif damage == "unsorted":
            bad = "".join(lines[:3] + lines[3:][::-1])
        elif damage == "no_lambda_hat":
            bad = "".join(lines[:2] + lines[3:])
        elif damage == "non_finite":
            bad = "".join(lines[:-1]) + "inf\n"
        else:
            bad = "".join(lines[:-1]) + "x\n"
        assert bad != good
        path.write_text(bad)
        model = load_or_build_null_model(0.7, 1, 2000, 10, str(tmp_path))
        np.testing.assert_array_equal(model.sample, simulate_null(0.7, 1, 2000, 10))
        assert path.read_text() == good
        assert _cache_files(tmp_path) == [path.name]

    def test_stored_tail_is_the_fitted_one(self, tmp_path, monkeypatch):
        # the file holds the sample only, and a hit fits its tail: 5000 draws
        # leave 50 exceedances, so the tail is fitted; 2000 leave 20, and the
        # model says why it has none
        for M in (5000, 2000):
            load_or_build_null_model(0.7, 1, M, 10, str(tmp_path))
            lines = (tmp_path / nullsim._cache_name(0.7, 1, M, 10)).read_text().splitlines()
            assert lines[2] == "lambda_hat" and len(lines) == 3 + M
        fits = []
        monkeypatch.setattr(nullsim, "fit_gpd_tail",
                            lambda sample, _fit=fit_gpd_tail: fits.append(sample) or _fit(sample))
        fitted = load_or_build_null_model(0.7, 1, 5000, 10, str(tmp_path))
        failed = load_or_build_null_model(0.7, 1, 2000, 10, str(tmp_path))
        assert [len(f) for f in fits] == [5000, 2000]
        assert fitted.tail == fit_gpd_tail(fitted.sample) and fitted.tail_error is None
        assert failed.tail is None
        u = np.quantile(failed.sample, 0.99)
        assert failed.tail_error == f"only 20 exceedances above u={u:.6g}; need 30"

    def test_file_with_a_tail_line_is_rebuilt(self, tmp_path, monkeypatch):
        # the format that stored the fitted tail on a line above lambda_hat
        # is simulated again and rewritten without it
        model = load_or_build_null_model(0.7, 1, 5000, 10, str(tmp_path))
        path = tmp_path / nullsim._cache_name(0.7, 1, 5000, 10)
        good = path.read_text()
        lines = good.splitlines(keepends=True)
        tail = model.tail
        values = (tail.threshold, tail.shape, tail.scale, tail.se_shape, tail.se_scale)
        tail_line = "tail\t" + "\t".join(map(float.hex, values)) + f"\t{tail.n_exceedances}\n"
        path.write_text("".join(lines[:2] + [tail_line] + lines[2:]))
        calls = []
        monkeypatch.setattr(nullsim, "simulate_null",
                            lambda *a, _sim=simulate_null: calls.append(a) or _sim(*a))
        again = load_or_build_null_model(0.7, 1, 5000, 10, str(tmp_path))
        assert calls == [(0.7, 1, 5000, 10, 1)]
        np.testing.assert_array_equal(again.sample, model.sample)
        assert again.tail == model.tail
        assert path.read_text() == good
        assert _cache_files(tmp_path) == [path.name]

    def test_sample_from_older_solver_is_not_loaded(self, tmp_path):
        # a file under the key scheme that had no solver tag
        stale = tmp_path / "null_l0.7000000_d1_M2000_s10.tsv"
        stale.write_text(
            "lambda1\tdepth\tM\tseed\n0.7000000\t1\t2000\t10\nlambda_hat\n"
            + "5.0\n" * 2000
        )
        model = load_or_build_null_model(0.7, 1, 2000, 10, str(tmp_path))
        np.testing.assert_array_equal(model.sample, simulate_null(0.7, 1, 2000, 10))
        fresh = [f for f in tmp_path.glob("null_*.tsv") if f != stale]
        assert len(fresh) == 1
        assert screening.SOLVER_VERSION in fresh[0].name
        header = fresh[0].read_text().splitlines()[:2]
        assert header[0].split("\t")[-1] == "solver"
        assert header[1].split("\t")[-1] == screening.SOLVER_VERSION

    def test_sample_from_chisquare_draws_is_not_loaded(self, tmp_path):
        # the key before it named the draw scheme, when Q came from
        # rng.chisquare: neither that file nor its header under today's name
        # is read
        lam = float.hex(0.7)
        tags = f"{nullsim.SIM_CHUNK}\t{screening.SOLVER_VERSION}"
        stale = (f"lambda1\tdepth\tM\tseed\tchunk\tsolver\n{lam}\t1\t2000\t10\t{tags}\n"
                 "lambda_hat\n" + "5.0\n" * 2000)
        old_name = f"null_l{lam}_d1_M2000_s10_c{nullsim.SIM_CHUNK}_{screening.SOLVER_VERSION}.tsv"
        (tmp_path / old_name).write_text(stale)
        path = tmp_path / nullsim._cache_name(0.7, 1, 2000, 10)
        path.write_text(stale)
        model = load_or_build_null_model(0.7, 1, 2000, 10, str(tmp_path))
        np.testing.assert_array_equal(model.sample, simulate_null(0.7, 1, 2000, 10))
        assert path.name != old_name and nullsim.SIM_DRAWS in path.name
        names, values = path.read_text().splitlines()[:2]
        assert names.split("\t")[-2:] == ["draws", "solver"]
        assert values.split("\t")[-2:] == [nullsim.SIM_DRAWS, screening.SOLVER_VERSION]
        assert (tmp_path / old_name).read_text() == stale

    def test_key_holds_the_chunk_size(self, tmp_path, monkeypatch):
        # the chunk size decides which RNG stream draws which replicate, so a
        # sample cached at another chunk size is another sample
        default = load_or_build_null_model(0.7, 1, 2000, 10, str(tmp_path))
        monkeypatch.setattr(nullsim, "SIM_CHUNK", 1024)
        rechunked = load_or_build_null_model(0.7, 1, 2000, 10, str(tmp_path))
        assert not np.array_equal(rechunked.sample, default.sample)
        np.testing.assert_array_equal(rechunked.sample, simulate_null(0.7, 1, 2000, 10))
        assert len(_cache_files(tmp_path)) == 2
        path = tmp_path / nullsim._cache_name(0.7, 1, 2000, 10)
        names, values = path.read_text().splitlines()[:2]
        assert dict(zip(names.split("\t"), values.split("\t")))["chunk"] == "1024"

    def test_key_holds_the_exact_lambda1(self, tmp_path):
        # equal to 7 digits, so a key that rounds lambda1 would serve the
        # first sample to the second call
        first = load_or_build_null_model(0.9836066, 3, 5000, 1, str(tmp_path))
        second = load_or_build_null_model(0.98360661, 3, 5000, 1, str(tmp_path))
        assert len(list(tmp_path.glob("null_*.tsv"))) == 2
        np.testing.assert_array_equal(first.sample, simulate_null(0.9836066, 3, 5000, 1))
        np.testing.assert_array_equal(second.sample, simulate_null(0.98360661, 3, 5000, 1))
        path = tmp_path / nullsim._cache_name(0.98360661, 3, 5000, 1)
        assert path.read_text().splitlines()[1].split("\t")[0] == float.hex(0.98360661)
