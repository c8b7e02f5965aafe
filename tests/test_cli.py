"""CLI subcommands end to end, exit codes and determinism."""

import errno
import gc
import mmap
import os
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from wavescreen import bayes, dataio, nullsim, screening, simharness, wavelet
from wavescreen.cli import build_parser, main

from conftest import write_cohort_files

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def cohort_files(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli")
    cohort = simharness.generate_genotypes(
        n=150, n_snps=300, n_blocks=6, flip_prob=0.1, span_bp=60_000, seed=21
    )
    planted = simharness.plant_signal(cohort, 4, 0.15, "mono", seed=22)
    phenotype = simharness.simulate_phenotype(cohort, planted, seed=23)
    geno, pheno, _ = write_cohort_files(tmp_path, cohort, phenotype)
    return geno, pheno


# the fixture's 20 kb windows at 50% overlap end 49 SNPs short of its last one
UNSCREENED = ("warning: chromosome 1: SNPs past its last window end 50147 are not screened: "
              "49 of 300 kept")


@pytest.fixture(scope="module")
def genome_files(tmp_path_factory):
    """Three chromosomes at the default 1 Mb windows: chromosome 1 spans 900 kb,
    so it gets no window; 2 and 3 span 1.2 Mb, so 41 SNPs lie past their one
    window's end."""
    tmp_path = tmp_path_factory.mktemp("genome")
    rng = np.random.default_rng(5)
    n = 60
    geno = tmp_path / "geno.tsv"
    with open(geno, "w", encoding="utf-8") as fh:
        for chrom, span in (("1", 900_000), ("2", 1_200_000), ("3", 1_200_000)):
            for pos in range(0, span + 1, 5000):
                row = "\t".join(map(str, rng.binomial(2, rng.uniform(0.1, 0.9), n)))
                fh.write(f"{chrom}\t{pos}\t{chrom}_{pos}\t1.0\t{row}\n")
    pheno = tmp_path / "pheno.tsv"
    np.savetxt(pheno, rng.standard_normal(n))
    return str(geno), str(pheno)


def _screen_args(geno, pheno, out_dir, **extra):
    args = [
        "screen",
        "--genotype-path", geno,
        "--phenotype-path", pheno,
        "--window-bp", "20000",
        "--overlap", "0.5",
        "--max-gap-bp", "5000",
        "--min-snps-per-coeff", "8",
        "--m", "3000",
        "--seed", "5",
        "--output-dir", out_dir,
    ]
    for key, value in extra.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


def _set_cache_env(monkeypatch, tmp_path, cached):
    """Screen with a shared dosage cache under ``tmp_path``, or with none."""
    if cached:
        monkeypatch.setenv("WAVESCREEN_CACHE_DIR", str(tmp_path / "cache"))
    else:
        monkeypatch.delenv("WAVESCREEN_CACHE_DIR", raising=False)


class TestScreenCommand:
    def test_runs_and_writes_outputs(self, cohort_files, tmp_path):
        geno, pheno = cohort_files
        out = tmp_path / "run"
        rc = main(_screen_args(geno, pheno, str(out), emit_details=None)[:-2]
                  + ["--emit-details"])
        assert rc == 0
        results = (out / "results.tsv").read_text().splitlines()
        header = results[0].split("\t")
        assert header[:7] == ["chrom", "start", "end", "kind", "n_snps", "depth",
                              "lambda_hat"]
        assert header[-1] == "p_value"
        assert len(results) > 1
        for line in results[1:]:
            fields = line.split("\t")
            assert fields[3] in ("c", "d")
            assert float(fields[6]) >= 1.0
        summary = (out / "summary.txt").read_text()
        assert "lambda1" in summary and "significant" in summary
        details = sorted(out.glob("detail_*.tsv"))
        assert details
        # each detail row's posterior_gamma is pi BF / (pi BF + 1 - pi) with
        # the pi of its window, kind and scale in results.tsv
        pi_hat = {tuple(f[:4]): f[7:-1] for f in map(str.split, results[1:])}
        for path in details:
            key = tuple(path.stem.split("_")[1:])
            rows = [line.split("\t") for line in path.read_text().splitlines()[1:]]
            assert rows
            for s, _, bf, gamma in rows:
                pi, bf = float(pi_hat[key][int(s)]), float(bf)
                assert float(gamma) == pytest.approx(pi * bf / (pi * bf + 1 - pi), rel=1e-8)

    def test_phenotype_units_do_not_change_the_screen(self, cohort_files, tmp_path):
        # sigma_b is in SDs of the residual phenotype, so a rescaled, negated
        # or shifted phenotype file gives the same lambda1, hits and results
        geno, pheno = cohort_files
        y = np.loadtxt(pheno)
        runs = []
        for name, values in (("x1", None), ("x1000", 1000.0 * y), ("x0.01", 0.01 * y),
                             ("affine", -3.0 * y + 5.0)):
            path = pheno
            if values is not None:
                path = str(tmp_path / f"{name}.tsv")
                np.savetxt(path, values, fmt="%.17g")
            out = tmp_path / name
            assert main(_screen_args(geno, path, str(out), significance_threshold=0.001)) == 0
            summary = [line.split("\t") for line in (out / "summary.txt").read_text().splitlines()]
            rows = [line.split("\t") for line in (out / "results.tsv").read_text().splitlines()]
            runs.append((
                [f for f in summary if f[0] == "lambda1"],
                [f[:3] for f in summary if f[0] == "hit"],
                [f[:6] for f in rows],
                np.array([[np.nan if v == "NA" else float(v) for v in f[6:]] for f in rows[1:]]),
            ))
        lam1, hits, keys, values = runs[0]
        assert hits == [["hit", "1:147-20147", "c"]]  # the one window that passes 0.001
        for got in runs[1:]:
            assert got[:3] == (lam1, hits, keys)
            np.testing.assert_allclose(got[3], values, rtol=1e-9, atol=0.0)

    def test_thread_count_does_not_change_output(self, cohort_files, tmp_path):
        geno, pheno = cohort_files
        outs = []
        for threads, name in ((1, "t1"), (4, "t4")):
            out = tmp_path / name
            rc = main(_screen_args(geno, pheno, str(out), threads=threads))
            assert rc == 0
            outs.append((out / "results.tsv").read_bytes())
        assert outs[0] == outs[1]

    def test_thread_count_does_not_change_genome_outputs(self, genome_files, tmp_path):
        # the dosages of three chromosomes are parsed in one range or several
        geno, pheno = genome_files
        outs = []
        for threads in (1, 2, 3):
            out = tmp_path / f"t{threads}"
            assert main(["screen", "--genotype-path", geno, "--phenotype-path", pheno,
                         "--m", "4000", "--seed", "3", "--threads", str(threads),
                         "--emit-details", "--output-dir", str(out)]) == 0
            outs.append({p.name: p.read_bytes() for p in out.glob("*.*")})
        assert len(outs[0]) == 2 + 2 * 2  # results, summary, two windows' details
        assert outs[0] == outs[1] == outs[2]

    def test_unscreened_snps_are_reported(self, genome_files, tmp_path, capsys):
        geno, pheno = genome_files
        assert main(["screen", "--genotype-path", geno, "--phenotype-path", pheno,
                     "--m", "4000", "--seed", "3", "--output-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: chromosome 1 has no window: none of its 181 kept SNPs is screened",
            "warning: chromosome 2: SNPs past its last window end 1000000 are not screened: "
            "41 of 241 kept",
            "warning: chromosome 3: SNPs past its last window end 1000000 are not screened: "
            "41 of 241 kept",
        ]
        rows = (tmp_path / "results.tsv").read_text().splitlines()[1:]
        assert sorted({r.split("\t")[0] for r in rows}) == ["2", "3"]

    def test_single_kind_rows_match_both(self, cohort_files, tmp_path, monkeypatch):
        geno, pheno = cohort_files
        monkeypatch.setenv("WAVESCREEN_CACHE_DIR", str(tmp_path / "cache"))
        rows = {}
        for kind in ("both", "c", "d"):
            out = tmp_path / kind
            assert main(_screen_args(geno, pheno, str(out), coefficient_kind=kind)) == 0
            rows[kind] = (out / "results.tsv").read_bytes().splitlines()
        assert len(rows["both"]) > 3
        for kind in ("c", "d"):
            assert rows[kind][0] == rows["both"][0]
            assert rows[kind][1:] == [
                r for r in rows["both"][1:] if r.split(b"\t")[3] == kind.encode()
            ]

    def test_p_value_error_names_the_window(self, cohort_files, tmp_path, monkeypatch,
                                            capsys):
        geno, pheno = cohort_files

        def failing_p_value(model, lambda_hat):
            raise ValueError("tail fit unusable")

        monkeypatch.setattr(nullsim, "p_value", failing_p_value)
        rc = main(_screen_args(geno, pheno, str(tmp_path / "run"), coefficient_kind="d"))
        assert rc == 1
        err = capsys.readouterr().err
        assert re.search(r"window 1:\d+-\d+ \(d\): tail fit unusable", err), err

    def test_failed_tail_fit_is_reported(self, cohort_files, tmp_path, monkeypatch, capsys):
        geno, pheno = cohort_files

        def failing_fit(sample):
            raise nullsim.GPDFitError("no tail")

        monkeypatch.setattr(nullsim, "fit_gpd_tail", failing_fit)
        out = tmp_path / "run"
        assert main(_screen_args(geno, pheno, str(out))) == 0
        depths = {line.split("\t")[5]
                  for line in (out / "results.tsv").read_text().splitlines()[1:]}
        warnings = capsys.readouterr().err.splitlines()
        assert warnings[0] == UNSCREENED
        warnings = warnings[1:]
        # M = 3000: the floor 1/3001 is above the default threshold
        assert sorted(warnings) == [
            f"warning: GPD tail fit failed at depth {d} (no tail): its p-values are empirical, "
            "at least 1/(M+1) = 0.000333222, above the significance threshold 8.33333e-06, "
            "so no window of this depth can pass it"
            for d in sorted(depths)
        ]
        assert main(_screen_args(geno, pheno, str(out), significance_threshold=0.01)) == 0
        warnings = capsys.readouterr().err.splitlines()[1:]
        assert len(warnings) == len(depths)
        assert all(w.endswith("at least 1/(M+1) = 0.000333222") for w in warnings)

    def test_fitted_tail_prints_no_warning(self, cohort_files, tmp_path, capsys):
        # no tail warning: the one stderr line is about the unscreened SNPs
        geno, pheno = cohort_files
        assert main(_screen_args(geno, pheno, str(tmp_path / "run"))) == 0
        assert capsys.readouterr().err == UNSCREENED + "\n"

    def test_two_column_phenotype_exits_1(self, cohort_files, tmp_path, capsys):
        # the fixture's 150 phenotype values as 75 rows of 2 columns were once
        # screened as one phenotype in the wrong order
        geno, pheno = cohort_files
        two = tmp_path / "pheno_2col.tsv"
        np.savetxt(two, np.loadtxt(pheno).reshape(75, 2))
        out = tmp_path / "run"
        assert main(_screen_args(geno, str(two), str(out))) == 1
        assert capsys.readouterr().err == (
            f"error: phenotype file {two} has 2 columns, expected 1\n"
        )
        assert not (out / "results.tsv").exists()

    def test_constant_phenotype_exits_1(self, cohort_files, tmp_path, capsys):
        # the design rejects it, once the inputs are loaded and tiled
        geno, _ = cohort_files
        constant = tmp_path / "constant.tsv"
        np.savetxt(constant, np.full(150, 1.5))
        out = tmp_path / "run"
        assert main(_screen_args(geno, str(constant), str(out))) == 1
        assert capsys.readouterr().err == UNSCREENED + "\nerror: phenotype has zero variance\n"
        assert not (out / "results.tsv").exists()

    def test_phenotype_of_tiny_values_is_screened(self, cohort_files, tmp_path, capsys):
        # its variance underflows to 0, but the design scales each column by
        # a power of two before its check; the loader once rejected it
        geno, pheno = cohort_files
        tiny = tmp_path / "tiny.tsv"
        np.savetxt(tiny, np.loadtxt(pheno) * 1e-300)
        assert np.var(np.loadtxt(tiny)) == 0.0
        rows = {}
        for name, path in (("plain", pheno), ("tiny", str(tiny))):
            out = tmp_path / name
            assert main(_screen_args(geno, path, str(out))) == 0
            assert capsys.readouterr().err == UNSCREENED + "\n"
            rows[name] = [line.split("\t") for line in
                          (out / "results.tsv").read_text().splitlines()]
        assert [r[:6] for r in rows["tiny"]] == [r[:6] for r in rows["plain"]]
        np.testing.assert_allclose(np.array([r[6:] for r in rows["tiny"][1:]], dtype=float),
                                   np.array([r[6:] for r in rows["plain"][1:]], dtype=float),
                                   rtol=1e-9)

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_is_a_usage_error(self, tmp_path, capsys, threads):
        # argparse rejects it, before any input file is looked at
        with pytest.raises(SystemExit) as exit_info:
            main(["screen", "--genotype-path", "g.tsv", "--phenotype-path", "p.tsv",
                  "--seed", "1", "--threads", threads, "--output-dir", str(tmp_path)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --threads: must be at least 1, got {threads}" in err
        assert "Traceback" not in err

    def test_missing_genotype_file_exits_2(self, cohort_files, tmp_path, capsys):
        _, pheno = cohort_files
        rc = main(_screen_args("/does/not/exist.tsv", pheno, str(tmp_path / "x")))
        assert rc == 2
        assert "no such file" in capsys.readouterr().err

    # with a dosage cache, the genotype file is first opened to hash it
    @pytest.mark.parametrize("cached", [False, True], ids=["no_cache", "cache"])
    def test_genotype_directory_exits_2(self, cohort_files, tmp_path, monkeypatch, capsys,
                                        cached):
        _, pheno = cohort_files
        _set_cache_env(monkeypatch, tmp_path, cached)
        rc = main(_screen_args(str(tmp_path), pheno, str(tmp_path / "x")))
        assert rc == 2
        assert capsys.readouterr().err == f"error: is a directory: {tmp_path}\n"

    @pytest.mark.parametrize("cached", [False, True], ids=["no_cache", "cache"])
    def test_genotype_fifo_exits_2_at_once(self, cohort_files, tmp_path, monkeypatch, capsys,
                                           cached):
        # opening a FIFO to read it waits for a writer; the loader neither
        # waits nor reads, and names the path
        _, pheno = cohort_files
        _set_cache_env(monkeypatch, tmp_path, cached)
        fifo = tmp_path / "geno.fifo"
        os.mkfifo(fifo)

        def blocked(*_):
            raise AssertionError("the loader blocked on the FIFO")

        previous = signal.signal(signal.SIGALRM, blocked)
        signal.alarm(10)
        try:
            rc = main(_screen_args(str(fifo), pheno, str(tmp_path / "x")))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert rc == 2
        assert capsys.readouterr().err == f"error: not a regular file: {fifo}\n"

    def test_output_dir_under_a_file_exits_2(self, cohort_files, tmp_path, capsys):
        geno, pheno = cohort_files
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
        rc = main(_screen_args(geno, pheno, str(out)))
        assert rc == 2
        assert capsys.readouterr().err == f"error: not a directory: {out}\n"

    def test_output_dir_is_made_before_the_genotypes_are_read(self, cohort_files, tmp_path,
                                                              capsys):
        # a malformed genotype file would fail the load; the output directory
        # is checked first
        _, pheno = cohort_files
        geno = tmp_path / "geno.tsv"
        geno.write_text("1\t100\ta\t1.0\t1\t2\n1\tinf\tb\t1.0\t2\t0\n")
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
        rc = main(_screen_args(str(geno), pheno, str(out)))
        assert rc == 2
        assert capsys.readouterr().err == f"error: not a directory: {out}\n"

    def test_infinite_position_exits_1(self, tmp_path, capsys):
        geno = tmp_path / "geno.tsv"
        geno.write_text("1\t100\ta\t1.0\t1\t2\n1\tinf\tb\t1.0\t2\t0\n")
        pheno = tmp_path / "pheno.tsv"
        pheno.write_text("0.0\n1.0\n")
        rc = main(_screen_args(str(geno), str(pheno), str(tmp_path / "x")))
        assert rc == 1
        err = capsys.readouterr().err
        assert "line 2: position 'inf'" in err
        assert "Traceback" not in err

    def test_cache_env_is_honored(self, cohort_files, tmp_path, monkeypatch):
        geno, pheno = cohort_files
        cache = tmp_path / "cache"
        monkeypatch.setenv("WAVESCREEN_CACHE_DIR", str(cache))
        rc = main(_screen_args(geno, pheno, str(tmp_path / "run")))
        assert rc == 0
        assert list(cache.glob("null_*.tsv"))

    def test_unwritable_cache_costs_warnings(self, cohort_files, tmp_path, monkeypatch, capsys):
        # a cache path that is a regular file can hold neither the parsed
        # dosages nor a null sample: the screen says so once, runs with no
        # cache, and writes what a screen with a working cache writes
        geno, pheno = cohort_files
        (tmp_path / "file").write_text("")
        results, errs = [], []
        for name in ("cache", "file"):
            monkeypatch.setenv("WAVESCREEN_CACHE_DIR", str(tmp_path / name))
            assert main(_screen_args(geno, pheno, str(tmp_path / f"run_{name}"))) == 0
            results.append((tmp_path / f"run_{name}" / "results.tsv").read_bytes())
            errs.append(capsys.readouterr().err.splitlines())
        assert results[0] == results[1]
        assert errs[1] == [f"warning: cache {tmp_path / 'file'} not used: not a directory",
                           *errs[0]]
        assert (tmp_path / "file").read_text() == ""

    @pytest.mark.parametrize("command", ["screen", "nullsim", "power"])
    def test_cache_that_cannot_be_made_says_why_once(self, cohort_files, tmp_path,
                                                     monkeypatch, capsys, command):
        # a cache path under a regular file cannot be made either; the OS
        # reason is named, and each command runs without the cache
        geno, pheno = cohort_files
        (tmp_path / "file").write_text("")
        cache = tmp_path / "file" / "cache"
        monkeypatch.setenv("WAVESCREEN_CACHE_DIR", str(cache))
        cfg = tmp_path / "power.cfg"
        cfg.write_text("n = 300\nn_snps = 64\nn_blocks = 4\nreplicates = 2\n"
                       "heritability = 0.1\nmax_components = 4\nnull_m = 2000\n"
                       "min_snps_per_coeff = 8\n")
        argv = {"screen": _screen_args(geno, pheno, str(tmp_path / "out")),
                "nullsim": ["nullsim", "--lambda1", "0.9", "--depth", "2", "--m", "4000",
                            "--seed", "1", "--output-dir", str(tmp_path / "out")],
                "power": ["power", "--config", str(cfg), "--output-dir", str(tmp_path / "out")]}
        assert main(argv[command]) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if "cache" in line]
        assert warnings == [f"warning: cache {cache} not used: not a directory"]
        assert (tmp_path / "file").read_text() == ""

    def test_failed_sync_leaves_no_temporary_file(self, cohort_files, tmp_path, monkeypatch,
                                                  capsys):
        # a write that fails at the sync costs each cache one warning, per
        # file it could not write, and leaves nothing behind in it
        geno, pheno = cohort_files
        cache = tmp_path / "cache"
        monkeypatch.setenv("WAVESCREEN_CACHE_DIR", str(cache))

        def failing_fsync(fd):
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        monkeypatch.setattr(os, "fsync", failing_fsync)
        assert main(_screen_args(geno, pheno, str(tmp_path / "run"))) == 0
        err = capsys.readouterr().err.splitlines()
        failed = f"not cached: [Errno {errno.EIO}] {os.strerror(errno.EIO)}"
        depths = {line.split("\t")[5] for line in
                  (tmp_path / "run" / "results.tsv").read_text().splitlines()[1:]}
        assert err.count(f"warning: parsed dosages {failed}") == 1
        assert err.count(f"warning: null sample {failed}") == len(depths) == 1
        assert list(cache.iterdir()) == []

    @pytest.mark.parametrize("threads", [1, 3])
    def test_warm_screen_repeats_the_cold_one(self, genome_files, tmp_path, monkeypatch,
                                              capsys, threads):
        # the second screen maps the first one's parsed dosages: same files,
        # same stderr, and no dosage parse
        geno, pheno = genome_files
        monkeypatch.setenv("WAVESCREEN_CACHE_DIR", str(tmp_path / "cache"))
        runs = []
        for name in ("cold", "warm"):
            out = tmp_path / name
            assert main(["screen", "--genotype-path", geno, "--phenotype-path", pheno,
                         "--m", "4000", "--seed", "3", "--threads", str(threads),
                         "--emit-details", "--output-dir", str(out)]) == 0
            captured = capsys.readouterr()
            runs.append(({p.name: p.read_bytes() for p in out.glob("*.*")}, captured.err,
                         captured.out.replace(str(out), "<out>")))
            monkeypatch.setattr(dataio, "_read_dosages", None)  # a warm run cannot call it
        assert len(runs[0][0]) == 2 + 2 * 2  # results, summary, two windows' details
        assert runs[0] == runs[1]
        assert len(list((tmp_path / "cache").glob("dosages_*"))) == 1

    @pytest.mark.parametrize("threads", [1, 2])
    def test_dosages_past_4_decimals_screen_as_their_codes(self, genome_files, tmp_path,
                                                             monkeypatch, capsys, threads):
        # a file of 6-decimal dosages screens as its copy that spells each
        # dosage's code with 4 decimals, and warns once, cold and warm
        geno, pheno = genome_files
        rng = np.random.default_rng(9)
        texts = {"four": [], "six": []}
        rounded = first = 0
        with open(geno, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, 1):
                fields = line.split()
                values = np.array(fields[4:], dtype=float) + rng.uniform(-0.3, 0.3, 60)
                six = [f"{v:.6f}" for v in np.clip(values, 0.0, 2.0)]
                codes = [round(float(t) * 1e4) for t in six]
                inexact = sum(c / 1e4 != float(t) for c, t in zip(codes, six))
                first = first or (line_no if inexact else 0)
                rounded += inexact
                texts["six"].append("\t".join(fields[:4] + six))
                texts["four"].append("\t".join(fields[:4] + [f"{c // 10**4}.{c % 10**4:04d}"
                                                             for c in codes]))
        assert 0 < first < 5 and rounded > 10_000
        monkeypatch.setenv("WAVESCREEN_CACHE_DIR", str(tmp_path / "cache"))
        runs = {}
        for name, lines in texts.items():
            path = tmp_path / f"{name}.tsv"
            path.write_text("\n".join(lines) + "\n")
            for run in ("cold", "warm"):
                out = tmp_path / name / run
                assert main(["screen", "--genotype-path", str(path), "--phenotype-path", pheno,
                             "--m", "4000", "--seed", "3", "--threads", str(threads),
                             "--emit-details", "--output-dir", str(out)]) == 0
                runs[name, run] = ({p.name: p.read_bytes() for p in out.glob("*.*")},
                                   capsys.readouterr().err)
        assert len(list((tmp_path / "cache").glob("dosages_*"))) == 2
        files, err = runs["four", "cold"]
        assert len(files) == 2 + 2 * 2  # results, summary, two windows' details
        assert "rounded" not in err
        warning = (f"warning: rounded {rounded} of the kept dosages to 4 decimals, the first "
                   f"on line {first}\n")
        assert runs["four", "warm"] == runs["four", "cold"]
        assert runs["six", "cold"] == runs["six", "warm"] == (files, warning + err)

    def test_no_shared_cache_writes_no_dosage_entry(self, cohort_files, tmp_path, monkeypatch):
        # without WAVESCREEN_CACHE_DIR each run has its own cache, which no
        # later screen of another output directory finds: no entry is written
        geno, pheno = cohort_files
        monkeypatch.delenv("WAVESCREEN_CACHE_DIR", raising=False)
        monkeypatch.setattr(dataio, "_save_entry", None)  # calling it fails the run
        out = tmp_path / "run"
        assert main(_screen_args(geno, pheno, str(out))) == 0
        assert list((out / "null-cache").glob("null_*.tsv"))
        assert not list(tmp_path.rglob("dosages_*"))

    def test_sigma_b_that_rounds_lambda1_to_1_exits_1(self, cohort_files, tmp_path, capsys):
        # sigma_b^2 n passes 2^53, so lambda1 = s / (1 + s) is exactly 1
        geno, pheno = cohort_files
        out = tmp_path / "run"
        assert main(_screen_args(geno, pheno, str(out), sigma_b="1e8")) == 1
        err = capsys.readouterr().err.splitlines()
        assert re.fullmatch(
            r"error: sigma_b = 1e\+08 and n = 150 give sigma_b\^2 n = 1\.5e\+18, so "
            r"lambda1 = sigma_b\^2 n / \(1 \+ sigma_b\^2 n\) rounds to 1; it must lie "
            r"below 1", err[-1])
        assert not (out / "results.tsv").exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("command", [
    ["screen", "--genotype-path", "g.tsv", "--phenotype-path", "p.tsv"],
    ["nullsim", "--lambda1", "0.9", "--depth", "2"],
    ["power"],
], ids=["screen", "nullsim", "power"])
def test_seed_outside_64_bits_is_a_usage_error(tmp_path, capsys, command, seed):
    with pytest.raises(SystemExit) as exit_info:
        main([*command, "--seed", seed, "--output-dir", str(tmp_path / "o")])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --seed: must lie in [0, 2^64), got {seed}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, option, value, message", [
    ("screen", "--m", "0", "must be at least 1, got 0"),
    ("screen", "--window-bp", "0", "must be at least 1, got 0"),
    ("screen", "--overlap", "1", "must lie in [0, 1), got 1"),
    ("screen", "--max-gap-bp", "0", "must be at least 1, got 0"),
    ("screen", "--min-snps-per-coeff", "0", "must be positive and finite, got 0"),
    ("screen", "--sigma-b", "0", "must be positive and finite, got 0"),
    # sigma_b^2 overflows, or sigma_b^-2 does, or sigma_b^2 underflows to 0
    *[("screen", "--sigma-b", value,
       f"must have a finite, nonzero square and inverse square, got {value}")
      for value in ("1e155", "1e200", "1e-160", "1e-200")],
    ("screen", "--depth-cap", "-1", "must be at least 0, got -1"),
    ("screen", "--significance-threshold", "-1", "must lie in (0, 1], got -1"),
    ("screen", "--significance-threshold", "1.5", "must lie in (0, 1], got 1.5"),
    ("nullsim", "--m", "0", "must be at least 1, got 0"),
    ("nullsim", "--lambda1", "1.5", "must lie in (0, 1), got 1.5"),
    ("nullsim", "--lambda1", "0", "must lie in (0, 1), got 0"),
    ("nullsim", "--depth", "-2", "must be at least 0, got -2"),
], ids=lambda v: v if isinstance(v, str) and v.startswith("-") and len(v) > 2 else None)
def test_bad_numeric_option_is_a_usage_error(tmp_path, capsys, command, option, value, message):
    # argparse rejects it: no input file is looked at and no output is made
    required = {
        "screen": ["--genotype-path", "g.tsv", "--phenotype-path", "p.tsv"],
        "nullsim": ["--lambda1", "0.9", "--depth", "2"],
    }[command]
    with pytest.raises(SystemExit) as exit_info:
        main([command, *required, option, value, "--seed", "1",
              "--output-dir", str(tmp_path / "o")])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: {message}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_numeric_options_accept_their_bounds():
    args = build_parser().parse_args([
        "screen", "--genotype-path", "g.tsv", "--phenotype-path", "p.tsv", "--seed", "1",
        "--output-dir", "o", "--overlap", "0", "--depth-cap", "0",
        "--significance-threshold", "1", "--window-bp", "1", "--sigma-b", "1e-3",
    ])
    assert (args.overlap, args.depth_cap, args.significance_threshold) == (0.0, 0, 1.0)
    assert (args.window_bp, args.sigma_b) == (1, 1e-3)
    args = build_parser().parse_args([
        "screen", "--genotype-path", "g.tsv", "--phenotype-path", "p.tsv", "--seed", "1",
        "--output-dir", "o", "--sigma-b", "1e3",
    ])
    assert args.sigma_b == 1e3


def test_a_command_leaves_no_cyclic_garbage(capsys):
    # the parser, a cycle of objects, is built once per process, so no full
    # collection is due to one left by every command
    main(["fisher", "0.5"])
    gc.collect()
    gc.disable()
    try:
        main(["fisher", "0.5"])
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert capsys.readouterr().out == "0.5\n0.5\n"


class TestNullsimCommand:
    def test_prints_tail_fit(self, tmp_path, capsys):
        rc = main([
            "nullsim", "--lambda1", "0.9", "--depth", "2", "--m", "20000",
            "--seed", "3", "--output-dir", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "threshold u" in out and "shape xi" in out and "scale beta" in out

    def test_writes_the_file_screen_writes(self, cohort_files, tmp_path, monkeypatch):
        # nullsim simulates on every usable CPU and screen --threads 1 on one
        # thread; a key's file is the same byte for byte
        geno, pheno = cohort_files
        monkeypatch.delenv("WAVESCREEN_CACHE_DIR", raising=False)
        monkeypatch.setattr(dataio, "_usable_cpus", lambda: 2)
        args = _screen_args(geno, pheno, str(tmp_path / "screen"), threads=1)
        args[args.index("--m") + 1] = str(2 * nullsim.SIM_CHUNK + 1)  # three chunks
        assert main(args) == 0
        files = sorted((tmp_path / "screen" / "null-cache").glob("null_*.tsv"))
        assert files
        for path in files:
            key = dict(zip(*(line.split("\t") for line in path.read_text().splitlines()[:2])))
            out = tmp_path / f"nullsim_d{key['depth']}"
            assert main(["nullsim", "--lambda1", repr(float.fromhex(key["lambda1"])),
                         "--depth", key["depth"], "--m", key["M"], "--seed", key["seed"],
                         "--output-dir", str(out)]) == 0
            assert (out / "null-cache" / path.name).read_bytes() == path.read_bytes()

    def test_failed_tail_fit_says_why(self, tmp_path, capsys):
        # 20 draws leave one above their 99% quantile, and the fit needs 30
        rc = main([
            "nullsim", "--lambda1", "0.9", "--depth", "2", "--m", "20",
            "--seed", "3", "--output-dir", str(tmp_path),
        ])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"warning: GPD tail fit failed at depth 2 \(only 1 exceedances "
                            r"above u=\S+; need 30\): its p-values are empirical, at least "
                            r"1/\(M\+1\) = 0\.047619\n", captured.err), captured.err


@pytest.mark.parametrize("exc, message", [
    (OSError(errno.ENOMEM, os.strerror(errno.ENOMEM)), "cannot allocate memory"),
    (OSError("boom"), "boom"),
], ids=["no_file", "no_strerror"])
def test_os_error_names_a_file_only_when_it_has_one(tmp_path, monkeypatch, capsys,
                                                    exc, message):
    # a failed allocation (mmap, or a pool that cannot start) names no file
    def failing(*args, **kwargs):
        raise exc

    monkeypatch.setattr(nullsim, "load_or_build_null_model", failing)
    rc = main(["nullsim", "--lambda1", "0.9", "--depth", "2", "--m", "20", "--seed", "3",
               "--output-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def _fingerprint(results):
    """Every field of each result, floats and arrays as their exact bits."""
    return [
        (r.window, r.coefficient_kind, r.degenerate, r.lambda_hat.hex(),
         None if r.p_value is None else r.p_value.hex(), r.pi_hat.tobytes(),
         [lb.tobytes() for lb in r.log_bf], [loc.tobytes() for loc in r.locations])
        for r in results
    ]


class TestScreenWindows:
    """``nullsim.screen_windows``, the window loop of ``screen`` and ``power``."""

    @pytest.fixture(scope="class")
    def genome(self, genome_files, tmp_path_factory):
        # 200 kb windows: several on each of the three chromosomes; M = 4000
        # draws leave 40 above the 99% quantile, enough for a tail fit. The
        # models are cached here, so that every screen reads them back
        cohort = dataio.load_cohort(*genome_files)
        windows = dataio.define_windows(cohort, window_bp=200_000, min_snps_per_coeff=4)
        ctx = bayes.build_design(cohort.phenotype)
        cache = str(tmp_path_factory.mktemp("null-cache"))
        tails = [nullsim.load_or_build_null_model(bayes.lambda1(ctx), d, 4000, 3, cache).tail
                 for d in {w.depth for w in windows}]

        def screen(windows, ctx, kinds, threads):
            return nullsim.screen_windows(windows, cohort.blocks, ctx, kinds, 4000, 3, cache,
                                          None, threads)
        return cohort, windows, ctx, tails, screen

    def test_thread_count_does_not_change_results(self, genome, monkeypatch):
        cohort, windows, ctx, tails, screen = genome
        assert len({w.chromosome for w in windows}) == 3
        assert None not in tails
        # three threads even on a host with fewer CPUs, switching every
        # microsecond, so that windows and their jobs interleave in many ways
        monkeypatch.setattr(dataio, "_usable_cpus", lambda: 3)
        y = np.column_stack([cohort.phenotype,
                             np.random.default_rng(4).standard_normal((cohort.n, 2))])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for design in (ctx, bayes.build_design(y)):
                runs = [_fingerprint(screen(windows, design, ("c", "d"), threads))
                        for threads in (1, 2, 3)]
                n_pheno = design.x_tilde.shape[1]
                assert len(runs[0]) == 2 * n_pheno * len(windows)
                assert [(r[0].chromosome, r[0].start_bp, r[1]) for r in runs[0]] == sorted(
                    (w.chromosome, w.start_bp, kind)
                    for w in windows for kind in "cd" for _ in range(n_pheno))
                assert all(r[4] is not None for r in runs[0])
                assert runs[0] == runs[1] == runs[2]
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def _transform_threads(monkeypatch):
        """The set of threads that run a rank transform; each transform first
        sleeps 5 ms, so that an idle worker has time to take a queued job."""
        threads = set()
        transform = wavelet.quantile_transform

        def held(rows, **kwargs):
            threads.add(threading.get_ident())
            time.sleep(0.005)
            return transform(rows, **kwargs)

        monkeypatch.setattr(wavelet, "quantile_transform", held)
        return threads

    def test_an_idle_worker_shares_a_window_jobs(self, genome, monkeypatch):
        _, windows, ctx, _, screen = genome
        largest = max(windows, key=lambda w: w.n_snps)
        alone = screen([largest], ctx, ("c", "d"), 1)
        monkeypatch.setattr(dataio, "_usable_cpus", lambda: 2)
        threads = self._transform_threads(monkeypatch)
        shared = screen([largest], ctx, ("c", "d"), 2)
        assert len(threads) == 2
        assert _fingerprint(shared) == _fingerprint(alone)

    def test_pool_has_at_most_one_thread_per_usable_cpu(self, genome, monkeypatch):
        _, windows, ctx, _, screen = genome
        assert len(windows) > 2
        monkeypatch.setattr(dataio, "_usable_cpus", lambda: 2)
        threads = self._transform_threads(monkeypatch)
        screen(windows, ctx, ("c", "d"), 8)
        assert len(threads) == 2

    @staticmethod
    def _fail_d_jobs(monkeypatch, cohort, windows):
        """Make the d jobs of the second largest window fail with "singular
        design"; returns that window and the list of kinds whose jobs of it
        reach ``log_bayes_factor``, in the order they do."""
        target = sorted(windows, key=lambda w: w.n_snps, reverse=True)[1]
        # every coefficient of the target window ranks the individuals in one
        # order, ascending for c and descending for d, so the scores that reach
        # log_bayes_factor name the job's window and kind
        order = {"c": np.arange(cohort.n, dtype=float), "d": -np.arange(cohort.n, dtype=float)}
        marks = {kind: wavelet.quantile_transform(row[None])[0] for kind, row in order.items()}
        window_spectra, log_bayes_factor = screening.window_spectra, screening.log_bayes_factor
        calls = []

        def marked(kind, rows):  # on a map of its own, as window_spectra's arrays are
            scale = dataio._mapped_rows(rows, cohort.n, np.dtype(float))
            scale[:] = order[kind]
            return scale

        def marked_spectra(w, block, kinds):
            spectra = window_spectra(w, block, kinds)
            if w != target:
                return spectra
            return {kind: ([marked(kind, len(deg)) for deg in degenerate],
                           [np.zeros(len(deg), dtype=bool) for deg in degenerate])
                    for kind, (_, degenerate) in spectra.items()}

        def failing_log_bf(ctx, y):
            kind = next((k for k, mark in marks.items() if np.array_equal(y[:, 0], mark)), None)
            if kind is not None:
                calls.append(kind)
            if kind == "d":
                raise ValueError("singular design")
            return log_bayes_factor(ctx, y)

        monkeypatch.setattr(screening, "window_spectra", marked_spectra)
        monkeypatch.setattr(screening, "log_bayes_factor", failing_log_bf)
        return target, calls

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failed_job_cancels_its_window_jobs(self, genome, monkeypatch, threads):
        cohort, windows, ctx, _, screen = genome
        target, calls = self._fail_d_jobs(monkeypatch, cohort, windows)
        with pytest.raises(RuntimeError, match=re.escape(
                f"window {target.chromosome}:{target.start_bp}-{target.end_bp} (d): "
                "singular design")):
            screen(windows, ctx, ("c", "d"), threads)
        ran = list(calls)
        time.sleep(0.05)
        assert calls == ran  # no job of the window runs after the screen returns
        assert "d" in ran
        if threads == 1:
            # the top scale's c job, then its d job, which fails; every other
            # job of the window was cancelled before a worker could start it
            assert ran == ["c", "d"]

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("fails", [False, True], ids=["ok", "failed_job"])
    def test_every_map_is_gone_when_the_screen_returns(self, genome, monkeypatch, request,
                                                        threads, fails):
        cohort, windows, ctx, _, screen = genome
        if fails:
            self._fail_d_jobs(monkeypatch, cohort, windows)
        refs, make = [], mmap.mmap
        gc.collect()
        gc.disable()  # a map that only the collector would free is not gone
        request.addfinalizer(gc.enable)

        def recorded(*args, **kwargs):
            made = make(*args, **kwargs)
            refs.append(weakref.ref(made))
            return made

        monkeypatch.setattr(mmap, "mmap", recorded)
        try:
            screen(windows, ctx, ("c", "d"), threads)
        except RuntimeError as exc:
            assert fails and str(exc).endswith("(d): singular design")
        else:
            assert not fails
        # a window's maps: its block sums, then each scale's sums (its c) and d
        made = sum(2 * w.depth + 3 for w in windows)
        assert 0 < len(refs) < made if fails else len(refs) == made
        assert [ref() for ref in refs if ref() is not None] == []

    def test_a_depth_9_window_keeps_its_arrays_off_the_heap(self, tmp_path):
        """Screening one depth-9 window at one thread keeps the tracemalloc peak
        below a third of the bytes of the window's c and d."""
        block = simharness.generate_genotypes(n=1000, n_snps=1024, n_blocks=16, seed=5)
        window = simharness.synthetic_window(block, min_snps_per_coeff=1)
        assert window.depth == 9
        ctx = bayes.build_design(np.random.default_rng(6).standard_normal(block.n))
        cache = str(tmp_path)
        # the null model is read back from the cache inside the traced screen
        nullsim.load_or_build_null_model(bayes.lambda1(ctx), 9, 4000, 3, cache)
        bound = sum(2 * (1 << s) * block.n * 8 for s in range(10)) // 3
        tracemalloc.start()
        try:
            [c, d] = nullsim.screen_windows([window], {window.chromosome: block}, ctx,
                                            ("c", "d"), 4000, 3, cache, None, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert c.p_value is not None and d.p_value is not None
        assert peak < bound, (peak, bound)

    def test_each_phenotype_of_a_batch_screens_as_its_own_design(self, genome):
        cohort, windows, _, _, screen = genome
        rng = np.random.default_rng(8)
        y = np.column_stack([cohort.phenotype, rng.standard_normal((cohort.n, 2))])
        batch = screen(windows, bayes.build_design(y), ("c", "d"), 2)
        assert len(batch) == 3 * 2 * len(windows)
        for p in range(3):
            alone = screen(windows, bayes.build_design(y[:, p]), ("c", "d"), 1)
            assert _fingerprint(batch[p::3]) == _fingerprint(alone)

    @pytest.mark.parametrize("module, attr, kinds, named", [
        (nullsim, "p_value", ("c", "d"), "c"),
        (screening, "window_spectra", ("d", "c"), "d"),  # before any screen: the first kind
    ], ids=["p_value", "window_spectra"])
    def test_error_names_the_window_and_kind(self, genome, monkeypatch, module, attr, kinds,
                                             named):
        _, windows, ctx, _, screen = genome

        def failing(*_):
            raise ValueError("tail fit unusable")

        monkeypatch.setattr(module, attr, failing)
        w = windows[0]
        with pytest.raises(RuntimeError, match=re.escape(
                f"window {w.chromosome}:{w.start_bp}-{w.end_bp} ({named}): tail fit unusable")):
            screen(windows, ctx, kinds, 2)


class TestPowerCommand:
    def test_tiny_run(self, tmp_path):
        cfg = tmp_path / "power.cfg"
        cfg.write_text(
            "n = 300\nn_snps = 64\nn_blocks = 4\nreplicates = 3\n"
            "heritability = 0.1\nmax_components = 4\nnull_m = 2000\n"
            "min_snps_per_coeff = 8\n"
        )
        out = tmp_path / "power"
        rc = main(["power", "--config", str(cfg), "--seed", "2",
                   "--output-dir", str(out)])
        assert rc == 0
        table = (out / "power.tsv").read_text().splitlines()
        assert table[0] == "method\tbin\tdetections\ttrials\tpower"
        detail = (out / "power_detail.tsv").read_text().splitlines()
        assert len(detail) == 4  # header + 3 replicates

    def test_null_with_no_tail_is_reported(self, tmp_path, capsys):
        # 500 draws leave 5 above their 99% quantile, and the fit needs 30:
        # the floor 1/501 is above alpha, so no replicate can be detected
        cfg = tmp_path / "power.cfg"
        cfg.write_text(
            "n = 300\nn_snps = 64\nn_blocks = 4\nreplicates = 2\n"
            "heritability = 0.1\nmax_components = 4\nnull_m = 500\n"
            "min_snps_per_coeff = 8\n"
        )
        assert main(["power", "--config", str(cfg), "--output-dir", str(tmp_path / "o")]) == 0
        err = capsys.readouterr().err
        assert re.fullmatch(r"warning: GPD tail fit failed at depth 3 \(only 5 exceedances "
                            r"above u=\S+; need 30\): its p-values are empirical, at least "
                            r"1/\(M\+1\) = 0\.00199601, above the significance threshold "
                            r"0\.0001, so no window of this depth can pass it\n", err), err

    @pytest.mark.parametrize("line, key", [
        ("replicates = 0", "replicates"),
        ("direction_mode = sideways", "direction_mode"),
        ("heritability = 1.5", "heritability"),
        ("max_components = 5", "max_components"),
        ("seed = 18446744073709551", "seed"),  # replicate seeds pass 2^64
        ("flip_prob = 1.5", "flip_prob"),
        ("flip_prob = -0.1", "flip_prob"),
        ("alpha = 2", "alpha"),
        ("alpha = 0", "alpha"),
        ("null_m = 0", "null_m"),
        ("n = 0", "n"),
        ("n_snps = 0", "n_snps"),
        ("n_blocks = 0", "n_blocks"),
        ("n_blocks = 65", "n_blocks"),
        ("min_snps_per_coeff = 0", "min_snps_per_coeff"),
        ("min_snps_per_coeff = -1", "min_snps_per_coeff"),
        ("min_snps_per_coeff = nan", "min_snps_per_coeff"),
        ("min_snps_per_coeff = 68", "min_snps_per_coeff"),  # no window of 64 SNPs
    ])
    def test_bad_config_value_exits_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                    line, key):
        monkeypatch.delenv("WAVESCREEN_CACHE_DIR", raising=False)
        cfg = tmp_path / "power.cfg"
        cfg.write_text(
            "n = 300\nn_snps = 64\nn_blocks = 4\nreplicates = 3\n"
            "heritability = 0.1\nmax_components = 4\nnull_m = 2000\n"
            f"min_snps_per_coeff = 8\n{line}\n"
        )
        out = tmp_path / "power"
        rc = main(["power", "--config", str(cfg), "--output-dir", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: power config {key} = ")
        assert not out.exists()

    def test_unknown_config_key_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 3\n")
        rc = main(["power", "--config", str(cfg), "--output-dir",
                   str(tmp_path / "o")])
        assert rc == 1
        assert "bogus" in capsys.readouterr().err

    def test_line_without_equals_names_line_and_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n = 300\nreplicates\n")
        rc = main(["power", "--config", str(cfg), "--output-dir", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: line 2: expected 'key = value', got 'replicates'\n"
        )

    def test_unconvertible_value_names_line_and_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# null sample\n\nnull_m = 1e5\n")
        rc = main(["power", "--config", str(cfg), "--output-dir", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == "error: line 3: null_m = '1e5' is not a valid int\n"


class TestPlotCommand:
    def test_renders_from_detail_file(self, tmp_path):
        detail = tmp_path / "detail.tsv"
        detail.write_text(
            "scale\tlocation\tbf\tposterior_gamma\n"
            "0\t0\t5.0\t1.0\n1\t0\t0.4\t0.1\n1\t1\t2.0\t0.7\n"
        )
        out = tmp_path / "plot.svg"
        rc = main(["plot", "--details", str(detail), "--start-bp", "0",
                   "--end-bp", "1000", "--out", str(out)])
        assert rc == 0
        assert out.read_text().startswith("<svg ")

    @pytest.mark.parametrize("row", [
        "1\t0\t0\t0.0",  # BF = 0
        "1\t0\t-2.5\t0.0",  # BF below 0
        "1\t0\tnan\t0.0",
        "1\t0\tinf\t1.0",
        "1\t2\t2.0\t0.7",  # location 2^scale
        "2\t9\t2.0\t0.7",
        "1\t-1\t2.0\t0.7",
        "-1\t0\t2.0\t0.7",  # negative scale
        "1\tx\t2.0\t0.7",
        "1\t0",
    ])
    def test_undrawable_row_names_its_line(self, tmp_path, capsys, row):
        detail = tmp_path / "detail.tsv"
        detail.write_text(f"scale\tlocation\tbf\tposterior_gamma\n0\t0\t5.0\t1.0\n\n{row}\n")
        out = tmp_path / "plot.svg"
        rc = main(["plot", "--details", str(detail), "--start-bp", "0",
                   "--end-bp", "1000", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: line 4: cannot draw {row!r}: ")
        assert not out.exists()

    def test_missing_detail_file_exits_2(self, tmp_path):
        rc = main(["plot", "--details", str(tmp_path / "nope.tsv"),
                   "--start-bp", "0", "--end-bp", "1", "--out",
                   str(tmp_path / "x.svg")])
        assert rc == 2

    def test_missing_output_directory_exits_2(self, tmp_path, capsys):
        detail = tmp_path / "detail.tsv"
        detail.write_text("scale\tlocation\tbf\tposterior_gamma\n0\t0\t5.0\t1.0\n")
        out = tmp_path / "missing_dir" / "x.svg"
        rc = main(["plot", "--details", str(detail), "--start-bp", "0",
                   "--end-bp", "1000", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: no such file or directory: {out}\n"


class TestFisherCommand:
    def test_combines_positional_p_values(self, capsys):
        rc = main(["fisher", "0.1", "0.1"])
        assert rc == 0
        assert abs(float(capsys.readouterr().out) - 0.0560517) < 1e-6

    def test_reads_file(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("0.5\n0.5\n")
        rc = main(["fisher", "--file", str(f)])
        assert rc == 0
        assert 0.0 < float(capsys.readouterr().out) < 1.0

    @pytest.mark.parametrize("text, message", [
        ("0.1\n\nabc\n", "line 3: non-numeric p-value: 'abc'"),
        ("abc\n0.1\n", "line 1: non-numeric p-value: 'abc'"),  # no header rule
        ("0.1\nnan\n", "line 2: non-finite p-value nan"),
    ])
    def test_bad_value_in_file_names_its_line(self, tmp_path, capsys, text, message):
        f = tmp_path / "p.txt"
        f.write_text(text)
        assert main(["fisher", "--file", str(f)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_empty_file_exits_1(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("\n\n")
        assert main(["fisher", "0.5", "--file", str(f)]) == 1
        assert capsys.readouterr().err == f"error: p-value file {f} is empty\n"

    def test_file_value_out_of_range_exits_1(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("0.1\n1.5\n")
        assert main(["fisher", "--file", str(f)]) == 1
        assert capsys.readouterr().err == "error: p-values must lie in (0, 1]\n"

    def test_invalid_p_exits_1(self, capsys):
        rc = main(["fisher", "0.0"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_nan_p_exits_1(self, capsys):
        assert main(["fisher", "nan", "0.5"]) == 1
        assert "error" in capsys.readouterr().err


# cli.main in a fresh interpreter, which has loaded no SciPy: prints the exit
# code and the name of the thread that first imported SciPy
_FRESH_MAIN = """
import sys, threading
import wavescreen.cli as cli
first = []

class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" and not first:
            first.append(threading.current_thread().name)

sys.meta_path.insert(0, Spy())
rc = cli.main(sys.argv[1:])
print(rc, *first)
"""


class TestFirstScipyImport:
    """SciPy is imported where it computes, so in a fresh interpreter its first
    import may run on pool threads, several at once; CPython's per-module
    import locks make that one import, and the outputs are those of a process
    that had SciPy loaded from the start."""

    @staticmethod
    def _fresh_main(argv):
        env = {k: v for k, v in os.environ.items() if k != "WAVESCREEN_CACHE_DIR"}
        env["PYTHONPATH"] = str(SRC)
        out = subprocess.run([sys.executable, "-c", _FRESH_MAIN, *argv], env=env,
                             check=True, capture_output=True, text=True, timeout=300).stdout
        return out.splitlines()[-1].split()

    def test_screen_on_two_threads(self, cohort_files, tmp_path, monkeypatch):
        geno, pheno = cohort_files
        monkeypatch.delenv("WAVESCREEN_CACHE_DIR", raising=False)
        assert main(_screen_args(geno, pheno, str(tmp_path / "warm"), threads=2)) == 0
        rc, thread = self._fresh_main(_screen_args(geno, pheno, str(tmp_path / "fresh"),
                                                   threads=2))
        assert rc == "0"
        assert thread.startswith("ThreadPoolExecutor")
        fresh = (tmp_path / "fresh" / "results.tsv").read_bytes()
        assert len(fresh.splitlines()) > 3  # a header and several windows' screens
        assert fresh == (tmp_path / "warm" / "results.tsv").read_bytes()

    def test_power(self, tmp_path, monkeypatch):
        cfg = tmp_path / "power.cfg"
        cfg.write_text(
            "n = 300\nn_snps = 64\nn_blocks = 4\nreplicates = 3\n"
            "heritability = 0.1\nmax_components = 4\nnull_m = 3000\n"
            "min_snps_per_coeff = 8\n"
        )  # 3000 draws leave the 30 exceedances a tail fit needs
        monkeypatch.delenv("WAVESCREEN_CACHE_DIR", raising=False)
        argv = ["power", "--config", str(cfg), "--seed", "2", "--output-dir"]
        assert main(argv + [str(tmp_path / "warm")]) == 0
        rc, thread = self._fresh_main(argv + [str(tmp_path / "fresh")])
        assert rc == "0"
        assert thread.startswith("ThreadPoolExecutor")
        for name in ("power.tsv", "power_detail.tsv"):
            assert ((tmp_path / "fresh" / name).read_bytes()
                    == (tmp_path / "warm" / name).read_bytes())
