"""CLI subcommands end to end, exit codes and determinism."""

import os
import re

import numpy as np
import pytest

from wavescreen import nullsim, simharness
from wavescreen.cli import main

from conftest import write_cohort_files


@pytest.fixture(scope="module")
def cohort_files(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli")
    cohort = simharness.generate_genotypes(
        n=150, n_snps=300, n_blocks=6, flip_prob=0.1, span_bp=60_000, seed=21
    )
    signal = simharness.plant_signal(cohort, 4, 0.15, "mono", seed=22)
    phenotype = simharness.simulate_phenotype(cohort, signal, seed=23)
    geno, pheno, _ = write_cohort_files(tmp_path, cohort, phenotype)
    return geno, pheno


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
        assert list(out.glob("detail_*.tsv"))

    def test_thread_count_does_not_change_output(self, cohort_files, tmp_path):
        geno, pheno = cohort_files
        outs = []
        for threads, name in ((1, "t1"), (4, "t4")):
            out = tmp_path / name
            rc = main(_screen_args(geno, pheno, str(out), threads=threads))
            assert rc == 0
            outs.append((out / "results.tsv").read_bytes())
        assert outs[0] == outs[1]

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

    def test_missing_genotype_file_exits_2(self, cohort_files, tmp_path, capsys):
        _, pheno = cohort_files
        rc = main(_screen_args("/does/not/exist.tsv", pheno, str(tmp_path / "x")))
        assert rc == 2
        assert "no such file" in capsys.readouterr().err

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


class TestNullsimCommand:
    def test_prints_tail_fit(self, tmp_path, capsys):
        rc = main([
            "nullsim", "--lambda1", "0.9", "--depth", "2", "--m", "20000",
            "--seed", "3", "--output-dir", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "threshold u" in out and "shape xi" in out and "scale beta" in out

    def test_bad_lambda1_exits_1(self, tmp_path, capsys):
        rc = main([
            "nullsim", "--lambda1", "1.5", "--depth", "2", "--m", "1000",
            "--seed", "3", "--output-dir", str(tmp_path),
        ])
        assert rc == 1
        assert "error" in capsys.readouterr().err


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

    def test_unknown_config_key_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 3\n")
        rc = main(["power", "--config", str(cfg), "--output-dir",
                   str(tmp_path / "o")])
        assert rc == 1
        assert "bogus" in capsys.readouterr().err


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

    def test_missing_detail_file_exits_2(self, tmp_path):
        rc = main(["plot", "--details", str(tmp_path / "nope.tsv"),
                   "--start-bp", "0", "--end-bp", "1", "--out",
                   str(tmp_path / "x.svg")])
        assert rc == 2


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

    def test_invalid_p_exits_1(self, capsys):
        rc = main(["fisher", "0.0"])
        assert rc == 1
        assert "error" in capsys.readouterr().err
