"""Loader validation, window tiling and depth rules."""

import ast
import hashlib
import os
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wavescreen import dataio
from wavescreen.dataio import DataError

from _oracles import load_cohort_reference, read_genotypes_reference
from conftest import write_cohort_files


def _write(tmp_path, lines, name="geno.tsv"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _parse(path, workers=1):
    """The genotype file's blocks and n, cut from the parse's layout as
    ``load_cohort`` cuts them."""
    layout = dataio._read_genotypes(path, workers)
    return dataio._blocks(*layout), layout[3].shape[1]


def _pheno(tmp_path, values, name="pheno.tsv"):
    path = tmp_path / name
    np.savetxt(path, np.asarray(values, dtype=float))
    return str(path)


class TestLoadCohort:
    def test_roundtrip(self, tmp_path, small_cohort, small_phenotype):
        geno, pheno, cov = write_cohort_files(
            tmp_path, small_cohort, small_phenotype,
            covariates=np.ones((small_cohort.n, 1)) * np.arange(small_cohort.n)[:, None],
        )
        cohort = dataio.load_cohort(geno, pheno, cov)
        assert cohort.n == small_cohort.n
        block = cohort.blocks["1"]
        assert block.n_snps == small_cohort.n_snps
        np.testing.assert_array_equal(block.positions, small_cohort.positions)
        np.testing.assert_allclose(block.dosages(), small_cohort.dosages(), atol=1e-5)
        np.testing.assert_allclose(cohort.phenotype, small_phenotype, atol=1e-12)
        assert cohort.covariates.shape == (small_cohort.n, 1)

    def test_rows_are_sorted_by_position(self, tmp_path):
        geno = _write(tmp_path, [
            "chrom\tpos\tid\tiq\ts1\ts2",
            "1\t300\tc\t1.0\t0\t1",
            "1\t100\ta\t1.0\t1\t2",
            "1\t200\tb\t0.9\t2\t0",
        ])
        cohort = dataio.load_cohort(geno, _pheno(tmp_path, [0.0, 1.0]))
        block = cohort.blocks["1"]
        np.testing.assert_array_equal(block.positions, [100, 200, 300])
        np.testing.assert_array_equal(block.imputation_quality, [1.0, 0.9, 1.0])
        np.testing.assert_array_equal(block.dosages()[:, 0], [1, 2, 0])

    def test_low_iq_snps_dropped(self, tmp_path):
        geno = _write(tmp_path, [
            "chrom\tpos\tid\tiq\ts1\ts2",
            "1\t100\ta\t1.0\t1\t2",
            "1\t200\tb\t0.5\t2\t0",
            "1\t300\tc\t0.7\t0\t1",
        ])
        cohort = dataio.load_cohort(geno, _pheno(tmp_path, [0.0, 1.0]))
        np.testing.assert_array_equal(cohort.blocks["1"].positions, [100, 300])

    def test_duplicate_position_rejected(self, tmp_path):
        geno = _write(tmp_path, [
            "1\t100\ta\t1.0\t1\t2",
            "1\t100\tb\t1.0\t2\t0",
        ])
        with pytest.raises(DataError, match="duplicate position"):
            dataio.load_cohort(geno, _pheno(tmp_path, [0.0, 1.0]))

    def test_dosage_out_of_range(self, tmp_path):
        geno = _write(tmp_path, ["1\t100\ta\t1.0\t1\t2.5"])
        with pytest.raises(DataError, match="outside"):
            dataio.load_cohort(geno, _pheno(tmp_path, [0.0, 1.0]))

    def test_iq_out_of_range(self, tmp_path):
        geno = _write(tmp_path, ["1\t100\ta\t1.5\t1\t2"])
        with pytest.raises(DataError, match="imputation quality"):
            dataio.load_cohort(geno, _pheno(tmp_path, [0.0, 1.0]))

    def test_ragged_dosages(self, tmp_path):
        geno = _write(tmp_path, [
            "1\t100\ta\t1.0\t1\t2",
            "1\t200\tb\t1.0\t2",
        ])
        with pytest.raises(DataError, match="dosages"):
            dataio.load_cohort(geno, _pheno(tmp_path, [0.0, 1.0]))

    def test_phenotype_length_mismatch(self, tmp_path):
        geno = _write(tmp_path, ["1\t100\ta\t1.0\t1\t2"])
        with pytest.raises(DataError, match="phenotype"):
            dataio.load_cohort(geno, _pheno(tmp_path, [0.0, 1.0, 2.0]))

    def test_constant_phenotype(self, tmp_path):
        geno = _write(tmp_path, ["1\t100\ta\t1.0\t1\t2"])
        with pytest.raises(DataError, match="zero variance"):
            dataio.load_cohort(geno, _pheno(tmp_path, [1.0, 1.0]))

    def test_covariate_row_mismatch(self, tmp_path):
        geno = _write(tmp_path, ["1\t100\ta\t1.0\t1\t2"])
        cov = _pheno(tmp_path, [1.0, 2.0, 3.0], name="cov.tsv")
        with pytest.raises(DataError, match="covariates"):
            dataio.load_cohort(geno, _pheno(tmp_path, [0.0, 1.0]), cov)

    def test_empty_genotype_file(self, tmp_path):
        geno = _write(tmp_path, ["chrom\tpos\tid\tiq\ts1"])
        with pytest.raises(DataError, match="no SNP rows"):
            dataio.load_cohort(geno, _pheno(tmp_path, [0.0, 1.0]))

    def test_all_snps_filtered(self, tmp_path):
        geno = _write(tmp_path, ["1\t100\ta\t0.1\t1\t2"])
        with pytest.raises(DataError, match="imputation-quality filter"):
            dataio.load_cohort(geno, _pheno(tmp_path, [0.0, 1.0]))

    def test_nan_dosage_rejected(self, tmp_path):
        geno = _write(tmp_path, [
            "1\t100\ta\t1.0\t1\t2",
            "1\t200\tb\t1.0\tnan\t2",
        ])
        with pytest.raises(DataError, match="line 2: non-finite dosage nan"):
            dataio.load_cohort(geno, _pheno(tmp_path, [0.0, 1.0]))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_phenotype_rejected(self, tmp_path, bad):
        geno = _write(tmp_path, ["1\t100\ta\t1.0\t1\t2\t0"])
        pheno = _write(tmp_path, ["y", "0.5", bad, "1.5"], name="pheno.tsv")
        with pytest.raises(DataError, match=f"line 3: non-finite phenotype {bad}"):
            dataio.load_cohort(geno, pheno)

    @pytest.mark.parametrize("bad_row, message", [
        ("3 inf", "line 3: non-finite covariate inf"),
        ("3", "line 3: 1 covariates, expected 2"),
        ("3 x", "line 3: non-numeric covariate: 'x'"),
    ])
    def test_bad_covariate_row_names_its_line(self, tmp_path, bad_row, message):
        geno = _write(tmp_path, ["1\t100\ta\t1.0\t1\t2"])
        cov = _write(tmp_path, ["1 2", "", bad_row], name="cov.tsv")
        with pytest.raises(DataError, match=f"^{message}$"):
            dataio.load_cohort(geno, _pheno(tmp_path, [0.0, 1.0]), cov)

    @pytest.mark.parametrize("pos", ["inf", "-inf", "nan", "100.7", "1e30"])
    def test_position_must_be_an_integer(self, tmp_path, pos):
        geno = _write(tmp_path, [
            "1\t50\ta\t1.0\t1\t2",
            f"1\t{pos}\tb\t1.0\t1\t2",
        ])
        with pytest.raises(DataError, match="line 2: position .* is not a 64-bit integer"):
            dataio.load_cohort(geno, _pheno(tmp_path, [0.0, 1.0]))

    def test_integral_position_spellings_accepted(self, tmp_path):
        geno = _write(tmp_path, [
            "1\t100.0\ta\t1.0\t1\t2",
            "1\t1e5\tb\t1.0\t1\t2",
        ])
        cohort = dataio.load_cohort(geno, _pheno(tmp_path, [0.0, 1.0]))
        np.testing.assert_array_equal(cohort.blocks["1"].positions, [100, 100_000])

    @pytest.mark.parametrize("bad_row, message", [
        ("1\t300\tc\t1.0\t1#\t2", "line 5: non-numeric dosage: '1#'"),
        ("1\t300\tc\t1.0\t1\t# 2", "line 5: non-numeric dosage: '#'"),
        ("1\t300\tc\t1.0\t1\tx", "line 5: non-numeric dosage: 'x'"),
        ("1\t300\tc\t1.0\t1\t2\t0", "line 5: 3 dosages, expected 2"),
        ("1\t300\tc\t1.0\t1", "line 5: 1 dosages, expected 2"),
    ])
    def test_bad_dosage_row_names_its_line(self, tmp_path, bad_row, message):
        # the header and the blank line make file lines differ from data rows
        geno = _write(tmp_path, [
            "chrom\tpos\tid\tiq\ts1\ts2",
            "1\t100\ta\t1.0\t1\t2",
            "",
            "1\t200\tb\t0.1\t2\t0",
            bad_row,
            "1\t400\td\t1.0\t2.5\t0",
        ])
        pheno = _pheno(tmp_path, [0.0, 1.0])
        for loader in (dataio.load_cohort, load_cohort_reference):
            with pytest.raises(DataError) as exc:
                loader(geno, pheno)
            assert str(exc.value) == message

    def test_first_bad_row_wins(self, tmp_path):
        # a dosage error above a metadata error is reported first, as the
        # row-by-row reference does
        geno = _write(tmp_path, [
            "1\t100\ta\t1.0\t1\t2",
            "1\t200\tb\t1.0\t1\t3",
            "1\tx\tc\t1.0\t1\t2",
        ])
        with pytest.raises(DataError, match="line 2: dosage 3.0 outside"):
            dataio.load_cohort(geno, _pheno(tmp_path, [0.0, 1.0]))

    @pytest.mark.parametrize("pheno_lines, cov_lines, message", [
        (["0.5", "abc"], None, "line 2: non-numeric phenotype: 'abc'"),
        (["0.5", "abc"], ["1", "x"], "line 2: non-numeric phenotype: 'abc'"),
        (["0.5", "1.5"], ["1", "x"], "line 2: non-numeric covariate: 'x'"),
        # two values per row were once read as one phenotype of twice the rows
        (["0.5\t1.5"], None, "phenotype file .*/pheno\\.tsv has 2 columns, expected 1"),
    ])
    def test_phenotype_and_covariate_errors_come_before_the_dosages(self, tmp_path, pheno_lines,
                                                                    cov_lines, message):
        geno = _write(tmp_path, ["1\t100\ta\t1.0\t1\t2"])
        pheno = _write(tmp_path, pheno_lines, name="pheno.tsv")
        cov = cov_lines and _write(tmp_path, cov_lines, name="cov.tsv")
        with mock.patch.object(dataio, "_read_dosages") as read_dosages:
            with pytest.raises(DataError, match=f"^{message}$"):
                dataio.load_cohort(geno, pheno, cov)
        read_dosages.assert_not_called()

    @pytest.mark.parametrize("name, lines, message", [
        ("pheno.tsv", ["1.0x", "2", "3"], "line 1: non-numeric phenotype: '1.0x'"),
        ("pheno.tsv", ["-", "2", "3"], "line 1: non-numeric phenotype: '-'"),
        ("pheno.tsv", ["y +1y", "2", "3"], "line 1: non-numeric phenotype: 'y'"),
        ("cov.tsv", [".5x 1", "2 1", "3 0"], "line 1: non-numeric covariate: '.5x'"),
    ], ids=["digit", "sign", "one_numeric_field", "covariate"])
    def test_first_line_that_starts_like_a_number_is_data(self, tmp_path, name, lines,
                                                          message):
        # a typo in the first value was once taken for a header row, so the
        # file came up one row short
        geno = _write(tmp_path, ["1\t100\ta\t1.0\t1\t2\t0"])
        pheno = _write(tmp_path, lines if name == "pheno.tsv" else ["2", "1", "3"],
                       name="pheno.tsv")
        cov = _write(tmp_path, lines, name="cov.tsv") if name == "cov.tsv" else None
        for loader in (dataio.load_cohort, load_cohort_reference):
            with pytest.raises(DataError) as exc:
                loader(geno, pheno, cov)
            assert str(exc.value) == message

    @pytest.mark.parametrize("header", ["pheno", "FID IID y", "y"])
    def test_first_line_of_names_is_a_header(self, tmp_path, header):
        geno = _write(tmp_path, ["1\t100\ta\t1.0\t1\t2\t0"])
        pheno = _write(tmp_path, [header, "2", "1", "3"], name="pheno.tsv")
        np.testing.assert_array_equal(dataio.load_cohort(geno, pheno).phenotype, [2, 1, 3])

    @pytest.mark.parametrize("eol", ["\r\n", "\r"])
    def test_line_endings(self, tmp_path, eol):
        # text mode splits lines at each of them, and so does the loader; a
        # no-break space, whitespace to both splits, gives a dosage field
        # more bytes than characters
        lines = ["chrom\tpos\tid\tiq\ts1\ts2", "1\t200\tb\t1.0\t2\u00a00", "",
                 "1\t100\ta\t1.0\t1\t2"]
        geno = tmp_path / "geno.tsv"
        geno.write_bytes(eol.join(lines + ["1\t300\tc\t1.0\tx\t2"]).encode())
        with pytest.raises(DataError, match="^line 5: non-numeric dosage: 'x'$"):
            _parse(str(geno))
        geno.write_bytes(eol.join(lines).encode())
        blocks, n = _parse(str(geno))
        assert n == 2
        np.testing.assert_array_equal(blocks["1"].dosages(), [[1, 2], [2, 0]])


class TestGridAndDepth:
    def test_grid_exponent(self):
        assert dataio.grid_exponent(1) == 0
        assert dataio.grid_exponent(2) == 1
        assert dataio.grid_exponent(3) == 2
        assert dataio.grid_exponent(1024) == 10
        assert dataio.grid_exponent(1025) == 11

    def test_window_depth_basic(self):
        # 640 SNPs at >= 10 per coefficient: 640/64 = 10 exactly -> depth 6
        assert dataio.window_depth(640, 10.0) == 6
        # slack keeps densities just under nominal: 620/64 = 9.69 >= 9.5
        assert dataio.window_depth(620, 10.0) == 6
        # but clearly too sparse drops a scale
        assert dataio.window_depth(600, 10.0) == 5

    def test_window_depth_capped_at_grid(self):
        # 8 SNPs at 1 per coefficient would give depth 3 = J; capped to J-1
        assert dataio.window_depth(8, 1.0) == 2

    def test_window_depth_too_few_snps(self):
        assert dataio.window_depth(5, 10.0) == -1


def _tiled_cohort(positions):
    from wavescreen.dataio import ChromosomeBlock, CohortData

    m = len(positions)
    block = ChromosomeBlock(
        chromosome="1",
        positions=np.asarray(positions, dtype=np.int64),
        imputation_quality=np.ones(m),
        store=np.tile(np.arange(3.0)[:, None], (m // 3 + 1, 4))[:m],
    )
    return CohortData(
        blocks={"1": block},
        phenotype=np.array([0.0, 1.0, 2.0, 3.0]),
        covariates=np.empty((4, 0)),
    )


class TestDefineWindows:
    def test_tiling_and_overlap(self):
        positions = np.arange(0, 100_000, 100)  # 1000 SNPs, dense
        cohort = _tiled_cohort(positions)
        wins = dataio.define_windows(
            cohort, window_bp=20_000, overlap_fraction=0.5,
            max_gap_bp=1_000, min_snps_per_coeff=10,
        )
        assert len(wins) >= 2
        starts = [w.start_bp for w in wins]
        assert starts == sorted(starts)
        assert all(s2 - s1 == 10_000 for s1, s2 in zip(starts, starts[1:]))
        for w in wins:
            assert w.end_bp - w.start_bp == 20_000
            assert w.n_snps == w.snp_end - w.snp_start

    def test_windows_are_half_open(self):
        # a SNP every 100 bp puts one on every window end; it belongs to the
        # next window only
        positions = np.arange(0, 100_000, 100)
        wins = dataio.define_windows(
            _tiled_cohort(positions), window_bp=20_000, overlap_fraction=0.0,
            max_gap_bp=1_000, min_snps_per_coeff=10,
        )
        assert len(wins) == 4
        covered = np.zeros(len(positions), dtype=int)
        for w in wins:
            inside = positions[w.snp_start:w.snp_end]
            assert inside[0] == w.start_bp and inside[-1] < w.end_bp
            assert np.array_equal(inside, positions[(positions >= w.start_bp)
                                                   & (positions < w.end_bp)])
            covered[w.snp_start:w.snp_end] += 1
        assert covered.max() == 1

    def test_gap_excludes_window(self):
        positions = np.concatenate([
            np.arange(0, 10_000, 100),
            np.arange(50_000, 60_000, 100),
        ])
        cohort = _tiled_cohort(positions)
        wins = dataio.define_windows(
            cohort, window_bp=20_000, overlap_fraction=0.0,
            max_gap_bp=1_000, min_snps_per_coeff=5,
        )
        # every kept window must avoid the 40 kbp hole
        for w in wins:
            inside = positions[(positions >= w.start_bp) & (positions < w.end_bp)]
            assert np.diff(inside).max() <= 1_000

    def test_sparse_window_dropped(self):
        positions = np.arange(0, 100_000, 2_000)  # 50 SNPs over 100 kbp
        cohort = _tiled_cohort(positions)
        wins = dataio.define_windows(
            cohort, window_bp=20_000, overlap_fraction=0.0,
            max_gap_bp=10_000, min_snps_per_coeff=50,
        )
        assert wins == []

    def test_depth_cap(self):
        positions = np.arange(0, 100_000, 100)
        cohort = _tiled_cohort(positions)
        wins = dataio.define_windows(
            cohort, window_bp=50_000, overlap_fraction=0.0,
            max_gap_bp=1_000, min_snps_per_coeff=2, depth_cap=3,
        )
        assert wins and all(w.depth == 3 for w in wins)

    def test_invalid_arguments(self):
        cohort = _tiled_cohort(np.arange(0, 10_000, 100))
        with pytest.raises(ValueError):
            dataio.define_windows(cohort, window_bp=0)
        with pytest.raises(ValueError):
            dataio.define_windows(cohort, overlap_fraction=1.0)
        with pytest.raises(ValueError):
            dataio.define_windows(cohort, max_gap_bp=0)
        with pytest.raises(ValueError):
            dataio.define_windows(cohort, min_snps_per_coeff=0)
        with pytest.raises(ValueError, match="depth_cap"):
            dataio.define_windows(cohort, depth_cap=-1)


def _spell(value, style):
    if style == 0:
        return f"{value:.17g}"
    if style == 1:
        return f"{round(value * 100) / 100:g}"  # e.g. 0.37
    if style == 2:
        return f"{round(value * 1000)}e-3"
    return str(round(value))  # 0, 1 or 2


@st.composite
def _cohort_texts(draw):
    """Random genotype, phenotype and optional covariate file texts, each with
    its own line ending, "\\n" or "\\r\\n"."""
    eol = st.sampled_from(["\n", "\r\n"])
    n = draw(st.integers(1, 4))
    n_rows = draw(st.integers(1, 10))
    seps = st.sampled_from([" ", "\t", "  ", " \t", "\t\t"])
    value = st.floats(0.0, 2.0)
    lines = []
    if draw(st.booleans()):
        lines.append("chrom\tpos\tid\tiq\t" + "\t".join(f"s{i}" for i in range(n)))
    positions = draw(st.lists(st.integers(0, 60), min_size=n_rows, max_size=n_rows))
    for j in range(n_rows):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
        chrom = draw(st.sampled_from(["1", "2", "X"]))
        pos = str(positions[j]) if draw(st.booleans()) else f"{positions[j]}.0"
        iq = f"{draw(st.floats(0.5, 1.0)):.3f}"  # about 40% fall below 0.7
        dosages = [_spell(draw(value), draw(st.integers(0, 3))) for _ in range(n)]
        flaw = draw(st.integers(0, 15))  # about one row in five is bad
        if flaw == 0:
            dosages.append("1")
        elif flaw == 1 and n > 1:
            dosages.pop()
        elif flaw == 2:
            dosages[draw(st.integers(0, n - 1))] = draw(
                st.sampled_from(["3", "-0.5", "nan", "inf", "x", "1#"]))
        fields = [chrom, pos, f"rs{j}", iq] + dosages
        lines.append("".join(f + draw(seps) for f in fields[:-1]) + fields[-1])
    pheno = [f"{draw(st.floats(-5.0, 5.0)):.17g}" for _ in range(n)]
    if draw(st.booleans()):
        pheno.insert(0, "y")
    cov = None
    n_cov = draw(st.integers(0, 2))
    if n_cov:
        cov = [
            draw(seps).join(f"{draw(st.floats(-3.0, 3.0)):.17g}" for _ in range(n_cov))
            for _ in range(n)
        ]
        cov_eol = draw(eol)
        cov = cov_eol.join(cov) + cov_eol
    geno_eol, pheno_eol = draw(eol), draw(eol)
    return geno_eol.join(lines) + geno_eol, pheno_eol.join(pheno) + pheno_eol, cov


def _outcome(load, *args):
    try:
        return load(*args)
    except DataError as exc:
        return exc


def _assert_blocks_equal(got, ref):
    assert list(got) == list(ref)
    for chrom, block in ref.items():
        other = got[chrom]
        assert other.chromosome == block.chromosome
        assert other.positions.dtype == np.int64
        np.testing.assert_array_equal(other.positions, block.positions)
        np.testing.assert_array_equal(other.imputation_quality.view(np.int64),
                                      block.imputation_quality.view(np.int64))
        assert other.store.shape == block.store.shape
        # codes decode a -0 token to +0.0, equal to it and centered to the same bits
        np.testing.assert_array_equal(other.dosages(), block.dosages())
        np.testing.assert_array_equal(other.dosages(minus=1.0).view(np.int64),
                                      block.dosages(minus=1.0).view(np.int64))


class TestReferenceParser:
    """load_cohort equals the per-token reference reader on random files."""

    @given(_cohort_texts(), st.sampled_from([2, 3]))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_matches_reference(self, texts, workers):
        geno_text, pheno_text, cov_text = texts
        with tempfile.TemporaryDirectory() as tmp:
            geno, pheno = Path(tmp, "geno.tsv"), Path(tmp, "pheno.tsv")
            geno.write_text(geno_text, newline="")
            pheno.write_text(pheno_text, newline="")
            cov = None
            if cov_text is not None:
                cov = Path(tmp, "cov.tsv")
                cov.write_text(cov_text, newline="")
                cov = str(cov)
            args = (str(geno), str(pheno), cov)
            got = _outcome(dataio.load_cohort, *args)
            ref = _outcome(load_cohort_reference, *args)
            # the genotype part alone, so that n = 1 (zero phenotype
            # variance) still compares parsed blocks
            got_g = _outcome(_parse, str(geno))
            ref_g = _outcome(read_genotypes_reference, str(geno), dataio.MIN_IMPUTATION_QUALITY)
            # as many processes as workers, up to one per row, on any host
            with mock.patch.object(dataio, "_usable_cpus", return_value=workers):
                par_g = _outcome(_parse, str(geno), workers)
        for a, b in ((got, ref), (got_g, ref_g), (par_g, ref_g)):
            if isinstance(b, DataError):
                assert isinstance(a, DataError) and str(a) == str(b)
            else:
                assert not isinstance(a, DataError), a
        if isinstance(ref_g, DataError):
            return
        # codes exactly when every kept dosage is exact at 4 decimals
        values = np.concatenate([b.dosages().ravel() for b in ref_g[0].values()])
        store = np.uint16 if np.array_equal(np.rint(values * 1e4) / 1e4, values) else float
        for g in (got_g, par_g):
            _assert_blocks_equal(g[0], ref_g[0])
            assert g[1] == ref_g[1]
            assert {b.store.dtype for b in g[0].values()} == {np.dtype(store)}
        if isinstance(ref, DataError):
            return
        _assert_blocks_equal(got.blocks, ref.blocks)
        np.testing.assert_array_equal(got.phenotype.view(np.int64),
                                      ref.phenotype.view(np.int64))
        assert got.covariates.shape == ref.covariates.shape
        np.testing.assert_array_equal(got.covariates.view(np.int64),
                                      ref.covariates.view(np.int64))


def _rows(dosages):
    """Genotype lines, one SNP per dosage list, 100 bp apart on chromosome 1."""
    return ["chrom\tpos\tid\tiq\ts1\ts2\ts3"] + [
        f"1\t{100 * (i + 1)}\tsnp{i}\t1.0\t" + "\t".join(d) for i, d in enumerate(dosages)
    ]


class TestParallelParse:
    """Dosages parsed in shared-out chunks give the one-pass blocks and errors."""

    @pytest.fixture(autouse=True)
    def many_cpus(self, monkeypatch):
        # as many processes as workers, up to one per row, on any host
        monkeypatch.setattr(dataio, "_usable_cpus", lambda: 8)

    @staticmethod
    def _error(path, workers):
        with pytest.raises(DataError) as serial:
            _parse(path)
        with pytest.raises(DataError) as parallel:
            _parse(path, workers)
        assert str(parallel.value) == str(serial.value)
        return str(parallel.value)

    @staticmethod
    def _good_rows(workers):
        """Rows enough that ``workers`` processes cut them into chunks of two."""
        return [["0", "1", "2"]] * (2 * workers * dataio._CHUNKS_PER_WORKER)

    def test_blocks_match_one_pass(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = [[f"{x:.6g}" for x in rng.uniform(0, 2, 3)] for _ in range(101)]
        path = _write(tmp_path, _rows(rows))
        serial, n = _parse(path)
        for workers in (2, 3, 5):
            blocks, m = _parse(path, workers)
            assert m == n
            _assert_blocks_equal(blocks, serial)

    def test_uniformly_narrower_second_range(self, tmp_path):
        # both rows of chunk 3 parse and agree with each other; only the
        # first row of the file shows that they are too narrow
        rows = self._good_rows(2)
        rows[6:8] = [["1", "1"]] * 2
        path = _write(tmp_path, _rows(rows))
        assert self._error(path, 2) == "line 8: 2 dosages, expected 3"

    def test_narrower_range_with_an_out_of_range_value(self, tmp_path):
        # the width error of a row comes before its values are checked
        rows = self._good_rows(2)
        rows[6:8] = [["3", "1"]] * 2
        path = _write(tmp_path, _rows(rows))
        assert self._error(path, 2) == "line 8: 2 dosages, expected 3"

    def test_earlier_range_error_wins(self, tmp_path):
        # an out-of-range value in chunk 1 comes before a non-numeric field in
        # chunk 2, whichever process parses either
        rows = self._good_rows(3)
        rows[3] = ["0", "2.5", "1"]
        rows[4] = ["0", "x", "1"]
        path = _write(tmp_path, _rows(rows))
        assert self._error(path, 3) == "line 5: dosage 2.5 outside [0,2]"

    def test_dosage_error_before_a_metadata_error(self, tmp_path):
        # the metadata error ends the rows read; the bad dosage above it, in
        # the last chunk, is raised
        rows = self._good_rows(3)
        rows[-1] = ["0", "1", "nan"]
        lines = _rows(rows) + [f"1\tx\tsnp{len(rows)}\t1.0\t0\t1\t2"]
        path = _write(tmp_path, lines)
        assert self._error(path, 3) == f"line {len(rows) + 1}: non-finite dosage nan"

    def test_more_workers_than_rows(self, tmp_path, monkeypatch):
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        path = _write(tmp_path, _rows([["0", "1", "2"], ["2", "1", "0"]]))
        blocks, _ = _parse(path, 64)
        _assert_blocks_equal(blocks, _parse(path)[0])
        assert len(forks) == 1

    def test_without_fork_one_range_runs_in_process(self, tmp_path, monkeypatch):
        good = _write(tmp_path, _rows([["0", "1", "2"]] * 2), "good.tsv")
        bad = _write(tmp_path, _rows([["0", "1", "2"], ["2", "1", "0"], ["1", "x", "0"]]))
        serial = _parse(good)[0]
        monkeypatch.delattr(os, "fork")
        _assert_blocks_equal(_parse(good, 4)[0], serial)
        assert self._error(bad, 4) == "line 4: non-numeric dosage: 'x'"

    def test_child_that_fails_otherwise_raises_in_the_parent(self, tmp_path, monkeypatch):
        # the child fails before it takes a chunk; the parent parses them all
        # and still raises, since a child's chunks may be unparsed
        parent = os.getpid()
        parse_chunks = dataio._parse_chunks

        def crash_in_child(*args, **kwargs):
            if os.getpid() != parent:
                raise MemoryError("no room")
            return parse_chunks(*args, **kwargs)

        monkeypatch.setattr(dataio, "_parse_chunks", crash_in_child)
        path = _write(tmp_path, _rows([["0", "1", "2"]] * 4))
        with pytest.raises(RuntimeError, match=r"dosage parser process failed \(exit code 1\)"):
            _parse(path, 2)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_error_in_a_chunk_only_children_parse(self, tmp_path, monkeypatch, workers):
        # the parent takes no chunk, so its children parse every row and
        # flag the two bad chunks; the parent raises the lower one's error
        rows = self._good_rows(workers)
        good = _write(tmp_path, _rows(rows), "good.tsv")
        rows[3] = ["0", "2.5", "1"]
        rows[-1] = ["0", "x", "1"]
        bad = _write(tmp_path, _rows(rows))
        serial = _parse(good)[0]
        with pytest.raises(DataError) as serial_error:
            _parse(bad)
        parent, parse_chunks = os.getpid(), dataio._parse_chunks
        monkeypatch.setattr(dataio, "_parse_chunks",
                            lambda *args: None if os.getpid() == parent else parse_chunks(*args))
        _assert_blocks_equal(_parse(good, workers)[0], serial)
        with pytest.raises(DataError) as error:
            _parse(bad, workers)
        assert str(error.value) == str(serial_error.value) == "line 5: dosage 2.5 outside [0,2]"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
    def test_load_leaves_no_descriptor_open(self, tmp_path):
        rows = self._good_rows(3)
        good = _write(tmp_path, _rows(rows), "good.tsv")
        rows[20] = ["0", "x", "1"]
        bad = _write(tmp_path, _rows(rows))
        pheno = _pheno(tmp_path, [0.0, 1.0, 2.0])
        before = len(os.listdir("/proc/self/fd"))
        dataio.load_cohort(good, pheno, workers=3)
        assert len(os.listdir("/proc/self/fd")) == before
        with pytest.raises(DataError, match="^line 22: non-numeric dosage: 'x'$"):
            dataio.load_cohort(bad, pheno, workers=3)
        assert len(os.listdir("/proc/self/fd")) == before


@st.composite
def _four_decimals(draw):
    """(text, code): a dosage in [0, 2] with 0-4 decimals, spelled plain, with
    trailing zeros, in exponent form, without its leading zero or signed,
    and its code, 1e4 times the value."""
    digits = draw(st.integers(0, 4))
    m = draw(st.integers(0, 2 * 10**digits))
    whole, frac = divmod(m, 10**digits)
    code = m * 10 ** (4 - digits)
    plain = f"{whole}.{frac:0{digits}d}" if digits else str(whole)
    text = {
        "plain": plain,
        "zeros": f"{whole}.{code % 10**4:04d}",  # 2.0000
        "exponent": f"{m}e-{digits}",  # 1e-4, 20000e-4
        "bare": plain[1:] if plain.startswith("0.") else plain,  # .25
    }[draw(st.sampled_from(["plain", "zeros", "exponent", "bare"]))]
    return draw(st.sampled_from(["", "+"] + ["-"] * (m == 0))) + text, code


class TestDosageCodes:
    """A dosage exact at 4 decimals is stored as a 16-bit code that decodes to
    the parsed double; a file with any other keeps float64 dosages."""

    @given(st.lists(_four_decimals(), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_decode_is_the_parse(self, spellings):
        texts, want = zip(*spellings)
        values = dataio._read_rows(["\t".join(texts)], [1], "dosage", 0.0, 2.0)
        codes, exact = dataio._codes(values)
        assert exact.all() and codes.dtype == np.uint16 and codes.tolist() == [list(want)]
        block = dataio.ChromosomeBlock("1", np.array([1]), np.ones(1), codes)
        # == and not bitwise: a -0 token decodes to +0.0; centered, both are -1.0
        assert np.array_equal(block.dosages(), values)
        assert np.array_equal(block.dosages(minus=1.0).view(np.int64),
                              (values - 1.0).view(np.int64))

    @pytest.mark.parametrize("text", ["0.00001", "1.99999", "0.12345", "1e-5", "1e-300",
                                      "4.9e-324", "0.3333333333333333"])
    def test_more_than_four_decimals_is_not_a_code(self, text):
        values = dataio._read_rows([text], [1], "dosage", 0.0, 2.0)
        assert not dataio._codes(values)[1].any()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_inexact_value_in_the_last_chunk_keeps_float64(self, tmp_path, monkeypatch,
                                                               workers):
        monkeypatch.setattr(dataio, "_usable_cpus", lambda: 2)
        rng = np.random.default_rng(6)
        rows = [[f"{x:.2f}" for x in rng.uniform(0, 2, 3)] for _ in range(40)]
        exact = _write(tmp_path, _rows(rows), "exact.tsv")
        rows[-1][1] = "1.23457"  # the file's last row, in its last chunk
        inexact = _write(tmp_path, _rows(rows))
        for path, store in ((exact, np.uint16), (inexact, np.float64)):
            blocks, _ = _parse(path, workers)
            ref, _ = read_genotypes_reference(path, dataio.MIN_IMPUTATION_QUALITY)
            assert blocks["1"].store.dtype == store
            _assert_blocks_equal(blocks, ref)
        # the inexact file's float64 store holds the reference parse's own bits
        assert blocks["1"].store.tobytes() == ref["1"].store.tobytes()

    @pytest.mark.parametrize("cap", [1, 1 << 20], ids=["row_pieces", "chunk_pieces"])
    @pytest.mark.parametrize("at", [0, 22, 39])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_inexact_pieces_alone_are_parsed_twice(self, tmp_path, monkeypatch, workers, at,
                                                   cap):
        # 40 rows in 8 chunks of 5, inexact at row ``at`` and the last: the
        # first pass stops at the piece holding row ``at`` and leaves every
        # later chunk unparsed; the float64 pass decodes the rows before that
        # piece and parses the rest, so that piece alone is parsed twice; the
        # parses of forked children are not counted
        monkeypatch.setattr(dataio, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(dataio, "_MAX_TEXT_BYTES", cap)
        rng = np.random.default_rng(8)
        rows = [[f"{x:.3f}" for x in rng.uniform(0, 2, 3)] for _ in range(40)]
        rows[at][2] = rows[39][0] = "0.123456"
        path = _write(tmp_path, _rows(rows))
        parsed = []
        read_rows = dataio._read_rows
        monkeypatch.setattr(dataio, "_read_rows", lambda texts, *args: parsed.append(
            len(texts) - 1) or read_rows(texts, *args))
        blocks, _ = _parse(path, workers)
        ref, _ = read_genotypes_reference(path, dataio.MIN_IMPUTATION_QUALITY)
        assert blocks["1"].store.tobytes() == ref["1"].store.tobytes()
        if workers == 1:
            assert sum(parsed) == 40 + (1 if cap == 1 else 5)  # one piece: a row, or a chunk


def test_workers_start_at_most_one_child_per_other_cpu(tmp_path, monkeypatch):
    # at most min(CPUs, rows) - 1 children, and with 3 rows never more than 2
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    path = _write(tmp_path, _rows([["0", "1", "2"], ["2", "1", "0"], ["1", "1", "1"]]))
    dataio.load_cohort(path, _pheno(tmp_path, [0.0, 1.0, 2.0]), workers=64)
    assert len(forks) == min(dataio._usable_cpus(), 3) - 1


def test_parse_holds_a_piece_of_the_dosage_text(tmp_path):
    # the metadata pass keeps no dosage text, and the parse reads one chunk
    # of it at a time, so the traced peak stays well below the file's size
    rng = np.random.default_rng(5)
    dosages = rng.integers(0, 2001, size=(400, 2000)) / 1000
    path = tmp_path / "geno.tsv"
    with open(path, "w") as fh:
        for i, row in enumerate(dosages):
            fh.write(f"1\t{i + 1}\tsnp{i}\t1.0\t" + "\t".join(f"{d:.3f}" for d in row) + "\n")
    tracemalloc.start()
    try:
        blocks, _ = _parse(str(path), 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(blocks["1"].dosages(), dosages)
    assert peak < path.stat().st_size / 2


@pytest.mark.parametrize("cap", [1, 40])
def test_a_chunk_read_in_pieces_matches_one_read(tmp_path, monkeypatch, cap):
    # below one row's text each piece is one row, at 40 bytes it is a few;
    # rows 15 and 16 share a chunk, and the first bad one in it wins
    rng = np.random.default_rng(4)
    rows = [[f"{x:.6g}" for x in rng.uniform(0, 2, 3)] for _ in range(30)]
    good = _write(tmp_path, _rows(rows), "good.tsv")
    rows[15:17] = [["0", "2.5", "1"], ["x", "1", "1"]]
    bad = _write(tmp_path, _rows(rows))
    whole = _parse(good)[0]
    monkeypatch.setattr(dataio, "_MAX_TEXT_BYTES", cap)
    _assert_blocks_equal(_parse(good)[0], whole)
    with pytest.raises(DataError, match=r"^line 17: dosage 2.5 outside \[0,2\]$"):
        _parse(bad)


def test_only_blocks_builds_a_chromosome_block():
    # the parse and a cache hit give one layout, and one function cuts it
    tree = ast.parse(Path(dataio.__file__).read_text(encoding="utf-8"))
    builders = {f.name for f in tree.body if isinstance(f, ast.FunctionDef)
                for node in ast.walk(f) if isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "ChromosomeBlock"}
    assert builders == {"_blocks"}


def _genome_lines(rng, n=5):
    """Rows on three chromosomes, out of position order and interleaved, with
    low-IQ rows among them, so the parse gathers, sorts and drops rows."""
    lines = ["chrom\tpos\tid\tiq\t" + "\t".join(f"s{i}" for i in range(n))]
    for i in range(60):
        chrom = ("2", "1", "X")[i % 3]
        iq = "0.5" if i % 7 == 3 else "0.9"
        dosages = "\t".join(f"{x:.2f}" for x in rng.uniform(0, 2, n))
        lines.append(f"{chrom}\t{(i * 37) % 61 + 1}\tsnp{i}\t{iq}\t{dosages}")
    return lines


def _entries(cache):
    return sorted(p.name for p in cache.glob("dosages_*"))


def _leaf_tree(data, leaf):
    """The sha256 of the concatenated sha256 digests of ``data``'s leaves."""
    return hashlib.sha256(b"".join(hashlib.sha256(data[i:i + leaf]).digest()
                                   for i in range(0, len(data), leaf))).hexdigest()


class TestDosageCache:
    """A load with a cache directory maps the parse of the same bytes back."""

    @pytest.fixture
    def files(self, tmp_path):
        geno = _write(tmp_path, _genome_lines(np.random.default_rng(8)))
        return geno, _pheno(tmp_path, [0.1, 0.4, -0.2, 1.3, 0.7]), tmp_path / "cache"

    @staticmethod
    def _no_parse(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the genotype file was parsed")
        monkeypatch.setattr(dataio, "_read_dosages", refuse)
        monkeypatch.setattr(os, "fork", refuse)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_hit_gives_the_parsed_blocks(self, files, monkeypatch, workers):
        geno, pheno, cache = files
        parsed = dataio.load_cohort(geno, pheno, workers=workers)
        cold = dataio.load_cohort(geno, pheno, workers=workers, cache_dir=str(cache))
        assert len(_entries(cache)) == 1
        self._no_parse(monkeypatch)
        warm = dataio.load_cohort(geno, pheno, workers=workers, cache_dir=str(cache))
        for cohort in (cold, warm):
            _assert_blocks_equal(cohort.blocks, parsed.blocks)
            assert cohort.n == parsed.n == 5
        assert list(warm.blocks) == ["1", "2", "X"]
        for block in warm.blocks.values():
            for values in (block.positions, block.imputation_quality, block.store):
                assert not values.flags.writeable

    @pytest.mark.parametrize("workers", [1, 2])
    def test_entry_holds_the_parse_layout(self, files, workers):
        geno, pheno, cache = files
        dataio.load_cohort(geno, pheno, workers=workers, cache_dir=str(cache))
        [name] = _entries(cache)
        parsed = dataio._read_genotypes(geno, workers)
        loaded = dataio._load_entry(str(cache / name), dataio._file_digest(geno, workers))
        assert loaded[0] == parsed[0] == [("1", 17), ("2", 17), ("X", 17)]
        for got, want, dtype in zip(loaded[1:], parsed[1:], (np.int64, float, np.uint16)):
            assert got.dtype == want.dtype == dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_edit_of_the_same_size_and_mtime_is_a_miss(self, files, monkeypatch):
        geno, pheno, cache = files
        dataio.load_cohort(geno, pheno, cache_dir=str(cache))
        stat = os.stat(geno)
        lines = Path(geno).read_text().splitlines()
        fields = lines[1].split("\t")
        fields[4] = "1.99" if fields[4] != "1.99" else "0.01"
        lines[1] = "\t".join(fields)
        _write(Path(geno).parent, lines)
        os.utime(geno, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert os.stat(geno).st_size == stat.st_size
        assert os.stat(geno).st_mtime_ns == stat.st_mtime_ns
        edited = dataio.load_cohort(geno, pheno, cache_dir=str(cache))
        reference = dataio.load_cohort(geno, pheno)
        _assert_blocks_equal(edited.blocks, reference.blocks)
        assert float(fields[4]) in edited.blocks["2"].dosages()[:, 0]
        # the edit replaced the entry, which the next load maps
        assert len(_entries(cache)) == 1
        self._no_parse(monkeypatch)
        _assert_blocks_equal(dataio.load_cohort(geno, pheno, cache_dir=str(cache)).blocks,
                             reference.blocks)

    @pytest.mark.parametrize("damage", ["truncated", "extra_byte", "header", "digest", "count",
                                        "empty", "duplicate_name", "unsorted_name",
                                        "other_store", "unknown_store"])
    def test_damaged_entry_is_a_miss_and_rewritten(self, files, monkeypatch, damage):
        geno, pheno, cache = files
        reference = dataio.load_cohort(geno, pheno, cache_dir=str(cache))
        [name] = _entries(cache)
        entry = cache / name
        good = entry.read_bytes()
        head, table, rest = good.split(b"\n", 2)
        form, digest, store, n, n_chroms = head.split(b"\t")
        chrom, count = table.split(b"\t")
        entry.write_bytes({
            "truncated": good[:-8],
            "extra_byte": good + b"\0",
            "header": b"wavescreen-dosages-0" + good[len(form):],
            "digest": b"\t".join([form, digest[::-1], store, n, n_chroms]) + b"\n"
                      + good[len(head) + 1:],
            "count": b"\n".join([head, chrom + b"\t" + str(int(count) + 1).encode(), rest]),
            "empty": b"",
            # a name edited in place, of the same length: the table would
            # name chromosomes 2, 2, X (dropping one) or Y, 2, X
            "duplicate_name": b"\n".join([head, b"2\t" + count, rest]),
            "unsorted_name": b"\n".join([head, b"Y\t" + count, rest]),
            # codes named as the float64 store, or as no store
            "other_store": good.replace(b"\tcodes\t", b"\tfloat64\t", 1),
            "unknown_store": good.replace(b"\tcodes\t", b"\tuint8\t", 1),
        }[damage])
        loaded = dataio.load_cohort(geno, pheno, cache_dir=str(cache))
        _assert_blocks_equal(loaded.blocks, reference.blocks)
        assert entry.read_bytes() == good
        self._no_parse(monkeypatch)
        _assert_blocks_equal(dataio.load_cohort(geno, pheno, cache_dir=str(cache)).blocks,
                             reference.blocks)

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: lines + ["1\t500\tbad\t0.9\t0\t1\tx\t1\t1"],
         "line 62: non-numeric dosage: 'x'"),
        (lambda lines: lines + ["1\t38\tdup\t0.9\t0\t1\t1\t1\t1"],
         "duplicate position 38 on chromosome 1"),
        (lambda lines: [line.rsplit("\t", 1)[0] for line in lines],
         "phenotype has 5 rows but genotypes have 4 individuals"),
    ], ids=["bad_row", "duplicate", "row_count"])
    def test_failed_load_leaves_no_entry(self, files, edit, message):
        geno, pheno, cache = files
        geno = _write(Path(geno).parent, edit(Path(geno).read_text().splitlines()))
        with pytest.raises(DataError, match=f"^{message}$"):
            dataio.load_cohort(geno, pheno)
        with pytest.raises(DataError, match=f"^{message}$"):
            dataio.load_cohort(geno, pheno, cache_dir=str(cache))
        assert not cache.exists() or os.listdir(cache) == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_file_is_hashed_once_per_cached_load(self, files, monkeypatch, workers):
        geno, pheno, cache = files
        calls = []
        digest = dataio._file_digest
        monkeypatch.setattr(dataio, "_file_digest",
                            lambda *args: calls.append(args) or digest(*args))
        dataio.load_cohort(geno, pheno, workers=workers)
        assert calls == []
        dataio.load_cohort(geno, pheno, workers=workers, cache_dir=str(cache))  # a miss
        assert calls == [(geno, workers)] and len(_entries(cache)) == 1
        self._no_parse(monkeypatch)
        dataio.load_cohort(geno, pheno, workers=workers, cache_dir=str(cache))  # a hit
        assert calls == [(geno, workers)] * 2

    @pytest.mark.parametrize("cached", [False, True], ids=["no_cache", "cache"])
    def test_change_while_read_raises(self, files, monkeypatch, cached):
        # one dosage of a kept row is rewritten at the same size after the
        # metadata pass (and the digest) but before the dosages are read
        geno, pheno, cache = files
        lines = Path(geno).read_text().splitlines()
        fields = lines[1].split("\t")
        assert float(fields[3]) >= dataio.MIN_IMPUTATION_QUALITY
        offset = len(lines[0]) + 1 + len("\t".join(fields[:4])) + 1
        new = b"1.99" if fields[4] != "1.99" else b"0.01"
        read_dosages = dataio._read_dosages

        def edit_then_read(*args):
            st = os.stat(geno)
            with open(geno, "r+b") as fh:
                os.pwrite(fh.fileno(), new, offset)
            os.utime(geno, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
            assert os.path.getsize(geno) == st.st_size
            return read_dosages(*args)

        monkeypatch.setattr(dataio, "_read_dosages", edit_then_read)
        with pytest.raises(DataError, match="^genotype file changed while it was read$"):
            dataio.load_cohort(geno, pheno, cache_dir=str(cache) if cached else None)
        assert _entries(cache) == []
        assert Path(geno).read_text().splitlines()[1].split("\t")[4] == new.decode()

    def test_hit_needs_no_file_digest(self, files, monkeypatch):
        # hashlib.file_digest is new in Python 3.11; the package supports 3.10
        geno, pheno, cache = files
        reference = dataio.load_cohort(geno, pheno, cache_dir=str(cache))
        monkeypatch.delattr(dataio.hashlib, "file_digest", raising=False)
        self._no_parse(monkeypatch)
        _assert_blocks_equal(dataio.load_cohort(geno, pheno, cache_dir=str(cache)).blocks,
                             reference.blocks)

    def test_entry_is_synced_before_it_is_renamed(self, files, monkeypatch):
        geno, pheno, cache = files
        calls = []
        fsync, replace = os.fsync, os.replace
        monkeypatch.setattr(os, "fsync", lambda fd: calls.append("fsync") or fsync(fd))
        monkeypatch.setattr(os, "replace",
                            lambda *args: calls.append("replace") or replace(*args))
        dataio.load_cohort(geno, pheno, cache_dir=str(cache))
        assert calls == ["fsync", "replace"]
        assert len(_entries(cache)) == 1

    @pytest.mark.parametrize("file", ["shorter", "equal", "longer"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_file_digest_is_the_leaf_tree(self, files, monkeypatch, file, workers):
        # the file is shorter than, equal to or longer than one leaf
        geno, _, _ = files
        data = Path(geno).read_bytes()
        leaf = {"shorter": len(data) + 1, "equal": len(data), "longer": len(data) // 3}[file]
        monkeypatch.setattr(dataio, "_HASH_LEAF", leaf)
        assert dataio._file_digest(geno, workers) == _leaf_tree(data, leaf)

    @pytest.mark.parametrize("size", [0, 1000, 4 << 20, (8 << 20) + 123])
    def test_leaf_digest_of_pieces_is_the_file_digest(self, tmp_path, size):
        # the empty file, part of a leaf, one whole leaf and a last short leaf
        data = np.random.default_rng(size).bytes(size)
        path = tmp_path / "bytes"
        path.write_bytes(data)
        for workers in (1, 2, 3):
            assert dataio._file_digest(str(path), workers) == _leaf_tree(data, 4 << 20)

    def test_many_leaves_on_more_threads_than_cores(self, tmp_path, monkeypatch):
        # every thread writes its own leaves' digests; a lost one changes the root
        data = np.random.default_rng(5).bytes((1 << 20) + 77)
        path = tmp_path / "bytes"
        path.write_bytes(data)
        monkeypatch.setattr(dataio, "_HASH_LEAF", 4096)
        monkeypatch.setattr(dataio, "_usable_cpus", lambda: 8)
        tree = _leaf_tree(data, 4096)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert dataio._file_digest(str(path), 8) == tree
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("store", ["codes", "float64"])
    def test_entry_size_follows_its_store(self, files, monkeypatch, store):
        # 2-byte codes unless a kept dosage has 5 decimals
        geno, pheno, cache = files
        if store == "float64":
            lines = Path(geno).read_text().splitlines()
            lines[1] = lines[1] + "001"  # its last dosage, x.yz, becomes x.yz001
            geno = _write(Path(geno).parent, lines)
        reference = dataio.load_cohort(geno, pheno)
        loaded = dataio.load_cohort(geno, pheno, cache_dir=str(cache))
        [entry] = cache.glob("dosages_*")
        data = entry.read_bytes()
        head = data.split(b"\n", 1)[0].split(b"\t")
        assert head[2] == store.encode()
        offset = -(-(data.index(b"\nX\t17\n") + 6) // 8) * 8  # the padded header
        n_kept, n, size = 51, 5, {"codes": 2, "float64": 8}[store]
        assert len(data) == offset + 16 * n_kept + size * n_kept * n
        self._no_parse(monkeypatch)
        warm = dataio.load_cohort(geno, pheno, cache_dir=str(cache))
        for cohort in (reference, loaded, warm):
            assert {b.store.itemsize for b in cohort.blocks.values()} == {size}
            _assert_blocks_equal(cohort.blocks, reference.blocks)

    def test_format_2_entry_is_parsed_past_and_rewritten(self, files, monkeypatch):
        # the float64 entry of the previous format, at the same path
        geno, pheno, cache = files
        reference = dataio.load_cohort(geno, pheno, cache_dir=str(cache))
        [entry] = cache.glob("dosages_*")
        good = entry.read_bytes()
        table, positions, qualities, store = dataio._read_genotypes(geno)
        digest = dataio._file_digest(geno, 1)
        form = dataio._DOSAGE_CACHE_FORMAT.replace("-dosages-3-", "-dosages-2-")
        header = (f"{form}\t{digest}\t5\t{len(table)}\n"
                  + "".join(f"{c}\t{k}\n" for c, k in table)).encode()
        entry.write_bytes(header + b" " * (-len(header) % 8) + positions.tobytes()
                          + qualities.tobytes() + store.astype(float).tobytes())
        _assert_blocks_equal(dataio.load_cohort(geno, pheno, cache_dir=str(cache)).blocks,
                             reference.blocks)
        assert entry.read_bytes() == good
        self._no_parse(monkeypatch)
        _assert_blocks_equal(dataio.load_cohort(geno, pheno, cache_dir=str(cache)).blocks,
                             reference.blocks)

    def test_flat_sha256_entry_is_parsed_and_replaced(self, files, monkeypatch):
        # an entry as written before the digest was a leaf tree
        geno, pheno, cache = files
        reference = dataio.load_cohort(geno, pheno, cache_dir=str(cache))
        [name] = _entries(cache)
        entry = cache / name
        good = entry.read_bytes()
        head, rest = good.split(b"\n", 1)
        form, digest, store, n, n_chroms = head.split(b"\t")
        old_form = form.replace(b"wavescreen-dosages-3-", b"wavescreen-dosages-1-")
        flat = hashlib.sha256(Path(geno).read_bytes()).hexdigest().encode()
        assert old_form != form and len(flat) == len(digest)
        entry.write_bytes(b"\t".join([old_form, flat, store, n, n_chroms]) + b"\n" + rest)
        _assert_blocks_equal(dataio.load_cohort(geno, pheno, cache_dir=str(cache)).blocks,
                             reference.blocks)
        assert _entries(cache) == [name]
        assert entry.read_bytes() == good
        self._no_parse(monkeypatch)
        _assert_blocks_equal(dataio.load_cohort(geno, pheno, cache_dir=str(cache)).blocks,
                             reference.blocks)

    def test_in_place_edit_of_a_later_leaf_is_a_miss(self, files, monkeypatch):
        geno, pheno, cache = files
        size = os.path.getsize(geno)
        leaf = size // 4
        monkeypatch.setattr(dataio, "_HASH_LEAF", leaf)
        dataio.load_cohort(geno, pheno, workers=2, cache_dir=str(cache))
        # overwrite the last dosage of the second-last row (the last one is
        # below the IQ cut) with one of the same length, in a later leaf
        lines = Path(geno).read_text().splitlines()
        fields = lines[-2].split("\t")
        assert float(fields[3]) >= dataio.MIN_IMPUTATION_QUALITY
        new = "1.99" if fields[-1] != "1.99" else "0.01"
        offset = size - len(lines[-1]) - 2 - len(fields[-1])
        assert offset > leaf
        with open(geno, "r+b") as fh:
            os.pwrite(fh.fileno(), new.encode(), offset)
        assert os.path.getsize(geno) == size
        edited = dataio.load_cohort(geno, pheno, workers=2, cache_dir=str(cache))
        reference = dataio.load_cohort(geno, pheno)
        _assert_blocks_equal(edited.blocks, reference.blocks)
        assert float(new) in edited.blocks[fields[0]].dosages()[:, -1]
        assert len(_entries(cache)) == 1
        self._no_parse(monkeypatch)
        _assert_blocks_equal(dataio.load_cohort(geno, pheno, workers=2,
                                                cache_dir=str(cache)).blocks,
                             reference.blocks)

    def test_unwritable_cache_costs_a_warning(self, files, capsys):
        # a regular file where the cache directory should be
        geno, pheno, cache = files
        cache.write_text("")
        loaded = dataio.load_cohort(geno, pheno, cache_dir=str(cache))
        _assert_blocks_equal(loaded.blocks, dataio.load_cohort(geno, pheno).blocks)
        assert capsys.readouterr().err.startswith("warning: parsed dosages not cached: ")
