"""Shared fixtures: small synthetic cohorts written as TSV files."""

import os

import numpy as np
import pytest

from wavescreen import simharness


def write_cohort_files(tmp_path, cohort, phenotype, covariates=None, prefix="cohort"):
    """Write a SyntheticWindowCohort in the loader's TSV format.

    Returns (genotype_path, phenotype_path, covariate_path_or_None).
    """
    geno = tmp_path / f"{prefix}_geno.tsv"
    with open(geno, "w", encoding="utf-8") as fh:
        fh.write("chrom\tpos\tid\tiq\t" + "\t".join(
            f"s{i}" for i in range(cohort.n)) + "\n")
        for i in range(cohort.n_snps):
            row = "\t".join(f"{d:.6g}" for d in cohort.dosages(i))
            fh.write(f"1\t{cohort.positions[i]}\tsnp{i}\t1.0\t{row}\n")
    pheno = tmp_path / f"{prefix}_pheno.tsv"
    np.savetxt(pheno, np.asarray(phenotype))
    cov_path = None
    if covariates is not None:
        cov_path = tmp_path / f"{prefix}_cov.tsv"
        np.savetxt(cov_path, np.asarray(covariates))
    return str(geno), str(pheno), (str(cov_path) if cov_path else None)


@pytest.fixture
def small_cohort():
    """256-SNP, 120-individual synthetic window cohort."""
    return simharness.generate_genotypes(
        n=120, n_snps=256, n_blocks=8, flip_prob=0.15, span_bp=200_000, seed=7
    )


@pytest.fixture
def small_phenotype(small_cohort):
    rng = np.random.default_rng(11)
    return rng.standard_normal(small_cohort.n)


@pytest.fixture(autouse=True)
def no_stray_child_processes():
    """Fail a test that leaves a child process unreaped, running or not."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left an unreaped child process (waitpid gave pid {pid})")
