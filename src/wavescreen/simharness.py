"""Synthetic cohorts with planted block-polygenic signals, and power tables.

Generates LD-blocked genotype windows, plants an additive score over
block-center SNPs (mono-directional or random-sign), scales noise to a
target variance explained, and compares the wavelet screen against a
per-SNP linear-model GWAS baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from wavescreen import bayes, screening
from wavescreen.dataio import ChromosomeBlock, CohortData, Window
from wavescreen.nullsim import load_or_build_null_model, p_value

DEFAULT_H2 = 0.02  # desk-scale default; 0.005 is typical for a top GWAS hit
POWER_BINS = [(1, 5), (6, 10), (11, 15), (16, 20), (21, 10**9)]


class SimulationError(ValueError):
    """Invalid simulation setup."""


@dataclass(frozen=True)
class PlantedSignal:
    """Causal SNP set with effect signs and target variance explained."""

    causal_snp_indices: np.ndarray
    signs: np.ndarray
    heritability: float
    direction_mode: str  # "mono" | "random"

    def __post_init__(self):
        if not 0.0 < self.heritability < 1.0:
            raise SimulationError("heritability must lie in (0, 1)")
        if len(set(self.causal_snp_indices.tolist())) != len(self.causal_snp_indices):
            raise SimulationError("causal SNP indices must be distinct")
        if self.direction_mode == "mono" and np.any(self.signs != 1):
            raise SimulationError("mono mode requires all signs +1")


@dataclass
class SyntheticWindowCohort:
    """One synthetic window: dosages, positions and block bookkeeping."""

    positions: np.ndarray  # int bp
    dosages: np.ndarray  # (n_snps, n)
    block_of_snp: np.ndarray
    block_center_indices: np.ndarray
    allele_frequencies: np.ndarray  # per block

    @property
    def n(self) -> int:
        return self.dosages.shape[1]

    @property
    def n_snps(self) -> int:
        return self.dosages.shape[0]

    def as_block(self, chromosome: str = "1") -> ChromosomeBlock:
        return ChromosomeBlock(
            chromosome=chromosome,
            positions=self.positions,
            snp_ids=[f"snp{i}" for i in range(self.n_snps)],
            imputation_quality=np.ones(self.n_snps),
            dosages=self.dosages,
        )

    def as_cohort(self, phenotype: np.ndarray, covariates: np.ndarray | None = None,
                  chromosome: str = "1") -> CohortData:
        cov = covariates if covariates is not None else np.empty((self.n, 0))
        return CohortData(
            blocks={chromosome: self.as_block(chromosome)}, phenotype=phenotype, covariates=cov
        )


def generate_genotypes(
    n: int,
    n_snps: int,
    n_blocks: int = 28,
    flip_prob: float = 0.1,
    span_bp: int = 1_000_000,
    seed: int = 0,
) -> SyntheticWindowCohort:
    """Sample an LD-blocked dosage window.

    Each block draws an allele frequency from U(0.05, 0.5); per individual
    and haplotype, a latent block allele is copied to every SNP of the
    block with per-SNP flip probability ``flip_prob`` (0 gives a perfectly
    correlated block, 0.5 gives independent SNPs). Positions are evenly
    spaced with jitter.
    """
    if n < 1 or n_snps < 1:
        raise SimulationError("n and n_snps must be positive")
    if not 1 <= n_blocks <= n_snps:
        raise SimulationError("n_blocks must lie in [1, n_snps]")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    freqs = rng.uniform(0.05, 0.5, size=n_blocks)
    block_of_snp = np.minimum(
        (np.arange(n_snps) * n_blocks) // n_snps, n_blocks - 1
    )
    dosages = np.zeros((n_snps, n))
    for _hap in range(2):
        latent = rng.random((n_blocks, n)) < freqs[:, None]  # (blocks, n)
        alleles = latent[block_of_snp]  # (n_snps, n)
        flips = rng.random((n_snps, n)) < flip_prob
        dosages += np.where(flips, ~alleles, alleles)
    spacing = span_bp / (n_snps + 1)
    jitter = rng.uniform(-0.3, 0.3, size=n_snps) * spacing
    positions = np.sort((np.arange(1, n_snps + 1) * spacing + jitter).astype(np.int64))
    positions = _deduplicate(positions)
    centers = np.array(
        [int(np.mean(np.where(block_of_snp == b)[0])) for b in range(n_blocks)]
    )
    return SyntheticWindowCohort(
        positions=positions,
        dosages=dosages,
        block_of_snp=block_of_snp,
        block_center_indices=centers,
        allele_frequencies=freqs,
    )


def _deduplicate(positions: np.ndarray) -> np.ndarray:
    pos = positions.copy()
    for i in range(1, len(pos)):
        if pos[i] <= pos[i - 1]:
            pos[i] = pos[i - 1] + 1
    return pos


def synthetic_window(
    cohort: SyntheticWindowCohort, min_snps_per_coeff: float = 10.0
) -> Window:
    """One Window spanning every SNP of a synthetic cohort."""
    from wavescreen.dataio import grid_exponent, window_depth

    n_snps = cohort.n_snps
    depth = window_depth(n_snps, min_snps_per_coeff)
    if depth < 0:
        raise SimulationError("too few SNPs for the requested coefficient density")
    return Window(
        chromosome="1",
        start_bp=int(cohort.positions[0]),
        end_bp=int(cohort.positions[-1]) + 1,
        snp_start=0,
        snp_end=n_snps,
        n_snps=n_snps,
        grid_exponent=grid_exponent(n_snps),
        depth=depth,
    )


def plant_signal(
    cohort: SyntheticWindowCohort,
    n_components: int,
    heritability: float,
    direction_mode: str = "mono",
    seed: int = 0,
) -> PlantedSignal:
    """Pick ``n_components`` block-center SNPs as the causal set."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 1], dtype=np.uint64)))
    if n_components > len(cohort.block_center_indices):
        raise SimulationError("more components than blocks")
    idx = rng.choice(cohort.block_center_indices, size=n_components, replace=False)
    idx = np.sort(idx)
    if direction_mode == "mono":
        signs = np.ones(n_components, dtype=int)
    elif direction_mode == "random":
        signs = rng.choice([-1, 1], size=n_components)
    else:
        raise SimulationError(f"unknown direction mode {direction_mode!r}")
    return PlantedSignal(
        causal_snp_indices=idx,
        signs=signs,
        heritability=heritability,
        direction_mode=direction_mode,
    )


def simulate_phenotype(
    cohort: SyntheticWindowCohort, signal: PlantedSignal, seed: int = 0
) -> np.ndarray:
    """Score = signed dosage sum over causal SNPs, plus scaled normal noise.

    Noise variance is s^2 (1 - h^2) / h^2 with s^2 the score variance, so
    the score explains h^2 of the total phenotypic variance in expectation.
    """
    score = signal.signs @ cohort.dosages[signal.causal_snp_indices]
    s2 = float(np.var(score))
    if s2 <= 0.0:
        raise SimulationError("planted score has zero variance (monomorphic SNPs?)")
    h2 = signal.heritability
    noise_sd = np.sqrt(s2 * (1.0 - h2) / h2)
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 2], dtype=np.uint64)))
    return score + rng.normal(0.0, noise_sd, size=cohort.n)


def gwas_lm_baseline(
    dosages: np.ndarray,
    phenotype: np.ndarray,
    covariates: np.ndarray | None = None,
) -> np.ndarray:
    """Per-SNP two-sided t-test p-values from OLS of phenotype on dosage.

    ``phenotype`` is (n,) for one trait, giving (m,) p-values, or (R, n)
    for R traits, giving (R, m). Intercept and covariates are projected out
    of both sides; the residual dosages, their norms and the testable mask
    are computed once for all traits. Monomorphic SNPs get p = 1.
    """
    G = np.asarray(dosages, dtype=float)
    Y = np.asarray(phenotype, dtype=float)
    single = Y.ndim == 1
    Y = Y.reshape(1, -1) if single else Y
    n = Y.shape[1]
    C = covariates if covariates is not None else np.empty((n, 0))
    ctxs = []
    for y in Y:
        if np.var(y) == 0.0:
            raise SimulationError("phenotype has zero variance")
        ctxs.append(bayes.build_design(y, C))  # reuse the orthonormal nuisance basis
    basis, q = ctxs[0].basis, ctxs[0].q  # depends on the covariates only
    if n <= q + 2:
        raise SimulationError("too few individuals for the per-SNP t-test")
    # (n, m) residual dosages, subtracted in place of the projection so that
    # only one (n, m) temporary exists
    Gt = basis @ (basis.T @ G.T)
    np.subtract(G.T, Gt, out=Gt)
    gg = np.einsum("ij,ij->j", Gt, Gt)
    dof = n - q - 1
    # monomorphic (or covariate-collinear) dosage columns leave only
    # floating-point residue after projection; treat them as untestable
    ok = gg > 1e-10 * np.einsum("ij,ij->i", G, G)
    pvals = np.ones((len(Y), G.shape[0]))
    for r, ctx in enumerate(ctxs):
        yt = ctx.x_tilde
        gy = yt @ Gt
        beta = np.zeros_like(gy)
        beta[ok] = gy[ok] / gg[ok]
        rss = float(yt @ yt) - beta ** 2 * gg
        with np.errstate(divide="ignore", invalid="ignore"):
            tstat = beta * np.sqrt(gg * dof / np.maximum(rss, 1e-300))
        pvals[r, ok] = 2.0 * stats.t.sf(np.abs(tstat[ok]), dof)
    return pvals[0] if single else pvals


@dataclass
class PowerConfig:
    """Configuration of a power experiment (see Tables 1-2 layout)."""

    n: int = 3000
    n_snps: int = 896
    n_blocks: int = 28
    flip_prob: float = 0.1
    replicates: int = 200
    heritability: float = DEFAULT_H2
    direction_mode: str = "mono"
    alpha: float = 1e-4
    max_components: int = 28
    null_m: int = 100_000
    seed: int = 0
    min_snps_per_coeff: float = 10.0


@dataclass
class PowerRow:
    method: str
    bin_label: str
    detections: int
    trials: int

    @property
    def power(self) -> float:
        return self.detections / self.trials if self.trials else float("nan")


def _standardized(phenotype: np.ndarray) -> np.ndarray:
    # fixed x'x across replicates -> one shared lambda1 and null model
    y = phenotype - phenotype.mean()
    return y / y.std(ddof=0)


def power_experiment(config: PowerConfig, cache_dir: str | None = None):
    """Run replicated planted-signal screens and tabulate detection rates.

    Returns (rows, detail) where rows are PowerRow bins per method and
    detail is a per-replicate record list. Phenotypes are standardized so
    all replicates share one design constant and null model. The window's
    genotype-only work is done once per call: one ``window_spectra`` pass
    for both kinds before the replicate loop, and one ``gwas_lm_baseline``
    call on all replicates' phenotypes after it.
    """
    cohort = generate_genotypes(
        config.n, config.n_snps, config.n_blocks, config.flip_prob, seed=config.seed
    )
    window = synthetic_window(cohort, config.min_snps_per_coeff)

    probe = bayes.build_design(_standardized(np.arange(config.n, dtype=float)))
    lam1 = bayes.lambda1(probe)
    null_model = load_or_build_null_model(
        lam1, window.depth, config.null_m, config.seed, cache_dir
    )

    # the spectra depend on the genotypes only: one pass serves every replicate
    spectra = screening.window_spectra(window, cohort.as_block(), ("c", "d"))
    rng = np.random.Generator(np.random.Philox(key=np.array([config.seed, 3], dtype=np.uint64)))
    detail, phenotypes = [], []
    for rep in range(config.replicates):
        k = int(rng.integers(1, config.max_components + 1))
        sig = plant_signal(
            cohort, k, config.heritability, config.direction_mode,
            seed=config.seed * 1_000_003 + rep,
        )
        phe = simulate_phenotype(cohort, sig, seed=config.seed * 1_000_003 + rep)
        phe = _standardized(phe)
        ctx = bayes.build_design(phe)
        rec = {"replicate": rep, "k": k}
        for kind in ("c", "d"):
            res = screening.screen_spectra(window, *spectra[kind], ctx, kind)
            rec[f"p_ws_{kind}"] = p_value(null_model, res.lambda_hat)
        detail.append(rec)
        phenotypes.append(phe)
    del spectra
    if detail:
        # regional GWAS decision: Bonferroni over the window's SNPs, so both
        # methods are compared at the same region-level alpha
        gwas = gwas_lm_baseline(cohort.dosages, np.stack(phenotypes))
        for rec, pvals in zip(detail, gwas):
            rec["p_gwas"] = min(1.0, cohort.n_snps * float(np.min(pvals)))

    rows = []
    for method, key in (("WS-c", "p_ws_c"), ("WS-d", "p_ws_d"), ("GWAS-LM", "p_gwas")):
        rows.append(PowerRow(
            method=method,
            bin_label="overall",
            detections=sum(r[key] <= config.alpha for r in detail),
            trials=len(detail),
        ))
        for lo, hi in POWER_BINS:
            subset = [r for r in detail if lo <= r["k"] <= hi]
            if not subset:
                continue
            label = f"{lo}-{hi}" if hi < 10**9 else f">={lo}"
            rows.append(PowerRow(
                method=method,
                bin_label=label,
                detections=sum(r[key] <= config.alpha for r in subset),
                trials=len(subset),
            ))
    return rows, detail
