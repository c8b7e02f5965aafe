"""Synthetic cohorts with planted block-polygenic signals, and power tables.

Generates LD-blocked genotype windows, plants an additive score over
block-center SNPs (mono-directional or random-sign), scales noise to a
target variance explained, and compares the wavelet screen against a
per-SNP linear-model GWAS baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import stdtr

from wavescreen import bayes, dataio, nullsim

DEFAULT_H2 = 0.02  # desk-scale default; 0.005 is typical for a top GWAS hit
# (label, lo, hi): the replicates whose component count k lies in [lo, hi]
POWER_BINS = [("overall", 1, 10**9), ("1-5", 1, 5), ("6-10", 6, 10), ("11-15", 11, 15),
              ("16-20", 16, 20), (">=21", 21, 10**9)]
FLIP_CHUNK_ROWS = 64  # SNP rows of flip draws held at once by generate_genotypes
REPLICATE_SEED_STRIDE = 1_000_003  # replicate r of seed s draws with seed s * stride + r


@dataclass(frozen=True)
class PlantedSignal:
    """Causal SNP set with effect signs and target variance explained."""

    causal_snp_indices: np.ndarray
    signs: np.ndarray
    heritability: float

    def __post_init__(self):
        if not 0.0 < self.heritability < 1.0:
            raise ValueError("heritability must lie in (0, 1)")


@dataclass
class SyntheticWindowCohort(dataio.ChromosomeBlock):
    """One synthetic window: its SNPs as chromosome "1", and the SNP at each LD block's center.

    Its store is float64 dosages, not codes: ``power`` hands every dosage to
    ``gwas_lm_baseline``, which would hold a decoded float64 copy beside codes.
    """

    block_center_indices: np.ndarray


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
        raise ValueError("n and n_snps must be positive")
    if not 1 <= n_blocks <= n_snps:
        raise ValueError("n_blocks must lie in [1, n_snps]")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    freqs = rng.uniform(0.05, 0.5, size=n_blocks)
    block_of_snp = np.minimum(
        (np.arange(n_snps) * n_blocks) // n_snps, n_blocks - 1
    )
    dosages = np.zeros((n_snps, n))
    for _hap in range(2):
        latent = rng.random((n_blocks, n)) < freqs[:, None]  # (blocks, n)
        # the generator fills arrays in order, so row chunks draw the same
        # stream as one (n_snps, n) array without holding it
        for lo in range(0, n_snps, FLIP_CHUNK_ROWS):
            hi = min(lo + FLIP_CHUNK_ROWS, n_snps)
            dosages[lo:hi] += latent[block_of_snp[lo:hi]] ^ (rng.random((hi - lo, n)) < flip_prob)
    spacing = span_bp / (n_snps + 1)
    jitter = rng.uniform(-0.3, 0.3, size=n_snps) * spacing
    positions = np.sort((np.arange(1, n_snps + 1) * spacing + jitter).astype(np.int64))
    # strictly increasing: each position at least one past its predecessor
    idx = np.arange(n_snps)
    positions = np.maximum.accumulate(positions - idx) + idx
    centers = np.array(
        [int(np.mean(np.where(block_of_snp == b)[0])) for b in range(n_blocks)]
    )
    return SyntheticWindowCohort(
        chromosome="1",
        positions=positions,
        imputation_quality=np.ones(n_snps),
        store=dosages,
        block_center_indices=centers,
    )


def synthetic_window(
    cohort: SyntheticWindowCohort,
    min_snps_per_coeff: float = dataio.DEFAULT_MIN_SNPS_PER_COEFF,
) -> dataio.Window:
    """One Window spanning every SNP of a synthetic cohort."""
    depth = dataio.window_depth(cohort.n_snps, min_snps_per_coeff)
    if depth < 0:
        raise ValueError("too few SNPs for the requested coefficient density")
    return dataio.Window(
        cohort.chromosome, int(cohort.positions[0]), int(cohort.positions[-1]) + 1,
        0, cohort.n_snps, depth,
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
        raise ValueError("more components than blocks")
    idx = rng.choice(cohort.block_center_indices, size=n_components, replace=False)
    idx = np.sort(idx)
    if direction_mode == "mono":
        signs = np.ones(n_components, dtype=int)
    elif direction_mode == "random":
        signs = rng.choice([-1, 1], size=n_components)
    else:
        raise ValueError(f"unknown direction mode {direction_mode!r}")
    return PlantedSignal(
        causal_snp_indices=idx,
        signs=signs,
        heritability=heritability,
    )


def simulate_phenotype(
    cohort: SyntheticWindowCohort, signal: PlantedSignal, seed: int = 0
) -> np.ndarray:
    """Score = signed dosage sum over causal SNPs, plus scaled normal noise.

    Noise variance is s^2 (1 - h^2) / h^2 with s^2 the score variance, so
    the score explains h^2 of the total phenotypic variance in expectation.
    """
    score = signal.signs @ cohort.dosages(signal.causal_snp_indices)
    s2 = float(np.var(score))
    if s2 <= 0.0:
        raise ValueError("planted score has zero variance (monomorphic SNPs?)")
    h2 = signal.heritability
    noise_sd = np.sqrt(s2 * (1.0 - h2) / h2)
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 2], dtype=np.uint64)))
    return score + rng.normal(0.0, noise_sd, size=cohort.n)


def gwas_lm_baseline(dosages: np.ndarray, phenotype: np.ndarray) -> np.ndarray:
    """Per-SNP two-sided t-test p-values from OLS of phenotype on dosage.

    ``phenotype`` is (R, n) for R traits (an (n,) phenotype is one row), and
    the p-values are (R, m). The intercept is projected out of both sides;
    the residual dosages, their norms and the testable mask are computed
    once for all traits. Monomorphic SNPs get p = 1. ``bayes.build_design``
    rejects a constant phenotype.
    """
    G = np.asarray(dosages, dtype=float)
    Y = np.atleast_2d(np.asarray(phenotype, dtype=float))
    n = Y.shape[1]
    ctx = bayes.build_design(Y.T)  # one orthonormal intercept basis for every trait
    basis, q = ctx.basis, ctx.q
    if n <= q + 2:
        raise ValueError("too few individuals for the per-SNP t-test")
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
    for r in range(len(Y)):
        gy = ctx.x_tilde[:, r] @ Gt
        beta = np.zeros_like(gy)
        beta[ok] = gy[ok] / gg[ok]
        rss = ctx.n - beta ** 2 * gg  # x'x = n for each column
        with np.errstate(divide="ignore", invalid="ignore"):
            tstat = beta * np.sqrt(gg * dof / np.maximum(rss, 1e-300))
        pvals[r, ok] = 2.0 * stdtr(dof, -np.abs(tstat[ok]))
    return pvals


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
    min_snps_per_coeff: float = dataio.DEFAULT_MIN_SNPS_PER_COEFF


@dataclass
class PowerRow:
    method: str
    bin_label: str
    detections: int
    trials: int

    @property
    def power(self) -> float:
        return self.detections / self.trials


def _check_config(config: PowerConfig) -> None:
    """Raise ValueError naming the first key whose value a run cannot use."""
    # replicate seeds are seed * stride + rep and must fit a 64-bit Philox key
    max_seed = (2**64 - config.replicates) // REPLICATE_SEED_STRIDE
    for key, ok, allowed in (
        ("n", config.n >= 1, "at least 1"),
        ("n_snps", config.n_snps >= 1, "at least 1"),
        ("n_blocks", 1 <= config.n_blocks <= config.n_snps, f"in [1, n_snps = {config.n_snps}]"),
        ("flip_prob", 0.0 <= config.flip_prob <= 1.0, "in [0, 1]"),
        ("replicates", config.replicates >= 1, "at least 1"),
        ("direction_mode", config.direction_mode in ("mono", "random"), "'mono' or 'random'"),
        ("heritability", 0.0 < config.heritability < 1.0, "in (0, 1)"),
        ("alpha", 0.0 < config.alpha <= 1.0, "in (0, 1]"),
        ("max_components", 1 <= config.max_components <= config.n_blocks,
         f"in [1, n_blocks = {config.n_blocks}]"),
        ("null_m", config.null_m >= 1, "at least 1"),
        ("seed", 0 <= config.seed <= max_seed, f"in [0, {max_seed}]"),
        ("min_snps_per_coeff", 0.0 < config.min_snps_per_coeff < np.inf
         and dataio.window_depth(config.n_snps, config.min_snps_per_coeff) >= 0,
         f"positive, finite and at most n_snps / {dataio.DEFAULT_DEPTH_SLACK} = "
         f"{config.n_snps / dataio.DEFAULT_DEPTH_SLACK:g}"),
    ):
        if not ok:
            raise ValueError(
                f"power config {key} = {getattr(config, key)!r}: must be {allowed}"
            )


def power_experiment(config: PowerConfig, cache_dir: str | None = None):
    """Run replicated planted-signal screens and tabulate detection rates.

    Returns (rows, detail) where rows are PowerRow bins per method and
    detail is a per-replicate record list. Every replicate's phenotype is
    drawn first into one design; then ``nullsim.screen_windows``, the path
    from windows to results of ``screen`` too, builds the null model of the
    window's depth (warning when its tail fit fails) and screens the window
    for every replicate (a degenerate screen gets p = 1), and one
    ``gwas_lm_baseline`` call tests its SNPs. The
    configuration is checked before any of that work; an error names the
    bad key.
    """
    _check_config(config)
    cohort = generate_genotypes(
        config.n, config.n_snps, config.n_blocks, config.flip_prob, seed=config.seed
    )
    window = synthetic_window(cohort, config.min_snps_per_coeff)

    rng = np.random.Generator(np.random.Philox(key=np.array([config.seed, 3], dtype=np.uint64)))
    detail, phenotypes = [], []
    for rep in range(config.replicates):
        k = int(rng.integers(1, config.max_components + 1))
        seed = config.seed * REPLICATE_SEED_STRIDE + rep
        sig = plant_signal(cohort, k, config.heritability, config.direction_mode, seed=seed)
        phenotypes.append(simulate_phenotype(cohort, sig, seed=seed))
        detail.append({"replicate": rep, "k": k})
    phenotypes = np.stack(phenotypes)
    # the spectra depend on the genotypes only, so one screen serves every replicate
    results = nullsim.screen_windows(
        [window], {window.chromosome: cohort}, bayes.build_design(phenotypes.T), ("c", "d"),
        config.null_m, config.seed, cache_dir, config.alpha, threads=1)
    for rec, res in zip(detail * 2, results):  # every replicate's c result, then its d
        rec[f"p_ws_{res.coefficient_kind}"] = 1.0 if res.degenerate else res.p_value
    # regional GWAS decision: Bonferroni over the window's SNPs, so both
    # methods are compared at the same region-level alpha
    gwas = gwas_lm_baseline(cohort.dosages(), phenotypes)
    for rec, pvals in zip(detail, gwas):
        rec["p_gwas"] = min(1.0, cohort.n_snps * float(np.min(pvals)))

    rows = []
    for method, key in (("WS-c", "p_ws_c"), ("WS-d", "p_ws_d"), ("GWAS-LM", "p_gwas")):
        for label, lo, hi in POWER_BINS:
            subset = [r for r in detail if lo <= r["k"] <= hi]
            if subset:
                rows.append(PowerRow(method, label, sum(r[key] <= config.alpha for r in subset),
                                     len(subset)))
    return rows, detail
