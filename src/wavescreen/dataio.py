"""Genotype/phenotype/covariate ingestion and screening-window definition."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MIN_IMPUTATION_QUALITY = 0.7

DEFAULT_WINDOW_BP = 1_000_000
DEFAULT_OVERLAP = 0.5
DEFAULT_MAX_GAP_BP = 10_000
DEFAULT_MIN_SNPS_PER_COEFF = 10.0
# "at least N SNPs per coefficient on average" is applied with this slack so
# that densities just under the nominal value (e.g. 9.7 vs 10) still qualify.
DEFAULT_DEPTH_SLACK = 0.95


class DataError(ValueError):
    """Malformed or inconsistent input data."""


@dataclass(frozen=True)
class SnpRecord:
    """One SNP row: genomic position, imputation quality and per-individual dosages."""

    chromosome: str
    position: int
    snp_id: str
    imputation_quality: float
    dosages: np.ndarray


@dataclass
class ChromosomeBlock:
    """All retained SNPs of one chromosome, sorted by position."""

    chromosome: str
    positions: np.ndarray  # int64, strictly increasing
    snp_ids: list[str]
    imputation_quality: np.ndarray
    dosages: np.ndarray  # (n_snps, n_individuals)

    @property
    def n_snps(self) -> int:
        return len(self.positions)

    def record(self, i: int) -> SnpRecord:
        return SnpRecord(
            chromosome=self.chromosome,
            position=int(self.positions[i]),
            snp_id=self.snp_ids[i],
            imputation_quality=float(self.imputation_quality[i]),
            dosages=self.dosages[i],
        )


@dataclass
class CohortData:
    """Validated cohort: dosage matrices per chromosome, phenotype and covariates."""

    blocks: dict[str, ChromosomeBlock]
    phenotype: np.ndarray  # (n,)
    covariates: np.ndarray  # (n, c); c may be 0

    @property
    def n(self) -> int:
        return len(self.phenotype)

    @property
    def n_snps(self) -> int:
        return sum(b.n_snps for b in self.blocks.values())

    def chromosomes(self) -> list[str]:
        return list(self.blocks)


@dataclass(frozen=True)
class Window:
    """A contiguous genomic region selected for screening."""

    chromosome: str
    start_bp: int
    end_bp: int
    snp_start: int  # half-open index range into the chromosome's SNP list
    snp_end: int
    n_snps: int
    grid_exponent: int  # J: smallest J with 2^J >= n_snps
    depth: int  # deepest analyzed wavelet scale


def _parse_float(token: str, what: str, line_no: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise DataError(f"line {line_no}: non-numeric {what}: {token!r}") from None


def _read_matrix(path: str, what: str) -> np.ndarray:
    """Read a whitespace/tab separated numeric matrix, tolerating one header row."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            tokens = line.split()
            if line_no == 1:
                try:
                    [float(t) for t in tokens]
                except ValueError:
                    continue  # header row
            rows.append([_parse_float(t, what, line_no) for t in tokens])
    if not rows:
        raise DataError(f"{what} file {path} is empty")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise DataError(f"{what} file {path} has ragged rows (widths {sorted(widths)})")
    return np.asarray(rows, dtype=float)


def load_cohort(
    genotype_path: str,
    phenotype_path: str,
    covariate_path: str | None = None,
    min_iq: float = MIN_IMPUTATION_QUALITY,
) -> CohortData:
    """Load and validate a cohort from TSV files.

    Genotype format: header ``chrom pos id iq s1 ... sn``, one SNP per row.
    SNPs with imputation quality below ``min_iq`` are dropped. Rows are
    normalized by sorting on (chromosome, position); duplicate positions
    within a chromosome are rejected.
    """
    raw: dict[str, list[tuple[int, str, float, np.ndarray]]] = {}
    n_ind = None
    with open(genotype_path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            tokens = line.split()
            if line_no == 1 and tokens[0].lower() in ("chrom", "chromosome", "chr", "#chrom"):
                continue
            if len(tokens) < 5:
                raise DataError(f"line {line_no}: expected >= 5 columns, got {len(tokens)}")
            chrom, pos_s, snp_id, iq_s = tokens[:4]
            pos = int(_parse_float(pos_s, "position", line_no))
            iq = _parse_float(iq_s, "imputation quality", line_no)
            if not 0.0 <= iq <= 1.0:
                raise DataError(f"line {line_no}: imputation quality {iq} outside [0,1]")
            dosages = np.array(
                [_parse_float(t, "dosage", line_no) for t in tokens[4:]], dtype=float
            )
            if n_ind is None:
                n_ind = len(dosages)
            elif len(dosages) != n_ind:
                raise DataError(
                    f"line {line_no}: {len(dosages)} dosages, expected {n_ind}"
                )
            if np.any(dosages < 0.0) or np.any(dosages > 2.0):
                bad = dosages[(dosages < 0.0) | (dosages > 2.0)][0]
                raise DataError(f"line {line_no}: dosage {bad} outside [0,2]")
            if iq < min_iq:
                continue
            raw.setdefault(chrom, []).append((pos, snp_id, iq, dosages))
    if n_ind is None:
        raise DataError(f"genotype file {genotype_path} has no SNP rows")

    blocks: dict[str, ChromosomeBlock] = {}
    for chrom in sorted(raw):
        rows = sorted(raw[chrom], key=lambda r: r[0])
        positions = np.array([r[0] for r in rows], dtype=np.int64)
        if np.any(np.diff(positions) == 0):
            dup = positions[np.where(np.diff(positions) == 0)[0][0]]
            raise DataError(f"duplicate position {dup} on chromosome {chrom}")
        blocks[chrom] = ChromosomeBlock(
            chromosome=chrom,
            positions=positions,
            snp_ids=[r[1] for r in rows],
            imputation_quality=np.array([r[2] for r in rows], dtype=float),
            dosages=np.vstack([r[3] for r in rows]),
        )
    if not blocks:
        raise DataError("no SNPs passed the imputation-quality filter")

    phenotype = _read_matrix(phenotype_path, "phenotype").ravel()
    if len(phenotype) != n_ind:
        raise DataError(
            f"phenotype has {len(phenotype)} rows but genotypes have {n_ind} individuals"
        )
    if np.var(phenotype) == 0.0:
        raise DataError("phenotype has zero variance")

    if covariate_path is not None:
        covariates = _read_matrix(covariate_path, "covariate")
        if covariates.ndim == 1:
            covariates = covariates[:, None]
        if covariates.shape[0] != n_ind:
            raise DataError(
                f"covariates have {covariates.shape[0]} rows but cohort has {n_ind}"
            )
    else:
        covariates = np.empty((n_ind, 0))

    return CohortData(blocks=blocks, phenotype=phenotype, covariates=covariates)


def grid_exponent(n_snps: int) -> int:
    """Smallest J with 2^J >= n_snps."""
    if n_snps < 1:
        raise ValueError("need at least one SNP")
    return (n_snps - 1).bit_length()


def window_depth(
    n_snps: int,
    min_snps_per_coeff: float = DEFAULT_MIN_SNPS_PER_COEFF,
    slack: float = DEFAULT_DEPTH_SLACK,
) -> int:
    """Deepest scale such that n_snps / 2^depth >= min_snps_per_coeff * slack.

    Capped so that detail coefficients remain defined (block size >= 2 grid
    points, i.e. depth <= J - 1).
    """
    effective = min_snps_per_coeff * slack
    if n_snps < effective:
        return -1
    depth = int(math.floor(math.log2(n_snps / effective)))
    return min(depth, grid_exponent(n_snps) - 1) if n_snps > 1 else 0


def define_windows(
    cohort: CohortData,
    window_bp: int = DEFAULT_WINDOW_BP,
    overlap_fraction: float = DEFAULT_OVERLAP,
    max_gap_bp: int = DEFAULT_MAX_GAP_BP,
    min_snps_per_coeff: float = DEFAULT_MIN_SNPS_PER_COEFF,
    depth_slack: float = DEFAULT_DEPTH_SLACK,
    depth_cap: int | None = None,
) -> list[Window]:
    """Tile each chromosome into candidate windows and keep the dense ones.

    Windows start at the chromosome's first SNP and advance by
    ``window_bp * (1 - overlap_fraction)``. A candidate is kept only if no
    two consecutive SNPs inside it are more than ``max_gap_bp`` apart and
    it holds enough SNPs for at least the scale-0 coefficient.
    """
    if window_bp <= 0:
        raise ValueError("window_bp must be positive")
    if not 0.0 <= overlap_fraction < 1.0:
        raise ValueError("overlap_fraction must be in [0, 1)")
    if max_gap_bp <= 0:
        raise ValueError("max_gap_bp must be positive")
    if min_snps_per_coeff <= 0:
        raise ValueError("min_snps_per_coeff must be positive")

    stride = int(round(window_bp * (1.0 - overlap_fraction)))
    stride = max(stride, 1)
    windows: list[Window] = []
    for chrom in cohort.chromosomes():
        block = cohort.blocks[chrom]
        pos = block.positions
        if len(pos) == 0:
            continue
        first, last = int(pos[0]), int(pos[-1])
        start = first
        while start + window_bp <= last:
            end = start + window_bp
            lo = int(np.searchsorted(pos, start, side="left"))
            hi = int(np.searchsorted(pos, end, side="right"))
            win = _candidate(
                block, start, end, lo, hi, max_gap_bp, min_snps_per_coeff,
                depth_slack, depth_cap,
            )
            if win is not None:
                windows.append(win)
            start += stride
    return windows


def _candidate(
    block: ChromosomeBlock,
    start: int,
    end: int,
    lo: int,
    hi: int,
    max_gap_bp: int,
    min_snps_per_coeff: float,
    depth_slack: float,
    depth_cap: int | None,
) -> Window | None:
    n_snps = hi - lo
    if n_snps < max(min_snps_per_coeff, 2):
        return None
    gaps = np.diff(block.positions[lo:hi])
    if len(gaps) and int(gaps.max()) > max_gap_bp:
        return None
    depth = window_depth(n_snps, min_snps_per_coeff, depth_slack)
    if depth < 0:
        return None
    if depth_cap is not None:
        depth = min(depth, depth_cap)
    return Window(
        chromosome=block.chromosome,
        start_bp=start,
        end_bp=end,
        snp_start=lo,
        snp_end=hi,
        n_snps=n_snps,
        grid_exponent=grid_exponent(n_snps),
        depth=depth,
    )
