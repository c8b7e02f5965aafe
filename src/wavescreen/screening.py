"""Per-locus evidence aggregation over per-scale association proportions.

Within a window, the Bayes factors of all analyzed coefficients combine into
the likelihood ratio Lambda(pi) = prod_{s,l} [pi_s BF_sl + (1 - pi_s)]. The
product factorizes over scales, so each pi_s is found separately by
``max_log_lambda``, a bracketed Newton solver in log space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import chi2

from wavescreen import wavelet
from wavescreen.bayes import DesignContext, log_bayes_factor
from wavescreen.dataio import ChromosomeBlock, CohortData, Window

# names the Lambda-hat solver in null-cache keys, so samples drawn by an
# earlier solver are rebuilt rather than reused
SOLVER_VERSION = "newton1"


class ScreeningError(ValueError):
    """Invalid input to a screening operation."""


@dataclass
class LocusResult:
    """Everything screened for one window and one coefficient kind."""

    window: Window
    coefficient_kind: str  # "c" or "d"
    bf: list[np.ndarray]  # per scale, BF of non-degenerate coefficients
    locations: list[np.ndarray]  # per scale, locations matching ``bf``
    pi_hat: np.ndarray
    lambda_hat: float
    posterior_gamma: list[np.ndarray]
    degenerate: bool = False  # all coefficients degenerate
    p_value: float | None = None


def _check_bfs(bfs_by_scale: list[np.ndarray]) -> list[np.ndarray]:
    out = []
    for bf in bfs_by_scale:
        bf = np.asarray(bf, dtype=float)
        if bf.size and np.any(bf <= 0.0):
            raise ScreeningError("Bayes factors must be positive")
        out.append(bf)
    return out


def max_log_lambda(bf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maximize log Lambda(pi) = sum_l log1p(pi (BF_l - 1)) over pi in [0, 1], per row.

    ``bf`` is (R, K) with positive entries; returns (pi_hat, log_lambda_hat),
    each of length R. The objective is concave, so the score
    g(pi) = sum_l (BF_l - 1) / (1 + pi (BF_l - 1)) decides boundary rows
    exactly from its sign at 0 and 1. Interior rows run Newton's method on g
    inside a bracket [lo, hi] that always holds the root, bisecting whenever
    a Newton step would leave it; a row stops when g is exactly zero or the
    bracket can no longer be split. pi = 0 gives exactly 0, so a row whose
    objective rounds below 0 returns pi = 0, and log_lambda_hat >= 0.
    """
    bf = np.atleast_2d(np.asarray(bf, dtype=float))
    b = bf - 1.0
    pi = np.zeros(bf.shape[0])
    score1 = np.sum(b / bf, axis=1)
    pi[score1 >= 0.0] = 1.0
    rows = np.flatnonzero((np.sum(b, axis=1) > 0.0) & (score1 < 0.0))
    x = np.full(len(rows), 0.5)
    lo, hi = np.zeros(len(rows)), np.ones(len(rows))
    while rows.size:
        br = b[rows]
        t = br / (1.0 + x[:, None] * br)
        g = np.sum(t, axis=1)
        lo = np.where(g > 0.0, x, lo)
        hi = np.where(g < 0.0, x, hi)
        newton = x + g / np.sum(t * t, axis=1)
        mid = 0.5 * (lo + hi)
        done = (g == 0.0) | (mid <= lo) | (mid >= hi)
        pi[rows[done]] = x[done]
        keep = ~done
        x = np.where((lo < newton) & (newton < hi), newton, mid)[keep]
        rows, lo, hi = rows[keep], lo[keep], hi[keep]
    log_lam = np.sum(np.log1p(pi[:, None] * b), axis=1)
    below = log_lam < 0.0
    pi[below] = 0.0
    log_lam[below] = 0.0
    return pi, log_lam


def maximize_lambda(bfs_by_scale: list[np.ndarray]) -> tuple[np.ndarray, float]:
    """Maximized (pi_hat, Lambda_hat) over all scales of one window.

    Scales with no (non-degenerate) coefficients get pi_s = 0. Boundary
    solutions pi_s in {0, 1} are permitted.
    """
    bfs_by_scale = _check_bfs(bfs_by_scale)
    pi_hat = np.zeros(len(bfs_by_scale))
    log_lam = 0.0
    for s, bf in enumerate(bfs_by_scale):
        if bf.size:
            p, ll = max_log_lambda(bf[None, :])
            pi_hat[s] = p[0]
            log_lam += float(ll[0])
    return pi_hat, float(np.exp(log_lam))


def posterior_gamma(bf: np.ndarray, pi_s: float) -> np.ndarray:
    """Posterior association probability pi BF / (pi BF + 1 - pi)."""
    a = pi_s * np.asarray(bf, dtype=float)
    return a / (a + 1.0 - pi_s)


def fisher_combine(p_values) -> float:
    """Fisher's method: survival of chi2(2k) at -2 sum log p_i."""
    p = np.asarray(list(p_values), dtype=float)
    if p.size == 0:
        raise ScreeningError("need at least one p-value")
    if np.any(p <= 0.0) or np.any(p > 1.0):
        raise ScreeningError("p-values must lie in (0, 1]")
    stat = -2.0 * np.sum(np.log(p))
    return float(chi2.sf(stat, df=2 * len(p)))


def window_spectra(
    window: Window,
    block: ChromosomeBlock,
    kinds: tuple[str, ...],
    sigma0_sq: float = wavelet.DEFAULT_SIGMA0_SQ,
) -> dict[str, tuple[list[np.ndarray], list[np.ndarray]]]:
    """Interpolate, transform, shrink and quantile-normalize one window.

    ``block`` is the window's chromosome; ``kinds`` names the coefficient
    kinds wanted, "c" and/or "d". All of them come from one interpolation
    and one Haar pyramid of the dosages, and only "d" is shrunk, so the
    spectra depend on the genotypes alone and serve every phenotype.
    Returns {kind: (scores, degenerate)} with per-scale lists; scores[s] has
    shape (2^s, n_individuals) of Blom scores, degenerate[s] flags
    coefficients with zero cross-cohort variance.
    """
    for kind in kinds:
        if kind not in ("c", "d"):
            raise ScreeningError(f"unknown coefficient kind {kind!r}")
    sl = slice(window.snp_start, window.snp_end)
    positions = wavelet.normalize_positions(
        block.positions[sl], window.start_bp, window.end_bp
    )
    grid = wavelet.DyadicGrid(window.grid_exponent)
    W = wavelet.interpolation_matrix(positions, grid)
    # all scales <= depth derive from the 2^(depth+1) block sums, so
    # aggregate the interpolation weights before touching the dense dosages
    n_top = 1 << (window.depth + 1)
    if n_top < grid.n_points:
        W = wavelet.block_sum_matrix(grid.n_points, n_top) @ W
    # centering at 1 makes the allele flip g -> 2 - g an exact floating-point
    # negation of the input, so every linear stage below negates exactly and
    # the d-screen statistic is bitwise invariant under strand flips
    top_sums = W @ (block.dosages[sl] - 1.0)
    c, d = wavelet.haar_pyramid(top_sums, window.depth, n_grid=grid.n_points)
    spectra = {}
    for kind in kinds:
        if kind == "d":
            sig2 = wavelet.snp_noise_variance(block.imputation_quality[sl], sigma0_sq)
            _, var_d = wavelet.pyramid_variances(W, sig2, window.depth, n_grid=grid.n_points)
            coeffs = wavelet.visushrink(d, var_d, grid.n_points)
        else:
            coeffs = c
        scores, degenerate = [], []
        for arr in coeffs:
            sc, deg = wavelet.quantile_transform(arr, axis=-1)
            scores.append(sc)
            degenerate.append(np.atleast_1d(deg))
        spectra[kind] = scores, degenerate
    return spectra


def screen_spectra(
    window: Window,
    scores: list[np.ndarray],
    degenerate: list[np.ndarray],
    ctx: DesignContext,
    coefficient_kind: str,
) -> LocusResult:
    """Screen one window's spectra of one kind: Bayes factors -> Lambda-hat over pi.

    ``scores`` and ``degenerate`` are one kind's entry of ``window_spectra``.
    Degenerate coefficients are dropped from the product (a BF = 1 factor).
    The p-value is left unset; the null model assigns it later.
    """
    bf_by_scale: list[np.ndarray] = []
    loc_by_scale: list[np.ndarray] = []
    any_kept = False
    for sc, deg in zip(scores, degenerate):
        keep = ~deg
        locs = np.where(keep)[0]
        if locs.size:
            logbf = log_bayes_factor(ctx, sc[locs].T)
            bf_by_scale.append(np.exp(logbf))
            any_kept = True
        else:
            bf_by_scale.append(np.empty(0))
        loc_by_scale.append(locs)
    if not any_kept:
        return LocusResult(
            window=window,
            coefficient_kind=coefficient_kind,
            bf=bf_by_scale,
            locations=loc_by_scale,
            pi_hat=np.zeros(window.depth + 1),
            lambda_hat=1.0,
            posterior_gamma=[np.empty(0) for _ in bf_by_scale],
            degenerate=True,
        )
    pi_hat, lam = maximize_lambda(bf_by_scale)
    gamma = [posterior_gamma(bf, pi_hat[s]) for s, bf in enumerate(bf_by_scale)]
    return LocusResult(
        window=window,
        coefficient_kind=coefficient_kind,
        bf=bf_by_scale,
        locations=loc_by_scale,
        pi_hat=pi_hat,
        lambda_hat=lam,
        posterior_gamma=gamma,
    )


def screen_window(
    window: Window,
    cohort: CohortData,
    ctx: DesignContext,
    coefficient_kind: str,
    sigma0_sq: float = wavelet.DEFAULT_SIGMA0_SQ,
) -> LocusResult:
    """Full per-window screen of one kind: ``window_spectra`` then ``screen_spectra``.

    To screen both kinds, or one window against many phenotypes, build the
    spectra once and call ``screen_spectra`` for each.
    """
    block = cohort.blocks[window.chromosome]
    spectra = window_spectra(window, block, (coefficient_kind,), sigma0_sq)
    return screen_spectra(window, *spectra[coefficient_kind], ctx, coefficient_kind)
