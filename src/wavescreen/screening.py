"""Per-locus evidence aggregation over per-scale association proportions.

Within a window, the Bayes factors of all analyzed coefficients combine into
the likelihood ratio Lambda(pi) = prod_{s,l} [pi_s BF_sl + (1 - pi_s)]. The
product factorizes over scales, so each pi_s is found separately by
``max_log_lambda``, a bracketed Newton solver in log space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from wavescreen import dataio, wavelet
from wavescreen.bayes import DesignContext, log_bayes_factor
from wavescreen.dataio import ChromosomeBlock, Window

# names the Lambda-hat solver in null-cache keys, so samples drawn by an
# earlier solver are rebuilt rather than reused
SOLVER_VERSION = "newton2"

# rows per block of ``_centered_product`` and of ``scale_log_bf``'s moves
_ROW_BLOCK = wavelet._ROW_BLOCK


@dataclass
class LocusResult:
    """Everything screened for one window, one coefficient kind and one phenotype."""

    window: Window
    coefficient_kind: str  # "c" or "d"
    log_bf: list[np.ndarray]  # per scale, log BF of non-degenerate coefficients
    locations: list[np.ndarray]  # per scale, locations matching ``log_bf``
    pi_hat: np.ndarray
    lambda_hat: float
    degenerate: bool  # all coefficients degenerate
    p_value: float | None = None  # None for a degenerate result


def max_log_lambda(log_bf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maximize log Lambda(pi) = sum_l log1p(pi (BF_l - 1)) over pi in [0, 1], per row.

    ``log_bf`` is (R, K) log Bayes factors; returns (pi_hat, log_lambda_hat),
    each of length R. The objective is concave, so the score
    g(pi) = sum_l (BF_l - 1) / (1 + pi (BF_l - 1)) decides boundary rows
    exactly from its sign at 0 and 1. Interior rows run Newton's method on g
    inside a bracket [lo, hi] that always holds the root, bisecting whenever
    a Newton step would leave it. A row stops once its score is zero to
    rounding, |g(x)| <= 1e-15 sum_l |t_l| with t_l the summands of g at the
    point x just evaluated, or once its bracket can no longer be split; its
    pi_hat is that x, always inside the bracket. pi = 0 gives exactly 0, so a
    row whose objective rounds below 0 returns pi = 0, and log_lambda_hat >= 0.
    """
    bf = np.exp(np.atleast_2d(np.asarray(log_bf, dtype=float)))
    b = bf - 1.0
    pi = np.zeros(bf.shape[0])
    score1 = np.sum(np.divide(b, bf, out=bf), axis=1)  # in place: bf is not read again
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
        # a score zero to the rounding of its sum; t is not read again
        zero = np.abs(g) <= 1e-15 * np.sum(np.abs(t, out=t), axis=1)
        done = zero | (mid <= lo) | (mid >= hi)
        pi[rows[done]] = x[done]
        keep = ~done
        x = np.where((lo < newton) & (newton < hi), newton, mid)[keep]
        rows, lo, hi = rows[keep], lo[keep], hi[keep]
    # a pi = 0 row sums log1p(0) = 0; only a row with a non-finite BF (NaN
    # score) or pi > 0 needs the sum
    log_lam = np.zeros(len(pi))
    rows = np.flatnonzero((pi > 0.0) | np.isnan(score1))
    log_lam[rows] = np.sum(np.log1p(pi[rows, None] * b[rows]), axis=1)
    below = log_lam < 0.0
    pi[below] = 0.0
    log_lam[below] = 0.0
    return pi, log_lam


def maximize_lambda(log_bfs_by_scale: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Maximized (pi_hat, Lambda_hat) over all scales of one window, per phenotype.

    Each entry holds one scale's log BFs as (P, k_s), a row per phenotype (a
    (k_s,) entry is one row). Returns pi_hat (P, S) and Lambda_hat (P,);
    each scale's P rows are solved in one ``max_log_lambda`` call. Scales
    with no (non-degenerate) coefficients get pi_s = 0. Boundary solutions
    pi_s in {0, 1} are permitted.
    """
    log_bfs = [np.atleast_2d(np.asarray(lb, dtype=float)) for lb in log_bfs_by_scale]
    pi_hat = np.zeros((max((lb.shape[0] for lb in log_bfs), default=1), len(log_bfs)))
    log_lam = np.zeros(len(pi_hat))
    for s, lb in enumerate(log_bfs):
        if lb.size:
            pi_hat[:, s], ll = max_log_lambda(lb)
            log_lam += ll
    return pi_hat, np.exp(log_lam)


def posterior_gamma(bf: np.ndarray, pi_s: float) -> np.ndarray:
    """Posterior association probability pi BF / (pi BF + 1 - pi)."""
    a = pi_s * np.asarray(bf, dtype=float)
    return a / (a + 1.0 - pi_s)


def fisher_combine(p_values) -> float:
    """Fisher's method: survival of chi2(2k) at -2 sum log p_i."""
    from scipy.special import chdtrc

    p = np.asarray(list(p_values), dtype=float)
    if p.size == 0:
        raise ValueError("need at least one p-value")
    if not np.all((p > 0.0) & (p <= 1.0)):  # NaN fails this too
        raise ValueError("p-values must lie in (0, 1]")
    stat = -2.0 * np.sum(np.log(p))
    return float(chdtrc(2 * len(p), stat))


def _centered_product(W, block: ChromosomeBlock, first: int) -> np.ndarray:
    """W @ (dosages - 1.0) of the block's SNPs from ``first`` on, streamed in
    blocks of ``_ROW_BLOCK`` rows of W into an anonymous map of its own
    (``dataio._mapped_rows``), not the malloc heap.

    Each block decodes and centers only the contiguous SNP range its rows
    touch (``ChromosomeBlock.dosages``) and multiplies a CSR matrix made of
    W's own data, indices (shifted) and indptr, so every output row sums the
    same products in the same order as the one product does, and no
    window-sized decoded or centered copy is made.
    """
    from scipy import sparse

    out = dataio._mapped_rows(W.shape[0], block.n, np.dtype(float))
    for r0 in range(0, W.shape[0], _ROW_BLOCK):
        r1 = min(r0 + _ROW_BLOCK, W.shape[0])
        a, b = W.indptr[r0], W.indptr[r1]
        if a == b:  # rows with no weights sum to zero
            out[r0:r1] = 0.0
            continue
        cols = W.indices[a:b]
        lo, hi = cols.min(), cols.max() + 1
        rows = sparse.csr_matrix((W.data[a:b], cols - lo, W.indptr[r0:r1 + 1] - a),
                                 shape=(r1 - r0, hi - lo))
        out[r0:r1] = rows @ block.dosages(slice(first + lo, first + hi), minus=1.0)
    return out


def window_spectra(
    window: Window,
    block: ChromosomeBlock,
    kinds: tuple[str, ...],
) -> dict[str, tuple[list[np.ndarray], list[np.ndarray]]]:
    """Interpolate, transform and shrink one window.

    ``block`` is the window's chromosome; ``kinds`` names the coefficient
    kinds wanted, "c" and/or "d". All of them come from one interpolation
    and one Haar pyramid of the dosages, and only "d" is shrunk, with SNP
    noise variances 1 - IQ propagated to each detail coefficient, so the
    spectra depend on the genotypes alone and serve every phenotype.
    Returns {kind: (coeffs, degenerate)} with per-scale lists; coeffs[s] has
    shape (2^s, n_individuals); degenerate[s] flags those with zero spread
    across the cohort, the one test of which coefficients carry no evidence.
    The block sums, each level's sums and each scale's c and d lie on
    anonymous maps of their own (``wavelet.haar_pyramid``), d is shrunk in
    place, and each scale's memory goes when its arrays are dropped. The rank
    transform is each scale's own job (``scale_log_bf``).
    """
    for kind in kinds:
        if kind not in ("c", "d"):
            raise ValueError(f"unknown coefficient kind {kind!r}")
    sl = slice(window.snp_start, window.snp_end)
    positions = wavelet.normalize_positions(
        block.positions[sl], window.start_bp, window.end_bp
    )
    n_grid = window.n_grid
    W = wavelet.interpolation_matrix(positions, n_grid)
    # all scales <= depth derive from the 2^(depth+1) block sums, so
    # aggregate the interpolation weights before touching the dense dosages
    n_top = 1 << (window.depth + 1)
    if n_top < n_grid:
        W = wavelet.block_sum_matrix(n_grid, n_top) @ W
    # centering at 1 makes the allele flip g -> 2 - g an exact floating-point
    # negation of the input, so every linear stage below negates exactly and
    # the d-screen statistic is bitwise invariant under strand flips
    # the block sums are dropped once the pyramid exists, so a window holds
    # fewer window-sized arrays at once
    pyramid = dict(zip("cd", wavelet.haar_pyramid(_centered_product(W, block, window.snp_start),
                                                  window.depth, n_grid=n_grid)))
    spectra = {}
    for kind in kinds:
        coeffs = pyramid.pop(kind)
        if kind == "d":
            sig2 = 1.0 - block.imputation_quality[sl]
            var_d = wavelet.pyramid_variances(W, sig2, window.depth, n_grid=n_grid)
            wavelet.visushrink(coeffs, var_d, n_grid)
        spectra[kind] = coeffs, [np.ptp(arr, axis=-1) == 0.0 for arr in coeffs]
    return spectra


def scale_log_bf(ctx: DesignContext, coeffs: np.ndarray,
                 degenerate: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One scale's job: rank-transform its live coefficients in place, then their log BFs.

    ``coeffs`` (C-contiguous float64) and ``degenerate`` are one scale of a
    ``window_spectra`` entry, whose flagged coefficients are dropped (a
    BF = 1 factor). ``coeffs`` is overwritten: its k live rows move to its
    front, ``_ROW_BLOCK`` rows at a time, and ``wavelet.quantile_transform``
    replaces them by their Blom scores, so the job copies no more than a
    block. One ``log_bayes_factor`` call then takes all k: calls on blocks
    of them would round differently. Returns (log_bf, locations): the (P, k) log
    BFs, a row per phenotype of ``ctx``, of the k live coefficients at
    ``locations``. The Blom scores of a row depend on that row alone, so
    transforming only the live rows gives each the scores a transform of
    the whole scale would.
    """
    locs = np.flatnonzero(~degenerate)
    if not locs.size:
        return np.empty((ctx.x_tilde.shape[1], 0)), locs
    live = coeffs[:locs.size]
    if locs.size < len(coeffs):
        # live row i comes from row locs[i] >= i, so no block writes over a
        # row that a later block reads; rows before the first flagged one stay
        for r0 in range(int(np.argmax(degenerate)), locs.size, _ROW_BLOCK):
            live[r0:r0 + _ROW_BLOCK] = coeffs[locs[r0:r0 + _ROW_BLOCK]]
    return log_bayes_factor(ctx, wavelet.quantile_transform(live, out=live).T), locs
