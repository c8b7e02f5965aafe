"""Dyadic-grid interpolation, Haar wavelet pyramid, shrinkage and quantile transform.

The per-individual dosage signal of a window is linearly interpolated onto a
regular grid of N = 2^J points, decomposed into an orthonormal Haar pyramid
(c = block averages, d = left-minus-right differences), the detail
coefficients are soft-thresholded with coefficient-specific universal
thresholds, and each coefficient is rank inverse-normal transformed across
the cohort.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.special import ndtri

# noise floor so thresholds stay defined for perfectly imputed SNPs
VARIANCE_FLOOR = 1e-8
DEFAULT_SIGMA0_SQ = 1.0


class WaveletError(ValueError):
    """Invalid input to a wavelet-stage operation."""


@dataclass(frozen=True)
class DyadicGrid:
    """Regular grid t_k = (k + 1/2) * 2^-J on window-normalized [0, 1]."""

    J: int

    @property
    def n_points(self) -> int:
        return 1 << self.J

    @property
    def points(self) -> np.ndarray:
        N = self.n_points
        return (np.arange(N) + 0.5) / N


def normalize_positions(positions: np.ndarray, start_bp: int, end_bp: int) -> np.ndarray:
    """Affine map of bp positions onto [0, 1]."""
    if end_bp <= start_bp:
        raise WaveletError("end_bp must exceed start_bp")
    return (np.asarray(positions, dtype=float) - start_bp) / (end_bp - start_bp)


def interpolation_matrix(snp_positions: np.ndarray, grid: DyadicGrid) -> sparse.csr_matrix:
    """Linear-interpolation weights from observed positions to grid points.

    Returns a sparse (N x m) matrix W with at most two nonzeros per row;
    grid points beyond the outermost observation copy that observation
    (constant extrapolation).
    """
    x = np.asarray(snp_positions, dtype=float)
    m = len(x)
    if m < 2:
        raise WaveletError("need at least 2 observations to interpolate")
    if np.any(np.diff(x) <= 0):
        raise WaveletError("positions must be strictly increasing")
    t = grid.points
    N = grid.n_points
    # index of the left neighbor, clipped so t outside [x0, x_{m-1}] extrapolates
    j = np.clip(np.searchsorted(x, t, side="right") - 1, 0, m - 2)
    w = (t - x[j]) / (x[j + 1] - x[j])
    w = np.clip(w, 0.0, 1.0)
    rows = np.repeat(np.arange(N), 2)
    cols = np.column_stack([j, j + 1]).ravel()
    vals = np.column_stack([1.0 - w, w]).ravel()
    W = sparse.csr_matrix((vals, (rows, cols)), shape=(N, m))
    W.sum_duplicates()
    return W


def snp_noise_variance(
    imputation_quality: np.ndarray, sigma0_sq: float = DEFAULT_SIGMA0_SQ
) -> np.ndarray:
    """Heteroscedastic per-SNP noise variance sigma0^2 * (1 - IQ)."""
    return sigma0_sq * (1.0 - np.asarray(imputation_quality, dtype=float))


def block_sum_matrix(n_grid: int, n_blocks: int) -> sparse.csr_matrix:
    """Sparse (n_blocks x n_grid) matrix summing consecutive grid blocks."""
    if n_blocks <= 0 or n_grid % n_blocks:
        raise WaveletError(f"{n_grid} grid points do not split into {n_blocks} blocks")
    block = n_grid // n_blocks
    return sparse.kron(
        sparse.eye(n_blocks, format="csr"), np.ones((1, block)), format="csr"
    )


def haar_pyramid(
    grid_values: np.ndarray, depth: int, n_grid: int | None = None
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Orthonormal Haar coefficients for scales 0..depth.

    ``grid_values`` has shape (M,) or (M, k) with M a power of two; axis 0 is
    the grid axis. Returns (c, d): per scale s, arrays of shape (2^s, ...).
    At scale s, location l covers grid indices [l*N/2^s, (l+1)*N/2^s);
    c = block sum / sqrt(block size), d = (left half - right half) / sqrt(block size).

    If ``n_grid`` is given, ``grid_values`` are interpreted as block sums of a
    finer grid of N = n_grid points (so M = 2^(depth'+1) rows suffice for a
    depth-depth' decomposition) and block sizes use the true N.
    """
    v = np.asarray(grid_values, dtype=float)
    M = v.shape[0]
    if M & (M - 1) or M == 0:
        raise WaveletError(f"grid length {M} is not a power of two")
    N = M if n_grid is None else n_grid
    if N < M or N & (N - 1):
        raise WaveletError(f"n_grid {N} must be a power of two >= {M}")
    J = M.bit_length() - 1
    if depth < 0 or depth > J - 1:
        raise WaveletError(f"depth {depth} outside [0, {J - 1}] for {M} block sums")

    sums = [None] * (J + 1)
    sums[J] = v
    for s in range(J - 1, -1, -1):
        sums[s] = sums[s + 1][0::2] + sums[s + 1][1::2]
    c: list[np.ndarray] = []
    d: list[np.ndarray] = []
    for s in range(depth + 1):
        block = N >> s
        root = np.sqrt(block)
        c.append(sums[s] / root)
        left = sums[s + 1][0::2]
        right = sums[s + 1][1::2]
        d.append((left - right) / root)
    return c, d


def haar_full(grid_values: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Complete decomposition: scale-0 c coefficient plus d for all scales."""
    N = np.asarray(grid_values).shape[0]
    J = N.bit_length() - 1
    c, d = haar_pyramid(grid_values, J - 1 if J > 0 else 0)
    return c[0], d


def inverse_haar(c0: np.ndarray, d: list[np.ndarray]) -> np.ndarray:
    """Reconstruct grid values from the complete (c0, all-d) decomposition."""
    J = len(d)
    N = 1 << J
    rec = np.asarray(c0, dtype=float) / np.sqrt(N)  # per-point block mean
    for s in range(J):
        block = N >> s
        # d = (sum_left - sum_right)/sqrt(block); per-point offset is d/sqrt(block)
        offset = np.asarray(d[s], dtype=float) / np.sqrt(block)
        new = np.empty([rec.shape[0] * 2] + list(rec.shape)[1:], dtype=float)
        new[0::2] = rec + offset
        new[1::2] = rec - offset
        rec = new
    return rec


def pyramid_variances(
    W: sparse.csr_matrix, snp_variances: np.ndarray, depth: int,
    n_grid: int | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Noise variances of the Haar coefficients, propagated exactly through W.

    Each coefficient is a fixed linear combination a of the SNP observations
    (Haar row times W); its variance is sum_j a_j^2 sigma_j^2 under
    independent heteroscedastic noise. Uses the same block-sum recursion as
    the transform, on the sparse weight rows. ``W`` may already hold
    block-summed rows of a finer grid of ``n_grid`` points.
    """
    M = W.shape[0]
    N = M if n_grid is None else n_grid
    J = M.bit_length() - 1
    if depth > J - 1:
        raise WaveletError(f"depth {depth} too deep for {M} block-sum rows")
    sig2 = np.asarray(snp_variances, dtype=float)
    sums = [None] * (J + 1)
    sums[J] = W.tocsr()
    for s in range(J - 1, -1, -1):
        sums[s] = sums[s + 1][0::2] + sums[s + 1][1::2]
    var_c: list[np.ndarray] = []
    var_d: list[np.ndarray] = []
    for s in range(depth + 1):
        block = N >> s
        vc = sums[s].power(2) @ sig2 / block
        diff = sums[s + 1][0::2] - sums[s + 1][1::2]
        vd = diff.power(2) @ sig2 / block
        var_c.append(np.maximum(vc, VARIANCE_FLOOR))
        var_d.append(np.maximum(vd, VARIANCE_FLOOR))
    return var_c, var_d


def soft_threshold(values: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """sign(v) * max(|v| - tau, 0)."""
    shrunk = np.abs(values)
    shrunk -= tau
    np.maximum(shrunk, 0.0, out=shrunk)
    return np.copysign(shrunk, values)


def visushrink(
    d: list[np.ndarray], var_d: list[np.ndarray], n_grid: int
) -> list[np.ndarray]:
    """Soft-threshold detail coefficients with tau_sl = sigma_sl * sqrt(2 log N).

    The threshold is coefficient-specific through the propagated noise
    standard deviation; c coefficients are left untouched (they carry the
    burden-like mean signal).
    """
    factor = np.sqrt(2.0 * np.log(n_grid))
    out = []
    for ds, vs in zip(d, var_d):
        tau = np.sqrt(np.asarray(vs)) * factor
        if ds.ndim > np.ndim(tau):
            tau = np.asarray(tau)[..., None]
        out.append(soft_threshold(ds, tau))
    return out


def _blom_table(n: int) -> np.ndarray:
    """Blom scores of the half-integer ranks 1, 1.5, ..., n, indexed by 2 rank - 2.

    Phi^-1 is evaluated on min(u, 1-u) with the sign applied afterwards, so
    rank r and rank n + 1 - r get scores that are exact negatives of each
    other (one branch maps onto the other bit-for-bit).
    """
    ranks = 0.5 * np.arange(2 * n - 1) + 1.0
    denom = n + 0.25
    u_lo = (ranks - 0.375) / denom
    u_hi = ((n - ranks) + 0.625) / denom  # = 1 - u_lo, computed exactly
    table = ndtri(np.minimum(u_lo, u_hi))
    np.negative(table, where=u_lo > u_hi, out=table)
    return table


def quantile_transform(values: np.ndarray, axis: int = -1) -> tuple[np.ndarray, np.ndarray]:
    """Rank-based inverse-normal (Blom) transform along ``axis``.

    Returns (scores, degenerate): scores_i = Phi^-1((rank_i - 3/8)/(n + 1/4))
    with average ranks for ties; rows whose values are all identical are
    returned as zeros and flagged degenerate.

    One argsort per row; each tie run of the sorted row, starting at sorted
    position f with length k, shares the average rank f + (k + 1)/2, whose
    score is looked up in a table of the 2n - 1 half-integer ranks built for
    this call. The table's sign handling makes negating the values negate the
    scores exactly, so sign-flip robustness of downstream statistics is exact
    rather than approximate.
    """
    v = np.moveaxis(np.asarray(values, dtype=float), axis, -1)
    n = v.shape[-1]
    if n < 2:
        raise WaveletError("quantile transform needs at least 2 values")
    rows = v.reshape(-1, n)
    order = np.argsort(rows, axis=-1)
    sv = np.take_along_axis(rows, order, axis=-1)
    # a tie run starts at every row start and wherever the sorted value changes
    is_start = np.empty(sv.size, dtype=bool)
    flat = sv.ravel()
    np.not_equal(flat[1:], flat[:-1], out=is_start[1:])
    is_start[::n] = True
    starts = np.flatnonzero(is_start)
    lengths = np.diff(starts, append=sv.size)
    # first + last sorted position of the run = 2 (average rank) - 2, the
    # run's index into the table
    table_index = np.repeat(2 * (starts % n) + lengths - 1, lengths)
    scores = np.empty_like(rows)
    np.put_along_axis(
        scores, order, _blom_table(n)[table_index].reshape(rows.shape), axis=-1
    )
    degenerate = sv[:, -1] - sv[:, 0] == 0.0
    scores[degenerate] = 0.0
    scores = np.moveaxis(scores.reshape(v.shape), -1, axis)
    return scores, degenerate.reshape(v.shape[:-1])[()]
