"""Dyadic-grid interpolation, Haar wavelet pyramid, shrinkage and quantile transform.

The per-individual dosage signal of a window is linearly interpolated onto a
regular grid of N = 2^J points, decomposed into an orthonormal Haar pyramid
(c = block averages, d = left-minus-right differences), the detail
coefficients are soft-thresholded with coefficient-specific universal
thresholds, and each coefficient is rank inverse-normal transformed across
the cohort.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.special import ndtri

from wavescreen import dataio

# noise floor so thresholds stay defined for perfectly imputed SNPs
VARIANCE_FLOOR = 1e-8
# rows per block of the passes over a window's (rows, individuals) arrays:
# the interpolation product, the shrinkage and the rank transform, so each
# pass's temporaries are a block's, not the array's
_ROW_BLOCK = 64


def normalize_positions(positions: np.ndarray, start_bp: int, end_bp: int) -> np.ndarray:
    """Affine map of bp positions onto [0, 1]."""
    if end_bp <= start_bp:
        raise ValueError("end_bp must exceed start_bp")
    return (np.asarray(positions, dtype=float) - start_bp) / (end_bp - start_bp)


def interpolation_matrix(snp_positions: np.ndarray, n_grid: int) -> sparse.csr_matrix:
    """Linear-interpolation weights from observed positions to grid points.

    The grid is t_k = (k + 1/2) / N, k < N = ``n_grid``, on window-normalized
    [0, 1]. Returns a sparse (N x m) matrix W with at most two nonzeros per
    row; grid points beyond the outermost observation copy that observation
    (constant extrapolation).
    """
    x = np.asarray(snp_positions, dtype=float)
    m = len(x)
    if m < 2:
        raise ValueError("need at least 2 observations to interpolate")
    if np.any(np.diff(x) <= 0):
        raise ValueError("positions must be strictly increasing")
    N = n_grid
    t = (np.arange(N) + 0.5) / N
    # index of the left neighbor, clipped so t outside [x0, x_{m-1}] extrapolates
    j = np.clip(np.searchsorted(x, t, side="right") - 1, 0, m - 2)
    w = (t - x[j]) / (x[j + 1] - x[j])
    w = np.clip(w, 0.0, 1.0)
    rows = np.repeat(np.arange(N), 2)
    cols = np.column_stack([j, j + 1]).ravel()
    vals = np.column_stack([1.0 - w, w]).ravel()
    return sparse.csr_matrix((vals, (rows, cols)), shape=(N, m))


def block_sum_matrix(n_grid: int, n_blocks: int) -> sparse.csr_matrix:
    """Sparse (n_blocks x n_grid) matrix summing consecutive grid blocks."""
    if n_blocks <= 0 or n_grid % n_blocks:
        raise ValueError(f"{n_grid} grid points do not split into {n_blocks} blocks")
    block = n_grid // n_blocks
    return sparse.kron(
        sparse.eye(n_blocks, format="csr"), np.ones((1, block)), format="csr"
    )


def haar_pyramid(
    grid_values: np.ndarray, depth: int, n_grid: int | None = None
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Orthonormal Haar coefficients for scales 0..depth.

    ``grid_values`` has shape (M,) or (M, k) with M a power of two; axis 0 is
    the grid axis. It may be a dense array or a sparse matrix, such as the
    interpolation weights, whose coefficient rows come out sparse.
    Returns (c, d): per scale s, arrays of shape (2^s, ...).
    At scale s, location l covers grid indices [l*N/2^s, (l+1)*N/2^s);
    c = block sum / sqrt(block size), d = (left half - right half) / sqrt(block size).

    If ``n_grid`` is given, ``grid_values`` are interpreted as block sums of a
    finer grid of N = n_grid points (so M = 2^(depth'+1) rows suffice for a
    depth-depth' decomposition) and block sizes use the true N.

    A dense ``grid_values`` is read, never written. Each level's block sums
    and each scale's d are float64 arrays on anonymous maps of their own
    (``dataio._mapped_rows``), and c is its level's sums divided by
    sqrt(block size) in place, so no array of the pyramid passes through
    malloc and each scale's memory is released once its arrays are dropped.
    Sparse rows (``pyramid_variances``) give new sparse matrices.
    """
    M = grid_values.shape[0]
    if M & (M - 1) or M == 0:
        raise ValueError(f"grid length {M} is not a power of two")
    N = M if n_grid is None else n_grid
    if N < M or N & (N - 1):
        raise ValueError(f"n_grid {N} must be a power of two >= {M}")
    J = M.bit_length() - 1
    if depth < 0 or depth > J - 1:
        raise ValueError(f"depth {depth} outside [0, {J - 1}] for {M} block sums")

    if sparse.issparse(grid_values):
        sums = [None] * (J + 1)
        sums[J] = grid_values
        for s in range(J - 1, -1, -1):
            sums[s] = sums[s + 1][0::2] + sums[s + 1][1::2]
        c: list = []
        d: list = []
        for s in range(depth + 1):
            block = N >> s
            root = np.sqrt(block)
            c.append(sums[s] / root)
            left = sums[s + 1][0::2]
            right = sums[s + 1][1::2]
            d.append((left - right) / root)
        return c, d

    def own_map(like):
        return dataio._mapped_rows(len(like), like.size // len(like),
                                   np.dtype(float)).reshape(like.shape)

    c, d = [None] * (depth + 1), [None] * (depth + 1)
    upper = grid_values  # the block sums of scale s + 1
    for s in range(J - 1, -1, -1):
        left, right = upper[0::2], upper[1::2]
        sums = np.add(left, right, out=own_map(left))
        if s <= depth:
            d[s] = np.subtract(left, right, out=own_map(left))
            d[s] /= np.sqrt(N >> s)
        if s < depth:  # scale s + 1's sums are read for the last time: its c
            c[s + 1] = np.divide(upper, np.sqrt(N >> (s + 1)), out=upper)
        upper = sums
    c[0] = np.divide(upper, np.sqrt(N), out=upper)
    return c, d


def pyramid_variances(
    W: sparse.csr_matrix, snp_variances: np.ndarray, depth: int,
    n_grid: int | None = None,
) -> list[np.ndarray]:
    """Noise variances of the Haar detail coefficients, propagated exactly through W.

    Each d coefficient is a fixed linear combination a of the SNP
    observations, its row of ``haar_pyramid`` applied to W; its variance is
    sum_j a_j^2 sigma_j^2 under independent heteroscedastic noise, floored
    at ``VARIANCE_FLOOR``. Returns one array per scale 0..depth. ``W`` may
    already hold block-summed rows of a finer grid of ``n_grid`` points.
    """
    sig2 = np.asarray(snp_variances, dtype=float)
    _, d = haar_pyramid(W, depth, n_grid)
    return [np.maximum(a.power(2) @ sig2, VARIANCE_FLOOR) for a in d]


def soft_threshold(values: np.ndarray, tau: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """sign(v) * max(|v| - tau, 0), into ``out`` when it is given (it may be
    ``values``), else into a new array."""
    shrunk = np.abs(values)
    shrunk -= tau
    np.maximum(shrunk, 0.0, out=shrunk)
    return np.copysign(shrunk, values, out=out)


def visushrink(
    d: list[np.ndarray], var_d: list[np.ndarray], n_grid: int
) -> list[np.ndarray]:
    """Soft-threshold detail coefficients in place with tau_sl = sigma_sl * sqrt(2 log N).

    Each scale's d is (2^s, n), its var_d (2^s,): the threshold is specific to
    the coefficient through its propagated noise standard deviation; c
    coefficients are left untouched (they carry the burden-like mean signal).
    Each scale is shrunk ``_ROW_BLOCK`` rows at a time into its own array, so
    the temporaries are a block's; returns ``d``, its arrays overwritten.
    """
    factor = np.sqrt(2.0 * np.log(n_grid))
    for ds, vs in zip(d, var_d):
        tau = (np.sqrt(vs) * factor)[:, None]
        for r0 in range(0, len(ds), _ROW_BLOCK):
            rows = ds[r0:r0 + _ROW_BLOCK]
            soft_threshold(rows, tau[r0:r0 + _ROW_BLOCK], out=rows)
    return d


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


def quantile_transform(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Rank-based inverse-normal (Blom) scores of each row of a (k, n) array.

    scores_i = Phi^-1((rank_i - 3/8)/(n + 1/4)) with average ranks for ties;
    a constant row (+-0 mixes included) takes the middle rank's +0.0. Which
    rows are degenerate is decided by ``screening.window_spectra`` alone.

    The rows are scored ``_ROW_BLOCK`` at a time, each block read before its
    scores are written, into ``out`` when it is given (a C-contiguous (k, n)
    float64 array; it may be ``rows`` itself), else into a new array; so the
    temporaries are a block's. Per block, one argsort per row; each tie run
    of the sorted row, starting at sorted position f with length k, shares
    the average rank f + (k + 1)/2, whose score is looked up in a table of
    the 2n - 1 half-integer ranks built once per call. A row with no tie
    takes the table's integer ranks in sorted order, with no run
    bookkeeping. The table's sign handling makes negating the values negate
    the scores exactly, so sign-flip robustness of downstream statistics is
    exact rather than approximate.
    """
    n = rows.shape[1]
    if n < 2:
        raise ValueError("quantile transform needs at least 2 values")
    if out is None:
        out = np.empty(rows.shape)
    elif out.shape != rows.shape or out.dtype != float or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {rows.shape}")
    table = _blom_table(n)
    for r0 in range(0, len(rows), _ROW_BLOCK):
        _blom_scores(rows[r0:r0 + _ROW_BLOCK], table, out[r0:r0 + _ROW_BLOCK])
    return out


def _blom_scores(rows: np.ndarray, table: np.ndarray, scores: np.ndarray) -> None:
    """Write the scores of ``quantile_transform`` for ``rows`` into the
    C-contiguous ``scores``, which may be ``rows``: ``rows`` is read in full first."""
    n = rows.shape[1]
    # the argsort as flat indices, so one 1-D gather sorts every row and one
    # 1-D scatter puts the scores back
    order = np.argsort(rows, axis=-1)
    order += np.arange(0, rows.size, n)[:, None]
    sv = rows.ravel()[order.ravel()]
    # a tie run starts at every row start and wherever the sorted value changes
    is_start = np.empty(rows.shape, dtype=bool)
    np.not_equal(sv[1:], sv[:-1], out=is_start.ravel()[1:])
    is_start[:, 0] = True
    tied = ~is_start.all(axis=1)
    free = ~tied
    if free.any():  # each value of a tie-free row has the integer rank of its sorted position
        scores.ravel()[order[free] if tied.any() else order] = table[::2]
    if tied.any():  # only the tied rows, copied out when some rows are tie-free
        if free.any():
            order, is_start = order[tied], is_start[tied]
        starts = np.flatnonzero(is_start)
        lengths = np.diff(starts, append=is_start.size)
        # first + last sorted position of the run = 2 (average rank) - 2, the
        # run's index into the table
        table_index = np.repeat(2 * (starts % n) + lengths - 1, lengths)
        scores.ravel()[order.ravel()] = table[table_index]
