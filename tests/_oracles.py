"""Independent oracles used by the test suite.

These deliberately avoid the closed forms and iterative algorithms they
check: the Bayes factor oracle integrates the marginal likelihoods
numerically over (effect, residual variance), and the Lambda oracle scans
pi on a grid with golden-section refinement inside the winning bracket.
The cohort reader parses every number with Python's ``float`` one token and
one row at a time, as the first loader did, where ``wavescreen.dataio``
hands whole blocks to numpy's C reader. The rank transform is the earlier
one that broadcast tie-run bounds with cumulative max/min scans and called
Phi^-1 on every value, where ``wavescreen.wavelet`` looks scores up in a
per-n table. The complete Haar decomposition and its inverse check the
package's ``haar_pyramid`` (Parseval, round trip).
``pyramid_variances_reference`` is the first detail-variance propagation,
which ran its own block-sum recursion on the sparse weight rows where
``wavescreen.wavelet`` takes them from ``haar_pyramid``. ``screen_spectra``
screens one kind of a window's spectra one scale after another, as the
thread pool's jobs would, and ``screen_window`` composes it with the spectra
pass for tests that screen one kind at a time.
``generate_genotypes_reference`` is the first genotype simulator, which drew
each haplotype's flips as one (n_snps, n) array and made positions strictly
increasing one at a time. ``max_log_lambda_reference`` is the Lambda-hat
solver as it was before it skipped the log1p sum on pi = 0 rows, and
``max_log_lambda_newton1`` the one before it stopped a row on a score zero to
rounding, which kept a row in its loop until its bracket could not be split.
``window_spectra_reference`` is the spectra pass as it was before it
streamed the interpolation: one product of the weights with a centered copy
of the whole window's dosages (``block_sums_reference``), with its degenerate
flags from ``quantile_transform_reference``.
``simulate_null_reference`` is the null simulation as it was before it drew
and solved a scale in row blocks: one chunk after another, each scale one
(chunk rows, 2^s) draw and one solver call.
``gpd_fit_reference`` is the first GPD tail fit: the two-parameter negative
log-likelihood minimized by Nelder-Mead, where ``wavescreen.nullsim``
maximizes the likelihood's one-dimensional profile.
"""

import math

import numpy as np
from scipy import sparse
from scipy.integrate import dblquad, quad
from scipy.optimize import minimize, minimize_scalar
from scipy.special import ndtri

from wavescreen.dataio import ChromosomeBlock, CohortData, DataError
from wavescreen import nullsim, wavelet
from wavescreen.screening import (LocusResult, max_log_lambda, maximize_lambda, scale_log_bf,
                                  window_spectra)
from wavescreen.wavelet import VARIANCE_FLOOR, haar_pyramid


def screen_spectra(window, coeffs, degenerate, ctx, kind):
    """Screen one kind of ``window_spectra``'s output against every phenotype of
    ``ctx``: each scale's ``scale_log_bf`` in order, on a copy, as it
    overwrites its scale, then one result per phenotype from
    ``maximize_lambda``, with no p-value."""
    log_bfs, locs = zip(*(scale_log_bf(ctx, c.copy(), deg) for c, deg in zip(coeffs, degenerate)))
    pi_hat, lam = maximize_lambda(log_bfs)
    degenerate = not any(loc.size for loc in locs)
    return [LocusResult(window, kind, [lb[p] for lb in log_bfs], list(locs), pi_hat[p],
                        float(lam[p]), degenerate) for p in range(len(lam))]


def screen_window(window, block, ctx, kind):
    """Screen one window for one coefficient kind and one phenotype: its
    spectra, then the screen's one result."""
    [result] = screen_spectra(window, *window_spectra(window, block, (kind,))[kind], ctx, kind)
    return result


def block_sums_reference(window, block):
    """(W, W @ (dosages - 1)): a window's interpolation weights, block-summed to
    the 2^(depth+1) top rows, and its centered block sums as one product."""
    sl = slice(window.snp_start, window.snp_end)
    positions = wavelet.normalize_positions(block.positions[sl], window.start_bp,
                                            window.end_bp)
    W = wavelet.interpolation_matrix(positions, window.n_grid)
    n_top = 1 << (window.depth + 1)
    if n_top < window.n_grid:
        W = wavelet.block_sum_matrix(window.n_grid, n_top) @ W
    return W, W @ (block.dosages(sl) - 1.0)


def window_spectra_reference(window, block, kinds):
    """``screening.window_spectra`` on the block sums of ``block_sums_reference``."""
    sl = slice(window.snp_start, window.snp_end)
    W, top_sums = block_sums_reference(window, block)
    c, d = haar_pyramid(top_sums, window.depth, n_grid=window.n_grid)
    spectra = {}
    for kind in kinds:
        if kind == "d":
            var_d = wavelet.pyramid_variances(W, 1.0 - block.imputation_quality[sl],
                                              window.depth, n_grid=window.n_grid)
            coeffs = wavelet.visushrink(d, var_d, window.n_grid)
        else:
            coeffs = c
        # the reference rank transform's flags: a row with zero spread
        spectra[kind] = (coeffs, [np.atleast_1d(quantile_transform_reference(arr, axis=-1)[1])
                                  for arr in coeffs])
    return spectra


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


def pyramid_variances_reference(
    W: sparse.csr_matrix, snp_variances: np.ndarray, depth: int,
    n_grid: int | None = None,
) -> list[np.ndarray]:
    """Noise variances of the Haar detail coefficients, propagated exactly through W.

    Each d coefficient is a fixed linear combination a of the SNP
    observations (Haar row times W); its variance is sum_j a_j^2 sigma_j^2
    under independent heteroscedastic noise, floored at ``VARIANCE_FLOOR``.
    Returns one array per scale 0..depth. Uses the same block-sum recursion
    as the transform, on the sparse weight rows. ``W`` may already hold
    block-summed rows of a finer grid of ``n_grid`` points.
    """
    M = W.shape[0]
    N = M if n_grid is None else n_grid
    J = M.bit_length() - 1
    if depth > J - 1:
        raise ValueError(f"depth {depth} too deep for {M} block-sum rows")
    sig2 = np.asarray(snp_variances, dtype=float)
    sums = [None] * (J + 1)
    sums[J] = W.tocsr()
    for s in range(J - 1, 0, -1):  # the details of scale s need the sums of s + 1
        sums[s] = sums[s + 1][0::2] + sums[s + 1][1::2]
    var_d: list[np.ndarray] = []
    for s in range(depth + 1):
        diff = sums[s + 1][0::2] - sums[s + 1][1::2]
        vd = diff.power(2) @ sig2 / (N >> s)
        var_d.append(np.maximum(vd, VARIANCE_FLOOR))
    return var_d


def log_bf_numeric(ctx, y, epsrel=1e-11):
    """Numerically integrated log Bayes factor for one response vector.

    Both marginal likelihoods are computed after analytically integrating
    the flat intercept/covariate effects out (the common factor cancels in
    the ratio):

      m1 = int int v^(-(n-q)/2 - 1) N(b; 0, sigma_b^2 v)
               exp(-||yt - b*xt||^2 / (2 v)) db dv
      m0 = int v^(-(n-q)/2 - 1) exp(-||yt||^2 / (2 v)) dv

    Each integrand is rescaled by its own maximum so the quadrature runs on
    O(1) values; the log of the scale factor is added back.
    """
    yt = ctx.residualize(np.asarray(y, dtype=float))
    xt = ctx.x_tilde[:, 0]
    a = 0.5 * (ctx.n - ctx.q)
    rss0 = float(yt @ yt)
    xty = float(xt @ yt)
    xtx = float(ctx.n)  # x_tilde is scaled to x'x = n
    sb2 = ctx.sigma_b ** 2

    def log_f1(b, v):
        s = rss0 - 2.0 * b * xty + b * b * xtx
        return (
            -(a + 1.0) * math.log(v)
            - s / (2.0 * v)
            - 0.5 * math.log(2.0 * math.pi * sb2 * v)
            - b * b / (2.0 * sb2 * v)
        )

    # mode of the integrand, found numerically
    b_hat = xty / (xtx + 1.0 / sb2)
    s_hat = rss0 - b_hat * xty
    v_hat = s_hat / (2.0 * a + 3.0)
    res_b = minimize_scalar(lambda b: -log_f1(b, v_hat),
                            bracket=(b_hat - 1.0, b_hat, b_hat + 1.0))
    res_v = minimize_scalar(lambda lv: -log_f1(res_b.x, math.exp(lv)),
                            bracket=(math.log(v_hat) - 1, math.log(v_hat),
                                     math.log(v_hat) + 1))
    b0, v0 = float(res_b.x), math.exp(float(res_v.x))
    peak1 = log_f1(b0, v0)

    sd_b = math.sqrt(v0 / (xtx + 1.0 / sb2))
    sd_lv = math.sqrt(2.0 / (ctx.n - ctx.q))  # log-variance scale
    b_lo, b_hi = b0 - 12.0 * sd_b, b0 + 12.0 * sd_b
    lv_lo, lv_hi = math.log(v0) - 14.0 * sd_lv, math.log(v0) + 14.0 * sd_lv

    # integrate in (b, log v); the Jacobian contributes a factor v
    val1, _ = dblquad(
        lambda b, lv: math.exp(log_f1(b, math.exp(lv)) + lv - peak1),
        lv_lo, lv_hi, b_lo, b_hi, epsabs=0.0, epsrel=epsrel,
    )
    log_m1 = peak1 + math.log(val1)

    def log_f0(v):
        return -(a + 1.0) * math.log(v) - rss0 / (2.0 * v)

    v0n = rss0 / (2.0 * a + 2.0)
    peak0 = log_f0(v0n)
    val0, _ = quad(
        lambda lv: math.exp(log_f0(math.exp(lv)) + lv - peak0),
        math.log(v0n) - 14.0 * sd_lv, math.log(v0n) + 14.0 * sd_lv,
        epsabs=0.0, epsrel=epsrel, limit=200,
    )
    log_m0 = peak0 + math.log(val0)
    return log_m1 - log_m0


def lambda_max_grid(bfs_by_scale, step=1e-3):
    """Grid maximization of Lambda(pi), refined by golden section per scale.

    The per-scale log likelihood is concave in pi, so refining within one
    grid cell of the winning grid point is exact.
    """
    total = 0.0
    pis = []
    for bf in bfs_by_scale:
        bf = np.asarray(bf, dtype=float)
        if bf.size == 0:
            pis.append(0.0)
            continue

        def neg_ll(p, bf=bf):
            return -float(np.sum(np.log1p(p * (bf - 1.0))))

        grid = np.arange(0.0, 1.0 + step / 2, step)
        vals = -np.sum(np.log1p(grid[:, None] * (bf - 1.0)), axis=1)
        k = int(np.argmin(vals))
        lo = grid[max(k - 1, 0)]
        hi = grid[min(k + 1, len(grid) - 1)]
        res = minimize_scalar(neg_ll, bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-12})
        best_p, best_v = float(res.x), float(res.fun)
        for endpoint in (0.0, 1.0):
            if neg_ll(endpoint) < best_v:
                best_p, best_v = endpoint, neg_ll(endpoint)
        pis.append(best_p)
        total += -best_v
    return np.array(pis), float(np.exp(total))


def max_log_lambda_reference(log_bf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``screening.max_log_lambda`` summing log1p over every row, pi = 0 rows too."""
    bf = np.exp(np.atleast_2d(np.asarray(log_bf, dtype=float)))
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
        zero = np.abs(g) <= 1e-15 * np.sum(np.abs(t), axis=1)
        done = zero | (mid <= lo) | (mid >= hi)
        pi[rows[done]] = x[done]
        keep = ~done
        x = np.where((lo < newton) & (newton < hi), newton, mid)[keep]
        rows, lo, hi = rows[keep], lo[keep], hi[keep]
    log_lam = np.sum(np.log1p(pi[:, None] * b), axis=1)
    below = log_lam < 0.0
    pi[below] = 0.0
    log_lam[below] = 0.0
    return pi, log_lam


def max_log_lambda_newton1(log_bf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The solver of null-cache key ``newton1``: a row left its loop only when
    its score was exactly zero or its bracket could no longer be split."""
    bf = np.exp(np.atleast_2d(np.asarray(log_bf, dtype=float)))
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


def simulate_null_reference(lambda1, depth, M, seed):
    """``nullsim.simulate_null``'s sorted sample, drawn a whole scale of a chunk at once."""
    log_const = math.log1p(-lambda1)
    out = np.empty(M)
    for ci in range((M + nullsim.SIM_CHUNK - 1) // nullsim.SIM_CHUNK):
        lo = ci * nullsim.SIM_CHUNK
        hi = min(lo + nullsim.SIM_CHUNK, M)
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed, ci], dtype=np.uint64))
        )
        log_lam = np.zeros(hi - lo)
        for s in range(depth + 1):
            # log BF = 0.5 * (lambda1 * z^2 + log_const), computed in place
            log_bf = rng.standard_normal(size=(hi - lo, 1 << s))
            np.square(log_bf, out=log_bf)
            log_bf *= lambda1
            log_bf += log_const
            log_bf *= 0.5
            log_lam += max_log_lambda(log_bf)[1]
        np.exp(log_lam, out=out[lo:hi])
    out.sort()
    return out


def generate_genotypes_reference(n, n_snps, n_blocks=28, flip_prob=0.1,
                                 span_bp=1_000_000, seed=0):
    """(dosages, positions) of ``simharness.generate_genotypes`` for valid arguments."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    freqs = rng.uniform(0.05, 0.5, size=n_blocks)
    block_of_snp = np.minimum((np.arange(n_snps) * n_blocks) // n_snps, n_blocks - 1)
    dosages = np.zeros((n_snps, n))
    for _hap in range(2):
        latent = rng.random((n_blocks, n)) < freqs[:, None]
        alleles = latent[block_of_snp]
        flips = rng.random((n_snps, n)) < flip_prob
        dosages += np.where(flips, ~alleles, alleles)
    spacing = span_bp / (n_snps + 1)
    jitter = rng.uniform(-0.3, 0.3, size=n_snps) * spacing
    pos = np.sort((np.arange(1, n_snps + 1) * spacing + jitter).astype(np.int64))
    for i in range(1, len(pos)):
        if pos[i] <= pos[i - 1]:
            pos[i] = pos[i - 1] + 1
    return dosages, pos


def average_ranks(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """1-based ranks along ``axis`` with ties sharing their average rank."""
    v = np.moveaxis(np.asarray(values, dtype=float), axis, -1)
    n = v.shape[-1]
    order = np.argsort(v, axis=-1)
    sv = np.take_along_axis(v, order, axis=-1)
    pos = np.arange(n, dtype=float)
    # first/last sorted position of each tie run, broadcast along the run
    is_start = np.empty(sv.shape, dtype=bool)
    is_start[..., 0] = True
    np.not_equal(sv[..., 1:], sv[..., :-1], out=is_start[..., 1:])
    first = np.maximum.accumulate(np.where(is_start, pos, 0.0), axis=-1)
    is_end = np.empty_like(is_start)
    is_end[..., -1] = True
    is_end[..., :-1] = is_start[..., 1:]
    last = np.minimum.accumulate(
        np.where(is_end, pos, n - 1.0)[..., ::-1], axis=-1
    )[..., ::-1]
    ranks = np.empty_like(v)
    np.put_along_axis(ranks, order, 0.5 * (first + last) + 1.0, axis=-1)
    return np.moveaxis(ranks, -1, axis)


def quantile_transform_reference(values: np.ndarray, axis: int = -1) -> tuple[np.ndarray, np.ndarray]:
    """Rank-based inverse-normal (Blom) transform along ``axis``.

    Returns (scores, degenerate): scores_i = Phi^-1((rank_i - 3/8)/(n + 1/4))
    with average ranks for ties; rows whose values are all identical are
    returned as zeros and flagged degenerate.

    Phi^-1 is evaluated on min(u, 1-u) with the sign applied afterwards, so
    negating the values negates the scores exactly (rank reversal maps one
    branch onto the other bit-for-bit); sign-flip robustness of downstream
    statistics is then exact rather than approximate.
    """
    v = np.asarray(values, dtype=float)
    n = v.shape[axis]
    if n < 2:
        raise ValueError("quantile transform needs at least 2 values")
    ranks = average_ranks(v, axis=axis)
    denom = n + 0.25
    u_lo = (ranks - 0.375) / denom
    u_hi = ((n - ranks) + 0.625) / denom  # = 1 - u_lo, computed exactly
    scores = ndtri(np.minimum(u_lo, u_hi))
    np.negative(scores, where=u_lo > u_hi, out=scores)
    degenerate = np.ptp(v, axis=axis) == 0.0
    if np.ndim(degenerate) == 0:
        if degenerate:
            scores = np.zeros_like(scores)
    else:
        mask = np.expand_dims(degenerate, axis=axis if axis >= 0 else v.ndim + axis)
        scores = np.where(mask, 0.0, scores)
    return scores, degenerate


def _float(token, what, line_no):
    try:
        return float(token)
    except ValueError:
        raise DataError(f"line {line_no}: non-numeric {what}: {token!r}") from None


def _check_values(values, what, line_no, lo=-np.inf, hi=np.inf):
    for v in values:
        if not math.isfinite(v):
            raise DataError(f"line {line_no}: non-finite {what} {np.float64(v)}")
        if not lo <= v <= hi:
            raise DataError(f"line {line_no}: {what} {np.float64(v)} outside [{lo:g},{hi:g}]")


def _read_matrix_reference(path, what):
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            tokens = line.split()
            if not tokens:
                continue
            if line_no == 1 and not any(t[0] in "0123456789+-." for t in tokens):
                try:
                    [float(t) for t in tokens]
                except ValueError:
                    continue  # header row
            row = [_float(t, what, line_no) for t in tokens]
            if rows and len(row) != len(rows[0]):
                raise DataError(f"line {line_no}: {len(row)} {what}s, expected {len(rows[0])}")
            _check_values(row, what, line_no)
            rows.append(row)
    if not rows:
        raise DataError(f"{what} file {path} is empty")
    return np.asarray(rows, dtype=float)


def read_genotypes_reference(path, min_iq):
    """Per-token genotype reader: (blocks by chromosome, number of individuals).

    Checks each row completely, in file order, before reading the next.
    """
    raw = {}
    n_ind = None
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            tokens = line.split()
            if not tokens:
                continue
            if line_no == 1 and tokens[0].lower() in ("chrom", "chromosome", "chr", "#chrom"):
                continue
            if len(tokens) < 5:
                raise DataError(f"line {line_no}: expected >= 5 columns, got {len(tokens)}")
            chrom, pos_s, _, iq_s = tokens[:4]
            pos = _float(pos_s, "position", line_no)
            if not (math.isfinite(pos) and pos == math.floor(pos) and abs(pos) < 2.0**63):
                raise DataError(f"line {line_no}: position {pos_s!r} is not a 64-bit integer")
            iq = _float(iq_s, "imputation quality", line_no)
            if not 0.0 <= iq <= 1.0:
                raise DataError(f"line {line_no}: imputation quality {iq} outside [0,1]")
            dosages = [_float(t, "dosage", line_no) for t in tokens[4:]]
            if n_ind is None:
                n_ind = len(dosages)
            elif len(dosages) != n_ind:
                raise DataError(f"line {line_no}: {len(dosages)} dosages, expected {n_ind}")
            _check_values(dosages, "dosage", line_no, 0.0, 2.0)
            if iq < min_iq:
                continue
            raw.setdefault(chrom, []).append((int(pos), iq, np.array(dosages)))
    if n_ind is None:
        raise DataError(f"genotype file {path} has no SNP rows")

    blocks = {}
    for chrom in sorted(raw):
        rows = sorted(raw[chrom], key=lambda r: r[0])
        positions = np.array([r[0] for r in rows], dtype=np.int64)
        for a, b in zip(positions, positions[1:]):
            if a == b:
                raise DataError(f"duplicate position {a} on chromosome {chrom}")
        blocks[chrom] = ChromosomeBlock(
            chromosome=chrom,
            positions=positions,
            imputation_quality=np.array([r[1] for r in rows], dtype=float),
            store=np.vstack([r[2] for r in rows]),
        )
    if not blocks:
        raise DataError("no SNPs passed the imputation-quality filter")
    return blocks, n_ind


def load_cohort_reference(genotype_path, phenotype_path, covariate_path=None, min_iq=0.7):
    """Reference for ``dataio.load_cohort``: same checks, same messages, same
    order (the phenotype and covariate files are parsed before the genotypes)."""
    phenotype = _read_matrix_reference(phenotype_path, "phenotype")
    if phenotype.shape[1] != 1:
        raise DataError(f"phenotype file {phenotype_path} has {phenotype.shape[1]} columns, "
                        "expected 1")
    phenotype = phenotype.ravel()
    covariates = None
    if covariate_path is not None:
        covariates = _read_matrix_reference(covariate_path, "covariate")
    blocks, n_ind = read_genotypes_reference(genotype_path, min_iq)
    if len(phenotype) != n_ind:
        raise DataError(
            f"phenotype has {len(phenotype)} rows but genotypes have {n_ind} individuals"
        )
    if np.var(phenotype) == 0.0:
        raise DataError("phenotype has zero variance")
    if covariates is None:
        covariates = np.empty((n_ind, 0))
    elif covariates.shape[0] != n_ind:
        raise DataError(
            f"covariates have {covariates.shape[0]} rows but cohort has {n_ind}"
        )
    return CohortData(blocks=blocks, phenotype=phenotype, covariates=covariates)


def gpd_negloglik(params, exc) -> float:
    """GPD negative log-likelihood of exceedances at (shape, log scale); inf
    where an exceedance lies past the support's end."""
    xi, log_beta = params
    beta = math.exp(log_beta)
    z = exc / beta
    if abs(xi) < 1e-12:
        return len(exc) * log_beta + float(np.sum(z))
    t = 1.0 + xi * z
    if np.any(t <= 0.0):
        return np.inf
    return len(exc) * log_beta + (1.0 + 1.0 / xi) * float(np.sum(np.log(t)))


def gpd_fit_reference(exc) -> tuple[float, float]:
    """ML GPD (shape, scale) by Nelder-Mead on (shape, log scale) with
    shape >= -1, below which the likelihood is unbounded. It runs three
    times, each from the last one's optimum, as one run can stop short."""
    exc = np.asarray(exc, dtype=float)
    x = np.array([0.1, math.log(float(np.mean(exc)))])
    for _ in range(3):
        x = minimize(gpd_negloglik, x, args=(exc,), method="Nelder-Mead",
                     bounds=[(-1.0, None), (None, None)],
                     options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 100_000,
                              "maxfev": 100_000}).x
    return float(x[0]), math.exp(x[1])
