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
per-n table.
"""

import math

import numpy as np
from scipy.integrate import dblquad, quad
from scipy.optimize import minimize_scalar
from scipy.special import ndtri

from wavescreen.dataio import ChromosomeBlock, CohortData, DataError
from wavescreen.wavelet import WaveletError


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
    xt = ctx.x_tilde
    a = 0.5 * (ctx.n - ctx.q)
    rss0 = float(yt @ yt)
    xty = float(xt @ yt)
    xtx = ctx.xtx
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
        vals = np.array([neg_ll(p) for p in grid])
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
        raise WaveletError("quantile transform needs at least 2 values")
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
            if line_no == 1:
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
            chrom, pos_s, snp_id, iq_s = tokens[:4]
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
            raw.setdefault(chrom, []).append((int(pos), snp_id, iq, np.array(dosages)))
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
            snp_ids=[r[1] for r in rows],
            imputation_quality=np.array([r[2] for r in rows], dtype=float),
            dosages=np.vstack([r[3] for r in rows]),
        )
    if not blocks:
        raise DataError("no SNPs passed the imputation-quality filter")
    return blocks, n_ind


def load_cohort_reference(genotype_path, phenotype_path, covariate_path=None, min_iq=0.7):
    """Reference for ``dataio.load_cohort``: same checks, same messages."""
    blocks, n_ind = read_genotypes_reference(genotype_path, min_iq)
    phenotype = _read_matrix_reference(phenotype_path, "phenotype").ravel()
    if len(phenotype) != n_ind:
        raise DataError(
            f"phenotype has {len(phenotype)} rows but genotypes have {n_ind} individuals"
        )
    if np.var(phenotype) == 0.0:
        raise DataError("phenotype has zero variance")
    covariates = np.empty((n_ind, 0))
    if covariate_path is not None:
        covariates = _read_matrix_reference(covariate_path, "covariate")
        if covariates.shape[0] != n_ind:
            raise DataError(
                f"covariates have {covariates.shape[0]} rows but cohort has {n_ind}"
            )
    return CohortData(blocks=blocks, phenotype=phenotype, covariates=covariates)
