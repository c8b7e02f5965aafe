"""Null distribution of the locus statistic: simulation, GPD tail, p-values.

Under the null, 2 log BF = lambda1 * Q + log(1 - lambda1) with Q ~ chi2(1),
the square of a standard normal, so the locus statistic can be simulated
directly from the design constant lambda1 without touching genotypes. The
simulated sample covers the bulk of the distribution; a Generalized Pareto
fit to the exceedances over its 99% quantile extrapolates the extreme tail.
``load_or_build_null_model`` is the one way to get a model: it reuses a
cached sample and tail whose header and draws match the key, and simulates,
fits and caches one otherwise.
"""

from __future__ import annotations

import math
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import inv_boxcox

from wavescreen import dataio, screening

SIM_CHUNK = 4096  # fixed so results are independent of threading and memory
SIM_DRAWS = "z2"  # names the draw scheme in cache keys: Q = z^2, z standard normal
MIN_EXCEEDANCES = 30
DEFAULT_M = 100_000


class NullSimError(ValueError):
    """Invalid input to a null-model operation."""


class GPDFitError(RuntimeError):
    """Tail fit failed; caller may fall back to empirical-only p-values."""


@dataclass(frozen=True)
class GPDTail:
    """GPD(shape, scale) fitted to the sample's exceedances over ``threshold``.

    The standard errors come from the observed information at the ML optimum.
    """

    threshold: float
    shape: float
    scale: float
    n_exceedances: int
    se_shape: float
    se_scale: float


@dataclass
class NullModel:
    """Simulated null sample of Lambda_hat plus its fitted Pareto tail, if any."""

    sample: np.ndarray  # sorted ascending
    tail: GPDTail | None = None  # None: the fit failed, p-values are empirical only


def simulate_null(lambda1: float, depth: int, M: int, seed: int) -> np.ndarray:
    """Simulate M maximized Lambda values under the null; returns them sorted.

    Per replicate, each coefficient (2^s per scale s = 0..depth) draws
    Q = z^2 ~ chi2(1), z standard normal, and
    log BF = (lambda1*Q + log(1-lambda1))/2; Lambda_hat is the exponential
    of the summed per-scale maxima of log Lambda_s(pi_s)
    (``screening.max_log_lambda``). Chunks use independent counter-based RNG
    streams keyed by (seed, chunk index), so the output is identical
    regardless of scheduling.
    """
    if not 0.0 < lambda1 < 1.0:
        raise NullSimError("lambda1 must lie in (0, 1)")
    if M < 1:
        raise NullSimError("M must be positive")
    if depth < 0:
        raise NullSimError("depth must be >= 0")
    log_const = math.log1p(-lambda1)
    out = np.empty(M)
    n_chunks = (M + SIM_CHUNK - 1) // SIM_CHUNK
    for ci in range(n_chunks):
        lo = ci * SIM_CHUNK
        hi = min(lo + SIM_CHUNK, M)
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
            log_lam += screening.max_log_lambda(log_bf)[1]
        out[lo:hi] = np.exp(log_lam)
    out.sort()
    return out


def _gpd_negloglik(params: np.ndarray, exc: np.ndarray) -> float:
    xi, log_beta = params
    beta = math.exp(log_beta)
    z = exc / beta
    if abs(xi) < 1e-12:
        return len(exc) * log_beta + float(np.sum(z))
    t = 1.0 + xi * z
    if np.any(t <= 0.0):
        return np.inf
    return len(exc) * log_beta + (1.0 + 1.0 / xi) * float(np.sum(np.log(t)))


def fit_gpd_exceedances(exc: np.ndarray) -> tuple[float, float, float, float]:
    """ML GPD(shape, scale) fit to raw exceedances (measured from zero).

    Returns (shape, scale, se_shape, se_scale). Standard errors come from
    the numerically observed information at the optimum (NaN if it cannot
    be inverted). Raises GPDFitError on too few points, degenerate data, or
    non-convergence.
    """
    exc = np.asarray(exc, dtype=float)
    if len(exc) < MIN_EXCEEDANCES:
        raise GPDFitError(f"only {len(exc)} exceedances; need {MIN_EXCEEDANCES}")
    if np.ptp(exc) == 0.0:
        raise GPDFitError("exceedances are constant; GPD likelihood is degenerate")
    # imported here, as only a cache miss fits a tail: scipy.optimize
    # takes about a third of the command line's start-up
    from scipy.optimize import minimize

    x0 = np.array([0.1, math.log(float(np.mean(exc)))])
    res = minimize(_gpd_negloglik, x0, args=(exc,), method="Nelder-Mead",
                   options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 20000})
    if not res.success:
        raise GPDFitError(f"GPD maximum likelihood did not converge: {res.message}")
    xi, beta = float(res.x[0]), float(math.exp(res.x[1]))

    # observed information in (xi, beta) by central finite differences
    def nll_nat(p):
        return _gpd_negloglik(np.array([p[0], math.log(p[1])]), exc)

    h = np.array([1e-5, max(beta * 1e-5, 1e-12)])
    H = np.empty((2, 2))
    p0 = np.array([xi, beta])
    for i in range(2):
        for j in range(2):
            pp = p0.copy(); pp[i] += h[i]; pp[j] += h[j]
            pm = p0.copy(); pm[i] += h[i]; pm[j] -= h[j]
            mp = p0.copy(); mp[i] -= h[i]; mp[j] += h[j]
            mm = p0.copy(); mm[i] -= h[i]; mm[j] -= h[j]
            H[i, j] = (nll_nat(pp) - nll_nat(pm) - nll_nat(mp) + nll_nat(mm)) / (
                4.0 * h[i] * h[j]
            )
    try:
        cov = np.linalg.inv(H)
        se_xi, se_beta = float(np.sqrt(cov[0, 0])), float(np.sqrt(cov[1, 1]))
    except (np.linalg.LinAlgError, ValueError):
        se_xi = se_beta = float("nan")
    return xi, beta, se_xi, se_beta


def fit_gpd_tail(sample: np.ndarray) -> GPDTail:
    """ML-fit the tail above the sample's 99% quantile.

    Raises GPDFitError when fewer than ``MIN_EXCEEDANCES`` values exceed the
    threshold or the fit fails.
    """
    sample = np.asarray(sample, dtype=float)
    u = float(np.quantile(sample, 0.99))
    exc = sample[sample > u] - u
    if len(exc) < MIN_EXCEEDANCES:
        raise GPDFitError(
            f"only {len(exc)} exceedances above u={u:.6g}; need {MIN_EXCEEDANCES}"
        )
    xi, beta, se_xi, se_beta = fit_gpd_exceedances(exc)
    return GPDTail(u, xi, beta, len(exc), se_xi, se_beta)


def p_value(model: NullModel, lambda_obs: float) -> float:
    """Null survival probability of an observed Lambda_hat.

    Empirical below the tail threshold; GPD tail survival above it. Uses
    the (count >= obs + 1)/(M + 1) convention for the empirical part.
    """
    if not lambda_obs >= 1.0:  # NaN fails this too
        raise NullSimError(f"Lambda_hat must be at least 1, got {lambda_obs!r}")
    M = len(model.sample)
    tail = model.tail
    if tail is not None and lambda_obs > tail.threshold:
        # GPD survival (1 + xi z)^(-1/xi), zero from the endpoint -1/xi of a xi < 0 tail on
        xi, z = tail.shape, (lambda_obs - tail.threshold) / tail.scale
        sf = 0.0 if xi < 0.0 and z >= -1.0 / xi else float(inv_boxcox(-z, -xi))
        return float(tail.n_exceedances / M * sf)
    n_ge = M - int(np.searchsorted(model.sample, lambda_obs, side="left"))
    return (n_ge + 1.0) / (M + 1.0)


def screen_windows(windows, blocks, ctx, kinds, models, threads):
    """Screen each window, on its chromosome's entry of ``blocks``, for every kind and
    phenotype of ``ctx``: one ``window_spectra`` pass a window, one
    ``scale_log_bf`` job per (kind, scale), one Lambda-hat per kind and
    phenotype, and a p-value from ``models[depth]`` for each non-degenerate
    result. Windows and jobs share one pool of ``threads`` threads, at most one
    per usable CPU. A window's task submits its jobs, largest scale first, runs
    each one that no worker has started and waits on the rest, so workers with
    no window left to start take a share of the last windows' jobs. Results come
    in (chromosome, start, kind, phenotype) order; an error names its window and kind."""
    def run(w):
        kind = kinds[0]  # an error before the first job names the first kind
        try:
            spectra = screening.window_spectra(w, blocks[w.chromosome], kinds)
            jobs = [(kind, s) for s in range(w.depth, -1, -1) for kind in kinds]
            # a job finds its scale here, not in its queued arguments, so a job
            # cancelled in the queue holds none of the window's arrays
            args = [(spectra[kind][0][s], spectra[kind][1][s]) for kind, s in jobs]
            del spectra

            def job(i):
                scale, args[i] = args[i], None  # the arrays go when the job returns
                return screening.scale_log_bf(ctx, *scale)

            futures = [pool.submit(job, i) for i in range(len(jobs))]
            done = {}
            try:
                for i, (kind, s) in enumerate(jobs):
                    if futures[i].cancel():  # no worker started it
                        done[kind, s] = job(i)
                for i, (kind, s) in enumerate(jobs):
                    if (kind, s) not in done:
                        done[kind, s] = futures[i].result()
            finally:
                for future in futures:
                    future.cancel()  # after an error, the jobs not yet started
            results = []
            for kind in kinds:
                scales = [done[kind, s] for s in range(w.depth + 1)]
                for res in screening.locus_results(w, kind, scales):
                    if not res.degenerate:
                        res.p_value = p_value(models[w.depth], res.lambda_hat)
                    results.append(res)
        except Exception as exc:
            raise RuntimeError(
                f"window {w.chromosome}:{w.start_bp}-{w.end_bp} ({kind}): {exc}") from exc
        return results

    # the largest windows start first, so that no long one starts last, and a
    # window's jobs queue behind every window not yet started, so a worker takes
    # a job only when no window is left for it; results, and the first error,
    # are still taken in the windows' order
    by_size = sorted(range(len(windows)), key=lambda i: windows[i].n_snps, reverse=True)
    with ThreadPoolExecutor(max_workers=max(1, min(threads, dataio._usable_cpus()))) as pool:
        futures = {i: pool.submit(run, windows[i]) for i in by_size}
        try:
            results = [r for i in range(len(windows)) for r in futures[i].result()]
        finally:
            for future in futures.values():
                future.cancel()  # after an error, the windows not yet started
    results.sort(key=lambda r: (r.window.chromosome, r.window.start_bp, r.coefficient_kind))
    return results


def _cache_name(lambda1: float, depth: int, M: int, seed: int) -> str:
    # float.hex is exact: two design constants share a file only if they are
    # equal; the chunk size sets which RNG stream draws which replicate, and the
    # draw scheme what a stream's numbers become
    return (f"null_l{float.hex(lambda1)}_d{depth}_M{M}_s{seed}_c{SIM_CHUNK}_{SIM_DRAWS}"
            f"_{screening.SOLVER_VERSION}.tsv")


def _cache_header(lambda1: float, depth: int, M: int, seed: int) -> str:
    key = (float.hex(lambda1), depth, M, seed, SIM_CHUNK, SIM_DRAWS, screening.SOLVER_VERSION)
    return "lambda1\tdepth\tM\tseed\tchunk\tdraws\tsolver\n" + "\t".join(map(str, key)) + "\n"


def _tail_line(tail: GPDTail | None) -> str:
    """The fitted tail as one line: u, xi, beta and their standard errors as
    ``float.hex``, then the exceedance count; ``none`` when the fit failed."""
    if tail is None:
        return "tail\tnone\n"
    values = (tail.threshold, tail.shape, tail.scale, tail.se_shape, tail.se_scale)
    return "tail\t" + "\t".join(map(float.hex, values)) + f"\t{tail.n_exceedances}\n"


def _parse_tail(line: str) -> GPDTail | None:
    """Inverse of ``_tail_line``; raises ValueError on any other line."""
    fields = line.split("\t")
    if fields == ["tail", "none"]:
        return None
    if len(fields) != 7 or fields[0] != "tail":
        raise ValueError(f"not a tail line: {line!r}")
    u, xi, beta, se_xi, se_beta = map(float.fromhex, fields[1:6])
    return GPDTail(u, xi, beta, int(fields[6]), se_xi, se_beta)


def save_null_model(
    model: NullModel, lambda1: float, depth: int, seed: int, cache_dir: str
) -> str:
    """Write the sorted sample and its fitted tail, under a header holding
    their key, to the cache directory.

    The key gives lambda1 as ``float.hex``, exactly, in the file name and the
    header. The file is written under a temporary name and renamed into place,
    so a reader never sees a partial file.
    """
    os.makedirs(cache_dir, exist_ok=True)
    M = len(model.sample)
    path = os.path.join(cache_dir, _cache_name(lambda1, depth, M, seed))
    fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=cache_dir)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(_cache_header(lambda1, depth, M, seed))
            fh.write(_tail_line(model.tail))
            fh.write("lambda_hat\n")
            for v in model.sample.tolist():  # Python floats format faster than numpy scalars
                fh.write(f"{v:.17g}\n")
        os.chmod(tmp, 0o644)  # mkstemp's file is private; a shared cache is not
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def _load_model(path: str, header: str, M: int) -> NullModel | None:
    """The cached model, or None when the file is missing, its tail line does
    not parse, or it does not hold exactly M finite, sorted draws under
    ``header``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (FileNotFoundError, UnicodeDecodeError):
        return None
    lines = text[len(header):].splitlines()
    if not text.startswith(header) or len(lines) != M + 2 or lines[1] != "lambda_hat":
        return None
    try:
        tail = _parse_tail(lines[0])
        sample = np.loadtxt(lines[2:], ndmin=1)
    except ValueError:
        return None
    ok = sample.shape == (M,) and np.all(np.isfinite(sample)) and np.all(np.diff(sample) >= 0)
    return NullModel(sample, tail) if ok else None


def load_or_build_null_model(
    lambda1: float, depth: int, M: int, seed: int, cache_dir: str | None = None
) -> NullModel:
    """The null model for this exact key: simulated, or reused from the cache.

    A cached file holds the sample and its fitted tail, so a reuse fits
    nothing. A cache file whose header, tail line or draws do not match the
    key is simulated again and overwritten. A failed tail fit is not fatal:
    the model gets no ``tail`` and falls back to empirical-only p-values.
    """
    if cache_dir is not None:
        path = os.path.join(cache_dir, _cache_name(lambda1, depth, M, seed))
        model = _load_model(path, _cache_header(lambda1, depth, M, seed), M)
        if model is not None:
            return model
    sample = simulate_null(lambda1, depth, M, seed)
    try:
        tail = fit_gpd_tail(sample)
    except GPDFitError:
        tail = None
    model = NullModel(sample, tail)
    if cache_dir is not None:
        save_null_model(model, lambda1, depth, seed, cache_dir)
    return model
