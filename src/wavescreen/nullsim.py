"""Null distribution of the locus statistic: simulation, GPD tail, p-values.

Under the null, 2 log BF = lambda1 * Q + log(1 - lambda1) with Q ~ chi2(1),
the square of a standard normal, so the locus statistic can be simulated
directly from the design constant lambda1 without touching genotypes. The
simulated sample covers the bulk of the distribution; a Generalized Pareto
fit to the exceedances over its 99% quantile extrapolates the extreme tail.
``load_or_build_null_model`` is the one way to get a model: it reuses a
cached sample whose header and draws match the key, or simulates and caches
one, fits its tail and warns when the fit fails. ``screen_windows``, the path
from windows to reported results, builds one model per window depth.
"""

from __future__ import annotations

import math
import os
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import inv_boxcox

from wavescreen import bayes, dataio, screening

SIM_CHUNK = 4096  # fixed so results are independent of threading and memory
# draws per solver call, 1 MiB of doubles: as fast as whole chunks on 2 cores
# at depths 6-10, where 2^16 paid 10-15% in per-call overhead; not in the key
SIM_BLOCK = 1 << 17
SIM_DRAWS = "z2"  # names the draw scheme in cache keys: Q = z^2, z standard normal
MIN_EXCEEDANCES = 30
DEFAULT_M = 100_000


class GPDFitError(RuntimeError):
    """Tail fit failed; caller may fall back to empirical-only p-values."""


@dataclass(frozen=True)
class GPDTail:
    """GPD(shape, scale) fitted to the sample's exceedances over ``threshold``.

    The standard errors come from the expected information (NaN for shape <= -1/2).
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
    tail_error: str | None = None  # why the fit failed, when it did


def simulate_null(lambda1: float, depth: int, M: int, seed: int,
                  threads: int = 1) -> np.ndarray:
    """Simulate M maximized Lambda values under the null; returns them sorted.

    Per replicate, each coefficient (2^s per scale s = 0..depth) draws
    Q = z^2 ~ chi2(1), z standard normal, and
    log BF = (lambda1*Q + log(1-lambda1))/2; Lambda_hat is the exponential
    of the summed per-scale maxima of log Lambda_s(pi_s)
    (``screening.max_log_lambda``). Chunks of ``SIM_CHUNK`` replicates use
    independent counter-based RNG streams keyed by (seed, chunk index) and
    each writes its own slice of the output, so the sample is bitwise the same
    at any thread count. They run on a pool of ``threads`` threads, at most
    one per chunk and per usable CPU. A chunk draws and solves each scale in
    consecutive blocks of rows, ``SIM_BLOCK`` draws or one row of 2^s, which
    take the generator's stream in the order one whole-scale draw would; the
    solver treats each row alone, so the sample does not depend on the block
    size. So a thread holds one chunk's running sums, ``SIM_CHUNK`` doubles,
    and one block's draws plus the solver's temporaries of that size, 1 MiB
    each, at any depth up to 17.
    """
    if not 0.0 < lambda1 < 1.0:
        raise ValueError("lambda1 must lie in (0, 1)")
    if M < 1:
        raise ValueError("M must be positive")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    log_const = math.log1p(-lambda1)
    out = np.empty(M)
    n_chunks = (M + SIM_CHUNK - 1) // SIM_CHUNK

    def chunk(ci):
        lo = ci * SIM_CHUNK
        hi = min(lo + SIM_CHUNK, M)
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed, ci], dtype=np.uint64))
        )
        log_lam = np.zeros(hi - lo)
        for s in range(depth + 1):
            rows = max(1, SIM_BLOCK >> s)
            for r in range(0, hi - lo, rows):
                # log BF = 0.5 * (lambda1 * z^2 + log_const), computed in place
                log_bf = rng.standard_normal(size=(min(rows, hi - lo - r), 1 << s))
                np.square(log_bf, out=log_bf)
                log_bf *= lambda1
                log_bf += log_const
                log_bf *= 0.5
                log_lam[r:r + rows] += screening.max_log_lambda(log_bf)[1]
        np.exp(log_lam, out=out[lo:hi])

    with ThreadPoolExecutor(max_workers=min(threads, n_chunks, dataio._usable_cpus())) as pool:
        list(pool.map(chunk, range(n_chunks)))  # reads every result, so raises a chunk's error
    out.sort()
    return out


def _profile(theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """l*(theta)/n at each theta: -[log(xi/theta) + xi + 1] with
    xi = mean(log1p(theta x)), its limit -[log mean(x) + 1] at theta = 0, and
    -inf where xi < -1, where the likelihood is unbounded."""
    rows = max(1, (1 << 20) // len(x))  # caps the (theta, x) block at 8 MiB
    with np.errstate(divide="ignore", invalid="ignore"):
        xi = np.concatenate([np.log1p(np.multiply.outer(theta[i:i + rows], x)).sum(axis=1)
                             for i in range(0, len(theta), rows)]) / len(x)
        ll = -(np.log(np.where(theta == 0.0, np.mean(x), xi / theta)) + xi + 1.0)
    return np.where(xi >= -1.0, ll, -np.inf)


def fit_gpd_exceedances(exc: np.ndarray) -> tuple[float, float, float, float]:
    """ML GPD(shape, scale) fit to raw exceedances (measured from zero).

    Maximizes the profile likelihood in theta = xi/beta (Grimshaw 1993),
    l*(theta) = -n [log(xi/theta) + xi + 1] with xi = mean(log1p(theta x)) and
    beta = xi/theta, over theta > -1/max(x) with xi >= -1: on a grid up to
    twice 2 (mean(x) - min(x)) / min(x)^2, past which l* has no stationary
    point, then on 17 points between the best point's neighbours, narrowed to
    the best one's until they are less than 1e-10 (1 + |theta| max(x)) / max(x)
    apart. Returns (shape, scale, se_shape, se_scale); the errors are Smith's
    (1987) (1 + xi)/sqrt(n) and beta sqrt(2 (1 + xi)/n), NaN for xi <= -1/2.
    Raises GPDFitError on too few points, constant or non-positive data, or
    no interior maximum: the likelihood highest at xi = -1, the uniform law.
    """
    x = np.asarray(exc, dtype=float)
    n = len(x)
    if n < MIN_EXCEEDANCES:
        raise GPDFitError(f"only {n} exceedances; need {MIN_EXCEEDANCES}")
    if np.ptp(x) == 0.0:
        raise GPDFitError("exceedances are constant; GPD likelihood is degenerate")
    lo, hi = float(np.min(x)), float(np.max(x))
    if not lo > 0.0:
        raise GPDFitError(f"exceedances must be positive, got {lo:.6g}")
    # grid in t = theta max(x): from -1 (xi = -inf) up to 0, densest at -1,
    # then geometric up to twice Grimshaw's bound
    top = 4.0 * (float(np.mean(x)) - lo) * hi / lo**2
    t = np.concatenate([[-1.0], np.geomspace(1e-12, 1.0, 48) - 1.0,
                        np.geomspace(min(1e-6, top / 2), top, 48)])
    ll = _profile(t / hi, x)
    i = int(np.argmax(ll))
    if i == len(t) - 1 or not np.isfinite(ll[i]):
        raise GPDFitError("the GPD likelihood has no interior maximum")
    a, c = t[i - 1], t[i + 1]
    while c - a > 1e-10 * (1.0 + abs(t[i])):
        t = np.linspace(a, c, 17)
        ll = _profile(t / hi, x)
        i = int(np.argmax(ll))
        a, c = t[max(i - 1, 0)], t[min(i + 1, 16)]
    t_hat, ll_hat = t[i], ll[i]
    if ll_hat < -math.log(hi):
        raise GPDFitError("the GPD likelihood is highest at shape -1, the uniform "
                          "law on [0, max exceedance]: no interior maximum")
    theta = t_hat / hi
    xi = float(np.mean(np.log1p(theta * x)))
    beta = xi / theta if theta != 0.0 else float(np.mean(x))
    if xi > -0.5:
        se_xi, se_beta = (1.0 + xi) / math.sqrt(n), beta * math.sqrt(2.0 * (1.0 + xi) / n)
    else:
        se_xi = se_beta = float("nan")
    return xi, beta, se_xi, se_beta


def fit_gpd_tail(sample: np.ndarray) -> GPDTail:
    """ML-fit the tail above the sample's 99% quantile.

    The exceedances are the sample's last values once it is sorted
    ascending, as a ``NullModel``'s already is; any other sample is sorted
    first.

    Raises GPDFitError when fewer than ``MIN_EXCEEDANCES`` values exceed the
    threshold or the fit fails.
    """
    sample = np.asarray(sample, dtype=float)
    u = float(np.quantile(sample, 0.99))
    if np.any(sample[1:] < sample[:-1]):
        sample = np.sort(sample)
    exc = sample[np.searchsorted(sample, u, "right"):] - u
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
        raise ValueError(f"Lambda_hat must be at least 1, got {lambda_obs!r}")
    M = len(model.sample)
    tail = model.tail
    if tail is not None and lambda_obs > tail.threshold:
        # GPD survival (1 + xi z)^(-1/xi), zero from the endpoint -1/xi of a xi < 0 tail on
        xi, z = tail.shape, (lambda_obs - tail.threshold) / tail.scale
        sf = 0.0 if xi < 0.0 and z >= -1.0 / xi else float(inv_boxcox(-z, -xi))
        return float(tail.n_exceedances / M * sf)
    n_ge = M - int(np.searchsorted(model.sample, lambda_obs, side="left"))
    return (n_ge + 1.0) / (M + 1.0)


def screen_windows(windows, blocks, ctx, kinds, M, seed, cache_dir, threshold, threads):
    """Screen each window, on its chromosome's entry of ``blocks``, for every kind and
    phenotype of ``ctx``: one ``window_spectra`` pass a window, one
    ``scale_log_bf`` job per (kind, scale), and one result per kind and
    phenotype, its p-value from the null model of the window's depth for each
    non-degenerate one. Those models, one per distinct depth in ascending
    order, come from ``load_or_build_null_model`` on the design constant of
    ``ctx`` and ``M``, ``seed``, ``cache_dir`` and ``threshold``, and a missing
    sample is simulated on ``threads`` threads. Windows and
    jobs share one pool of ``threads`` threads, at most one per usable CPU. A
    window's task submits its jobs, largest scale first, runs each one that no
    worker has started and waits on the rest, so workers with no window left to
    start take a share of the last windows' jobs. Results come in (chromosome,
    start, kind, phenotype) order; an error names its window and kind."""
    lam1 = bayes.lambda1(ctx)
    models = {depth: load_or_build_null_model(lam1, depth, M, seed, cache_dir, threshold,
                                              threads)
              for depth in sorted({w.depth for w in windows})}

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
                log_bfs, locs = zip(*(done[kind, s] for s in range(w.depth + 1)))
                pi_hat, lam = screening.maximize_lambda(log_bfs)
                # a window with no live coefficient has pi_hat = 0, Lambda_hat = 1
                degenerate = not any(loc.size for loc in locs)
                for p, lam_p in enumerate(lam.tolist()):
                    results.append(screening.LocusResult(
                        w, kind, [lb[p] for lb in log_bfs], list(locs), pi_hat[p], lam_p,
                        degenerate, None if degenerate else p_value(models[w.depth], lam_p)))
        except Exception as exc:
            # the window's maps go before its error is raised: the scales of
            # the jobs not run, those held by a failed job's future and the
            # locals of every frame the error passed through
            args = futures = None
            traceback.clear_frames(exc.__traceback__)
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


def save_null_model(model: NullModel, lambda1: float, depth: int, seed: int,
                    cache_dir: str) -> None:
    """Write the sorted sample, under a header holding its key, to the cache
    directory; the tail is not stored, as every load fits it.

    The key gives lambda1 as ``float.hex``, exactly, in the file name and the
    header. ``dataio.replace_file`` syncs the file and renames it into place,
    so a reader never sees a partial one; one that cannot be written raises.
    """
    M = len(model.sample)
    # one %-format of Python floats; the same text as f"{v:.17g}\n" per value
    text = _cache_header(lambda1, depth, M, seed) + "lambda_hat\n" + (
        ("%.17g\n" * M) % tuple(np.asarray(model.sample, dtype=float).tolist()))
    dataio.replace_file(os.path.join(cache_dir, _cache_name(lambda1, depth, M, seed)),
                        [text.encode("utf-8")])


def _load_sample(path: str, header: str, M: int) -> np.ndarray | None:
    """The cached sample, or None when the file cannot be read or does not hold
    exactly M finite, sorted draws under ``header`` and a ``lambda_hat`` line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError):
        return None
    lines = text[len(header):].splitlines()
    if not text.startswith(header) or len(lines) != M + 1 or lines[0] != "lambda_hat":
        return None
    try:
        sample = np.loadtxt(lines[1:], ndmin=1)
    except ValueError:
        return None
    ok = sample.shape == (M,) and np.all(np.isfinite(sample)) and np.all(np.diff(sample) >= 0)
    return sample if ok else None


def load_or_build_null_model(
    lambda1: float, depth: int, M: int, seed: int, cache_dir: str | None = None,
    threshold: float | None = None, threads: int = 1,
) -> NullModel:
    """The null model for this exact key: simulated on ``threads`` threads
    (``simulate_null``), or reused from the cache, with its tail fitted.

    A cache file holds the sample only, and every load fits its tail, so a
    model's tail always comes from this fit. A cache file that cannot be
    read, or whose header or draws do not match the key, is simulated again
    and overwritten; one that cannot be written costs a warning. A failed
    tail fit is not fatal: the model gets no ``tail``, its ``tail_error``
    says why, its p-values are empirical only, and one warning gives the
    depth, the reason, their floor 1/(M+1) and, when that floor is above
    ``threshold``, that no window of this depth can pass it.
    """
    sample = None
    if cache_dir is not None:
        path = os.path.join(cache_dir, _cache_name(lambda1, depth, M, seed))
        sample = _load_sample(path, _cache_header(lambda1, depth, M, seed), M)
    missed = sample is None
    if missed:
        sample = simulate_null(lambda1, depth, M, seed, threads)
    try:
        model = NullModel(sample, fit_gpd_tail(sample))
    except GPDFitError as exc:
        model = NullModel(sample, None, str(exc))
    if missed and cache_dir is not None:
        try:
            save_null_model(model, lambda1, depth, seed, cache_dir)
        except OSError as exc:
            print(f"warning: null sample not cached: {exc}", file=sys.stderr)
    if model.tail is None:
        floor = 1.0 / (M + 1)
        unreachable = (f", above the significance threshold {threshold:g}, so no window "
                       "of this depth can pass it"
                       if threshold is not None and floor > threshold else "")
        print(f"warning: GPD tail fit failed at depth {depth} ({model.tail_error}): its "
              f"p-values are empirical, at least 1/(M+1) = {floor:g}{unreachable}",
              file=sys.stderr)
    return model
