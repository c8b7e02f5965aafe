"""Closed-form Bayes factors for reverse regression with covariates.

Each quantile-transformed wavelet coefficient y is regressed on the
phenotype (plus intercept and covariates); the Bayes factor compares the
model with the phenotype term against the covariate-only null under a
normal prior on the phenotype effect and the standard improper prior on
the residual variance. The phenotype is screened as its covariate residual
scaled to unit variance, so the prior SD sigma_b is in residual-phenotype
SDs and the design constant lambda1 = sigma_b^2 n / (1 + sigma_b^2 n)
depends on n and sigma_b alone. It governs the null law
2 log BF = lambda1 * Q1 + log(1 - lambda1), Q1 ~ chi2(1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_SIGMA_B = 0.2


@dataclass(frozen=True)
class DesignContext:
    """Immutable design of P phenotypes shared by all coefficient regressions.

    ``basis`` is an orthonormal basis of span([1, C]); column p of
    ``x_tilde`` is phenotype p projected orthogonal to it and scaled to unit
    variance, so every column's sum of squares x'x is n. A single phenotype
    is the batch P = 1.
    """

    n: int
    q: int  # rank of [1, C]
    sigma_b: float
    basis: np.ndarray  # (n, q)
    x_tilde: np.ndarray  # (n, P), contiguous columns

    def residualize(self, y: np.ndarray) -> np.ndarray:
        """Project y (shape (n,) or (n, k)) orthogonal to [1, C].

        y - Q (Q'y) is subtracted into the array of the projection Q (Q'y),
        so a call makes one (n, k) temporary, its result."""
        y = np.asarray(y, dtype=float)
        proj = self.basis @ (self.basis.T @ y)
        return np.subtract(y, proj, out=proj)


def valid_sigma_b(sigma_b: float) -> bool:
    """True if sigma_b > 0 and the Bayes factor's sigma_b^2 and sigma_b^-2 are finite, nonzero."""
    s = float(sigma_b)
    try:
        return s > 0.0 and 0.0 < s ** 2 < math.inf and 0.0 < s ** -2 < math.inf
    except OverflowError:
        return False


def build_design(
    phenotype: np.ndarray,
    covariates: np.ndarray | None = None,
    sigma_b: float = DEFAULT_SIGMA_B,
) -> DesignContext:
    """Residualize each phenotype on intercept + covariates; scale it to unit variance.

    ``phenotype`` is (n, P) for P phenotypes screened together; an (n,)
    phenotype is the one column of an (n, 1) design. Each column is
    projected and scaled on its own, so a column equals the design of that
    column alone bit for bit, and a*y + b gives the design of y up to
    rounding and sign; sigma_b is in SDs of the residual. Raises
    ValueError for rank-deficient covariates, a sigma_b that
    ``valid_sigma_b`` rejects or whose sigma_b^2 n rounds lambda1 to 1, a
    zero-variance phenotype, or one collinear with the covariates; with
    P > 1 the error names the column.
    """
    phi = np.asarray(phenotype, dtype=float)
    n = len(phi)
    columns = phi.reshape(n, -1).T
    if covariates is None:
        covariates = np.empty((n, 0))
    C = np.asarray(covariates, dtype=float)
    if C.ndim == 1:
        C = C[:, None]
    if C.shape[0] != n:
        raise ValueError(f"covariates have {C.shape[0]} rows, phenotype {n}")
    if not valid_sigma_b(sigma_b):
        raise ValueError(f"sigma_b must be positive with a finite, nonzero square "
                          f"and inverse square, got {sigma_b}")
    s2n = float(sigma_b) ** 2 * n  # as lambda1 forms it; > 0 for a valid sigma_b
    if not s2n / (1.0 + s2n) < 1.0:
        raise ValueError(
            f"sigma_b = {sigma_b:g} and n = {n} give sigma_b^2 n = {s2n:g}, so lambda1 = "
            "sigma_b^2 n / (1 + sigma_b^2 n) rounds to 1; it must lie below 1")
    Z = np.column_stack([np.ones(n), C])
    Q, R = np.linalg.qr(Z)
    q = Z.shape[1]
    if np.any(np.abs(np.diag(R)) < 1e-10 * max(1.0, np.abs(R).max())):
        raise ValueError("covariate matrix is rank-deficient after adding intercept")
    x_rows = []
    for j, col in enumerate(columns):
        name = "phenotype" if len(columns) == 1 else f"phenotype column {j}"
        # a fresh contiguous vector with its largest value in [0.5, 1): a
        # power-of-two scale is exact, and keeps its sums of squares finite
        col = np.ldexp(col, -np.frexp(np.abs(col).max())[1])
        if np.var(col) == 0.0:
            raise ValueError(f"{name} has zero variance")
        resid = col - Q @ (Q.T @ col)
        rss = float(resid @ resid)
        if rss <= 1e-12 * float(col @ col):
            raise ValueError(f"{name} is collinear with the covariates")
        x_rows.append(resid * math.sqrt(n / rss))
    if n <= q + 1:
        raise ValueError(f"need n > q + 1 (n={n}, q={q})")
    # rows of a (P, n) array are the contiguous columns of its (n, P) transpose
    return DesignContext(n=n, q=q, sigma_b=float(sigma_b), basis=Q, x_tilde=np.array(x_rows).T)


def log_bayes_factor(ctx: DesignContext, y: np.ndarray) -> np.ndarray:
    """log BF of each phenotype's model over the covariate-only null.

    ``y`` has shape (n,) or (n, k) for k coefficients at once; the result
    has a leading axis of length P: (P,) or (P, k). With y_tilde =
    residualized y, RSS0 = y'y, RSS1 = RSS0 - (x'y)^2/(n + sigma_b^-2), as
    x'x = n for every column:

        BF = (1 + sigma_b^2 n)^(-1/2) * (RSS0/RSS1)^((n - q)/2)

    Accumulated in log space. y is residualized and RSS0 formed once for
    all P phenotypes. Each x'y row is its own vector product, so row p is
    bitwise what a design of phenotype p alone gives.
    """
    y = np.asarray(y, dtype=float)
    Y = y.reshape(len(y), -1)
    if Y.shape[0] != ctx.n:
        raise ValueError(f"y has {Y.shape[0]} rows, design has {ctx.n}")
    if not np.all(np.isfinite(Y)):
        raise ValueError("y contains non-finite values")
    Yt = ctx.residualize(Y)
    rss0 = np.einsum("ij,ij->j", Yt, Yt)
    xty = np.array([x @ Yt for x in ctx.x_tilde.T])
    rss1 = rss0 - xty ** 2 / (ctx.n + ctx.sigma_b ** -2)
    if np.any(rss1 <= 0.0):
        raise ValueError("nonpositive residual sum of squares (degenerate response)")
    # rss0 >= rss1 > 0, so both logs are finite
    log_ratio = np.log(rss0) - np.log(rss1)
    logbf = -0.5 * np.log1p(ctx.sigma_b ** 2 * ctx.n) + 0.5 * (ctx.n - ctx.q) * log_ratio
    return logbf.reshape((ctx.x_tilde.shape[1],) + y.shape[1:])


def lambda1(ctx: DesignContext) -> float:
    """Design constant of the null Bayes-factor law, shared by every phenotype.

    lambda1 = sigma_b^2 n / (1 + sigma_b^2 n), which ``build_design`` keeps
    below 1; under the null, 2 log BF -> lambda1 * chi2(1) + log(1 - lambda1)
    asymptotically.
    """
    s2n = ctx.sigma_b ** 2 * ctx.n
    return s2n / (1.0 + s2n)
