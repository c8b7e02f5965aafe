"""Closed-form Bayes factors for reverse regression with covariates.

Each quantile-transformed wavelet coefficient y is regressed on the
phenotype (plus intercept and covariates); the Bayes factor compares the
model with the phenotype term against the covariate-only null under a
normal prior on the phenotype effect and the standard improper prior on
the residual variance. The design constant lambda1 governs the null law
2 log BF = lambda1 * Q1 + log(1 - lambda1), Q1 ~ chi2(1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_SIGMA_B = 0.2


class DesignError(ValueError):
    """Degenerate or inconsistent regression design."""


@dataclass(frozen=True)
class DesignContext:
    """Immutable phenotype design shared by all coefficient regressions.

    ``basis`` is an orthonormal basis of span([1, C]); ``x_tilde`` is the
    phenotype projected orthogonal to it. A batch of P phenotypes shares
    the basis: ``x_tilde`` is then (n, P) with contiguous columns and
    ``xtx`` holds one value per column.
    """

    n: int
    q: int  # rank of [1, C]
    sigma_b: float
    basis: np.ndarray  # (n, q)
    x_tilde: np.ndarray  # (n,), or (n, P) for a batch
    xtx: float | np.ndarray  # x_tilde'x_tilde, per column for a batch

    @property
    def n_phenotypes(self) -> int:
        """P for a batch design, 1 for a single phenotype."""
        return 1 if self.x_tilde.ndim == 1 else self.x_tilde.shape[1]

    def residualize(self, y: np.ndarray) -> np.ndarray:
        """Project y (shape (n,) or (n, k)) orthogonal to [1, C]."""
        y = np.asarray(y, dtype=float)
        return y - self.basis @ (self.basis.T @ y)


def build_design(
    phenotype: np.ndarray,
    covariates: np.ndarray | None = None,
    sigma_b: float = DEFAULT_SIGMA_B,
) -> DesignContext:
    """Residualize the phenotype against intercept + covariates.

    ``phenotype`` is (n,), or (n, P) for P phenotypes screened together.
    Each column is projected on its own, so a batch column equals the
    design of that column alone bit for bit. Raises DesignError for
    rank-deficient covariates, or a zero-variance phenotype or one collinear
    with the covariates; for a batch the error names the column.
    """
    phi = np.asarray(phenotype, dtype=float)
    batch = phi.ndim == 2
    columns = phi.T if batch else phi.ravel()[None, :]
    n = columns.shape[1]
    if covariates is None:
        covariates = np.empty((n, 0))
    C = np.asarray(covariates, dtype=float)
    if C.ndim == 1:
        C = C[:, None]
    if C.shape[0] != n:
        raise DesignError(f"covariates have {C.shape[0]} rows, phenotype {n}")
    if sigma_b <= 0:
        raise DesignError("sigma_b must be positive")
    Z = np.column_stack([np.ones(n), C])
    Q, R = np.linalg.qr(Z)
    q = Z.shape[1]
    if np.any(np.abs(np.diag(R)) < 1e-10 * max(1.0, np.abs(R).max())):
        raise DesignError("covariate matrix is rank-deficient after adding intercept")
    x_rows, xtx = [], []
    for j, col in enumerate(columns):
        name = f"phenotype column {j}" if batch else "phenotype"
        col = np.array(col)  # a fresh contiguous vector, as for a single phenotype
        if np.var(col) == 0.0:
            raise DesignError(f"{name} has zero variance")
        x_rows.append(col - Q @ (Q.T @ col))
        xtx.append(float(x_rows[-1] @ x_rows[-1]))
        if xtx[-1] <= 1e-12 * float(col @ col):
            raise DesignError(f"{name} is collinear with the covariates")
    if n <= q + 1:
        raise DesignError(f"need n > q + 1 (n={n}, q={q})")
    if batch:  # rows of a (P, n) array are the columns of its (n, P) transpose
        x_tilde, xtx = np.array(x_rows).T, np.array(xtx)
    else:
        x_tilde, xtx = x_rows[0], xtx[0]
    return DesignContext(n=n, q=q, sigma_b=float(sigma_b), basis=Q, x_tilde=x_tilde, xtx=xtx)


def log_bayes_factor(ctx: DesignContext, y: np.ndarray) -> np.ndarray | float:
    """log BF of the phenotype model over the covariate-only null.

    ``y`` has shape (n,) or (n, k) for k coefficients at once. With
    y_tilde = residualized y, RSS0 = y'y, RSS1 = RSS0 - (x'y)^2/(xtx + sigma_b^-2):

        BF = (1 + sigma_b^2 xtx)^(-1/2) * (RSS0/RSS1)^((n - q)/2)

    Accumulated in log space. y is residualized and RSS0 formed once for
    all phenotypes of a batch design, whose result gains a leading axis of
    length P: (P, k) or (P,). Each x'y row is its own vector product, so a
    batch row is bitwise the single phenotype's.
    """
    y = np.asarray(y, dtype=float)
    Y = y[:, None] if y.ndim == 1 else y
    if Y.shape[0] != ctx.n:
        raise DesignError(f"y has {Y.shape[0]} rows, design has {ctx.n}")
    if not np.all(np.isfinite(Y)):
        raise DesignError("y contains non-finite values")
    Yt = ctx.residualize(Y)
    rss0 = np.einsum("ij,ij->j", Yt, Yt)
    X = ctx.x_tilde.reshape(ctx.n, ctx.n_phenotypes)
    xty = np.array([X[:, p] @ Yt for p in range(ctx.n_phenotypes)])
    xtx = np.reshape(ctx.xtx, (-1, 1))
    rss1 = rss0 - xty ** 2 / (xtx + ctx.sigma_b ** -2)
    if np.any(rss1 <= 0.0):
        raise DesignError("nonpositive residual sum of squares (degenerate response)")
    # rss0 >= rss1 > 0, so both logs are finite
    log_ratio = np.log(rss0) - np.log(rss1)
    logbf = -0.5 * np.log1p(ctx.sigma_b ** 2 * xtx) + 0.5 * (ctx.n - ctx.q) * log_ratio
    logbf = logbf.reshape(ctx.x_tilde.shape[1:] + y.shape[1:])
    return float(logbf) if logbf.ndim == 0 else logbf


def lambda1(ctx: DesignContext) -> float | np.ndarray:
    """Design constant of the null Bayes-factor law, per column for a batch.

    lambda1 = sigma_b^2 xtx / (1 + sigma_b^2 xtx); under the null,
    2 log BF -> lambda1 * chi2(1) + log(1 - lambda1) asymptotically.
    """
    s2x = ctx.sigma_b ** 2 * ctx.xtx
    return s2x / (1.0 + s2x)
