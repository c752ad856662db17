"""Kernels, Gram matrices, and the regularized solves behind the surrogate fit.

Training the surrogate regressor reduces to one symmetric positive-definite
factorization of K + lambda n I shared across all r right-hand sides
(O(n^3 + n^2 r) instead of O(n^3 r)), plus triangular solves at prediction
time for the decomposition-free weight path alpha(x) = (K + n lambda I)^{-1} K_x.
The Gram matrix does not depend on lambda and the factor does not depend on
the loss, so a lambda grid over several losses needs one Gram and one
factorization per lambda, with the losses' embeddings as stacked columns.
One Cholesky per lambda is cheaper than one eigendecomposition for the whole
grid at the sizes used here (n ~ 1000, grids of five).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial.distance import cdist, pdist, squareform


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian (exp(-||x-x'||^2 / 2 bw^2), so k(x,x) = 1) or linear kernel."""

    kind: str = "gaussian"
    bandwidth: float | None = None

    def __post_init__(self):
        if self.kind not in ("gaussian", "linear"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "gaussian":
            if self.bandwidth is None or self.bandwidth <= 0:
                raise ValueError("gaussian kernel needs bandwidth > 0")


@dataclass(frozen=True)
class GramMatrix:
    entries: np.ndarray
    n: int

    def validate(self, jitter_scale: float = 1e-10) -> None:
        """Check symmetry to 1e-12 relative and PSD via a jittered Cholesky."""
        k = self.entries
        scale = max(float(np.max(np.abs(k))), 1.0)
        asym = float(np.max(np.abs(k - k.T)))
        if asym > 1e-12 * scale:
            raise ValueError(f"Gram matrix asymmetric: max deviation {asym:.3e}")
        eps = jitter_scale * float(np.trace(k)) / self.n
        np.linalg.cholesky(k + eps * np.eye(self.n))


@dataclass(frozen=True)
class RidgeSolution:
    """Coefficients C solving (K + lambda n I) C = Psi, and the Cholesky
    factor for the weight path when it has been built.

    ``solve_ridge`` keeps the factor it solved with.  A solution read back
    from coefficients alone has ``factor=None``; the estimator builds the
    factor on the weight path's first call.
    """

    coefficients: np.ndarray  # n x r
    lam: float
    factor: tuple | None = None  # scipy cho_factor handle of K + lambda n I


def eval_kernel(spec: KernelSpec, x1, x2) -> float:
    x1 = np.asarray(x1, dtype=float).ravel()
    x2 = np.asarray(x2, dtype=float).ravel()
    if x1.shape != x2.shape:
        raise ValueError(f"dimension mismatch: {x1.shape} vs {x2.shape}")
    if spec.kind == "linear":
        return float(x1 @ x2)
    d2 = float(np.sum((x1 - x2) ** 2))
    return float(np.exp(-d2 / (2.0 * spec.bandwidth**2)))


def build_gram(spec: KernelSpec, x) -> GramMatrix:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("X must be a nonempty n x d array")
    if spec.kind == "linear":
        k = x @ x.T
        k = (k + k.T) / 2.0
    else:
        d2 = squareform(pdist(x, "sqeuclidean"))
        k = np.exp(-d2 / (2.0 * spec.bandwidth**2))
    return GramMatrix(k, x.shape[0])


def cross_kernel(spec: KernelSpec, x_test, x_train) -> np.ndarray:
    """k(x_i, x_j) for test rows against training rows (n_test x n_train)."""
    x_test = np.atleast_2d(np.asarray(x_test, dtype=float))
    x_train = np.asarray(x_train, dtype=float)
    if x_test.shape[1] != x_train.shape[1]:
        raise ValueError(
            f"feature dimension mismatch: {x_test.shape[1]} vs {x_train.shape[1]}"
        )
    # a finite row may still overflow the kernel; callers refuse the result
    # once (see estimator.predict_models) instead of numpy warning here
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.kind == "linear":
            return x_test @ x_train.T
        d2 = cdist(x_test, x_train, "sqeuclidean")
        return np.exp(-d2 / (2.0 * spec.bandwidth**2))


def ridge_factor(gram: GramMatrix, lam: float) -> tuple:
    if lam <= 0:
        raise ValueError("lambda must be positive")
    shifted = gram.entries + lam * gram.n * np.eye(gram.n)
    try:
        return cho_factor(shifted, lower=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - SPD for lam > 0
        smallest = float(np.min(np.linalg.eigvalsh(shifted)))
        raise np.linalg.LinAlgError(
            f"Cholesky of K + lambda n I failed; smallest pivot {smallest:.3e}"
        ) from exc


def solve_ridge(gram: GramMatrix, psi, lam: float) -> RidgeSolution:
    """Solve (K + lambda n I) C = Psi for the n x r coefficient matrix C."""
    psi = np.asarray(psi, dtype=float)
    if psi.ndim == 1:
        psi = psi[:, None]
    if psi.shape[0] != gram.n:
        raise ValueError(f"Psi has {psi.shape[0]} rows, expected {gram.n}")
    factor = ridge_factor(gram, lam)
    coef = cho_solve(factor, psi)
    return RidgeSolution(coef, lam, factor)


def weights_at(solution: RidgeSolution, k_x) -> np.ndarray:
    """alpha(x) = (K + n lambda I)^{-1} K_x; accepts a vector or a batch."""
    if solution.factor is None:
        raise ValueError("ridge solution carries no factor")
    k_x = np.asarray(k_x, dtype=float)
    if k_x.ndim == 1:
        return cho_solve(solution.factor, k_x)
    return cho_solve(solution.factor, k_x.T).T


def median_heuristic(x) -> float:
    """Median pairwise distance of the rows of x; 1.0 if degenerate."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] < 2:
        return 1.0
    d = pdist(x)
    med = float(np.median(d))
    return med if med > 0 else 1.0
