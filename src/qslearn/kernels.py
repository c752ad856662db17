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

The Gram matrix, the cross-kernel and the median heuristic read squared
distances from one helper, ``_sq_distances``, which expands
||a - b||^2 = ||a||^2 + ||b||^2 - 2 a.b: one BLAS product plus the two row
norms, updated in place, with values within the expansion's rounding error
of 0 set to 0.  Per-pair loops do O(d) scalar work for every pair; the
product runs at BLAS speed (scene-shaped data, 1926 x 294, one BLAS
thread: Gram 300 -> 57 ms, a 481-row cross-kernel 137 -> 19 ms).  The
expansion cancels: with features offset by 1e4 the norms are ~1e8 times
the distances, and the relative error grows to ~1e-6.  Distances do not
change under translation, so both row sets are centred on the training
rows' mean first, which brings the error back to ~1e-15.  The centre is
always the training rows' mean, never a test batch's, so a test row's
kernel values do not depend on the rest of its batch.

Centring the training block is an O(n d) pass that a product over a few
test rows cannot pay back, so blocks of fewer than ``GEMM_MIN_ROWS`` test
rows keep scipy's per-pair ``cdist`` (at 1926 x 294, one row takes 0.4 ms
per pair and 1.8 ms by product; the two break even near six rows).  The
two paths agree to rounding, so a row's kernel values may differ in the
last bits between a one-row call and a batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial.distance import cdist

# test blocks with fewer rows take the per-pair path (see the module docstring)
GEMM_MIN_ROWS = 8
# rows per block of in-place updates and of the median's condensed distances
# are chosen so that a block holds about this many cells (2 MB)
_BLOCK_CELLS = 1 << 18
# GramMatrix.validate adds this times the mean diagonal before its Cholesky
_JITTER_SCALE = 1e-10


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

    def validate(self) -> None:
        """Check symmetry to 1e-12 relative and PSD via a jittered Cholesky."""
        k = self.entries
        scale = max(float(np.max(np.abs(k))), 1.0)
        asym = float(np.max(np.abs(k - k.T)))
        if asym > 1e-12 * scale:
            raise ValueError(f"Gram matrix asymmetric: max deviation {asym:.3e}")
        eps = _JITTER_SCALE * float(np.trace(k)) / self.n
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


def _sq_distances(x_train: np.ndarray, x: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances from the rows of ``x`` to the rows of
    ``x_train`` (len(x) x len(x_train)); ``x_train`` against itself when
    ``x`` is None, with an exact zero diagonal and exactly symmetric.

    Both row sets are centred on ``x_train``'s mean and the distances come
    from one product plus the two row norms, in place; values within the
    expansion's rounding error of 0 are set to exactly 0.  Blocks
    of fewer than ``GEMM_MIN_ROWS`` rows, and rows whose norms overflow (the
    expansion would turn their infinite distances into NaN), go through
    scipy's per-pair ``cdist`` instead.
    """
    if x is not None and len(x) < GEMM_MIN_ROWS:
        return cdist(x, x_train, "sqeuclidean")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x_train.mean(axis=0)
        b = x_train - mean
        a = b if x is None else x - mean
        sq_b = np.einsum("ij,ij->i", b, b)
        sq_a = sq_b if x is None else np.einsum("ij,ij->i", a, a)
        if not np.isfinite(sq_a.max() + sq_b.max()):
            return cdist(x_train if x is None else x, x_train, "sqeuclidean")
    d2 = a @ b.T  # numpy computes b @ b.T as one SYRK, mirrored: exactly symmetric
    # the expansion's rounding error bound, relative to the two norms
    tol = (x_train.shape[1] + 2) * np.finfo(float).eps
    step = max(1, _BLOCK_CELLS // len(b))
    for i in range(0, len(a), step):
        block = d2[i:i + step]
        # the two norms are added first, so that each cell is rounded once
        # from terms symmetric in (i, j)
        norms = sq_a[i:i + step, None] + sq_b
        block *= -2.0
        block += norms
        # a value within rounding of 0 is 0: duplicate rows get exactly 0,
        # as the per-pair loop gives them, and no value is negative
        norms *= tol
        np.copyto(block, 0.0, where=block <= norms)
    if x is None:
        np.fill_diagonal(d2, 0.0)
    return d2


def build_gram(spec: KernelSpec, x) -> GramMatrix:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("X must be a nonempty n x d array")
    if spec.kind == "linear":
        # on a contiguous x the product is numpy's SYRK, mirrored, so the Gram
        # is bitwise symmetric; a strided view would take a general product
        x = np.ascontiguousarray(x)
        k = x @ x.T
    else:
        k = _sq_distances(x)
        k /= -2.0 * spec.bandwidth**2
        np.exp(k, out=k)
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
        k = _sq_distances(x_train, x_test)
        k /= -2.0 * spec.bandwidth**2
        return np.exp(k, out=k)


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
    """Median pairwise distance of the rows of x; 1.0 if degenerate.

    Takes the median as ``np.median(pdist(x))`` does, the mean of the two
    middle distances when the pair count is even.  The n(n-1)/2 squared
    distances are gathered from row blocks into one vector, which is
    partitioned in place, so no n x n matrix is built.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if n < 2:
        return 1.0
    d2 = np.empty(n * (n - 1) // 2)
    step = max(1, _BLOCK_CELLS // n)
    end = 0
    for i in range(0, n - 1, step):
        block = _sq_distances(x[i:], x[i:i + step])
        for r, row in enumerate(block):
            tail = row[r + 1:]  # the pairs (i + r, j) with j > i + r
            d2[end:end + len(tail)] = tail
            end += len(tail)
    # one kth and a max over the lower part: numpy partitions for a pair of
    # kth values several times slower than for one
    mid = len(d2) // 2
    d2.partition(mid)
    upper = math.sqrt(d2[mid])
    lower = upper if len(d2) % 2 else math.sqrt(d2[:mid].max())
    med = (lower + upper) / 2.0
    return med if med > 0 else 1.0
