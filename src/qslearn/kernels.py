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

Squared distances come from one helper, ``_sq_distances``, which expands
||a - b||^2 = ||a||^2 + ||b||^2 - 2 a.b: one BLAS product plus the two row
norms, updated in place, with values within the expansion's rounding error
of 0 set to 0 (scene-shaped data, 1926 x 294, one BLAS thread: a 481-row
cross-kernel takes 19 ms, against 137 ms per pair).  The expansion cancels
for features far from the origin (offset by 1e4, the relative error grows
to ~1e-6), so both row sets are centred on the training rows' mean first,
which brings it back to ~1e-15.  The centre is never a test batch's mean,
so a test row's kernel values do not depend on the rest of its batch.
Test blocks of fewer than ``GEMM_MIN_ROWS`` rows keep scipy's per-pair
``cdist``, as centring cannot pay off there (at 1926 x 294, one row takes
0.4 ms per pair and 1.8 ms by product; they break even near six rows).
The paths agree to rounding, so a row's kernel values may differ in the
last bits between a one-row call and a batch.

The gaussian Gram mirrors the row blocks of its upper triangle that the
median heuristic reads too, so without a bandwidth it takes the median from
its own distances before the exp.  The blocks are general products, not one
SYRK as for the linear Gram: at 1926 x 294, one BLAS thread, a Gram takes
66-69 ms against 51-58 ms, and choosing its bandwidth adds 4-7 ms, not a
48-54 ms median pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial.distance import cdist

# test blocks with fewer rows take the per-pair path (see the module docstring)
GEMM_MIN_ROWS = 8
# row blocks of squared distances hold about this many cells (2 MB)
_BLOCK_CELLS = 1 << 18


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian (exp(-||x-x'||^2 / 2 bw^2), so k(x,x) = 1) or linear kernel;
    a gaussian without a bandwidth leaves it to ``build_gram`` to choose."""

    kind: str = "gaussian"
    bandwidth: float | None = None

    def __post_init__(self):
        if self.kind not in ("gaussian", "linear"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        bw = self.bandwidth
        if self.kind == "gaussian" and bw is not None and not 0 < bw < math.inf:  # NaN too
            raise ValueError(f"gaussian kernel needs a finite bandwidth > 0, got {bw}")


@dataclass(frozen=True)
class GramMatrix:
    entries: np.ndarray
    n: int
    spec: KernelSpec  # the spec the entries were built with, bandwidth chosen


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


def _sq_distances(x_train: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Squared distances from the rows of ``x`` to those of ``x_train`` by
    the centred expansion (see the module docstring).  Blocks of fewer than
    ``GEMM_MIN_ROWS`` rows, and rows whose norms overflow (the expansion
    would give inf - inf = NaN), take scipy's per-pair ``cdist`` instead."""
    if len(x) < GEMM_MIN_ROWS:
        return cdist(x, x_train, "sqeuclidean")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x_train.mean(axis=0)
        a, b = x - mean, x_train - mean
        sq_a = np.einsum("ij,ij->i", a, a)
        sq_b = np.einsum("ij,ij->i", b, b)
        if not np.isfinite(sq_a.max() + sq_b.max()):
            return cdist(x, x_train, "sqeuclidean")
    d2 = a @ b.T
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
    return d2


def _upper_rows(x: np.ndarray):
    """Yield ``(i, block)``: the squared distances from rows i, i+1, ... of x
    to rows i, ..., n-1, so each pair p < q is at ``block[p - i, q - i]``."""
    step = max(1, _BLOCK_CELLS // max(len(x), 1))
    for i in range(0, len(x) - 1, step):
        yield i, _sq_distances(x[i:], x[i:i + step])


def _median_distance(blocks, n: int) -> float:
    """Median distance over the pairs p < q, right of the diagonal of row
    blocks of squared distances, as ``np.median(pdist(x))`` takes it; 1.0 if
    degenerate.  Gathers the n(n-1)/2 values into one vector, partitioned."""
    d2 = np.empty(n * (n - 1) // 2)
    end = 0
    for block in blocks:
        for r, row in enumerate(block):
            tail = row[r + 1:]
            d2[end:end + len(tail)] = tail
            end += len(tail)
    if not len(d2):
        return 1.0
    # one kth and a max over the lower part: numpy partitions for a pair of
    # kth values several times slower than for one
    mid = len(d2) // 2
    d2.partition(mid)
    upper = math.sqrt(d2[mid])
    lower = upper if len(d2) % 2 else math.sqrt(d2[:mid].max())
    med = (lower + upper) / 2.0
    return med if med > 0 else 1.0


def build_gram(spec: KernelSpec, x) -> GramMatrix:
    """The kernel matrix of the rows of x, bitwise symmetric, with the spec
    it was built with: a gaussian spec without a bandwidth takes
    ``median_heuristic(x)``, read from the Gram's distances before the exp."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("X must be a nonempty n x d array")
    if spec.kind == "linear":
        # on a contiguous x the product is numpy's SYRK, mirrored, so the Gram
        # is bitwise symmetric; a strided view would take a general product
        x = np.ascontiguousarray(x)
        return GramMatrix(x @ x.T, len(x), spec)
    n = len(x)
    k = np.empty((n, n))
    for i, block in _upper_rows(x):
        rows = len(block)
        k[i:i + rows, i:] = block
        # mirror the block's pairs p < q into the lower triangle
        k[i + rows:, i:i + rows] = block[:, rows:].T
        np.copyto(k[i:i + rows, i:i + rows], block[:, :rows].T,
                  where=np.tri(rows, k=-1, dtype=bool))
    np.fill_diagonal(k, 0.0)
    if spec.bandwidth is None:
        spec = KernelSpec("gaussian", _median_distance([k], n))
    k /= -2.0 * spec.bandwidth**2
    np.exp(k, out=k)
    return GramMatrix(k, n, spec)


def cross_kernel(spec: KernelSpec, x_test, x_train) -> np.ndarray:
    """k(x_i, x_j) for test rows against training rows (n_test x n_train)."""
    if spec.kind == "gaussian" and spec.bandwidth is None:
        raise ValueError("cross_kernel needs the gaussian bandwidth its Gram chose")
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
    """Cholesky factor of K + lambda n I, shifted and factored in one copy of K."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    shifted = gram.entries.copy()
    shifted.flat[::gram.n + 1] += lam * gram.n
    try:
        # K is symmetric: the transpose is the same matrix, in the Fortran
        # order LAPACK factors in place (so the eigenvalues below read K)
        return cho_factor(shifted.T, lower=True, overwrite_a=True)
    except np.linalg.LinAlgError as exc:
        smallest = float(np.linalg.eigvalsh(gram.entries)[0]) + lam * gram.n
        raise np.linalg.LinAlgError(
            f"Cholesky of K + lambda n I failed; smallest eigenvalue {smallest:.3e}"
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
    return cho_solve(solution.factor, k_x.T).T


def median_heuristic(x) -> float:
    """Median pairwise distance of the rows of x; 1.0 if degenerate.  Reads
    the distances from row blocks, so no n x n matrix is built."""
    x = np.asarray(x, dtype=float)
    return _median_distance((block for _, block in _upper_rows(x)), len(x))
