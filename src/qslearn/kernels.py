"""Kernels, Gram matrices, and the regularized solves behind the surrogate fit.

Training the surrogate regressor reduces to one symmetric positive-definite
factorization of K + lambda n I shared across all r right-hand sides
(O(n^3 + n^2 r) instead of O(n^3 r)).  The decomposition-free weight path
alpha(x) = (K + n lambda I)^{-1} K_x needs alpha only summed per distinct
training label, so ``weights_at`` solves once per model, against the
one-hot matrix of those labels, and not once per predicted row (see
``estimator``).
The Gram matrix does not depend on lambda and the factor does not depend on
the loss, so a lambda grid over several losses needs one Gram and one
factorization per lambda, with the losses' embeddings as stacked columns.
``solve_ridge`` returns the coefficients together with the factor it solved
with, which the estimator's lambda loop uses for the weight path's one solve
and lets go; a fitted model holds no factor, and calls ``ridge_factor`` again
when its weight path first needs one.
One Cholesky per lambda is cheaper than one eigendecomposition for the whole
grid: at n = 1445 on one BLAS thread, numpy's ``eigh`` takes 0.60 s against
0.19 s for five Choleskys.  A caller that needs K no more can have it
factored in place (``ridge_factor``'s ``overwrite``), with no n x n copy.

Squared distances come from one helper, ``_expansion``, which expands
||a - b||^2 = ||a||^2 + ||b||^2 - 2 a.b: one BLAS product plus the two row
norms, updated in place, with values within the expansion's rounding error
of 0 set to 0 (scene-shaped data, 1926 x 294, one BLAS thread: a 481-row
cross-kernel takes 19 ms, against 137 ms per pair).  The expansion cancels
for features far from the origin (offset by 1e4, the relative error grows
to ~1e-6), so both row sets are centred on the training rows' mean first,
which brings it back to ~1e-15.  The centre is never a test batch's mean,
so a test row's kernel values do not depend on the rest of its batch.
A block takes scipy's per-pair ``cdist`` instead when it has fewer than
``GEMM_MIN_ROWS`` rows, as centring cannot pay off there (at 1926 x 294,
one row takes 0.4 ms per pair and 1.8 ms by product; they break even near
six rows), or at most ``CDIST_MAX_FEATURES`` features, where a pair costs
too little for the product to win: on one BLAS thread, a gaussian
cross-kernel by ``cdist`` takes 0.5-0.8 of the product path's time at every
d <= 8 (8000 x 300, 16384 x 300 and 481 x 1926 rows) and 0.83-0.96 at d = 9;
at d = 10 it takes 0.92-1.03 and from d = 11 on 0.97-1.7 (best of 27).  The
paths agree to rounding, so above that dimension a row's kernel values may
differ in the last bits between a one-row call and a batch.

The gaussian Gram mirrors the row blocks of its upper triangle that the
median heuristic reads too, so without a bandwidth it takes the median from
its own distances before the exp.  Its rows are centred once, on the mean of
its leading rows (all of them unless ``build_gram`` is given ``lead``), for
every block.  The blocks are general products, not one SYRK as for the
linear Gram: at 1926 x 294, one BLAS thread, medians of 31 interleaved calls
in two runs, a Gram with a given bandwidth takes 48-61 ms (60-76 ms when
each block re-centred its rows), against 45-56 ms for one SYRK product;
choosing its bandwidth adds 9 ms, not a 41-54 ms median pass.

Each matrix is checked finite once, where it is made, and the LAPACK calls
skip scipy's scans: ``GramMatrix`` refuses a K with an inf or NaN (a linear
kernel may overflow), ``ridge_factor`` checks the n shifted diagonal entries
(a factor of a finite SPD matrix is finite, |L_ij| <= sqrt(A_ii)),
``solve_ridge`` checks Psi and ``weights_at`` its right-hand sides, each
with a ValueError; ``require_finite`` is that check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial.distance import cdist

# test blocks with fewer rows take the per-pair path (see the module docstring)
GEMM_MIN_ROWS = 8
# blocks with at most this many features take the per-pair path too: on one
# BLAS thread, cdist is 1.2-2.0x faster than the product at every d <= 8 and
# 1.04-1.20x at d = 9, the last d where it wins at all three measured shapes
# (0.97-1.09x at d = 10, 0.59-1.03x from d = 11 on)
CDIST_MAX_FEATURES = 9
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
    entries: np.ndarray  # n x n
    spec: KernelSpec  # the spec the entries were built with, bandwidth chosen

    def __post_init__(self):
        require_finite(self.entries, "the Gram matrix is not finite; the inputs overflow the kernel")

    @property
    def n(self) -> int:
        return len(self.entries)


def require_finite(a: np.ndarray, message: str) -> None:
    """ValueError with ``message`` if ``a`` has an inf or NaN."""
    # min and max carry any NaN and show any inf, with no n x n mask
    if a.size and not (np.isfinite(a.min()) and np.isfinite(a.max())):
        raise ValueError(message)


def _sq_distances(x_train: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Squared distances from the rows of ``x`` to those of ``x_train`` by
    the centred expansion (see the module docstring).  Blocks of fewer than
    ``GEMM_MIN_ROWS`` rows or at most ``CDIST_MAX_FEATURES`` features, and
    rows whose norms overflow (the expansion would give inf - inf = NaN),
    take scipy's per-pair ``cdist`` instead."""
    if len(x) < GEMM_MIN_ROWS or x.shape[1] <= CDIST_MAX_FEATURES:
        return cdist(x, x_train, "sqeuclidean")
    mean = x_train.mean(axis=0)
    a, sq_a = _centred(x, mean)
    b, sq_b = _centred(x_train, mean)
    if not np.isfinite(sq_a.max() + sq_b.max()):
        return cdist(x, x_train, "sqeuclidean")
    return _expansion(a, b, sq_a, sq_b)


def _centred(x: np.ndarray, mean: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x - mean`` and its squared row norms, inf or NaN where they overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        a = x - mean
        return a, np.einsum("ij,ij->i", a, a)


def _expansion(a: np.ndarray, b: np.ndarray, sq_a: np.ndarray, sq_b: np.ndarray) -> np.ndarray:
    """||a_i||^2 + ||b_j||^2 - 2 a_i.b_j for centred rows with finite norms."""
    d2 = a @ b.T
    # the expansion's rounding error bound, relative to the two norms
    tol = (a.shape[1] + 2) * np.finfo(float).eps
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


def _upper_rows(x: np.ndarray, lead: int):
    """Yield ``(i, block)``: the squared distances from rows i, i+1, ... of x
    to rows i, ..., n-1, so each pair p < q is at ``block[p - i, q - i]``.
    The rows are centred once, on the mean of the first ``lead`` rows, for
    every block that takes the product (see ``_sq_distances``)."""
    n = len(x)
    product = n > 1 and x.shape[1] > CDIST_MAX_FEATURES
    if product:
        a, sq = _centred(x, x[:lead].mean(axis=0))
        product = np.isfinite(sq.max())
    step = max(1, _BLOCK_CELLS // max(n, 1))
    for i in range(0, n - 1, step):
        if product and min(step, n - i) >= GEMM_MIN_ROWS:
            yield i, _expansion(a[i:i + step], a[i:], sq[i:i + step], sq[i:])
        else:
            yield i, cdist(x[i:i + step], x[i:], "sqeuclidean")


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


def build_gram(spec: KernelSpec, x, lead: int | None = None) -> GramMatrix:
    """The kernel matrix of the rows of x, bitwise symmetric, with the spec
    it was built with: a gaussian spec without a bandwidth takes
    ``median_heuristic(x)``, read from the Gram's distances before the exp.

    With ``lead``, a gaussian Gram centres its rows on the mean of the first
    ``lead`` rows and takes the median of their pairs only, so its leading
    block is, to rounding, ``build_gram`` of those rows, and the block below
    it their ``cross_kernel`` with the other rows."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("X must be a nonempty n x d array")
    n = len(x)
    lead = n if lead is None else lead
    if not 0 < lead <= n:
        raise ValueError(f"lead must be within 1..{n}, got {lead}")
    if spec.kind == "linear":
        # on a contiguous x the product is numpy's SYRK, mirrored, so the Gram
        # is bitwise symmetric; a strided view would take a general product
        x = np.ascontiguousarray(x)
        with np.errstate(over="ignore", invalid="ignore"):  # GramMatrix refuses an overflow
            return GramMatrix(x @ x.T, spec)
    k = np.empty((n, n))
    for i, block in _upper_rows(x, lead):
        rows = len(block)
        k[i:i + rows, i:] = block
        # mirror the block's pairs p < q into the lower triangle
        k[i + rows:, i:i + rows] = block[:, rows:].T
        np.copyto(k[i:i + rows, i:i + rows], block[:, :rows].T,
                  where=np.tri(rows, k=-1, dtype=bool))
    np.fill_diagonal(k, 0.0)
    if spec.bandwidth is None:
        spec = KernelSpec("gaussian", _median_distance([k[:lead, :lead]], lead))
    k /= -2.0 * spec.bandwidth**2
    np.exp(k, out=k)
    return GramMatrix(k, spec)


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


def ridge_factor(gram: GramMatrix, lam: float, overwrite: bool = False) -> tuple:
    """Cholesky factor of K + lambda n I, shifted and factored in one copy of
    K, or with ``overwrite`` in K's own entries, which the factor then holds:
    the Gram is spent."""
    if not 0 < lam < math.inf:  # NaN too
        raise ValueError("lambda must be positive and finite")
    n = gram.n
    shifted = gram.entries if overwrite else gram.entries.copy()
    diagonal = shifted.diagonal().copy()
    shifted.flat[::n + 1] += lam * n
    # K is finite (see GramMatrix), so only the shifted diagonal can overflow
    require_finite(shifted.diagonal(), "K + lambda n I is not finite")
    try:
        # K is symmetric: the transpose is the same matrix, in the Fortran
        # order LAPACK factors in place, writing only the upper triangle
        # and the diagonal of ``shifted``
        return cho_factor(shifted.T, lower=True, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        # K is still in the strict lower triangle LAPACK did not touch
        shifted.flat[::n + 1] = diagonal
        smallest = float(np.linalg.eigvalsh(shifted, UPLO="L")[0]) + lam * n
        raise np.linalg.LinAlgError(
            f"Cholesky of K + lambda n I failed; smallest eigenvalue {smallest:.3e}"
        ) from exc


def solve_ridge(gram: GramMatrix, psi, lam: float,
                overwrite: bool = False) -> tuple[np.ndarray, tuple]:
    """Solve (K + lambda n I) C = Psi for the n x r coefficient matrix C;
    returns ``(C, factor)``, the factor C was solved with, never ``None``.
    ``overwrite`` factors K in place (see ``ridge_factor``)."""
    psi = np.asarray(psi, dtype=float)
    if psi.ndim == 1:
        psi = psi[:, None]
    if psi.shape[0] != gram.n:
        raise ValueError(f"Psi has {psi.shape[0]} rows, expected {gram.n}")
    require_finite(psi, "Psi is not finite")
    factor = ridge_factor(gram, lam, overwrite)
    return cho_solve(factor, psi, check_finite=False), factor


def weights_at(factor: tuple, k_x) -> np.ndarray:
    """alpha(x) = (K + n lambda I)^{-1} K_x for a vector or a batch of rows
    K_x, from the ``ridge_factor`` factor: two triangular solves, 2 n^2
    flops a row.  The alpha path passes the rows of E^T, the one-hot matrix
    of a model's distinct training labels, once per model."""
    k_x = np.asarray(k_x, dtype=float)
    require_finite(k_x, "the cross-kernel is not finite; the inputs overflow the kernel")
    return cho_solve(factor, k_x.T, check_finite=False).T


def median_heuristic(x) -> float:
    """Median pairwise distance of the rows of x; 1.0 if degenerate.  Reads
    the distances from row blocks, so no n x n matrix is built."""
    x = np.asarray(x, dtype=float)
    return _median_distance((block for _, block in _upper_rows(x, len(x))), len(x))
