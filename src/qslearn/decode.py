"""Inference: argmin_z F_z . theta through each loss's decoder, plus a brute-force oracle.

Each loss class owns its decoder as ``DiscreteLoss.decode_batch``, next to
the ``f_row`` it inverts, and decodes a whole batch at once; ``decode`` is
its one-row case, and a loss without a decoder of its own scores its cached
output table row by row.  ``decode`` and ``decode_batch`` check the shape
and finiteness of theta once and call the loss.  Every decoder reproduces
the canonical tie-break of exhaustive enumeration (lexicographically
smallest label among exact-score ties), so ``decode`` and
``decode_bruteforce`` are interchangeable on enumerable spaces, and works
elementwise or within a row, so a row's label never depends on its batch.
Ties are broken only on exact equality of doubles, and ``argmin_untied``
tells which instances that contract covers.

``decode_bruteforce`` is the decomposition-free oracle.  It adds up the
weights of each distinct observation and scores them against the loss's
cached ``loss_matrix``: columns of ``loss.value`` over Z, built once per
loss instance and observation and never derived from F, U or the output
table, so the oracle stays independent of the decomposition it checks.

Pairwise disagreement and MAP, NP-hard for general weights, decode exactly
by a dynamic programme over subsets up to their class constant
``exact_limit`` and by a heuristic beyond it (see ``losses.ranking``).  The
two heuristics are re-exported here because the benchmark's tracer
(``benchmarks/tracer.py``) names them as ``qslearn.decode`` attributes when
it wraps the decode layer.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

import numpy as np

from .losses import DiscreteLoss, MeanAveragePrecision, PairwiseDisagreement, SpaceTooLargeError
from .losses.base import BLOCK_CELLS, Label
from .losses.ranking import greedy_arcset, qap_local_search  # noqa: F401

# A read-only record of the two exact-decode limits under the names
# ``benchmarks/tracer.py`` reads to label each decode call's path; it goes
# when the library traces its own decoder paths (ROADMAP item 1).
DEFAULT_BUDGET = namedtuple("ExactLimits", "exact_limit exact_limit_map")(
    PairwiseDisagreement.exact_limit, MeanAveragePrecision.exact_limit
)

# scores closer than this to the minimum count as tied for argmin_untied
_TIE_GAP = 1e-9


def decode(loss: DiscreteLoss, theta: np.ndarray) -> Label:
    """Minimize F_z . theta over the loss's output space.

    ``theta`` is the surrogate prediction g(x) in R^r (equivalently
    sum_i alpha_i U_{y_i}).  Calls the loss's own decoder.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (loss.r,):
        raise ValueError(f"theta has shape {theta.shape}, expected ({loss.r},)")
    if not np.isfinite(theta).all():
        raise ValueError("theta has non-finite entries")
    return loss.decode(theta)


def decode_batch(loss: DiscreteLoss, thetas) -> list:
    """``decode`` for every row of an n x r array, in one call to the loss's
    ``decode_batch``; each label is the one ``decode`` gives its row."""
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2 or thetas.shape[1] != loss.r:
        raise ValueError(f"thetas have shape {thetas.shape}, expected (n, {loss.r})")
    if not np.isfinite(thetas).all():
        raise ValueError("thetas have non-finite entries")
    return loss.decode_batch(thetas)


def column_sums(matrix: np.ndarray, weights) -> np.ndarray:
    """sum_j weights[..., j] matrix[:, j] for every row of ``matrix``, in the
    last axis.

    The columns are accumulated one at a time, so every row sees the same
    sequence of roundings: equal rows get bitwise-equal sums, and the first
    argmin among them is the canonical one, which a BLAS product does not
    promise.
    """
    weights = np.asarray(weights, dtype=float)
    out = np.zeros(weights.shape[:-1] + (matrix.shape[0],))
    for j in range(matrix.shape[1]):
        out += weights[..., j, None] * matrix[:, j]
    return out


def decode_bruteforce(loss: DiscreteLoss, weights, observations) -> Label | list[Label]:
    """Exact argmin_z sum_i w_i L(z, y_i) by enumeration of Z; for a 2-D
    ``weights``, one label per row.

    This is the decomposition-free inference path: it touches only the raw
    evaluator, through the cached ``loss_matrix``, never F or U, and serves
    as the oracle for every fast decoder.  The observations are mapped to
    their distinct values once per call, and each row adds up the weights
    of repeated observations first, so it costs one loss-matrix column per
    distinct observation.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim not in (1, 2) or weights.shape[-1] != len(observations):
        raise ValueError("weights and observations must have equal length")
    if not np.isfinite(weights).all():
        raise ValueError("weights must be finite")
    seen: dict = {}
    inverse = np.array([seen.setdefault(tuple(y), len(seen)) for y in observations],
                       dtype=np.intp)
    n_z = loss.n_outputs()
    if n_z * max(len(seen), 1) > BLOCK_CELLS:
        raise SpaceTooLargeError(
            f"{loss.name}: {n_z} outputs x {len(seen)} distinct observations "
            "is beyond the brute-force budget"
        )
    matrix = loss.loss_matrix(seen)

    def label(row):
        totals = np.bincount(inverse, row, minlength=len(seen))
        best = int(np.argmin(column_sums(matrix, totals)))
        return next(itertools.islice(loss.outputs(), best, None))

    return [label(row) for row in weights] if weights.ndim == 2 else label(weights)


def argmin_untied(f_rows: np.ndarray, theta: np.ndarray) -> bool:
    """True when the argmin of F . theta is unambiguous across computation orders.

    ``f_rows`` holds F_z for every output in canonical order.  Exact ties
    between identical F rows are benign (any summation order gives
    bitwise-equal scores, so every path picks the canonical first row); exact
    or near ties between DISTINCT rows are resolved by sub-ulp rounding
    differences and are outside the decoder/oracle equivalence contract.
    """
    scores = f_rows @ theta
    smin = scores.min()
    tied = np.flatnonzero(scores == smin)
    for i in tied[1:]:
        if not np.array_equal(f_rows[i], f_rows[tied[0]]):
            return False
    above = scores[scores > smin]
    return not above.size or float(above.min() - smin) > _TIE_GAP
