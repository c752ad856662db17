"""Inference: argmin_z F_z . theta through each loss's decoder, plus a brute-force oracle.

Each loss class owns its decoder as ``DiscreteLoss.decode``, next to the
``f_row`` it inverts; the base class scores the loss's cached output table
(every z with its F row) with one matrix-vector product.  ``decode`` checks the
shape of theta and calls that method.  Every decoder reproduces the
canonical tie-break of exhaustive enumeration (lexicographically smallest
label among exact-score ties), so ``decode`` and ``decode_bruteforce`` are
interchangeable on enumerable spaces.  Score comparisons are exact double
comparisons; ties are broken only on exact equality, and ``argmin_untied``
tells which instances that contract covers.

``decode_bruteforce`` is the decomposition-free oracle.  It adds up the
weights of each distinct observation and scores them against the loss's
cached ``loss_matrix``: columns of ``loss.value`` over Z, built once per
loss instance and observation and never derived from F, U or the output
table, so the oracle stays independent of the decomposition it checks.

The two NP-hard inference problems fall back to heuristics beyond the
budget's exact limits: pairwise disagreement to a greedy feedback-arc-set
ordering, MAP to a 2-swap local search on its quadratic-assignment form.
Both live with the losses that use them.  They are re-exported here because
the benchmark's tracer (``benchmarks/tracer.py``) names them as
``qslearn.decode`` attributes when it wraps the decode layer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .losses import DiscreteLoss, SpaceTooLargeError
from .losses.base import Label
from .losses.ranking import greedy_arcset, qap_local_search  # noqa: F401


@dataclass(frozen=True)
class DecodeBudget:
    """Limits for exact enumeration of the NP-hard decoders.

    PD enumerates S_m up to ``exact_limit`` items, MAP up to
    ``exact_limit_map``.  Beyond the limit the registered heuristic runs
    with ``restarts`` deterministic restarts.

    Exact enumeration scores the loss's ``output_table``, m! rows of r
    floats built once per loss instance: PD m=8 is 40320 x 28 (about
    9 MB), MAP m=6 720 x 21 (0.1 MB), PD m=9 362880 x 36 (105 MB).
    Tables beyond 2^24 cells (128 MiB) are refused with
    ``SpaceTooLargeError`` before anything is allocated: PD and MAP fit up
    to m=9, so a limit of 10 or more makes the larger decodes fail.
    """

    exact_limit: int = 8
    exact_limit_map: int = 6
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.exact_limit < 2 or self.exact_limit_map < 2:
            raise ValueError("exact limits must be >= 2")


DEFAULT_BUDGET = DecodeBudget()

# |Z| x distinct observations: the loss-matrix cells one brute-force decode
# may read (16 MB), each built once from ``loss.value`` and then kept on the
# loss, independent of F and U
_BRUTE_FORCE_LIMIT = 2_000_000
# scores closer than this to the minimum count as tied for argmin_untied
_TIE_GAP = 1e-9


def decode(
    loss: DiscreteLoss, theta: np.ndarray, budget: DecodeBudget = DEFAULT_BUDGET
) -> Label:
    """Minimize F_z . theta over the loss's output space.

    ``theta`` is the surrogate prediction g(x) in R^r (equivalently
    sum_i alpha_i U_{y_i}).  Calls the loss's own decoder.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (loss.r,):
        raise ValueError(f"theta has shape {theta.shape}, expected ({loss.r},)")
    return loss.decode(theta, budget)


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
    if n_z * max(len(seen), 1) > _BRUTE_FORCE_LIMIT:
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
