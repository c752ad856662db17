"""Inference: argmin_z F_z . theta through each loss's decoder, plus a brute-force oracle.

Each loss class owns its decoder as ``DiscreteLoss.decode_batch``, next to
the ``f_row`` it inverts, and decodes a whole batch at once; a loss without
a decoder of its own scores its cached output table by ``column_sums``, in a
fixed column order.  ``decode_batch`` checks the shape and finiteness of
theta once and calls the loss, and ``decode`` is its one-row case.  Every
decoder reproduces the canonical tie-break of exhaustive enumeration
(lexicographically smallest label among exact-score ties), so ``decode``
and ``decode_bruteforce`` are interchangeable on enumerable spaces, and
works elementwise or within a row, so a row's label never depends on its
batch.  Ties are broken only on exact equality of doubles, and
``argmin_untied`` tells which instances that contract covers, for one theta
or, as a mask, for a batch.

``decode_bruteforce`` is the decomposition-free oracle.  It scores a batch
in row blocks, adding up each row's weights per distinct observation, against
the loss's cached ``loss_matrix``, whose ``TABLE_CELLS`` cap is its one limit:
columns of ``loss.values`` over Z, built once per loss instance and observation
and never derived from F, U or the output table, so the oracle stays
independent of the decomposition it checks.

Pairwise disagreement decodes exactly by one sort at every m.  MAP,
NP-hard for general weights, decodes exactly by a dynamic programme over
subsets up to its class constant ``exact_limit`` and by a local search
beyond it (see ``losses.ranking``).  ``greedy_arcset`` and
``qap_local_search`` are re-exported here because the benchmark's tracer
(``benchmarks/tracer.py``) names them as ``qslearn.decode`` attributes when
it wraps the decode layer.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .losses import DiscreteLoss, MeanAveragePrecision
from .losses.base import BLOCK_CELLS, Label, column_sums, label_rows
from .losses.ranking import greedy_arcset, qap_local_search  # noqa: F401

# A read-only record of the exact-decode limits under the names
# ``benchmarks/tracer.py`` reads to label each decode call's path (PD's sort
# is exact at every m); it goes when the library traces its own decoder
# paths (ROADMAP item 1).
DEFAULT_BUDGET = namedtuple("ExactLimits", "exact_limit exact_limit_map")(
    math.inf, MeanAveragePrecision.exact_limit
)

# scores closer than this to the minimum count as tied for argmin_untied
_TIE_GAP = 1e-9


def decode(loss: DiscreteLoss, theta: np.ndarray) -> Label:
    """Minimize F_z . theta over the loss's output space.

    ``theta`` is the surrogate prediction g(x) in R^r (equivalently
    sum_i alpha_i U_{y_i}).  ``decode_batch`` of the one row.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (loss.r,):
        raise ValueError(f"theta has shape {theta.shape}, expected ({loss.r},)")
    return decode_batch(loss, theta[None])[0]


def decode_batch(loss: DiscreteLoss, thetas) -> list:
    """``decode`` for every row of an n x r array, in one call to the loss's
    ``decode_batch``; a row's label does not depend on the other rows."""
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2 or thetas.shape[1] != loss.r:
        raise ValueError(f"thetas have shape {thetas.shape}, expected (n, {loss.r})")
    if not np.isfinite(thetas).all():
        raise ValueError("thetas have non-finite entries")
    return loss.decode_batch(thetas)


def decode_bruteforce(loss: DiscreteLoss, weights, observations) -> Label | list[Label]:
    """Exact argmin_z sum_i w_i L(z, y_i) by enumeration of Z; for a 2-D
    ``weights``, one label per row.

    This is the decomposition-free inference path: it touches only the raw
    evaluator, through the cached ``loss_matrix``, never F or U, and serves
    as the oracle for every fast decoder.  The observations are checked and
    mapped to their distinct labels once per call, one loss-matrix column
    each, refused before any ``values`` call beyond ``TABLE_CELLS`` cells.
    Rows of ``max(1, BLOCK_CELLS // |Z|)`` at a time add up their weights per
    label in observation order and are scored by ``column_sums``, so a
    row's label does not depend on the other rows.  Each argmin's label is
    read from the output space's blocks by its row index.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim not in (1, 2) or weights.shape[-1] != len(observations):
        raise ValueError("weights and observations must have equal length")
    if not np.isfinite(weights).all():
        raise ValueError("weights must be finite")
    labels, inverse = loss.observation_space.distinct(observations, "observation")
    matrix = loss.loss_matrix(labels)
    rows = np.atleast_2d(weights)
    best = np.empty(len(rows), dtype=np.intp)
    step = max(1, BLOCK_CELLS // loss.n_outputs())
    for start in range(0, len(rows), step):
        block = rows[start : start + step]
        totals = np.zeros((len(block), len(labels)))
        np.add.at(totals, (slice(None), inverse), block)  # in observation order, as bincount
        best[start : start + step] = np.argmin(column_sums(matrix, totals), axis=1)
    found = np.empty((len(best), loss.m), dtype=np.intp)
    start = 0
    for zs in loss.output_space.blocks():  # up to the block of the last argmin
        if start > best.max(initial=-1):
            break
        hit = (best >= start) & (best < start + len(zs))
        found[hit] = zs[best[hit] - start]
        start += len(zs)
    return label_rows(found) if weights.ndim == 2 else label_rows(found)[0]


def argmin_untied(f_rows: np.ndarray, thetas: np.ndarray):
    """Whether the argmin of F . theta is unambiguous across computation
    orders: a mask over the rows of an n x r batch, a bool for a 1-D theta
    (its one-row case).

    ``f_rows`` holds F_z for every output in canonical order.  Exact ties
    between identical F rows are benign (any summation order gives
    bitwise-equal scores, so every path picks the canonical first row); exact
    or near ties between DISTINCT rows are resolved by sub-ulp rounding
    differences and are outside the decoder/oracle equivalence contract.
    Each row is scored by its own matrix-vector product, as one theta alone
    would be, so a row's verdict does not depend on the batch; a caller
    bounds the n x |Z| scores (``BLOCK_CELLS``).
    """
    batch = np.atleast_2d(thetas)
    scores = np.matmul(f_rows, batch[:, :, None])[:, :, 0]
    smin = scores.min(axis=1)
    at_min = scores == smin[:, None]
    first = np.argmax(at_min, axis=1)
    rows, cols = np.nonzero(at_min)  # the tie at each minimum is benign if its F rows are equal
    untied = np.ones(len(batch), dtype=bool)
    untied[rows[np.any(f_rows[cols] != f_rows[first[rows]], axis=1)]] = False
    above = np.where(scores > smin[:, None], scores, np.inf).min(axis=1)
    untied &= above - smin > _TIE_GAP
    return untied if np.ndim(thetas) == 2 else bool(untied[0])
