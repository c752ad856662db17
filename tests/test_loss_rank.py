"""Each loss's surrogate dimension r against the rank of its loss matrix.

A loss needs as many surrogate coordinates as the rank of L - c over Z x Y
(Ramaswamy, Agarwal & Tewari, NeurIPS 2013).  Measured over every output and
every non-degenerate observation, the convention of ``decomposition_check``,
at sizes small enough to enumerate; the gaps pinned here are what a smaller
decomposition could still save.
"""

import numpy as np
import pytest

from qslearn.losses import PairwiseDisagreement, decomposition_check, make_loss

from conftest import popcount_partition


def loss_matrix_rank(loss) -> int:
    ys = [y for y in loss.observations() if not loss.is_degenerate(y)]
    return int(np.linalg.matrix_rank(loss.loss_matrix(ys) - loss.offset))


# (name, params, sizes, r - rank as a function of m)
GAPS = [
    ("zero_one", {}, range(1, 6), lambda m: 0),
    ("hamming", {}, range(1, 7), lambda m: 0),
    ("prec_at_k", {"k": 2}, range(3, 7), lambda m: 0),
    ("ndcg", {"R": 2}, range(1, 5), lambda m: 0),
    ("eru", {"R": 3}, range(1, 5), lambda m: 0),
    ("block_zero_one", "popcount", range(1, 6), lambda m: 0),
    # the rank-m split of PD is centred: its F rows span only m - 1 directions
    ("pd", {}, range(2, 7), lambda m: 1),
    ("map", {}, range(2, 6), lambda m: 1),
    # rank m^2 - m + 2 against r = m^2 + 1
    ("fscore", {}, range(4, 7), lambda m: m - 1),
]


@pytest.mark.parametrize("name, params, sizes, gap", GAPS, ids=[case[0] for case in GAPS])
def test_surrogate_dimension_against_loss_matrix_rank(name, params, sizes, gap):
    for m in sizes:
        if params == "popcount":
            loss = make_loss(name, m, partition=popcount_partition(m))
        else:
            loss = make_loss(name, m, **params)
        assert loss.r - loss_matrix_rank(loss) == gap(m), (name, m)


@pytest.mark.parametrize("m", range(2, 8))
def test_pd_rank_decomposition_is_exact(m):
    # every permutation against every non-degenerate subset
    assert decomposition_check(PairwiseDisagreement(m)) <= 1e-14
