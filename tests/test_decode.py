"""Fast decoders against the brute-force oracle, plus the two heuristics."""

import importlib
import itertools
import time
import tracemalloc

import numpy as np
import pytest

import qslearn.losses.base as base
import qslearn.losses.ranking as ranking
from qslearn.decode import (
    argmin_untied,
    decode,
    decode_batch,
    decode_bruteforce,
    greedy_arcset,
    qap_local_search,
)
from qslearn.estimator import fit, predict_batch, surrogate_values
from qslearn.kernels import KernelSpec
from qslearn.losses import (
    LOSS_NAMES,
    BlockZeroOne,
    FScore,
    Hamming,
    MeanAveragePrecision,
    NDCGType,
    PairwiseDisagreement,
    PrecAtK,
    SpaceTooLargeError,
    ZeroOne,
    decomposition_check,
    make_loss,
)
from qslearn.losses.base import DiscreteLoss, LabelSpace
from qslearn.losses.ranking import arcset_objective, qap_trace_objective

from conftest import (
    REQUIRED,
    loss_ids,
    popcount_partition,
    random_instance,
    random_partition,
    small_losses,
)

# the module, which the package's ``decode`` function shadows as an attribute
decode_module = importlib.import_module("qslearn.decode")

ALL_SMALL = small_losses()


def test_hamming_signs():
    assert decode(Hamming(3), np.array([0.2, -0.1, 0.9])) == (1, 0, 1)
    assert decode(Hamming(3), np.array([0.0, -0.1, 0.9])) == (0, 0, 1)  # tie -> 0


def test_ndcg_sort():
    # scores (0.1, 0.9, 0.5): item 1 first, item 2 second, item 0 last
    assert decode(NDCGType(3, R=2), np.array([0.1, 0.9, 0.5])) == (3, 1, 2)


def test_theta_length_checked():
    with pytest.raises(ValueError):
        decode(Hamming(3), np.zeros(4))
    for bad in (np.zeros(3), np.zeros((2, 4)), np.zeros((1, 2, 3))):
        with pytest.raises(ValueError, match="shape"):
            decode_batch(Hamming(3), bad)


@pytest.mark.parametrize("name", LOSS_NAMES)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_every_decoder_refuses_non_finite_theta(name, bad):
    loss = make_loss(name, 3, **REQUIRED.get(name, {}))
    theta = np.zeros(loss.r)
    theta[-1] = bad
    with pytest.raises(ValueError, match="finite"):
        decode(loss, theta)
    with pytest.raises(ValueError, match="finite"):
        decode_batch(loss, np.vstack([np.zeros(loss.r), theta]))


LINEAR_M8 = [ZeroOne(8), Hamming(8), PrecAtK(8, 3), FScore(8, side="p"), FScore(8, side="a"),
             NDCGType(8, R=3)]
BATCH_CASES = ALL_SMALL + LINEAR_M8


@pytest.mark.parametrize("loss", BATCH_CASES, ids=loss_ids(BATCH_CASES))
def test_decode_batch_equals_decode_per_row(loss, rng):
    thetas = rng.normal(size=(40, loss.r))
    thetas[20:] = np.round(thetas[20:])  # integer rows tie often
    whole = decode_batch(loss, thetas)
    assert whole == [decode(loss, t) for t in thetas]
    for size in range(1, 18):
        blocks = [decode_batch(loss, thetas[lo:lo + size]) for lo in range(0, len(thetas), size)]
        assert sum(blocks, []) == whole
    order = rng.permutation(len(thetas))
    assert decode_batch(loss, thetas[order]) == [whole[i] for i in order]
    assert decode_batch(loss, np.zeros((0, loss.r))) == []


def test_each_loss_has_one_batch_decoder():
    for name in LOSS_NAMES:
        cls = type(make_loss(name, 3, **REQUIRED.get(name, {})))
        assert cls.decode_batch is not DiscreteLoss.decode_batch, name
        assert [c for c in cls.__mro__ if "decode" in vars(c)] == [], name
    assert "decode" not in vars(DiscreteLoss)


def test_bruteforce_mass_on_single_observation():
    loss = Hamming(4)
    y = (1, 0, 1, 1)
    assert decode_bruteforce(loss, [2.5], [y]) == y


def test_bruteforce_zero_weights_lex_first():
    assert decode_bruteforce(Hamming(3), [0.0, 0.0], [(1, 1, 1), (0, 1, 0)]) == (0, 0, 0)
    assert decode_bruteforce(
        MeanAveragePrecision(3), [0.0], [(1, 0, 1)]
    ) == (1, 2, 3)


def test_bruteforce_guards():
    with pytest.raises(ValueError):
        decode_bruteforce(Hamming(3), [1.0], [(1, 1, 1), (0, 0, 0)])
    with pytest.raises(SpaceTooLargeError):
        decode_bruteforce(ZeroOne(22), np.ones(4), [(0,) * 22] * 4)


def test_bruteforce_weight_rows_equal_single_rows(rng, monkeypatch):
    loss = Hamming(4)
    weights, ys, _ = random_instance(loss, rng, n=50)
    rows = np.vstack([weights, rng.normal(size=(5, 50))])
    assert decode_bruteforce(loss, rows, ys) == [decode_bruteforce(loss, w, ys) for w in rows]
    with pytest.raises(ValueError):
        decode_bruteforce(loss, np.ones((2, 3)), ys)
    # blocks of 16 x 16 cells: 16 rows a block, the last one short, with
    # repeated rows across blocks
    monkeypatch.setattr(decode_module, "BLOCK_CELLS", loss.n_outputs() * len(set(ys)))
    rows = np.vstack([rows, rng.normal(size=(40, 50)), rows[::-1]])
    assert decode_module.BLOCK_CELLS // loss.n_outputs() < len(rows) / 3
    assert decode_bruteforce(loss, rows, ys) == [decode_bruteforce(loss, w, ys) for w in rows]
    assert decode_bruteforce(loss, rows[:0], ys) == []


def test_bruteforce_equal_loss_rows_go_to_canonical_first(rng):
    # every output in a popcount block has the same loss row, so each
    # instance ties the whole winning block
    loss = BlockZeroOne(4, popcount_partition(4))
    outputs = list(loss.outputs())
    for _ in range(8):
        weights, ys, _ = random_instance(loss, rng, n=2000)
        got = decode_bruteforce(loss, weights, ys)
        assert got == next(z for z in outputs if sum(z) == sum(got))
        objective = [sum(w * loss.value(z, y) for w, y in zip(weights, ys)) for z in outputs]
        assert got == outputs[int(np.argmin(objective))]


class _TwinLossRows(DiscreteLoss):
    """Toy loss with 9 outputs whose last two, (2, 1) and (2, 2), share one
    loss row of pseudo-random values about half the others'."""

    name = "twin_loss_rows"
    m = 2
    output_space = LabelSpace.grid(2, 2)
    observation_space = LabelSpace.grid(5, 2)

    def value(self, z, y):
        z = min(z, (2, 1))
        u = np.random.default_rng([*z, *y]).uniform()
        return 0.5 * u if z == (2, 1) else u


def test_bruteforce_equal_rows_tie_whatever_the_rounding(rng):
    # a BLAS product can round the two copies of a row apart (on one
    # OpenBLAS build it scored (2, 2) lower in 11 of 100 such instances)
    loss = _TwinLossRows()
    observations = list(loss.observations())
    for _ in range(30):
        ys = [observations[i] for i in rng.integers(len(observations), size=2000)]
        assert decode_bruteforce(loss, rng.uniform(size=len(ys)), ys) == (2, 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_bruteforce_rejects_non_finite_weights(bad):
    with pytest.raises(ValueError, match="finite"):
        decode_bruteforce(Hamming(3), [1.0, bad], [(1, 1, 1), (0, 0, 0)])


@pytest.mark.parametrize("loss", ALL_SMALL, ids=loss_ids(ALL_SMALL))
def test_decoder_matches_oracle(loss, rng):
    for _ in range(60):
        weights, ys, theta = random_instance(loss, rng, n=9)
        assert decode(loss, theta) == decode_bruteforce(loss, weights, ys)


def test_decoder_matches_oracle_random_partitions(rng):
    for m in (2, 3, 4):
        for b in (2, 3):
            loss = BlockZeroOne(m, random_partition(m, b, rng))
            for _ in range(25):
                weights, ys, theta = random_instance(loss, rng, n=7)
                assert decode(loss, theta) == decode_bruteforce(loss, weights, ys)


def test_fscore_oracle_spec_example(rng):
    for side in ("p", "a"):
        loss = FScore(4, side=side)
        for _ in range(10):
            weights, ys, theta = random_instance(loss, rng, n=50)
            assert decode(loss, theta) == decode_bruteforce(loss, weights, ys)


def test_pd_exact_enumeration_m6(rng):
    loss = PairwiseDisagreement(6)
    for _ in range(5):
        weights, ys, theta = random_instance(loss, rng, n=12)
        assert decode(loss, theta) == decode_bruteforce(loss, weights, ys)


def lower_map_exact_limit(monkeypatch):
    # m = 5 then runs the local search instead of the DP
    monkeypatch.setattr(MeanAveragePrecision, "exact_limit", 3)


def test_pd_and_map_heuristic_paths_run(rng, monkeypatch):
    # MAP past its exact limit searches row by row; PD has no heuristic path
    lower_map_exact_limit(monkeypatch)
    calls = []
    for name in ("greedy_arcset", "qap_local_search", "subset_dp"):
        step = getattr(ranking, name)
        monkeypatch.setattr(ranking, name,
                            lambda *a, _s=step, _n=name: calls.append(_n) or _s(*a))
    for loss in (PairwiseDisagreement(5), MeanAveragePrecision(5)):
        thetas = np.vstack([random_instance(loss, rng, n=8)[2] for _ in range(5)])
        for z in decode_batch(loss, thetas):
            loss.output_space.check(z)
    assert calls == ["qap_local_search"] * 5


def _refuse(*args, **kwargs):
    raise AssertionError("PD reached a DP or a heuristic")


@pytest.mark.parametrize("m", [2, 5, 8, 9, 12, 40])
def test_pd_decodes_by_one_sort_at_every_m(m, monkeypatch):
    for name in ("subset_dp", "subset_sums", "greedy_arcset", "qap_local_search"):
        monkeypatch.setattr(ranking, name, _refuse)
    loss = PairwiseDisagreement(m)
    thetas = _thetas(loss, np.random.default_rng(m), rows=30)
    assert decode_batch(loss, thetas) == [_reference_ranking(loss, theta) for theta in thetas]


def test_heuristics_never_beat_exact(rng, monkeypatch):
    # on exactly solvable instances the heuristic objective cannot be better
    lower_map_exact_limit(monkeypatch)
    loss = MeanAveragePrecision(5)
    outs = list(loss.outputs())
    for _ in range(10):
        _, _, theta = random_instance(loss, rng, n=8)
        scores = np.array([loss.f_row(z) @ theta for z in outs])
        exact = float(scores.min())
        heur = float(loss.f_row(decode(loss, theta)) @ theta)
        assert heur >= exact - 1e-12


# the per-pair loops that built the heuristics' matrices: the greedy arc-set
# costs of PD's pairwise coordinates (l < j), and MAP's local-search weights
# before they were gathered from theta[_pair_at]

def _reference_gamma(m, theta):
    pairs = [(j, l) for j in range(m) for l in range(j)]
    gamma = np.zeros((m, m))
    for idx, (j, l) in enumerate(pairs):
        t = float(theta[idx])
        gamma[j, l] = max(-t, 0.0) / 2.0
        gamma[l, j] = max(t, 0.0) / 2.0
    return gamma


def _reference_w(loss, theta):
    m = loss.m
    w = np.zeros((m, m))
    for idx, (j, l) in enumerate(loss.pairs):
        if j == l:
            w[j, j] = -theta[idx]
        else:
            w[j, l] = w[l, j] = -theta[idx] / 2.0
    return w


@pytest.mark.parametrize("loss", [MeanAveragePrecision(m) for m in range(1, 18)],
                         ids=lambda loss: f"{loss.name}-m{loss.m}")
def test_heuristic_matrices_equal_the_per_pair_reference(loss, monkeypatch):
    seen = []

    def record(matrix, *rest):
        seen.append(matrix)
        return (1,) * loss.m

    monkeypatch.setattr(ranking, "qap_local_search", record)
    thetas = np.vstack([_thetas(loss, np.random.default_rng([loss.m, loss.r]), 20),
                        np.zeros((1, loss.r))])
    assert len(loss.search(thetas)) == len(thetas)
    assert len(seen) == len(thetas)
    for matrix, theta in zip(seen, thetas):
        want = _reference_w(loss, theta)
        assert matrix.dtype == want.dtype and matrix.shape == want.shape
        assert matrix.tobytes() == want.tobytes()


# the per-row greedy arc-set loop that the batched ``greedy_arcset``
# replaced, kept as its reference; it also counts its passes

def _sigma_from_order(order):
    """One-line permutation giving rank pos + 1 to the item at order[pos]."""
    sigma = [0] * len(order)
    for pos, item in enumerate(order):
        sigma[item] = pos + 1
    return tuple(sigma)


def _reference_greedy(gamma):
    gamma = np.asarray(gamma, dtype=float)
    m = gamma.shape[0]
    score = gamma.sum(axis=1) - gamma.sum(axis=0)
    order = sorted(range(m), key=lambda j: (-score[j], j))  # top of ranking first
    improved, passes = True, 0
    while improved:
        improved, passes = False, passes + 1
        for pos in range(m - 1):
            a, b = order[pos], order[pos + 1]  # a currently above b
            if gamma[a, b] < gamma[b, a]:  # strictly cheaper with a below b
                order[pos], order[pos + 1] = b, a
                improved = True
    return _sigma_from_order(order), passes


def _bubble_gamma(m):
    """A chain 0 > 1 > ... > m-2 held by large costs, and item m-1 preferred
    above every chain item by a small one: the score sort puts m-1 in the
    middle of the chain, and it climbs one position a pass."""
    gamma = np.zeros((m, m))
    for i in range(m - 1):
        gamma[i, i + 1:m - 1] = 10.0
    gamma[m - 1, :m - 1] = 0.5
    return gamma


def _pairwise_theta(theta):
    """PD's m(m-1)/2 pairwise coordinates of the same fit: U_pairs = 2 D U
    with (D v)_{jl} = v_l - v_j over the pairs l < j, and ridge is linear in
    its targets, so the fitted pairwise theta is 2 D theta."""
    m = len(theta)
    return np.array([2.0 * (theta[l] - theta[j]) for j in range(m) for l in range(j)])


@pytest.mark.parametrize("m", [9, 10, 11, 12])
def test_pd_beyond_the_dp_decodes_the_reference_gamma(m):
    # up to m = 8 PD used to decode its pairwise theta by the subset DP, and by
    # the greedy arc-set beyond; on the pairwise theta of a rank-m fit, which
    # is all a fit produces, the greedy's label is the sort's, ties included
    loss = PairwiseDisagreement(m)
    rng = np.random.default_rng(m)
    thetas = np.vstack([_thetas(loss, rng, 200), np.zeros((2, m))])
    assert sum(len(set(theta)) < m for theta in thetas[200:]) >= 20
    gammas = [_reference_gamma(m, _pairwise_theta(theta)) for theta in thetas]
    labels = [_reference_greedy(gamma)[0] for gamma in gammas]
    assert decode_batch(loss, thetas) == labels
    # a stack in another memory order: its sums still add like one matrix's
    assert greedy_arcset(np.asfortranarray(gammas)) == labels


@pytest.mark.parametrize("m", [9, 10, 11, 12])
def test_greedy_stack_equals_the_per_row_greedy_over_many_passes(m):
    rng = np.random.default_rng([m, 1])
    bubble = _bubble_gamma(m)
    shuffled = [bubble[np.ix_(p, p)] for p in (rng.permutation(m) for _ in range(20))]
    gammas = np.concatenate([bubble[None], shuffled,
                             rng.integers(0, 4, size=(200, m, m)).astype(float),
                             rng.uniform(size=(200, m, m))])
    reference = [_reference_greedy(gamma) for gamma in gammas]
    assert min(passes for _, passes in reference[:21]) >= m // 2
    assert max(passes for _, passes in reference[21:]) >= 4
    assert greedy_arcset(gammas) == [label for label, _ in reference]


def test_pd_greedy_labels_do_not_depend_on_the_batch():
    # past m = 8, where PD's greedy arc-set used to run
    loss = PairwiseDisagreement(9)
    rng = np.random.default_rng(9)
    thetas = _thetas(loss, rng, rows=40)
    whole = decode_batch(loss, thetas)
    for size in (1, 7):
        assert [z for lo in range(0, len(thetas), size)
                for z in decode_batch(loss, thetas[lo:lo + size])] == whole
    order = rng.permutation(len(thetas))
    assert decode_batch(loss, thetas[order]) == [whole[i] for i in order]


@pytest.mark.parametrize("rows_per_block, calls", [(None, [120]), (120, [120]),
                                                   (50, [50, 50, 20]), (1, [1] * 120)])
def test_pd_greedy_runs_once_per_row_block(rows_per_block, calls, monkeypatch):
    # calls are the row blocks PD's greedy arc-set once ran on under this
    # BLOCK_CELLS; PD now sorts all rows in one pass whatever BLOCK_CELLS is,
    # runs the greedy on none of them, and decoding block by block changes no label
    loss = PairwiseDisagreement(9)
    thetas = np.random.default_rng(3).normal(size=(120, loss.r))
    greedy_calls, sorted_rows = [], []
    monkeypatch.setattr(ranking, "greedy_arcset", lambda gamma: greedy_calls.append(len(gamma)))
    rank = ranking.rank_rows
    monkeypatch.setattr(ranking, "rank_rows", lambda t: sorted_rows.append(len(t)) or rank(t))
    if rows_per_block:
        monkeypatch.setattr(ranking, "BLOCK_CELLS", rows_per_block * loss.m ** 2)
    whole = decode_batch(loss, thetas)
    assert sorted_rows == [120] and greedy_calls == []
    assert whole == [_reference_ranking(loss, theta) for theta in thetas]
    bounds = np.cumsum([0] + calls)
    assert [z for lo, hi in zip(bounds, bounds[1:])
            for z in decode_batch(loss, thetas[lo:hi])] == whole
    assert sorted_rows[1:] == calls and greedy_calls == []


def test_greedy_arcset_takes_one_matrix_or_a_stack():
    gamma = np.random.default_rng(4).uniform(size=(6, 6))
    label = greedy_arcset(gamma)
    assert type(label) is tuple and label == _reference_greedy(gamma)[0]
    assert greedy_arcset(gamma.tolist()) == label
    assert greedy_arcset(gamma[None]) == [label]
    assert greedy_arcset(np.zeros((0, 4, 4))) == []
    for bad in (np.zeros((3, 4)), np.zeros((2, 3, 4)), np.zeros(4), np.zeros((1, 2, 2, 2))):
        with pytest.raises(ValueError, match="square"):
            greedy_arcset(bad)


# ---------------------------------------------------------------------------
# greedy feedback-arc-set ordering
# ---------------------------------------------------------------------------

def test_arcset_recovers_total_order():
    # gamma[a, b] > 0 penalizes a below b; true order 2 > 0 > 1
    m = 3
    gamma = np.zeros((m, m))
    order = [2, 0, 1]
    for hi in range(m):
        for lo in range(hi + 1, m):
            gamma[order[hi], order[lo]] = 1.0 + hi + lo
    sigma = greedy_arcset(gamma)
    assert [x[1] for x in sorted((sigma[j], j) for j in range(m))] == order
    assert arcset_objective(gamma, sigma) == 0.0


def test_arcset_symmetric_tie_break_identity():
    gamma = np.full((4, 4), 0.7)
    np.fill_diagonal(gamma, 0.0)
    assert greedy_arcset(gamma) == (1, 2, 3, 4)


def test_arcset_against_exact(rng):
    for m in (3, 4, 5, 6):
        gaps = []
        for _ in range(20):
            gamma = rng.uniform(size=(m, m))
            np.fill_diagonal(gamma, 0.0)
            heur = arcset_objective(gamma, greedy_arcset(gamma))
            exact = min(
                arcset_objective(gamma, sigma)
                for sigma in itertools.permutations(range(1, m + 1))
            )
            assert heur >= exact - 1e-12
            gaps.append(heur - exact)
        # adjacent-swap-improved greedy should usually be optimal at desk scale
        assert np.mean(gaps) < 0.15


def test_arcset_beats_random_expectation(rng):
    # expected objective of a uniform random permutation is half the total mass
    for m in (5, 8):
        for _ in range(20):
            gamma = rng.uniform(size=(m, m))
            np.fill_diagonal(gamma, 0.0)
            heur = arcset_objective(gamma, greedy_arcset(gamma))
            expectation = gamma.sum() / 2.0
            assert heur <= expectation + 1e-12


# ---------------------------------------------------------------------------
# QAP 2-swap local search
# ---------------------------------------------------------------------------

def test_qap_m1():
    assert qap_local_search(np.ones((1, 1)), np.ones((1, 1))) == (1,)


def test_qap_alignment_identity_optimal(rng):
    for m in (3, 4, 5):
        w = rng.uniform(size=(m, m))
        w = (w + w.T) / 2
        best = max(
            qap_trace_objective(w, w, sigma)
            for sigma in itertools.permutations(range(1, m + 1))
        )
        identity = tuple(range(1, m + 1))
        assert qap_trace_objective(w, w, identity) == pytest.approx(best, rel=1e-12)
        got = qap_local_search(w, w, restarts=4, seed=0)
        assert qap_trace_objective(w, w, got) == pytest.approx(best, rel=1e-12)


def test_qap_against_exact(rng):
    hits, total = 0, 0
    for m in (3, 4, 5, 6):
        for _ in range(10):
            w = rng.normal(size=(m, m))
            d = rng.normal(size=(m, m))
            got = qap_local_search(w, d, restarts=16, seed=3)
            obj = qap_trace_objective(w, d, got)
            exact = max(
                qap_trace_objective(w, d, sigma)
                for sigma in itertools.permutations(range(1, m + 1))
            )
            assert obj <= exact + 1e-12  # a heuristic never beats the optimum
            hits += (exact - obj) < 1e-9
            total += 1
    assert hits >= 0.85 * total  # 16 restarts recover the optimum at desk scale


def test_qap_deterministic_given_seed(rng):
    w = rng.normal(size=(7, 7))
    d = rng.normal(size=(7, 7))
    a = qap_local_search(w, d, restarts=6, seed=11)
    b = qap_local_search(w, d, restarts=6, seed=11)
    assert a == b


# ---------------------------------------------------------------------------
# exact subset DP for PD and MAP
# ---------------------------------------------------------------------------

def _thetas(loss, rng, rows=120):
    """Gaussian rows, the same rounded to one decimal, and small integers."""
    plain = rng.normal(size=(rows, loss.r))
    return np.vstack([plain, np.round(plain, 1),
                      rng.integers(-2, 3, size=(rows, loss.r)).astype(float)])


# ---------------------------------------------------------------------------
# the per-row decoders that the batched linear decoders replaced, kept as
# their reference
# ---------------------------------------------------------------------------

def _reference_top_k(scores, k, m):
    order = sorted(range(m), key=lambda j: (-scores[j], -j))
    chosen = set(order[:k])
    return tuple(1 if j in chosen else 0 for j in range(m))


def _reference_fscore(loss, theta):
    m = loss.m
    grid = theta[: m * m].reshape(m, m)  # [ell-1, j]
    if loss.side == "p":
        pos = np.arange(1, m + 1, dtype=float)
        conv = 1.0 / (pos[:, None] + pos[None, :])  # conv[l-1, k-1] = 1/(l+k)
        per_card = grid.T @ conv  # per_card[j, k-1]: score of item j at card k
    else:
        per_card = grid.T
    best_z = (0,) * m
    best_score = float(theta[m * m])  # z = 0 scores the empty-set coordinate
    for k in range(1, m + 1):
        col = per_card[:, k - 1]
        z = _reference_top_k(col, k, m)
        score = float(sum(col[j] for j in range(m) if z[j]))
        if score > best_score or (score == best_score and z < best_z):
            best_score, best_z = score, z
    return best_z


def _reference_zero_one(loss, theta):
    rank, m = int(np.argmax(theta)), loss.m
    return tuple((rank >> (m - 1 - j)) & 1 for j in range(m))


def _reference_block_zero_one(loss, theta):
    best = float(np.max(theta))
    block_min = [min(block) for block in loss.partition]
    return min(block_min[j] for j in range(loss.b) if theta[j] == best)


def _reference_ranking(loss, theta):
    order = sorted(range(loss.m), key=lambda j: (-theta[j], j))
    return _sigma_from_order(order)


REFERENCE = {
    "zero_one": _reference_zero_one,
    "block_zero_one": _reference_block_zero_one,
    "hamming": lambda loss, theta: tuple(1 if t > 0.0 else 0 for t in theta),
    "prec_at_k": lambda loss, theta: _reference_top_k(theta, loss.k, loss.m),
    "fscore": _reference_fscore,
    "ndcg": _reference_ranking,
    "eru": _reference_ranking,
}
LINEAR_CASES = [loss for loss in small_losses(3, 3) + small_losses(6, 6) + LINEAR_M8
                if loss.name in REFERENCE]
LINEAR_CASES += [BlockZeroOne(4, random_partition(4, b, np.random.default_rng(b)))
                 for b in (2, 5, 9)] + [PrecAtK(8, k) for k in (1, 5, 7)]


@pytest.mark.parametrize("loss", LINEAR_CASES, ids=[
    tag + (f"-k{loss.k}" if loss.name == "prec_at_k" else "")
    + (f"-b{loss.b}" if loss.name == "block_zero_one" else "")
    for tag, loss in zip(loss_ids(LINEAR_CASES), LINEAR_CASES)])
def test_linear_decoders_equal_the_per_row_reference_and_the_table(loss):
    rng = np.random.default_rng([loss.m, loss.r])
    # integer mixes of a few U rows: items in the same observations tie
    observations = list(itertools.islice(loss.observations(), 4096))
    mixes = [sum(int(w) * loss.u_row(observations[i])
                 for w, i in zip(rng.integers(-2, 3, size=3), rng.integers(len(observations), size=3)))
             for _ in range(120)]
    thetas = np.vstack([_thetas(loss, rng), np.round(rng.normal(size=(120, loss.r)) * 4) / 4,
                        mixes, np.zeros((1, loss.r))])
    table = loss.output_table
    tied = 0
    fallback = DiscreteLoss.decode_batch(loss, thetas)
    for label, scored, theta in zip(decode_batch(loss, thetas), fallback, thetas):
        assert label == REFERENCE[loss.name](loss, theta)
        if argmin_untied(table.f, theta):
            assert label == scored
        else:
            tied += 1
    assert tied >= 20


# the exact ranking decoders: PD's sort and MAP's DP
DP_CASES = ([PairwiseDisagreement(m) for m in range(2, 9)]
            + [MeanAveragePrecision(m) for m in range(1, 9)])


@pytest.mark.parametrize("loss", DP_CASES, ids=loss_ids(DP_CASES))
def test_dp_equals_table_on_untied_rows(loss):
    rng = np.random.default_rng([loss.m, loss.r])
    table = loss.output_table
    thetas = _thetas(loss, rng)
    compared = 0
    fallback = DiscreteLoss.decode_batch(loss, thetas)
    for label, scored, theta in zip(decode_batch(loss, thetas), fallback, thetas):
        if argmin_untied(table.f, theta):
            assert label == scored
            compared += 1
    assert compared >= len(thetas) // 4


@pytest.mark.parametrize("m", range(2, 9))
def test_pd_dp_breaks_exact_ties_like_the_table(m):
    # integer rows score exactly (F has half-integer entries), so the table
    # breaks their ties canonically, as PD's sort must
    loss = PairwiseDisagreement(m)
    table = loss.output_table
    thetas = np.random.default_rng(m).integers(-2, 3, size=(150, loss.r)).astype(float)
    tied = [not argmin_untied(table.f, theta) for theta in thetas]
    assert sum(tied) >= 20
    assert decode_batch(loss, thetas) == DiscreteLoss.decode_batch(loss, thetas)
    assert decode(loss, np.zeros(loss.r)) == tuple(range(1, m + 1))


@pytest.mark.parametrize("loss", [PairwiseDisagreement(6), MeanAveragePrecision(6)],
                         ids=["pd", "map"])
def test_dp_labels_do_not_depend_on_the_batch(loss, monkeypatch):
    rng = np.random.default_rng(5)
    thetas = _thetas(loss, rng, rows=20)
    whole = decode_batch(loss, thetas)
    for rows in range(1, 18):  # rows per block
        monkeypatch.setattr(ranking, "BLOCK_CELLS", rows * (loss.m << loss.m))
        assert decode_batch(loss, thetas) == whole
    order = rng.permutation(len(thetas))
    assert decode_batch(loss, thetas[order]) == [whole[i] for i in order]


def test_pd_dp_builds_no_output_table():
    loss = PairwiseDisagreement(8)
    decode_batch(loss, np.random.default_rng(0).normal(size=(3, loss.r)))
    decode(loss, np.zeros(loss.r))
    assert "output_table" not in vars(loss)


@pytest.mark.parametrize("m", [7, 8, 9])
def test_map_predict_runs_no_local_search_and_never_loses_to_it(m, monkeypatch):
    loss = MeanAveragePrecision(m)
    rng = np.random.default_rng(m)
    x = rng.normal(size=(80, 2))
    y = [tuple(int(v) for v in rng.integers(0, 2, size=m)) for _ in range(80)]
    model = fit(loss, KernelSpec("gaussian", 1.0), 1e-2, x, y)
    x_new = rng.normal(size=(12, 2))
    calls = []
    monkeypatch.setattr(ranking, "qap_local_search", lambda *a, **k: calls.append(a))
    labels = predict_batch(model, x_new)
    assert calls == []
    monkeypatch.undo()
    for label, theta in zip(labels, surrogate_values(model, x_new)):
        loss.output_space.check(label)
        searched = loss.f_row(loss.search(theta[None])[0]) @ theta
        assert loss.f_row(label) @ theta <= searched + 1e-12


def test_map_dp_at_its_limit_ranks_the_relevant_items_first():
    m = MeanAveragePrecision.exact_limit
    assert m << m <= base.BLOCK_CELLS  # one row fits a block
    loss = MeanAveragePrecision(m)
    y = tuple(int(j % 3 == 1) for j in range(m))
    # F . U_y + c = L(., y): every order of the relevant items on top ties
    label = decode(loss, loss.u_row(y))
    assert label == _sigma_from_order(sorted(range(m), key=lambda j: (-y[j], j)))
    assert decode(loss, np.zeros(loss.r)) == tuple(range(1, m + 1))


# ---------------------------------------------------------------------------
# complexity smoke tests (measured, not asserted as hard bounds)
# ---------------------------------------------------------------------------

def test_linear_decoders_scale(rng):
    theta = rng.normal(size=5000)
    start = time.perf_counter()
    decode(Hamming(5000), theta)
    assert time.perf_counter() - start < 0.5
    start = time.perf_counter()
    decode(NDCGType(5000, R=2), theta)
    assert time.perf_counter() - start < 0.5
    start = time.perf_counter()
    decode(PrecAtK(5000, 17), theta)
    assert time.perf_counter() - start < 0.5


# ---------------------------------------------------------------------------
# the cached output table behind the default decoder
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("loss", ALL_SMALL, ids=loss_ids(ALL_SMALL))
def test_output_table_is_the_enumeration(loss):
    table = loss.output_table
    outs = list(loss.outputs())
    assert [tuple(row) for row in table.labels.tolist()] == outs
    assert table.f.shape == (len(outs), loss.r)
    for z, row in zip(outs, table.f):
        assert np.array_equal(row, loss.f_row(z))
    assert loss.output_table is table


@pytest.mark.parametrize("cls", [PairwiseDisagreement, MeanAveragePrecision])
@pytest.mark.parametrize("m", [4, 5, 6])
def test_table_decode_matches_oracle_with_ties(cls, m):
    loss = cls(m)
    f = loss.output_table.f
    obs = [y for y in loss.observations() if not loss.is_degenerate(y)]
    rng = np.random.default_rng([m, 7])
    compared = rounded = 0
    for i in range(80):
        weights = rng.normal(size=6)
        if i % 2:
            weights = np.round(weights, 1)  # short decimals tie often
        ys = [obs[j] for j in rng.integers(len(obs), size=6)]
        theta = np.sum([w * loss.u_row(y) for w, y in zip(weights, ys)], axis=0)
        if not argmin_untied(f, theta):
            continue
        assert decode(loss, theta) == decode_bruteforce(loss, weights, ys)
        compared += 1
        rounded += i % 2
    assert compared >= 50 and rounded >= 25


def test_table_is_built_once(monkeypatch):
    calls = []
    original = MeanAveragePrecision.f_row
    monkeypatch.setattr(MeanAveragePrecision, "f_row",
                        lambda self, z: calls.append(z) or original(self, z))
    loss = MeanAveragePrecision(5)
    rng = np.random.default_rng(3)
    for _ in range(20):
        decode(loss, rng.normal(size=loss.r))
    decomposition_check(loss)
    assert len(calls) == loss.n_outputs()


class _TwinRows(DiscreteLoss):
    """Toy loss on {0,1}^2 whose outputs (0, 1) and (1, 0) share one F row."""

    name = "twin"
    m = r = 2
    offset = 0.0
    output_space = observation_space = LabelSpace.grid(2)

    def f_row(self, z):
        return np.array([float(z[0] + z[1]), float(z[0] * z[1])])


def test_identical_rows_decode_to_the_first_output():
    assert decode_batch(_TwinRows(), np.array([[-1.0, 5.0]])) == [(0, 1)]


class _WideTwinRows(DiscreteLoss):
    """Toy loss with 9 outputs and 64 pseudo-random F columns, whose last two
    outputs, (2, 1) and (2, 2), share one F row."""

    name = "wide_twin"
    m, r = 2, 64
    offset = 0.0
    output_space = observation_space = LabelSpace.grid(2, 2)

    def f_row(self, z):
        return np.random.default_rng(list(min(z, (2, 1)))).uniform(size=self.r)


def test_identical_rows_tie_whatever_the_rounding():
    # a BLAS matrix-vector product per row can round the two copies apart:
    # on one OpenBLAS build (2, 2) scored lower on 34 of these rows
    loss = _WideTwinRows()
    rng = np.random.default_rng(8)
    thetas = rng.normal(size=(300, loss.r)) - loss.f_row((2, 1))
    labels = decode_batch(loss, thetas)
    assert (2, 2) not in labels and labels.count((2, 1)) >= 100


def test_table_decode_rejects_non_finite_theta():
    loss = PairwiseDisagreement(4)
    theta = np.zeros(loss.r)
    theta[2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        decode(loss, theta)


def test_oversized_table_refused_before_allocating(monkeypatch):
    calls = []
    monkeypatch.setattr(PairwiseDisagreement, "f_row", lambda self, z: calls.append(z))
    loss = PairwiseDisagreement(10)
    tracemalloc.start()
    try:
        with pytest.raises(SpaceTooLargeError, match="cells"):
            loss.output_table
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert calls == [] and peak < 1 << 20
    for fits in (PairwiseDisagreement(9), MeanAveragePrecision(9)):
        assert fits.n_outputs() * fits.r <= base.TABLE_CELLS
