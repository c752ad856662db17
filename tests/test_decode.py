"""Fast decoders against the brute-force oracle, plus the two heuristics."""

import dataclasses
import itertools
import time
import tracemalloc

import numpy as np
import pytest

import qslearn.losses.base as base
from qslearn.decode import (
    DecodeBudget,
    arcset_objective,
    argmin_untied,
    decode,
    decode_bruteforce,
    greedy_arcset,
    qap_local_search,
    qap_trace_objective,
)
from qslearn.losses import (
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
)
from qslearn.losses.base import DiscreteLoss, LabelSpace

from conftest import loss_ids, popcount_partition, random_instance, random_partition, small_losses

ALL_SMALL = small_losses()


def test_hamming_signs():
    assert decode(Hamming(3), np.array([0.2, -0.1, 0.9])) == (1, 0, 1)
    assert decode(Hamming(3), np.array([0.0, -0.1, 0.9])) == (0, 0, 1)  # tie -> 0


def test_ndcg_sort():
    # scores (0.1, 0.9, 0.5): item 1 first, item 2 second, item 0 last
    assert decode(NDCGType(3, top_relevance=2), np.array([0.1, 0.9, 0.5])) == (3, 1, 2)


def test_theta_length_checked():
    with pytest.raises(ValueError):
        decode(Hamming(3), np.zeros(4))


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


def test_bruteforce_weight_rows_equal_single_rows(rng):
    loss = Hamming(4)
    weights, ys, _ = random_instance(loss, rng, n=50)
    rows = np.vstack([weights, rng.normal(size=(5, 50))])
    assert decode_bruteforce(loss, rows, ys) == [decode_bruteforce(loss, w, ys) for w in rows]
    with pytest.raises(ValueError):
        decode_bruteforce(loss, np.ones((2, 3)), ys)


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


def test_pd_and_map_heuristic_paths_run(rng):
    budget = DecodeBudget(exact_limit=3, exact_limit_map=3, restarts=4)
    pd = PairwiseDisagreement(5)
    mp = MeanAveragePrecision(5)
    for _ in range(5):
        _, _, theta = random_instance(pd, rng, n=8)
        z = decode(pd, theta, budget)
        pd.check_output(z)
        _, _, theta = random_instance(mp, rng, n=8)
        z = decode(mp, theta, budget)
        mp.check_output(z)


def test_heuristics_never_beat_exact(rng):
    # on exactly solvable instances the heuristic objective cannot be better
    budget = DecodeBudget(exact_limit=3, exact_limit_map=3, restarts=4)
    for loss in (PairwiseDisagreement(5), MeanAveragePrecision(5)):
        outs = list(loss.outputs())
        for _ in range(10):
            _, _, theta = random_instance(loss, rng, n=8)
            scores = np.array([loss.f_row(z) @ theta for z in outs])
            exact = float(scores.min())
            heur = float(loss.f_row(decode(loss, theta, budget)) @ theta)
            assert heur >= exact - 1e-12


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
# complexity smoke tests (measured, not asserted as hard bounds)
# ---------------------------------------------------------------------------

def test_linear_decoders_scale(rng):
    theta = rng.normal(size=5000)
    start = time.perf_counter()
    decode(Hamming(5000), theta)
    assert time.perf_counter() - start < 0.5
    start = time.perf_counter()
    decode(NDCGType(5000, top_relevance=2), theta)
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


def test_identical_rows_decode_to_the_first_output(monkeypatch):
    table = _TwinRows().output_table
    assert table.first.tolist() == [0, 1, 1, 3]
    assert table.argmin(np.array([-1.0, 5.0])) == (0, 1)
    # were the copies rounded apart, the later one would still map to (0, 1)
    apart = dataclasses.replace(table, f=table.f + np.array([[0, 0], [0, 0], [1e-15, 0], [0, 0]]))
    assert apart.argmin(np.array([-1.0, 5.0])) == (0, 1)
    # a hash collision between distinct rows falls back to comparing the rows
    monkeypatch.setattr(base, "hash", lambda data: 0, raising=False)
    assert _TwinRows().output_table.first.tolist() == [0, 1, 1, 3]


def test_distinct_rows_need_no_tie_map():
    assert PairwiseDisagreement(4).output_table.first is None
    assert MeanAveragePrecision(4).output_table.first is None


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
            decode(loss, np.zeros(loss.r), DecodeBudget(exact_limit=10))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert calls == [] and peak < 1 << 20
    for fits in (PairwiseDisagreement(9), MeanAveragePrecision(9)):
        assert fits.n_outputs() * fits.r <= base.TABLE_CELLS


def test_budget_validation():
    with pytest.raises(ValueError):
        DecodeBudget(exact_limit=1)
