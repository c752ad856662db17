"""Fast decoders against the brute-force oracle, plus the two heuristics."""

import itertools
import time

import numpy as np
import pytest

from qslearn.decode import (
    DecodeBudget,
    arcset_objective,
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
)

from conftest import loss_ids, random_instance, random_partition, small_losses

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


def test_budget_validation():
    with pytest.raises(ValueError):
        DecodeBudget(exact_limit=1)
