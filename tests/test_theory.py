"""Exact population quantities: Bayes risks, margins, calibration, inequalities."""

import math
from collections import Counter

import numpy as np
import pytest

from qslearn import cli
from qslearn.losses import (
    BlockZeroOne,
    Hamming,
    InvalidLabelError,
    LabelSpace,
    MeanAveragePrecision,
    PrecAtK,
    SpaceTooLargeError,
    ZeroOne,
    decomposition_check,
    enumerated_constants,
    make_loss,
)
from qslearn.theory import (
    FiniteProblem,
    bayes_predictor,
    bayes_risk,
    calibration_H,
    calibration_H_p,
    comparison_check,
    conditional_risks,
    decode_states,
    g_star_matrix,
    gamma_p_norm,
    margin,
    margin_moment,
    random_problem,
    surrogate_excess,
    true_excess,
    tsybakov_check,
)

from conftest import loss_ids, popcount_partition, random_partition, small_losses

ALL_SMALL = small_losses()


def point_mass_problem(loss, y):
    obs = list(loss.observations())
    cond = np.zeros((1, len(obs)))
    cond[0, obs.index(y)] = 1.0
    return FiniteProblem(loss, [1.0], cond)


def uniform_problem(loss, n_states=1):
    n_y = loss.n_observations()
    masses = np.full(n_states, 1.0 / n_states)
    cond = np.full((n_states, n_y), 1.0 / n_y)
    return FiniteProblem(loss, masses, cond)


def test_bayes_risk_point_mass():
    loss = Hamming(3)
    y = (1, 0, 1)
    prob = point_mass_problem(loss, y)
    for z in loss.outputs():
        assert bayes_risk(prob, z, 0) == pytest.approx(loss.value(z, y), abs=1e-15)


def test_bayes_risk_uniform_binary():
    prob = uniform_problem(Hamming(1))
    assert bayes_risk(prob, (0,), 0) == pytest.approx(0.5)
    assert bayes_risk(prob, (1,), 0) == pytest.approx(0.5)


def test_bayes_risk_random_recompute(rng):
    loss = Hamming(3)
    prob = random_problem(loss, 2, rng)
    obs = prob.loss.observation_table.tuples
    for s in range(2):
        for z in list(loss.outputs())[:3]:
            manual = sum(
                p * loss.value(z, y) for p, y in zip(prob.conditionals[s], obs)
            )
            assert bayes_risk(prob, z, s) == pytest.approx(manual, abs=1e-14)


def test_bayes_predictor_point_mass_and_uniform():
    loss = Hamming(2)
    assert bayes_predictor(point_mass_problem(loss, (1, 0)), 0) == (1, 0)
    # uniform: every z optimal, canonical tie-break picks the first subset
    assert bayes_predictor(uniform_problem(loss), 0) == (0, 0)


def test_bayes_predictor_hamming_is_marginal_threshold(rng):
    loss = Hamming(4)
    prob = random_problem(loss, 3, rng)
    obs = prob.loss.observation_table.tuples
    for s in range(3):
        marg = np.array(
            [sum(p for p, y in zip(prob.conditionals[s], obs) if y[j]) for j in range(4)]
        )
        assert bayes_predictor(prob, s) == tuple(1 if q > 0.5 else 0 for q in marg)


def test_margin_binary_zero_one():
    loss = ZeroOne(1)
    cond = np.array([[0.2, 0.8]])  # P(y=1) = 0.8
    prob = FiniteProblem(loss, [1.0], cond)
    assert margin(prob, 0) == pytest.approx(0.6, abs=1e-14)
    assert bayes_predictor(prob, 0) == (1,)


def test_margin_uniform_is_zero():
    assert margin(uniform_problem(Hamming(2)), 0) == pytest.approx(0.0, abs=1e-14)


def test_margin_matches_enumeration(rng):
    loss = Hamming(3)
    prob = random_problem(loss, 2, rng)
    for s in range(2):
        risks = sorted(bayes_risk(prob, z, s) for z in loss.outputs())
        assert margin(prob, s) == pytest.approx(risks[1] - risks[0], abs=1e-14)


def test_gamma_p_values(rng):
    loss = ZeroOne(1)
    prob = FiniteProblem(loss, [1.0], np.array([[0.25, 0.75]]))  # margin 0.5
    assert gamma_p_norm(prob, 1.0) == pytest.approx(2.0, abs=1e-12)
    two = FiniteProblem(
        loss, [0.5, 0.5], np.array([[0.0, 1.0], [1.0, 0.0]])
    )  # margins 1, 1
    for p in (0.5, 1.0, 3.0):
        assert gamma_p_norm(two, p) == pytest.approx(1.0, abs=1e-12)
    five = random_problem(Hamming(2), 5, rng)
    p = 1.7
    manual = sum(
        m * margin(five, s) ** -p for s, m in enumerate(five.masses)
    ) ** (1 / p)
    assert gamma_p_norm(five, p) == pytest.approx(manual, rel=1e-12)
    assert margin_moment(five, p) == pytest.approx(gamma_p_norm(five, p) ** p, rel=1e-12)


def test_margin_profile_fields(rng):
    prob = random_problem(Hamming(2), 4, rng)
    gamma = prob.margins
    assert gamma.shape == (4,)
    assert np.all(gamma > 0)
    gamma_p = gamma_p_norm(prob, 1.5)
    assert gamma_p == pytest.approx(float(prob.masses @ gamma**-1.5) ** (1 / 1.5), rel=1e-12)
    assert margin_moment(prob, 1.5) == pytest.approx(gamma_p ** 1.5, rel=1e-12)


def test_gamma_p_zero_margin_flags_state():
    prob = uniform_problem(Hamming(1))
    with pytest.raises(ValueError, match="state 0"):
        gamma_p_norm(prob, 1.0)


def test_surrogate_excess_values(rng):
    loss = Hamming(3)
    prob = random_problem(loss, 4, rng)
    g0 = g_star_matrix(prob)
    assert surrogate_excess(prob, g0) == pytest.approx(0.0, abs=1e-15)
    single = random_problem(loss, 1, rng)
    g1 = g_star_matrix(single).copy()
    g1[0, 0] += 0.37
    assert surrogate_excess(single, g1) == pytest.approx(0.37**2, rel=1e-12)
    g2 = g0 + rng.normal(size=g0.shape)
    manual = float(
        sum(
            m * np.sum((g2[s] - prob.conditionals[s] @ loss.observation_table.rows) ** 2)
            for s, m in enumerate(prob.masses)
        )
    )
    assert surrogate_excess(prob, g2) == pytest.approx(manual, rel=1e-12)


def test_comparison_at_optimum(rng):
    prob = random_problem(Hamming(2), 3, rng)
    rep = comparison_check(prob, g_star_matrix(prob), p=1.0)
    assert rep.lhs == pytest.approx(0.0, abs=1e-14)
    assert rep.holds_basic and rep.holds_improved


def test_comparison_randomized_no_violations(rng):
    for trial in range(300):
        loss = Hamming(2 + trial % 3)
        prob = random_problem(loss, 2 + trial % 4, rng)
        g = g_star_matrix(prob) + rng.normal(scale=0.5, size=(prob.n_states, loss.r))
        p = (0.5, 1.0, 2.0)[trial % 3]
        rep = comparison_check(prob, g, p=p)
        assert rep.holds_basic
        assert rep.holds_improved


def test_improved_rhs_small_p_limit(rng):
    prob = random_problem(Hamming(2), 3, rng)
    g = g_star_matrix(prob) + rng.normal(scale=0.3, size=(3, 2))
    rep = comparison_check(prob, g, p=1e-9)
    surr = surrogate_excess(prob, g)
    assert rep.rhs_improved == pytest.approx(
        4.0 * prob.loss.f_norm * math.sqrt(surr), rel=1e-6
    )


def test_calibration_H_values():
    assert calibration_H(Hamming(4), 0.0) == 0.0
    assert calibration_H(Hamming(1), 1.0) == pytest.approx(1.0, abs=1e-14)
    assert calibration_H_p(Hamming(4), 0.0, 1.0, 2.0) == 0.0


def test_calibration_arguments_are_checked():
    loss = Hamming(3)
    for eps in (-0.1, np.nan):
        with pytest.raises(ValueError, match="eps must be >= 0"):
            calibration_H(loss, eps)
        with pytest.raises(ValueError, match="eps must be >= 0"):
            calibration_H_p(loss, eps, 1.0, 2.0)
    for p, gamma_p in [(0.0, 2.0), (-1.0, 2.0), (1.0, 0.0), (1.0, -2.0),
                       (np.nan, 1.0), (0.1, np.nan)]:
        with pytest.raises(ValueError, match="p and gamma_p must be positive"):
            calibration_H_p(loss, 0.5, p, gamma_p)


def test_calibration_H_p_dominance(rng):
    losses = small_losses()
    eps_grid = np.linspace(1e-6, 1.0, 100)
    for trial in range(20):
        loss = losses[trial % len(losses)]
        p = float(rng.uniform(0.3, 3.0))
        gamma_p = float(rng.uniform(1.0, 50.0))
        scale = gamma_p ** (1.0 / (p + 1.0))
        for eps in eps_grid:
            lhs = calibration_H_p(loss, eps, p, gamma_p)
            rhs = scale * calibration_H(loss, eps / (2.0 * scale))
            assert lhs >= rhs * (1.0 - 1e-12)


def test_tsybakov_at_optimum(rng):
    prob = random_problem(Hamming(2), 3, rng)
    f_star = [bayes_predictor(prob, s) for s in prob.states()]
    rep = tsybakov_check(prob, f_star, 1.0)
    assert rep.error_mass == 0.0
    assert rep.holds


def test_tsybakov_randomized_no_violations(rng):
    for trial in range(300):
        loss = Hamming(2 + trial % 2)
        prob = random_problem(loss, 5, rng)
        outs = prob.loss.output_table.tuples
        preds = [outs[int(rng.integers(len(outs)))] for _ in prob.states()]
        rep = tsybakov_check(prob, preds, (0.5, 1.0, 2.0)[trial % 3])
        assert rep.holds


def test_tsybakov_single_wrong_state_tightness(rng):
    # one wrong state with mass w: error mass w, bound at least w
    loss = ZeroOne(1)
    w = 0.3
    prob = FiniteProblem(
        loss, [w, 1 - w], np.array([[0.2, 0.8], [0.9, 0.1]])
    )
    preds = [(0,), (0,)]  # wrong on state 0 only
    for p in (0.5, 1.0, 2.0):
        rep = tsybakov_check(prob, preds, p)
        assert rep.error_mass == pytest.approx(w)
        assert rep.excess >= w * margin(prob, 0) - 1e-12
        assert rep.bound >= w - 1e-9
        assert rep.holds


@pytest.mark.parametrize("loss", ALL_SMALL, ids=loss_ids(ALL_SMALL))
def test_fisher_consistency_random_problems(loss, rng):
    for _ in range(25):
        prob = random_problem(loss, int(rng.integers(2, 5)), rng)
        decoded = decode_states(prob, g_star_matrix(prob))
        for s in prob.states():
            assert decoded[s] == bayes_predictor(prob, s)


def test_true_excess_nonnegative_and_zero_at_bayes(rng):
    prob = random_problem(PrecAtK(3, 2), 4, rng)
    f_star = [bayes_predictor(prob, s) for s in prob.states()]
    assert true_excess(prob, f_star) == 0.0
    outs = prob.loss.output_table.tuples
    preds = [outs[int(rng.integers(len(outs)))] for _ in prob.states()]
    assert true_excess(prob, preds) >= 0.0


def test_finite_problem_validation(rng):
    loss = Hamming(2)
    with pytest.raises(ValueError, match="masses must be a nonempty vector"):
        FiniteProblem(loss, [], np.zeros((0, 4)))
    with pytest.raises(ValueError):
        FiniteProblem(loss, [0.5, 0.6], np.full((2, 4), 0.25))
    with pytest.raises(ValueError):
        FiniteProblem(loss, [1.0], np.full((1, 3), 1 / 3))
    bad = np.full((1, 4), 0.25)
    bad[0, 0] = -0.25
    bad[0, 1] = 0.75
    with pytest.raises(ValueError):
        FiniteProblem(loss, [1.0], bad)
    # NaN passes neither a "< 0" nor a "> tolerance" test, so both are stated positively
    with pytest.raises(ValueError, match="masses must be a probability vector"):
        FiniteProblem(loss, [np.nan, 1.0], np.full((2, 4), 0.25))
    bad = np.full((2, 4), 0.25)
    bad[1, 2] = np.nan
    with pytest.raises(ValueError, match="each conditional row must be a probability vector"):
        FiniteProblem(loss, [0.5, 0.5], bad)


def test_margin_exponent_g_shape_and_output_count_are_checked(rng):
    problem = random_problem(Hamming(3), 4, rng)
    for p in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="p must be positive"):
            margin_moment(problem, p)
    for call in (decode_states, surrogate_excess, comparison_check):
        with pytest.raises(ValueError, match=r"g must be \(4, 3\), got \(4, 2\)"):
            call(problem, np.zeros((4, 2)))
    # PrecAtK(1, 1) has one output, so no state has a second-best risk
    with pytest.raises(ValueError, match="at least two candidate outputs"):
        margin(random_problem(PrecAtK(1, 1), 2, rng), 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_g_rejected(bad, rng):
    problem = random_problem(Hamming(3), 4, rng)
    g = g_star_matrix(problem)
    g[1, 2] = bad
    for call in (decode_states, surrogate_excess, comparison_check):
        with pytest.raises(ValueError, match="finite"):
            call(problem, g)


@pytest.mark.parametrize("loss", ALL_SMALL, ids=loss_ids(ALL_SMALL))
def test_risk_table_matches_per_state_reference(loss, rng):
    prob = random_problem(loss, 6, rng)
    outs, obs, p = loss.output_table.tuples, loss.observation_table.tuples, 1.5
    preds = [outs[int(rng.integers(len(outs)))] for _ in prob.states()]
    excess = error_mass = 0.0
    gaps = []
    for s, mass in enumerate(prob.masses):
        ref = np.array([
            sum(q * loss.value(z, y) for q, y in zip(prob.conditionals[s], obs))
            for z in outs
        ])
        np.testing.assert_allclose(conditional_risks(prob, s), ref, rtol=0, atol=1e-12)
        low = np.sort(ref)
        assert margin(prob, s) == pytest.approx(low[1] - low[0], abs=1e-12)
        best = outs[int(np.argmin(ref))]
        assert bayes_predictor(prob, s) == best
        excess += mass * (ref[outs.index(preds[s])] - low[0])
        error_mass += mass * (preds[s] != best)
        gaps.append(low[1] - low[0])
    assert true_excess(prob, preds) == pytest.approx(excess, rel=1e-12, abs=1e-15)
    if min(gaps) > 1e-9:
        moment = sum(mass * gap**-p for mass, gap in zip(prob.masses, gaps))
        assert margin_moment(prob, p) == pytest.approx(moment, rel=1e-9)
        rep = tsybakov_check(prob, preds, p)
        assert rep.error_mass == pytest.approx(error_mass, rel=1e-12)
    else:  # block 0-1 ties loss-equivalent outputs
        with pytest.raises(ValueError, match="zero margin"):
            margin_moment(prob, p)


def test_predictions_are_checked(rng):
    prob = random_problem(PrecAtK(3, 2), 3, rng)
    f_star = [bayes_predictor(prob, s) for s in prob.states()]
    for call in (true_excess, lambda pr, preds: tsybakov_check(pr, preds, 1.0)):
        for wrong_count in (f_star[:2], f_star + [f_star[0]]):
            with pytest.raises(ValueError, match="one prediction per state"):
                call(prob, wrong_count)
        with pytest.raises(InvalidLabelError, match="state 2"):
            call(prob, f_star[:2] + [(1, 1, 1)])
    assert type(tsybakov_check(prob, f_star, 1.0).holds) is bool


def test_tsybakov_check_maps_its_predictions_once(rng, monkeypatch):
    problem = random_problem(PrecAtK(4, 2), 6, rng)
    preds = decode_states(problem, g_star_matrix(problem) + rng.normal(size=(6, 4)))
    want = tsybakov_check(problem, preds, 1.0)
    mapped = []
    real = LabelSpace.distinct
    monkeypatch.setattr(LabelSpace, "distinct",
                        lambda self, labels, what: mapped.append(what) or real(self, labels, what))
    assert tsybakov_check(problem, preds, 1.0) == want
    assert mapped == ["state"]
    assert want.excess == true_excess(problem, preds)


def test_problem_beyond_table_cap_computes_no_loss_value(monkeypatch):
    calls = []
    real = ZeroOne.values
    monkeypatch.setattr(ZeroOne, "values", lambda self, zs, y: calls.append(len(zs)) or real(self, zs, y))
    with pytest.raises(SpaceTooLargeError):
        FiniteProblem(ZeroOne(13), [1.0], np.full((1, 2**13), 2.0**-13))
    assert calls == []
    FiniteProblem(ZeroOne(2), [1.0], np.full((1, 4), 0.25))
    assert calls == [4] * 4  # one call per column, over the 4 outputs


@pytest.mark.parametrize("argv", [["fscore"], ["pd"], ["hamming"], ["ndcg", "--R", "2"]])
def test_each_loss_embeds_its_observations_once(argv, monkeypatch, capsys, rng):
    # qsl check builds its own loss; every exact oracle after it shares the other
    loss = make_loss(argv[0], 3, **({"R": 2} if "--R" in argv else {}))
    embedded, u_row = [], type(loss).u_row
    monkeypatch.setattr(type(loss), "u_row", lambda self, y: embedded.append(self) or u_row(self, y))
    assert cli.main(["check", "--loss", *argv, "--m", "3", "--instances", "5"]) == 0
    decomposition_check(loss)
    enumerated_constants(loss)
    for _ in range(3):
        g_star_matrix(random_problem(loss, 4, rng))
    if loss.observation_space == LabelSpace.grid(3):  # NDCG's Y is {0..R}^m, not the bit grid
        loss.expected_embedding(np.full((2, 3), 0.3))
    assert sorted(Counter(map(id, embedded)).values()) == [loss.n_observations()] * 2
    assert "ok" in capsys.readouterr().out


def test_a_second_problem_on_a_loss_enumerates_nothing(monkeypatch, rng):
    loss = MeanAveragePrecision(4)
    first = random_problem(loss, 5, rng)
    want = tsybakov_check(first, [bayes_predictor(first, s) for s in first.states()], 1.0)

    def refuse(*args):
        raise AssertionError("a second problem enumerated a label space")

    for name in ("outputs", "observations", "u_row", "f_row", "value"):
        monkeypatch.setattr(MeanAveragePrecision, name, refuse)
    second = FiniteProblem(loss, first.masses, first.conditionals)
    preds = [bayes_predictor(second, s) for s in second.states()]
    assert tsybakov_check(second, preds, 1.0) == want
    assert bayes_risk(second, preds[0], 0) == first.risks[0].min()
    assert np.array_equal(g_star_matrix(second), g_star_matrix(first))
    comparison_check(second, g_star_matrix(second) + 0.1, p=1.0)


def test_block_zero_one_bayes_is_first_output_of_best_block(rng):
    for partition in (popcount_partition(3), random_partition(3, 3, rng)):
        loss = BlockZeroOne(3, partition)
        prob = random_problem(loss, 20, rng)
        obs = loss.observation_table.tuples
        for s in prob.states():
            masses = [sum(prob.conditionals[s][obs.index(y)] for y in block)
                      for block in partition]
            best = partition[int(np.argmax(masses))]
            assert bayes_predictor(prob, s) == min(best)
            if len(best) > 1:  # loss-equivalent outputs tie exactly
                assert margin(prob, s) == 0.0
