"""Exact population quantities: Bayes risks, margins, calibration, inequalities."""

import math

import numpy as np
import pytest

from qslearn.losses import Hamming, PrecAtK, ZeroOne
from qslearn.theory import (
    FiniteProblem,
    margin_profile,
    bayes_predictor,
    bayes_risk,
    calibration_H,
    calibration_H_p,
    comparison_check,
    decode_states,
    g_star,
    g_star_matrix,
    gamma_p_norm,
    margin,
    margin_moment,
    random_problem,
    surrogate_excess,
    true_excess,
    tsybakov_check,
)

from conftest import loss_ids, small_losses

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
    obs = prob.observations
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
    obs = prob.observations
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
    prof = margin_profile(prob, 1.5)
    assert prof.gamma.shape == (4,)
    assert np.all(prof.gamma > 0)
    assert prof.gamma_p == pytest.approx(gamma_p_norm(prob, 1.5), rel=1e-12)
    assert prof.moment == pytest.approx(prof.gamma_p ** 1.5, rel=1e-12)


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
            m * np.sum((g2[s] - g_star(prob, s)) ** 2)
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
        outs = prob.outputs
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
    outs = prob.outputs
    preds = [outs[int(rng.integers(len(outs)))] for _ in prob.states()]
    assert true_excess(prob, preds) >= 0.0


def test_finite_problem_validation(rng):
    loss = Hamming(2)
    with pytest.raises(ValueError):
        FiniteProblem(loss, [0.5, 0.6], np.full((2, 4), 0.25))
    with pytest.raises(ValueError):
        FiniteProblem(loss, [1.0], np.full((1, 3), 1 / 3))
    bad = np.full((1, 4), 0.25)
    bad[0, 0] = -0.25
    bad[0, 1] = 0.75
    with pytest.raises(ValueError):
        FiniteProblem(loss, [1.0], bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_g_rejected(bad, rng):
    problem = random_problem(Hamming(3), 4, rng)
    g = g_star_matrix(problem)
    g[1, 2] = bad
    for call in (decode_states, surrogate_excess, comparison_check):
        with pytest.raises(ValueError, match="finite"):
            call(problem, g)
