"""Synthetic generators: margin regimes, exact excess, reproducibility, slopes."""

import itertools

import numpy as np
import pytest

from qslearn.losses import Hamming, PrecAtK, SpaceTooLargeError, ZeroOne, make_loss
from qslearn.synth import (
    MultilabelGenerator,
    SyntheticSpec,
    bayes_conditional_risk,
    bayes_predictions,
    conditional_risk,
    excess_risk_exact,
    rate_experiment,
    rate_rows_csv,
)

HARD = SyntheticSpec(noise_mode="hard_margin", delta=0.2, seed=3)
SMOOTH = SyntheticSpec(noise_mode="smooth_crossing", seed=3)


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(noise_mode="both")
    with pytest.raises(ValueError):
        SyntheticSpec(noise_mode="hard_margin", delta=0.7)
    with pytest.raises(ValueError):
        SyntheticSpec(n_grid=(64, 64))
    with pytest.raises(ValueError):
        SyntheticSpec(n_grid=())


def test_hard_margin_by_construction(rng):
    gen = MultilabelGenerator(HARD)
    x = gen.sample_inputs(500, rng)
    q = gen.q(x)
    assert np.min(np.abs(q - 0.5)) >= HARD.delta - 1e-12


def test_smooth_crossing_has_small_margins(rng):
    gen = MultilabelGenerator(SMOOTH)
    x = rng.uniform(size=(4096, SMOOTH.d))
    q = gen.q(x)
    assert np.min(np.abs(q - 0.5)) < 0.01


def test_modes_share_the_surface():
    g_hard = MultilabelGenerator(HARD)
    g_smooth = MultilabelGenerator(SMOOTH)
    assert np.allclose(g_hard.amp, g_smooth.amp)
    assert np.allclose(g_hard.freq, g_smooth.freq)
    assert g_hard.phase == g_smooth.phase


def test_bayes_predictor_threshold_matches_enumeration(rng):
    gen = MultilabelGenerator(SMOOTH)
    x = rng.uniform(size=(20, SMOOTH.d))
    loss = Hamming(SMOOTH.m)
    thresholds = bayes_predictions(gen, x, loss)
    # generic enumeration oracle over the product conditional
    obs = list(loss.observations())
    for xi, z_thresh in zip(x, thresholds):
        q = gen.q(xi)[0]
        probs = [
            float(np.prod([q[j] if y[j] else 1 - q[j] for j in range(loss.m)]))
            for y in obs
        ]
        risks = {
            z: sum(p * loss.value(z, y) for p, y in zip(probs, obs))
            for z in loss.outputs()
        }
        best = min(risks.values())
        assert risks[z_thresh] == pytest.approx(best, abs=1e-12)


def test_exact_excess_zero_at_bayes(rng):
    for spec in (HARD, SMOOTH):
        gen = MultilabelGenerator(spec)
        x = gen.sample_inputs(50, rng)
        loss = Hamming(spec.m)
        preds = bayes_predictions(gen, x, loss)
        assert excess_risk_exact(preds, gen, x, loss) == pytest.approx(0.0, abs=1e-12)


def test_exact_excess_constant_predictor_closed_form(rng):
    gen = MultilabelGenerator(SMOOTH)
    x = gen.sample_inputs(40, rng)
    loss = Hamming(SMOOTH.m)
    z0 = (0,) * SMOOTH.m
    q = gen.q(x)
    manual = float(np.mean(
        np.mean(q, axis=1) - np.mean(np.minimum(q, 1 - q), axis=1)
    ))
    got = excess_risk_exact([z0] * len(x), gen, x, loss)
    assert got == pytest.approx(manual, rel=1e-12)


def test_prec_at_k_conditional_risks(rng):
    loss = PrecAtK(4, 2)
    q = rng.uniform(size=4)
    z = (1, 0, 1, 0)
    assert conditional_risk(loss, z, q) == pytest.approx(1 - (q[0] + q[2]) / 2)
    assert bayes_conditional_risk(loss, q) == pytest.approx(
        1 - np.sort(q)[::-1][:2].sum() / 2
    )


def test_monte_carlo_cross_check(rng):
    # exact conditional excess agrees with a sampled-label estimate within 3 sigma
    gen = MultilabelGenerator(SMOOTH)
    loss = Hamming(SMOOTH.m)
    x = gen.sample_inputs(4000, rng)
    z0 = (0,) * SMOOTH.m
    exact = excess_risk_exact([z0] * len(x), gen, x, loss)
    ys = gen.sample_labels(x, rng)
    f_star = bayes_predictions(gen, x, loss)
    sampled = float(
        np.mean([loss.value(z0, y) for y in ys])
        - np.mean([loss.value(z, y) for z, y in zip(f_star, ys)])
    )
    sigma = 1.0 / np.sqrt(len(x))  # loose bound on the estimator std
    assert abs(sampled - exact) < 3 * sigma


def test_prec_at_k_rate_smoke():
    spec = SyntheticSpec(
        loss_name="prec_at_k", loss_params=(("k", 2),),
        n_grid=(24, 48), n_test=60, replications=1, seed=6,
    )
    report = rate_experiment(spec)
    assert len(report.rows) == 2
    assert all(r.loss == "prec_at_k" and r.excess_exact >= 0 for r in report.rows)


def test_prec_at_k_bayes_matches_enumeration(rng):
    spec = SyntheticSpec(loss_name="prec_at_k", loss_params=(("k", 2),), seed=8)
    gen = MultilabelGenerator(spec)
    loss = spec.make_loss()
    x = gen.sample_inputs(15, rng)
    preds = bayes_predictions(gen, x, loss)
    for xi, z in zip(x, preds):
        q = gen.q(xi)[0]
        assert conditional_risk(loss, z, q) == pytest.approx(
            bayes_conditional_risk(loss, q), abs=1e-12
        )


class _FixedMarginals:
    """A generator stand-in whose conditionals q(x) are given outright."""

    def __init__(self, q):
        self.q = lambda x: q


def test_closed_form_bayes_predictions_equal_the_thresholds_and_top_k(rng):
    m = 6
    q = rng.uniform(size=(300, m))
    q[:100] = np.round(q[:100] * 4) / 4  # 0.5 exactly, and tied marginals
    q[100:150] = 0.5
    gen = _FixedMarginals(q)
    assert bayes_predictions(gen, None, Hamming(m)) == [
        tuple(1 if p > 0.5 else 0 for p in q_x) for q_x in q
    ]
    for k in (1, 3, m):
        # the k largest marginals, ties to the later index
        top = [sorted(range(m), key=lambda j: (-q_x[j], -j))[:k] for q_x in q]
        assert bayes_predictions(gen, None, PrecAtK(m, k)) == [
            tuple(int(j in chosen) for j in range(m)) for chosen in top
        ]


def test_reproducibility_bit_identical():
    spec = SyntheticSpec(n_grid=(24, 48), n_test=60, replications=2, seed=9)
    a = rate_experiment(spec)
    b = rate_experiment(spec)
    assert a.rows == b.rows
    assert a.slopes == b.slopes
    ga, gb = MultilabelGenerator(spec), MultilabelGenerator(spec)
    ra, rb = np.random.default_rng(5), np.random.default_rng(5)
    xa, ya = ga.sample(30, ra)
    xb, yb = gb.sample(30, rb)
    assert np.array_equal(xa, xb) and ya == yb


def test_single_point_grid_slope_undefined():
    spec = SyntheticSpec(n_grid=(32,), n_test=40, replications=1, seed=2)
    report = rate_experiment(spec)
    assert report.slope is None
    assert "undefined" in report.note


def test_rate_rows_csv_format():
    spec = SyntheticSpec(n_grid=(24, 48), n_test=40, replications=1, seed=4)
    report = rate_experiment(spec)
    text = rate_rows_csv(report.rows)
    lines = text.strip().split("\n")
    assert lines[0] == "loss,noise_mode,n,replication,excess_exact,excess_test,seed"
    assert len(lines) == 1 + len(report.rows)
    assert report.to_json().startswith("{")


@pytest.mark.parametrize("name", ["ndcg", "eru"])
def test_generic_exact_risk_sums_over_bit_tuples(name):
    # the generator draws bit tuples, a strict subset of the relevance grid
    loss = make_loss(name, 3, R=3)
    gen = MultilabelGenerator(SyntheticSpec(m=3, seed=3))
    x = np.random.default_rng(0).uniform(size=(4, gen.spec.d))
    outs = list(loss.outputs())
    for x_row, q in zip(x, gen.q(x)):
        direct = [
            sum(
                np.prod([qj if b else 1.0 - qj for qj, b in zip(q, y)]) * loss.value(z, y)
                for y in itertools.product((0, 1), repeat=3)
            )
            for z in outs
        ]
        for z, risk in zip(outs, direct):
            assert conditional_risk(loss, z, q) == pytest.approx(risk, abs=1e-12)
        assert bayes_conditional_risk(loss, q) == pytest.approx(min(direct), abs=1e-12)
        [pred] = bayes_predictions(gen, x_row[None, :], loss)
        assert pred == outs[int(np.argmin(direct))]


@pytest.mark.parametrize("name", ["fscore", "pd", "zero_one"])
def test_generic_excess_and_bayes_match_a_per_point_sum(name):
    loss = make_loss(name, 3)
    gen = MultilabelGenerator(SyntheticSpec(m=3, seed=5))
    rng = np.random.default_rng(1)
    x = rng.uniform(size=(25, gen.spec.d))
    outs = list(loss.outputs())
    preds = [outs[i] for i in rng.integers(len(outs), size=len(x))]
    risks = [
        [sum(np.prod([qj if b else 1.0 - qj for qj, b in zip(q, y)]) * loss.value(z, y)
             for y in itertools.product((0, 1), repeat=3)) for z in outs]
        for q in gen.q(x)
    ]
    want = np.mean([r[outs.index(z)] - min(r) for z, r in zip(preds, risks)])
    assert excess_risk_exact(preds, gen, x, loss) == pytest.approx(want, abs=1e-12)
    assert bayes_predictions(gen, x, loss) == [outs[int(np.argmin(r))] for r in risks]


def test_generic_exact_risk_refuses_large_spaces():
    with pytest.raises(SpaceTooLargeError):
        bayes_conditional_risk(ZeroOne(13), np.full(13, 0.3))
