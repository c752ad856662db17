"""Synthetic generators: margin regimes, exact excess, reproducibility, slopes."""

import itertools
import math

import numpy as np
import pytest

from qslearn.decode import argmin_untied, decode_bruteforce
from qslearn.losses import Hamming, PrecAtK, SpaceTooLargeError, ZeroOne, make_loss
from qslearn.synth import (
    MultilabelGenerator,
    SyntheticSpec,
    bayes_predictions,
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
    for field, kwargs in [("d", {"d": 0}), ("n_test", {"n_test": 0}),
                          ("replications", {"replications": 0}), ("n_grid", {"n_grid": (0, 8)})]:
        with pytest.raises(ValueError, match=f"^{field}.* at least 1"):
            SyntheticSpec(**kwargs)


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
    thresholds = bayes_predictions(loss, loss.expected_embedding(gen.q(x)))
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
        q = gen.q(x)
        expected = loss.expected_embedding(q)
        bayes = bayes_predictions(loss, expected)
        # the coordinatewise threshold, an independent Bayes label for Hamming
        preds = [tuple(int(p > 0.5) for p in q_x) for q_x in q]
        assert excess_risk_exact(preds, bayes, expected, loss) == pytest.approx(0.0, abs=1e-15)


def test_exact_excess_constant_predictor_closed_form(rng):
    gen = MultilabelGenerator(SMOOTH)
    x = gen.sample_inputs(40, rng)
    loss = Hamming(SMOOTH.m)
    z0 = (0,) * SMOOTH.m
    q = gen.q(x)
    manual = float(np.mean(
        np.mean(q, axis=1) - np.mean(np.minimum(q, 1 - q), axis=1)
    ))
    expected = loss.expected_embedding(q)
    got = excess_risk_exact([z0] * len(x), bayes_predictions(loss, expected), expected, loss)
    assert got == pytest.approx(manual, rel=1e-12)


def test_prec_at_k_conditional_risks(rng):
    loss = PrecAtK(4, 2)
    q = rng.uniform(size=4)
    z = (1, 0, 1, 0)
    expected = loss.expected_embedding(q[None, :])
    got = excess_risk_exact([z], bayes_predictions(loss, expected), expected, loss)
    # ell(z, x) = 1 - (q_0 + q_2)/2 and ell(f*(x), x) = 1 - (sum of the top two q_j)/2
    assert got == pytest.approx((np.sort(q)[::-1][:2].sum() - q[0] - q[2]) / 2, abs=1e-15)


def test_monte_carlo_cross_check(rng):
    # exact conditional excess agrees with a sampled-label estimate within 3 sigma
    gen = MultilabelGenerator(SMOOTH)
    loss = Hamming(SMOOTH.m)
    x = gen.sample_inputs(4000, rng)
    z0 = (0,) * SMOOTH.m
    expected = loss.expected_embedding(gen.q(x))
    f_star = bayes_predictions(loss, expected)
    exact = excess_risk_exact([z0] * len(x), f_star, expected, loss)
    ys = gen.sample_labels(x, rng)
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
    preds = bayes_predictions(loss, loss.expected_embedding(gen.q(x)))
    obs = list(loss.observations())
    for xi, z in zip(x, preds):
        q = gen.q(xi)[0]
        risks = {
            out: sum(np.prod([qj if b else 1 - qj for qj, b in zip(q, y)]) * loss.value(out, y)
                     for y in obs)
            for out in loss.outputs()
        }
        assert risks[z] == pytest.approx(min(risks.values()), abs=1e-12)


def test_closed_form_bayes_predictions_equal_the_thresholds_and_top_k(rng):
    m = 6
    q = rng.uniform(size=(300, m))
    q[:100] = np.round(q[:100] * 4) / 4  # 0.5 exactly, and tied marginals
    q[100:150] = 0.5
    hamming = Hamming(m)
    assert bayes_predictions(hamming, hamming.expected_embedding(q)) == [
        tuple(1 if p > 0.5 else 0 for p in q_x) for q_x in q
    ]
    for k in (1, 3, m):
        # the k largest marginals, ties to the later index
        top = [sorted(range(m), key=lambda j: (-q_x[j], -j))[:k] for q_x in q]
        prec = PrecAtK(m, k)
        assert bayes_predictions(prec, prec.expected_embedding(q)) == [
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
        expected = loss.expected_embedding(q[None, :])
        [pred] = bayes_predictions(loss, expected)
        assert pred == outs[int(np.argmin(direct))]
        for z, risk in zip(outs, direct):  # every output's risk, less the Bayes risk
            got = excess_risk_exact([z], [pred], expected, loss)
            assert got == pytest.approx(risk - min(direct), abs=1e-12)


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
    expected = loss.expected_embedding(gen.q(x))
    bayes = bayes_predictions(loss, expected)
    assert bayes == [outs[int(np.argmin(r))] for r in risks]
    assert excess_risk_exact(preds, bayes, expected, loss) == pytest.approx(want, abs=1e-12)


def test_generic_exact_risk_refuses_large_spaces():
    # 2^13 bit tuples x r = 2^13 embedding coordinates is over the table limit
    with pytest.raises(SpaceTooLargeError):
        ZeroOne(13).expected_embedding(np.full((1, 13), 0.3))
    with pytest.raises(SpaceTooLargeError):
        rate_experiment(SyntheticSpec(loss_name="zero_one", m=13, n_grid=(16,), n_test=5,
                                      replications=1))


@pytest.mark.parametrize("m", range(2, 8))
def test_pd_bayes_labels_equal_the_oracle(m):
    # the sort decoder is exact at every m: f* by enumeration of Z against
    # the law of y, on rows with an unambiguous argmin
    loss = make_loss("pd", m)
    gen = MultilabelGenerator(SyntheticSpec(m=m, seed=m))
    q = gen.q(np.random.default_rng(m).uniform(size=(12, gen.spec.d)))
    ys = list(itertools.product((0, 1), repeat=m))
    probs = np.prod(np.where(np.array(ys)[None], q[:, None], 1.0 - q[:, None]), axis=2)
    expected = loss.expected_embedding(q)
    untied = [argmin_untied(loss.output_table.f, row) for row in expected]
    assert sum(untied) >= 10
    got = bayes_predictions(loss, expected)
    want = decode_bruteforce(loss, probs, ys)
    assert [g for g, ok in zip(got, untied) if ok] == [w for w, ok in zip(want, untied) if ok]


def test_fscore_rates_run_at_m13():
    # E[U_y] has 2^13 x 170 cells; the 2^13 x 2^13 loss matrix it replaces was refused
    spec = SyntheticSpec(loss_name="fscore", m=13, n_grid=(16, 32), n_test=20,
                         replications=1, seed=1)
    report = rate_experiment(spec)
    assert [r.n for r in report.rows] == [16, 32]
    assert all(r.excess_exact >= 0 for r in report.rows)


def test_unattainable_hard_margin_is_refused():
    spec = SyntheticSpec(noise_mode="hard_margin", delta=0.45, m=4, seed=0)
    # min_j |q_j - 1/2| never exceeds sigmoid(min_j |a_j|) - 1/2 = 0.4224 here
    with pytest.raises(ValueError, match=r"delta 0\.45 .* below 0\.4224"):
        MultilabelGenerator(spec)
    gen = MultilabelGenerator(SMOOTH)
    bound = 1.0 / (1.0 + math.exp(-float(np.min(np.abs(gen.amp))))) - 0.5
    below = SyntheticSpec(noise_mode="hard_margin", delta=bound - 0.01, seed=SMOOTH.seed)
    x = MultilabelGenerator(below).sample_inputs(10, np.random.default_rng(0))
    assert len(x) == 10
    with pytest.raises(ValueError, match="unattainable"):
        MultilabelGenerator(SyntheticSpec(noise_mode="hard_margin", delta=bound,
                                          seed=SMOOTH.seed))
