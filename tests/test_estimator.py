"""Surrogate pipeline: fit, both prediction paths, risks, serialization."""

import dataclasses
import importlib
import json
import re
import tracemalloc

import numpy as np
import pytest

import qslearn.estimator as estimator
from qslearn.data import standardize
from qslearn.decode import argmin_untied, decode_bruteforce
from qslearn.estimator import (
    MODEL_FORMAT_VERSION,
    alpha_weights,
    empirical_risk,
    fit,
    load_model,
    predict,
    predict_batch,
    predict_models,
    save_model,
    select_and_refit,
    select_lambda,
    surrogate_values,
)
from qslearn.kernels import (GEMM_MIN_ROWS, KernelSpec, build_gram, cross_kernel, median_heuristic,
                             solve_ridge)
from qslearn.losses import (ExpectedRankUtility, FScore, Hamming, InvalidLabelError,
                            MeanAveragePrecision, NDCGType, PairwiseDisagreement, PrecAtK,
                            SpaceTooLargeError, ZeroOne)
from qslearn.losses.base import BLOCK_CELLS, LabelSpace
from qslearn.theory import random_problem, true_excess, tsybakov_check

from conftest import loss_ids, random_observation, small_losses

GAUSS = KernelSpec("gaussian", 1.0)
ALL_SMALL = small_losses()


def test_single_point_fit_shrinks_embedding(rng):
    loss = Hamming(3)
    y = (1, 0, 1)
    lam = 0.4
    model = fit(loss, GAUSS, lam, np.zeros((1, 2)), [y])
    g = surrogate_values(model, np.zeros(2))[0]
    assert np.allclose(g, loss.u_row(y) / (1 + lam), atol=1e-12)


def test_constant_labels_decode_to_that_label(rng):
    loss = Hamming(4)
    y = (0, 1, 1, 0)
    x = rng.uniform(size=(12, 3))
    model = fit(loss, KernelSpec("gaussian", 0.8), 0.1, x, [y] * 12)
    for _ in range(20):
        pt = rng.uniform(size=3)
        assert predict(model, pt) == y


def test_cross_path_surrogate_values(rng):
    loss = PrecAtK(5, 2)
    x = rng.normal(size=(15, 3))
    ys = [random_observation(loss, rng) for _ in range(15)]
    model = fit(loss, GAUSS, 0.05, x, ys)
    psi = np.array([loss.u_row(y) for y in ys])
    for _ in range(10):
        pt = rng.normal(size=3)
        g_fast = surrogate_values(model, pt)[0]
        g_alpha = psi.T @ alpha_weights(model, pt)[0]
        assert np.max(np.abs(g_fast - g_alpha)) < 1e-8


@pytest.mark.parametrize("loss", ALL_SMALL, ids=loss_ids(ALL_SMALL))
def test_fast_path_equals_alpha_path(loss, rng):
    x = rng.uniform(size=(12, 2))
    ys = [random_observation(loss, rng) for _ in range(12)]
    model = fit(loss, KernelSpec("gaussian", 0.6), 0.08, x, ys)
    x_test = rng.uniform(size=(8, 2))
    assert predict_batch(model, x_test, path="fast") == predict_batch(
        model, x_test, path="alpha"
    )


@pytest.mark.parametrize("loss", [Hamming(4), FScore(4), PairwiseDisagreement(4)],
                         ids=["hamming", "fscore", "pd"])
def test_batch_labels_equal_per_row_labels(loss, rng):
    # at d = 3 the batch and each single row take the per-pair distances,
    # but the batch's surrogate values come from one matrix product and a
    # row's from a vector product: labels agree wherever rounding cannot
    # decide the argmin
    x = rng.normal(size=(60, 3))
    model = fit(loss, KernelSpec("gaussian", median_heuristic(x)), 0.01, x,
                [random_observation(loss, rng) for _ in range(60)])
    x_new = rng.normal(size=(3 * GEMM_MIN_ROWS, 3))
    batch = predict_batch(model, x_new)
    untied = [argmin_untied(loss.output_table.rows, t) for t in surrogate_values(model, x_new)]
    assert sum(untied) >= len(x_new) // 2
    for row, label, ok in zip(x_new, batch, untied):
        if ok:
            assert predict(model, row) == label


@pytest.mark.parametrize("path", ["fast", "alpha"])
def test_predict_batch_in_blocks_equals_per_block_predict_models(path, rng, monkeypatch):
    # 10 rows' cross-kernels per block: 47 rows go in five blocks of 9-10 rows
    loss = PairwiseDisagreement(4)
    x = rng.normal(size=(30, 3))
    model = fit(loss, GAUSS, 0.05, x, [random_observation(loss, rng) for _ in range(30)])
    monkeypatch.setattr(estimator, "BLOCK_CELLS", 10 * len(x))
    blocks = []
    monkeypatch.setattr(estimator, "cross_kernel",
                        lambda spec, rows, x_train: blocks.append(rows) or cross_kernel(spec, rows, x_train))
    x_new = rng.normal(size=(47, 3))
    labels = predict_batch(model, x_new, path=path)
    assert [len(rows) for rows in blocks] == [10, 10, 9, 9, 9]
    assert np.array_equal(np.vstack(blocks), x_new)
    assert labels == [z for rows in blocks
                      for z in predict_models([model], cross_kernel(GAUSS, rows, x), path)[0]]
    # no block is cut below GEMM_MIN_ROWS rows, whatever the cell budget
    monkeypatch.setattr(estimator, "BLOCK_CELLS", 1)
    blocks.clear()
    assert predict_batch(model, x_new[:2 * GEMM_MIN_ROWS - 1], path=path) == labels[:2 * GEMM_MIN_ROWS - 1]
    assert [len(rows) for rows in blocks] == [2 * GEMM_MIN_ROWS - 1]


@pytest.mark.parametrize("path", ["fast", "alpha"])
def test_predict_batch_of_no_rows_and_of_one_1d_row(path, rng):
    loss = Hamming(3)
    x = rng.normal(size=(20, 2))
    model = fit(loss, GAUSS, 0.1, x, [random_observation(loss, rng) for _ in range(20)])
    assert predict_batch(model, np.empty((0, 2)), path=path) == []
    row = rng.normal(size=2)
    assert predict_batch(model, row, path=path) == predict_batch(model, row[None], path=path)
    assert predict_batch(model, row, path=path) == [predict(model, row, path=path)]


@pytest.mark.parametrize("path", ["fast", "alpha"])
def test_predict_batch_never_holds_the_whole_cross_kernel(path, rng):
    # 20000 rows against 300 training rows: the whole kernel alone would be
    # 48 MB; blocks of at most BLOCK_CELLS cells keep the peak under two
    loss = Hamming(4)
    x = rng.normal(size=(300, 3))
    model = fit(loss, GAUSS, 0.05, x, [random_observation(loss, rng) for _ in range(300)])
    x_new = rng.normal(size=(20000, 3))
    tracemalloc.start()
    try:
        predict_batch(model, x_new, path=path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * BLOCK_CELLS * 8


def test_hamming_predict_matches_eq8_oracle(rng):
    loss = Hamming(4)
    x = rng.uniform(size=(30, 2))
    ys = [random_observation(loss, rng) for _ in range(30)]
    model = fit(loss, KernelSpec("gaussian", 0.5), 0.05, x, ys)
    for _ in range(50):
        pt = rng.uniform(size=2)
        alpha = alpha_weights(model, pt)[0]
        assert predict(model, pt) == decode_bruteforce(loss, alpha, ys)


def test_ndcg_predict_matches_direct_formula(rng):
    loss = NDCGType(5, R=3)
    x = rng.uniform(size=(20, 2))
    ys = [random_observation(loss, rng) for _ in range(20)]
    model = fit(loss, KernelSpec("gaussian", 0.5), 0.1, x, ys)
    for _ in range(20):
        pt = rng.uniform(size=2)
        alpha = alpha_weights(model, pt)[0]
        v = np.zeros(5)
        for a_i, y in zip(alpha, ys):
            n_y = loss.normalizer(y)
            if n_y > 0:
                v += a_i * loss.gains(y) / n_y
        order = sorted(range(5), key=lambda j: (-v[j], j))
        sigma = [0] * 5
        for pos, item in enumerate(order):
            sigma[item] = pos + 1
        assert predict(model, pt) == tuple(sigma)


def test_empirical_risk_values(rng):
    loss = Hamming(3)
    ys = [(1, 1, 1), (0, 0, 0)]
    assert empirical_risk(ys, loss, ys) == 0.0
    assert empirical_risk([(0, 0, 0)] * 2, loss, [(1, 1, 1)] * 2) == 1.0
    preds = [random_observation(loss, rng) for _ in range(9)]
    truth = [random_observation(loss, rng) for _ in range(9)]
    manual = sum(loss.value(z, y) for z, y in zip(preds, truth)) / 9
    assert empirical_risk(preds, loss, truth) == pytest.approx(manual, rel=1e-12)
    # one value call per distinct pair, yet bitwise the mean over every pair
    for loss in (FScore(4), PairwiseDisagreement(4), NDCGType(3, R=2)):
        outputs, observations = list(loss.outputs())[:5], list(loss.observations())[:6]
        preds = [outputs[i] for i in rng.integers(len(outputs), size=300)]
        truth = [observations[i] for i in rng.integers(len(observations), size=300)]
        want = float(np.mean([loss.value(z, y) for z, y in zip(preds, truth)]))
        assert empirical_risk(preds, loss, truth) == want
        assert empirical_risk([list(z) for z in preds], loss, np.array(truth)) == want


def _count_distinct(monkeypatch, calls: list) -> None:
    """Record ``(what, length)`` of every sequence a label space maps by ``distinct``."""
    distinct = LabelSpace.distinct
    monkeypatch.setattr(LabelSpace, "distinct", lambda self, labels, what: (
        calls.append((what, len(labels))) or distinct(self, labels, what)))


def test_alpha_path_maps_the_training_labels_once_per_model(tmp_path, rng, monkeypatch):
    n = 30
    model = _fitted(rng, Hamming(3), n=n)
    path = str(tmp_path / "m.npz")
    save_model(model, path)
    x_test = rng.normal(size=(40, 3))
    want = [predict(model, row, path="alpha") for row in x_test[:20]]
    calls = []
    _count_distinct(monkeypatch, calls)
    monkeypatch.setattr(estimator, "BLOCK_CELLS", n * GEMM_MIN_ROWS)  # row blocks of 8
    restored = load_model(path)
    assert [size for _, size in calls] == [n]  # as it checks them, as fit did
    calls.clear()
    bare = dataclasses.replace(model, y_index=None, label_weights=None)
    for fitted, maps in ((model, 0), (restored, 0), (bare, 1)):
        # two batches of 20 rows, two row blocks each
        assert predict_batch(fitted, x_test[:20], path="alpha") == want
        assert len(predict_batch(fitted, x_test[20:], path="alpha")) == 20
        assert [size for _, size in calls].count(n) == maps
        calls.clear()


def test_select_lambda_maps_the_validation_labels_once_per_loss(rng, monkeypatch):
    losses = [Hamming(3), ZeroOne(3)]
    x = rng.normal(size=(40, 3))
    ys = [random_observation(losses[0], rng) for _ in range(40)]
    grid = [0.3, 0.03, 0.003]
    calls = []
    _count_distinct(monkeypatch, calls)
    picks = select_lambda(losses, GAUSS, grid, x[:29], ys[:29], x[29:], ys[29:])
    assert calls.count(("observation", 11)) == len(losses)  # not once per (lambda, loss)
    for loss, (risk, model) in zip(losses, picks):
        assert risk == empirical_risk(predict_batch(model, x[29:]), loss, ys[29:])


@pytest.mark.parametrize("d", [4, 12])
def test_select_and_refit_selects_as_select_lambda_and_refits_as_fit(d, rng):
    # d = 4 takes per-pair distances, d = 12 products
    losses = [Hamming(3), FScore(3)]
    x = rng.normal(size=(60, d))
    ys = [random_observation(losses[0], rng) for _ in range(60)]
    perm = rng.permutation(60)
    tr, val = perm[15:], perm[:15]
    grid = [0.3, 0.03, 0.003]
    for loss in losses:
        [(want_risk, want)] = select_lambda([loss], KernelSpec(), grid, x[tr], [ys[i] for i in tr],
                                            x[val], [ys[i] for i in val])
        risk, model = select_and_refit(loss, KernelSpec(), grid, x, ys, tr, val)
        assert (risk, model.lam) == (want_risk, want.lam)
        assert model.kernel.bandwidth == pytest.approx(want.kernel.bandwidth, rel=1e-15)
        ref = fit(loss, model.kernel, model.lam, x, ys)
        assert np.array_equal(model.x_train, ref.x_train)
        assert model.y_train == ref.y_train
        scale = np.max(np.abs(ref.coefficients))
        assert np.max(np.abs(model.coefficients - ref.coefficients)) <= 1e-12 * scale


def test_lambda_selection_holds_one_factor_at_a_time(rng):
    # each lambda's factor is freed before the next one is made: the peak is
    # the kernel matrices and one factor, not two factors
    x = rng.normal(size=(800, 3))
    ys = [random_observation(Hamming(3), rng) for _ in range(800)]
    grid = [1e-3, 1e-2, 1e-1]
    tr, val = np.arange(600), np.arange(600, 800)
    runs = [(lambda: select_lambda([Hamming(3)], GAUSS, grid, x[tr], ys[:600], x[val], ys[600:]),
             600 * 600 + 200 * 600 + 600 * 600),  # Gram, validation kernel, factor
            (lambda: select_and_refit(Hamming(3), GAUSS, grid, x, ys, tr, val),
             800 * 800 + 600 * 600)]  # the matrix over all rows, a factor of its block
    for run, cells in runs:
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * cells * 8


@pytest.mark.parametrize("tr, val", [([0, 1, 2], [3, 4]), ([0, 1, 2, 3], [3, 4, 5]),
                                     ([0, 1, 2, 3, 4, 5], []), ([], [0, 1, 2, 3, 4, 5])])
def test_select_and_refit_needs_two_parts_of_the_rows(tr, val, rng):
    x, ys = rng.normal(size=(6, 2)), [(0, 1)] * 6
    with pytest.raises(ValueError, match="two nonempty parts"):
        select_and_refit(Hamming(2), GAUSS, [0.1, 0.2], x, ys, tr, val)


def test_empirical_risk_requires_data():
    with pytest.raises(ValueError):
        empirical_risk([], Hamming(2), [])


def test_scale_and_offset_invariance_of_argmin(rng):
    # argmin of sum w_i L is unchanged by L -> s L + c for s > 0
    loss = Hamming(4)
    for _ in range(25):
        n = 8
        w = rng.normal(size=n)
        ys = [random_observation(loss, rng) for _ in range(n)]
        base = decode_bruteforce(loss, w, ys)
        s, c = float(rng.uniform(0.5, 3.0)), float(rng.normal())
        best, best_obj = None, np.inf
        for z in loss.outputs():
            obj = sum(wi * (s * loss.value(z, y) + c) for wi, y in zip(w, ys))
            if obj < best_obj:
                best, best_obj = z, obj
        assert best == base


def test_invalid_observation_reports_index():
    with pytest.raises(InvalidLabelError, match="observation 1"):
        fit(Hamming(3), GAUSS, 0.1, np.zeros((2, 2)), [(0, 1, 0), (0, 1)])


GOOD_LABELS = [(0, 1, 1), (1, 0, 0), (1, 1, 0), (0, 0, 1)]
BAD_LABELS = {"wrong_length": (1, 0), "out_of_range": (1, 0, 5), "non_integral": (1.5, 0, 1),
              "not_a_sequence": 3}


def _label_entry_points(tmp_path):
    """Per caller-label entry point, the ``what`` its errors name and a call
    feeding it a four-label sequence, all on Hamming(3)."""
    loss, rng = Hamming(3), np.random.default_rng(5)
    x = rng.normal(size=(4, 2))
    model = fit(loss, GAUSS, 0.1, x, GOOD_LABELS)
    problem = random_problem(loss, 4, rng)
    path = str(tmp_path / "m.npz")

    def load(labels):
        save_model(model, path)
        np.savez(path, **{**_arrays(path), "y_train": np.array(labels)})
        return load_model(path)

    return {
        "fit": ("observation", lambda ys: fit(loss, GAUSS, 0.1, x, ys)),
        "risk_predictions": ("prediction", lambda ys: empirical_risk(ys, loss, GOOD_LABELS)),
        "risk_observations": ("observation", lambda ys: empirical_risk(GOOD_LABELS, loss, ys)),
        "select_lambda": ("observation",
                          lambda ys: select_lambda([loss], GAUSS, [0.1], x, GOOD_LABELS, x, ys)),
        "decode_bruteforce": ("observation", lambda ys: decode_bruteforce(loss, np.ones(4), ys)),
        "true_excess": ("state", lambda ys: true_excess(problem, ys)),
        "tsybakov_check": ("state", lambda ys: tsybakov_check(problem, ys, 1.0)),
        "load_model": ("y_train row", load),
    }


LABEL_ENTRY_POINTS = ["fit", "risk_predictions", "risk_observations", "select_lambda",
                      "decode_bruteforce", "true_excess", "tsybakov_check", "load_model"]


# an (n, m) y_train array holds neither a short row nor a scalar; its shape check refuses those
@pytest.mark.parametrize("entry, bad", [
    (entry, bad) for entry in LABEL_ENTRY_POINTS for bad in sorted(BAD_LABELS)
    if entry != "load_model" or bad in ("out_of_range", "non_integral")])
def test_every_label_entry_point_names_the_first_bad_label(entry, bad, tmp_path):
    what, call = _label_entry_points(tmp_path)[entry]
    # element 2 is the first bad one; element 3 is bad too
    with pytest.raises(InvalidLabelError, match=re.escape(f"{what} 2: ")):
        call(GOOD_LABELS[:2] + [BAD_LABELS[bad], (9, 9, 9)])
    call(GOOD_LABELS)


def test_fit_gathers_the_rows_of_a_per_row_psi(rng):
    x = rng.normal(size=(40, 3))
    for loss in (Hamming(3), FScore(3), PairwiseDisagreement(3)):
        ys = [random_observation(loss, rng) for _ in range(40)]
        psi = np.array([loss.u_row(y) for y in ys])
        want, _ = solve_ridge(build_gram(GAUSS, x), psi, 0.05)
        model = fit(loss, GAUSS, 0.05, x, [list(y) for y in ys])
        assert np.array_equal(model.coefficients, want)
        assert model.y_train == ys and all(type(b) is int for y in model.y_train for b in y)


def test_serialization_round_trip(tmp_path, rng):
    # an m given as a NumPy integer is kept as a Python int, which the file's JSON holds
    for loss in (Hamming(3), PrecAtK(4, 2), NDCGType(3, R=2), Hamming(np.int64(4))):
        x = rng.uniform(size=(10, 3))
        ys = [random_observation(loss, rng) for _ in range(10)]
        model = fit(loss, KernelSpec("gaussian", 0.7), 0.2, x, ys)
        path = tmp_path / f"{loss.name}.npz"
        save_model(model, str(path))
        restored = load_model(str(path))
        assert np.allclose(restored.coefficients, model.coefficients)
        x_test = rng.uniform(size=(6, 3))
        assert predict_batch(restored, x_test) == predict_batch(model, x_test)


def test_eru_model_reloads_as_eru(tmp_path, rng):
    loss = ExpectedRankUtility(3, R=3, neutral=2)
    x = rng.uniform(size=(10, 3))
    ys = [random_observation(loss, rng) for _ in range(10)]
    model = fit(loss, KernelSpec("gaussian", 0.7), 0.2, x, ys)
    path = tmp_path / "eru.npz"
    save_model(model, str(path))
    back = load_model(str(path))
    assert type(back.loss) is ExpectedRankUtility and back.loss.neutral == 2
    x_test = rng.uniform(size=(6, 3))
    assert predict_batch(back, x_test) == predict_batch(model, x_test)


def test_serialization_block_partition(tmp_path, rng):
    from qslearn.losses import BlockZeroOne
    from conftest import popcount_partition

    loss = BlockZeroOne(3, popcount_partition(3))
    x = rng.uniform(size=(12, 2))
    ys = [random_observation(loss, rng) for _ in range(12)]
    model = fit(loss, KernelSpec("gaussian", 0.5), 0.1, x, ys)
    path = tmp_path / "block.npz"
    save_model(model, str(path))
    back = load_model(str(path))
    assert back.loss.partition == loss.partition
    x_test = rng.uniform(size=(5, 2))
    assert predict_batch(back, x_test) == predict_batch(model, x_test)


def test_evaluate_risk(rng):
    loss = Hamming(3)
    x = rng.uniform(size=(10, 2))
    ys = [random_observation(loss, rng) for _ in range(10)]
    model = fit(loss, KernelSpec("gaussian", 0.5), 1e-6, x, ys)
    # near-interpolation: training risk should be small
    assert empirical_risk(predict_batch(model, x), loss, ys) <= 0.15


def _fitted(rng, loss=None, n=14, scaler=False):
    loss = loss or Hamming(3)
    x = rng.normal(size=(n, 3))
    ys = [random_observation(loss, rng) for _ in range(n)]
    model = fit(loss, KernelSpec("gaussian", 1.3), 0.05, x, ys)
    if scaler:
        model.scaler = standardize(x)
    return model


def _arrays(path) -> dict:
    with np.load(path, allow_pickle=False) as payload:
        return {k: np.array(payload[k]) for k in payload.files}


def test_lambda_path_slices_match_standalone_fit(rng, monkeypatch):
    losses = [ZeroOne(3), Hamming(3), FScore(3)]
    x = rng.normal(size=(25, 4))
    ys = [random_observation(losses[0], rng) for _ in range(25)]
    grid = [1e-3, 1e-2, 0.3]
    d2 = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=-1)
    gram = np.exp(-d2 / (2.0 * GAUSS.bandwidth**2))
    scored, solves = [], []
    solve, score = estimator.weights_at, estimator.predict_models
    monkeypatch.setattr(estimator, "weights_at", lambda *a: solves.append(1) or solve(*a))
    monkeypatch.setattr(estimator, "predict_models", lambda models, k_x, path: (
        scored.append((models, len(solves))) or score(models, k_x, path)))
    select_lambda(losses, GAUSS, grid, x, ys, rng.normal(size=(5, 4)), ys[:5], path="alpha")
    assert [models[0].lam for models, _ in scored] == grid and len(solves) == len(grid)
    for j, (models, solved) in enumerate(scored):
        # the losses of one lambda share one S, solved for once, before they are scored
        assert len({id(m.label_weights) for m in models}) == 1 and solved == j + 1
        for loss, model in zip(losses, models):
            ref = fit(loss, GAUSS, model.lam, x, ys).coefficients
            assert model.coefficients.shape == ref.shape == (25, loss.r)
            assert np.max(np.abs(model.coefficients - ref)) <= 1e-12 * np.max(np.abs(ref))
            # and an LU solve made apart from the estimator's code
            psi = np.array([loss.u_row(y) for y in ys])
            own = np.linalg.solve(gram + 25 * model.lam * np.eye(25), psi)
            assert np.max(np.abs(model.coefficients - own)) <= 1e-9 * np.max(np.abs(own))


def test_fitted_model_holds_no_factor(rng):
    n = 600
    x = rng.normal(size=(n, 3))
    ys = [random_observation(Hamming(3), rng) for _ in range(n)]
    tracemalloc.start()
    try:
        model = fit(Hamming(3), GAUSS, 0.01, x, ys)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < n * n * 8 / 2  # the Gram, factored in place, went with the fit
    leaves = [v for value in vars(model).values()
              for v in (value if isinstance(value, tuple) else (value,))]
    assert not any(np.shape(v) == (n, n) for v in leaves if isinstance(v, np.ndarray))


def test_non_finite_features_rejected(rng):
    x = rng.normal(size=(6, 2))
    ys = [(0, 1)] * 6
    bad = x.copy()
    bad[3, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        fit(Hamming(2), GAUSS, 0.1, bad, ys)
    model = fit(Hamming(2), GAUSS, 0.1, x, ys)
    bad[3, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        predict_batch(model, bad)


@pytest.mark.parametrize("loss", [Hamming(4), PairwiseDisagreement(4)], ids=["hamming", "pd"])
def test_overflowing_surrogate_is_refused(loss, rng):
    x = rng.normal(size=(40, 3))
    y = [random_observation(loss, rng) for _ in range(40)]
    model = fit(loss, KernelSpec("linear"), 0.1, x, y)
    huge = np.array([[1.7e308, -1.7e308, 1.7e308]])  # finite, but k(x, x_i) overflows
    for path in ("fast", "alpha"):  # theta, and K_x before its product with S, are refused
        with pytest.raises(ValueError, match="not finite"):
            predict_batch(model, np.vstack([x[:3], huge]), path=path)
        assert len(predict_batch(model, x[:3], path=path)) == 3


def test_load_builds_no_gram_and_alpha_path_matches(tmp_path, rng, monkeypatch):
    model = _fitted(rng, PrecAtK(4, 2), n=16)
    x_test = rng.normal(size=(7, 3))
    want_alpha = alpha_weights(model, x_test)
    want_labels = predict_batch(model, x_test, path="alpha")
    path = str(tmp_path / "m.npz")
    save_model(model, path)
    calls = []
    build = estimator.build_gram
    monkeypatch.setattr(estimator, "build_gram", lambda *a: calls.append(1) or build(*a))
    restored = load_model(path)
    assert calls == []
    assert predict_batch(restored, x_test) == predict_batch(model, x_test)
    assert calls == []
    assert np.allclose(alpha_weights(restored, x_test), want_alpha, rtol=0, atol=1e-10)
    assert calls == [1]  # alpha_weights builds a factor for itself
    assert predict_batch(restored, x_test, path="alpha") == want_labels
    assert calls == [1, 1]  # and the alpha path one, to solve for S, once


def test_label_weights_solve_against_the_training_labels(rng, monkeypatch):
    n = 40
    model = _fitted(rng, Hamming(3), n=n)
    x_test = rng.normal(size=(9, 3))
    want = predict_batch(model, x_test, path="alpha")
    labels, at = model.y_index
    assert model.label_weights.shape == (n, len(labels))
    # S against an LU solve of a Gram built apart from the kernels module
    d2 = np.sum((model.x_train[:, None, :] - model.x_train[None, :, :]) ** 2, axis=-1)
    gram = np.exp(-d2 / (2.0 * model.kernel.bandwidth**2))
    onehot = np.zeros((n, len(labels)))
    onehot[np.arange(n), at] = 1.0
    own = np.linalg.solve(gram + n * model.lam * np.eye(n), onehot)
    assert np.max(np.abs(model.label_weights - own)) <= 1e-9 * np.max(np.abs(own))
    # the label totals equal the per-row weights alpha(x) summed per label
    totals = cross_kernel(model.kernel, x_test, model.x_train) @ model.label_weights
    per_label = alpha_weights(model, x_test) @ onehot
    assert np.max(np.abs(totals - per_label)) <= 1e-12 * np.max(np.abs(per_label))

    def refuse(*args):
        raise AssertionError("the alpha path solved again")

    monkeypatch.setattr(estimator, "weights_at", refuse)
    assert predict_batch(model, x_test, path="alpha") == want


def test_alpha_labels_do_not_depend_on_the_batch(rng):
    loss = Hamming(4)
    model = _fitted(rng, loss, n=60)
    x_test = rng.normal(size=(17, 3))
    single = [predict(model, row, path="alpha") for row in x_test]
    labels, _ = model.y_index
    matrix = loss.loss_matrix(labels)
    totals = cross_kernel(model.kernel, x_test, model.x_train) @ model.label_weights
    untied = [argmin_untied(matrix, t) for t in totals]
    assert sum(untied) >= 15
    for size in range(1, 18):
        got = predict_batch(model, x_test[:size], path="alpha")
        assert all(g == w for g, w, ok in zip(got, single, untied) if ok)
    perm = rng.permutation(17)
    got = predict_batch(model, x_test[perm], path="alpha")
    assert all(got[k] == single[i] for k, i in enumerate(perm.tolist()) if untied[i])


def test_alpha_path_refuses_labels_beyond_the_budget_before_solving(rng, monkeypatch):
    model = _fitted(rng, Hamming(3), n=30)
    distinct = len(model.y_index[0])
    monkeypatch.setattr(importlib.import_module("qslearn.losses.base"), "TABLE_CELLS",
                        Hamming(3).n_outputs() * (distinct - 1))

    def refuse(*args):
        raise AssertionError("S was solved for or a loss value computed")

    monkeypatch.setattr(estimator, "weights_at", refuse)
    monkeypatch.setattr(model.loss, "value", refuse)
    with pytest.raises(SpaceTooLargeError, match="loss matrix"):
        predict_batch(model, rng.normal(size=(3, 3)), path="alpha")
    assert model.label_weights is None


def test_save_load_save_keeps_arrays(tmp_path, rng):
    for scaler in (False, True):
        first, second = tmp_path / f"a{scaler}.npz", tmp_path / f"b{scaler}.npz"
        save_model(_fitted(rng, scaler=scaler), str(first))
        save_model(load_model(str(first)), str(second))
        a, b = _arrays(first), _arrays(second)
        assert a.keys() == b.keys()
        assert ("scaler_mean" in a) == scaler
        for key in a:
            assert a[key].dtype == b[key].dtype and np.array_equal(a[key], b[key]), key


def test_load_keeps_training_scaler(tmp_path, rng):
    model = _fitted(rng, scaler=True)
    path = str(tmp_path / "m.npz")
    save_model(model, path)
    back = load_model(path)
    assert np.array_equal(back.scaler.mean, model.scaler.mean)
    assert np.array_equal(back.scaler.scale, model.scaler.scale)


def test_load_reads_format_version_1(tmp_path, rng):
    model = _fitted(rng)
    path = str(tmp_path / "v2.npz")
    save_model(model, path)
    arrays = _arrays(path)
    arrays["format_version"] = np.array(1)
    np.savez(str(tmp_path / "v1.npz"), **arrays)
    back = load_model(str(tmp_path / "v1.npz"))
    assert back.scaler is None
    x_test = rng.normal(size=(5, 3))
    assert predict_batch(back, x_test) == predict_batch(model, x_test)


@pytest.mark.parametrize("version", [1, 2])
def test_load_reads_older_formats_of_other_losses(tmp_path, rng, version):
    model = _fitted(rng, MeanAveragePrecision(3))
    path = str(tmp_path / "m.npz")
    save_model(model, path)
    np.savez(path, **{**_arrays(path), "format_version": np.array(version)})
    x_test = rng.normal(size=(5, 3))
    assert predict_batch(load_model(path), x_test) == predict_batch(model, x_test)


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize("m", [3, 5])
def test_load_refuses_pairwise_pd_models(tmp_path, rng, m, version):
    # a format-1/2 pd file holds m(m-1)/2 coefficient columns; at m = 3 that
    # is m, so the shape check alone would take the pairwise coefficients
    pairs = m * (m - 1) // 2
    model = _fitted(rng, PairwiseDisagreement(m))
    path = str(tmp_path / "m.npz")
    save_model(model, path)
    arrays = _arrays(path)
    arrays.update(format_version=np.array(version),
                  coefficients=rng.normal(size=(len(model.x_train), pairs)))
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match=f"format-{version} pd model .* format 3"):
        load_model(path)


def test_pd_save_load_reproduces_training_labels(tmp_path, rng):
    loss = PairwiseDisagreement(6)
    model = _fitted(rng, loss, n=60, scaler=True)
    x_test = rng.normal(size=(200, 3))
    want = predict_batch(model, x_test)
    path = str(tmp_path / "m.npz")
    save_model(model, path)
    back = load_model(path)
    assert int(_arrays(path)["format_version"]) == MODEL_FORMAT_VERSION == 3
    assert back.coefficients.shape == (60, loss.m)
    assert predict_batch(back, x_test) == want
    assert len(set(want)) > 1


def _nan_at(key):
    def corrupt(arrays):
        arrays[key] = arrays[key].astype(float)
        arrays[key][1, 0] = np.nan
    return corrupt


def _loss_json(cfg):
    return lambda a: a.update(loss_json=np.array(json.dumps(cfg)))


CORRUPTIONS = {
    "x_train_flat": lambda a: a.update(x_train=a["x_train"].ravel()),
    "x_train_rows": lambda a: a.update(x_train=a["x_train"][:-1]),
    "coefficients_r": lambda a: a.update(coefficients=a["coefficients"][:, :-1]),
    "coefficients_n": lambda a: a.update(coefficients=a["coefficients"][1:]),
    "y_train_m": lambda a: a.update(y_train=a["y_train"][:, :-1]),
    "y_train_n": lambda a: a.update(y_train=a["y_train"][1:]),
    "y_train_values": lambda a: a["y_train"].__setitem__((0, 0), 7),
    "x_train_nan": _nan_at("x_train"),
    "coefficients_inf": lambda a: a["coefficients"].__setitem__((2, 1), np.inf),
    "lam_nan": lambda a: a.update(lam=np.array(np.nan)),
    "bandwidth_missing": lambda a: a.update(bandwidth=np.array(-1.0)),
    "bandwidth_inf": lambda a: a.update(bandwidth=np.array(np.inf)),
    "scaler_d": lambda a: a.update(scaler_mean=a["scaler_mean"][:-1]),
    "missing_key": lambda a: a.pop("coefficients"),
    "version": lambda a: a.update(format_version=np.array(4)),
    "version_pair": lambda a: a.update(format_version=np.array([3, 3])),
    "bandwidth_pair": lambda a: a.update(bandwidth=np.array([1.0, 1.0])),
    "truncated": lambda a: None,  # the file is cut to half its bytes below
    "loss_json_no_name": _loss_json({"m": 3}),
    "loss_json_no_m": _loss_json({"name": "hamming"}),
    "loss_json_unknown_name": _loss_json({"name": 5, "m": 3}),
    "loss_json_extra_parameter": _loss_json({"name": "hamming", "m": 3, "k": 2}),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_load_rejects_corrupt_model(name, tmp_path, rng):
    path = str(tmp_path / "m.npz")
    save_model(_fitted(rng, scaler=True), path)
    arrays = _arrays(path)
    CORRUPTIONS[name](arrays)
    np.savez(path, **arrays)
    if name == "truncated":
        with open(path, "rb") as f:
            data = f.read()
        with open(path, "wb") as f:
            f.write(data[:len(data) // 2])
    with pytest.raises(ValueError, match=re.escape(path)) as refusal:
        load_model(path)
    assert "loss_json" in str(refusal.value) or not name.startswith("loss_json")


def test_alpha_path_reads_no_decomposition(rng, monkeypatch):
    loss = Hamming(4)
    x = rng.normal(size=(300, 2))
    model = fit(loss, GAUSS, 1e-2, x, [random_observation(loss, rng) for _ in range(300)])
    x_test = rng.normal(size=(12, 2))
    alphas = alpha_weights(model, x_test)
    fast = predict_batch(model, x_test)
    f_rows, thetas = loss.output_table.rows, surrogate_values(model, x_test)
    outputs = list(loss.outputs())
    # the per-pair objective of the loss-trick estimator, one value call per (z, y_i)
    reference = np.array([[loss.value(z, y) for y in model.y_train] for z in outputs])

    def refuse(*args):
        raise AssertionError("the alpha path read F, U or the output table")

    monkeypatch.setattr(Hamming, "f_row", refuse)
    monkeypatch.setattr(Hamming, "u_row", refuse)
    monkeypatch.setattr(Hamming, "output_table", property(refuse))
    calls = []
    value = Hamming.value
    monkeypatch.setattr(Hamming, "value", lambda self, z, y: calls.append(1) or value(self, z, y))
    got = predict_batch(model, x_test[:6], path="alpha")
    first_batch = len(calls)
    got += predict_batch(model, x_test[6:], path="alpha")
    assert 0 < first_batch and len(calls) <= loss.n_outputs() * len(set(model.y_train))
    for label, alpha, theta, want in zip(got, alphas, thetas, fast):
        assert argmin_untied(reference, alpha)
        assert label == outputs[int(np.argmin(reference @ alpha))]
        if argmin_untied(f_rows, theta):
            assert label == want
