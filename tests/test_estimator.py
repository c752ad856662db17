"""Surrogate pipeline: fit, both prediction paths, risks, serialization."""

import numpy as np
import pytest

import qslearn.estimator as estimator
from qslearn.data import standardize
from qslearn.decode import argmin_untied, decode_bruteforce
from qslearn.estimator import (
    alpha_weights,
    empirical_risk,
    fit,
    fit_path,
    load_model,
    predict,
    predict_batch,
    save_model,
    surrogate_values,
)
from qslearn.kernels import GEMM_MIN_ROWS, KernelSpec, median_heuristic
from qslearn.losses import (ExpectedRankUtility, FScore, Hamming, InvalidLabelError, NDCGType,
                            PairwiseDisagreement, PrecAtK, ZeroOne)

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
    # a batch above GEMM_MIN_ROWS takes the product path of the cross-kernel,
    # each single row the per-pair path: labels agree wherever rounding
    # cannot decide the argmin
    x = rng.normal(size=(60, 3))
    model = fit(loss, KernelSpec("gaussian", median_heuristic(x)), 0.01, x,
                [random_observation(loss, rng) for _ in range(60)])
    x_new = rng.normal(size=(3 * GEMM_MIN_ROWS, 3))
    batch = predict_batch(model, x_new)
    untied = [argmin_untied(loss.output_table.f, t) for t in surrogate_values(model, x_new)]
    assert sum(untied) >= len(x_new) // 2
    for row, label, ok in zip(x_new, batch, untied):
        if ok:
            assert predict(model, row) == label


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


def test_serialization_round_trip(tmp_path, rng):
    for loss in (Hamming(3), PrecAtK(4, 2), NDCGType(3, R=2)):
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


def test_fit_path_slices_match_standalone_fit(rng):
    losses = [ZeroOne(3), Hamming(3), FScore(3)]
    x = rng.normal(size=(25, 4))
    ys = [random_observation(losses[0], rng) for _ in range(25)]
    grid = [1e-3, 1e-2, 0.3]
    d2 = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=-1)
    gram = np.exp(-d2 / (2.0 * GAUSS.bandwidth**2))
    seen = []
    for lam, models in fit_path(losses, GAUSS, grid, x, ys):
        seen.append(lam)
        assert len({id(m.ridge.factor) for m in models}) == 1
        for loss, model in zip(losses, models):
            ref = fit(loss, GAUSS, lam, x, ys).coefficients
            assert model.coefficients.shape == ref.shape == (25, loss.r)
            assert np.max(np.abs(model.coefficients - ref)) <= 1e-12 * np.max(np.abs(ref))
            # and an LU solve made apart from the estimator's code
            psi = np.array([loss.u_row(y) for y in ys])
            own = np.linalg.solve(gram + 25 * lam * np.eye(25), psi)
            assert np.max(np.abs(model.coefficients - own)) <= 1e-9 * np.max(np.abs(own))
    assert seen == grid


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
    with pytest.raises(ValueError, match="not finite"):
        predict_batch(model, np.vstack([x[:3], huge]))
    assert len(predict_batch(model, x[:3])) == 3


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
    assert calls == [] and restored.ridge.factor is None
    assert predict_batch(restored, x_test) == predict_batch(model, x_test)
    assert calls == []
    assert np.allclose(alpha_weights(restored, x_test), want_alpha, rtol=0, atol=1e-10)
    assert predict_batch(restored, x_test, path="alpha") == want_labels
    assert calls == [1]  # the factor is built once and kept


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


def _nan_at(key):
    def corrupt(arrays):
        arrays[key] = arrays[key].astype(float)
        arrays[key][1, 0] = np.nan
    return corrupt


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
    "version": lambda a: a.update(format_version=np.array(3)),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_load_rejects_corrupt_model(name, tmp_path, rng):
    path = str(tmp_path / "m.npz")
    save_model(_fitted(rng, scaler=True), path)
    arrays = _arrays(path)
    CORRUPTIONS[name](arrays)
    np.savez(path, **arrays)
    with pytest.raises(ValueError):
        load_model(path)


def test_alpha_path_reads_no_decomposition(rng, monkeypatch):
    loss = Hamming(4)
    x = rng.normal(size=(300, 2))
    model = fit(loss, GAUSS, 1e-2, x, [random_observation(loss, rng) for _ in range(300)])
    x_test = rng.normal(size=(12, 2))
    alphas = alpha_weights(model, x_test)
    fast = predict_batch(model, x_test)
    f_rows, thetas = loss.output_table.f, surrogate_values(model, x_test)
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
