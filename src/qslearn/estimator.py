"""The surrogate pipeline: ridge-fit the embedded observations, decode to labels.

Two equivalent prediction paths are kept:

- fast: theta = C^T K_x followed by the per-loss decoder (needs F/U);
- alpha: alpha(x) = (K + n lambda I)^{-1} K_x followed by the brute-force
  argmin of sum_i alpha_i L(z, y_i), which touches only the raw evaluator.

They compute the same minimizer (the fit is linear in the embeddings), so
the alpha path doubles as an oracle for the fast one and works even when no
decomposition is available.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import Standardizer
from .decode import decode_batch, decode_bruteforce
from .kernels import (
    KernelSpec,
    RidgeSolution,
    build_gram,
    cross_kernel,
    ridge_factor,
    solve_ridge,
    weights_at,
)
from .losses import DiscreteLoss, InvalidLabelError, as_label, loss_config, make_loss
from .losses.base import Label

MODEL_FORMAT_VERSION = 2  # 2 adds the optional training scaler; 1 still loads


@dataclass
class QSModel:
    loss: DiscreteLoss
    kernel: KernelSpec
    lam: float
    x_train: np.ndarray
    y_train: list
    ridge: RidgeSolution
    scaler: Standardizer | None = None  # maps raw features to x_train's scale

    @property
    def coefficients(self) -> np.ndarray:
        return self.ridge.coefficients


def _features(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("X has non-finite entries")
    return x


def _labels(loss: DiscreteLoss, y) -> list:
    """y as canonical labels, each checked against the loss's observations."""
    labels = []
    for i, yi in enumerate(y):
        yi = as_label(yi)
        try:
            loss.check_observation(yi)
        except InvalidLabelError as exc:
            raise InvalidLabelError(f"observation {i}: {exc}") from exc
        labels.append(yi)
    return labels


def fit_path(losses, kernel: KernelSpec, grid, x, y):
    """Fit every loss at every lambda of ``grid`` on one Gram matrix.

    Yields ``(lam, models)`` in grid order, one model per loss.  The losses'
    embeddings are stacked column-wise, so each lambda costs one Cholesky
    factorization of K + lambda n I and one solve; each model's coefficients
    are its column slice of C, and all of them share that factor and carry
    the Gram's kernel spec, with the bandwidth the Gram chose if any.
    """
    x = _features(x)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("X must be a nonempty n x d array")
    y = list(y)
    labels = [_labels(loss, y) for loss in losses]
    if any(len(ys) != x.shape[0] for ys in labels):
        raise ValueError("X and Y must have equal length")
    edges = np.cumsum([0] + [loss.r for loss in losses])
    psi = np.hstack([[loss.u_row(yi) for yi in ys] for loss, ys in zip(losses, labels)])
    gram = build_gram(kernel, x)
    for lam in grid:
        ridge = solve_ridge(gram, psi, lam)
        yield lam, [
            QSModel(loss, gram.spec, lam, x, ys,
                    RidgeSolution(ridge.coefficients[:, a:b], lam, ridge.factor))
            for loss, ys, a, b in zip(losses, labels, edges[:-1], edges[1:])
        ]


def fit(loss: DiscreteLoss, kernel: KernelSpec, lam: float, x, y) -> QSModel:
    """Train the surrogate regressor on (x_i, U_{y_i}) pairs.

    Solves (K + lambda n I) C = Psi once via a shared Cholesky factor; C has
    one column per decomposition coordinate.
    """
    _, (model,) = next(fit_path([loss], kernel, [lam], x, y))
    return model


def surrogate_values(model: QSModel, x) -> np.ndarray:
    """g(x) = C^T K_x for one point or a batch; rows are R^r predictions."""
    k_x = cross_kernel(model.kernel, x, model.x_train)
    return k_x @ model.coefficients


def _factored(model: QSModel) -> RidgeSolution:
    """The model's ridge solution with its Cholesky factor, which is built
    from the training inputs on first use and kept on the model."""
    if model.ridge.factor is None:
        factor = ridge_factor(build_gram(model.kernel, model.x_train), model.lam)
        model.ridge = RidgeSolution(model.coefficients, model.lam, factor)
    return model.ridge


def alpha_weights(model: QSModel, x) -> np.ndarray:
    """alpha(x) rows for one point or a batch."""
    k_x = cross_kernel(model.kernel, x, model.x_train)
    return weights_at(_factored(model), k_x)


def predict(model: QSModel, x, path: str = "fast") -> Label:
    """Predict a single label; ``path`` selects fast (F/U) or alpha inference."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    out = predict_batch(model, np.atleast_2d(x), path=path)
    return out[0] if single else out


def predict_batch(model: QSModel, x, path: str = "fast") -> list:
    k_x = cross_kernel(model.kernel, _features(x), model.x_train)
    return predict_models([model], k_x, path)[0]


def predict_models(models, k_x: np.ndarray, path: str = "fast") -> list:
    """Decode the rows of a precomputed cross-kernel k(x, x_train), one
    list of labels per model.

    The models must be fitted on the same inputs with the same kernel, so
    that callers who score several of them compute the cross-kernel once.
    On the alpha path the weights alpha(x) do not depend on the loss, so
    models that share a lambda share one solve.  Surrogate values that
    overflow to inf or NaN raise ValueError.
    """
    if path == "fast":
        out = []
        for model in models:
            with np.errstate(over="ignore", invalid="ignore"):  # refused just below
                thetas = k_x @ model.coefficients
            if not np.isfinite(thetas).all():
                raise ValueError("surrogate values are not finite; the inputs overflow the kernel")
            out.append(decode_batch(model.loss, thetas))
        return out
    if path == "alpha":
        alphas = {}
        for model in models:
            if model.lam not in alphas:
                alphas[model.lam] = weights_at(_factored(model), k_x)
        return [decode_bruteforce(model.loss, alphas[model.lam], model.y_train)
                for model in models]
    raise ValueError(f"unknown prediction path {path!r}")


def empirical_risk(predictions, loss: DiscreteLoss, y_true) -> float:
    """Mean loss of a list of predicted labels against observations."""
    y_true = [as_label(yi) for yi in y_true]
    if len(predictions) != len(y_true) or not y_true:
        raise ValueError("need equally many (and at least one) predictions and labels")
    return float(
        np.mean([loss.value(as_label(z), yi) for z, yi in zip(predictions, y_true)])
    )


def select_lambda(
    losses, kernel: KernelSpec, grid, x_tr, y_tr, x_val, y_val, path: str = "fast"
) -> list:
    """Per loss, the (validation risk, model) of least validation risk.

    All losses and lambdas share one Gram matrix and one validation
    cross-kernel, and each lambda one factorization (see ``fit_path``) and,
    on the alpha path, one solve for alpha.  Ties go to the earlier lambda.
    On the fast path the models kept as best drop their factor, so only the
    current lambda's factor is alive; on the alpha path they keep it for
    test-time prediction, one shared factor per distinct selected lambda.
    """
    best = [(np.inf, None)] * len(losses)
    k_val = None
    for lam, models in fit_path(losses, kernel, grid, x_tr, y_tr):
        if k_val is None:
            k_val = cross_kernel(models[0].kernel, x_val, x_tr)
        preds = predict_models(models, k_val, path=path)
        for j, (model, pred) in enumerate(zip(models, preds)):
            risk = empirical_risk(pred, model.loss, y_val)
            if risk < best[j][0]:
                if path != "alpha":
                    model.ridge = RidgeSolution(model.coefficients, lam)
                best[j] = (risk, model)
    return best


def save_model(model: QSModel, path: str) -> None:
    """Versioned .npz dump: loss config (JSON), kernel spec, lambda, X, C, Y,
    and the training scaler's mean and scale when the model has one."""
    scaler = {}
    if model.scaler is not None:
        scaler = {"scaler_mean": model.scaler.mean, "scaler_scale": model.scaler.scale}
    np.savez(
        path,
        format_version=MODEL_FORMAT_VERSION,
        loss_json=json.dumps(loss_config(model.loss)),
        kernel_kind=model.kernel.kind,
        bandwidth=-1.0 if model.kernel.bandwidth is None else model.kernel.bandwidth,
        lam=model.lam,
        x_train=model.x_train,
        coefficients=model.coefficients,
        y_train=np.array([list(yi) for yi in model.y_train], dtype=np.int64),
        **scaler,
    )


def load_model(path: str) -> QSModel:
    """Rebuild a model from ``save_model`` output (format 1 or 2).

    Nothing is refitted: the stored coefficients are used as they are, after
    checking that the arrays agree in shape with each other and with the
    loss and are finite.  The Cholesky factor, which only the alpha path
    needs, is built on its first use.
    """
    with np.load(path, allow_pickle=False) as payload:
        try:
            version = int(payload["format_version"])
            if version not in (1, MODEL_FORMAT_VERSION):
                raise ValueError(f"unsupported model format version {version}")
            cfg = json.loads(str(payload["loss_json"]))
            loss = make_loss(cfg.pop("name"), cfg.pop("m"), **cfg)
            kind, bw = str(payload["kernel_kind"]), float(payload["bandwidth"])
            lam = float(payload["lam"])
            x_train = np.asarray(payload["x_train"], dtype=float)
            coef = np.asarray(payload["coefficients"], dtype=float)
            y_arr = np.asarray(payload["y_train"])
            scaler = None
            if "scaler_mean" in payload.files:
                scaler = Standardizer(np.asarray(payload["scaler_mean"], dtype=float),
                                      np.asarray(payload["scaler_scale"], dtype=float))
        except KeyError as exc:
            raise ValueError(f"{path}: model file lacks {exc}") from exc

    def require(ok, message: str) -> None:
        if not ok:
            raise ValueError(f"{path}: {message}")

    require(x_train.ndim == 2 and x_train.shape[0] > 0,
            f"x_train has shape {x_train.shape}, expected a nonempty n x d array")
    n, d = x_train.shape
    require(coef.shape == (n, loss.r),
            f"coefficients have shape {coef.shape}, expected {(n, loss.r)}")
    require(y_arr.shape == (n, loss.m), f"y_train has shape {y_arr.shape}, expected {(n, loss.m)}")
    require(np.all(np.isfinite(x_train)) and np.all(np.isfinite(coef)),
            "x_train or coefficients have non-finite entries")
    require(np.isfinite(lam) and lam > 0 and np.isfinite(bw) and (kind == "linear" or bw > 0),
            f"lambda {lam} and bandwidth {bw} must be finite, lambda positive, bandwidth set if gaussian")
    kernel = KernelSpec(kind, None if bw < 0 else bw)
    if scaler is not None:
        require(scaler.mean.shape == scaler.scale.shape == (d,)
                and np.all(np.isfinite(scaler.mean)) and np.all(np.isfinite(scaler.scale)),
                f"scaler must hold {d} finite means and scales")
    y_train = [tuple(row) for row in y_arr.tolist()]
    for y in set(y_train):
        loss.check_observation(y)
    return QSModel(loss, kernel, lam, x_train, y_train, RidgeSolution(coef, lam), scaler)
