"""The surrogate pipeline: ridge-fit the embedded observations, decode to labels.

Two equivalent prediction paths are kept:

- fast: theta = C^T K_x followed by the per-loss decoder (needs F/U);
- alpha: alpha(x) = (K + n lambda I)^{-1} K_x followed by the brute-force
  argmin of sum_i alpha_i L(z, y_i), which touches only the raw evaluator.

They compute the same minimizer (the fit is linear in the embeddings), so
the alpha path doubles as an oracle for the fast one and works even when no
decomposition is available.

A fitted ``QSModel`` is one flat record.  Its Cholesky factor, which only
the alpha path reads, is ``None`` on a loaded model and on a model kept by
``select_lambda`` on the fast path; the alpha path builds it on first use.
The training labels' index, which the alpha path reads too, is kept on the
model like the factor: ``fit`` and ``load_model`` set it as they check them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .data import Standardizer
from .decode import decode_bruteforce
from .kernels import (GEMM_MIN_ROWS, KernelSpec, build_gram, cross_kernel, ridge_factor,
                      solve_ridge, weights_at)
from .losses import DiscreteLoss, LossConfigError, loss_config, make_loss
from .losses.base import BLOCK_CELLS, Label

# 2 added the optional training scaler; 3 gave pd its m rank coordinates in
# place of m(m-1)/2 pairwise ones.  Formats 1 and 2 still load, but for pd.
MODEL_FORMAT_VERSION = 3


@dataclass
class QSModel:
    """A fitted surrogate: coefficients C solving (K + lambda n I) C = Psi, and
    ``factor``, the Cholesky factor of K + lambda n I that only the alpha path
    reads.  ``fit`` keeps the factor it solved with; ``factor`` is ``None`` on
    a loaded model and on one ``select_lambda`` keeps on the fast path, until
    the alpha path builds it from the training inputs.  ``y_index``, likewise,
    is ``LabelSpace.distinct`` of ``y_train``, or ``None`` until first used."""

    loss: DiscreteLoss
    kernel: KernelSpec
    lam: float
    x_train: np.ndarray
    y_train: list
    coefficients: np.ndarray  # n x r
    factor: tuple | None = None  # scipy cho_factor handle of K + lambda n I
    y_index: tuple | None = None  # (distinct labels, each row's position among them)
    scaler: Standardizer | None = None  # maps raw features to x_train's scale


def _features(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("X has non-finite entries")
    return x


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
    if len(y) != x.shape[0]:
        raise ValueError("X and Y must have equal length")
    labels = [loss.observation_space.distinct(y, "observation") for loss in losses]
    edges = np.cumsum([0] + [loss.r for loss in losses])
    psi = np.hstack([np.array([loss.u_row(u) for u in ys])[at]
                     for loss, (ys, at) in zip(losses, labels)])
    y_train = [[ys[i] for i in at.tolist()] for ys, at in labels]
    gram = build_gram(kernel, x)
    for lam in grid:
        coef, factor = solve_ridge(gram, psi, lam)
        yield lam, [
            QSModel(loss, gram.spec, lam, x, ys, coef[:, a:b], factor, index)
            for loss, ys, index, a, b in zip(losses, y_train, labels, edges[:-1], edges[1:])
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


def _factored(model: QSModel) -> tuple:
    """The model's Cholesky factor, built from the training inputs on first
    use and kept on the model."""
    if model.factor is None:
        model.factor = ridge_factor(build_gram(model.kernel, model.x_train), model.lam)
    return model.factor


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


def predict_batch(model: QSModel, x, path: str = "fast", scaler=None) -> list:
    """Labels for the rows of x (a 1-D x is one row), in equal row blocks
    whose cross-kernels hold at most ``BLOCK_CELLS`` cells, none of fewer
    than ``GEMM_MIN_ROWS`` rows unless the batch is; so no batch builds its
    whole rows x n_train kernel.  A scipy sparse x is densified, and a given
    ``scaler`` (a ``Standardizer``) applied, one row block at a time."""
    x = x if sp.issparse(x) else np.atleast_2d(np.asarray(x, dtype=float))
    cap = max(1, BLOCK_CELLS // len(model.x_train))
    blocks = max(1, min(-(-x.shape[0] // cap), x.shape[0] // GEMM_MIN_ROWS))
    out = []
    for at in np.array_split(np.arange(x.shape[0]), blocks):
        rows = x[at].toarray() if sp.issparse(x) else x[at]
        rows = _features(rows if scaler is None else scaler.apply(rows))
        out += predict_models([model], cross_kernel(model.kernel, rows, model.x_train), path)[0]
    return out


def predict_models(models, k_x: np.ndarray, path: str = "fast") -> list:
    """Decode the rows of a precomputed cross-kernel k(x, x_train), one
    list of labels per model.

    The models must be fitted on the same inputs with the same kernel, so
    that callers who score several of them compute the cross-kernel once.
    On the alpha path the weights alpha(x) do not depend on the loss, so
    models that share a lambda share one solve; each model adds up each row's
    weights per distinct training label for ``decode_bruteforce``.  Surrogate
    values or a cross-kernel that overflow to inf or NaN raise ValueError.
    """
    if path == "fast":
        out = []
        for model in models:
            with np.errstate(over="ignore", invalid="ignore"):  # refused just below
                thetas = k_x @ model.coefficients
            if not np.isfinite(thetas).all():
                raise ValueError("surrogate values are not finite; the inputs overflow the kernel")
            out.append(model.loss.decode_batch(thetas))
        return out
    if path == "alpha":
        alphas, out = {}, []
        for model in models:
            if model.lam not in alphas:
                alphas[model.lam] = weights_at(_factored(model), k_x)
            if model.y_index is None:
                model.y_index = model.loss.observation_space.distinct(model.y_train, "observation")
            labels, at = model.y_index
            totals = np.zeros((len(k_x), len(labels)))
            np.add.at(totals, (slice(None), at), alphas[model.lam])  # as decode_bruteforce adds
            out.append(decode_bruteforce(model.loss, totals, labels))
        return out
    raise ValueError(f"unknown prediction path {path!r}")


def empirical_risk(predictions, loss: DiscreteLoss, y_true) -> float:
    """Mean loss of predicted labels against observations, by one ``loss.value`` per distinct pair."""
    return _mean_loss(predictions, loss, *loss.observation_space.distinct(y_true, "observation"))


def _mean_loss(predictions, loss: DiscreteLoss, ys: list, y_at: np.ndarray) -> float:
    """``empirical_risk`` against observations that ``distinct`` mapped to ``(ys, y_at)``."""
    if len(predictions) != len(y_at) or len(y_at) == 0:
        raise ValueError("need equally many (and at least one) predictions and labels")
    zs, z_at = loss.output_space.distinct(predictions, "prediction")
    pairs, inverse = np.unique(z_at * len(ys) + y_at, return_inverse=True)
    values = np.array([loss.value(zs[p // len(ys)], ys[p % len(ys)]) for p in pairs.tolist()])
    return float(np.mean(values[inverse]))


def select_lambda(
    losses, kernel: KernelSpec, grid, x_tr, y_tr, x_val, y_val, path: str = "fast"
) -> list:
    """Per loss, the (validation risk, model) of least validation risk.

    All losses and lambdas share one Gram matrix and one validation
    cross-kernel, and each lambda one factorization (see ``fit_path``) and,
    on the alpha path, one solve for alpha.  The validation labels are
    mapped once per loss.  Ties go to the earlier lambda.
    On the fast path the models kept as best drop their factor, so only the
    current lambda's factor is alive; on the alpha path they keep it for
    test-time prediction, one shared factor per distinct selected lambda.
    """
    best = [(np.inf, None)] * len(losses)
    observed = [loss.observation_space.distinct(y_val, "observation") for loss in losses]
    k_val = None
    for lam, models in fit_path(losses, kernel, grid, x_tr, y_tr):
        if k_val is None:
            k_val = cross_kernel(models[0].kernel, x_val, x_tr)
        preds = predict_models(models, k_val, path=path)
        for j, (model, pred) in enumerate(zip(models, preds)):
            risk = _mean_loss(pred, model.loss, *observed[j])
            if risk < best[j][0]:
                if path != "alpha":
                    model.factor = None
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
    """Rebuild a model from ``save_model`` output (format 1, 2 or 3).

    Nothing is refitted: the stored coefficients are used as they are, after
    checking that the arrays agree in shape with each other and with the
    loss and are finite.  The Cholesky factor, which only the alpha path
    needs, is built on its first use.
    """
    with np.load(path, allow_pickle=False) as payload:
        try:
            version = int(payload["format_version"])
            if version not in (1, 2, MODEL_FORMAT_VERSION):
                raise ValueError(f"unsupported model format version {version}")
            cfg = json.loads(str(payload["loss_json"]))
            if not isinstance(cfg, dict):
                raise LossConfigError(f"{path}: loss_json must be a JSON object")
            loss = make_loss(cfg.pop("name"), cfg.pop("m"), **cfg)
            if version < 3 and loss.name == "pd":
                raise ValueError(f"{path}: a format-{version} pd model holds pairwise "
                                 "coefficients; format 3 embeds pd in m rank coordinates, "
                                 "so refit the model")
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
    ys, inverse = loss.observation_space.distinct(y_arr.tolist(), f"{path}: y_train row")
    y_train = [ys[i] for i in inverse.tolist()]
    return QSModel(loss, kernel, lam, x_train, y_train, coef, y_index=(ys, inverse), scaler=scaler)
