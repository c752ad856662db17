"""The surrogate pipeline: ridge-fit the embedded observations, decode to labels.

Two equivalent prediction paths are kept:

- fast: theta = C^T K_x followed by the per-loss decoder (needs F/U);
- alpha: alpha(x) = (K + n lambda I)^{-1} K_x followed by the brute-force
  argmin of sum_i alpha_i L(z, y_i), which touches only the raw evaluator.

They compute the same minimizer (the fit is linear in the embeddings), so
the alpha path doubles as an oracle for the fast one; every fit embeds by
``u_row``, but prediction on the alpha path reads only ``loss.values``.

The argmin reads alpha(x) only summed per distinct training label, and that
sum is linear in K_x: it is K_x^T S, where S = (K + n lambda I)^{-1} E and E
is the n x |distinct| one-hot matrix of the training labels.  The alpha path
solves for S once per model, 2 n^2 |distinct| flops, after which a row
costs one product of 2 n |distinct| flops in place of a 2 n^2 solve against
the factor.  |distinct| is at most n, and at most ``TABLE_CELLS`` / |Z|, as
the loss matrix refuses larger label sets before S is solved for.

A fitted ``QSModel`` is one flat record: what ``save_model`` writes, and the
alpha path's two caches, the training labels' index (``fit`` and
``load_model`` set it as they check them) and S.  The Cholesky factor of
K + n lambda I lives only in ``_ridge_path``'s lambda loop, which solves
for S with it on the alpha path of ``select_lambda``; a model without S
builds the factor from its training inputs on its first alpha call, solves
for S with it and lets it go.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .data import Standardizer
from .decode import decode_bruteforce
from .kernels import (GEMM_MIN_ROWS, GramMatrix, KernelSpec, build_gram, cross_kernel,
                      require_finite, ridge_factor, solve_ridge, weights_at)
from .losses import DiscreteLoss, LossConfigError, loss_config, make_loss
from .losses.base import BLOCK_CELLS, Label

# 2 added the optional training scaler; 3 gave pd its m rank coordinates in
# place of m(m-1)/2 pairwise ones.  Formats 1 and 2 still load, but for pd.
MODEL_FORMAT_VERSION = 3


@dataclass
class QSModel:
    """A fitted surrogate: coefficients C solving (K + lambda n I) C = Psi.

    ``label_weights`` is the alpha path's S = (K + lambda n I)^{-1} E (see
    the module docstring), its columns in the order of ``y_index``: n
    |distinct| floats, solved for once.  ``y_index`` is
    ``LabelSpace.distinct`` of ``y_train``, or ``None`` until first used."""

    loss: DiscreteLoss
    kernel: KernelSpec
    lam: float
    x_train: np.ndarray
    y_train: list
    coefficients: np.ndarray  # n x r
    scaler: Standardizer | None = None  # maps raw features to x_train's scale
    y_index: tuple | None = None  # (distinct labels, each row's position among them)
    label_weights: np.ndarray | None = None  # S, n x |distinct|


def _features(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("X has non-finite entries")
    return x


def _checked(x, y) -> tuple[np.ndarray, list]:
    x = _features(x)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("X must be a nonempty n x d array")
    y = list(y)
    if len(y) != x.shape[0]:
        raise ValueError("X and Y must have equal length")
    return x, y


def _embedded(losses, y) -> tuple[list, np.ndarray]:
    """Each loss's ``distinct`` map of the observations y, and Psi, their
    embeddings with the losses' columns side by side."""
    labels = [loss.observation_space.distinct(y, "observation") for loss in losses]
    psi = np.hstack([np.array([loss.u_row(u) for u in ys])[at]
                     for loss, (ys, at) in zip(losses, labels)])
    return labels, psi


def _ridge_path(losses, gram, grid, x, labels, psi, spend: bool, path: str = "fast"):
    """Fit every loss at every lambda of ``grid`` on one Gram matrix.

    Yields ``(lam, models)`` in grid order, one model per loss.  The losses'
    embeddings are stacked column-wise, so each lambda costs one Cholesky
    factorization of K + lambda n I and one solve; each model's coefficients
    are its column slice of C, and all of them carry the Gram's kernel spec,
    with the bandwidth the Gram chose if any.  On the alpha path the models
    get their S from the factor.  The factor is then freed, before the yield,
    so no two are alive at once.  Every lambda factors a copy of K; with
    ``spend`` the last factors K in place, as no later lambda needs it.
    """
    grid = list(grid)
    edges = np.cumsum([0] + [loss.r for loss in losses])
    y_train = [[ys[i] for i in at.tolist()] for ys, at in labels]
    for j, lam in enumerate(grid):
        coef, factor = solve_ridge(gram, psi, lam, overwrite=spend and j == len(grid) - 1)
        models = [QSModel(loss, gram.spec, lam, x, ys, coef[:, a:b], y_index=index)
                  for loss, ys, index, a, b in zip(losses, y_train, labels, edges[:-1], edges[1:])]
        if path == "alpha":
            _solve_label_weights(models, factor)
        del factor
        yield lam, models


def fit(loss: DiscreteLoss, kernel: KernelSpec, lam: float, x, y) -> QSModel:
    """Train the surrogate regressor on (x_i, U_{y_i}) pairs: one Cholesky
    solve of (K + lambda n I) C = Psi, with C's columns the decomposition
    coordinates, on K factored in place (see ``_ridge_path``)."""
    x, y = _checked(x, y)
    labels, psi = _embedded([loss], y)
    gram = build_gram(kernel, x)
    _, (model,) = next(_ridge_path([loss], gram, [lam], x, labels, psi, spend=True))
    return model


def surrogate_values(model: QSModel, x) -> np.ndarray:
    """g(x) = C^T K_x for one point or a batch; rows are R^r predictions."""
    k_x = cross_kernel(model.kernel, x, model.x_train)
    return k_x @ model.coefficients


def _solve_label_weights(models, factor: tuple | None = None) -> None:
    """Give each model that lacks it its S (see ``QSModel``): that of an
    earlier model with the same lambda and label index, or one ``weights_at``
    solve against E^T with ``factor``, the models' factor of K + lambda n I,
    if given, or else one built in place from the training inputs and let go.
    The labels' loss matrix comes first: refused past ``TABLE_CELLS``, or kept for the decode."""
    for j, model in enumerate(models):
        if model.y_index is None:
            model.y_index = model.loss.observation_space.distinct(model.y_train, "observation")
        if model.label_weights is not None:
            continue
        labels, at = model.y_index
        model.loss.loss_matrix(labels)
        model.label_weights = next((m.label_weights for m in models[:j] if m.lam == model.lam
                                    and np.array_equal(m.y_index[1], at)), None)
        if model.label_weights is None:
            onehot_t = np.zeros((len(labels), len(at)))
            onehot_t[at, np.arange(len(at))] = 1.0
            model.label_weights = weights_at(factor or ridge_factor(
                build_gram(model.kernel, model.x_train), model.lam, overwrite=True), onehot_t).T


def alpha_weights(model: QSModel, x) -> np.ndarray:
    """alpha(x) rows for one point or a batch, from a factor built again."""
    factor = ridge_factor(build_gram(model.kernel, model.x_train), model.lam, overwrite=True)
    return weights_at(factor, cross_kernel(model.kernel, x, model.x_train))


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
    On the alpha path each row's weights summed per distinct training label
    are its row of k_x S, for ``decode_bruteforce``; S does not depend on
    the loss, so models that share a lambda and training labels share one S
    (see ``QSModel``).  Surrogate values or a cross-kernel that overflow to
    inf or NaN raise ValueError.
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
        require_finite(k_x, "the cross-kernel is not finite; the inputs overflow the kernel")
        _solve_label_weights(models)
        return [decode_bruteforce(model.loss, k_x @ model.label_weights, model.y_index[0])
                for model in models]
    raise ValueError(f"unknown prediction path {path!r}")


def empirical_risk(predictions, loss: DiscreteLoss, y_true) -> float:
    """Mean loss of predicted labels against observations, by one ``loss.values``
    call per distinct observation, over the distinct predictions it is paired with."""
    return _mean_loss(predictions, loss, *loss.observation_space.distinct(y_true, "observation"))


def _mean_loss(predictions, loss: DiscreteLoss, ys: list, y_at: np.ndarray) -> float:
    """``empirical_risk`` against observations that ``distinct`` mapped to ``(ys, y_at)``."""
    if len(predictions) != len(y_at) or len(y_at) == 0:
        raise ValueError("need equally many (and at least one) predictions and labels")
    zs, z_at = loss.output_space.distinct(predictions, "prediction")
    # the distinct (y, z) pairs, grouped by y: one ``values`` call per observation
    pairs, inverse = np.unique(y_at * len(zs) + z_at, return_inverse=True)
    pair_y, pair_z = np.divmod(pairs, len(zs))
    bounds = np.flatnonzero(np.diff(pair_y, prepend=-1, append=len(ys))).tolist()
    zs = np.array(zs)
    values = np.concatenate([loss.values(zs[pair_z[a:b]], ys[pair_y[a]])
                             for a, b in zip(bounds, bounds[1:])])
    return float(np.mean(values[inverse]))


def _least_risk(fits, k_val: np.ndarray, observed: list, path: str) -> list:
    """Per loss, the (validation risk, model) of least risk over the
    ``(lam, models)`` of ``fits``, scored from the validation cross-kernel
    ``k_val`` against observations that ``distinct`` mapped to ``observed``.
    Ties go to the earlier lambda."""
    best = [(np.inf, None)] * len(observed)
    for _, models in fits:
        preds = predict_models(models, k_val, path=path)
        for j, (model, pred) in enumerate(zip(models, preds)):
            risk = _mean_loss(pred, model.loss, *observed[j])
            if risk < best[j][0]:
                best[j] = (risk, model)
    return best


def select_lambda(
    losses, kernel: KernelSpec, grid, x_tr, y_tr, x_val, y_val, path: str = "fast"
) -> list:
    """Per loss, the (validation risk, model) of least validation risk.

    All losses and lambdas share one Gram matrix and one validation
    cross-kernel, and each lambda one factorization (see ``_ridge_path``),
    freed before the next is made, and, on the alpha path, one solve for S,
    the label weights all its losses share (see ``QSModel``).  The
    validation labels are mapped once per loss.  Ties go to the earlier
    lambda.  On the alpha path the models kept as best hold their S, so
    test-time prediction solves nothing.
    """
    observed = [loss.observation_space.distinct(y_val, "observation") for loss in losses]
    x_tr, y_tr = _checked(x_tr, y_tr)
    labels, psi = _embedded(losses, y_tr)
    gram = build_gram(kernel, x_tr)
    k_val = cross_kernel(gram.spec, x_val, x_tr)
    fits = _ridge_path(losses, gram, grid, x_tr, labels, psi, spend=True, path=path)
    return _least_risk(fits, k_val, observed, path)


def select_and_refit(loss: DiscreteLoss, kernel: KernelSpec, grid, x, y, tr_idx, val_idx):
    """Select lambda on the rows ``tr_idx`` against the rows ``val_idx`` as
    ``select_lambda`` does, then refit on every row with the bandwidth the
    selection used; returns ``(validation risk, refit model)``.

    One kernel matrix serves both: the Gram of the rows ordered
    [tr_idx; val_idx], centred and, without a bandwidth, given its median
    by the training rows (``build_gram``'s ``lead``).  Each lambda factors a
    copy of its leading block, the validation rows are scored from the
    block below that, and the refit shifts and factors the whole matrix in
    place.  The refit's rows, labels and coefficients are put back in the
    order of x; like every model, it holds no factor, and its first alpha
    call builds one from x (see ``QSModel``).
    """
    x, y = _checked(x, y)
    order = np.concatenate([tr_idx, val_idx]).astype(int)
    n_tr = len(tr_idx)
    if not (n_tr and len(val_idx) and np.array_equal(np.sort(order), np.arange(len(y)))):
        raise ValueError("tr_idx and val_idx must split the rows into two nonempty parts")
    x_joint, y_joint = x[order], [y[i] for i in order.tolist()]
    labels, psi = _embedded([loss], y_joint[:n_tr])
    observed, psi_val = _embedded([loss], y_joint[n_tr:])
    gram = build_gram(kernel, x_joint, lead=n_tr)
    fits = _ridge_path([loss], GramMatrix(gram.entries[:n_tr, :n_tr], gram.spec), grid,
                       x_joint[:n_tr], labels, psi, spend=False)
    [(risk, best)] = _least_risk(fits, gram.entries[n_tr:, :n_tr], observed, "fast")
    coef, _ = solve_ridge(gram, np.vstack([psi, psi_val]), best.lam, overwrite=True)
    [(ys, at)] = observed
    rows = best.y_train + [ys[i] for i in at.tolist()]
    back = np.argsort(order)  # each row's place in the joint order
    return risk, QSModel(loss, gram.spec, best.lam, x, [rows[p] for p in back.tolist()],
                         coef[back])


def save_model(model: QSModel, path: str) -> None:
    """Versioned .npz dump: loss config (JSON), kernel spec, lambda, X, C, Y,
    and the training scaler's mean and scale when the model has one."""
    scaler = {}
    if model.scaler is not None:
        scaler = {"scaler_mean": model.scaler.mean, "scaler_scale": model.scaler.scale}
    with open(path, "wb") as out:  # a file object, so that savez adds no .npz to the path
        np.savez(
            out,
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
    loss and are finite.  The label weights S, which only the alpha path
    needs, are solved for on its first use.
    """
    try:
        # the file is opened here, so that it is closed when np.load finds no zip in it
        with open(path, "rb") as file, np.load(file, allow_pickle=False) as payload:
            version = int(payload["format_version"])
            if version not in (1, 2, MODEL_FORMAT_VERSION):
                raise ValueError(f"{path}: unsupported model format version {version}")
            try:
                config = json.loads(str(payload["loss_json"]))
                if isinstance(config, dict) and config.get("name") == "fscore":
                    side = config.pop("side", "p")  # older files name the decomposition
                    if side != "p":
                        raise LossConfigError(f"fscore side {side!r} holds coefficients in the "
                                              "transposed coordinates F = -a, U = 2b, which "
                                              "fscore no longer fits; refit the model")
                loss = make_loss(**config)
            except (ValueError, TypeError) as exc:  # bad JSON, no object, no name or m, refused
                raise LossConfigError(f"{path}: bad loss_json: {exc}") from exc
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
    except (zipfile.BadZipFile, TypeError) as exc:  # a truncated file, an array for a scalar
        raise ValueError(f"{path}: not a readable model file: {exc}") from exc

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
