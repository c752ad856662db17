"""Quadratic-surrogate learning for discrete losses.

Fit one kernel ridge regression onto a loss-specific embedding of the
observations, then predict by minimizing the decomposed loss against the
regressed vector.  Ships the standard multilabel and ranking losses with
exact affine decompositions, fast decoders verified against brute force,
sharp-constant calculators, and low-noise calibration diagnostics.
"""

from .decode import decode, decode_batch, decode_bruteforce, greedy_arcset, qap_local_search
from .estimator import QSModel, empirical_risk, fit, load_model, predict, predict_batch, save_model
from .kernels import GramMatrix, KernelSpec, RidgeSolution, build_gram, median_heuristic, solve_ridge, weights_at
from .losses import (
    DiscreteLoss,
    SharpConstant,
    decomposition_check,
    loss_config,
    make_loss,
)
from .theory import (
    FiniteProblem,
    bayes_predictor,
    bayes_risk,
    calibration_H,
    calibration_H_p,
    comparison_check,
    gamma_p_norm,
    margin,
    margin_moment,
    surrogate_excess,
    tsybakov_check,
)

__version__ = "0.1.0"

__all__ = [
    "DiscreteLoss",
    "FiniteProblem",
    "GramMatrix",
    "KernelSpec",
    "QSModel",
    "RidgeSolution",
    "SharpConstant",
    "bayes_predictor",
    "bayes_risk",
    "build_gram",
    "calibration_H",
    "calibration_H_p",
    "comparison_check",
    "decode",
    "decode_batch",
    "decode_bruteforce",
    "decomposition_check",
    "empirical_risk",
    "fit",
    "gamma_p_norm",
    "greedy_arcset",
    "load_model",
    "loss_config",
    "make_loss",
    "margin",
    "margin_moment",
    "median_heuristic",
    "predict",
    "predict_batch",
    "qap_local_search",
    "save_model",
    "solve_ridge",
    "surrogate_excess",
    "tsybakov_check",
    "weights_at",
]
