"""Discrete losses with exact affine decompositions and sharp constants."""

from __future__ import annotations

import inspect
from typing import Any

from .base import (  # noqa: F401
    DiscreteLoss,
    InvalidLabelError,
    LabelSpace,
    LossConfigError,
    SharpConstant,
    SpaceTooLargeError,
    as_label,
    decomposition_check,
    enumerated_constants,
)
from .multilabel import BlockZeroOne, FScore, Hamming, PrecAtK, ZeroOne  # noqa: F401
from .ranking import (  # noqa: F401
    ExpectedRankUtility,
    MeanAveragePrecision,
    NDCGType,
    PairwiseDisagreement,
)

# name -> constructor, called as constructor(m, **params); adding a loss
# class means adding its line here
_LOSSES = {
    loss.name: loss
    for loss in (
        ZeroOne,
        BlockZeroOne,
        Hamming,
        PrecAtK,
        FScore,
        NDCGType,
        ExpectedRankUtility,
        PairwiseDisagreement,
        MeanAveragePrecision,
    )
}
LOSS_NAMES = tuple(_LOSSES)


def make_loss(name: str, m: int, **params: Any) -> DiscreteLoss:
    """Construct a loss by name.

    Raises LossConfigError for an unknown name and for a missing parameter
    or one the loss does not take, before the constructor runs; the
    constructor checks m and the values.
    """
    if not isinstance(name, str) or name not in _LOSSES:
        raise LossConfigError(f"unknown loss {name!r}; known: {', '.join(LOSS_NAMES)}")
    constructor = _LOSSES[name]
    signature = inspect.signature(constructor)
    try:
        signature.bind(m, **params)
    except TypeError as exc:
        takes = ", ".join(signature.parameters)
        raise LossConfigError(f"{name} takes ({takes}): {exc}") from None
    return constructor(m, **params)


def loss_config(loss: DiscreteLoss) -> dict[str, Any]:
    """JSON-serializable constructor arguments; inverse of make_loss."""
    return {"name": loss.name, "m": loss.m, **loss.config()}
