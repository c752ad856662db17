"""Discrete losses with exact affine decompositions and sharp constants."""

from __future__ import annotations

from typing import Any

from .base import (  # noqa: F401
    DiscreteLoss,
    InvalidLabelError,
    Label,
    LabelSpace,
    LossConfigError,
    SharpConstant,
    SpaceTooLargeError,
    as_label,
    decomposition_check,
    enumerated_constants,
    ksubsets,
    permutations,
    relevance_grid,
    subset_from_rank,
    subset_rank,
    subsets,
)
from .multilabel import BlockZeroOne, FScore, Hamming, PrecAtK, ZeroOne  # noqa: F401
from .ranking import (  # noqa: F401
    MeanAveragePrecision,
    NDCGType,
    PairwiseDisagreement,
    pair_index,
)

LOSS_NAMES = (
    "zero_one",
    "block_zero_one",
    "hamming",
    "prec_at_k",
    "fscore",
    "ndcg",
    "eru",
    "pd",
    "map",
)


def make_loss(name: str, m: int, **params: Any) -> DiscreteLoss:
    """Construct a loss by name; raises LossConfigError on bad parameters."""
    key = name.lower().replace("-", "_").replace("@", "_at_")
    if key in ("zero_one", "0_1", "01"):
        return ZeroOne(m)
    if key in ("block_zero_one", "block01", "block_0_1"):
        if "partition" not in params:
            raise LossConfigError("block_zero_one requires a partition")
        return BlockZeroOne(m, params["partition"])
    if key == "hamming":
        return Hamming(m)
    if key in ("prec_at_k", "precision_at_k", "prec"):
        if "k" not in params:
            raise LossConfigError("prec_at_k requires k")
        return PrecAtK(m, int(params["k"]))
    if key in ("fscore", "f_score", "f1"):
        return FScore(m, side=params.get("side", "p"))
    if key == "ndcg":
        return NDCGType(
            m,
            int(params.get("R", params.get("top_relevance", 3))),
            gain=params.get("gain"),
            discount=params.get("discount"),
        )
    if key == "eru":
        return NDCGType.eru(
            m,
            int(params.get("R", params.get("top_relevance", 3))),
            neutral=params.get("neutral"),
        )
    if key == "pd":
        return PairwiseDisagreement(m)
    if key == "map":
        return MeanAveragePrecision(m)
    raise LossConfigError(f"unknown loss {name!r}; known: {', '.join(LOSS_NAMES)}")


def loss_config(loss: DiscreteLoss) -> dict[str, Any]:
    """JSON-serializable constructor arguments; inverse of make_loss."""
    cfg: dict[str, Any] = {"name": loss.name, "m": loss.m}
    if isinstance(loss, PrecAtK):
        cfg["k"] = loss.k
    elif isinstance(loss, BlockZeroOne):
        cfg["partition"] = [[list(z) for z in block] for block in loss.partition]
    elif isinstance(loss, FScore):
        cfg["side"] = loss.side
    elif isinstance(loss, NDCGType):
        cfg["name"] = "ndcg"  # gain/discount tables carry any preset
        cfg["R"] = loss.top_relevance
        cfg["gain"] = [float(g) for g in loss._gain]
        cfg["discount"] = [float(d) for d in loss.discount]
    return cfg
