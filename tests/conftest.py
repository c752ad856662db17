"""Shared helpers: loss inventories and random instance builders."""

from __future__ import annotations

import math

import numpy as np
import pytest

from qslearn.decode import argmin_untied
from qslearn.losses import (
    BlockZeroOne,
    DiscreteLoss,
    ExpectedRankUtility,
    FScore,
    Hamming,
    LabelSpace,
    MeanAveragePrecision,
    NDCGType,
    PairwiseDisagreement,
    PrecAtK,
    ZeroOne,
)


def popcount_partition(m: int) -> list:
    """Canonical nontrivial partition of {0,1}^m: blocks by popcount."""
    blocks: dict[int, list] = {}
    for z in LabelSpace.grid(m):
        blocks.setdefault(sum(z), []).append(z)
    return [blocks[s] for s in sorted(blocks)]


# the parameters a loss cannot do without, at m = 3
REQUIRED = {"prec_at_k": {"k": 2}, "block_zero_one": {"partition": popcount_partition(3)}}


def random_partition(m: int, b: int, rng: np.random.Generator) -> list:
    """Random b-block partition covering all subsets (every block nonempty)."""
    zs = list(LabelSpace.grid(m))
    while True:
        assign = rng.integers(b, size=len(zs))
        if len(set(assign.tolist())) == b:
            break
    blocks = [[] for _ in range(b)]
    for z, j in zip(zs, assign):
        blocks[j].append(z)
    return blocks


class TransposedFScore(FScore):
    """F-score in the transposed coordinates of the paper, F_z = -a_z and
    U_y = 2 b_y, kept as a reference: with M[l, k] = 1/(l + k) its U is
    FScore's U times M, so its ridge coefficients are C M and F_z . theta
    is unchanged, the same estimator.  It decodes by scoring every output,
    the base class's default."""

    decode_batch = DiscreteLoss.decode_batch

    def __init__(self, m: int):
        super().__init__(m)
        self.f_norm = math.sqrt(m)

    def f_row(self, z) -> np.ndarray:
        return self._embed(z, False, -1.0, -1.0)

    def u_row(self, y) -> np.ndarray:
        return self._embed(y, True, 2.0, 1.0)


def small_losses(m_subset: int = 3, m_perm: int = 3) -> list:
    """One instance of every loss at enumeration-friendly sizes."""
    return [
        ZeroOne(m_subset),
        BlockZeroOne(m_subset, popcount_partition(m_subset)),
        Hamming(m_subset),
        PrecAtK(max(m_subset, 2), max(m_subset // 2, 1)),
        FScore(m_subset),
        TransposedFScore(m_subset),
        NDCGType(m_perm, R=2),
        ExpectedRankUtility(m_perm, R=2),
        PairwiseDisagreement(max(m_perm, 2)),
        MeanAveragePrecision(m_perm),
    ]


def loss_ids(losses) -> list:
    out = []
    for loss in losses:
        tag = f"{loss.name}-m{loss.m}"
        if isinstance(loss, FScore):  # p for FScore's coordinates, a for the transposed
            tag += "-a" if isinstance(loss, TransposedFScore) else "-p"
        out.append(tag)
    return out


def random_observation(loss: DiscreteLoss, rng: np.random.Generator):
    obs = getattr(loss, "_obs_cache", None)
    if obs is None:
        obs = list(loss.observations())
        loss._obs_cache = obs
    return obs[int(rng.integers(len(obs)))]


def random_instance(loss: DiscreteLoss, rng: np.random.Generator, n: int = 10):
    """Random weights and observations for a decoder/oracle comparison.

    Instances whose argmin is (near-)tied are redrawn: with exact ties the
    fast and brute-force paths agree only up to floating-point noise in the
    score computation, which the exact-comparison tie-break contract
    explicitly excludes.
    """
    f_rows = loss.output_table.rows
    for _ in range(100):
        weights = rng.normal(size=n)
        ys = [random_observation(loss, rng) for _ in range(n)]
        theta = np.sum([w * loss.u_row(y) for w, y in zip(weights, ys)], axis=0)
        if argmin_untied(f_rows, theta):
            return weights, ys, theta
    raise AssertionError("could not draw an untied instance")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
