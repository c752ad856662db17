"""Multilabel losses on subsets of {0..m-1}: 0-1, block 0-1, Hamming, Prec@k, F-score."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .base import (
    DiscreteLoss,
    Label,
    LabelSpace,
    LossConfigError,
    SharpConstant,
    subset_from_rank,
    subset_rank,
)


def topk_subset(scores: np.ndarray, k: int, m: int) -> Label:
    """k-subset maximizing the score sum; ties resolved to the canonical
    (lexicographically smallest) bit tuple, i.e. later indices win ties."""
    order = sorted(range(m), key=lambda j: (-scores[j], -j))
    chosen = set(order[:k])
    return tuple(1 if j in chosen else 0 for j in range(m))


class ZeroOne(DiscreteLoss):
    """Exact-match loss 1(z != y) over all 2^m subsets.

    The only decomposition is the canonical-basis one, so r = 2^m; the loss
    carries no structure and is kept mainly as the worst-case reference.
    """

    name = "zero_one"
    decoder = "O(2^m) argmax"

    def __init__(self, m: int):
        if m < 1:
            raise LossConfigError("zero_one: m must be >= 1")
        self.m = m
        self.output_space = self.observation_space = LabelSpace.grid(m)
        self.r = 2 ** m
        self.offset = 1.0
        self.f_norm = 1.0

    def value(self, z: Label, y: Label) -> float:
        return 0.0 if z == y else 1.0

    def f_row(self, z: Label) -> np.ndarray:
        row = np.zeros(self.r)
        row[subset_rank(z)] = -1.0
        return row

    def decode(self, theta: np.ndarray, budget) -> Label:
        return subset_from_rank(int(np.argmax(theta)), self.m)

    def u_row(self, y: Label) -> np.ndarray:
        row = np.zeros(self.r)
        row[subset_rank(y)] = 1.0
        return row

    def sharp(self) -> SharpConstant:
        return SharpConstant(self.r, 1.0, 1.0, 2.0 ** (self.m / 2.0))


class BlockZeroOne(DiscreteLoss):
    """0-1 loss at the resolution of a partition of the subset lattice.

    ``partition`` is a list of b blocks, each a list of subsets; together the
    blocks must cover {0,1}^m disjointly.  L(z, y) = 1(block(z) != block(y)).
    """

    name = "block_zero_one"
    decoder = "O(b) block argmax"

    def __init__(self, m: int, partition: Sequence[Sequence[Sequence[int]]]):
        if m < 1:
            raise LossConfigError("block_zero_one: m must be >= 1")
        self.m = m
        self.output_space = self.observation_space = LabelSpace.grid(m)
        blocks = [[tuple(int(b) for b in z) for z in block] for block in partition]
        if any(len(block) == 0 for block in blocks):
            raise LossConfigError("block_zero_one: empty block in partition")
        seen: dict[Label, int] = {}
        for j, block in enumerate(blocks):
            for z in block:
                if z not in self.output_space:
                    raise LossConfigError(f"block_zero_one: bad subset {z!r}")
                if z in seen:
                    raise LossConfigError(f"block_zero_one: subset {z!r} in two blocks")
                seen[z] = j
        if len(seen) != 2 ** m:
            raise LossConfigError(
                f"block_zero_one: partition covers {len(seen)} of {2 ** m} subsets"
            )
        self.partition = blocks
        self._block_of = seen
        self._block_min = [min(block) for block in blocks]  # canonical representative
        self.b = len(blocks)
        self.r = self.b
        self.offset = 1.0
        self.f_norm = 1.0

    def value(self, z: Label, y: Label) -> float:
        return 0.0 if self._block_of[z] == self._block_of[y] else 1.0

    def f_row(self, z: Label) -> np.ndarray:
        row = np.zeros(self.r)
        row[self._block_of[z]] = -1.0
        return row

    def decode(self, theta: np.ndarray, budget) -> Label:
        best = float(np.max(theta))
        return min(self._block_min[j] for j in range(self.b) if theta[j] == best)

    def u_row(self, y: Label) -> np.ndarray:
        row = np.zeros(self.r)
        row[self._block_of[y]] = 1.0
        return row

    def sharp(self) -> SharpConstant:
        return SharpConstant(self.r, 1.0, 1.0, math.sqrt(self.b))


class Hamming(DiscreteLoss):
    """Average per-class disagreement, decomposed through sign coordinates.

    With s_j(y) = 2[y]_j - 1 the loss is 1/2 - (1/2m) sum_j s_j(z) s_j(y),
    giving F_z = -s(z)/(2m), U_y = s(y), c = 1/2 and r = m.  Inference is
    coordinate-wise thresholding, so the constant A = 1/2 is label-free.
    """

    name = "hamming"
    decoder = "O(m) coordinate signs"

    def __init__(self, m: int):
        if m < 1:
            raise LossConfigError("hamming: m must be >= 1")
        self.m = m
        self.output_space = self.observation_space = LabelSpace.grid(m)
        self.r = m
        self.offset = 0.5
        self.f_norm = 1.0 / (2.0 * math.sqrt(m))

    def value(self, z: Label, y: Label) -> float:
        return sum(a != b for a, b in zip(z, y)) / self.m

    def f_row(self, z: Label) -> np.ndarray:
        return -(2.0 * np.asarray(z, dtype=float) - 1.0) / (2.0 * self.m)

    def decode(self, theta: np.ndarray, budget) -> Label:
        # maximize sum_j s_j(z) theta_j coordinate-wise; theta_j == 0 keeps bit 0
        return tuple(1 if t > 0.0 else 0 for t in theta)

    def u_row(self, y: Label) -> np.ndarray:
        return 2.0 * np.asarray(y, dtype=float) - 1.0

    def sharp(self) -> SharpConstant:
        return SharpConstant(self.r, self.f_norm, 1.0, 0.5)


class PrecAtK(DiscreteLoss):
    """Precision at k: L(z, y) = 1 - |z & y| / k over k-subsets z.

    F_z = -z/k, U_y = y, c = 1; inference is a top-k selection.
    """

    name = "prec_at_k"
    decoder = "O(m log k) top-k"

    def __init__(self, m: int, k: int):
        if not 1 <= k <= m:
            raise LossConfigError(f"prec_at_k: need 1 <= k <= m, got k={k}, m={m}")
        self.m = m
        self.k = k
        self.output_space = LabelSpace.ksubsets(m, k)
        self.observation_space = LabelSpace.grid(m)
        self.r = m
        self.offset = 1.0
        self.f_norm = 1.0 / math.sqrt(k)

    def value(self, z: Label, y: Label) -> float:
        return 1.0 - sum(a & b for a, b in zip(z, y)) / self.k

    def f_row(self, z: Label) -> np.ndarray:
        return -np.asarray(z, dtype=float) / self.k

    def decode(self, theta: np.ndarray, budget) -> Label:
        return topk_subset(theta, self.k, self.m)

    def u_row(self, y: Label) -> np.ndarray:
        return np.asarray(y, dtype=float)

    def sharp(self) -> SharpConstant:
        return SharpConstant(self.r, self.f_norm, 1.0, math.sqrt(self.m / self.k))


class FScore(DiscreteLoss):
    """F1 loss 1 - 2|z & y| / (|z| + |y|) with the empty-set convention.

    For y = 0 the score is 1(z = 0), carried by a dedicated r-th coordinate,
    so r = m^2 + 1.  Two exact decompositions are implemented and selected by
    ``side``:

    - side="p": coordinates index (item j, observed cardinality); decoding
      needs an O(m^3) conversion before the per-cardinality maximizations.
    - side="a": coordinates index (item j, predicted cardinality); decoding
      is O(m^2) directly.

    Both sides place a factor 2 on the U rows so the identity
    F_z . U_y + c = L(z, y) is exact.  sup ||F_z||_2 is 1 for the p-side
    (attained at z = 0) and sqrt(m) for the a-side.
    """

    name = "fscore"
    decoder = "O(m^2) after O(m^3) side conversion"

    def __init__(self, m: int, side: str = "p"):
        if m < 1:
            raise LossConfigError("fscore: m must be >= 1")
        if side not in ("p", "a"):
            raise LossConfigError(f"fscore: side must be 'p' or 'a', got {side!r}")
        self.m = m
        self.side = side
        self.output_space = self.observation_space = LabelSpace.grid(m)
        self.r = m * m + 1
        self.offset = 1.0
        self.f_norm = 1.0 if side == "p" else math.sqrt(m)

    def value(self, z: Label, y: Label) -> float:
        sy = sum(y)
        if sy == 0:
            return 0.0 if sum(z) == 0 else 1.0
        sz = sum(z)
        inter = sum(a & b for a, b in zip(z, y))
        return 1.0 - 2.0 * inter / (sz + sy)

    # coordinate (j, ell) lives at index (ell - 1) * m + j, ell in 1..m
    def f_row(self, z: Label) -> np.ndarray:
        m = self.m
        row = np.zeros(self.r)
        sz = sum(z)
        if sz == 0:
            row[m * m] = -1.0
            return row
        if self.side == "p":
            for ell in range(1, m + 1):
                base = (ell - 1) * m
                for j in range(m):
                    if z[j]:
                        row[base + j] = -1.0 / (sz + ell)
        else:
            base = (sz - 1) * m
            for j in range(m):
                if z[j]:
                    row[base + j] = -1.0
        return row

    def decode(self, theta: np.ndarray, budget) -> Label:
        m = self.m
        grid = theta[: m * m].reshape(m, m)  # [ell-1, j]
        if self.side == "p":
            pos = np.arange(1, m + 1, dtype=float)
            conv = 1.0 / (pos[:, None] + pos[None, :])  # conv[l-1, k-1] = 1/(l+k)
            per_card = grid.T @ conv  # per_card[j, k-1]: score of item j at card k
        else:
            per_card = grid.T
        best_z = (0,) * m
        best_score = float(theta[m * m])  # z = 0 scores the empty-set coordinate
        for k in range(1, m + 1):
            col = per_card[:, k - 1]
            z = topk_subset(col, k, m)
            score = float(sum(col[j] for j in range(m) if z[j]))
            if score > best_score or (score == best_score and z < best_z):
                best_score, best_z = score, z
        return best_z

    def u_row(self, y: Label) -> np.ndarray:
        m = self.m
        row = np.zeros(self.r)
        sy = sum(y)
        if sy == 0:
            row[m * m] = 1.0
            return row
        if self.side == "p":
            base = (sy - 1) * m
            for j in range(m):
                if y[j]:
                    row[base + j] = 2.0
        else:
            for ell in range(1, m + 1):
                base = (ell - 1) * m
                for j in range(m):
                    if y[j]:
                        row[base + j] = 2.0 / (sy + ell)
        return row

    def sharp(self) -> SharpConstant:
        m = self.m
        a1 = math.sqrt(m * m + 1)           # p-side bound chain ||F||<=1, U_max<=1
        a2 = math.sqrt(m * (m * m + 1))     # a-side, exact
        return SharpConstant(
            self.r,
            1.0,
            1.0,
            min(a1, a2),
            is_bound=True,
            note=(
                "reported A = min over both decompositions; exact enumerated "
                f"values are (||F||,U_max) = (1, 2) p-side and (sqrt(m), 1) "
                f"a-side, giving exact A2 = {a2:.6g}"
            ),
        )
