"""Multilabel losses on subsets of {0..m-1}: 0-1, block 0-1, Hamming, Prec@k, F-score."""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .base import (
    DiscreteLoss,
    InvalidLabelError,
    Label,
    LabelSpace,
    LossConfigError,
    SharpConstant,
    bit_probabilities,
    config_int,
    label_rows,
    subset_rank,
)


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """rows x m bools marking the k largest scores of each row, ties to the
    later index: the canonical (smallest) k-subset of largest score sum."""
    order = np.argsort(-scores[:, ::-1], axis=1, kind="stable")[:, :k]
    chosen = np.zeros(scores.shape, dtype=bool)
    np.put_along_axis(chosen, scores.shape[1] - 1 - order, True, axis=1)
    return chosen


def one_hot(r: int, at: int, value: float) -> np.ndarray:
    """A length-r row holding ``value`` at index ``at`` and zeros elsewhere."""
    row = np.zeros(r)
    row[at] = value
    return row


class ZeroOne(DiscreteLoss):
    """Exact-match loss 1(z != y) over all 2^m subsets.

    The only decomposition is the canonical-basis one, so r = 2^m; the loss
    carries no structure and is kept mainly as the worst-case reference.
    """

    name = "zero_one"
    decoder = "O(2^m) argmax"

    def __init__(self, m: int):
        self.m = m = self.checked_m(m)
        self.output_space = self.observation_space = LabelSpace.grid(m)
        self.r = 2 ** m
        self.offset = 1.0
        self.f_norm = 1.0

    def value(self, z: Label, y: Label) -> float:
        return 0.0 if z == y else 1.0

    def f_row(self, z: Label) -> np.ndarray:
        return one_hot(self.r, subset_rank(z), -1.0)

    def decode_batch(self, thetas: np.ndarray) -> list:
        rank = np.argmax(thetas, axis=1)  # the first maximum, canonical on ties
        return label_rows((rank[:, None] >> np.arange(self.m - 1, -1, -1)) & 1)

    def u_row(self, y: Label) -> np.ndarray:
        return one_hot(self.r, subset_rank(y), 1.0)

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
        self.m = m = self.checked_m(m)
        self.output_space = self.observation_space = LabelSpace.grid(m)
        try:
            sizes = [len(block) for block in partition]
        except TypeError:  # the partition, or one of its blocks, is no sequence
            raise LossConfigError(
                "block_zero_one: partition must be a list of lists of subsets"
            ) from None
        if 0 in sizes:
            raise LossConfigError("block_zero_one: empty block in partition")
        flat = [z for block in partition for z in block]
        try:
            subsets, at = self.output_space.distinct(flat, "block_zero_one: partition subset")
        except InvalidLabelError as exc:
            raise LossConfigError(str(exc)) from None
        # distinct subsets take positions 0, 1, ... in order; a repeat does not
        repeats = np.flatnonzero(at != np.arange(len(at)))
        if len(repeats):
            raise LossConfigError(f"block_zero_one: subset {subsets[at[repeats[0]]]!r} in two blocks")
        ends = np.cumsum(sizes).tolist()
        blocks = [subsets[a:b] for a, b in zip([0] + ends, ends)]
        seen = {z: j for j, block in enumerate(blocks) for z in block}
        if len(seen) != 2 ** m:
            raise LossConfigError(
                f"block_zero_one: partition covers {len(seen)} of {2 ** m} subsets"
            )
        self.partition = blocks
        self._block_of = seen
        # blocks by their canonical (smallest) members: decoding takes the first tied one
        self._by_min = sorted(range(len(blocks)), key=lambda j: min(blocks[j]))
        self._block_min = np.array([min(blocks[j]) for j in self._by_min])
        self.b = len(blocks)
        self.r = self.b
        self.offset = 1.0
        self.f_norm = 1.0

    def config(self) -> dict:
        return {"partition": [[list(z) for z in block] for block in self.partition]}

    def value(self, z: Label, y: Label) -> float:
        return 0.0 if self._block_of[z] == self._block_of[y] else 1.0

    def f_row(self, z: Label) -> np.ndarray:
        return one_hot(self.r, self._block_of[z], -1.0)

    def decode_batch(self, thetas: np.ndarray) -> list:
        scores = thetas[:, self._by_min]
        first = np.argmax(scores == scores.max(axis=1, keepdims=True), axis=1)
        return label_rows(self._block_min[first])

    def u_row(self, y: Label) -> np.ndarray:
        return one_hot(self.r, self._block_of[y], 1.0)

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
        self.m = m = self.checked_m(m)
        self.output_space = self.observation_space = LabelSpace.grid(m)
        self.r = m
        self.offset = 0.5
        self.f_norm = 1.0 / (2.0 * math.sqrt(m))

    def value(self, z: Label, y: Label) -> float:
        return sum(a != b for a, b in zip(z, y)) / self.m

    def f_row(self, z: Label) -> np.ndarray:
        return -(2.0 * np.asarray(z, dtype=float) - 1.0) / (2.0 * self.m)

    def decode_batch(self, thetas: np.ndarray) -> list:
        # maximize sum_j s_j(z) theta_j coordinate-wise; theta_j == 0 keeps bit 0
        return label_rows(thetas > 0.0)

    def u_row(self, y: Label) -> np.ndarray:
        return 2.0 * np.asarray(y, dtype=float) - 1.0

    def expected_embedding(self, q) -> np.ndarray:
        return 2.0 * bit_probabilities(q, self.m) - 1.0

    def sharp(self) -> SharpConstant:
        return SharpConstant(self.r, self.f_norm, 1.0, 0.5)


class PrecAtK(DiscreteLoss):
    """Precision at k: L(z, y) = 1 - |z & y| / k over k-subsets z.

    F_z = -z/k, U_y = y, c = 1; inference is a top-k selection.
    """

    name = "prec_at_k"
    decoder = "O(m log m) top-k by stable sort"

    def __init__(self, m: int, k: int):
        self.m = m = self.checked_m(m)
        k = config_int("prec_at_k: k", k)
        if not 1 <= k <= m:
            raise LossConfigError(f"prec_at_k: need 1 <= k <= m, got k={k}, m={m}")
        self.k = k
        self.output_space = LabelSpace.ksubsets(m, k)
        self.observation_space = LabelSpace.grid(m)
        self.r = m
        self.offset = 1.0
        self.f_norm = 1.0 / math.sqrt(k)

    def config(self) -> dict:
        return {"k": self.k}

    def value(self, z: Label, y: Label) -> float:
        return 1.0 - sum(a & b for a, b in zip(z, y)) / self.k

    def f_row(self, z: Label) -> np.ndarray:
        return -np.asarray(z, dtype=float) / self.k

    def decode_batch(self, thetas: np.ndarray) -> list:
        return label_rows(top_k(thetas, self.k))

    def u_row(self, y: Label) -> np.ndarray:
        return np.asarray(y, dtype=float)

    def expected_embedding(self, q) -> np.ndarray:
        return bit_probabilities(q, self.m)

    def sharp(self) -> SharpConstant:
        return SharpConstant(self.r, self.f_norm, 1.0, math.sqrt(self.m / self.k))


class FScore(DiscreteLoss):
    """F1 loss 1 - 2|z & y| / (|z| + |y|) with the empty-set convention.

    Coordinate (item j, cardinality l), l = 1..m, lives at index (l-1) m + j,
    and the empty set at the last one, so r = m^2 + 1.  With a_x[j, l] =
    x_j 1(|x| = l) and b_x[j, l] = x_j / (|x| + l), F_z = -b_z and U_y = 2 a_y
    (l is the observed cardinality); the empty set puts -1 (F) or +1 (U) in
    the last coordinate, so F_z . U_y + c = L(z, y) exactly, and sup ||F_z||_2
    = 1 (attained at z = 0).  Decoding turns theta into per-cardinality item
    scores by the m x m table 1/(l + k), O(m^3), and maximizes over them, a
    top-k sort per cardinality k.
    """

    name = "fscore"
    decoder = "O(m^3) conversion to per-cardinality scores, then O(m^2 log m) top-k"

    def __init__(self, m: int):
        self.m = m = self.checked_m(m)
        self.output_space = self.observation_space = LabelSpace.grid(m)
        self.r = m * m + 1
        self.offset = 1.0
        self.f_norm = 1.0
        pos = np.arange(1, m + 1, dtype=float)
        self._w = 1.0 / (pos[:, None] + pos[None, :])  # _w[l-1, k-1] = 1/(l+k)

    def value(self, z: Label, y: Label) -> float:
        sy = sum(y)
        if sy == 0:
            return 0.0 if sum(z) == 0 else 1.0
        sz = sum(z)
        inter = sum(a & b for a, b in zip(z, y))
        return 1.0 - 2.0 * inter / (sz + sy)

    def _embed(self, x: Label, spread: bool, scale: float, empty: float) -> np.ndarray:
        """scale * b_x if ``spread``, else scale * a_x; x = 0 puts ``empty`` last."""
        m, size = self.m, sum(x)
        if size == 0:
            return one_hot(self.r, m * m, empty)
        row = np.zeros(self.r)
        items = list(itertools.compress(range(m), x))
        for ell in range(1, m + 1) if spread else (size,):
            w = scale * self._w[ell - 1, size - 1] if spread else scale
            for j in items:
                row[(ell - 1) * m + j] = w
        return row

    def f_row(self, z: Label) -> np.ndarray:
        return self._embed(z, True, -1.0, -1.0)

    def u_row(self, y: Label) -> np.ndarray:
        return self._embed(y, False, 2.0, 1.0)

    def decode_batch(self, thetas: np.ndarray) -> list:
        m = self.m
        # [row, j, ell-1]: the weight of item j at observed cardinality ell
        per_obs = thetas[:, : m * m].reshape(-1, m, m).transpose(0, 2, 1)
        # [row, j, k-1]: the score of item j at cardinality k, summed over ell in
        # a fixed order, so a row's sums ignore the batch
        per_card = sum(per_obs[:, :, ell, None] * self._w[ell] for ell in range(m))
        best_z = np.zeros((len(thetas), m), dtype=bool)
        best_score = thetas[:, m * m]  # z = 0 scores the empty-set coordinate
        for k in range(1, m + 1):
            col = per_card[:, :, k - 1]
            z = top_k(col, k)
            score = sum(np.where(z[:, j], col[:, j], 0.0) for j in range(m))  # in index order
            # z < best_z if best_z has the 1 where they first differ; taking an equal z is a no-op
            smaller = best_z[np.arange(len(z)), np.argmax(z != best_z, axis=1)]
            better = (score > best_score) | ((score == best_score) & smaller)
            best_score = np.where(better, score, best_score)
            best_z = np.where(better[:, None], z, best_z)
        return label_rows(best_z)

    def sharp(self) -> SharpConstant:
        # the bound chain ||F|| <= 1, U_max <= 1 gives A = sqrt(r); the transposed
        # decomposition F_z = -a_z, U_y = 2 b_y (C_a = C_p M for M[l, k] = 1/(l+k),
        # the same estimator) has exact A2 = sqrt(m r), never smaller
        a2 = math.sqrt(self.m * self.r)
        return SharpConstant(
            self.r,
            1.0,
            1.0,
            math.sqrt(self.r),
            is_bound=True,
            note=(
                "reported A = min over both decompositions; exact enumerated "
                f"values are (||F||,U_max) = (1, 2) p-side and (sqrt(m), 1) "
                f"a-side, giving exact A2 = {a2:.6g}"
            ),
        )
