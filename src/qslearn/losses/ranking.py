"""Ranking losses on permutations: NDCG-type measures, pairwise disagreement, MAP.

Permutations are one-line tuples with sigma[j] = rank of item j (rank 1 is
the top position).  NDCG-type losses observe relevance vectors in {0..R}^m;
PD and MAP observe binary relevance, i.e. subsets.  NDCG and PD are affine
in a function of each item's own rank, so both decode by one stable argsort
(``rank_rows``) at every m.  MAP's F_sigma . theta depends on sigma through
the set of items ranked above each item, so it decodes exactly by
``subset_dp``, a shortest path over the 2^m subsets of placed items (Held &
Karp, 1962), up to its class constant ``exact_limit`` (m = 16), and by
``qap_local_search``, one row at a time, beyond it.  The DP and the
heuristics are at the end of this module; ``greedy_arcset``, a batched
heuristic for the general weighted feedback-arc-set (linear ordering)
problem, is public API that no loss here decodes by.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from typing import Callable, Sequence

import numpy as np

from .base import (
    BLOCK_CELLS,
    DiscreteLoss,
    Label,
    LabelSpace,
    LossConfigError,
    SharpConstant,
    config_int,
    label_rows,
)


class NDCGType(DiscreteLoss):
    """Normalized discounted gain losses: L(sigma, y) = 1 - sum_j G(y_j) D_{sigma(j)} / N(y).

    N(y) is the best achievable discounted gain (sort gains against the
    discount), so the loss lives in [0, 1].  The decomposition is direct:
    F_sigma = -(D_{sigma(j)})_j, U_y = G(y)/N(y), c = 1, r = m.

    The discount must be strictly decreasing with D_1 = 1; strictness makes
    the sorting decoder's tie handling match the brute-force canonical
    argmin exactly.  Relevance vectors whose gains are all zero have N = 0
    and are degenerate: they contribute L = 0 and U = 0.

    ``R`` is the top relevance score.  ``gain`` and ``discount`` are tables
    or callables of t = 0..R and of the rank j = 1..m; by default G(t) =
    2^t - 1 and D_j = 1/log2(j+1).  The gains must be finite, non-negative
    and non-decreasing, with G(R) > 0, which keeps the loss in [0, 1];
    ``ExpectedRankUtility`` is the ``eru`` preset.
    """

    name = "ndcg"
    decoder = "O(m log m) argsort"

    def __init__(
        self,
        m: int,
        R: int = 3,
        gain: Callable[[int], float] | Sequence[float] | None = None,
        discount: Callable[[int], float] | Sequence[float] | None = None,
    ):
        self.m = m = self.checked_m(m)
        R = config_int("ndcg: R", R)
        if R < 1:
            raise LossConfigError("ndcg: top relevance R must be >= 1")
        self.top_relevance = R
        self.output_space = LabelSpace.permutations(m)
        self.observation_space = LabelSpace.grid(m, R)
        if gain is None:
            gain = lambda t: 2.0 ** t - 1.0
        if callable(gain):
            self._gain = np.array([float(gain(t)) for t in range(R + 1)])
        else:
            self._gain = np.asarray(gain, dtype=float)
            if self._gain.shape != (R + 1,):
                raise LossConfigError("ndcg: gain table must have R+1 entries")
        if not np.all(np.isfinite(self._gain)):
            raise LossConfigError("ndcg: gain must be finite")
        if np.any(np.diff(self._gain) < 0):
            raise LossConfigError("ndcg: gain must be non-decreasing")
        if self._gain[-1] <= 0:
            raise LossConfigError("ndcg: top gain must be positive")
        if self._gain[0] < 0:
            raise LossConfigError("ndcg: gain of relevance 0 must be >= 0")
        if discount is None:
            discount = lambda j: 1.0 / math.log2(j + 1)
        if callable(discount):
            self._discount = np.array([float(discount(j)) for j in range(1, m + 1)])
        else:
            self._discount = np.asarray(discount, dtype=float)
            if self._discount.shape != (m,):
                raise LossConfigError("ndcg: discount must have m entries")
        if not np.all(np.isfinite(self._discount)):
            raise LossConfigError("ndcg: discount must be finite")
        if abs(self._discount[0] - 1.0) > 1e-12:
            raise LossConfigError("ndcg: discount must be normalized with D_1 = 1")
        if np.any(np.diff(self._discount) >= 0) or np.any(self._discount <= 0):
            raise LossConfigError("ndcg: discount must be positive and strictly decreasing")
        self.r = m
        self.offset = 1.0
        self.f_norm = float(np.linalg.norm(self._discount))

    def config(self) -> dict:
        # the gain and discount tables carry any preset
        return {"R": self.top_relevance, "gain": self._gain.tolist(),
                "discount": self._discount.tolist()}

    @property
    def discount(self) -> np.ndarray:
        return self._discount

    def gains(self, y: Label) -> np.ndarray:
        return self._gain[np.asarray(y, dtype=int)]

    def normalizer(self, y: Label) -> float:
        g = np.sort(self.gains(y))[::-1]
        return float(g @ self._discount)

    def is_degenerate(self, y: Label) -> bool:
        return bool(np.all(self.gains(y) == 0.0))

    def value(self, z: Label, y: Label) -> float:
        g = self.gains(y)
        n = self.normalizer(y)
        if n == 0.0:
            return 0.0
        got = float(g @ self._discount[np.asarray(z, dtype=int) - 1])
        return 1.0 - got / n

    def f_row(self, z: Label) -> np.ndarray:
        return -self._discount[np.asarray(z, dtype=int) - 1]

    def decode_batch(self, thetas: np.ndarray) -> list:
        return rank_rows(thetas)

    def u_row(self, y: Label) -> np.ndarray:
        g = self.gains(y)
        n = self.normalizer(y)
        if n == 0.0:
            return np.zeros(self.m)
        return g / n

    def _u_max_exact(self) -> float:
        # Entry j of U is G(y_j)/N(y); with gains reaching 0 the maximum 1/D_1
        # is attained by a single-relevant vector.  Otherwise enumerate.
        if self._gain[0] == 0.0:
            return 1.0 / float(self._discount[0])
        best = 0.0
        for y in self.observations():
            if self.is_degenerate(y):
                continue
            best = max(best, float(np.max(self.u_row(y))))
        return best

    def sharp(self) -> SharpConstant:
        u_max = self._u_max_exact()
        g_max = float(self._gain[-1])
        bound = math.sqrt(self.m) * g_max * float(self._discount[0]) * self.f_norm
        return SharpConstant(
            self.r,
            self.f_norm,
            u_max,
            math.sqrt(self.r) * self.f_norm * u_max,
            note=f"closed-form bound sqrt(m)*G_max*D_max*||D||_2 = {bound:.6g}",
        )


class ExpectedRankUtility(NDCGType):
    """The ``eru`` preset: G(t) = max(t - neutral, 0) and D_j = 2^(1-j).

    ``neutral`` defaults to R // 2 and must lie below R.
    """

    name = "eru"

    def __init__(self, m: int, R: int = 3, neutral: int | None = None):
        R = config_int("eru: R", R)
        neutral = R // 2 if neutral is None else config_int("eru: neutral", neutral)
        if neutral >= R:
            raise LossConfigError("eru: neutral score must be below the top relevance")
        self.neutral = neutral
        super().__init__(m, R, gain=lambda t: float(max(t - neutral, 0)),
                         discount=lambda j: 2.0 ** (1 - j))

    def config(self) -> dict:
        return {"R": self.top_relevance, "neutral": self.neutral}


def rank_rows(thetas: np.ndarray) -> list:
    """For each row of scores, the ranking that puts rank 1 on the largest
    score, ties to the smaller item index: the lexicographically smallest
    sigma among those minimizing sum_j sigma_j theta_j."""
    order = np.argsort(-thetas, axis=1, kind="stable")
    sigma = np.empty_like(order)
    np.put_along_axis(sigma, order, np.arange(1, thetas.shape[1] + 1), axis=1)
    return label_rows(sigma)


class PairwiseDisagreement(DiscreteLoss):
    """Fraction of discordant pairs: a relevant item ranked below an irrelevant one.

    Against a subset y with k = |y| relevant items, N(y) = k (m - k) pairs
    are relevance-discordant, and the ranks of the relevant items add up to
    k(k+1)/2 plus the number of discordant pairs, so

        L(sigma, y) = (sum_j y_j sigma_j - k(k+1)/2) / (k (m - k)),

    affine in the rank vector: F_sigma = sigma - (m+1)/2,
    U_y = (y - k/m) / (k (m - k)), c = 1/2, r = m.  The pairwise split
    F_sigma = sign(sigma_l - sigma_j)/4, U_y = 2 sign(y_l - y_j)/N(y) over
    the m(m-1)/2 pairs l < j is the same estimator: its U is 2 D U, with
    (D v)_{jl} = v_l - v_j, and ridge is linear in its targets, so both give
    the same F_sigma . theta.  Observations with k in {0, m} are degenerate.
    F_sigma . theta is sum_j sigma_j theta_j less a constant, least when
    rank 1 goes to the largest score, so ``decode_batch`` is one stable
    argsort (``rank_rows``), exact at every m.
    """

    name = "pd"
    decoder = "O(m log m) argsort"
    least_m = 2

    def __init__(self, m: int):
        self.m = m = self.checked_m(m)
        self.output_space = LabelSpace.permutations(m)
        self.observation_space = LabelSpace.grid(m)
        self.pairs = [(j, l) for j in range(m) for l in range(j)]  # l < j, for ``value``
        self.r = m
        self.offset = 0.5
        self.f_norm = math.sqrt(m * (m * m - 1) / 12.0)

    def is_degenerate(self, y: Label) -> bool:
        return sum(y) in (0, self.m)

    def value(self, z: Label, y: Label) -> float:
        s = sum(y)
        n = s * (self.m - s)
        if n == 0:
            return 0.0
        bad = 0
        for j, l in self.pairs:
            if y[j] < y[l] and z[j] < z[l]:
                bad += 1
            elif y[l] < y[j] and z[l] < z[j]:
                bad += 1
        return bad / n

    def f_row(self, z: Label) -> np.ndarray:
        return np.asarray(z, dtype=float) - 0.5 * (self.m + 1)

    def decode_batch(self, thetas: np.ndarray) -> list:
        return rank_rows(thetas)

    def u_row(self, y: Label) -> np.ndarray:
        s = sum(y)
        n = s * (self.m - s)
        if n == 0:
            return np.zeros(self.m)
        return (np.asarray(y, dtype=float) - s / self.m) / n

    def sharp(self) -> SharpConstant:
        # the pairwise split's triple: its A = m/4 bounds this same estimator
        # and is below the rank-m split's sqrt((m^2 - 1)/12) from m = 3 on
        pairs = self.m * (self.m - 1) // 2
        return SharpConstant(
            pairs,
            0.25 * math.sqrt(pairs),
            2.0 / (self.m - 1),
            self.m / 4.0,
            is_bound=True,
            note=(
                "reported pairwise constant m/4 (r = m(m-1)/2); exact enumerated "
                f"values of the rank-m decomposition are ||F|| = sqrt(m(m^2-1)/12) = "
                f"{self.f_norm:.6g}, U_max = 1/m = {1.0 / self.m:.6g} and "
                f"A = sqrt((m^2-1)/12) = {math.sqrt((self.m ** 2 - 1) / 12.0):.6g}"
            ),
        )


class MeanAveragePrecision(DiscreteLoss):
    """One minus mean average precision over the relevant items of y.

    Rewriting AP over unordered relevant pairs gives coordinates indexed by
    (j, l) with l <= j (diagonal included):

        F_sigma = (1/max(sigma_j, sigma_l)),  U_y = -(y_j y_l / |y|),  c = 1,

    so r = m(m+1)/2.  Every F row is a permutation of the same multiset, and
    ||F_z||_2^2 = H_m (harmonic number) exactly.  |y| = 0 is degenerate.
    Exact inference is a quadratic assignment problem, NP-hard in general.
    Here max(sigma_j, sigma_l) = sigma_j for every l ranked above j, so
    placing j below a set S of k items costs
    (theta_jj + sum_{l in S} theta_jl) / (k + 1), and ``subset_dp`` solves it
    exactly up to m = ``exact_limit``, in row blocks of at most
    ``BLOCK_CELLS`` cost cells (2^m x m a row), and a 2-swap local search,
    row by row, beyond.
    """

    name = "map"
    # the largest m whose DP fits one row in a block of BLOCK_CELLS; the DP
    # beats the local search at every m up to it
    exact_limit = 16
    decoder = f"NP-hard (QAP); O(2^m m) subset DP for m <= {exact_limit}, else 2-swap local search"

    def __init__(self, m: int):
        self.m = m = self.checked_m(m)
        self.output_space = LabelSpace.permutations(m)
        self.observation_space = LabelSpace.grid(m)
        self.pairs = [(j, l) for j in range(m) for l in range(j + 1)]
        self.r = len(self.pairs)
        self.offset = 1.0
        self.f_norm = math.sqrt(sum(1.0 / a for a in range(1, m + 1)))

    def is_degenerate(self, y: Label) -> bool:
        return sum(y) == 0

    def value(self, z: Label, y: Label) -> float:
        ranks = [r for r, b in zip(z, y) if b]  # the ranks of the relevant items
        if not ranks:
            return 0.0
        return 1.0 - sum(sum(q <= r for q in ranks) / r for r in ranks) / len(ranks)

    def f_row(self, z: Label) -> np.ndarray:
        return np.array([1.0 / max(z[j], z[l]) for j, l in self.pairs])

    @functools.cached_property
    def _pair_at(self) -> np.ndarray:
        """m x m: entries [j, l] and [l, j] hold the theta coordinate of the
        pair (j, l)."""
        index = np.zeros((self.m, self.m), dtype=np.intp)
        for p, (j, l) in enumerate(self.pairs):
            index[j, l] = index[l, j] = p
        return index

    def placement_costs(self, thetas: np.ndarray) -> np.ndarray:
        """2^m x m x rows: cell [S, j] is the cost of placing item j directly
        below the item set S (bit l of S is item l), for each row of thetas."""
        pair = thetas.T[self._pair_at]
        cost = subset_sums(np.diagonal(pair).T, pair)
        cost /= _lattice(self.m).next_rank
        return cost

    def search(self, thetas: np.ndarray) -> list:
        # unordered pair mass split across the symmetric entries
        half = np.where(np.eye(self.m, dtype=bool), 1.0, 0.5)
        pos = np.arange(1, self.m + 1, dtype=float)
        d = 1.0 / np.maximum(pos[:, None], pos[None, :])
        return [qap_local_search(-theta[self._pair_at] * half, d) for theta in thetas]

    def decode_batch(self, thetas: np.ndarray) -> list:
        if self.m > self.exact_limit:
            return self.search(thetas)
        step = max(1, BLOCK_CELLS // (self.m << self.m))
        return [z for lo in range(0, len(thetas), step)
                for z in label_rows(subset_dp(self.placement_costs(thetas[lo:lo + step])))]

    def u_row(self, y: Label) -> np.ndarray:
        s = sum(y)
        if s == 0:
            return np.zeros(self.r)
        return np.array([-float(y[j] * y[l]) / s for j, l in self.pairs])

    def sharp(self) -> SharpConstant:
        a = 0.5 * self.m * math.sqrt(math.log(self.m + 1))
        return SharpConstant(
            self.r,
            math.sqrt(math.log(self.m + 1)),
            0.5,
            a,
            is_bound=True,
            note=(
                "reported closed form (1/2) m sqrt(log(m+1)), natural log; "
                f"exact enumerated values are ||F|| = sqrt(H_m) = {self.f_norm:.6g} "
                "and U_max = 1"
            ),
        )


# ---------------------------------------------------------------------------
# exact decoding of placement costs by dynamic programming over subsets
# ---------------------------------------------------------------------------

_Lattice = namedtuple("_Lattice", "levels next_rank weights")


@functools.lru_cache(maxsize=None)
def _lattice(m: int) -> _Lattice:
    """The subsets of m items, level by level, as index arrays for ``subset_dp``.

    ``levels[k - 1]`` lists the k-item sets S in increasing bitmask order as
    three C(m, k) x k arrays over the items j of S, ascending: ``pred``, the
    position of S minus j in level k - 1; ``cell``, the flat index
    (S minus j) * m + j of the cost of placing j below the rest of S; and
    ``item``, j itself.  ``next_rank[S]`` = |S| + 1 is the rank of an item
    placed directly below S, and ``weights[j]`` = m^(m-1-j) turns ranks into
    a lexicographic key.
    """
    masks = np.arange(1 << m)
    bits = (masks[:, None] >> np.arange(m)) & 1
    placed = bits.sum(axis=1)
    position = np.empty(1 << m, dtype=np.intp)
    for k in range(m + 1):
        position[placed == k] = np.arange(math.comb(m, k))
    levels = []
    for k in range(1, m + 1):
        sets = masks[placed == k]
        item = np.nonzero(bits[sets])[1].reshape(len(sets), k)
        rest = sets[:, None] ^ (1 << item)
        levels.append((position[rest], rest * m + item, item))
    weights = np.array([m ** (m - 1 - j) for j in range(m)], dtype=np.uint64)
    return _Lattice(levels, (placed + 1.0)[:, None, None], weights)


def subset_sums(base: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """2^m x m x rows: cell [S, j] = base[j] + sum over the items l of S of
    pair[j, l], for every row (the last axis of ``base`` and ``pair``).

    Built by doubling over the highest bit of S, so every cell adds its
    terms in ascending l, elementwise along the row axis: a row's sums do not
    depend on the other rows.  Cells with j in S are filled but never read.
    """
    m, rows = base.shape
    cost = np.empty((1 << m, m, rows))
    cost[0] = base
    for b in range(m):
        np.add(cost[: 1 << b], pair[:, b], out=cost[1 << b : 2 << b])
    return cost


def _walk(levels, choices, position):
    """(rank, item) from rank k down to 1 for the k-item sets at ``position``
    (sets x rows, or rows) of level k = len(choices) + 1, following each
    set's chosen last item; level 1 holds item j at position j."""
    column = np.arange(position.shape[-1])
    for k in range(len(choices) + 1, 1, -1):
        pred, _, item = levels[k - 1]
        choice = choices[k - 2][position, column]
        yield k, item[position, choice]
        position = pred[position, choice]
    yield 1, position


def _rank_keys(lattice: _Lattice, choices: list, rows: int) -> np.ndarray:
    """sets x rows: for each set of level len(choices) + 1, the sum of
    (rank - 1) * weights[j] over its items j on its chosen path."""
    n = len(lattice.levels[len(choices)][0])
    keys = np.zeros((n, rows), dtype=np.uint64)
    position = np.broadcast_to(np.arange(n)[:, None], (n, rows))
    for rank, placed in _walk(lattice.levels, choices, position):
        keys += np.uint64(rank - 1) * lattice.weights[placed]
    return keys


def subset_dp(cost: np.ndarray) -> np.ndarray:
    """The ranking sigma minimizing sum_j cost[S_j, j] for every row of
    ``cost`` (2^m x m x rows), where S_j is the set of items ranked above
    item j.

    The best order of a set S of items ends with the item j that minimizes
    the best value of S minus j plus cost[S minus j, j].  The values are
    computed one set size at a time (a Held-Karp recursion, O(2^m m) per
    row), and every operation is elementwise along the row axis, so a row's
    ranking does not depend on the other rows.  Exact ties go to the
    lexicographically smallest sigma, as in enumeration: on a level with a
    tie, the candidates are compared by a base-m key of the ranks they give
    the items placed so far.  Returns sigma as rows x m ranks 1..m.
    """
    _, m, rows = cost.shape
    flat = cost.reshape(-1, rows)
    lattice = _lattice(m)
    value = cost[0]  # level 1: item j alone, at position j
    choices = []
    for k, (pred, cell, item) in enumerate(lattice.levels[1:], 2):
        candidates = value[pred] + flat[cell]  # C(m, k) x k x rows
        value = candidates.min(axis=1)
        best = candidates == value[:, None]
        if np.count_nonzero(best) > value.size:
            keys = _rank_keys(lattice, choices, rows)[pred]
            keys += np.uint64(k - 1) * lattice.weights[item][..., None]
            choices.append(np.where(best, keys, np.iinfo(np.uint64).max).argmin(axis=1))
        else:
            choices.append(candidates.argmin(axis=1))
    sigma = np.empty((rows, m), dtype=np.intp)
    for rank, placed in _walk(lattice.levels, choices, np.zeros(rows, dtype=np.intp)):
        sigma[np.arange(rows), placed] = rank
    return sigma


# ---------------------------------------------------------------------------
# heuristics for two NP-hard ordering problems
# ---------------------------------------------------------------------------

def greedy_arcset(gamma) -> Label | list:
    """Greedy ordering for the weighted feedback-arc-set objective, for an
    m x m cost matrix or for each matrix of a rows x m x m stack.

    ``gamma[a, b]`` is the cost incurred when item a is ranked below item b;
    the objective is sum over ordered pairs of gamma[a, b] 1(rank_a > rank_b).
    Items are ordered by descending (out-mass - in-mass), ties to the smaller
    index, then improved by passes of adjacent swaps, each strictly cheaper,
    until a pass swaps nothing.  A pass is m - 1 steps over the rows still
    swapping, elementwise along the row axis, so a row's label does not
    depend on the other rows.  On a consistent total order the result has
    objective zero.  Returns a label, or a list of labels for a stack.
    """
    # C order: each matrix's sums then add in the order of a one-matrix call
    gamma = np.ascontiguousarray(gamma, dtype=float)
    m = gamma.shape[-1]
    if gamma.ndim not in (2, 3) or gamma.shape[-2] != m:
        raise ValueError("gamma must be square")
    block = gamma.reshape(-1, m, m)
    # the in-mass as m - 1 whole-slice adds, in the order numpy sums axis 1;
    # a reduction over it would loop over the m-long axis once per row
    in_mass = block[:, 0].copy()
    for a in range(1, m):
        in_mass += block[:, a]
    score = block.sum(axis=2) - in_mass
    # ranked[pos, i]: the item at position pos (0 = top) of row i's ranking
    ranked = np.argsort(-score, axis=1, kind="stable").T.copy()
    # below[i*m*m + a*m + b]: in row i, ranking a below b is strictly cheaper
    below = (block < block.transpose(0, 2, 1)).reshape(-1)
    order, rows = np.empty_like(ranked), np.arange(len(block))
    while rows.size:
        start = rows * (m * m)
        swapped = np.zeros(rows.size, dtype=bool)
        for pos in range(m - 1):
            a, b = ranked[pos], ranked[pos + 1]  # views; a currently above b
            swap = below[start + a * m + b]
            step = (b - a) * swap  # exchanges a and b in place where swap holds
            a += step
            b -= step
            swapped |= swap
        # a row whose pass swapped nothing is a fixed point
        order[:, rows[~swapped]] = ranked[:, ~swapped]
        rows, ranked = rows[swapped], ranked[:, swapped]
    sigma = np.empty_like(order)
    np.put_along_axis(sigma, order, np.arange(1, m + 1)[:, None], axis=0)
    labels = label_rows(sigma.T)
    return labels if gamma.ndim == 3 else labels[0]


def arcset_objective(gamma, sigma: Label) -> float:
    gamma = np.asarray(gamma, dtype=float)
    m = gamma.shape[0]
    return float(
        sum(
            gamma[a, b]
            for a in range(m)
            for b in range(m)
            if a != b and sigma[a] > sigma[b]
        )
    )


def qap_trace_objective(w, d, sigma: Label) -> float:
    """Tr(W^T P D P^T) for the permutation matrix P of sigma."""
    w = np.asarray(w, dtype=float)
    d = np.asarray(d, dtype=float)
    p = np.asarray(sigma, dtype=int) - 1
    return float(np.sum(w * d[np.ix_(p, p)]))


def qap_local_search(w, d, restarts: int = 8, seed: int = 0) -> Label:
    """Best 2-swap local maximum of Tr(W^T P D P^T) over ``restarts`` starts.

    Start 0 is the identity; the rest are seeded random permutations.  Swap
    selection is best-improvement with index tie-break, so the result is
    deterministic given the seed.  Returns the best local optimum, breaking
    exact objective ties toward the lexicographically smaller permutation.
    """
    w = np.asarray(w, dtype=float)
    d = np.asarray(d, dtype=float)
    m = w.shape[0]
    if w.shape != (m, m) or d.shape != (m, m):
        raise ValueError("W and D must be square matrices of equal size")
    if m == 1:
        return (1,)
    rng = np.random.default_rng(seed)
    pairs = list(itertools.combinations(range(m), 2))

    def objective(p: np.ndarray) -> float:
        return float(np.sum(w * d[np.ix_(p, p)]))

    def climb(p: np.ndarray) -> tuple[np.ndarray, float]:
        cur = objective(p)
        while True:
            best_delta, best_pair = 0.0, None
            for a, b in pairs:
                q = p.copy()
                q[a], q[b] = q[b], q[a]
                delta = objective(q) - cur
                if delta > best_delta:
                    best_delta, best_pair = delta, (a, b)
            if best_pair is None:
                return p, cur
            a, b = best_pair
            p[a], p[b] = p[b], p[a]
            cur += best_delta

    best_sigma, best_obj = None, -math.inf
    for start in range(max(restarts, 1)):
        p0 = np.arange(m) if start == 0 else rng.permutation(m)
        p, obj = climb(p0.copy())
        sigma = tuple(int(r) + 1 for r in p)
        if obj > best_obj or (obj == best_obj and sigma < best_sigma):
            best_obj, best_sigma = obj, sigma
    return best_sigma
