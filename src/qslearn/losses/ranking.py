"""Ranking losses on permutations: NDCG-type measures, pairwise disagreement, MAP.

Permutations are one-line tuples with sigma[j] = rank of item j (rank 1 is
the top position).  NDCG-type losses observe relevance vectors in {0..R}^m;
PD and MAP observe binary relevance, i.e. subsets.  Beyond the decode
budget, PD decodes by ``greedy_arcset`` and MAP by ``qap_local_search``,
both at the end of this module.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

import numpy as np

from .base import (
    DiscreteLoss,
    Label,
    LabelSpace,
    LossConfigError,
    SharpConstant,
)


def _sigma_from_order(order) -> Label:
    """One-line permutation giving rank pos + 1 to the item at order[pos]."""
    sigma = [0] * len(order)
    for pos, item in enumerate(order):
        sigma[item] = pos + 1
    return tuple(sigma)


def _rank_by_scores(scores: np.ndarray, m: int) -> Label:
    """Permutation assigning rank 1 to the largest score; ties by item index."""
    return _sigma_from_order(sorted(range(m), key=lambda j: (-scores[j], j)))


class NDCGType(DiscreteLoss):
    """Normalized discounted gain losses: L(sigma, y) = 1 - sum_j G(y_j) D_{sigma(j)} / N(y).

    N(y) is the best achievable discounted gain (sort gains against the
    discount), so the loss lives in [0, 1].  The decomposition is direct:
    F_sigma = -(D_{sigma(j)})_j, U_y = G(y)/N(y), c = 1, r = m.

    The discount must be strictly decreasing with D_1 = 1; strictness makes
    the sorting decoder's tie handling match the brute-force canonical
    argmin exactly.  Relevance vectors whose gains are all zero have N = 0
    and are degenerate: they contribute L = 0 and U = 0.

    Presets: ``ndcg`` uses G(t) = 2^t - 1 and D_j = 1/log2(j+1); ``eru``
    uses G(t) = max(t - neutral, 0) and D_j = 2^(1-j).
    """

    name = "ndcg"
    decoder = "O(m log m) argsort"

    def __init__(
        self,
        m: int,
        top_relevance: int,
        gain: Callable[[int], float] | Sequence[float] | None = None,
        discount: Sequence[float] | None = None,
        name: str = "ndcg",
    ):
        if m < 1:
            raise LossConfigError("ndcg: m must be >= 1")
        if top_relevance < 1:
            raise LossConfigError("ndcg: top relevance R must be >= 1")
        self.name = name
        self.m = m
        self.top_relevance = top_relevance
        self.output_space = LabelSpace.permutations(m)
        self.observation_space = LabelSpace.grid(m, top_relevance)
        if gain is None:
            gain = lambda t: 2.0 ** t - 1.0
        if callable(gain):
            self._gain = np.array([float(gain(t)) for t in range(top_relevance + 1)])
        else:
            self._gain = np.asarray(gain, dtype=float)
            if self._gain.shape != (top_relevance + 1,):
                raise LossConfigError("ndcg: gain table must have R+1 entries")
        if np.any(np.diff(self._gain) < 0):
            raise LossConfigError("ndcg: gain must be non-decreasing")
        if self._gain[-1] <= 0:
            raise LossConfigError("ndcg: top gain must be positive")
        if discount is None:
            discount = [1.0 / math.log2(j + 1) for j in range(1, m + 1)]
        self._discount = np.asarray(discount, dtype=float)
        if self._discount.shape != (m,):
            raise LossConfigError("ndcg: discount must have m entries")
        if abs(self._discount[0] - 1.0) > 1e-12:
            raise LossConfigError("ndcg: discount must be normalized with D_1 = 1")
        if np.any(np.diff(self._discount) >= 0) or np.any(self._discount <= 0):
            raise LossConfigError("ndcg: discount must be positive and strictly decreasing")
        self.r = m
        self.offset = 1.0
        self.f_norm = float(np.linalg.norm(self._discount))

    @classmethod
    def eru(cls, m: int, top_relevance: int, neutral: int | None = None) -> "NDCGType":
        """Expected-rank-utility preset: half-life discount, shifted linear gain."""
        if neutral is None:
            neutral = top_relevance // 2
        if neutral >= top_relevance:
            raise LossConfigError("eru: neutral score must be below the top relevance")
        return cls(
            m,
            top_relevance,
            gain=lambda t: float(max(t - neutral, 0)),
            discount=[2.0 ** (-j) for j in range(m)],
            name="eru",
        )

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

    def decode(self, theta: np.ndarray, budget) -> Label:
        return _rank_by_scores(theta, self.m)

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


def pair_index(m: int) -> list[tuple[int, int]]:
    """Canonical ordering of unordered item pairs (j, l) with l < j."""
    return [(j, l) for j in range(m) for l in range(j)]


class PairwiseDisagreement(DiscreteLoss):
    """Fraction of discordant pairs: less relevant item ranked above more relevant.

    With t_{jl}(y) = sign(y_l - y_j) and q_{jl}(sigma) = sign(sigma_l - sigma_j)
    over pairs l < j,

        L(sigma, y) = 1/2 + (1/2N(y)) sum_{l<j} t_{jl}(y) q_{jl}(sigma),

    N(y) = |y| (m - |y|) the number of relevance-discordant pairs.  Split as
    F_sigma = q(sigma)/4 and U_y = 2 t(y)/N(y), c = 1/2, r = m(m-1)/2.
    Observations with |y| in {0, m} have no comparable pairs and are
    degenerate.  Exact inference is a minimum-weight feedback-arc-set
    problem, NP-hard in general.
    """

    name = "pd"
    decoder = "NP-hard (MWFAS); exact <= budget, else greedy arcset"

    def __init__(self, m: int):
        if m < 2:
            raise LossConfigError("pd: m must be >= 2")
        self.m = m
        self.output_space = LabelSpace.permutations(m)
        self.observation_space = LabelSpace.grid(m)
        self.pairs = pair_index(m)
        self.r = len(self.pairs)
        self.offset = 0.5
        self.f_norm = 0.25 * math.sqrt(self.r)

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
        return 0.25 * np.array(
            [float(np.sign(z[l] - z[j])) for j, l in self.pairs]
        )

    def decode(self, theta: np.ndarray, budget) -> Label:
        if self.m <= budget.exact_limit:
            return super().decode(theta, budget)
        m = self.m
        gamma = np.zeros((m, m))
        for idx, (j, l) in enumerate(self.pairs):
            t = float(theta[idx])
            # gamma[a, b] = cost of ranking a below b; per-pair shift keeps it >= 0
            gamma[j, l] = max(-t, 0.0) / 2.0
            gamma[l, j] = max(t, 0.0) / 2.0
        return greedy_arcset(gamma)

    def u_row(self, y: Label) -> np.ndarray:
        s = sum(y)
        n = s * (self.m - s)
        if n == 0:
            return np.zeros(self.r)
        return (2.0 / n) * np.array(
            [float(np.sign(y[l] - y[j])) for j, l in self.pairs]
        )

    def sharp(self) -> SharpConstant:
        return SharpConstant(self.r, self.f_norm, 2.0 / (self.m - 1), self.m / 4.0)


class MeanAveragePrecision(DiscreteLoss):
    """One minus mean average precision over the relevant items of y.

    Rewriting AP over unordered relevant pairs gives coordinates indexed by
    (j, l) with l <= j (diagonal included):

        F_sigma = (1/max(sigma_j, sigma_l)),  U_y = -(y_j y_l / |y|),  c = 1,

    so r = m(m+1)/2.  Every F row is a permutation of the same multiset, and
    ||F_z||_2^2 = H_m (harmonic number) exactly.  |y| = 0 is degenerate.
    Exact inference is a quadratic assignment problem, NP-hard in general.
    """

    name = "map"
    decoder = "NP-hard (QAP); exact <= budget, else 2-swap local search"

    def __init__(self, m: int):
        if m < 1:
            raise LossConfigError("map: m must be >= 1")
        self.m = m
        self.output_space = LabelSpace.permutations(m)
        self.observation_space = LabelSpace.grid(m)
        self.pairs = [(j, l) for j in range(m) for l in range(j + 1)]
        self.r = len(self.pairs)
        self.offset = 1.0
        self.f_norm = math.sqrt(sum(1.0 / a for a in range(1, m + 1)))

    def is_degenerate(self, y: Label) -> bool:
        return sum(y) == 0

    def value(self, z: Label, y: Label) -> float:
        s = sum(y)
        if s == 0:
            return 0.0
        ap = 0.0
        for j in range(self.m):
            if not y[j]:
                continue
            hits = sum(1 for l in range(self.m) if y[l] and z[l] <= z[j])
            ap += hits / z[j]
        return 1.0 - ap / s

    def f_row(self, z: Label) -> np.ndarray:
        return np.array([1.0 / max(z[j], z[l]) for j, l in self.pairs])

    def decode(self, theta: np.ndarray, budget) -> Label:
        if self.m <= budget.exact_limit_map:
            return super().decode(theta, budget)
        m = self.m
        w = np.zeros((m, m))
        for idx, (j, l) in enumerate(self.pairs):
            if j == l:
                w[j, j] = -theta[idx]
            else:  # split unordered pair mass across the symmetric entries
                w[j, l] = w[l, j] = -theta[idx] / 2.0
        pos = np.arange(1, m + 1, dtype=float)
        d = 1.0 / np.maximum(pos[:, None], pos[None, :])
        return qap_local_search(w, d, restarts=budget.restarts, seed=budget.seed)

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
# heuristics for the two NP-hard decoders
# ---------------------------------------------------------------------------

def greedy_arcset(gamma) -> Label:
    """Greedy ordering for the weighted feedback-arc-set objective.

    ``gamma[a, b]`` is the cost incurred when item a is ranked below item b;
    the objective is sum over ordered pairs of gamma[a, b] 1(rank_a > rank_b).
    Items are ordered by descending (out-mass - in-mass), then improved by
    adjacent swaps until no strict improvement remains.  Deterministic; on a
    consistent total order the result has objective zero.
    """
    gamma = np.asarray(gamma, dtype=float)
    m = gamma.shape[0]
    if gamma.shape != (m, m):
        raise ValueError("gamma must be square")
    score = gamma.sum(axis=1) - gamma.sum(axis=0)
    order = sorted(range(m), key=lambda j: (-score[j], j))  # top of ranking first
    improved = True
    while improved:
        improved = False
        for pos in range(m - 1):
            a, b = order[pos], order[pos + 1]  # a currently above b
            if gamma[a, b] < gamma[b, a]:  # strictly cheaper with a below b
                order[pos], order[pos + 1] = b, a
                improved = True
    return _sigma_from_order(order)


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
