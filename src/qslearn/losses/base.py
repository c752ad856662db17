"""Core label spaces and the affine-decomposition contract for discrete losses.

Every loss in this package evaluates on finite spaces and carries an exact
affine decomposition of its loss matrix,

    L(z, y) = F_z . U_y + c,

with F_z, U_y in R^r.  The decomposition is what makes the surrogate
estimator train in r dimensions instead of |Z| dimensions, and the triple
(r, sup_z ||F_z||_2, max |U|) controls the statistical constant of the
method.

Label conventions
-----------------
- subsets of {0..m-1}: tuples of m ints in {0,1}; canonical order is
  lexicographic on the tuple (equivalently integer order with index 0 as
  the most significant bit).
- permutations: tuples sigma of length m with sigma[j] = rank of item j,
  ranks 1..m; canonical order is lexicographic on one-line notation.
- relevance vectors: tuples of m ints in {0..R}; lexicographic order.

Every ``LabelSpace`` yields its labels in canonical order, and every decoder
and brute-force argmin in this package breaks ties by canonical order, so
fast and exhaustive inference are exactly interchangeable.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

Label = tuple  # subsets, permutations and relevance vectors are all int tuples


class LossConfigError(ValueError):
    """Invalid loss parameters (bad k, partition, gain/discount, ...)."""


class InvalidLabelError(ValueError):
    """Label outside the loss's output/observation space."""


class SpaceTooLargeError(ValueError):
    """Requested an exhaustive enumeration over a space that is too large."""


# ---------------------------------------------------------------------------
# label spaces
# ---------------------------------------------------------------------------

def subset_rank(z: Sequence[int]) -> int:
    rank = 0
    for bit in z:
        rank = (rank << 1) | bit
    return rank


@dataclass(frozen=True)
class LabelSpace:
    """A finite space of length-m int tuples, iterated in canonical order.

    ``grid(m, top)`` is {0..top}^m (top = 1 gives the subsets as bit tuples),
    ``ksubsets(m, k)`` the bit tuples with exactly k ones and
    ``permutations(m)`` the one-line permutations of 1..m.
    """

    kind: str  # "grid", "ksubset" or "perm"
    m: int
    top: int = 1
    k: int = 0

    @classmethod
    def grid(cls, m: int, top: int = 1) -> "LabelSpace":
        return cls("grid", m, top)

    @classmethod
    def ksubsets(cls, m: int, k: int) -> "LabelSpace":
        return cls("ksubset", m, 1, k)

    @classmethod
    def permutations(cls, m: int) -> "LabelSpace":
        return cls("perm", m)

    def __iter__(self) -> Iterator[Label]:
        if self.kind == "perm":
            return itertools.permutations(range(1, self.m + 1))
        grid = itertools.product(range(self.top + 1), repeat=self.m)
        if self.kind == "ksubset":
            return (z for z in grid if sum(z) == self.k)
        return grid

    @property
    def size(self) -> int:
        if self.kind == "perm":
            return math.factorial(self.m)
        if self.kind == "ksubset":
            return math.comb(self.m, self.k)
        return (self.top + 1) ** self.m

    def __contains__(self, y) -> bool:
        # isinstance mapped in C, and the range read from min and max: a
        # generator over the entries makes a 5-entry check up to 3x slower
        if not (isinstance(y, tuple) and len(y) == self.m
                and (all(map(int.__instancecheck__, y))
                     or all(isinstance(t, (int, np.integer)) for t in y))):
            return False
        if self.kind == "perm":
            return sorted(y) == list(range(1, self.m + 1))
        if y and not 0 <= min(y) <= max(y) <= self.top:
            return False
        return self.kind == "grid" or sum(y) == self.k

    def check(self, y) -> Label:
        """y itself if it is a label of the space; InvalidLabelError otherwise."""
        if y in self:
            return y
        if self.kind == "perm":
            what = f"a permutation of 1..{self.m} in one-line form"
        elif self.kind == "ksubset":
            what = f"a {self.k}-subset bit tuple"
        elif self.top == 1:
            what = f"a length-{self.m} bit tuple"
        else:
            what = f"a relevance vector in {{0..{self.top}}}^{self.m}"
        raise InvalidLabelError(f"not {what}: {y!r}")

    def distinct(self, labels: Sequence, what: str) -> tuple[list, np.ndarray]:
        """The distinct labels of a sequence as canonical tuples, in order of
        first appearance, and each element's position among them.  Each
        element is hashed once, and each distinct label converted by
        ``as_label`` and checked once; InvalidLabelError names ``what`` and
        the index of the first bad element."""
        seen: dict = {}
        try:
            inverse = [seen.setdefault(tuple(y), len(seen)) for y in labels]
        except TypeError:  # some element is no sequence of hashables: find the first bad one
            for i, y in enumerate(labels):
                try:
                    self.check(as_label(y)), hash(tuple(y))
                except (InvalidLabelError, TypeError) as exc:
                    raise InvalidLabelError(f"{what} {i}: {exc}") from None
        out = []
        for pos, y in enumerate(seen):
            try:
                out.append(self.check(as_label(y)))
            except InvalidLabelError as exc:
                raise InvalidLabelError(f"{what} {inverse.index(pos)}: {exc}") from None
        return out, np.array(inverse, dtype=np.intp)


def config_int(what: str, value) -> int:
    """A loss parameter that must be an integer, as read from a config."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise LossConfigError(f"{what} must be an integer, got {value!r}")
    return int(value)


def label_rows(rows: np.ndarray) -> list:
    """Each row of an int or bool array as a label, a tuple of Python ints."""
    return list(zip(*rows.T.astype(int).tolist()))  # from the columns: no list per row


def as_label(y) -> Label:
    """Coerce lists/arrays to the canonical tuple-of-int representation;
    InvalidLabelError for an entry that is not an integer (1.0 is, 1.5 not)."""
    # isinstance mapped in C; a generator of isinstance calls takes twice as long
    if isinstance(y, tuple) and all(map(int.__instancecheck__, y)):
        return y
    try:
        if (label := tuple(map(int, y))) == tuple(y):
            return label
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidLabelError(f"not a tuple of integers: {y!r}")


# ---------------------------------------------------------------------------
# decomposition and constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SharpConstant:
    """The loss-dependent constant A = sqrt(r) * ||F||_inf * U_max.

    ``is_bound`` marks losses for which the reported triple is the standard
    closed-form bound rather than the exact enumerated value (F-score, PD, MAP);
    for those the exact values are given in ``note``.
    """

    r: int
    f_inf_norm: float
    u_max: float
    a: float
    is_bound: bool = False
    note: str = ""


# largest |Z| * r of an OutputTable, |Z| * columns of a loss matrix and 2^m * r
# of the U table behind an expected embedding: 128 MiB
TABLE_CELLS = 2 ** 24
# largest working block (16 MB of float64): the loss-matrix cells one
# brute-force decode reads, and the subset-DP cost cells of one row block
BLOCK_CELLS = 2_000_000
# most (z, y) pairs that decomposition_check enumerates
_CHECK_PAIRS = 1_500_000


def column_sums(matrix: np.ndarray, weights) -> np.ndarray:
    """sum_j weights[..., j] matrix[:, j] for every row of ``matrix``, in the
    last axis.

    The columns are accumulated one at a time, so every row sees the same
    sequence of roundings: equal rows get bitwise-equal sums, and the first
    argmin among them is the canonical one, which a BLAS product does not
    promise.
    """
    weights = np.asarray(weights, dtype=float)
    out = np.zeros(weights.shape[:-1] + (matrix.shape[0],))
    for j in range(matrix.shape[1]):
        out += weights[..., j, None] * matrix[:, j]
    return out


@dataclass(frozen=True)
class OutputTable:
    """Every output z in canonical order next to its F row: ``labels[i]`` is
    the i-th output of ``outputs()`` (int16) and ``f[i]`` is its ``f_row``."""

    labels: np.ndarray
    f: np.ndarray

    @classmethod
    def build(cls, loss: "DiscreteLoss") -> "OutputTable":
        n, r = loss.n_outputs(), loss.r
        if n * r > TABLE_CELLS:
            raise SpaceTooLargeError(
                f"{loss.name}: a {n} x {r} output table exceeds {TABLE_CELLS} cells"
            )
        labels = np.empty((n, loss.m), dtype=np.int16)
        f = np.empty((n, r))
        for i, z in enumerate(loss.outputs()):
            labels[i] = z
            f[i] = loss.f_row(z)
        return cls(labels, f)


class DiscreteLoss:
    """A loss L: Z x Y -> [0,1] with an exact affine decomposition.

    Subclasses set the spaces Z and Y (``output_space``,
    ``observation_space``), the evaluator ``value``, the decomposition
    (``f_row``, ``u_row``, ``offset``, ``r``), the exact sup-norm ``f_norm``
    of the F rows and ``sharp``.  A loss with structure overrides
    ``decode_batch`` with a fast decoder over the whole batch, and describes
    it in ``decoder``; the default scores the output table.  It may also
    override ``expected_embedding`` with a closed form.  A loss with
    constructor parameters beyond m returns them from ``config``, keyed by
    their constructor names, so ``make_loss(name, m, **loss.config())``
    rebuilds it.  ``output_table`` enumerates Z and F once per instance, for
    the default decoder and the checks; ``loss_matrix`` keeps the columns of
    ``value`` over Z that the decomposition-free paths ask for.
    """

    name: str
    m: int
    r: int
    offset: float
    f_norm: float  # exact sup_z ||F_z||_2 of the implemented decomposition

    output_space: LabelSpace
    observation_space: LabelSpace
    decoder: str = "O(|Z|) enumeration"

    def config(self) -> dict:
        """JSON-serializable constructor parameters other than m."""
        return {}

    # -- spaces ------------------------------------------------------------
    def outputs(self) -> Iterator[Label]:
        return iter(self.output_space)

    def observations(self) -> Iterator[Label]:
        return iter(self.observation_space)

    def n_outputs(self) -> int:
        return self.output_space.size

    def n_observations(self) -> int:
        return self.observation_space.size

    def is_degenerate(self, y: Label) -> bool:
        """True for observations that carry no preference information.

        Degenerate observations have U_y = 0 and L(., y) = 0; they are valid
        inputs but are excluded from the decomposition identity check because
        the offset c is only realized on informative observations.
        """
        return False

    # -- loss and decomposition ---------------------------------------------
    def value(self, z: Label, y: Label) -> float:
        raise NotImplementedError

    def f_row(self, z: Label) -> np.ndarray:
        raise NotImplementedError

    @functools.cached_property
    def output_table(self) -> OutputTable:
        """Z and its F rows, built on first use and kept on the instance;
        raises SpaceTooLargeError beyond ``TABLE_CELLS``."""
        return OutputTable.build(self)

    @functools.cached_property
    def _loss_columns(self) -> dict:
        return {}  # observation -> its column of ``value`` over Z

    def loss_matrix(self, observations) -> np.ndarray:
        """The |Z| x len(observations) matrix of ``value(z, y)``, outputs in
        canonical order.

        Built from ``value`` alone, never from F, U or ``output_table``, so
        the decomposition-free paths stay independent of the decomposition.
        Each observation's column is computed on first use and kept on the
        instance.  The matrix, and the columns kept, are each limited to
        ``TABLE_CELLS`` cells; beyond that SpaceTooLargeError is raised
        before any new column is computed.
        """
        n_z = self.n_outputs()
        most = TABLE_CELLS // n_z
        observations = [tuple(y) for y in itertools.islice(observations, most + 1)]
        columns = self._loss_columns
        missing = [y for y in dict.fromkeys(observations) if y not in columns]
        if len(observations) > most or len(columns) + len(missing) > most:
            raise SpaceTooLargeError(
                f"{self.name}: a loss matrix over {n_z} outputs holds at most "
                f"{most} observations ({TABLE_CELLS} cells)"
            )
        if missing:
            outputs = list(self.outputs())
            for y in missing:
                columns[y] = np.fromiter((self.value(z, y) for z in outputs), float, n_z)
        return np.array([columns[y] for y in observations]).reshape(-1, n_z).T.copy()

    def decode_batch(self, thetas: np.ndarray) -> list:
        """argmin_z F_z . theta, canonical tie-break, for each finite row of an
        n x r array.

        This default scores every output of the table by ``column_sums``, one
        row at a time: identical F rows get bitwise-equal scores, so the
        first argmin is the canonical output.
        """
        table = self.output_table
        return label_rows(table.labels[[np.argmin(column_sums(table.f, t)) for t in thetas]])

    def u_row(self, y: Label) -> np.ndarray:
        raise NotImplementedError

    def expected_embedding(self, q) -> np.ndarray:
        """E[U_y] for independent bits P([y]_j = 1) = q_j, a row per row of the
        n x m array q.  With U_y = 0 = L(., y) on degenerate y, E[L(z, y)] =
        F_z . E[U_y] + c (1 - P(y degenerate)), so ``decode_batch`` of E[U_y]
        is the Bayes output.  This default sums U_y over ``LabelSpace.grid(m)``
        in row blocks of at most ``BLOCK_CELLS`` probabilities, and refuses
        (SpaceTooLargeError) a 2^m x r table over ``TABLE_CELLS`` up front.
        """
        n_y = 2 ** self.m
        if n_y * self.r > TABLE_CELLS:
            raise SpaceTooLargeError(f"{self.name}: {n_y} x {self.r} U table over {TABLE_CELLS} cells")
        q = np.atleast_2d(np.asarray(q, dtype=float))
        u = np.fromiter(map(self.u_row, LabelSpace.grid(self.m)), np.dtype((float, self.r)), n_y)
        out = np.empty((len(q), self.r))
        step = max(1, BLOCK_CELLS // n_y)
        for start in range(0, len(q), step):
            block = q[start : start + step]
            probs = np.ones((len(block), 1))
            for p in block.T[:, :, None]:  # one bit per column, most significant first
                probs = np.stack([probs * (1.0 - p), probs * p], axis=2).reshape(len(block), -1)
            out[start : start + step] = column_sums(u.T, probs)
        return out

    def sharp(self) -> SharpConstant:
        raise NotImplementedError

    # -- generic helpers -----------------------------------------------------
    def embed(self, y) -> np.ndarray:
        """U_y for a validated observation (the surrogate regression target)."""
        return self.u_row(self.observation_space.check(as_label(y)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(m={self.m}, r={self.r})"


def decomposition_check(loss: DiscreteLoss) -> float:
    """Max over all (z, y) of |F_z . U_y + c - L(z, y)|.

    Exhaustive over both spaces, against the cached ``loss_matrix``; raises
    SpaceTooLargeError beyond ``_CHECK_PAIRS`` pairs.  Degenerate observations
    (U_y = 0 by convention) are skipped, see ``DiscreteLoss.is_degenerate``.
    """
    n_pairs = loss.n_outputs() * loss.n_observations()
    if n_pairs > _CHECK_PAIRS:
        raise SpaceTooLargeError(
            f"{loss.name}: {n_pairs} (z, y) pairs exceed limit {_CHECK_PAIRS}; "
            "use a sampled check instead"
        )
    ys = [y for y in loss.observations() if not loss.is_degenerate(y)]
    if not ys:
        return 0.0
    u_rows = np.array([loss.u_row(y) for y in ys])
    approx = loss.output_table.f @ u_rows.T + loss.offset
    return float(np.max(np.abs(approx - loss.loss_matrix(ys))))


def enumerated_constants(loss: DiscreteLoss) -> tuple[float, float]:
    """(max_z ||F_z||_2, max_{y,j} |U_yj|) by brute-force enumeration."""
    f_max = max(float(np.linalg.norm(f)) for f in loss.output_table.f)
    u_max = max(float(np.max(np.abs(loss.u_row(y)))) for y in loss.observations())
    return f_max, u_max
