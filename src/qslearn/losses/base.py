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

All enumeration helpers yield labels in canonical order, and every decoder
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
# label space helpers
# ---------------------------------------------------------------------------

def subsets(m: int) -> Iterator[Label]:
    """All bit tuples of length m in canonical (lexicographic) order."""
    return itertools.product((0, 1), repeat=m)


def ksubsets(m: int, k: int) -> Iterator[Label]:
    """Bit tuples of length m with exactly k set bits, canonical order."""
    return (z for z in subsets(m) if sum(z) == k)


def permutations(m: int) -> Iterator[Label]:
    """Permutations in one-line notation (sigma[j] = rank of item j), lex order."""
    return itertools.permutations(range(1, m + 1))


def relevance_grid(m: int, top: int) -> Iterator[Label]:
    """All relevance vectors in {0..top}^m, lexicographic order."""
    return itertools.product(range(top + 1), repeat=m)


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
            return permutations(self.m)
        if self.kind == "ksubset":
            return ksubsets(self.m, self.k)
        return relevance_grid(self.m, self.top)

    @property
    def size(self) -> int:
        if self.kind == "perm":
            return math.factorial(self.m)
        if self.kind == "ksubset":
            return math.comb(self.m, self.k)
        return (self.top + 1) ** self.m

    def __contains__(self, y) -> bool:
        if not (isinstance(y, tuple) and len(y) == self.m):
            return False
        if self.kind == "perm":
            return sorted(y) == list(range(1, self.m + 1))
        if not all(isinstance(t, (int, np.integer)) and 0 <= t <= self.top for t in y):
            return False
        return self.kind == "grid" or sum(y) == self.k

    def check(self, y) -> None:
        if y in self:
            return
        if self.kind == "perm":
            what = f"a permutation of 1..{self.m} in one-line form"
        elif self.kind == "ksubset":
            what = f"a {self.k}-subset bit tuple"
        elif self.top == 1:
            what = f"a length-{self.m} bit tuple"
        else:
            what = f"a relevance vector in {{0..{self.top}}}^{self.m}"
        raise InvalidLabelError(f"not {what}: {y!r}")


def config_int(what: str, value) -> int:
    """A loss parameter that must be an integer, as read from a config."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise LossConfigError(f"{what} must be an integer, got {value!r}")
    return int(value)


def label_rows(rows: np.ndarray) -> list:
    """Each row of an int or bool array as a label, a tuple of Python ints."""
    return list(zip(*rows.T.astype(int).tolist()))  # from the columns: no list per row


def as_label(y) -> Label:
    """Coerce lists/arrays to the canonical tuple-of-int representation."""
    if isinstance(y, tuple) and all(isinstance(b, int) for b in y):
        return y
    return tuple(int(b) for b in y)


# ---------------------------------------------------------------------------
# decomposition and constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SharpConstant:
    """The loss-dependent constant A = sqrt(r) * ||F||_inf * U_max.

    ``is_bound`` marks losses for which the reported triple is the standard
    closed-form bound rather than the exact enumerated value (F-score, MAP);
    for those the exact values are given in ``note``.
    """

    r: int
    f_inf_norm: float
    u_max: float
    a: float
    is_bound: bool = False
    note: str = ""


# largest |Z| * r of an OutputTable, and |Z| * columns of a loss matrix: 128 MiB
TABLE_CELLS = 2 ** 24
# largest working block (16 MB of float64): the loss-matrix cells one
# brute-force decode reads, and the subset-DP cost cells of one row block
BLOCK_CELLS = 2_000_000
# most (z, y) pairs that decomposition_check enumerates
_CHECK_PAIRS = 1_500_000


@dataclass(frozen=True)
class OutputTable:
    """Every output z in canonical order next to its F row.

    ``labels[i]`` is the i-th output of ``outputs()`` (int16) and ``f[i]``
    is its ``f_row``.  ``first[i]`` is the first row equal to row i, or
    ``first`` is None when all rows differ; decoding maps its argmin through
    it, so an exact tie between identical rows goes to the canonical first
    output even when the matrix product rounds the copies differently.
    """

    labels: np.ndarray
    f: np.ndarray
    first: np.ndarray | None

    @classmethod
    def build(cls, loss: "DiscreteLoss") -> "OutputTable":
        n, r = loss.n_outputs(), loss.r
        if n * r > TABLE_CELLS:
            raise SpaceTooLargeError(
                f"{loss.name}: a {n} x {r} output table exceeds {TABLE_CELLS} cells"
            )
        labels = np.empty((n, loss.m), dtype=np.int16)
        f = np.empty((n, r))
        hashes = np.empty(n, dtype=np.int64)
        for i, z in enumerate(loss.outputs()):
            labels[i] = z
            f[i] = loss.f_row(z)
            hashes[i] = hash((f[i] + 0.0).tobytes())  # + 0.0 turns -0.0 into 0.0
        _, start, inverse = np.unique(hashes, return_index=True, return_inverse=True)
        if len(start) == n:
            return cls(labels, f, None)
        first = start[inverse.ravel()]
        for i in np.flatnonzero(first != np.arange(n)):
            if not np.array_equal(f[i], f[first[i]]):  # hash collision of distinct rows
                first[i] = next(j for j in range(i + 1) if np.array_equal(f[j], f[i]))
        return cls(labels, f, first)

    def argmin(self, theta: np.ndarray) -> Label:
        """argmin_z F_z . theta with the canonical tie-break, for a finite theta."""
        i = int(np.argmin(self.f @ theta))
        if self.first is not None:
            i = int(self.first[i])
        return tuple(self.labels[i].tolist())


class DiscreteLoss:
    """A loss L: Z x Y -> [0,1] with an exact affine decomposition.

    Subclasses set the spaces Z and Y (``output_space``,
    ``observation_space``), the evaluator ``value``, the decomposition
    (``f_row``, ``u_row``, ``offset``, ``r``), the exact sup-norm ``f_norm``
    of the F rows and ``sharp``.  A loss with structure overrides
    ``decode_batch`` with a fast decoder over the whole batch, and describes
    it in ``decoder``; ``decode`` is its one-row case.  A loss with
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

    def check_output(self, z: Label) -> None:
        self.output_space.check(z)

    def check_observation(self, y: Label) -> None:
        self.observation_space.check(y)

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
        matrix = np.empty((n_z, len(observations)))
        for j, y in enumerate(observations):
            matrix[:, j] = columns[y]
        return matrix

    def decode(self, theta: np.ndarray) -> Label:
        """argmin_z F_z . theta, canonical tie-break: ``decode_batch`` of one row."""
        return self.decode_batch(np.asarray(theta, dtype=float)[None])[0]

    def decode_batch(self, thetas: np.ndarray) -> list:
        """argmin_z F_z . theta, canonical tie-break, for each row of an n x r array."""
        table = self.output_table
        return [table.argmin(theta) for theta in thetas]

    def u_row(self, y: Label) -> np.ndarray:
        raise NotImplementedError

    def sharp(self) -> SharpConstant:
        raise NotImplementedError

    # -- generic helpers -----------------------------------------------------
    def embed(self, y) -> np.ndarray:
        """U_y for a validated observation (the surrogate regression target)."""
        y = as_label(y)
        self.check_observation(y)
        return self.u_row(y)

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
