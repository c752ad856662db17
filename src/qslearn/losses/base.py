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

Every ``LabelSpace`` yields its labels in canonical order, as tuples or as
the rows of int arrays (``array``, ``blocks``), and every decoder and
brute-force argmin in this package breaks ties by canonical order, so fast
and exhaustive inference are exactly interchangeable.  Each loss evaluates
itself once, as ``values`` over an array of outputs against one
observation.
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


# the one cap on a table over a label space (128 MiB): |Z| * r or |Y| * r of
# a LabelTable (2^m * r for an expected embedding), |Z| * columns of a loss
# matrix, |Z| * m of a LabelSpace's array
TABLE_CELLS = 2 ** 24
# largest working block (16 MB of float64), which sizes row blocks only: a
# brute-force decode's scores, subset-DP costs, probabilities, cross-kernels,
# a LabelSpace's blocks and a check's tie screen
BLOCK_CELLS = 2_000_000


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
    ``permutations(m)`` the one-line permutations of 1..m.  ``array`` and
    ``blocks`` give the same labels, in the same order, as rows of int arrays.
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
        if self.kind == "ksubset":
            return itertools.chain.from_iterable(map(label_rows, self.blocks()))
        return itertools.product(range(self.top + 1), repeat=self.m)

    @functools.cached_property
    def array(self) -> np.ndarray:
        """Every label in canonical order as one read-only int array, a row
        each, of the smallest signed type that holds its entries; built on
        first use and kept on the space.  SpaceTooLargeError past
        ``TABLE_CELLS`` cells, before any label is made."""
        if self.size * self.m > TABLE_CELLS:
            raise SpaceTooLargeError(f"{self.size} labels of length {self.m} exceed "
                                     f"{TABLE_CELLS} cells")
        (array,) = self._blocks(self.size)
        array.flags.writeable = False
        return array

    def blocks(self) -> Iterator[np.ndarray]:
        """The labels in canonical order as int arrays of at most
        ``BLOCK_CELLS`` cells (one row at least): slices of ``array`` where the
        space fits ``TABLE_CELLS``, made one at a time and not kept otherwise."""
        step = max(1, BLOCK_CELLS // self.m)
        if self.size * self.m > TABLE_CELLS:
            return self._blocks(step)
        array = self.array
        return (array[lo : lo + step] for lo in range(0, len(array), step))

    def _blocks(self, rows: int) -> Iterator[np.ndarray]:
        """The labels in canonical order, in arrays of at most ``rows`` rows."""
        m = self.m
        dtype = np.min_scalar_type(-(m if self.kind == "perm" else self.top))
        if self.kind == "grid":  # the digits of each index in base top + 1
            base = self.top + 1
            powers = base ** np.arange(m - 1, -1, -1)
            for lo in range(0, self.size, rows):
                index = np.arange(lo, min(lo + rows, self.size))
                yield (index[:, None] // powers % base).astype(dtype)
        elif self.kind == "ksubset":
            # the positions of the zeros, lexicographic, put the labels in
            # order: the smaller of two labels has the first zero where they differ
            zeros = itertools.combinations(range(m), m - self.k)
            while chunk := list(itertools.islice(zeros, rows)):
                block = np.ones((len(chunk), m), dtype)
                np.put_along_axis(block, np.array(chunk, np.intp).reshape(len(chunk), -1), 0, 1)
                yield block
        else:  # each prefix of d ranks, lexicographic, before the permutations of the rest
            d = next(d for d in range(m + 1) if math.factorial(m - d) <= rows)
            tail = np.zeros((1, 0), dtype)
            for n in range(1, m - d + 1):  # those of 1..n: v first, then 1..n less v in order
                tail = np.vstack([np.hstack([np.full((len(tail), 1), v, dtype), tail + (tail >= v)])
                                  for v in range(1, n + 1)])
            for prefix in itertools.permutations(range(1, m + 1), d):
                rest = np.array(sorted(set(range(1, m + 1)) - set(prefix)), dtype)
                yield np.hstack([np.tile(np.array(prefix, dtype), (len(tail), 1)),
                                 rest[tail - 1]]) if d else tail

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


def bit_probabilities(q, m: int) -> np.ndarray:
    """q as a new n x m float array of probabilities P([y]_j = 1), a 1-D q
    being one row; ValueError for another shape or an entry outside [0, 1]
    (NaN and infinities included)."""
    q = np.array(q, dtype=float, ndmin=2)
    if q.ndim != 2 or q.shape[1] != m:
        raise ValueError(f"q has shape {q.shape}, expected (n, {m})")
    if not np.all((q >= 0.0) & (q <= 1.0)):  # stated positively, so NaN fails
        raise ValueError("q must hold probabilities in [0, 1]")
    return q


@dataclass(frozen=True)
class LabelTable:
    """Every label of a space in canonical (lexicographic) order, the space's
    ``array`` as ``labels``, next to its ``f_row`` or ``u_row`` in ``rows``,
    both read-only; ``build`` refuses a table over ``TABLE_CELLS`` before any
    row is computed."""

    labels: np.ndarray
    rows: np.ndarray

    @classmethod
    def build(cls, loss: "DiscreteLoss", space: LabelSpace, row) -> "LabelTable":
        n, r = space.size, loss.r
        if n * r > TABLE_CELLS:
            raise SpaceTooLargeError(f"{loss.name}: a {n} x {r} table exceeds {TABLE_CELLS} cells")
        rows = np.fromiter(map(row, space), np.dtype((float, r)), n)
        rows.flags.writeable = False
        return cls(space.array, rows)

    @functools.cached_property
    def tuples(self) -> list:
        """The labels as tuples of Python ints."""
        return label_rows(self.labels)


class DiscreteLoss:
    """A loss L: Z x Y -> [0,1] with an exact affine decomposition.

    Each constructor starts with ``self.m = m = self.checked_m(m)``, which
    refuses an m that is no integer or is below the class's ``least_m``.
    Subclasses set the spaces Z and Y (``output_space``,
    ``observation_space``), the evaluator ``values``, the decomposition
    (``f_row``, ``u_row``, ``offset``, ``r``), the exact sup-norm ``f_norm``
    of the F rows and ``sharp``.  A loss with structure overrides
    ``decode_batch`` with a fast decoder over the whole batch, and describes
    it in ``decoder``; the default scores the output table.  A decoder that
    is a heuristic past some m sets ``exact_limit`` to the largest m where it
    is exact (every m by default).  A loss may also
    override ``expected_embedding`` with a closed form.  A loss with
    constructor parameters beyond m returns them from ``config``, keyed by
    their constructor names, so ``make_loss(name, m, **loss.config())``
    rebuilds it.  ``output_table`` (Z, F) and ``observation_table`` (Y, U)
    enumerate each space once per instance, for the default decoder, the
    checks, ``FiniteProblem`` and ``expected_embedding``; ``loss_matrix`` keeps
    the columns of ``values`` over Z that the decomposition-free paths ask for.
    ``values`` is the one definition of the loss: ``value`` is its one-row
    case, and no subclass defines ``value``.
    """

    name: str
    m: int
    r: int
    offset: float
    f_norm: float  # exact sup_z ||F_z||_2 of the implemented decomposition

    output_space: LabelSpace
    observation_space: LabelSpace
    decoder: str = "O(|Z|) enumeration"
    least_m = 1  # the fewest labels the loss is defined on
    exact_limit = math.inf  # the largest m at which decode_batch is exact

    @classmethod
    def checked_m(cls, m) -> int:
        """m as a Python int; LossConfigError unless it is an integer >= ``least_m``."""
        m = config_int(f"{cls.name}: m", m)
        if m < cls.least_m:
            raise LossConfigError(f"{cls.name}: m must be >= {cls.least_m}")
        return m

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
    def values(self, zs: np.ndarray, y: Label) -> np.ndarray:
        """L(z, y) for each row z of the n x m int array ``zs``, as n floats."""
        raise NotImplementedError

    def value(self, z: Label, y: Label) -> float:
        """L(z, y): the one-row case of ``values``."""
        return float(self.values(np.array((z,)), y)[0])

    def f_row(self, z: Label) -> np.ndarray:
        raise NotImplementedError

    @functools.cached_property
    def output_table(self) -> LabelTable:
        """Z and its F rows, built on first use and kept on the instance."""
        return LabelTable.build(self, self.output_space, self.f_row)

    @functools.cached_property
    def observation_table(self) -> LabelTable:
        """Y and its U rows, built on first use and kept on the instance."""
        return LabelTable.build(self, self.observation_space, self.u_row)

    @functools.cached_property
    def _loss_columns(self) -> dict:
        return {}  # observation -> its column of ``values`` over Z

    def loss_matrix(self, observations) -> np.ndarray:
        """The |Z| x len(observations) matrix of L(z, y), outputs in canonical
        order.

        Built from ``values`` over ``output_space`` alone, never from F, U or
        ``output_table``, so the decomposition-free paths stay independent of
        the decomposition.  Each column a call lacks is filled by one
        ``values`` call per block of the space (one block up to
        ``BLOCK_CELLS`` cells) and kept on the instance, contiguous; a call
        returns one copy, the columns stacked and transposed (Fortran order).
        The matrix, and the columns kept, are each limited to ``TABLE_CELLS``
        cells; beyond that SpaceTooLargeError is raised before any new column
        is computed.
        """
        n_z = self.n_outputs()
        most = TABLE_CELLS // n_z
        observations = [tuple(y) for y in itertools.islice(observations, most + 1)]
        columns = self._loss_columns
        missing = [y for y in dict.fromkeys(observations) if y not in columns]
        if len(observations) > most or len(columns) + len(missing) > most:
            raise SpaceTooLargeError(f"{self.name}: a loss matrix over {n_z} outputs holds at "
                                     f"most {most} observations ({TABLE_CELLS} cells)")
        for y in missing:  # a call with every column kept enumerates nothing
            columns[y] = np.concatenate([self.values(zs, y) for zs in self.output_space.blocks()])
        return np.array([columns[y] for y in observations]).reshape(-1, n_z).T

    def decode_batch(self, thetas: np.ndarray) -> list:
        """argmin_z F_z . theta, canonical tie-break, for each finite row of an
        n x r array.

        This default scores every output of the table by ``column_sums``, one
        row at a time: identical F rows get bitwise-equal scores, so the
        first argmin is the canonical output.
        """
        table = self.output_table
        return label_rows(table.labels[[np.argmin(column_sums(table.rows, t)) for t in thetas]])

    def u_row(self, y: Label) -> np.ndarray:
        raise NotImplementedError

    def expected_embedding(self, q) -> np.ndarray:
        """E[U_y] for independent bits P([y]_j = 1) = q_j, a row per row of the
        n x m array q.  With U_y = 0 = L(., y) on degenerate y, E[L(z, y)] =
        F_z . E[U_y] + c (1 - P(y degenerate)), so ``decode_batch`` of E[U_y]
        is the Bayes output; q is checked by ``bit_probabilities``.  This default
        sums U_y over ``LabelSpace.grid(m)`` in row blocks of at most
        ``BLOCK_CELLS`` probabilities, the U rows read from ``observation_table``,
        or, where Y is a wider grid (NDCG), tabled per call by the same builder.
        """
        q = bit_probabilities(q, self.m)
        bits = LabelSpace.grid(self.m)
        u = (self.observation_table if self.observation_space == bits
             else LabelTable.build(self, bits, self.u_row)).rows
        out = np.empty((len(q), self.r))
        step = max(1, BLOCK_CELLS // len(u))
        for start in range(0, len(q), step):
            block = q[start : start + step]
            probs = np.ones((len(block), 1))
            for p in block.T[:, :, None]:  # one bit per column, most significant first
                probs = np.stack([probs * (1.0 - p), probs * p], axis=2).reshape(len(block), -1)
            out[start : start + step] = column_sums(u.T, probs)
        return out

    def sharp(self) -> SharpConstant:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(m={self.m}, r={self.r})"


def decomposition_check(loss: DiscreteLoss) -> float:
    """Max over all (z, y) of |F_z . U_y + c - L(z, y)|.

    Exhaustive over both tables and the cached ``loss_matrix``; raises
    SpaceTooLargeError beyond ``_CHECK_PAIRS`` pairs.  Degenerate observations
    (U_y = 0 by convention) are skipped, see ``DiscreteLoss.is_degenerate``.
    """
    n_pairs = loss.n_outputs() * loss.n_observations()
    if n_pairs > _CHECK_PAIRS:
        raise SpaceTooLargeError(
            f"{loss.name}: {n_pairs} (z, y) pairs exceed limit {_CHECK_PAIRS}; "
            "use a sampled check instead"
        )
    table = loss.observation_table
    keep = [i for i, y in enumerate(table.tuples) if not loss.is_degenerate(y)]
    if not keep:
        return 0.0
    approx = loss.output_table.rows @ table.rows[keep].T + loss.offset
    return float(np.max(np.abs(approx - loss.loss_matrix([table.tuples[i] for i in keep]))))


def enumerated_constants(loss: DiscreteLoss) -> tuple[float, float]:
    """(max_z ||F_z||_2, max_{y,j} |U_yj|) by brute-force enumeration."""
    f_max = max(float(np.linalg.norm(f)) for f in loss.output_table.rows)
    u_max = float(np.max(np.abs(loss.observation_table.rows)))
    return f_max, u_max
