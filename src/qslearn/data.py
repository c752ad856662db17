"""Multilabel dataset ingestion, splits, and feature standardization.

Supported formats:

- ``libsvm_multilabel``: one example per line, ``l1,l2,... i:v i:v ...``
  with 0-based label indices and 1-based feature indices; an empty label
  field (a line starting with a space) means y = {}.
  The label field ends at the first space; feature tokens are separated by
  any whitespace, and each is ``index:value`` split at its only colon.
  Labels and indices are read as Python's ``int()`` reads them, values as
  ``float()`` does (so ``+1``, ``1_0`` and non-ASCII digits are accepted,
  ``1.0`` is not an index).  Repeated indices in a row are summed.
- ``csv``: header row, label columns ``y0..y{m-1}`` first, then features.

Both parsers refuse non-finite feature values (``nan``, ``inf``, ``1e400``)
with a DataFormatError naming the first such line.  The libsvm parser reads
the file in blocks of rows and checks and indexes each block's feature part
in one numpy pass over its ASCII bytes: token edges from the whitespace,
exactly one colon strictly inside each token, indices by a Horner loop over
their digit columns; the values go through numpy's C text reader
(``np.loadtxt``), which converts them with the C function ``float()`` calls.
A block the pass cannot vouch for is parsed again token by token, and that
loop is the reference and the error reporter.  Such a block has a non-ASCII
byte, a control byte other than tab, newline and return (so ``\\x0b``,
``\\x0c`` and ``\\x1c``-``\\x1f``, which are whitespace to ``str.split``), an
index with a sign, an ``_`` or more than 18 digits, an index below 1, or a
value with an ``_``, that ``float()`` refuses or that is not finite.
``write_libsvm`` writes a row with no labels and no features as `` 1:0``, so
that every row reads back.

Paths ending in ``.gz`` are (de)compressed transparently.  Features are held
sparse (CSR) and densified on demand; bibtex-scale dimensions fit dense
n x d only marginally; ``dense_features`` refuses one over ``DENSE_MAX_CELLS``
cells before allocating, as a stray index ``1 1000000000:1`` asks 8 GB a row.
"""

from __future__ import annotations

import gzip
import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


DENSE_MAX_CELLS = 1 << 27  # 1 GiB of float64


class DataFormatError(ValueError):
    """Malformed dataset file; message carries the offending line number."""


@dataclass
class MultilabelDataset:
    name: str
    features: sp.csr_matrix
    labels: list  # bit tuples of width m
    m: int
    width_from: str = "the data's columns"  # what set d, named if dense_features refuses

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def dense_features(self) -> np.ndarray:
        if self.n * self.d > DENSE_MAX_CELLS:
            raise DataFormatError(f"{self.name}: {self.n} rows x {self.d} features (width from "
                                  f"{self.width_from}) is over {DENSE_MAX_CELLS} dense cells")
        return self.features.toarray().astype(float, copy=False)

    def subset(self, idx) -> "MultilabelDataset":
        idx = np.asarray(idx, dtype=int)
        return MultilabelDataset(
            self.name, self.features[idx], [self.labels[i] for i in idx], self.m, self.width_from
        )


def _open_text(path: str, mode: str = "r"):
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def parse_multilabel(
    path: str, m: int, fmt: str = "libsvm_multilabel", d: int | None = None, name: str = ""
) -> MultilabelDataset:
    """Parse a dataset file; never silently drops lines.

    Blank lines and ``#`` comments are skipped; every other line must parse
    or a DataFormatError naming the line is raised.
    """
    if fmt == "libsvm_multilabel":
        return _parse_libsvm(path, m, d, name or str(path))
    if fmt == "csv":
        return _parse_csv(path, m, name or str(path))
    raise ValueError(f"unknown dataset format {fmt!r}")


# rows converted together by the bulk path; small enough that a block's
# bytes and value strings stay a few MB, large enough that numpy's per-call
# cost vanishes
_BLOCK_ROWS = 64
# longest index the bulk path reads: 10**18 - 1 still fits an int64
_MAX_DIGITS = 18
# largest feature index the loop accepts: the matrix width must fit an int64
_MAX_INDEX = np.iinfo(np.int64).max
_FIELD_SEPARATORS = bytes.maketrans(b":\t\n\r", b"    ")  # made spaces for np.loadtxt


def _parse_libsvm(path: str, m: int, d: int | None, name: str) -> MultilabelDataset:
    blocks = []
    with _open_text(path) as fh:
        lines = (
            (lineno, raw)
            for lineno, raw in enumerate(fh, start=1)
            if (text := raw.strip()) and not text.startswith("#")
        )
        while block := list(itertools.islice(lines, _BLOCK_ROWS)):
            blocks.append(_libsvm_block_bulk(block, m) or _libsvm_block_loop(block, m))
    if not blocks:
        raise DataFormatError("no examples in file")
    labels, lengths, cols, vals, maxes = zip(*blocks)
    labels = list(itertools.chain.from_iterable(labels))
    max_feat = max(maxes)
    width = d if d is not None else max_feat
    if max_feat > width:
        raise DataFormatError(f"feature index {max_feat} exceeds declared dimension {width}")
    n = len(labels)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(list(itertools.chain.from_iterable(lengths)), out=indptr[1:])
    values = np.concatenate([np.asarray(v, dtype=float) for v in vals])
    columns = np.concatenate([np.asarray(c, dtype=np.int64) for c in cols])
    features = sp.csr_matrix((values, columns, indptr), shape=(n, width))
    features.sum_duplicates()  # sorts each row and sums repeats, as COO -> CSR does
    source = "the largest feature index" if d is None else "the declared dimension d"
    return MultilabelDataset(name, features, labels, m, source)


def _libsvm_labels(lineno: int, raw: str, m: int) -> tuple[tuple, str]:
    """(label bits, feature part) of one line."""
    label_part, _, feat_part = raw.partition(" ") if not raw.startswith(" ") else ("", "", raw)
    bits = [0] * m
    if label_part.strip():
        for tok in label_part.strip().split(","):
            try:
                idx = int(tok)
            except ValueError as exc:
                raise DataFormatError(f"line {lineno}: bad label token {tok!r}") from exc
            if not 0 <= idx < m:
                raise DataFormatError(f"line {lineno}: label {idx} out of range [0, {m})")
            bits[idx] = 1
    return tuple(bits), feat_part


def _libsvm_block_loop(block, m: int):
    """(labels, row lengths, 0-based columns, values, largest index) of a
    block of (line number, line) pairs, one token at a time: the reference
    parser, and the one that reports errors."""
    labels, lengths, cols, vals = [], [], [], []
    max_feat = 0
    for lineno, raw in block:
        bits, feat_part = _libsvm_labels(lineno, raw, m)
        labels.append(bits)
        tokens = feat_part.split()
        for tok in tokens:
            idx_s, _, val_s = tok.partition(":")
            try:
                feat = int(idx_s)
                val = float(val_s)
            except ValueError as exc:
                raise DataFormatError(f"line {lineno}: bad feature token {tok!r}") from exc
            if feat < 1:
                raise DataFormatError(f"line {lineno}: feature index {feat} must be >= 1")
            if feat > _MAX_INDEX:
                raise DataFormatError(f"line {lineno}: feature index {feat} does not fit an int64")
            if not math.isfinite(val):
                raise DataFormatError(f"line {lineno}: non-finite feature value {tok!r}")
            cols.append(feat - 1)
            vals.append(val)
            max_feat = max(max_feat, feat)
        lengths.append(len(tokens))
    return labels, lengths, cols, vals, max_feat


def _libsvm_block_bulk(block, m: int):
    """The loop's result for a block, from one numpy pass over the bytes of
    its feature parts; None wherever the loop must decide (errors included).

    With control bytes other than tab, newline and return refused, the
    bytes ``str.split`` splits at are exactly those <= 32, and tokens lie
    between their edges.  When there are as many colons as tokens and the
    i-th colon lies strictly inside the i-th token, every token holds exactly
    one colon with both sides nonempty.  Indices of at most ``_MAX_DIGITS``
    ASCII digits are read by a Horner loop over their digit columns, which is
    ``int()`` on them.  With colons and whitespace made spaces, the values are
    every second field of one ``np.loadtxt`` line, read as ``float()`` reads.
    """
    try:
        labels, parts = zip(*(_libsvm_labels(lineno, raw, m) for lineno, raw in block))
    except DataFormatError:
        return None
    text = " " + " ".join(parts) + " "
    if not text.isascii():
        return None
    b = np.frombuffer(raw := text.encode("ascii"), dtype=np.uint8)
    control = b[b < 32]
    if not ((control == 9) | (control == 10) | (control == 13)).all():
        return None
    space = b <= 32
    starts, ends = (np.flatnonzero(space[:-1] != space[1:]) + 1).reshape(-1, 2).T
    colons = np.flatnonzero(b == ord(":"))
    if len(colons) != len(starts) or not ((starts < colons) & (colons < ends - 1)).all():
        return None
    width = colons - starts
    longest = int(width.max(initial=0))
    if longest > _MAX_DIGITS:
        return None
    feats = np.zeros(len(starts), dtype=np.int64)
    for j in range(longest, 0, -1):  # the digit j places left of each colon
        digit = np.where(width >= j, b[colons - j] - np.uint8(ord("0")), 0)
        if digit.max() > 9:  # a byte that is no ASCII digit
            return None
        feats *= 10
        feats += digit
    fields = raw.translate(_FIELD_SEPARATORS).decode("ascii")
    try:  # label-only rows would leave the reader no data, which it warns about
        vals = (np.loadtxt([fields], float, comments=None, ndmin=1)[1::2] if len(starts)
                else np.zeros(0))
    except ValueError:
        return None
    if feats.min(initial=1) < 1 or not np.isfinite(vals).all():
        return None
    lengths = np.diff(np.searchsorted(starts, np.cumsum([1] + [len(p) + 1 for p in parts])))
    return list(labels), lengths.tolist(), feats - 1, vals, int(feats.max(initial=0))


def _parse_csv(path: str, m: int, name: str) -> MultilabelDataset:
    with _open_text(path) as fh:
        header = fh.readline()
        if not header.strip():
            raise DataFormatError("line 1: missing header")
        n_cols = len(header.strip().split(","))
        if n_cols <= m:
            raise DataFormatError(f"header has {n_cols} columns, need more than m={m}")
        labels, dense_rows = [], []
        for lineno, raw in enumerate(fh, start=2):
            if not raw.strip():
                continue
            parts = raw.strip().split(",")
            if len(parts) != n_cols:
                raise DataFormatError(
                    f"line {lineno}: {len(parts)} columns, expected {n_cols}"
                )
            try:
                values = [float(p) for p in parts]
            except ValueError as exc:
                raise DataFormatError(f"line {lineno}: bad value") from exc
            if any(v not in (0.0, 1.0) for v in values[:m]):
                raise DataFormatError(f"line {lineno}: labels must be 0/1")
            bits, feats = tuple(int(v) for v in values[:m]), values[m:]
            bad = next((p for p, v in zip(parts[m:], feats) if not math.isfinite(v)), None)
            if bad is not None:
                raise DataFormatError(f"line {lineno}: non-finite feature value {bad!r}")
            labels.append(bits)
            dense_rows.append(feats)
    if not labels:
        raise DataFormatError("no examples in file")
    features = sp.csr_matrix(np.asarray(dense_rows, dtype=float))
    return MultilabelDataset(name, features, labels, m)


def write_libsvm(dataset: MultilabelDataset, path: str) -> None:
    """Inverse of the libsvm parser: every row reads back with the same labels
    and dense features.  A row with no labels and no stored entries is written
    as `` 1:0``, since a blank line would be skipped.  Non-finite values,
    which the parser refuses, raise ValueError before the file is opened."""
    if dataset.d == 0 and not all(any(bits) for bits in dataset.labels):
        raise ValueError("a row without labels cannot be written at width 0")
    if not np.isfinite(dataset.features.data).all():
        raise ValueError("non-finite feature values cannot be read back")
    features = dataset.features.tocsr(copy=True)
    features.sum_duplicates()
    indptr, indices, data = features.indptr, features.indices, features.data
    with _open_text(path, "w") as fh:
        for i, bits in enumerate(dataset.labels):
            lab = ",".join(str(j) for j, b in enumerate(bits) if b)
            lo, hi = indptr[i], indptr[i + 1]
            feats = " ".join(f"{c + 1}:{v:.17g}" for c, v in zip(indices[lo:hi], data[lo:hi]))
            if not lab and not feats:
                feats = "1:0"
            fh.write(f"{lab} {feats}".rstrip() + "\n")


def split(
    dataset: MultilabelDataset,
    fractions: tuple[float, float, float] = (0.6, 0.2, 0.2),
    seed: int = 0,
):
    """Disjoint (train, val, test) cover; rounding remainder goes to train."""
    if any(f < 0 for f in fractions) or abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("fractions must be nonnegative and sum to 1")
    n = dataset.n
    n_val = round(fractions[1] * n)
    n_test = round(fractions[2] * n)
    n_train = n - n_val - n_test
    if n_train < 0:
        raise ValueError("fractions leave no training data")
    perm = np.random.default_rng(seed).permutation(n)
    tr = perm[:n_train]
    va = perm[n_train : n_train + n_val]
    te = perm[n_train + n_val :]
    return dataset.subset(tr), dataset.subset(va), dataset.subset(te)


@dataclass(frozen=True)
class Standardizer:
    mean: np.ndarray
    scale: np.ndarray  # zero-variance columns carry scale 0 and map to 0

    def apply(self, features) -> np.ndarray:
        x = np.asarray(features, dtype=float)
        inv = np.zeros_like(self.scale)
        np.divide(1.0, self.scale, out=inv, where=self.scale > 0)
        return (x - self.mean) * inv


def standardize(train_features) -> Standardizer:
    """Per-column mean-0 / std-1 transform computed from training rows only."""
    x = np.asarray(train_features, dtype=float)
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    return Standardizer(mean, std)
