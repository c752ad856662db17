"""Dataset parsing, splits, and standardization."""

import gzip
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qslearn.cli as cli
from qslearn import data
from qslearn.data import (
    DataFormatError,
    MultilabelDataset,
    parse_multilabel,
    split,
    standardize,
    write_libsvm,
)


@pytest.mark.parametrize("d", [None, 10**9], ids=["largest-index", "declared"])
def test_dense_features_refuses_over_the_cell_cap_before_allocating(d, tmp_path):
    path = tmp_path / "stray.libsvm"
    path.write_text("0 1:1\n1 1000000000:1\n")
    tracemalloc.start()
    try:
        ds = parse_multilabel(str(path), m=2, d=d)
        with pytest.raises(DataFormatError) as info:
            ds.dense_features()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # never a dense row
    source = "the largest feature index" if d is None else "the declared dimension d"
    assert f"2 rows x 1000000000 features (width from {source})" in str(info.value)
    assert ds.subset([1]).width_from == source
    with pytest.raises(DataFormatError, match=source):
        ds.subset([1]).dense_features()


def test_dense_features_allow_up_to_the_cell_cap(tmp_path, monkeypatch):
    path = tmp_path / "wide.libsvm"
    path.write_text("0 1:1\n1 3:2\n")
    monkeypatch.setattr(data, "DENSE_MAX_CELLS", 6)
    assert parse_multilabel(str(path), m=2).dense_features().tolist() == [[1, 0, 0], [0, 0, 2]]
    with pytest.raises(DataFormatError, match=r"2 rows x 4 features \(width from the declared"):
        parse_multilabel(str(path), m=2, d=4).dense_features()


def test_libsvm_line_semantics(tmp_path):
    path = tmp_path / "toy.libsvm"
    path.write_text("0,2 1:0.5 3:1.0\n 1:1.0\n")
    ds = parse_multilabel(str(path), m=3, d=4)
    assert ds.n == 2 and ds.d == 4 and ds.m == 3
    assert ds.labels[0] == (1, 0, 1)
    assert ds.dense_features()[0].tolist() == [0.5, 0.0, 1.0, 0.0]
    assert ds.labels[1] == (0, 0, 0)  # empty label field
    assert ds.dense_features()[1].tolist() == [1.0, 0.0, 0.0, 0.0]


def test_libsvm_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.libsvm"
    path.write_text("0 1:1.0\n5 1:1.0\n")
    with pytest.raises(DataFormatError, match="line 2"):
        parse_multilabel(str(path), m=3)
    path.write_text("0 1:x\n")
    with pytest.raises(DataFormatError, match="line 1"):
        parse_multilabel(str(path), m=3)
    path.write_text("0 0:1.0\n")
    with pytest.raises(DataFormatError, match="must be >= 1"):
        parse_multilabel(str(path), m=3)


def test_libsvm_repeated_indices_summed_in_sorted_rows(tmp_path):
    path = tmp_path / "dup.libsvm"
    path.write_text("0 3:1.5 1:0.5 3:0.25\n1 2:1 2:-1\n")
    f = parse_multilabel(str(path), m=2).features
    assert f.has_canonical_format
    assert f.indices.tolist() == [0, 2, 1] and f.indptr.tolist() == [0, 2, 3]
    assert f.data.tolist() == [0.5, 1.75, 0.0]


def test_parser_counts_all_lines(tmp_path):
    path = tmp_path / "counted.libsvm"
    path.write_text("# comment\n0 1:1.0\n\n1 2:2.0\n")
    ds = parse_multilabel(str(path), m=2)
    assert ds.n == 2  # comments/blanks skipped, everything else parsed


def test_round_trip_identity(tmp_path, rng):
    n, d, m = 20, 6, 4
    dense = np.where(rng.uniform(size=(n, d)) < 0.4, rng.normal(size=(n, d)), 0.0)
    labels = [tuple(int(b) for b in row) for row in rng.integers(0, 2, size=(n, m))]
    import scipy.sparse as sp

    ds = MultilabelDataset("toy", sp.csr_matrix(dense), labels, m)
    path = tmp_path / "rt.libsvm"
    write_libsvm(ds, str(path))
    back = parse_multilabel(str(path), m=m, d=d)
    assert back.labels == ds.labels
    assert np.allclose(back.dense_features(), dense)


def test_gzip_transparent(tmp_path):
    path = tmp_path / "toy.libsvm.gz"
    with gzip.open(path, "wt") as fh:
        fh.write("0 1:1.5\n1 2:0.5\n")
    ds = parse_multilabel(str(path), m=2)
    assert ds.n == 2
    assert ds.dense_features()[1, 1] == 0.5


def test_csv_format(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("y0,y1,f0,f1,f2\n1,0,0.5,1.0,-2.0\n0,1,0,0,3\n")
    ds = parse_multilabel(str(path), m=2, fmt="csv")
    assert ds.labels == [(1, 0), (0, 1)]
    assert ds.dense_features()[1].tolist() == [0.0, 0.0, 3.0]
    bad = tmp_path / "bad.csv"
    bad.write_text("y0,y1,f0\n1,0\n")
    with pytest.raises(DataFormatError, match="line 2"):
        parse_multilabel(str(bad), m=2, fmt="csv")


@pytest.mark.parametrize("label", ["1.5", "0.7", "2"])
def test_csv_label_not_zero_or_one_refused(tmp_path, label):
    path = tmp_path / "bad.csv"
    path.write_text(f"y0,y1,f0\n1.0,0,0.5\n{label},0,0.7\n")
    with pytest.raises(DataFormatError, match="line 3: labels must be 0/1"):
        parse_multilabel(str(path), m=2, fmt="csv")
    path.write_text("y0,y1,f0\n1.0,0,0.5\n")
    assert parse_multilabel(str(path), m=2, fmt="csv").labels == [(1, 0)]


def _toy_dataset(n=10, d=3, m=2, seed=0):
    import scipy.sparse as sp

    rng = np.random.default_rng(seed)
    labels = [tuple(int(b) for b in row) for row in rng.integers(0, 2, size=(n, m))]
    return MultilabelDataset("toy", sp.csr_matrix(rng.normal(size=(n, d))), labels, m)


def test_split_sizes_and_determinism():
    ds = _toy_dataset(n=10)
    tr, va, te = split(ds, (0.6, 0.2, 0.2), seed=7)
    assert (tr.n, va.n, te.n) == (6, 2, 2)
    tr2, va2, te2 = split(ds, (0.6, 0.2, 0.2), seed=7)
    assert np.allclose(tr.dense_features(), tr2.dense_features())
    assert va.labels == va2.labels and te.labels == te2.labels


@given(st.integers(3, 60), st.integers(0, 5))
@settings(max_examples=25, deadline=None)
def test_split_disjoint_cover(n, seed):
    ds = _toy_dataset(n=n, seed=1)
    tr, va, te = split(ds, (0.6, 0.2, 0.2), seed=seed)
    rows = np.vstack([p.dense_features() for p in (tr, va, te) if p.n])
    assert rows.shape[0] == n
    all_rows = {tuple(r) for r in np.round(rows, 12)}
    orig = {tuple(r) for r in np.round(ds.dense_features(), 12)}
    assert all_rows == orig


def test_split_bad_fractions():
    ds = _toy_dataset()
    with pytest.raises(ValueError):
        split(ds, (0.5, 0.2, 0.2))
    with pytest.raises(ValueError):
        split(ds, (-0.2, 0.6, 0.6))


def test_standardize_properties(rng):
    x = rng.normal(loc=3.0, scale=2.5, size=(50, 4))
    x[:, 2] = 7.0  # constant column
    tf = standardize(x)
    out = tf.apply(x)
    assert np.allclose(out[:, 2], 0.0)
    keep = [0, 1, 3]
    assert np.allclose(out[:, keep].mean(axis=0), 0.0, atol=1e-9)
    assert np.allclose(out[:, keep].std(axis=0), 1.0, atol=1e-9)
    # already-standardized input passes through (up to float noise)
    again = standardize(out[:, keep]).apply(out[:, keep])
    assert np.allclose(again, out[:, keep], atol=1e-12)


def test_round_trip_keeps_empty_rows(tmp_path, rng):
    n, d, m = 12, 5, 3
    dense = np.where(rng.uniform(size=(n, d)) < 0.4, rng.normal(size=(n, d)), 0.0)
    dense[3] = 0.0  # no labels and no features: a blank line would be skipped
    dense[7] = 0.0  # labels only
    labels = [tuple(int(b) for b in row) for row in rng.integers(0, 2, size=(n, m))]
    labels[3] = (0, 0, 0)
    labels[7] = (1, 0, 1)
    labels[9] = (0, 0, 0)  # features only
    ds = MultilabelDataset("toy", sp.csr_matrix(dense), labels, m)
    for name in ("rt.libsvm", "rt.libsvm.gz"):
        write_libsvm(ds, str(tmp_path / name))
        back = parse_multilabel(str(tmp_path / name), m=m, d=d)
        assert back.n == n
        assert back.labels == labels
        assert np.array_equal(back.dense_features(), dense)
    with gzip.open(tmp_path / "rt.libsvm.gz", "rt") as fh:
        assert fh.read().splitlines()[3] == " 1:0"
    empty = MultilabelDataset("empty", sp.csr_matrix((2, 0)), [(1,), (0,)], 1)
    with pytest.raises(ValueError, match="width 0"):
        write_libsvm(empty, str(tmp_path / "empty.libsvm"))
    assert not (tmp_path / "empty.libsvm").exists()
    for bad in (np.nan, np.inf, -np.inf):
        dense[0, 0] = bad  # the parser would refuse the file, so the writer refuses the data
        with pytest.raises(ValueError, match="non-finite"):
            bad_ds = MultilabelDataset("bad", sp.csr_matrix(dense), labels, m)
            write_libsvm(bad_ds, str(tmp_path / "bad.libsvm"))
        assert not (tmp_path / "bad.libsvm").exists()


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("fmt", ["libsvm_multilabel", "csv"])
def test_non_finite_features_refused_with_line(tmp_path, token, fmt):
    path = tmp_path / "bad.txt"
    if fmt == "csv":
        path.write_text(f"y0,y1,f0,f1\n1,0,0.5,1.0\n0,1,2.0,{token}\n")
        line = 3
    else:
        path.write_text(f"0 1:0.5 2:1.0\n1 1:2.0 2:{token}\n0 1:3.0\n")
        line = 2
    with pytest.raises(DataFormatError, match=f"line {line}: non-finite feature value"):
        parse_multilabel(str(path), m=2, fmt=fmt)


def test_predict_refuses_non_finite_file_with_line(tmp_path, capsys):
    train = tmp_path / "train.libsvm"
    train.write_text("".join(f"{i % 2} 1:{i / 10:.2f} 2:{1 - i / 10:.2f}\n" for i in range(10)))
    model = tmp_path / "m.npz"
    assert cli.main(["train", "--data", str(train), "--m", "2", "--loss", "hamming",
                     "--lambda", "0.1", "--out", str(model)]) == 0
    bad = tmp_path / "bad.libsvm"
    bad.write_text("0 1:0.5 2:0.5\n1 1:nan 2:0.5\n")
    capsys.readouterr()
    assert cli.main(["predict", "--model", str(model), "--data", str(bad)]) == cli.USAGE_ERROR
    assert "line 2: non-finite feature value '1:nan'" in capsys.readouterr().err


def _outcome(path, m, d, **patches):
    """Bitwise view of the parsed dataset, or the DataFormatError message."""
    with mock.patch.multiple(data, **patches):
        try:
            ds = parse_multilabel(str(path), m=m, d=d)
        except DataFormatError as exc:
            return str(exc)
    f = ds.features
    arrays = (f.data, f.indices, f.indptr)
    return [(a.dtype.str, a.tobytes()) for a in arrays], f.shape, ds.labels


def _loop_only():
    return {"_libsvm_block_bulk": mock.Mock(return_value=None)}


# an index of 18 digits, the longest the bulk path reads; one of 19 that int()
# reads as 3; and 2**64 + 5, which an int64 would wrap to 5
_LONG_INDEX = "999999999999999999"
_TOO_LONG_INDEX = "0" * 18 + "3"
_WRAPPING_INDEX = str(2**64 + 5)
# tokens Python's int()/float() accept, and the ones the loop refuses
_GOOD_TOKEN = st.builds(
    "{}:{}".format,
    st.sampled_from(
        ["1", "2", "3", "2", "007", "1_0", "+1", "\u0663", _LONG_INDEX, _TOO_LONG_INDEX]
    ),
    st.sampled_from(
        ["0.5", "-2", "1e-3", ".5", "-0", "7", "1e5", "+.5", "1_0", "+1", "\u0663", "\u0663.5"]
    ),
)
_BAD_TOKEN = st.sampled_from(
    ["1.0:", "1e0:", "1.0:2", "0:1", "-1:1", ":5", "1:2:3", "1:", "5", "::", "1:nan", "1:0x1",
     "1:-", "000:1"]
)
# "\x01" is no whitespace to str.split, so it joins its neighbours into one token
_SEP = st.sampled_from([" ", " ", "  ", "\t", "\x1c", "\x0b", "\x0c", "\r\n", "\x01"])
_GOOD_LABEL = st.sampled_from(["", "", "0", "1,2", "2,0", "0,0", "+1", "\u0662"])
_BAD_LABEL = st.sampled_from(["x", "3", "1_0", "\t1", "1:1"])
_SKIPPED = st.sampled_from(["", "   ", "\t", "# comment 1:2:3"])


def _lines(label, token):
    """Lines of `label` then whitespace-separated tokens (a space after an
    empty label field), or skipped lines."""
    features = st.lists(st.tuples(_SEP, token), max_size=6).map(
        lambda ts: "".join(sep + tok for sep, tok in ts).lstrip(" ")
    )
    line = st.builds(lambda lab, feats: f"{lab} {feats}", label, features)
    return st.lists(st.one_of(line, line, line, _SKIPPED), min_size=1, max_size=12)


# half the files draw only from the accepted alphabet, so the bulk path runs
_FILES = st.one_of(
    _lines(_GOOD_LABEL, _GOOD_TOKEN),
    _lines(st.one_of(_GOOD_LABEL, _BAD_LABEL), st.one_of(_GOOD_TOKEN, _BAD_TOKEN)),
)


@given(_FILES, st.booleans(), st.sampled_from([1, 2, 64]), st.sampled_from([None, 7]))
# a token without a colon next to one with two colons, an empty index or an
# empty value: each pair has two parts per colon, like a valid block
@example(["0 1:7 5"], True, 64, None)
@example(["0 1:2:3 5"], True, 64, None)
@example(["0 :5 5"], True, 64, None)
@example(["0 5: 5"], True, 64, None)
# the cases the byte pass decides: separators and control bytes it leaves to
# the loop, indices of 3, 18, 19 and 20 digits, an index 0 or empty, signed
# and exponent values, a bare sign, a non-ASCII digit, and a one-row file
@example(["0 1:1\x0b2:2"], True, 64, None)
@example(["0 1:1\x0c2:2"], True, 64, None)
@example(["0 1:1\r\n2:2"], True, 64, None)
@example(["0 1:1\x012:2"], True, 64, None)
@example(["0 1:5 \x01 2:3"], True, 64, None)
@example(["0 007:1 2:2"], True, 64, 7)
@example([f"0 {_TOO_LONG_INDEX}:1"], True, 64, None)
@example([f"0 {_LONG_INDEX}:1 1:2"], False, 64, None)
@example([f"0 {_WRAPPING_INDEX}:1"], True, 64, 7)
@example(["0 1:1 0:1", "1 2:1"], True, 64, 7)
@example(["0 :5"], True, 64, None)
@example(["0 2:1 1:"], True, 64, None)
@example(["0 1:1e5 2:+.5"], True, 64, None)
@example(["0 1:+.5 2:1"], True, 2, None)
@example(["0 2:1 1:-"], True, 64, None)
@example(["0 1:\u0663"], True, 64, None)
@example(["1 3:0.25"], False, 64, None)
# what numpy's reader decides: label-only blocks, which leave it no data; a
# comment or quote character; 16 to 20 significant digits; subnormal, underflowing
# and just-below-normal values; infinity spelled out; and a negative zero
@example(["0 "], True, 64, None)
@example(["0,1 ", "", "2 "], False, 2, None)
@example(["0 1:#5"], True, 64, None)
@example(["0 1:5 2:#5 3:7"], True, 64, None)
@example(['0 1:"5"'], True, 64, None)
@example(["0 1:0.12345678901234567 2:1.2345678901234567891"], True, 64, None)
@example(["0 1:12345678901234567890 2:-98765432109876543.21"], True, 64, None)
@example(["0 1:9007199254740993 2:1.0000000000000001110"], True, 64, None)
@example(["0 1:4.9e-324 2:1e-400 3:2.2250738585072011e-308"], True, 64, None)
@example(["0 1:infinity"], True, 64, None)
@example(["0 1:-0 2:-0.0"], True, 64, None)
@settings(max_examples=300, deadline=None)
def test_bulk_path_matches_loop(tmp_path_factory, lines, final_newline, block_rows, d):
    path = tmp_path_factory.getbasetemp() / "tricky.libsvm"
    path.write_text("\n".join(lines) + ("\n" if final_newline else ""), encoding="utf-8")
    bulk = _outcome(path, 3, d, _BLOCK_ROWS=block_rows)
    assert bulk == _outcome(path, 3, d, _BLOCK_ROWS=block_rows, **_loop_only())


def _write_scene_shaped(path, n=1926, d=294, m=6, seed=0, full_precision=False):
    """Scene-sized libsvm file with six-decimal values, or with each value's
    shortest round-trip repr (the rows ``qsl predict`` reads); returns the
    dense rows the file holds and the labels."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-0.1, 1.1, size=(n, d))
    labels = rng.random(size=(n, m)) < 0.2
    value_format = "%r" if full_precision else "%.6f"
    row_format = " ".join(f"{j + 1}:{value_format}" for j in range(d))
    with open(path, "w", encoding="utf-8") as fh:
        for bits, row in zip(labels, x.tolist()):
            lab = ",".join(str(j) for j in np.flatnonzero(bits))
            fh.write(lab + " " + row_format % tuple(row) + "\n")
    dense = np.array([[float(value_format % v) for v in row] for row in x.tolist()])
    return dense, [tuple(int(b) for b in row) for row in labels]


def test_scene_shaped_file_bulk_matches_loop(tmp_path):
    for full_precision, n in ((False, 1926), (True, 481)):
        path = tmp_path / f"scene_{n}.libsvm"
        dense, labels = _write_scene_shaped(path, n=n, full_precision=full_precision)
        # every block takes the bulk path here
        bulk = _outcome(path, 6, None, _libsvm_block_loop=mock.Mock(side_effect=AssertionError))
        assert bulk == _outcome(path, 6, None, **_loop_only())
        ds = parse_multilabel(str(path), m=6)
        assert ds.labels == labels
        assert np.array_equal(ds.dense_features(), dense)


def test_scene_shaped_file_reads_values_once_per_block(tmp_path):
    # one np.loadtxt call per block of _BLOCK_ROWS rows, and no str.split of
    # feature text (a string with a space in it; label fields have none)
    path = tmp_path / "scene.libsvm"
    _write_scene_shaped(path, n=200)
    splits = []

    def profile(frame, event, arg):
        if event == "c_call" and getattr(arg, "__name__", "") == "split":
            owner = getattr(arg, "__self__", None)
            if isinstance(owner, str) and " " in owner:
                splits.append(owner)

    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as reader:
        sys.setprofile(profile)
        try:
            parse_multilabel(str(path), m=6)
        finally:
            sys.setprofile(None)
    assert reader.call_count == -(-200 // data._BLOCK_ROWS)
    assert splits == []


# tracemalloc peak of a parser that converts every token in the Python loop and
# builds the CSR matrix from COO lists, on the file of _write_scene_shaped
# (numpy 2.4, scipy 1.17, Python 3.11)
LOOP_PEAK_BYTES = 45_872_634


def test_scene_shaped_parse_peak_memory(tmp_path):
    path = tmp_path / "scene.libsvm"
    _write_scene_shaped(path)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        parse_multilabel(str(path), m=6)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= LOOP_PEAK_BYTES
