"""Loss evaluators, affine decompositions, sharp constants, and embeddings."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

import qslearn.losses.base as base
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from qslearn.decode import argmin_untied, decode_bruteforce
from qslearn.estimator import fit, predict_batch
from qslearn.kernels import KernelSpec, cross_kernel
from qslearn.losses import (
    BlockZeroOne,
    SpaceTooLargeError,
    ExpectedRankUtility,
    FScore,
    Hamming,
    InvalidLabelError,
    LOSS_NAMES,
    DiscreteLoss,
    LabelSpace,
    LossConfigError,
    MeanAveragePrecision,
    NDCGType,
    PairwiseDisagreement,
    PrecAtK,
    ZeroOne,
    decomposition_check,
    enumerated_constants,
    loss_config,
    make_loss,
)

from conftest import (
    REQUIRED,
    TransposedFScore,
    loss_ids,
    popcount_partition,
    random_instance,
    random_partition,
    small_losses,
)

ALL_SMALL = small_losses()


# ---------------------------------------------------------------------------
# evaluator spot values
# ---------------------------------------------------------------------------

def test_hamming_value():
    loss = Hamming(4)
    assert loss.value((0, 1, 0, 1), (0, 1, 1, 1)) == pytest.approx(0.25)
    assert loss.value((1, 1, 1, 1), (1, 1, 1, 1)) == 0.0


def test_prec_at_k_value():
    loss = PrecAtK(4, 2)
    z = (1, 1, 0, 0)  # items {0, 1}
    y = (0, 1, 1, 0)  # items {1, 2}
    assert loss.value(z, y) == pytest.approx(0.5)


def test_fscore_value():
    loss = FScore(3)
    assert loss.value((1, 0, 0), (1, 1, 0)) == pytest.approx(1.0 / 3.0)
    assert loss.value((0, 0, 0), (0, 0, 0)) == 0.0
    assert loss.value((1, 0, 0), (0, 0, 0)) == 1.0
    assert loss.value((0, 0, 0), (1, 0, 0)) == 1.0


def _fscore_coordinates(x):
    """a[l-1, j] = x_j 1(|x| = l) and b[l-1, j] = x_j / (|x| + l), flattened."""
    size = sum(x)
    ell = np.arange(1, len(x) + 1)[:, None]
    bits = np.array(x, dtype=float)[None, :]
    return (bits * (ell == size)).ravel(), (bits / (size + ell)).ravel()


@pytest.mark.parametrize("loss_class", [FScore, TransposedFScore], ids=["p", "a"])
def test_fscore_rows_equal_the_paper_embeddings_exactly(loss_class):
    # FScore: F = -b, U = 2a; the transposed reference: F = -a, U = 2b; the
    # empty set puts -1 (F) or +1 (U) in the last coordinate
    for m in range(1, 9):
        loss = loss_class(m)
        for x in itertools.product((0, 1), repeat=m):
            a, b = _fscore_coordinates(x)
            empty = float(sum(x) == 0)
            f, u = (-a, 2 * b) if loss_class is TransposedFScore else (-b, 2 * a)
            assert np.array_equal(loss.f_row(x), np.append(f, -empty)), (m, x)
            assert np.array_equal(loss.u_row(x), np.append(u, empty)), (m, x)


@pytest.mark.parametrize("m", [3, 5])
def test_fscore_transposed_decomposition_is_the_same_estimator(m):
    # the paper's transposed decomposition F_a = -a, U_a = 2b, built here
    # from the coordinates; with M[l, k] = 1/(l + k) on every item, U_a =
    # U_p M, so ridge gives C_a = C_p M and F_a . theta_a = F_p . theta_p
    loss, labels = FScore(m), list(LabelSpace.grid(m))
    a, b = (np.array(v) for v in zip(*map(_fscore_coordinates, labels)))
    empty = np.array([[float(sum(x) == 0)] for x in labels])
    f_a, u_a = np.hstack([-a, -empty]), np.hstack([2 * b, empty])
    values = np.array([[loss.value(z, y) for y in labels] for z in labels])
    assert np.array_equal(f_a @ u_a.T + 1.0, values)

    rng = np.random.default_rng(m)
    n, lam = 80, 0.01
    x, at = rng.normal(size=(n, 2)), rng.integers(len(labels), size=n)
    model = fit(loss, KernelSpec("gaussian", 1.0), lam, x, [labels[i] for i in at])
    c_a = np.linalg.solve(cross_kernel(model.kernel, x, x) + n * lam * np.eye(n), u_a[at])
    pos = np.arange(1, m + 1)
    conversion = block_diag(np.kron(1.0 / (pos[:, None] + pos[None, :]), np.eye(m)), 1.0)
    assert np.linalg.norm(c_a - model.coefficients @ conversion) <= 1e-12 * np.linalg.norm(c_a)

    x_test = rng.normal(size=(300, 2))
    thetas = cross_kernel(model.kernel, x_test, x) @ c_a
    compared = 0
    for label, theta in zip(predict_batch(model, x_test), thetas):
        if argmin_untied(f_a, theta):
            assert label == labels[int(np.argmin(f_a @ theta))]
            compared += 1
    assert compared >= 250


def test_zero_one_and_block_values():
    lz = ZeroOne(3)
    assert lz.value((0, 1, 0), (0, 1, 0)) == 0.0
    assert lz.value((0, 1, 0), (0, 1, 1)) == 1.0
    lb = BlockZeroOne(3, popcount_partition(3))
    assert lb.value((1, 0, 0), (0, 0, 1)) == 0.0  # same popcount block
    assert lb.value((1, 0, 0), (1, 1, 0)) == 1.0


def test_ndcg_value_perfect_ranking():
    loss = NDCGType(3, R=3)
    y = (3, 1, 0)
    sigma = (1, 2, 3)  # ranks items in gain order
    assert loss.value(sigma, y) == pytest.approx(0.0, abs=1e-15)
    worst = (3, 2, 1)
    assert loss.value(worst, y) > 0.0


def test_pd_value_and_range():
    loss = PairwiseDisagreement(3)
    y = (0, 1, 0)
    best = (2, 1, 3)  # relevant item 1 on top
    assert loss.value(best, y) == 0.0
    worst = (1, 3, 2)
    assert loss.value(worst, y) == 1.0


def test_map_value():
    loss = MeanAveragePrecision(2)
    assert loss.value((1, 2), (1, 1)) == 0.0
    assert loss.value((2, 1), (1, 0)) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# decomposition identity and constants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("loss", ALL_SMALL, ids=loss_ids(ALL_SMALL))
def test_decomposition_identity_small(loss):
    assert decomposition_check(loss) <= 1e-12


def test_decomposition_identity_spec_sizes():
    assert decomposition_check(Hamming(5)) <= 1e-12
    assert decomposition_check(NDCGType(4, R=3)) <= 1e-12
    assert decomposition_check(MeanAveragePrecision(4)) <= 1e-12


def test_decomposition_identity_upper_size_bounds():
    # the exhaustive check must reach subsets m=10 and permutations m=7
    assert decomposition_check(Hamming(10)) <= 1e-12
    assert decomposition_check(PairwiseDisagreement(7)) <= 1e-12
    with pytest.raises(SpaceTooLargeError, match="sampled"):
        decomposition_check(ZeroOne(11))


def test_loss_matrix_is_value_built_once_per_column(monkeypatch):
    def refuse(*args):
        raise AssertionError("loss_matrix read the decomposition")

    for loss in small_losses():
        cls = type(loss)
        ys = list(loss.observations())
        want = np.array([[loss.value(z, y) for y in ys] for z in loss.outputs()])
        calls = []
        value = cls.value
        monkeypatch.setattr(cls, "value", lambda self, z, y: calls.append(1) or value(self, z, y))
        monkeypatch.setattr(cls, "f_row", refuse)
        monkeypatch.setattr(cls, "u_row", refuse)
        monkeypatch.setattr(cls, "output_table", property(refuse))
        assert np.array_equal(loss.loss_matrix(ys[::2]), want[:, ::2])
        assert np.array_equal(loss.loss_matrix(ys + ys[:1]), np.hstack([want, want[:, :1]]))
        assert loss.loss_matrix([]).shape == (loss.n_outputs(), 0)
        assert len(calls) == loss.n_outputs() * len(ys)
        monkeypatch.undo()


def test_loss_matrix_cells_are_capped(monkeypatch):
    monkeypatch.setattr(base, "TABLE_CELLS", 64)
    loss = Hamming(4)  # 16 outputs: at most 4 columns, asked for or kept
    ys = list(loss.observations())
    assert loss.loss_matrix(ys[:4]).shape == (16, 4)
    with pytest.raises(SpaceTooLargeError):
        loss.loss_matrix(ys[4:5])
    with pytest.raises(SpaceTooLargeError):
        Hamming(4).loss_matrix(ys[:1] * 5)
    monkeypatch.undo()
    with pytest.raises(SpaceTooLargeError):
        ZeroOne(30).loss_matrix(iter(ys))  # refused before Z is enumerated


def _traced_peak(call):
    """call()'s result and the peak of the memory traced while it runs."""
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cached_loss_matrix_is_one_copy():
    loss = Hamming(12)  # 4096 outputs, 32 KiB a column
    ys = list(itertools.islice(loss.observations(), 1, 33))
    want = loss.loss_matrix(ys)
    got, peak = _traced_peak(lambda: loss.loss_matrix(ys))
    assert peak <= 1.25 * got.nbytes, peak / got.nbytes
    assert np.array_equal(got, want) and got.flags.f_contiguous
    assert not np.shares_memory(got, loss.loss_matrix(ys))


def test_loss_matrix_fill_lists_no_outputs():
    loss = PairwiseDisagreement(8)  # 40,320 outputs: as tuples they outweigh a column 14 times
    y = (0, 1) * 4
    got, peak = _traced_peak(lambda: loss.loss_matrix([y]))
    assert got.shape == (loss.n_outputs(), 1)
    assert np.array_equal(got[:50, 0], [loss.value(z, y) for z in itertools.islice(loss.outputs(), 50)])
    assert peak < 4 * got.nbytes, peak / got.nbytes


def _map_value_loop(loss, z, y):
    """MAP as one minus average precision, added up item by item."""
    s = sum(y)
    if s == 0:
        return 0.0
    ap = 0.0
    for j in range(loss.m):
        if not y[j]:
            continue
        hits = sum(1 for l in range(loss.m) if y[l] and z[l] <= z[j])
        ap += hits / z[j]
    return 1.0 - ap / s


@pytest.mark.parametrize("m", range(1, 7))
def test_map_value_equals_the_item_loop_bitwise(m):
    loss = MeanAveragePrecision(m)
    for z, y in itertools.product(loss.outputs(), loss.observations()):
        assert loss.value(z, y).hex() == _map_value_loop(loss, z, y).hex(), (z, y)


@pytest.mark.parametrize(
    "loss,expected",
    [
        (Hamming(4), 0.5),
        (Hamming(11), 0.5),
        (PrecAtK(4, 2), math.sqrt(2.0)),
        (ZeroOne(4), 4.0),
        (PairwiseDisagreement(8), 2.0),
        (BlockZeroOne(3, popcount_partition(3)), 2.0),
    ],
)
def test_sharp_constants_closed_forms(loss, expected):
    assert loss.sharp().a == pytest.approx(expected, abs=1e-9)


def test_map_sharp_constant_natural_log():
    sharp = MeanAveragePrecision(3).sharp()
    assert sharp.a == pytest.approx(0.5 * 3 * math.sqrt(math.log(4.0)), abs=1e-9)
    assert sharp.a == pytest.approx(1.76612, abs=1e-4)
    assert sharp.is_bound


def test_fscore_sharp_constant_is_min_of_sides():
    for m in (2, 3, 5):
        sharp = FScore(m).sharp()
        assert sharp.a == pytest.approx(math.sqrt(m * m + 1), abs=1e-9)
        assert sharp.a <= math.sqrt(2.0) * m + 1e-9
        assert sharp.is_bound


@pytest.mark.parametrize(
    "loss",
    [l for l in ALL_SMALL if not l.sharp().is_bound],
    ids=loss_ids([l for l in ALL_SMALL if not l.sharp().is_bound]),
)
def test_sharp_constant_matches_enumeration(loss):
    f_max, u_max = enumerated_constants(loss)
    sharp = loss.sharp()
    assert sharp.f_inf_norm == pytest.approx(f_max, rel=1e-12)
    assert sharp.u_max == pytest.approx(u_max, rel=1e-12)
    assert sharp.a == pytest.approx(math.sqrt(loss.r) * f_max * u_max, rel=1e-12)


def test_bound_mode_exact_components_documented():
    # the flagged bounds deviate from enumeration in the documented way
    f_max, u_max = enumerated_constants(FScore(3))
    assert f_max == pytest.approx(1.0, rel=1e-12)  # attained at z = 0
    assert u_max == pytest.approx(2.0, rel=1e-12)
    f_max_a, u_max_a = enumerated_constants(TransposedFScore(3))  # sharp().note's A2
    assert f_max_a == pytest.approx(math.sqrt(3), rel=1e-12)
    assert u_max_a == pytest.approx(1.0, rel=1e-12)
    f_map, u_map = enumerated_constants(MeanAveragePrecision(4))
    assert f_map == pytest.approx(math.sqrt(1 + 1 / 2 + 1 / 3 + 1 / 4), rel=1e-12)
    assert u_map == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("m", range(2, 7))
def test_pd_bound_mode_exact_components_documented(m):
    # the pairwise constant m/4 bounds the estimator; the note gives the
    # enumerated rank-m components, which the bound is not below
    loss = PairwiseDisagreement(m)
    sharp = loss.sharp()
    f_max, u_max = enumerated_constants(loss)
    exact_a = math.sqrt((m * m - 1) / 12.0)
    assert f_max == pytest.approx(math.sqrt(m * (m * m - 1) / 12.0), rel=1e-12)
    assert u_max == pytest.approx(1.0 / m, rel=1e-12)
    assert math.sqrt(loss.r) * f_max * u_max == pytest.approx(exact_a, rel=1e-12)
    assert sharp.is_bound and sharp.r == m * (m - 1) // 2
    assert sharp.a == pytest.approx(m / 4.0, abs=1e-12) and sharp.a <= exact_a + 1e-12
    for value in (f_max, u_max, exact_a):
        assert f"{value:.6g}" in sharp.note


def test_f_norm_field_matches_enumeration():
    for loss in ALL_SMALL:
        f_max, _ = enumerated_constants(loss)
        assert loss.f_norm == pytest.approx(f_max, rel=1e-12), loss.name


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------

def test_hamming_embed_all_ones():
    assert Hamming(4).u_row((1, 1, 1, 1)).tolist() == [1.0, 1.0, 1.0, 1.0]


def test_ndcg_embed_equal_relevance():
    loss = NDCGType(3, R=2)
    u = loss.u_row((2, 2, 2))
    assert np.allclose(u, u[0])
    # best ranking recovers the normalizer exactly
    assert u @ np.sort(loss.discount)[::-1] == pytest.approx(1.0, abs=1e-12)


def test_pd_embed_degenerate_zero():
    loss = PairwiseDisagreement(4)
    assert np.all(loss.u_row((0, 0, 0, 0)) == 0.0)
    assert np.all(loss.u_row((1, 1, 1, 1)) == 0.0)
    assert loss.is_degenerate((0, 0, 0, 0))


# the parameters beyond m = 4 of the losses that need some
PARAMS_AT_M4 = {"prec_at_k": {"k": 3}, "block_zero_one": {"partition": popcount_partition(4)}}
EXPECTED_CASES = [
    make_loss(name, 4, **PARAMS_AT_M4.get(name, {})) for name in LOSS_NAMES
] + [PrecAtK(5, 2), TransposedFScore(5),
     BlockZeroOne(5, random_partition(5, 6, np.random.default_rng(0)))]


@pytest.mark.parametrize("loss", EXPECTED_CASES, ids=loss_ids(EXPECTED_CASES))
def test_expected_embedding_gives_the_expected_loss(loss):
    # E[L(z, y)] = F_z . E[U_y] + c (1 - P(y degenerate)) for independent bits y
    m = loss.m
    qs = np.array([np.random.default_rng(m).uniform(size=m), np.zeros(m), np.ones(m),
                   np.full(m, 0.5)])
    ys = list(LabelSpace.grid(m))
    for q, expected in zip(qs, loss.expected_embedding(qs)):
        probs = [np.prod([qj if b else 1.0 - qj for qj, b in zip(q, y)]) for y in ys]
        p_degenerate = sum(p for p, y in zip(probs, ys) if loss.is_degenerate(y))
        for z in loss.outputs():
            direct = sum(p * loss.value(z, y) for p, y in zip(probs, ys))
            got = loss.f_row(z) @ expected + loss.offset * (1.0 - p_degenerate)
            assert got == pytest.approx(direct, abs=1e-13)
    if type(loss).expected_embedding is DiscreteLoss.expected_embedding:
        return
    # a closed form equals the enumeration it replaces
    for m in range(loss.config().get("k", 1), 11):
        big = make_loss(loss.name, m, **loss.config())
        qs = np.array([np.random.default_rng(m).uniform(size=m), np.zeros(m), np.ones(m),
                       np.full(m, 0.5)])
        want = DiscreteLoss.expected_embedding(big, qs)
        assert np.allclose(big.expected_embedding(qs), want, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("loss", EXPECTED_CASES, ids=loss_ids(EXPECTED_CASES))
def test_expected_embedding_takes_only_bit_probabilities(loss):
    m = loss.m
    q = np.random.default_rng(m).uniform(size=m)
    assert np.array_equal(loss.expected_embedding(q), loss.expected_embedding(q[None]))
    for shape in ((2, m + 1), (2, m - 1), (1, 2, m)):
        with pytest.raises(ValueError, match="shape"):
            loss.expected_embedding(np.full(shape, 0.5))
    for bad in (1.5, -0.25, np.nan, np.inf):
        with pytest.raises(ValueError, match=r"probabilities in \[0, 1\]"):
            loss.expected_embedding([[0.5] * m, [bad] + [0.5] * (m - 1)])


@pytest.mark.parametrize("name", LOSS_NAMES)
def test_expected_embedding_is_a_new_array(name):
    loss = make_loss(name, 4, **PARAMS_AT_M4.get(name, {}))
    q = np.random.default_rng(4).uniform(size=(3, 4))
    kept = q.copy()
    expected = loss.expected_embedding(q)
    assert expected is not q
    expected[...] = 2.0
    assert np.array_equal(q, kept)


# ---------------------------------------------------------------------------
# label spaces
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("loss", ALL_SMALL, ids=loss_ids(ALL_SMALL))
def test_label_space_contract(loss):
    spaces = [
        (list(loss.outputs()), loss.n_outputs(), loss.output_space.check),
        (list(loss.observations()), loss.n_observations(), loss.observation_space.check),
    ]
    for members, size, check in spaces:
        assert all(a < b for a, b in zip(members, members[1:]))  # canonical = lexicographic
        assert len(members) == size
        for label in members:
            check(label)
        with pytest.raises(InvalidLabelError):
            check((-1,) + members[0][1:])


def test_label_space_kinds():
    assert list(LabelSpace.grid(2)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert list(LabelSpace.ksubsets(3, 2)) == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    assert list(LabelSpace.permutations(2)) == [(1, 2), (2, 1)]
    assert LabelSpace.grid(2, 3).size == 16 and LabelSpace.ksubsets(5, 2).size == 10
    assert LabelSpace.permutations(25).size == math.factorial(25)
    assert (1, 1) not in LabelSpace.ksubsets(2, 1)
    assert (0, 2) not in LabelSpace.grid(2) and (0, 2) in LabelSpace.grid(2, 2)
    assert (1, 1) not in LabelSpace.permutations(2)
    # labels are tuples of ints, in every kind of space
    assert [0, 1] not in LabelSpace.grid(2)
    assert (1.0, 2.0, 3.0) not in LabelSpace.permutations(3)
    assert (0.0, 1.0) not in LabelSpace.grid(2) and (1.0, 0.0) not in LabelSpace.ksubsets(2, 1)
    assert (0, 1, 0) not in LabelSpace.grid(2)
    with pytest.raises(InvalidLabelError, match="length-2 bit tuple"):
        LabelSpace.grid(2).check((0, 2))
    with pytest.raises(InvalidLabelError, match="permutation of 1..3"):
        LabelSpace.permutations(3).check((1, 1, 2))
    with pytest.raises(InvalidLabelError, match="permutation of 1..3"):
        LabelSpace.permutations(3).check((1.0, 2.0, 3.0))
    # the observation spaces of the losses refuse labels of the wrong length or range
    for loss, y in ((Hamming(3), (0, 1)), (NDCGType(3, R=2), (0, 5, 1)),
                    (MeanAveragePrecision(3), (1, 2))):
        with pytest.raises(InvalidLabelError):
            loss.observation_space.check(y)


# ---------------------------------------------------------------------------
# parameter validation and config round-trip
# ---------------------------------------------------------------------------

def test_bad_parameters_rejected():
    with pytest.raises(LossConfigError):
        PrecAtK(3, 4)
    with pytest.raises(LossConfigError):
        PrecAtK(3, 0)
    with pytest.raises(LossConfigError):
        BlockZeroOne(2, [[(0, 0)], [(0, 1), (1, 0)]])  # misses (1,1)
    with pytest.raises(LossConfigError, match=r"subset \(0, 1\) in two blocks"):
        BlockZeroOne(2, [[(0, 0), (0, 1)], [(0, 1), (1, 0), (1, 1)]])  # overlap
    # entries are refused unless integral, never truncated: (0.5, 0) is no (0, 0)
    with pytest.raises(LossConfigError, match=r"partition subset 0: .*\(0\.5, 0\)"):
        BlockZeroOne(2, [[(0.5, 0), (1, 1)], [(0, 1), (1, 0.9)]])
    with pytest.raises(LossConfigError, match="partition subset 2: .*bit tuple"):
        BlockZeroOne(2, [[(0, 0), (1, 1)], [(0, 2), (1, 0)]])
    with pytest.raises(LossConfigError, match="empty block"):
        BlockZeroOne(1, [[(0,), (1,)], []])
    for params, message in [({"R": 0}, "R must be >= 1"), ({"gain": [0, 1]}, "R\\+1 entries"),
                            ({"gain": [0, 2, 1]}, "non-decreasing"),
                            ({"gain": [-1, 0, 0]}, "top gain must be positive"),
                            ({"gain": [-1, 0, 1]}, "relevance 0 must be >= 0"),
                            ({"gain": lambda t: t - 0.5}, "relevance 0 must be >= 0"),
                            ({"gain": [0, np.nan, 1]}, "gain must be finite"),
                            ({"gain": [0, 1, np.inf]}, "gain must be finite"),
                            ({"gain": lambda t: np.nan if t else 0.0}, "gain must be finite"),
                            ({"discount": [1.0, np.nan, 0.2]}, "discount must be finite"),
                            ({"discount": lambda j: np.nan if j > 1 else 1.0},
                             "discount must be finite"),
                            ({"discount": [1.0, 0.5]}, "m entries")]:
        with pytest.raises(LossConfigError, match=message):
            NDCGType(3, **{"R": 2, **params})
    with pytest.raises(LossConfigError):
        NDCGType(3, R=2, discount=[1.0, 0.5, 0.5])  # not strict
    with pytest.raises(LossConfigError):
        NDCGType(3, R=2, discount=[0.9, 0.5, 0.4])  # D_1 != 1
    with pytest.raises(LossConfigError):
        make_loss("fscore", 3, side="p")
    with pytest.raises(LossConfigError):
        make_loss("nope", 3)
    with pytest.raises(LossConfigError, match="unknown loss"):
        make_loss(["hamming"], 3)
    for m in (3.5, 3.0, True, "3", None):
        with pytest.raises(LossConfigError, match="hamming: m must be an integer"):
            make_loss("hamming", m)
    assert type(make_loss("hamming", np.int64(3)).m) is int
    with pytest.raises(LossConfigError):
        ExpectedRankUtility(3, R=2, neutral=2)


def test_ndcg_u_max_enumerates_when_no_gain_is_zero():
    # with G(0) > 0 no observation is degenerate and no single-relevant vector
    # attains 1/D_1, so U_max is the largest G(y_j)/N(y) over every y
    gain = np.array([0.5, 1.0, 2.0, 4.0])
    loss = NDCGType(3, R=3, gain=gain)
    best = 0.0
    for y in itertools.product(range(4), repeat=3):
        g = gain[list(y)]
        best = max(best, float(np.max(g) / (np.sort(g)[::-1] @ loss.discount)))
    assert loss.sharp().u_max == pytest.approx(best, rel=1e-14)
    assert best < 1.0 / loss.discount[0]


def test_loss_config_round_trip():
    library = [loss for loss in ALL_SMALL if not isinstance(loss, TransposedFScore)]
    for loss in library + [ExpectedRankUtility(4, R=4, neutral=3),
                           NDCGType(3, R=2, gain=[0.0, 0.5, 2.0], discount=[1.0, 0.5, 0.2])]:
        cfg = loss_config(loss)
        rebuilt = make_loss(**cfg)
        assert type(rebuilt) is type(loss) and loss_config(rebuilt) == cfg
        assert rebuilt.r == loss.r
        np.testing.assert_array_equal(rebuilt.output_table.rows, loss.output_table.rows)
        ys = list(loss.observations())
        zs = list(loss.outputs())
        assert rebuilt.value(zs[1], ys[-1]) == loss.value(zs[1], ys[-1])


def _library_loss_classes(cls=DiscreteLoss):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("qslearn."):
            yield sub
        yield from _library_loss_classes(sub)


def test_every_loss_class_is_made_by_name_and_round_trips():
    classes = set(_library_loss_classes())
    assert sorted(cls.name for cls in classes) == sorted(LOSS_NAMES)
    for cls in classes:
        loss = make_loss(cls.name, 3, **REQUIRED.get(cls.name, {}))
        assert type(loss) is cls
        cfg = loss_config(loss)
        assert json.loads(json.dumps(cfg)) == cfg
        rebuilt = make_loss(**cfg)
        assert type(rebuilt) is cls and loss_config(rebuilt) == cfg


@pytest.mark.parametrize("name", LOSS_NAMES)
def test_m_is_checked_by_the_loss_class_alone(name):
    cls = next(cls for cls in _library_loss_classes() if cls.name == name)
    params = PARAMS_AT_M4.get(name, {})
    for m, message in [(2.5, "must be an integer, got 2.5"), (True, "must be an integer, got True"),
                       ("3", "must be an integer, got '3'"),
                       (cls.least_m - 1, f"must be >= {cls.least_m}")]:
        with pytest.raises(LossConfigError) as direct:
            cls(m, **params)
        with pytest.raises(LossConfigError) as by_name:
            make_loss(name, m, **params)
        assert str(direct.value) == str(by_name.value) == f"{name}: m {message}"
    for loss in (cls(np.int64(4), **params), make_loss(name, np.int64(4), **params)):
        assert type(loss.m) is int and loss.m == 4


def test_eru_saved_as_ndcg_tables_still_loads():
    # model files of formats 1 and 2 wrote an eru loss as ndcg plus its tables
    eru = ExpectedRankUtility(4, R=3)
    old = {"name": "ndcg", "m": 4, "R": 3, "gain": [0.0, 0.0, 1.0, 2.0],
           "discount": [1.0, 0.5, 0.25, 0.125]}
    loaded = make_loss(**old)
    assert loss_config(loaded) == old
    # eru's callable discount gives the tables its lists gave
    assert NDCGType.config(eru) == {k: old[k] for k in ("R", "gain", "discount")}
    assert NDCGType.config(NDCGType(4, R=3, discount=lambda j: 2.0 ** (1 - j),
                                    gain=old["gain"])) == NDCGType.config(eru)
    np.testing.assert_array_equal(loaded.output_table.rows, eru.output_table.rows)
    for y in eru.observations():
        np.testing.assert_array_equal(loaded.u_row(y), eru.u_row(y))


def test_make_loss_refuses_unknown_names_and_parameters():
    with pytest.raises(LossConfigError) as exc:
        make_loss("f1", 3)
    assert all(name in str(exc.value) for name in LOSS_NAMES)
    with pytest.raises(LossConfigError, match="'k'"):
        make_loss("hamming", 4, k=2)
    with pytest.raises(LossConfigError, match="'bogus'"):
        make_loss("fscore", 3, bogus=1)
    with pytest.raises(LossConfigError, match="'k'"):
        make_loss("prec_at_k", 3)
    with pytest.raises(LossConfigError, match="'partition'"):
        make_loss("block_zero_one", 2)
    # config values that are not integers are refused, not truncated
    for name, params in [("prec_at_k", {"k": "2"}), ("prec_at_k", {"k": 2.5}),
                         ("ndcg", {"R": 2.0}), ("eru", {"R": "3"}), ("eru", {"neutral": 1.0})]:
        with pytest.raises(LossConfigError, match="must be an integer"):
            make_loss(name, 3, **params)


# ---------------------------------------------------------------------------
# invariants (range, offset invariance at the argmin level)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("loss", ALL_SMALL, ids=loss_ids(ALL_SMALL))
def test_loss_range_full_enumeration(loss):
    vals = [loss.value(z, y) for z in loss.outputs() for y in loss.observations()]
    assert min(vals) >= 0.0
    assert max(vals) <= 1.0 + 1e-12


@pytest.mark.parametrize("loss", ALL_SMALL, ids=loss_ids(ALL_SMALL))
def test_offset_invariance_of_argmin(loss, rng):
    # argmin_z sum_i w_i L(z, y_i) from the raw evaluator equals the
    # argmin of F_z . (sum_i w_i U_{y_i}) under the shared tie-break
    outs = list(loss.outputs())
    for _ in range(20):
        weights, ys, theta = random_instance(loss, rng, n=7)
        raw = decode_bruteforce(loss, weights, ys)
        scores = np.array([loss.f_row(z) @ theta for z in outs])
        via_decomposition = outs[int(np.argmin(scores))]
        assert raw == via_decomposition


@given(st.integers(1, 6), st.data())
@settings(max_examples=40, deadline=None)
def test_hamming_properties(m, data):
    loss = Hamming(m)
    bits = st.tuples(*[st.integers(0, 1)] * m)
    z = data.draw(bits)
    y = data.draw(bits)
    assert loss.value(z, y) == loss.value(y, z)
    assert loss.value(z, z) == 0.0
    assert abs(loss.f_row(z) @ loss.u_row(y) + loss.offset - loss.value(z, y)) < 1e-12


@given(st.integers(2, 5), st.data())
@settings(max_examples=40, deadline=None)
def test_embed_bounded_by_enumerated_umax(m, data):
    loss = PairwiseDisagreement(m)
    bits = st.tuples(*[st.integers(0, 1)] * m)
    y = data.draw(bits)
    assert np.max(np.abs(loss.u_row(y))) <= 2.0 / (m - 1) + 1e-12


def test_as_label_keeps_int_tuples_and_converts_the_rest():
    ints = (1, 0, True, 3)
    assert base.as_label(ints) is ints
    for raw in ([1, 0, 1], np.array([1, 0, 1]), (np.int64(1), 0, 1), (1.0, 0, 1),
                np.array([1.0, 0.0, 1.0])):
        label = base.as_label(raw)
        assert label == (1, 0, 1) and all(type(b) is int for b in label)
    # an entry that is not an integer is refused, not truncated
    for raw in ((1.5, 0, 1), [0.9, 0.2, 1], np.array([1.5, 0, 1]), (np.nan, 0, 1),
                (np.inf, 0, 1), ("1", 0, 1), "101", 3, [[1], 0, 1]):
        with pytest.raises(InvalidLabelError, match="not a tuple of integers"):
            base.as_label(raw)


def test_distinct_converts_and_checks_each_distinct_label_once(monkeypatch):
    space = LabelSpace.grid(3)
    labels = [[1, 0, 1], (0, 0, 0), np.array([1, 0, 1]), (1.0, 0, 1), (0, 0, 0), (0, 1, 1)]
    calls = []
    as_label = base.as_label
    monkeypatch.setattr(base, "as_label", lambda y: calls.append(y) or as_label(y))
    distinct, inverse = space.distinct(labels, "observation")
    assert distinct == [(1, 0, 1), (0, 0, 0), (0, 1, 1)]
    assert all(type(b) is int for z in distinct for b in z)
    assert inverse.tolist() == [0, 1, 0, 0, 1, 2] and inverse.dtype == np.intp
    assert len(calls) == 3
    assert space.distinct([], "observation")[0] == []
    with pytest.raises(InvalidLabelError, match="^observation 4: not a length-3 bit tuple"):
        space.distinct(labels[:4] + [(0, 2, 0), [1.5, 0, 0]], "observation")
    # the first bad element, also when a later one cannot be hashed
    with pytest.raises(InvalidLabelError, match="^state 1: not a length-3"):
        space.distinct([(0, 0, 0), (0, 0), 7, [[1], 0, 0]], "state")
    with pytest.raises(InvalidLabelError, match="^state 2: not a tuple of integers"):
        space.distinct([(0, 0, 0), (0, 1, 0), 7, (0, 0)], "state")
    with pytest.raises(InvalidLabelError, match="^z 1: not a permutation of 1..3"):
        LabelSpace.permutations(3).distinct([(3, 1, 2), (1, 1, 2)], "z")
