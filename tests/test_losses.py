"""Loss evaluators, affine decompositions, sharp constants, and embeddings."""

import json
import math

import numpy as np
import pytest

import qslearn.losses.base as base
from hypothesis import given, settings
from hypothesis import strategies as st

from qslearn.decode import decode_bruteforce
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
    f_max, u_max = enumerated_constants(FScore(3, side="p"))
    assert f_max == pytest.approx(1.0, rel=1e-12)  # attained at z = 0
    assert u_max == pytest.approx(2.0, rel=1e-12)
    f_max_a, u_max_a = enumerated_constants(FScore(3, side="a"))
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
    assert Hamming(4).embed((1, 1, 1, 1)).tolist() == [1.0, 1.0, 1.0, 1.0]


def test_ndcg_embed_equal_relevance():
    loss = NDCGType(3, R=2)
    u = loss.embed((2, 2, 2))
    assert np.allclose(u, u[0])
    # best ranking recovers the normalizer exactly
    assert u @ np.sort(loss.discount)[::-1] == pytest.approx(1.0, abs=1e-12)


def test_pd_embed_degenerate_zero():
    loss = PairwiseDisagreement(4)
    assert np.all(loss.embed((0, 0, 0, 0)) == 0.0)
    assert np.all(loss.embed((1, 1, 1, 1)) == 0.0)
    assert loss.is_degenerate((0, 0, 0, 0))


def test_embed_validates_labels():
    with pytest.raises(InvalidLabelError):
        Hamming(3).embed((0, 1))
    with pytest.raises(InvalidLabelError):
        NDCGType(3, R=2).embed((0, 5, 1))
    with pytest.raises(InvalidLabelError):
        MeanAveragePrecision(3).embed((1, 2))


EXPECTED_CASES = [
    make_loss(name, 4, **{"prec_at_k": {"k": 3},
                          "block_zero_one": {"partition": popcount_partition(4)}}.get(name, {}))
    for name in LOSS_NAMES
] + [PrecAtK(5, 2), FScore(5, side="a"),
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
    with pytest.raises(LossConfigError):
        NDCGType(3, R=2, discount=[1.0, 0.5, 0.5])  # not strict
    with pytest.raises(LossConfigError):
        NDCGType(3, R=2, discount=[0.9, 0.5, 0.4])  # D_1 != 1
    with pytest.raises(LossConfigError):
        FScore(3, side="q")
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


def test_loss_config_round_trip():
    for loss in ALL_SMALL + [ExpectedRankUtility(4, R=4, neutral=3),
                             NDCGType(3, R=2, gain=[0.0, 0.5, 2.0], discount=[1.0, 0.5, 0.2])]:
        cfg = loss_config(loss)
        rebuilt = make_loss(**cfg)
        assert type(rebuilt) is type(loss) and loss_config(rebuilt) == cfg
        assert rebuilt.r == loss.r
        np.testing.assert_array_equal(rebuilt.output_table.f, loss.output_table.f)
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


def test_eru_saved_as_ndcg_tables_still_loads():
    # model files of formats 1 and 2 wrote an eru loss as ndcg plus its tables
    eru = ExpectedRankUtility(4, R=3)
    old = {"name": "ndcg", "m": 4, "R": 3, "gain": [0.0, 0.0, 1.0, 2.0],
           "discount": [1.0, 0.5, 0.25, 0.125]}
    loaded = make_loss(**old)
    assert loss_config(loaded) == old
    np.testing.assert_array_equal(loaded.output_table.f, eru.output_table.f)
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
