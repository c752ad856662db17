"""Kernel evaluation, Gram assembly, and ridge solve contracts."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist, squareform

import qslearn.kernels as kernels
from qslearn.kernels import (
    CDIST_MAX_FEATURES,
    GEMM_MIN_ROWS,
    GramMatrix,
    KernelSpec,
    build_gram,
    cross_kernel,
    median_heuristic,
    ridge_factor,
    solve_ridge,
    weights_at,
)

GAUSS = KernelSpec("gaussian", 1.0)
LINEAR = KernelSpec("linear")
# the least dimension whose batches take the product path of the distances;
# cases at d <= CDIST_MAX_FEATURES exercise the per-pair path, and the
# d-suffixed cases below run on both sides of that boundary
PRODUCT_D = CDIST_MAX_FEATURES + 1
BOUNDARY_D = (CDIST_MAX_FEATURES, PRODUCT_D)


def test_gaussian_identical_inputs_is_one():
    x = np.array([0.3, -1.2, 4.0])
    gram = build_gram(GAUSS, [x, x + 1e4, -x, x])
    assert np.all(np.diag(gram.entries) == 1.0)
    assert gram.entries[0, 3] == 1.0


def test_linear_dot_product():
    assert cross_kernel(LINEAR, [1.0, 2.0], [[3.0, 4.0]]).tolist() == [[11.0]]


def test_gaussian_half_at_analytic_distance():
    # exp(-d^2/2) = 1/2 at d = sqrt(2 ln 2)
    d = math.sqrt(2.0 * math.log(2.0))
    assert cross_kernel(GAUSS, [0.0], [[d]])[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert build_gram(GAUSS, [[0.0], [d]]).entries[0, 1] == pytest.approx(0.5, abs=1e-15)


def test_kernel_dimension_mismatch():
    with pytest.raises(ValueError):
        cross_kernel(GAUSS, [1.0], [[1.0, 2.0]])
    with pytest.raises(ValueError):
        cross_kernel(GAUSS, np.ones((GEMM_MIN_ROWS, 1)), [[1.0, 2.0]])


def test_bad_kernel_spec():
    with pytest.raises(ValueError):
        KernelSpec("gaussian", 0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite bandwidth"):
            KernelSpec("gaussian", bad)
    with pytest.raises(ValueError):
        KernelSpec("sigmoid", 1.0)


def test_gram_single_and_identical_points():
    g1 = build_gram(GAUSS, [[0.5, 0.5]])
    assert g1.entries.tolist() == [[1.0]]
    g2 = build_gram(GAUSS, [[1.0, 2.0], [1.0, 2.0]])
    assert np.allclose(g2.entries, np.ones((2, 2)))


def test_gram_matches_pairwise_eval(rng):
    x = rng.normal(size=(3, 4))
    for spec in (GAUSS, LINEAR, KernelSpec("gaussian", 0.7)):
        gram = build_gram(spec, x)
        if spec.kind == "linear":
            manual = [[float(a @ b) for b in x] for a in x]
        else:
            manual = [[math.exp(-float(np.sum((a - b) ** 2)) / (2.0 * spec.bandwidth**2))
                       for b in x] for a in x]
        assert np.allclose(gram.entries, manual, atol=1e-12)


@pytest.mark.parametrize("shape", [(50, 588), (300, 4)])
def test_linear_gram_symmetric_on_any_layout(shape, rng):
    # x @ x.T on a strided view is not bitwise symmetric by itself
    full = rng.normal(size=shape)
    view = full[:, ::2]
    for x in (view.copy(), np.asfortranarray(view), view):
        got = build_gram(LINEAR, x).entries
        assert np.array_equal(got, got.T)
        ref = x @ x.T
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_gram_empty_input_rejected():
    with pytest.raises(ValueError):
        build_gram(GAUSS, np.empty((0, 3)))
    for spec in (GAUSS, LINEAR):
        for lead in (0, 4):
            with pytest.raises(ValueError, match="lead must be within 1..3"):
                build_gram(spec, np.ones((3, 2)), lead=lead)


def test_gram_invariants_random(rng):
    for _ in range(5):
        x = rng.normal(size=(rng.integers(2, 30), 3))
        for spec in (GAUSS, LINEAR):
            k = build_gram(spec, x).entries
            assert np.array_equal(k, k.T)
            # positive semi-definite: a Cholesky with a jitter of 1e-10 times
            # the mean diagonal succeeds
            np.linalg.cholesky(k + 1e-10 * np.trace(k) / len(k) * np.eye(len(k)))


def test_solve_ridge_scalar():
    gram = GramMatrix(np.array([[1.0]]), GAUSS)
    for u, lam in [(2.5, 0.3), (-1.0, 1.0)]:
        coef, _ = solve_ridge(gram, np.array([[u]]), lam)
        assert coef[0, 0] == pytest.approx(u / (1 + lam), rel=1e-14)


def test_solve_ridge_takes_a_1d_psi_as_one_column(rng):
    gram = build_gram(GAUSS, rng.normal(size=(6, 2)))
    psi = rng.normal(size=6)
    coef, _ = solve_ridge(gram, psi, 0.3)
    column, _ = solve_ridge(gram, psi[:, None], 0.3)
    assert coef.shape == (6, 1) and np.array_equal(coef, column)


def test_solve_ridge_zero_rhs(rng):
    x = rng.normal(size=(6, 2))
    coef, _ = solve_ridge(build_gram(GAUSS, x), np.zeros((6, 3)), 0.5)
    assert np.all(coef == 0.0)


@pytest.mark.parametrize("n", [5, 50, 200])
def test_solve_ridge_residual(n, rng):
    x = rng.normal(size=(n, 3))
    gram = build_gram(GAUSS, x)
    psi = rng.normal(size=(n, 4))
    lam = 0.1
    coef, _ = solve_ridge(gram, psi, lam)
    lhs = (gram.entries + lam * n * np.eye(n)) @ coef
    resid = np.linalg.norm(lhs - psi) / np.linalg.norm(psi)
    assert resid < 1e-8


def test_ridge_factor_allocates_one_copy_of_k():
    # K + lambda n I is built in one n x n copy of K and factored in place,
    # and nothing scans it for non-finite entries (K was checked when built)
    n = 1500
    gram = build_gram(GAUSS, np.random.default_rng(5).normal(size=(n, 3)))
    tracemalloc.start()
    try:
        ridge_factor(gram, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.02 * n * n * 8


def test_ridge_factor_in_place_allocates_no_copy_of_k():
    # with overwrite, K's own entries are shifted and factored: the factor
    # holds K's memory, and K's diagonal is the only copy made
    n = 1500
    gram = build_gram(GAUSS, np.random.default_rng(5).normal(size=(n, 3)))
    want = ridge_factor(gram, 1e-3)[0]
    tracemalloc.start()
    try:
        factor = ridge_factor(gram, 1e-3, overwrite=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.01 * n * n * 8
    assert np.shares_memory(factor[0], gram.entries)
    assert np.array_equal(np.tril(factor[0]), np.tril(want))


def test_ridge_factor_failure_reports_smallest_eigenvalue():
    # K + lambda n I = [[0.2, 1], [1, 0.2]] has eigenvalues 1.2 and -0.8; the
    # in-place factor reads K back from the triangle LAPACK did not touch
    for overwrite in (False, True):
        gram = GramMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), LINEAR)
        with pytest.raises(np.linalg.LinAlgError, match="smallest eigenvalue -8.000e-01"):
            ridge_factor(gram, 0.1, overwrite=overwrite)
    # a K with negative eigenvalues whose factorization fails part way (at
    # pivot 38 of 60), after LAPACK has overwritten the leading diagonal
    rng = np.random.default_rng(2)
    q, _ = np.linalg.qr(rng.normal(size=(60, 60)))
    k = (q * np.linspace(-0.5, 3.0, 60)) @ q.T
    k = (k + k.T) / 2.0
    lam = 0.1 / 60
    for overwrite in (False, True):
        smallest = np.linalg.eigvalsh(k)[0] + lam * 60
        with pytest.raises(np.linalg.LinAlgError, match=f"smallest eigenvalue {smallest:.3e}"):
            ridge_factor(GramMatrix(k.copy(), LINEAR), lam, overwrite=overwrite)


def test_solve_ridge_rejects_bad_inputs(rng):
    gram = build_gram(GAUSS, rng.normal(size=(4, 2)))
    with pytest.raises(ValueError):
        solve_ridge(gram, np.zeros((3, 2)), 0.1)
    with pytest.raises(ValueError):
        solve_ridge(gram, np.zeros((4, 2)), 0.0)


@pytest.mark.parametrize("lam", [math.nan, math.inf])
def test_ridge_factor_refuses_non_finite_lambda(lam, rng):
    gram = build_gram(GAUSS, rng.normal(size=(4, 2)))
    with pytest.raises(ValueError, match="lambda must be positive and finite"):
        ridge_factor(gram, lam)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_gram_refuses_non_finite_entries(bad):
    with pytest.raises(ValueError, match="Gram matrix is not finite"):
        GramMatrix(np.array([[1.0, bad], [bad, 1.0]]), LINEAR)


def test_linear_gram_that_overflows_is_refused():
    # finite rows whose inner products overflow to inf
    with pytest.raises(ValueError, match="Gram matrix is not finite"):
        build_gram(LINEAR, np.array([[1e200, 1.0], [-1e200, 2.0]]))


def test_ridge_factor_refuses_a_shift_that_overflows():
    gram = GramMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]), LINEAR)
    with pytest.raises(ValueError, match="not finite"):
        ridge_factor(gram, 1e308)  # lambda n = 2e308


def test_solve_ridge_refuses_non_finite_psi(rng):
    gram = build_gram(GAUSS, rng.normal(size=(4, 2)))
    psi = np.zeros((4, 2))
    psi[2, 1] = math.nan
    with pytest.raises(ValueError, match="Psi is not finite"):
        solve_ridge(gram, psi, 0.1)


def test_weights_at_refuses_non_finite_cross_kernel(rng):
    gram = build_gram(GAUSS, rng.normal(size=(4, 2)))
    k_x = np.ones((3, 4))
    k_x[1, 3] = math.inf
    with pytest.raises(ValueError, match="cross-kernel is not finite"):
        weights_at(ridge_factor(gram, 0.1), k_x)
    assert weights_at(ridge_factor(gram, 0.1), k_x[[0, 2]]).shape == (2, 4)


def test_weights_single_point():
    gram = GramMatrix(np.array([[1.0]]), GAUSS)
    _, factor = solve_ridge(gram, np.array([[1.0]]), 0.25)
    alpha = weights_at(factor, np.array([1.0]))
    assert alpha[0] == pytest.approx(1.0 / 1.25, rel=1e-14)


def test_weights_interpolation_limit(rng):
    x = rng.uniform(size=(8, 2)) * 4.0  # well-separated under bw=0.3
    spec = KernelSpec("gaussian", 0.3)
    gram = build_gram(spec, x)
    _, factor = solve_ridge(gram, np.eye(8), 1e-12)
    for i in range(8):
        alpha = weights_at(factor, gram.entries[i])
        assert np.max(np.abs(alpha - np.eye(8)[i])) < 1e-4


def test_two_path_consistency(rng):
    # sum_i alpha_i(x) psi_i equals C^T K_x for any x
    x = rng.normal(size=(20, 3))
    psi = rng.normal(size=(20, 5))
    gram = build_gram(GAUSS, x)
    coef, factor = solve_ridge(gram, psi, 0.05)
    for _ in range(10):
        pt = rng.normal(size=3)
        k_x = cross_kernel(GAUSS, pt, x)[0]
        g_c = coef.T @ k_x
        g_alpha = psi.T @ weights_at(factor, k_x)
        assert np.max(np.abs(g_c - g_alpha)) < 1e-8


def test_median_heuristic_degenerate():
    assert median_heuristic(np.zeros((5, 2))) == 1.0
    assert median_heuristic(np.zeros((1, 2))) == 1.0


def test_cross_kernel_needs_a_bandwidth():
    with pytest.raises(ValueError, match="bandwidth"):
        cross_kernel(KernelSpec("gaussian"), [[0.0, 1.0]], [[1.0, 2.0]])


def test_cross_kernel_dimension_mismatch(rng):
    with pytest.raises(ValueError):
        cross_kernel(GAUSS, rng.normal(size=(2, 3)), rng.normal(size=(4, 2)))


# scipy's per-pair distances: the reference the product-based kernels are
# held to, within 1e-12 relative on every entry
def _scipy_gram(x, bandwidth):
    return np.exp(-squareform(pdist(x, "sqeuclidean")) / (2.0 * bandwidth**2))


def _scipy_cross(x_test, x_train, bandwidth):
    return np.exp(-cdist(x_test, x_train, "sqeuclidean") / (2.0 * bandwidth**2))


def _scipy_median(x):
    med = float(np.median(pdist(x)))
    return med if med > 0 else 1.0


def _agreement_rows(name):
    """(training rows, test rows) for one agreement case; "d<k>" is normal
    rows in k dimensions, "duplicates" 5-dimensional rows unless it ends in
    "_d<k>"."""
    rng = np.random.default_rng([17, len(name)])
    if name == "scene":  # the shape of scene data: smooth features of a 3-d latent, noisy
        z = rng.normal(size=(500, 3))
        phase = rng.uniform(0.0, 2.0 * math.pi, size=294)
        x = 0.5 + 0.5 * np.cos(z @ rng.normal(scale=1.2, size=(3, 294)) + phase)
        x += rng.normal(scale=0.1, size=x.shape)
    elif name[1:].isdigit():
        x = rng.normal(size=(500, int(name[1:])))
    elif name == "offset":
        x = rng.normal(size=(500, 20)) + 1e4
    else:  # duplicates: every training row repeated, test rows copying training rows
        base = rng.normal(size=(60, int(name.partition("_d")[2] or 5)))
        x = np.vstack([base, base[:40], base[:40], base + 1.0, base[:20] + 1.0])
        return x, np.vstack([base[:10], base[:10] + 1.0, rng.normal(size=base[:10].shape)])
    return x[:400], x[400:]


@pytest.mark.parametrize("name", ["scene", "d3", "offset", "duplicates"]
                         + [f"{case}d{d}" for case in ("", "duplicates_") for d in BOUNDARY_D])
def test_kernels_agree_with_scipy(name):
    x, x_test = _agreement_rows(name)
    bw = _scipy_median(x)
    assert median_heuristic(x) == pytest.approx(bw, rel=1e-12)
    spec = KernelSpec("gaussian", bw)
    gram = build_gram(spec, x).entries
    np.testing.assert_allclose(gram, _scipy_gram(x, bw), rtol=1e-12, atol=0)
    assert np.array_equal(gram, gram.T) and np.all(np.diag(gram) == 1.0)
    assert len(x_test) > GEMM_MIN_ROWS
    # a one-row block takes the per-pair path; the batch takes the product
    # path above CDIST_MAX_FEATURES features
    for rows in (x_test[:1], x_test):
        np.testing.assert_allclose(cross_kernel(spec, rows, x), _scipy_cross(rows, x, bw),
                                   rtol=1e-12, atol=0)


def _bandwidth_rows(name):
    # n = 2, 9, 41 and 1100 rows, the last in several row blocks, in
    # dimension 4, 3 from n = 1100 on, or <k> as given by a "_d<k>" suffix
    if name.startswith("n="):
        n, _, d = name[2:].partition("_d")
        n = int(n)
        return np.random.default_rng(n).normal(size=(n, int(d or (3 if n > 41 else 4))))
    return _agreement_rows(name)[0]


@pytest.mark.parametrize("name", ["n=2", "n=9", "n=41", "n=1100", "duplicates", "offset"]
                         + [f"n=1100_d{d}" for d in BOUNDARY_D])
def test_gram_chooses_median_bandwidth(name):
    x = _bandwidth_rows(name)
    bw = median_heuristic(x)
    gram = build_gram(KernelSpec("gaussian"), x)
    assert gram.spec == KernelSpec("gaussian", bw)
    assert np.array_equal(gram.entries, build_gram(KernelSpec("gaussian", bw), x).entries)


@pytest.mark.parametrize("name", ["n=41", "n=1100", "duplicates", "offset", "scene"]
                         + [f"n=1100_d{d}" for d in BOUNDARY_D])
def test_gram_with_lead_holds_the_leading_rows_gram_and_cross_kernel(name):
    # centred on, and given its median by, the leading rows; from n = 1100 on
    # the matrix is built in several row blocks, across the lead
    x = _bandwidth_rows(name)
    lead = 3 * len(x) // 4
    gram = build_gram(KernelSpec("gaussian"), x, lead=lead)
    assert gram.spec.bandwidth == pytest.approx(_scipy_median(x[:lead]), rel=1e-12)
    assert gram.spec.bandwidth == pytest.approx(median_heuristic(x[:lead]), rel=1e-15)
    k, spec = gram.entries, gram.spec
    for got, want in [(k[:lead, :lead], build_gram(spec, x[:lead]).entries),
                      (k[lead:, :lead], cross_kernel(spec, x[lead:], x[:lead])),
                      (k, _scipy_gram(x, spec.bandwidth))]:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    assert np.array_equal(gram.entries, gram.entries.T)


def test_median_heuristic_mostly_duplicate_rows():
    # 191 of 231 pairs coincide, so the median distance is 0 and the
    # heuristic falls back to 1.0, as it does with np.median(pdist(x)); the
    # expansion leaves rounding noise of ~1e-16 on equal rows unless it is
    # cleared, and the median would be that noise's square root, ~1e-8
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=5) + 3.0, rng.normal(size=5)
    x = np.vstack([np.tile(a, (20, 1)), np.tile(b, (2, 1))])
    # the rows take the per-pair path; padded with zero columns, which leave
    # every distance as it is, the product path
    padded = np.hstack([x, np.zeros((len(x), PRODUCT_D - 5))])
    for rows in (x, padded):
        assert _scipy_median(rows) == 1.0
        assert median_heuristic(rows) == 1.0


@pytest.mark.parametrize("n, d", [pytest.param(n, 4, id=str(n)) for n in (2, 3, 4, 5, 9, 10, 41)]
                         + [pytest.param(n, d, id=f"{n}_d{d}")
                            for n in (9, 10, 41) for d in BOUNDARY_D])
def test_median_heuristic_equals_numpy_median(n, d):
    # n(n-1)/2 pairs: odd at n = 2, 3, 10, 41 and even at n = 4, 5, 9; rows
    # from n = 9 on go through the product path above CDIST_MAX_FEATURES
    x = np.random.default_rng(n).normal(size=(n, d))
    assert median_heuristic(x) == pytest.approx(float(np.median(pdist(x))), rel=1e-12)


def test_median_heuristic_peak_memory():
    # np.median(pdist(x)) holds two condensed float64 vectors at its peak;
    # an n x n distance matrix alone would hold four
    n = 1500
    x = np.random.default_rng(3).normal(size=(n, 3))
    tracemalloc.start()
    try:
        median_heuristic(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (n * (n - 1) // 2) * 8


def test_overflowing_rows_take_the_per_pair_path(rng):
    # the expansion would give inf - inf = NaN for a finite row whose norm
    # overflows; the per-pair loop gives an infinite distance, kernel value 0
    for d in BOUNDARY_D:
        x = rng.normal(size=(30, d))
        rows = rng.normal(size=(GEMM_MIN_ROWS, d))
        rows[0] = 1.5e308 * (-1.0) ** np.arange(d)
        k = cross_kernel(GAUSS, rows, x)
        assert np.all(k[0] == 0.0)
        np.testing.assert_allclose(k, _scipy_cross(rows, x, 1.0), rtol=1e-12, atol=0)


@pytest.mark.parametrize("rows, d, per_pair", [(1, PRODUCT_D, True),
                                               (GEMM_MIN_ROWS - 1, PRODUCT_D, True),
                                               (GEMM_MIN_ROWS, CDIST_MAX_FEATURES, True),
                                               (GEMM_MIN_ROWS, PRODUCT_D, False)])
def test_distance_path_follows_rows_and_features(rows, d, per_pair, rng, monkeypatch):
    # cdist is called for blocks of few rows or few features, and otherwise
    # only for rows whose norms overflow (none here)
    calls = []
    monkeypatch.setattr(kernels, "cdist", lambda *a: calls.append(a) or cdist(*a))
    cross_kernel(GAUSS, rng.normal(size=(rows, d)), rng.normal(size=(30, d)))
    assert bool(calls) == per_pair
