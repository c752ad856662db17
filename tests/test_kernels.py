"""Kernel evaluation, Gram assembly, and ridge solve contracts."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist, squareform

from qslearn.kernels import (
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
    gram = GramMatrix(np.array([[1.0]]), 1, GAUSS)
    for u, lam in [(2.5, 0.3), (-1.0, 1.0)]:
        sol = solve_ridge(gram, np.array([[u]]), lam)
        assert sol.coefficients[0, 0] == pytest.approx(u / (1 + lam), rel=1e-14)


def test_solve_ridge_zero_rhs(rng):
    x = rng.normal(size=(6, 2))
    sol = solve_ridge(build_gram(GAUSS, x), np.zeros((6, 3)), 0.5)
    assert np.all(sol.coefficients == 0.0)


@pytest.mark.parametrize("n", [5, 50, 200])
def test_solve_ridge_residual(n, rng):
    x = rng.normal(size=(n, 3))
    gram = build_gram(GAUSS, x)
    psi = rng.normal(size=(n, 4))
    lam = 0.1
    sol = solve_ridge(gram, psi, lam)
    lhs = (gram.entries + lam * n * np.eye(n)) @ sol.coefficients
    resid = np.linalg.norm(lhs - psi) / np.linalg.norm(psi)
    assert resid < 1e-8


def test_ridge_factor_allocates_one_copy_of_k():
    # K + lambda n I is built in one n x n copy of K and factored in place;
    # the rest is scipy's finiteness check (an n x n bool mask, 1/8 of K)
    n = 1500
    gram = build_gram(GAUSS, np.random.default_rng(5).normal(size=(n, 3)))
    tracemalloc.start()
    try:
        ridge_factor(gram, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.15 * n * n * 8


def test_ridge_factor_failure_reports_smallest_eigenvalue():
    # K + lambda n I = [[0.2, 1], [1, 0.2]] has eigenvalues 1.2 and -0.8
    gram = GramMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), 2, LINEAR)
    with pytest.raises(np.linalg.LinAlgError, match="smallest eigenvalue -8.000e-01"):
        ridge_factor(gram, 0.1)


def test_solve_ridge_rejects_bad_inputs(rng):
    gram = build_gram(GAUSS, rng.normal(size=(4, 2)))
    with pytest.raises(ValueError):
        solve_ridge(gram, np.zeros((3, 2)), 0.1)
    with pytest.raises(ValueError):
        solve_ridge(gram, np.zeros((4, 2)), 0.0)


def test_weights_single_point():
    gram = GramMatrix(np.array([[1.0]]), 1, GAUSS)
    sol = solve_ridge(gram, np.array([[1.0]]), 0.25)
    alpha = weights_at(sol, np.array([1.0]))
    assert alpha[0] == pytest.approx(1.0 / 1.25, rel=1e-14)


def test_weights_interpolation_limit(rng):
    x = rng.uniform(size=(8, 2)) * 4.0  # well-separated under bw=0.3
    spec = KernelSpec("gaussian", 0.3)
    gram = build_gram(spec, x)
    sol = solve_ridge(gram, np.eye(8), 1e-12)
    for i in range(8):
        alpha = weights_at(sol, gram.entries[i])
        assert np.max(np.abs(alpha - np.eye(8)[i])) < 1e-4


def test_two_path_consistency(rng):
    # sum_i alpha_i(x) psi_i equals C^T K_x for any x
    x = rng.normal(size=(20, 3))
    psi = rng.normal(size=(20, 5))
    gram = build_gram(GAUSS, x)
    sol = solve_ridge(gram, psi, 0.05)
    for _ in range(10):
        pt = rng.normal(size=3)
        k_x = cross_kernel(GAUSS, pt, x)[0]
        g_c = sol.coefficients.T @ k_x
        g_alpha = psi.T @ weights_at(sol, k_x)
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
    """(training rows, test rows) for one agreement case."""
    rng = np.random.default_rng([17, len(name)])
    if name == "scene":  # the shape of scene data: smooth features of a 3-d latent, noisy
        z = rng.normal(size=(500, 3))
        phase = rng.uniform(0.0, 2.0 * math.pi, size=294)
        x = 0.5 + 0.5 * np.cos(z @ rng.normal(scale=1.2, size=(3, 294)) + phase)
        x += rng.normal(scale=0.1, size=x.shape)
    elif name == "d3":
        x = rng.normal(size=(500, 3))
    elif name == "offset":
        x = rng.normal(size=(500, 20)) + 1e4
    else:  # duplicates: every training row repeated, test rows copying training rows
        base = rng.normal(size=(60, 5))
        x = np.vstack([base, base[:40], base[:40], base + 1.0, base[:20] + 1.0])
        return x, np.vstack([base[:10], base[:10] + 1.0, rng.normal(size=(10, 5))])
    return x[:400], x[400:]


@pytest.mark.parametrize("name", ["scene", "d3", "offset", "duplicates"])
def test_kernels_agree_with_scipy(name):
    x, x_test = _agreement_rows(name)
    bw = _scipy_median(x)
    assert median_heuristic(x) == pytest.approx(bw, rel=1e-12)
    spec = KernelSpec("gaussian", bw)
    gram = build_gram(spec, x).entries
    np.testing.assert_allclose(gram, _scipy_gram(x, bw), rtol=1e-12, atol=0)
    assert np.array_equal(gram, gram.T) and np.all(np.diag(gram) == 1.0)
    assert len(x_test) > GEMM_MIN_ROWS
    for rows in (x_test[:1], x_test):  # the per-pair path and the product path
        np.testing.assert_allclose(cross_kernel(spec, rows, x), _scipy_cross(rows, x, bw),
                                   rtol=1e-12, atol=0)


def _bandwidth_rows(name):
    if name.startswith("n="):  # n = 2, 9, 41 and 1100 rows, the last in several row blocks
        n = int(name[2:])
        return np.random.default_rng(n).normal(size=(n, 3 if n > 41 else 4))
    return _agreement_rows(name)[0]


@pytest.mark.parametrize("name", ["n=2", "n=9", "n=41", "n=1100", "duplicates", "offset"])
def test_gram_chooses_median_bandwidth(name):
    x = _bandwidth_rows(name)
    bw = median_heuristic(x)
    gram = build_gram(KernelSpec("gaussian"), x)
    assert gram.spec == KernelSpec("gaussian", bw)
    assert np.array_equal(gram.entries, build_gram(KernelSpec("gaussian", bw), x).entries)


def test_median_heuristic_mostly_duplicate_rows():
    # 191 of 231 pairs coincide, so the median distance is 0 and the
    # heuristic falls back to 1.0, as it does with np.median(pdist(x)); the
    # expansion leaves rounding noise of ~1e-16 on equal rows unless it is
    # cleared, and the median would be that noise's square root, ~1e-8
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=5) + 3.0, rng.normal(size=5)
    x = np.vstack([np.tile(a, (20, 1)), np.tile(b, (2, 1))])
    assert _scipy_median(x) == 1.0
    assert median_heuristic(x) == 1.0


@pytest.mark.parametrize("n", [2, 3, 4, 5, 9, 10, 41])
def test_median_heuristic_equals_numpy_median(n):
    # n(n-1)/2 pairs: odd at n = 2, 3, 10, 41 and even at n = 4, 5, 9; rows
    # from n = 9 on go through the product path
    x = np.random.default_rng(n).normal(size=(n, 4))
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
    x = rng.normal(size=(30, 3))
    rows = rng.normal(size=(GEMM_MIN_ROWS, 3))
    rows[0] = [1.5e308, -1.5e308, 1.5e308]
    k = cross_kernel(GAUSS, rows, x)
    assert np.all(k[0] == 0.0)
    np.testing.assert_allclose(k, _scipy_cross(rows, x, 1.0), rtol=1e-12, atol=0)
