"""Output checks computed apart from the program.

Each check recomputes what an output must satisfy from definitions: its own
enumeration of the label spaces, its own Gram matrices from the kernel
formula, its own conditional risks.  It borrows from the program only the
loss evaluator ``value`` and the decomposition rows ``f_row``/``u_row``, and
``spot_check_decomposition`` ties those rows back to ``value`` through
L = F.U + c.  Every check raises CheckFailed with a message naming the
first violation; ``selftest.py`` plants a wrong answer in front of each one.
"""

from __future__ import annotations

import itertools
import math
import re

import numpy as np

TIE_TOL = 1e-9  # score gap under which two outputs count as tied
BACKWARD_TOL = 1e-11  # normwise backward error allowed for the ridge solve


class CheckFailed(Exception):
    """An output of the program disagrees with the independent computation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# label spaces, tables and kernels, built here and not taken from the program
# ---------------------------------------------------------------------------

PERMUTATION_LOSSES = ("pd", "map", "ndcg", "eru")


def outputs_of(loss) -> list:
    """Canonical (lexicographic) enumeration of the output space Z."""
    m = loss.m
    if loss.name in PERMUTATION_LOSSES:
        return list(itertools.permutations(range(1, m + 1)))
    cube = list(itertools.product((0, 1), repeat=m))
    if loss.name == "prec_at_k":
        return [z for z in cube if sum(z) == loss.k]
    require(loss.name in ("zero_one", "hamming", "fscore"), f"no enumeration for {loss.name}")
    return cube


def observations_of(loss) -> list:
    if loss.name in ("ndcg", "eru"):
        return list(itertools.product(range(loss.top_relevance + 1), repeat=loss.m))
    return list(itertools.product((0, 1), repeat=loss.m))


class Tables:
    """F rows over Z and, on request, U rows and the loss matrix over Z x Y."""

    def __init__(self, loss, with_u: bool = False, with_loss_matrix: bool = False):
        self.loss = loss
        self.outputs = outputs_of(loss)
        self.index = {z: i for i, z in enumerate(self.outputs)}
        self.f = np.array([loss.f_row(z) for z in self.outputs])
        self.observations = observations_of(loss)
        self.u = np.array([loss.u_row(y) for y in self.observations]) if with_u else None
        self.l = (
            np.array([[loss.value(z, y) for y in self.observations] for z in self.outputs])
            if with_loss_matrix
            else None
        )


def random_output(loss, rng) -> tuple:
    m = loss.m
    if loss.name in PERMUTATION_LOSSES:
        return tuple(int(v) + 1 for v in rng.permutation(m))
    if loss.name == "prec_at_k":
        chosen = set(rng.choice(m, size=loss.k, replace=False).tolist())
        return tuple(int(j in chosen) for j in range(m))
    return tuple(int(v) for v in rng.integers(0, 2, size=m))


def random_observation(loss, rng) -> tuple:
    top = loss.top_relevance if loss.name in ("ndcg", "eru") else 1
    return tuple(int(v) for v in rng.integers(0, top + 1, size=loss.m))


def spot_check_decomposition(loss, rng, samples: int = 300) -> None:
    """F_z . U_y + c == L(z, y) on random informative pairs."""
    for _ in range(samples):
        z, y = random_output(loss, rng), random_observation(loss, rng)
        if loss.is_degenerate(y):
            continue
        approx = float(loss.f_row(z) @ loss.u_row(y)) + loss.offset
        require(
            abs(approx - loss.value(z, y)) <= 1e-12,
            f"{loss.name}: F.U + c = {approx!r} but L{z, y} = {loss.value(z, y)!r}",
        )


def gaussian_kernel(x1, x2, bandwidth: float) -> np.ndarray:
    """exp(-||a - b||^2 / (2 bw^2)) from the expanded square."""
    x1 = np.atleast_2d(np.asarray(x1, dtype=float))
    x2 = np.atleast_2d(np.asarray(x2, dtype=float))
    sq = (x1 * x1).sum(1)[:, None] + (x2 * x2).sum(1)[None, :] - 2.0 * x1 @ x2.T
    return np.exp(-np.maximum(sq, 0.0) / (2.0 * bandwidth**2))


def ridge_solution(x_train, bandwidth: float, lam: float, coef, psi) -> None:
    """(K + n lam I) C = Psi, with K built here; normwise backward error."""
    coef = np.asarray(coef, dtype=float)
    psi = np.asarray(psi, dtype=float)
    n = len(x_train)
    require(coef.shape == psi.shape, f"coefficients {coef.shape} vs embeddings {psi.shape}")
    a = gaussian_kernel(x_train, x_train, bandwidth)
    a[np.diag_indices(n)] += n * lam
    resid = np.linalg.norm(a @ coef - psi)
    scale = np.linalg.norm(a) * np.linalg.norm(coef) + np.linalg.norm(psi)
    require(resid <= BACKWARD_TOL * scale, f"ridge residual {resid:.3e} (scale {scale:.3e})")


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

def argmin_labels(labels, thetas, tables: Tables) -> int:
    """Each label is the first-index argmin of F_z . theta over Z.

    A label that differs from the argmin is accepted only when its score is
    within TIE_TOL of the minimum (summation order can flip near-ties).
    Returns how many rows were accepted that way.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    require(len(labels) == len(thetas), f"{len(labels)} labels for {len(thetas)} rows")
    near = 0
    for lo, scores in _score_chunks(thetas, tables):
        best = np.argmin(scores, axis=1)
        for i, z in enumerate(labels[lo : lo + len(scores)]):
            z = tuple(int(v) for v in z)
            j = tables.index.get(z)
            require(j is not None, f"row {lo + i}: label {z} is not in the output space")
            if j == best[i]:
                continue
            gap = scores[i, j] - scores[i, best[i]]
            require(
                gap <= TIE_TOL,
                f"row {lo + i}: label {z} scores {gap:.3e} above argmin {tables.outputs[best[i]]}",
            )
            near += 1
    return near


def _score_chunks(thetas, tables: Tables):
    """(first row, F_z . theta for a block of rows), in blocks of ~16 MB."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    step = max(1, 2_000_000 // len(tables.outputs))
    for lo in range(0, len(thetas), step):
        yield lo, thetas[lo : lo + step] @ tables.f.T


def untied_rows(thetas, tables: Tables) -> np.ndarray:
    """Mask of rows whose best and second-best scores differ by > TIE_TOL."""
    gaps = []
    for _, scores in _score_chunks(thetas, tables):
        two = np.partition(scores, 1, axis=1)[:, :2]
        gaps.append(two[:, 1] - two[:, 0])
    return np.concatenate(gaps) > TIE_TOL


def same_labels_where_untied(labels_a, labels_b, thetas, tables: Tables) -> int:
    """Two prediction paths agree on every row without a near-tie."""
    mask = untied_rows(thetas, tables)
    require(len(labels_a) == len(labels_b) == len(mask), "prediction lengths differ")
    for i, (a, b) in enumerate(zip(labels_a, labels_b)):
        if mask[i]:
            require(tuple(a) == tuple(b), f"row {i}: paths disagree, {tuple(a)} vs {tuple(b)}")
    return int(mask.sum())


def _valid_permutation(sigma, m: int) -> tuple:
    sigma = tuple(int(v) for v in sigma)
    require(sorted(sigma) == list(range(1, m + 1)), f"{sigma} is not a permutation of 1..{m}")
    return sigma


def _swapped(sigma: tuple, a: int, b: int) -> tuple:
    s = list(sigma)
    s[a], s[b] = s[b], s[a]
    return tuple(s)


def pd_adjacent_optimal(labels, thetas, loss) -> None:
    """No swap of two items at adjacent ranks lowers F_sigma . theta."""
    for i, (sigma, theta) in enumerate(zip(labels, thetas)):
        sigma = _valid_permutation(sigma, loss.m)
        base = float(loss.f_row(sigma) @ theta)
        item_at = {r: j for j, r in enumerate(sigma)}
        for r in range(1, loss.m):
            other = _swapped(sigma, item_at[r], item_at[r + 1])
            delta = float(loss.f_row(other) @ theta) - base
            require(delta >= -TIE_TOL, f"row {i}: swapping ranks {r},{r + 1} gains {-delta:.3e}")


def map_two_swap_optimal(labels, thetas, loss) -> None:
    """No exchange of the ranks of two items lowers F_sigma . theta."""
    for i, (sigma, theta) in enumerate(zip(labels, thetas)):
        sigma = _valid_permutation(sigma, loss.m)
        base = float(loss.f_row(sigma) @ theta)
        for a, b in itertools.combinations(range(loss.m), 2):
            delta = float(loss.f_row(_swapped(sigma, a, b)) @ theta) - base
            require(delta >= -TIE_TOL, f"row {i}: 2-swap ({a},{b}) gains {-delta:.3e}")


# ---------------------------------------------------------------------------
# risks under the generator's exact conditionals
# ---------------------------------------------------------------------------

def product_probs(q: np.ndarray, observations: list) -> np.ndarray:
    """P(y | x) for independent coordinates with marginals q, rows of q."""
    y = np.asarray(observations, dtype=float)  # |Y| x m
    logp = np.log(q) @ y.T + np.log1p(-q) @ (1.0 - y).T
    return np.exp(logp)


def risk_envelope(q: np.ndarray, tables: Tables) -> tuple[float, float]:
    """(mean exact Bayes risk, exact risk of the best constant predictor)."""
    cond = product_probs(q, tables.observations) @ tables.l.T  # rows x |Z|
    return float(cond.min(axis=1).mean()), float(cond.mean(axis=0).min())


def sampling_slack(n_rows: int) -> float:
    """Four standard errors of a mean of [0, 1] losses over n_rows rows."""
    return 4.0 * 0.5 / math.sqrt(n_rows)


def risk_in_envelope(name: str, risk: float, bayes: float, constant: float, slack: float) -> None:
    require(
        bayes - slack <= risk <= constant + slack,
        f"{name}: risk {risk:.4f} outside [{bayes - slack:.4f}, {constant + slack:.4f}]",
    )


def empirical_risk(labels, truth, tables: Tables) -> float:
    obs = {y: k for k, y in enumerate(tables.observations)}
    return float(
        np.mean([tables.l[tables.index[tuple(z)], obs[tuple(y)]] for z, y in zip(labels, truth)])
    )


# ---------------------------------------------------------------------------
# command outputs
# ---------------------------------------------------------------------------

def qsl_check_output(rc: int, text: str, instances: int) -> None:
    require(rc == 0, f"qsl check exited {rc}: {text.strip()}")
    err = re.search(r"max error ([0-9.eE+-]+)", text)
    require(err is not None and float(err.group(1)) <= 1e-12, f"decomposition: {text.strip()}")
    require(
        f": 0 mismatches in {instances} instances" in text, f"decoder mismatches: {text.strip()}"
    )


def rates_rows(csv_text: str, expected_rows: int) -> None:
    lines = csv_text.strip().splitlines()
    header = lines[0].split(",")
    require(len(lines) - 1 == expected_rows, f"{len(lines) - 1} rate rows, expected {expected_rows}")
    col = header.index("excess_exact")
    for line in lines[1:]:
        val = float(line.split(",")[col])
        require(val >= 0.0 and math.isfinite(val), f"excess_exact {val!r} < 0 in: {line}")


def parse_labels(text: str, m: int) -> list:
    """Inverse of the CLI's printing of subset labels as item indices."""
    out = []
    for line in text.splitlines():
        bits = [0] * m
        for tok in filter(None, line.strip().split(",")):
            bits[int(tok)] = 1
        out.append(tuple(bits))
    return out


# ---------------------------------------------------------------------------
# finite problems
# ---------------------------------------------------------------------------

def finite_problem(problem, g, p: float, comparison, tsybakov, predictions, tables: Tables) -> None:
    """Conditional risks, both comparison inequalities and the Tsybakov bound,
    recomputed from the masses and conditionals, against the program's reports."""
    from qslearn.theory import conditional_risks

    masses, cond = problem.masses, problem.conditionals
    risks = cond @ tables.l.T  # states x |Z|, sum_y Pi(y) L(z, y)
    for s in range(len(masses)):
        ref = risks[s]
        got = np.asarray(conditional_risks(problem, s))
        require(np.max(np.abs(got - ref)) <= 1e-12, f"state {s}: conditional risks differ")
    argmin_labels(predictions, g, tables)
    idx = np.array([tables.index[tuple(z)] for z in predictions])
    sorted_r = np.sort(risks, axis=1)
    best = risks.min(axis=1)
    excess = float(masses @ (risks[np.arange(len(idx)), idx] - best))
    surr = float(masses @ np.sum((g - cond @ tables.u) ** 2, axis=1))
    gap = sorted_r[:, 1] - sorted_r[:, 0]
    require(np.all(gap[masses > 0] > 0), "zero margin on a supported state")
    moment = float(masses @ gap ** (-p))
    f_inf = float(np.max(np.linalg.norm(tables.f, axis=1)))
    basic = 2.0 * f_inf * math.sqrt(surr)
    improved = moment ** (1 / (p + 2)) * (16 * f_inf**2 * surr) ** ((p + 1) / (p + 2))
    err_mass = float(masses[idx != risks.argmin(axis=1)].sum())
    tsy = moment ** (1 / (p + 1)) * excess ** (p / (p + 1))
    slack = 1e-12
    for name, lhs, rhs in (("basic", excess, basic), ("improved", excess, improved),
                           ("tsybakov", err_mass, tsy)):
        require(lhs <= rhs + slack * max(1.0, rhs), f"{name} bound fails: {lhs!r} > {rhs!r}")
    # the margin moment sums gap^-p, so rounding in a small gap is amplified:
    # quantities built on it get a tolerance scaled by the smallest gap
    moment_tol = 1e-9 + 1e-12 / float(gap[masses > 0].min())
    for name, got, ref, tol in (
        ("excess", comparison.lhs, excess, 1e-9),
        ("basic bound", comparison.rhs_basic, basic, 1e-9),
        ("improved bound", comparison.rhs_improved, improved, moment_tol),
        ("error mass", tsybakov.error_mass, err_mass, 1e-9),
        ("tsybakov bound", tsybakov.bound, tsy, moment_tol),
    ):
        require(abs(got - ref) <= tol * max(1.0, abs(ref)), f"{name}: {got!r} vs {ref!r}")
    require(comparison.holds_basic and comparison.holds_improved and tsybakov.holds,
            "program reports a bound as violated")
