"""Exact population-level quantities on finite problems.

A FiniteProblem is a distribution over abstract states x (with masses) and a
conditional table Pi(x) over the loss's observation space, so Bayes risks,
margins, and both comparison inequalities are computable exactly instead of
estimated.

Margin functionals: the low-noise formulas below take the p-th moment
Gamma_p = E[gamma(X)^{-p}], which is ``gamma_p_norm(problem, p) ** p``.  The
moment is what the Hoelder step behind these bounds actually produces;
plugging the norm itself in would overstate them for p < 1 and understate
them for p > 1.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .losses import DiscreteLoss
from .losses.base import Label, as_label


class FiniteProblem:
    """Finite-X synthetic distribution: masses over states, Pi(x) per state.

    ``conditionals`` rows are aligned with the loss's canonical observation
    enumeration.  The risk table and what is read from it (``risks``,
    ``bayes_index``, ``margins``) are built on first use from
    ``loss_matrix`` and ``conditionals``, then kept on the problem.  Y and U
    come from the loss's ``observation_table``, Z from its ``output_table``.
    """

    def __init__(self, loss: DiscreteLoss, masses, conditionals):
        masses = np.asarray(masses, dtype=float)
        conditionals = np.asarray(conditionals, dtype=float)
        if masses.ndim != 1 or masses.size == 0:
            raise ValueError("masses must be a nonempty vector")
        # each test stated positively, so a NaN fails it
        if not (np.all(masses >= 0) and abs(masses.sum() - 1.0) <= 1e-12):
            raise ValueError("masses must be a probability vector")
        n_y = loss.n_observations()
        if conditionals.shape != (masses.size, n_y):
            raise ValueError(
                f"conditionals must be {masses.size} x {n_y}, got {conditionals.shape}"
            )
        sums_to_one = np.all(np.abs(conditionals.sum(axis=1) - 1.0) <= 1e-12)
        if not (np.all(conditionals >= 0) and sums_to_one):
            raise ValueError("each conditional row must be a probability vector")
        self.loss = loss
        self.masses = masses
        self.conditionals = conditionals
        # Y's table calls no ``values``, so a problem past the cap computes none
        self.loss_matrix = loss.loss_matrix(loss.observation_table.tuples)

    @property
    def n_states(self) -> int:
        return self.masses.size

    def states(self) -> range:
        return range(self.n_states)

    @functools.cached_property
    def risks(self) -> np.ndarray:
        """ell(z, x) = sum_y Pi(x)_y L(z, y): one row per state, one column
        per output in canonical order."""
        risks = self.conditionals @ self.loss_matrix.T
        risks.flags.writeable = False  # ``conditional_risks`` hands out its rows
        return risks

    @functools.cached_property
    def bayes_index(self) -> np.ndarray:
        """Per state, the first output of least risk."""
        return np.argmin(self.risks, axis=1)

    @functools.cached_property
    def margins(self) -> np.ndarray:
        """Per state, the gap between the two smallest risks; zero iff the optimum ties."""
        if self.risks.shape[1] < 2:
            raise ValueError("margin needs at least two candidate outputs")
        two = np.partition(self.risks, 1, axis=1)
        return two[:, 1] - two[:, 0]


def conditional_risks(problem: FiniteProblem, state: int) -> np.ndarray:
    """ell(z, x) for every output z, exactly."""
    return problem.risks[state]


def bayes_risk(problem: FiniteProblem, z: Label, state: int) -> float:
    """ell(z, x) = sum_y Pi(x)_y L(z, y)."""
    z = problem.loss.output_space.check(as_label(z))
    return float(problem.risks[state, bisect.bisect_left(problem.loss.output_table.tuples, z)])


def bayes_predictor(problem: FiniteProblem, state: int) -> Label:
    return problem.loss.output_table.tuples[int(problem.bayes_index[state])]


def margin(problem: FiniteProblem, state: int) -> float:
    """Minimum suboptimality gap at the state; zero iff the optimum ties."""
    return float(problem.margins[state])


def margin_moment(problem: FiniteProblem, p: float) -> float:
    """Gamma_p = sum_x P(x) gamma(x)^{-p}; errors on zero margin with mass."""
    if not p > 0:  # stated positively, so NaN fails
        raise ValueError("p must be positive")
    supported = problem.masses > 0
    zero = np.flatnonzero(supported & (problem.margins <= 0))
    if zero.size:
        raise ValueError(f"zero margin on supported state {zero[0]}")
    return float(problem.masses[supported] @ problem.margins[supported] ** (-p))


def gamma_p_norm(problem: FiniteProblem, p: float) -> float:
    """The L_p norm of 1/gamma: (sum_x P(x) gamma(x)^{-p})^{1/p}."""
    return margin_moment(problem, p) ** (1.0 / p)


def g_star_matrix(problem: FiniteProblem) -> np.ndarray:
    return problem.conditionals @ problem.loss.observation_table.rows


def _checked_g(problem: FiniteProblem, g) -> np.ndarray:
    """g as an n_states x r float array; ValueError on other shapes or non-finite entries."""
    g = np.asarray(g, dtype=float)
    expected = (problem.n_states, problem.loss.r)
    if g.shape != expected:
        raise ValueError(f"g must be {expected}, got {g.shape}")
    if not np.isfinite(g).all():
        raise ValueError("g must be finite")
    return g


def _checked_rows(problem: FiniteProblem, predictions: Sequence[Label]) -> np.ndarray:
    """The output index of each state's prediction; ValueError unless there is
    one per state, InvalidLabelError naming the state of a label outside the
    output space."""
    if len(predictions) != problem.n_states:
        raise ValueError(
            f"need one prediction per state ({problem.n_states}), got {len(predictions)}"
        )
    labels, inverse = problem.loss.output_space.distinct(predictions, "state")
    outputs = problem.loss.output_table.tuples  # in lexicographic order
    return np.array([bisect.bisect_left(outputs, z) for z in labels], dtype=np.intp)[inverse]


def surrogate_excess(problem: FiniteProblem, g) -> float:
    """sum_x P(x) ||g(x) - g*(x)||_2^2, the exact surrogate excess risk."""
    diff = _checked_g(problem, g) - g_star_matrix(problem)
    return float(problem.masses @ np.sum(diff * diff, axis=1))


def _excess_at(problem: FiniteProblem, idx: np.ndarray) -> float:
    rows, risks = np.arange(problem.n_states), problem.risks
    return float(problem.masses @ (risks[rows, idx] - risks[rows, problem.bayes_index]))


def true_excess(problem: FiniteProblem, predictions: Sequence[Label]) -> float:
    """E(f) - E(f*) for a per-state predictor, exactly."""
    return _excess_at(problem, _checked_rows(problem, predictions))


def decode_states(problem: FiniteProblem, g) -> list:
    return problem.loss.decode_batch(_checked_g(problem, g))


# ---------------------------------------------------------------------------
# comparison inequalities and calibration functions
# ---------------------------------------------------------------------------

_SLACK = 1e-12  # numerical slack for non-strict inequalities


@dataclass(frozen=True)
class ComparisonReport:
    lhs: float
    rhs_basic: float
    rhs_improved: float | None
    p: float | None
    holds_basic: bool
    holds_improved: bool | None


def _leq(lhs: float, rhs: float) -> bool:
    return lhs <= rhs + _SLACK * max(1.0, abs(rhs))


def comparison_check(problem: FiniteProblem, g, p: float | None = None) -> ComparisonReport:
    """Check both comparison inequalities for the surrogate g.

    Basic: excess(d o g) <= 2 ||F||_inf sqrt(surrogate excess).
    Improved (for p > 0, with Gamma_p the margin moment):
        excess(d o g) <= Gamma_p^{1/(p+2)} (16 ||F||_inf^2 surr)^{(p+1)/(p+2)}.
    """
    f_inf = problem.loss.f_norm
    lhs = true_excess(problem, decode_states(problem, g))
    surr = surrogate_excess(problem, g)
    rhs_basic = 2.0 * f_inf * math.sqrt(surr)
    rhs_improved = None
    holds_improved = None
    if p is not None:
        moment = margin_moment(problem, p)
        rhs_improved = moment ** (1.0 / (p + 2.0)) * (16.0 * f_inf**2 * surr) ** (
            (p + 1.0) / (p + 2.0)
        )
        holds_improved = _leq(lhs, rhs_improved)
    return ComparisonReport(
        lhs, rhs_basic, rhs_improved, p, _leq(lhs, rhs_basic), holds_improved
    )


def calibration_H(loss: DiscreteLoss, eps: float) -> float:
    """H(eps) = eps^2 / (4 ||F||_inf^2), the quadratic calibration function."""
    if not eps >= 0:  # stated positively, so NaN fails
        raise ValueError("eps must be >= 0")
    return eps**2 / (4.0 * loss.f_norm**2)


def calibration_H_p(loss: DiscreteLoss, eps: float, p: float, gamma_p: float) -> float:
    """Low-noise calibration function.

    H_p(eps) = (gamma_p eps^p)^{1/(p+1)} H((1/2) (eps / gamma_p)^{1/(p+1)}),
    where gamma_p is the margin moment E[gamma^{-p}].  For eps in (0, 1] it
    dominates gamma_p^{1/(p+1)} H(eps / (2 gamma_p^{1/(p+1)})), i.e. it never
    yields a worse rate than the plain calibration function.
    """
    if not eps >= 0:  # stated positively, so NaN fails
        raise ValueError("eps must be >= 0")
    if not (p > 0 and gamma_p > 0):
        raise ValueError("p and gamma_p must be positive")
    if eps == 0:
        return 0.0
    inner = 0.5 * (eps / gamma_p) ** (1.0 / (p + 1.0))
    return (gamma_p * eps**p) ** (1.0 / (p + 1.0)) * calibration_H(loss, inner)


@dataclass(frozen=True)
class TsybakovReport:
    error_mass: float
    excess: float
    bound: float
    holds: bool


def tsybakov_check(
    problem: FiniteProblem, predictions: Sequence[Label], p: float
) -> TsybakovReport:
    """P_X(f != f*) <= Gamma_p^{1/(p+1)} excess^{p/(p+1)} with exact quantities."""
    moment = margin_moment(problem, p)
    idx = _checked_rows(problem, predictions)
    excess = _excess_at(problem, idx)
    error_mass = float(problem.masses[idx != problem.bayes_index].sum())
    bound = moment ** (1.0 / (p + 1.0)) * excess ** (p / (p + 1.0))
    return TsybakovReport(error_mass, excess, float(bound), _leq(error_mass, bound))


# ---------------------------------------------------------------------------
# random problem generation (for tests of the exact quantities above)
# ---------------------------------------------------------------------------

_CONCENTRATION = 1.0  # Dirichlet parameter of random_problem: uniform on the simplex


def random_problem(loss: DiscreteLoss, n_states: int, rng: np.random.Generator) -> FiniteProblem:
    """Dirichlet-random masses and conditionals over the loss's spaces."""
    masses = rng.dirichlet(np.full(n_states, _CONCENTRATION))
    cond = rng.dirichlet(np.full(loss.n_observations(), _CONCENTRATION), size=n_states)
    return FiniteProblem(loss, masses, cond)
