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

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .decode import DEFAULT_BUDGET, DecodeBudget, decode
from .losses import DiscreteLoss
from .losses.base import Label, SpaceTooLargeError

_ENUM_LIMIT = 600_000  # |Z| x |Y| cells of the cached loss matrix


class FiniteProblem:
    """Finite-X synthetic distribution: masses over states, Pi(x) per state.

    ``conditionals`` rows are aligned with the loss's canonical observation
    enumeration.
    """

    def __init__(self, loss: DiscreteLoss, masses, conditionals):
        masses = np.asarray(masses, dtype=float)
        conditionals = np.asarray(conditionals, dtype=float)
        if masses.ndim != 1 or masses.size == 0:
            raise ValueError("masses must be a nonempty vector")
        if abs(masses.sum() - 1.0) > 1e-12 or np.any(masses < 0):
            raise ValueError("masses must be a probability vector")
        n_y = loss.n_observations()
        if conditionals.shape != (masses.size, n_y):
            raise ValueError(
                f"conditionals must be {masses.size} x {n_y}, got {conditionals.shape}"
            )
        if np.any(conditionals < 0) or np.any(np.abs(conditionals.sum(axis=1) - 1.0) > 1e-12):
            raise ValueError("each conditional row must be a probability vector")
        if loss.n_outputs() * n_y > _ENUM_LIMIT:
            raise SpaceTooLargeError("problem spaces too large for exact computation")
        self.loss = loss
        self.masses = masses
        self.conditionals = conditionals
        self.observations = list(loss.observations())
        self.outputs = list(loss.outputs())
        # loss matrix rows: outputs in canonical order
        self.loss_matrix = np.array(
            [[loss.value(z, y) for y in self.observations] for z in self.outputs]
        )
        self.u_matrix = np.array([loss.u_row(y) for y in self.observations])
        self._output_index = {z: i for i, z in enumerate(self.outputs)}

    @property
    def n_states(self) -> int:
        return self.masses.size

    def states(self) -> range:
        return range(self.n_states)


def conditional_risks(problem: FiniteProblem, state: int) -> np.ndarray:
    """ell(z, x) for every output z, exactly."""
    return problem.loss_matrix @ problem.conditionals[state]


def bayes_risk(problem: FiniteProblem, z: Label, state: int) -> float:
    """ell(z, x) = sum_y Pi(x)_y L(z, y)."""
    pi = problem.conditionals[state]
    return float(sum(p * problem.loss.value(z, y) for p, y in zip(pi, problem.observations) if p))


def bayes_predictor(problem: FiniteProblem, state: int) -> Label:
    risks = conditional_risks(problem, state)
    return problem.outputs[int(np.argmin(risks))]


def margin(problem: FiniteProblem, state: int) -> float:
    """Minimum suboptimality gap at the state; zero iff the optimum ties."""
    risks = np.sort(conditional_risks(problem, state))
    if risks.size < 2:
        raise ValueError("margin needs at least two candidate outputs")
    return float(risks[1] - risks[0])


def margins(problem: FiniteProblem) -> np.ndarray:
    return np.array([margin(problem, s) for s in problem.states()])


def margin_moment(problem: FiniteProblem, p: float) -> float:
    """Gamma_p = sum_x P(x) gamma(x)^{-p}; errors on zero margin with mass."""
    if p <= 0:
        raise ValueError("p must be positive")
    gam = margins(problem)
    total = 0.0
    for s in problem.states():
        if problem.masses[s] == 0:
            continue
        if gam[s] <= 0:
            raise ValueError(f"zero margin on supported state {s}")
        total += problem.masses[s] * gam[s] ** (-p)
    return total


def gamma_p_norm(problem: FiniteProblem, p: float) -> float:
    """The L_p norm of 1/gamma: (sum_x P(x) gamma(x)^{-p})^{1/p}."""
    return margin_moment(problem, p) ** (1.0 / p)


@dataclass(frozen=True)
class MarginProfile:
    """Per-state margins with the derived low-noise functionals."""

    gamma: np.ndarray
    p: float
    gamma_p: float  # L_p norm of 1/gamma
    moment: float  # E[gamma^{-p}], the quantity the inequalities consume


def margin_profile(problem: FiniteProblem, p: float) -> MarginProfile:
    moment = margin_moment(problem, p)
    return MarginProfile(margins(problem), p, moment ** (1.0 / p), moment)


def g_star(problem: FiniteProblem, state: int) -> np.ndarray:
    """Conditional embedding mean sum_y Pi(x)_y U_y (the surrogate optimum)."""
    return problem.conditionals[state] @ problem.u_matrix


def g_star_matrix(problem: FiniteProblem) -> np.ndarray:
    return problem.conditionals @ problem.u_matrix


def _checked_g(problem: FiniteProblem, g) -> np.ndarray:
    """g as an n_states x r float array; ValueError on other shapes or non-finite entries."""
    g = np.asarray(g, dtype=float)
    expected = (problem.n_states, problem.loss.r)
    if g.shape != expected:
        raise ValueError(f"g must be {expected}, got {g.shape}")
    if not np.isfinite(g).all():
        raise ValueError("g must be finite")
    return g


def surrogate_excess(problem: FiniteProblem, g) -> float:
    """sum_x P(x) ||g(x) - g*(x)||_2^2, the exact surrogate excess risk."""
    diff = _checked_g(problem, g) - g_star_matrix(problem)
    return float(problem.masses @ np.sum(diff * diff, axis=1))


def true_excess(problem: FiniteProblem, predictions: Sequence[Label]) -> float:
    """E(f) - E(f*) for a per-state predictor, exactly."""
    total = 0.0
    for s in problem.states():
        risks = conditional_risks(problem, s)
        z_idx = problem._output_index[tuple(predictions[s])]
        total += problem.masses[s] * (risks[z_idx] - risks.min())
    return float(total)


def decode_states(
    problem: FiniteProblem, g, budget: DecodeBudget = DEFAULT_BUDGET
) -> list:
    g = _checked_g(problem, g)
    return [decode(problem.loss, g[s], budget) for s in problem.states()]


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


def comparison_check(
    problem: FiniteProblem,
    g,
    p: float | None = None,
    budget: DecodeBudget = DEFAULT_BUDGET,
) -> ComparisonReport:
    """Check both comparison inequalities for the surrogate g.

    Basic: excess(d o g) <= 2 ||F||_inf sqrt(surrogate excess).
    Improved (for p > 0, with Gamma_p the margin moment):
        excess(d o g) <= Gamma_p^{1/(p+2)} (16 ||F||_inf^2 surr)^{(p+1)/(p+2)}.
    """
    f_inf = problem.loss.f_norm
    lhs = true_excess(problem, decode_states(problem, g, budget))
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
    if eps < 0:
        raise ValueError("eps must be >= 0")
    return eps**2 / (4.0 * loss.f_norm**2)


def calibration_H_p(loss: DiscreteLoss, eps: float, p: float, gamma_p: float) -> float:
    """Low-noise calibration function.

    H_p(eps) = (gamma_p eps^p)^{1/(p+1)} H((1/2) (eps / gamma_p)^{1/(p+1)}),
    where gamma_p is the margin moment E[gamma^{-p}].  For eps in (0, 1] it
    dominates gamma_p^{1/(p+1)} H(eps / (2 gamma_p^{1/(p+1)})), i.e. it never
    yields a worse rate than the plain calibration function.
    """
    if eps < 0:
        raise ValueError("eps must be >= 0")
    if p <= 0 or gamma_p <= 0:
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
    excess = true_excess(problem, predictions)
    error_mass = 0.0
    for s in problem.states():
        if tuple(predictions[s]) != bayes_predictor(problem, s):
            error_mass += problem.masses[s]
    bound = moment ** (1.0 / (p + 1.0)) * excess ** (p / (p + 1.0))
    return TsybakovReport(float(error_mass), excess, float(bound), _leq(error_mass, bound))


# ---------------------------------------------------------------------------
# random problem generation (shared by tests and the CLI check command)
# ---------------------------------------------------------------------------

def random_problem(
    loss: DiscreteLoss,
    n_states: int,
    rng: np.random.Generator,
    concentration: float = 1.0,
) -> FiniteProblem:
    """Dirichlet-random masses and conditionals over the loss's spaces."""
    masses = rng.dirichlet(np.full(n_states, max(concentration, 1e-3)))
    cond = rng.dirichlet(
        np.full(loss.n_observations(), max(concentration, 1e-3)), size=n_states
    )
    return FiniteProblem(loss, masses, cond)
