"""Synthetic continuous-X generators with known conditionals, plus rate experiments.

Label coordinates are conditionally independent given x, with marginals

    q_j(x) = sigmoid(a_j sin(2 pi w . x + b)),

a single shared wave (random direction, frequency and phase drawn once from
the spec seed) scaled by per-coordinate signed amplitudes.  Sharing the wave
keeps the low-margin region {x : min_j |q_j(x) - 1/2| < delta} a union of
parallel slabs, so the hard-margin input distribution below has no starved
support slivers.

Two noise regimes:

- ``smooth_crossing``: X ~ Uniform[0,1]^d and the marginals cross 1/2
  freely, so margins are arbitrarily small on a positive-mass set (low
  noise exponent).
- ``hard_margin``: the marginals are pushed out of (1/2-delta, 1/2+delta)
  and X is rejection-sampled away from the crossing band, so every drawn
  point satisfies min_j |q_j(x) - 1/2| >= delta and the margin condition
  holds for every exponent.  Restricting the inputs (rather than only
  clipping the conditionals) keeps the regression target smooth on the
  support, which is what makes the fast regime reachable by the kernel fit.

The learning-rate experiment fits at lambda = n^{-1/2} across a sample-size
grid and reports per-replication log-log slopes of the exact excess risk.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .decode import column_sums
from .estimator import fit, predict_batch
from .kernels import KernelSpec, median_heuristic
from .losses import DiscreteLoss, Hamming, PrecAtK, as_label, make_loss, subsets


@dataclass(frozen=True)
class SyntheticSpec:
    d: int = 2
    m: int = 4
    loss_name: str = "hamming"
    loss_params: tuple = ()  # (("k", 2),) style pairs, kept hashable
    noise_mode: str = "smooth_crossing"
    delta: float = 0.2
    seed: int = 0
    n_grid: tuple = (64, 128, 256, 512, 1024, 2048)
    n_test: int = 2000
    replications: int = 5
    kernel: str = "gaussian"

    def __post_init__(self):
        if self.noise_mode not in ("smooth_crossing", "hard_margin"):
            raise ValueError(f"unknown noise mode {self.noise_mode!r}")
        if self.noise_mode == "hard_margin" and not 0.0 < self.delta < 0.5:
            raise ValueError("hard_margin delta must lie in (0, 1/2)")
        if len(self.n_grid) == 0 or list(self.n_grid) != sorted(set(self.n_grid)):
            raise ValueError("n_grid must be nonempty and strictly increasing")

    def make_loss(self) -> DiscreteLoss:
        return make_loss(self.loss_name, self.m, **dict(self.loss_params))


class MultilabelGenerator:
    """Sampler plus exact conditional oracle q(x) for a SyntheticSpec.

    The surface parameters depend only on (seed, m, d), not on the noise
    mode, so hard/smooth specs with the same seed share the same underlying
    conditionals and differ only in clipping and input support.
    """

    REJECTION_BATCH = 6

    def __init__(self, spec: SyntheticSpec):
        self.spec = spec
        rng = np.random.default_rng([spec.seed, 0x9E37])
        self.amp = rng.uniform(1.8, 2.6, size=spec.m) * rng.choice([-1.0, 1.0], size=spec.m)
        direction = rng.normal(size=spec.d)
        direction /= np.linalg.norm(direction)
        self.freq = direction * rng.uniform(1.0, 1.4)
        self.phase = rng.uniform(0.0, 2.0 * math.pi)

    def _raw_q(self, x: np.ndarray) -> np.ndarray:
        wave = np.sin(2.0 * math.pi * (x @ self.freq) + self.phase)
        return 1.0 / (1.0 + np.exp(-wave[:, None] * self.amp[None, :]))

    def q(self, x) -> np.ndarray:
        """Exact conditional marginals P([y]_j = 1 | x), one row per input row."""
        probs = self._raw_q(np.atleast_2d(np.asarray(x, dtype=float)))
        if self.spec.noise_mode == "hard_margin":
            delta = self.spec.delta
            probs = np.where((probs > 0.5 - delta) & (probs < 0.5), 0.5 - delta, probs)
            probs = np.where((probs >= 0.5) & (probs < 0.5 + delta), 0.5 + delta, probs)
        return probs

    def sample_inputs(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.spec.noise_mode == "smooth_crossing":
            return rng.uniform(0.0, 1.0, size=(n, self.spec.d))
        delta = self.spec.delta
        rows: list[np.ndarray] = []
        got = 0
        while got < n:
            cand = rng.uniform(0.0, 1.0, size=(self.REJECTION_BATCH * n, self.spec.d))
            keep = np.min(np.abs(self._raw_q(cand) - 0.5), axis=1) >= delta
            kept = cand[keep]
            rows.append(kept)
            got += len(kept)
        return np.concatenate(rows)[:n]

    def sample_labels(self, x, rng: np.random.Generator) -> list:
        probs = self.q(x)
        bits = (rng.uniform(size=probs.shape) < probs).astype(int)
        return [tuple(int(b) for b in row) for row in bits]

    def sample(self, n: int, rng: np.random.Generator):
        x = self.sample_inputs(n, rng)
        return x, self.sample_labels(x, rng)


# ---------------------------------------------------------------------------
# exact conditional risks under independent-coordinate conditionals
# ---------------------------------------------------------------------------

def conditional_risk(loss: DiscreteLoss, z, q_x: np.ndarray) -> float:
    """ell(z, x) given the marginals q(x), exactly."""
    if isinstance(loss, Hamming):
        z = np.asarray(z, dtype=float)
        return float(np.mean(z + (1.0 - 2.0 * z) * q_x))
    if isinstance(loss, PrecAtK):
        return 1.0 - float(sum(q_x[j] for j in range(loss.m) if z[j])) / loss.k
    index = list(loss.outputs()).index(as_label(z))
    return float(_expected_losses(loss, q_x)[0, index])


def bayes_conditional_risk(loss: DiscreteLoss, q_x: np.ndarray) -> float:
    """min_z ell(z, x) given the marginals, exactly."""
    if isinstance(loss, Hamming):
        return float(np.mean(np.minimum(q_x, 1.0 - q_x)))
    if isinstance(loss, PrecAtK):
        return 1.0 - float(np.sort(q_x)[::-1][: loss.k].sum()) / loss.k
    return float(_expected_losses(loss, q_x).min())


def _expected_losses(loss: DiscreteLoss, q) -> np.ndarray:
    """sum_y P(y | x) L(z, y), one row per row of marginals q, one column
    per output z in canonical order.

    The generator draws bit tuples, so y runs over ``subsets(m)`` whatever
    the loss's observation space (NDCG's relevance grid is larger).  The
    loss matrix is read first, so a space beyond its limit raises
    SpaceTooLargeError before the 2^m probabilities are built.
    """
    matrix = loss.loss_matrix(subsets(loss.m))
    q = np.atleast_2d(q)
    probs = np.ones((len(q), 1))
    for j in range(loss.m):  # bit j of the canonical subset rank, most significant first
        p = q[:, j, None]
        probs = np.stack([probs * (1.0 - p), probs * p], axis=2).reshape(len(q), -1)
    return column_sums(matrix, probs)


def excess_risk_exact(predictions, gen: MultilabelGenerator, x_probe, loss) -> float:
    """Average exact excess ell(f(x), x) - ell(f*(x), x) over probe points."""
    q = gen.q(x_probe)
    if isinstance(loss, (Hamming, PrecAtK)):
        total = 0.0
        for z, q_x in zip(predictions, q):
            total += conditional_risk(loss, z, q_x) - bayes_conditional_risk(loss, q_x)
        return total / len(predictions)
    risks = _expected_losses(loss, q)
    index = {z: i for i, z in enumerate(loss.outputs())}
    chosen = risks[np.arange(len(q)), [index[as_label(z)] for z in predictions]]
    return float(np.mean(chosen - risks.min(axis=1)))


def bayes_predictions(gen: MultilabelGenerator, x_probe, loss) -> list:
    """Exact Bayes predictor at each probe point."""
    q = gen.q(x_probe)
    # the decoders at theta = E[U_y | x], which is 2q - 1 for Hamming and q for Prec@k
    if isinstance(loss, Hamming):
        return loss.decode_batch(2.0 * q - 1.0)
    if isinstance(loss, PrecAtK):
        return loss.decode_batch(q)
    outs = list(loss.outputs())
    return [outs[i] for i in np.argmin(_expected_losses(loss, q), axis=1)]


# ---------------------------------------------------------------------------
# learning-rate experiment
# ---------------------------------------------------------------------------

# excess below this is clamped: the probe-set measurement cannot resolve it
EXCESS_FLOOR = 1e-7


@dataclass(frozen=True)
class RateRow:
    loss: str
    noise_mode: str
    n: int
    replication: int
    excess_exact: float
    excess_test: float
    seed: int


@dataclass
class RateReport:
    spec: SyntheticSpec
    rows: list
    slopes: list  # per replication, None where undefined
    slope: float | None
    slope_stderr: float | None
    note: str = ""

    def summary(self) -> dict:
        return {
            "loss": self.spec.loss_name,
            "noise_mode": self.spec.noise_mode,
            "seed": self.spec.seed,
            "n_grid": list(self.spec.n_grid),
            "slopes_per_replication": [
                None if s is None else float(s) for s in self.slopes
            ],
            "slope": self.slope,
            "slope_stderr": self.slope_stderr,
            "note": self.note,
        }

    def to_json(self) -> str:
        return json.dumps(self.summary(), indent=2)


def _fit_slope(ns: Sequence[int], excesses: Sequence[float]) -> float | None:
    """Least-squares slope of log(excess) vs log(n).

    Excesses arrive clamped at EXCESS_FLOOR.  The smallest n is dropped as
    burn-in when at least four grid points exist; all-floor curves (nothing
    measurable anywhere) yield None.
    """
    pts = list(zip(ns, excesses))
    if len(pts) >= 4:
        pts = pts[1:]
    if len(pts) < 2:
        return None
    if all(e <= EXCESS_FLOOR for _, e in pts):
        return None
    logn = np.log([p[0] for p in pts])
    loge = np.log([p[1] for p in pts])
    return float(np.polyfit(logn, loge, 1)[0])


def _rate_bandwidth(x_train, n: int) -> float:
    # mildly shrinking bandwidth keeps the fit's bias below the estimation
    # error across the whole grid; anchored at the n = 256 median heuristic
    return 0.5 * median_heuristic(x_train) * (n / 256.0) ** (-1.0 / 6.0)


def rate_experiment(spec: SyntheticSpec) -> RateReport:
    """Fit at every (n, replication) with lambda = n^{-1/2}; report slopes.

    Training sets are nested prefixes of one per-replication draw and the
    probe set is shared across the grid, so per-replication learning curves
    are paired.  All randomness chains from (spec.seed, replication); two
    specs differing only in noise mode give matched pairs.
    """
    loss = spec.make_loss()
    gen = MultilabelGenerator(spec)
    n_max = max(spec.n_grid)
    rows: list[RateRow] = []
    slopes: list[float | None] = []
    for rep in range(spec.replications):
        rng_train = np.random.default_rng([spec.seed, rep, 1])
        rng_probe = np.random.default_rng([spec.seed, rep, 2])
        x_pool, y_pool = gen.sample(n_max, rng_train)
        x_probe = gen.sample_inputs(spec.n_test, rng_probe)
        y_probe = gen.sample_labels(x_probe, rng_probe)
        f_star = bayes_predictions(gen, x_probe, loss)
        bayes_test = float(np.mean([loss.value(z, y) for z, y in zip(f_star, y_probe)]))
        per_n = []
        for n in spec.n_grid:
            x_tr, y_tr = x_pool[:n], y_pool[:n]
            kernel = (
                KernelSpec("gaussian", _rate_bandwidth(x_tr, n))
                if spec.kernel == "gaussian"
                else KernelSpec("linear")
            )
            model = fit(loss, kernel, n**-0.5, x_tr, y_tr)
            preds = predict_batch(model, x_probe)
            exact = max(excess_risk_exact(preds, gen, x_probe, loss), EXCESS_FLOOR)
            test_risk = float(np.mean([loss.value(z, y) for z, y in zip(preds, y_probe)]))
            rows.append(
                RateRow(
                    loss.name, spec.noise_mode, n, rep, exact,
                    test_risk - bayes_test, spec.seed,
                )
            )
            per_n.append(exact)
        slopes.append(_fit_slope(spec.n_grid, per_n))
    defined = [s for s in slopes if s is not None]
    notes = []
    if len(spec.n_grid) < 2:
        notes.append("slope undefined: n_grid has fewer than two points")
        slope = stderr = None
    elif not defined:
        notes.append("slope undefined: excess risk at or below the measurement floor")
        slope = stderr = None
    else:
        slope = float(np.mean(defined))
        stderr = (
            float(np.std(defined, ddof=1) / math.sqrt(len(defined)))
            if len(defined) > 1
            else None
        )
        if len(defined) < len(slopes):
            notes.append(
                f"{len(slopes) - len(defined)} replication(s) had no measurable excess"
            )
    # the test-set estimate may dip below zero by sampling noise, but not by
    # more than three standard errors of a bounded difference
    noise_floor = 3.0 * 0.5 / math.sqrt(spec.n_test)
    anomalies = sum(1 for r in rows if r.excess_test < -noise_floor)
    if anomalies:
        notes.append(f"{anomalies} row(s) with test excess below -3 std errors")
    return RateReport(spec, rows, slopes, slope, stderr, "; ".join(notes))


def rate_rows_csv(rows: Sequence[RateRow]) -> str:
    lines = ["loss,noise_mode,n,replication,excess_exact,excess_test,seed"]
    for r in rows:
        lines.append(
            f"{r.loss},{r.noise_mode},{r.n},{r.replication},"
            f"{r.excess_exact:.10g},{r.excess_test:.10g},{r.seed}"
        )
    return "\n".join(lines) + "\n"
