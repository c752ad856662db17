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

Exact risks use E[L(z, y) | x] = F_z . E[U_y | x] + c (1 - P(y degenerate | x)):
the Bayes labels decode E[U_y | x] (``DiscreteLoss.expected_embedding``), and an
excess is (F_f(x) - F_f*(x)) . E[U_y | x].  Hamming and Prec@k have E[U_y | x] in
closed form; other losses sum over the 2^m bit tuples while 2^m x r fits
``TABLE_CELLS`` (F-score to m = 15, 0-1 to m = 12, PD to m = 19).  A loss is
refused beyond its ``exact_limit``, where its decoder is a heuristic (MAP past
m = 16).

The learning-rate experiment fits at lambda = n^{-1/2} across a sample-size
grid and reports per-replication log-log slopes of the exact excess risk.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .estimator import empirical_risk, fit, predict_batch
from .kernels import KernelSpec, median_heuristic
from .losses import DiscreteLoss, SpaceTooLargeError, config_int, make_loss


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
        # a JSON spec reaches here unchecked
        ints = [(name, getattr(self, name)) for name in ("d", "m", "seed", "n_test", "replications")]
        for name, value in ints + [("n_grid entry", n) for n in self.n_grid]:
            config_int(name, value)
        if isinstance(self.delta, bool) or not isinstance(self.delta, (int, float)):
            raise ValueError(f"delta must be a number, got {self.delta!r}")
        if not isinstance(self.loss_name, str):
            raise ValueError(f"loss_name must be a string, got {self.loss_name!r}")
        if self.kernel not in ("gaussian", "linear"):
            raise ValueError(f"unknown kernel {self.kernel!r}")
        if self.noise_mode not in ("smooth_crossing", "hard_margin"):
            raise ValueError(f"unknown noise mode {self.noise_mode!r}")
        if self.noise_mode == "hard_margin" and not 0.0 < self.delta < 0.5:
            raise ValueError("hard_margin delta must lie in (0, 1/2)")
        if len(self.n_grid) == 0 or list(self.n_grid) != sorted(set(self.n_grid)):
            raise ValueError("n_grid must be nonempty and strictly increasing")
        if self.n_grid[0] < 1:
            raise ValueError(f"n_grid entries must be at least 1, got {self.n_grid[0]}")
        for name in ("d", "n_test", "replications"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")

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
        # |wave| <= 1, so min_j |q_j(x) - 1/2| stays below this margin: sampling could not end
        margin = 1.0 / (1.0 + math.exp(-float(np.min(np.abs(self.amp))))) - 0.5
        if spec.noise_mode == "hard_margin" and spec.delta >= margin:
            raise ValueError(f"hard_margin delta {spec.delta} is unattainable: the margin "
                             f"min_j |q_j - 1/2| of this surface stays below {margin:.4f}")

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

def bayes_predictions(loss, expected) -> list:
    """Exact Bayes labels: the decoder at the rows ``expected`` = E[U_y | x], refused
    past ``exact_limit`` (MAP above m = 16), where a heuristic label need not be f*."""
    if loss.m > getattr(loss, "exact_limit", loss.m):
        raise SpaceTooLargeError(f"{loss.name}: m = {loss.m} is beyond the exact decoder's "
                                 f"limit {loss.exact_limit}, so f* is not known exactly")
    return loss.decode_batch(expected)


def excess_risk_exact(predictions, bayes, expected, loss) -> float:
    """Average exact excess ell(f(x), x) - ell(f*(x), x) over probe points, given
    the Bayes labels ``bayes`` and the rows ``expected`` = E[U_y | x] there.  A
    point's excess is (F_f(x) - F_f*(x)) . E[U_y | x], with c (1 - P(y degenerate
    | x)) cancelled."""
    labels, inverse = loss.output_space.distinct([*predictions, *bayes], "prediction")
    f = np.array([loss.f_row(z) for z in labels])[inverse]
    gap = f[: len(predictions)] - f[len(predictions) :]
    return float(np.mean(np.sum(gap * expected, axis=1)))


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
        expected = loss.expected_embedding(gen.q(x_probe))
        f_star = bayes_predictions(loss, expected)
        bayes_test = empirical_risk(f_star, loss, y_probe)
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
            exact = max(excess_risk_exact(preds, f_star, expected, loss), EXCESS_FLOOR)
            test_risk = empirical_risk(preds, loss, y_probe)
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
