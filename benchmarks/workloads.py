"""The three benchmark workloads.

A workload builds its inputs from the seed in ``setup`` and then runs whole
rounds of the same operations.  Each round times its four stages, and the
first round's outputs pass every independent check in ``checks``; later
rounds must reproduce them exactly.  Program calls go through module
attributes (``estimator.fit``), so the tracer's wrappers see them.

The stage order is the user's flow; stage k of each workload is reported as
``stage<k>_s`` so that every workload reports the same metric names.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import time

import numpy as np
from qslearn import cli, estimator, kernels, theory
from qslearn.losses import make_loss

import checks
import inputs


# qsl rates runs its specs in a thread pool; with one worker the traced spans
# of different threads never overlap, so self times add up to wall time
RATES_THREADS = 1


def qsl(argv: list) -> tuple[int, str]:
    """Run one ``qsl`` command in this process; returns (exit code, output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc = cli.main([str(a) for a in argv])
    return rc, out.getvalue()


def read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# Median time of ``calibrate`` on the reference machine (see README.md).
CAL_REF_S = 0.0135


def calibrate() -> float:
    """Wall time of a fixed block of interpreter and numpy work.

    The shared machines this runs on change speed by tens of percent from
    one run to the next.  The block runs before every timed sample, and a
    run's times are scaled by CAL_REF_S / (median block time in the run),
    which cancels the drift that slows the program and the block alike.
    The block does not touch qslearn, so a change to the program moves only
    the samples.
    """
    t0 = time.perf_counter()
    acc = 0
    for k in range(150_000):
        acc += k * k
    a = np.linspace(0.0, 1.0, 40_000).reshape(200, 200)
    for _ in range(3):
        a = np.exp(-(a @ a.T) / 200.0)
    return time.perf_counter() - t0


class Timer:
    """Per-key lists of stage wall times, each preceded by a calibration
    block; turns the tracer on inside the stages."""

    def __init__(self, tracer=None):
        self.samples: dict[str, list] = {}
        self.probes: list[float] = []
        self.tracer = tracer

    def scale(self) -> float:
        """CAL_REF_S / median calibration time: wall seconds to calibrated."""
        return CAL_REF_S / median(self.probes)

    @contextlib.contextmanager
    def __call__(self, key: str):
        self.probes.append(calibrate())
        if self.tracer:
            self.tracer.enabled = True
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            if self.tracer:
                self.tracer.enabled = False
            self.samples.setdefault(key, []).append(dt)


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def model_arrays(path: str) -> dict:
    with np.load(path, allow_pickle=False) as payload:
        return {k: np.array(payload[k]) for k in payload.files}


def fit_model(loss, x, y):
    bandwidth = kernels.median_heuristic(x)
    return estimator.fit(loss, kernels.KernelSpec("gaussian", bandwidth), len(x) ** -0.5, x, y)


def check_ridge(model) -> None:
    psi = np.array([model.loss.u_row(y) for y in model.y_train])
    checks.ridge_solution(
        model.x_train, model.kernel.bandwidth, model.lam, model.coefficients, psi
    )


def own_theta(x, x_train, bandwidth, coef) -> np.ndarray:
    return checks.gaussian_kernel(x, x_train, bandwidth) @ coef


class Workload:
    name = ""
    stage_names: tuple = ()  # four user-facing stages, in flow order

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.dir = workdir
        self.reference = None  # first round's outputs

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def verify(self, outputs: dict) -> None:
        """Check the first round's outputs; later rounds must repeat them."""
        if self.reference is None:
            # peak memory of set-up and one round, before the checks allocate
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            self.check(outputs)
            self.reference = outputs
        else:
            for key, ref in self.reference.items():
                checks.require(_equal(outputs[key], ref), f"{key}: output changed between rounds")

    def run_round(self, timer: Timer) -> tuple[dict, int, int]:
        """Run one round: (outputs, operations attempted, operations failed)."""
        raise NotImplementedError

    def summarize(self, samples: dict) -> tuple[list, list]:
        """(four stage medians in seconds, [(issue metric, value, unit)])."""
        raise NotImplementedError


def _equal(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and bool(np.array_equal(a, b))
    return a == b


# ---------------------------------------------------------------------------
# scene_pipeline
# ---------------------------------------------------------------------------

class ScenePipeline(Workload):
    """The command-line flow on scene-shaped data: eval, train, predict.

    The model is trained with ``--standardize``; the prediction files hold
    rows scaled by the training statistics, and ``predict`` runs without
    ``--standardize``, because that flag rescales each file by its own
    statistics.  That fault is measured by a fixed probe instead: a model
    trained with ``--standardize`` on seed-independent rows, and one-row
    ``predict --standardize`` calls whose rows, each mapped to all zeros by
    the fault, are counted failed when the label differs from the one the
    training scaler gives.
    """

    name = "scene_pipeline"
    stage_names = ("eval", "train", "predict_batch", "predict_one")
    BATCHES = 3  # the 481-row predict runs three times per round
    SINGLES = 4
    PROBES = 4
    PROBE_LAMBDA = 0.01

    def setup(self) -> None:
        text, x, labels, q = inputs.scene_data(self.seed)
        n_tr = inputs.SCENE_N - inputs.SCENE_N_TEST
        lines = [inputs.libsvm_line(y, t) for y, t in zip(labels, text)]
        inputs.write_lines(self.path("train.svm"), lines[:n_tr])
        mean, std = x[:n_tr].mean(axis=0), x[:n_tr].std(axis=0)
        self.x_scaled = (x[n_tr:] - mean) / std
        self.x_tr_scaled = (x[:n_tr] - mean) / std
        inputs.write_lines(
            self.path("test.svm"),
            [inputs.libsvm_line(y, inputs.dense_features_text(r))
             for y, r in zip(labels[n_tr:], self.x_scaled)],
        )
        for i in range(self.SINGLES):
            inputs.write_lines(self.path(f"one{i}.svm"), [
                inputs.libsvm_line(labels[n_tr + i], inputs.dense_features_text(self.x_scaled[i]))
            ])
        self.labels, self.q, self.n_tr = labels, q, n_tr
        self._tables, self._probe_ref = {}, None
        # the probe's inputs come from a fixed seed, not from --seed
        p_text, p_x, p_labels, _ = inputs.scene_data(
            inputs.PROBE_SEED, n=inputs.PROBE_N + self.PROBES
        )
        p_lines = [inputs.libsvm_line(y, t) for y, t in zip(p_labels, p_text)]
        inputs.write_lines(self.path("probe_train.svm"), p_lines[: inputs.PROBE_N])
        for i in range(self.PROBES):
            inputs.write_lines(self.path(f"probe{i}.svm"), [p_lines[inputs.PROBE_N + i]])
        mean, std = p_x[: inputs.PROBE_N].mean(axis=0), p_x[: inputs.PROBE_N].std(axis=0)
        self.probe_rows = (p_x[inputs.PROBE_N:] - mean) / std
        self.probe_train = (p_x[: inputs.PROBE_N] - mean) / std
        rc, out = qsl(["train", "--data", self.path("probe_train.svm"), "--m", inputs.SCENE_M,
                       "--loss", "hamming", "--standardize", "--lambda", self.PROBE_LAMBDA,
                       "--out", self.path("probe.npz")])
        checks.require(rc == 0, f"probe train failed: {out}")

    def run_round(self, timer: Timer):
        m = inputs.SCENE_M
        with timer("eval"):
            rc_eval, _ = qsl(["eval", "--data", self.path("train.svm"), "--m", m,
                              "--seed", self.seed, "--format", "json",
                              "--out", self.path("eval.json")])
        with timer("train"):
            rc_train, train_out = qsl(["train", "--data", self.path("train.svm"), "--m", m,
                                       "--loss", "hamming", "--standardize",
                                       "--seed", self.seed, "--out", self.path("model.npz")])
        preds = []
        for _ in range(self.BATCHES):
            with timer("predict_batch"):
                preds.append(qsl(["predict", "--model", self.path("model.npz"),
                                  "--data", self.path("test.svm"),
                                  "--out", self.path("pred.txt")])[0])
        singles = []
        for i in range(self.SINGLES):
            with timer("predict_one"):
                singles.append(qsl(["predict", "--model", self.path("model.npz"),
                                    "--data", self.path(f"one{i}.svm"),
                                    "--out", self.path(f"one{i}.txt")])[0])
        probes = []
        for i in range(self.PROBES):
            rc, _ = qsl(["predict", "--model", self.path("probe.npz"), "--standardize",
                         "--data", self.path(f"probe{i}.svm"), "--out", self.path(f"probe{i}.txt")])
            checks.require(rc == 0, f"probe predict exited {rc}")
            probes.append(checks.parse_labels(read(self.path(f"probe{i}.txt")), m)[0])
        for name, rc in [("eval", rc_eval), ("train", rc_train)] + [
            ("predict", rc) for rc in preds + singles
        ]:
            checks.require(rc == 0, f"qsl {name} exited {rc}")
        failed = sum(1 for got, want in zip(probes, self.probe_reference()) if got != want)
        outputs = {
            "eval": json.loads(read(self.path("eval.json"))),
            "train_log": train_out,
            "model": model_arrays(self.path("model.npz")),
            "pred": read(self.path("pred.txt")),
            "singles": [read(self.path(f"one{i}.txt")) for i in range(self.SINGLES)],
            "probes": probes,
        }
        attempted = 2 + self.BATCHES * inputs.SCENE_N_TEST + self.SINGLES + self.PROBES
        return outputs, attempted, failed

    def tables(self, name: str) -> checks.Tables:
        if name not in self._tables:
            self._tables[name] = checks.Tables(make_loss(name, inputs.SCENE_M), with_u=True,
                                               with_loss_matrix=True)
        return self._tables[name]

    def probe_reference(self) -> list:
        """Labels the probe rows get under the probe's training scaler."""
        if self._probe_ref is None:
            model = model_arrays(self.path("probe.npz"))
            checks.require(
                np.max(np.abs(model["x_train"] - self.probe_train)) <= 1e-12,
                "probe model's training rows are not the standardized probe file",
            )
            theta = own_theta(self.probe_rows, model["x_train"], float(model["bandwidth"]),
                              model["coefficients"])
            table = self.tables("hamming")
            checks.require(bool(np.all(checks.untied_rows(theta, table))), "probe row near a tie")
            self._probe_ref = [table.outputs[i] for i in np.argmin(theta @ table.f.T, axis=1)]
        return self._probe_ref

    def check(self, out: dict) -> None:
        rng = np.random.default_rng([self.seed, 99])
        n_te = inputs.SCENE_N_TEST
        slack = checks.sampling_slack(n_te)
        for rec in out["eval"]:
            table = self.tables(rec["loss"])
            checks.spot_check_decomposition(table.loss, rng)
            bayes, const = checks.risk_envelope(self.q[: self.n_tr], table)
            for key in ("val_risk", "test_risk"):
                checks.risk_in_envelope(f"eval {rec['loss']} {key}", rec[key], bayes, const, slack)
        checks.require(sorted(r["loss"] for r in out["eval"]) == ["fscore", "hamming", "zero_one"],
                       "eval did not report the three default losses")
        model, table = out["model"], self.tables("hamming")
        checks.require(str(model["kernel_kind"]) == "gaussian", "model kernel is not gaussian")
        checks.require(np.max(np.abs(model["x_train"] - self.x_tr_scaled)) <= 1e-12,
                       "saved training rows are not the standardized training file")
        truth = self.labels[: self.n_tr]
        checks.require([tuple(r) for r in model["y_train"].tolist()] == truth,
                       "saved training labels differ from the file")
        obs = {y: k for k, y in enumerate(table.observations)}
        bw = float(model["bandwidth"])
        checks.ridge_solution(model["x_train"], bw, float(model["lam"]), model["coefficients"],
                              table.u[[obs[y] for y in truth]])
        val = float(out["train_log"].split("validation risk ")[1].split(")")[0])
        bayes, const = checks.risk_envelope(self.q[: self.n_tr], table)
        checks.risk_in_envelope("train validation", val, bayes, const, slack)
        pred = checks.parse_labels(out["pred"], inputs.SCENE_M)
        theta = own_theta(self.x_scaled, model["x_train"], bw, model["coefficients"])
        checks.argmin_labels(pred, theta, table)
        bayes, const = checks.risk_envelope(self.q[self.n_tr:], table)
        risk = checks.empirical_risk(pred, self.labels[self.n_tr:], table)
        checks.risk_in_envelope("predict", risk, bayes, const, slack)
        for i, text in enumerate(out["singles"]):
            checks.require(checks.parse_labels(text, inputs.SCENE_M)[0] == pred[i],
                           f"one-row predict {i} differs from the batch row")

    def summarize(self, s: dict):
        v = [median(s[k]) for k in self.stage_names]
        return v, [("eval_s", v[0], "s"), ("train_s", v[1], "s"),
                   ("predict_rows_per_s", inputs.SCENE_N_TEST / v[2], "rows/s"),
                   ("single_predict_s", v[3], "s")]


# ---------------------------------------------------------------------------
# decode_sweep
# ---------------------------------------------------------------------------

class DecodeSweep(Workload):
    """predict_batch on small fitted models at the decoders' budget edges."""

    name = "decode_sweep"
    stage_names = ("exact", "pd_greedy", "map_local", "linear")
    N_TRAIN = 300
    LINEAR_ROWS = 8000
    # (key, loss, m, params, batch rows); exact limits are PD m=8, MAP m=6
    CASES = [
        ("pd_exact", "pd", 8, {}, 2),
        ("map_exact", "map", 6, {}, 64),
        ("pd_greedy", "pd", 9, {}, 16384),
        ("map_local", "map", 7, {}, 96),
        ("zero_one", "zero_one", 8, {}, LINEAR_ROWS),
        ("hamming", "hamming", 8, {}, LINEAR_ROWS),
        ("prec_at_k", "prec_at_k", 8, {"k": 3}, LINEAR_ROWS),
        ("fscore", "fscore", 8, {}, LINEAR_ROWS),
        ("ndcg", "ndcg", 8, {"R": 3}, LINEAR_ROWS),
    ]
    LINEAR = ("zero_one", "hamming", "prec_at_k", "fscore", "ndcg")

    def setup(self) -> None:
        self.models, self.batches = {}, {}
        for k, (key, name, m, params, rows) in enumerate(self.CASES):
            loss = make_loss(name, m, **params)
            gen = inputs.generator(self.seed, m)
            rng = np.random.default_rng([self.seed, 2, k])
            if name == "ndcg":
                x, y = inputs.relevance_sample(gen, self.N_TRAIN, params["R"], rng)
            else:
                x, y = gen.sample(self.N_TRAIN, rng)
            self.models[key] = fit_model(loss, x, y)
            self.batches[key] = gen.sample_inputs(rows, rng)

    def run_round(self, timer: Timer):
        out = {}
        for key, *_ in self.CASES:
            stage = key if key in ("pd_exact", "map_exact", "pd_greedy", "map_local") else "linear"
            with timer(stage):
                out[key] = estimator.predict_batch(self.models[key], self.batches[key])
        return out, sum(len(b) for b in self.batches.values()), 0

    def check(self, out: dict) -> None:
        rng = np.random.default_rng([self.seed, 99])
        for key, *_ in self.CASES:
            model = self.models[key]
            check_ridge(model)
            checks.spot_check_decomposition(model.loss, rng)
            theta = own_theta(self.batches[key], model.x_train, model.kernel.bandwidth,
                              model.coefficients)
            if key == "pd_greedy":
                checks.pd_adjacent_optimal(out[key], theta, model.loss)
            elif key == "map_local":
                checks.map_two_swap_optimal(out[key], theta, model.loss)
            else:
                checks.argmin_labels(out[key], theta, checks.Tables(model.loss))

    def summarize(self, s: dict):
        exact = np.add(s["pd_exact"], s["map_exact"])
        linear = np.sum(np.reshape(s["linear"], (-1, len(self.LINEAR))), axis=1)
        v = [median(exact), median(s["pd_greedy"]), median(s["map_local"]), median(linear)]
        rows = {key: r for key, _, _, _, r in self.CASES}
        return v, [
            ("pd_exact_rows_per_s", rows["pd_exact"] / median(s["pd_exact"]), "rows/s"),
            ("map_exact_rows_per_s", rows["map_exact"] / median(s["map_exact"]), "rows/s"),
            ("pd_greedy_rows_per_s", rows["pd_greedy"] / v[1], "rows/s"),
            ("map_local_rows_per_s", rows["map_local"] / v[2], "rows/s"),
            ("linear_decode_rows_per_s", len(self.LINEAR) * self.LINEAR_ROWS / v[3], "rows/s"),
        ]


# ---------------------------------------------------------------------------
# exact_oracles
# ---------------------------------------------------------------------------

class ExactOracles(Workload):
    """The paths that evaluate the raw loss over enumerated spaces."""

    name = "exact_oracles"
    stage_names = ("alpha", "check", "rates", "theory")
    ALPHA_N, ALPHA_ROWS = 2000, 6
    CHECK_INSTANCES = 150
    # qsl check compares decoders without a tie tolerance, and on map and ndcg it
    # reports mismatches on some seeds (exact-arithmetic ties that rounding
    # breaks differently), so only losses that never did so are run
    CHECKS = [
        ["--loss", "zero_one", "--m", 5],
        ["--loss", "hamming", "--m", 5],
        ["--loss", "prec_at_k", "--m", 5, "--k", 2],
        ["--loss", "fscore", "--m", 5],
        ["--loss", "pd", "--m", 5],
    ]
    RATES = {"loss_name": "fscore", "m": 4, "d": 2, "n_grid": [32, 64, 128], "n_test": 200,
             "replications": 2, "noise_modes": ["smooth_crossing", "hard_margin"]}
    # (loss, m, problems per round, states per problem); margin exponent p = 1
    THEORY = [("hamming", 5, 8, 30), ("pd", 5, 8, 30), ("map", 5, 8, 30), ("fscore", 4, 8, 30)]
    P = 1.0

    def setup(self) -> None:
        gen = inputs.generator(self.seed, 6)
        rng = np.random.default_rng([self.seed, 3])
        x, y = gen.sample(self.ALPHA_N, rng)
        self.alpha_model = fit_model(make_loss("hamming", 6), x, y)
        self.alpha_rows = gen.sample_inputs(self.ALPHA_ROWS, rng)
        with open(self.path("rates.json"), "w", encoding="utf-8") as fh:
            json.dump(self.RATES, fh)
        self.problems = []
        for name, m, count, states in self.THEORY:
            table = checks.Tables(make_loss(name, m), with_u=True, with_loss_matrix=True)
            for _ in range(count):
                masses, cond, noise = inputs.finite_problem_arrays(table.loss, states, rng)
                self.problems.append((table, masses, cond, cond @ table.u + noise))

    def run_round(self, timer: Timer):
        with timer("alpha"):
            alpha = estimator.predict_batch(self.alpha_model, self.alpha_rows, path="alpha")
        logs = []
        with timer("check"):
            for argv in self.CHECKS:
                logs.append(qsl(["check", *argv, "--instances", self.CHECK_INSTANCES,
                                 "--seed", self.seed]))
        with timer("rates"):
            rc, log = qsl(["rates", "--spec", self.path("rates.json"), "--seed", self.seed,
                           "--threads", RATES_THREADS, "--out-dir", self.path("rates")])
        checks.require(rc == 0, f"qsl rates exited {rc}: {log}")
        reports = []
        with timer("theory"):
            for table, masses, cond, g in self.problems:
                problem = theory.FiniteProblem(table.loss, masses, cond)
                preds = theory.decode_states(problem, g)
                reports.append((problem, preds, theory.comparison_check(problem, g, p=self.P),
                                theory.tsybakov_check(problem, preds, self.P)))
        out = {
            "alpha": alpha,
            "checks": logs,
            "rates": read(os.path.join(self.path("rates"), "rates.csv")),
            "theory": [(r[1], r[2], r[3]) for r in reports],
        }
        self._problems = [r[0] for r in reports]
        attempted = self.ALPHA_ROWS + len(self.CHECKS) * self.CHECK_INSTANCES + 1 + len(reports)
        return out, attempted, 0

    def check(self, out: dict) -> None:
        model = self.alpha_model
        check_ridge(model)
        table = checks.Tables(model.loss)
        checks.spot_check_decomposition(model.loss, np.random.default_rng([self.seed, 99]))
        theta = own_theta(self.alpha_rows, model.x_train, model.kernel.bandwidth,
                          model.coefficients)
        fast = estimator.predict_batch(model, self.alpha_rows)
        checks.argmin_labels(fast, theta, table)
        checks.same_labels_where_untied(out["alpha"], fast, theta, table)
        for (rc, text) in out["checks"]:
            checks.qsl_check_output(rc, text, self.CHECK_INSTANCES)
        n_rows = len(self.RATES["noise_modes"]) * self.RATES["replications"] * len(
            self.RATES["n_grid"])
        checks.rates_rows(out["rates"], n_rows)
        for problem, (table, _, _, g), (preds, comp, tsy) in zip(
            self._problems, self.problems, out["theory"]
        ):
            checks.finite_problem(problem, g, self.P, comp, tsy, preds, table)

    def summarize(self, s: dict):
        v = [median(s[k]) for k in self.stage_names]
        problems = len(self.problems)
        return v, [
            ("alpha_rows_per_s", self.ALPHA_ROWS / v[0], "rows/s"),
            ("check_instances_per_s", len(self.CHECKS) * self.CHECK_INSTANCES / v[1],
             "instances/s"),
            ("rates_s", v[2], "s"),
            ("theory_problems_per_s", problems / v[3], "problems/s"),
        ]


WORKLOADS = {w.name: w for w in (ScenePipeline, DecodeSweep, ExactOracles)}

