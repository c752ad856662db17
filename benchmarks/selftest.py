"""Show that the output checks are not vacuous.

    python3 benchmarks/selftest.py

Each case feeds a check a correct answer made by the program, which must
pass, and then the same answer with one planted fault (a perturbed label, a
swapped coefficient row, a non-optimal permutation, ...), which must be
rejected.  Exits 1 if any check accepts a planted fault or rejects a
correct answer.
"""

from __future__ import annotations

import dataclasses
import sys

import run

run.import_program()

import numpy as np  # noqa: E402
from qslearn import estimator, theory  # noqa: E402
from qslearn.losses import make_loss  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from workloads import check_ridge, fit_model, own_theta  # noqa: E402

RESULTS = []


def expect(name: str, call, fails: bool) -> None:
    try:
        call()
        ok = not fails
        detail = "accepted"
    except checks.CheckFailed as exc:
        ok = fails
        detail = f"rejected: {exc}"
    RESULTS.append(ok)
    print(f"{'ok  ' if ok else 'BAD '} {name:<44} {detail[:90]}")


def fitted(name: str, m: int, n: int = 80, rows: int = 12, **params):
    loss = make_loss(name, m, **params)
    gen = inputs.generator(7, m)
    rng = np.random.default_rng([7, m])
    x, y = gen.sample(n, rng)
    model = fit_model(loss, x, y)
    xb = gen.sample_inputs(rows, rng)
    theta = own_theta(xb, model.x_train, model.kernel.bandwidth, model.coefficients)
    return model, xb, theta


def second_best(theta, tables: checks.Tables) -> tuple:
    return tables.outputs[int(np.argsort(tables.f @ theta)[1])]


def worsened(sigma: tuple, theta, loss, pairs) -> tuple:
    """A permutation one swap away from sigma that scores strictly worse."""
    base = float(loss.f_row(sigma) @ theta)
    for a, b in pairs:
        s = list(sigma)
        s[a], s[b] = s[b], s[a]
        if float(loss.f_row(tuple(s)) @ theta) - base > 1e-6:
            return tuple(s)
    raise AssertionError("no worsening swap found")


def main() -> int:
    rng = np.random.default_rng(0)

    model, xb, theta = fitted("hamming", 3)
    psi = np.array([model.loss.u_row(y) for y in model.y_train])
    bw, lam = model.kernel.bandwidth, model.lam
    expect("ridge: fitted coefficients", lambda: check_ridge(model), False)
    swapped = model.coefficients.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    expect("ridge: two coefficient rows swapped",
           lambda: checks.ridge_solution(model.x_train, bw, lam, swapped, psi), True)
    expect("ridge: wrong lambda",
           lambda: checks.ridge_solution(model.x_train, bw, 2 * lam, model.coefficients, psi), True)

    loss = make_loss("fscore", 4)
    expect("decomposition: fscore rows", lambda: checks.spot_check_decomposition(loss, rng), False)
    broken = make_loss("fscore", 4)
    broken.f_row = lambda z, _f=broken.f_row: _f(z) * (1.0 + 1e-6)
    expect("decomposition: F scaled by 1 + 1e-6",
           lambda: checks.spot_check_decomposition(broken, rng), True)

    labels = estimator.predict_batch(model, xb)
    tables = checks.Tables(model.loss)
    expect("linear decode: hamming labels", lambda: checks.argmin_labels(labels, theta, tables),
           False)
    flipped = list(labels)
    flipped[3] = tuple(1 - b if j == 0 else b for j, b in enumerate(flipped[3]))
    expect("linear decode: one bit flipped",
           lambda: checks.argmin_labels(flipped, theta, tables), True)

    pd, pd_x, pd_theta = fitted("pd", 5)
    pd_tables = checks.Tables(pd.loss)
    pd_labels = estimator.predict_batch(pd, pd_x)
    expect("exact decode: pd m=5 labels",
           lambda: checks.argmin_labels(pd_labels, pd_theta, pd_tables), False)
    wrong = list(pd_labels)
    wrong[0] = second_best(pd_theta[0], pd_tables)
    expect("exact decode: second-best permutation",
           lambda: checks.argmin_labels(wrong, pd_theta, pd_tables), True)
    wrong[0] = (1, 1, 2, 3, 4)
    expect("exact decode: not a permutation",
           lambda: checks.argmin_labels(wrong, pd_theta, pd_tables), True)

    g9, g9_x, g9_theta = fitted("pd", 9)
    greedy = estimator.predict_batch(g9, g9_x)
    expect("pd greedy: m=9 labels",
           lambda: checks.pd_adjacent_optimal(greedy, g9_theta, g9.loss), False)
    bad = list(greedy)
    sigma = bad[0]
    item_at = {r: j for j, r in enumerate(sigma)}
    bad[0] = worsened(sigma, g9_theta[0], g9.loss,
                      [(item_at[r], item_at[r + 1]) for r in range(1, 9)])
    expect("pd greedy: an improving adjacent swap left",
           lambda: checks.pd_adjacent_optimal(bad, g9_theta, g9.loss), True)
    bad[0] = (1,) * 9
    expect("pd greedy: repeated rank",
           lambda: checks.pd_adjacent_optimal(bad, g9_theta, g9.loss), True)

    m7, m7_x, m7_theta = fitted("map", 7, rows=4)
    local = estimator.predict_batch(m7, m7_x)
    expect("map local: m=7 labels",
           lambda: checks.map_two_swap_optimal(local, m7_theta, m7.loss), False)
    bad = list(local)
    bad[1] = worsened(bad[1], m7_theta[1], m7.loss,
                      [(a, b) for a in range(7) for b in range(a + 1, 7)])
    expect("map local: an improving 2-swap left",
           lambda: checks.map_two_swap_optimal(bad, m7_theta, m7.loss), True)

    alpha = estimator.predict_batch(model, xb, path="alpha")
    expect("alpha path equals fast path",
           lambda: checks.same_labels_where_untied(alpha, labels, theta, tables), False)
    expect("alpha path: one label perturbed",
           lambda: checks.same_labels_where_untied(alpha, flipped, theta, tables), True)

    expect("risk inside envelope", lambda: checks.risk_in_envelope("r", 0.3, 0.2, 0.4, 0.01),
           False)
    expect("risk below Bayes less slack",
           lambda: checks.risk_in_envelope("r", 0.18, 0.2, 0.4, 0.01), True)
    expect("risk above best constant",
           lambda: checks.risk_in_envelope("r", 0.42, 0.2, 0.4, 0.01), True)

    csv = "loss,noise_mode,n,replication,excess_exact,excess_test,seed\n" \
          "fscore,smooth_crossing,32,0,0.01,0.02,1\nfscore,smooth_crossing,64,0,0.005,-0.01,1\n"
    expect("rates: non-negative excess", lambda: checks.rates_rows(csv, 2), False)
    expect("rates: negative excess_exact",
           lambda: checks.rates_rows(csv.replace("0.005", "-0.005"), 2), True)
    expect("rates: a row missing", lambda: checks.rates_rows(csv, 3), True)

    good = ("decomposition identity: max error 0.000e+00\n"
            "decoder vs brute force: 0 mismatches in 50 instances\nok\n")
    expect("qsl check: clean output", lambda: checks.qsl_check_output(0, good, 50), False)
    expect("qsl check: one mismatch",
           lambda: checks.qsl_check_output(0, good.replace(": 0 mis", ": 1 mis"), 50), True)
    expect("qsl check: decomposition error",
           lambda: checks.qsl_check_output(0, good.replace("0.000e+00", "3.0e-09"), 50), True)
    expect("qsl check: nonzero exit", lambda: checks.qsl_check_output(1, good, 50), True)

    ftables = checks.Tables(make_loss("pd", 4), with_u=True, with_loss_matrix=True)
    masses, cond, noise = inputs.finite_problem_arrays(ftables.loss, 12, rng)
    g = cond @ ftables.u + noise
    problem = theory.FiniteProblem(ftables.loss, masses, cond)
    preds = theory.decode_states(problem, g)
    comp = theory.comparison_check(problem, g, p=1.0)
    tsy = theory.tsybakov_check(problem, preds, 1.0)

    def finite(problem=problem, preds=preds, comp=comp, tsy=tsy):
        return lambda: checks.finite_problem(problem, g, 1.0, comp, tsy, preds, ftables)

    expect("theory: random pd problem", finite(), False)
    expect("theory: excess reported 1% high",
           finite(comp=dataclasses.replace(comp, lhs=comp.lhs * 1.01 + 1e-6)), True)
    expect("theory: bound reported as violated",
           finite(tsy=dataclasses.replace(tsy, holds=False)), True)
    moved = list(preds)
    moved[0] = second_best(g[0], ftables)
    expect("theory: a state decoded to a non-argmin", finite(preds=moved), True)
    skewed = theory.FiniteProblem(ftables.loss, masses, cond)
    skewed.loss_matrix = skewed.loss_matrix.copy()
    skewed.loss_matrix[0, 0] += 0.01
    expect("theory: conditional risks off by a loss entry", finite(problem=skewed), True)

    bad = RESULTS.count(False)
    print(f"{len(RESULTS) - bad} of {len(RESULTS)} cases behaved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
