"""Seeded input generation for the benchmark workloads.

Every input is a pure function of the workload seed (or of a fixed constant
where noted), so the same seed always gives the same files and arrays.  The
program sees only what is generated here.
"""

from __future__ import annotations

import math

import numpy as np
from qslearn.synth import MultilabelGenerator, SyntheticSpec

# scene-shaped data: the scene benchmark's size, dimension and label count
SCENE_N, SCENE_D, SCENE_M = 2407, 294, 6
SCENE_N_TEST = 481  # the last 20% of rows form the prediction file
SCENE_LATENT = 3
# seed of the fixed-input --standardize probe; independent of --seed on purpose
PROBE_SEED = 20181016
PROBE_N = 200


def generator(seed: int, m: int, latent: int = SCENE_LATENT) -> MultilabelGenerator:
    return MultilabelGenerator(SyntheticSpec(d=latent, m=m, seed=seed))


def scene_data(seed: int, n: int = SCENE_N):
    """Labels from the synthetic generator over a latent in [0,1]^3, mapped
    into SCENE_D noisy random-Fourier features in roughly [0, 1].

    Returns (feature_text, x, labels, q): ``feature_text`` holds one libsvm
    feature string per row with six decimals, ``x`` the floats those strings
    parse to, and ``q`` the exact label marginals P(y_j = 1 | latent).
    """
    gen = generator(seed, SCENE_M)
    rng = np.random.default_rng([seed, 1])
    z, labels = gen.sample(n, rng)
    freq = rng.normal(scale=1.2, size=(SCENE_LATENT, SCENE_D))
    phase = rng.uniform(0.0, 2.0 * math.pi, size=SCENE_D)
    x = 0.5 + 0.5 * np.cos(2.0 * math.pi * z @ freq + phase)
    x += rng.normal(scale=0.1, size=x.shape)
    # six decimals, as the scene files have; the strings parse back to ticks / 1e6 exactly
    ticks = np.rint(x * 1e6)
    row_format = " ".join(f"{j + 1}:%.6f" for j in range(SCENE_D))
    parsed = ticks / 1e6
    text = [row_format % tuple(row) for row in parsed.tolist()]
    return text, parsed, labels, gen.q(z)


def libsvm_line(label, features: str) -> str:
    lab = ",".join(str(j) for j, b in enumerate(label) if b)
    return f"{lab} {features}\n"


def dense_features_text(row) -> str:
    """Full-precision feature string; float(repr(v)) == v."""
    return " ".join(f"{j + 1}:{float(v)!r}" for j, v in enumerate(row))


def write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def relevance_sample(gen: MultilabelGenerator, n: int, top: int, rng: np.random.Generator):
    """Relevance vectors in {0..top}^m as sums of ``top`` independent label draws."""
    x = gen.sample_inputs(n, rng)
    acc = np.zeros((n, gen.spec.m), dtype=int)
    for _ in range(top):
        acc += np.asarray(gen.sample_labels(x, rng), dtype=int)
    return x, [tuple(int(v) for v in row) for row in acc]


def finite_problem_arrays(loss, n_states: int, rng: np.random.Generator):
    """Dirichlet masses and conditionals plus a perturbed surrogate g.

    g is the exact conditional mean embedding plus Gaussian noise, so the
    comparison inequalities are exercised away from the trivial g = g*.
    """
    masses = rng.dirichlet(np.ones(n_states))
    cond = rng.dirichlet(np.ones(loss.n_observations()), size=n_states)
    noise = rng.normal(scale=0.05, size=(n_states, loss.r))
    return masses, cond, noise
