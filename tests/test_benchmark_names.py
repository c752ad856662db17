"""Every library name the benchmark reaches for still exists.

``benchmarks/tracer.py`` wraps the functions listed in ``SPANNED`` by
module and attribute, and the workloads and their checks call a few more
by name; a rename or an API trim would only show as a failing
``benchmarks/run.py --trace 1``.  The tracer module is read here, and
installed only in a subprocess, so its wrappers cannot reach other tests.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
SRC = Path(__file__).resolve().parents[1] / "src"

# called by name from workloads.py, checks.py, selftest.py, inputs.py and run.py
CALLED = [
    ("qslearn.theory", "conditional_risks"),
    ("qslearn.theory", "decode_states"),
    ("qslearn.theory", "comparison_check"),
    ("qslearn.theory", "tsybakov_check"),
    ("qslearn.theory", "FiniteProblem"),
    ("qslearn.estimator", "predict_batch"),
    ("qslearn.estimator", "fit"),
    ("qslearn.kernels", "median_heuristic"),
    ("qslearn.kernels", "KernelSpec"),
    ("qslearn.cli", "main"),
    ("qslearn.losses", "make_loss"),
    ("qslearn.losses", "DiscreteLoss"),
    ("qslearn.losses", "MeanAveragePrecision"),
    ("qslearn.losses", "PairwiseDisagreement"),
    ("qslearn.decode", "DEFAULT_BUDGET"),
    ("qslearn.synth", "MultilabelGenerator"),
    ("qslearn.synth", "SyntheticSpec"),
]


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCHMARKS / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _tracer()


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, _ in TRACER.SPANNED] + CALLED)
def test_benchmark_name_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    if "." in attr:  # the tracer wraps methods where their class defines them
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(owner, cls_name))
    else:
        getattr(owner, attr)



# installs the tracer, runs the CLI commands given as JSON argument lists,
# and prints the tracer's counters and its number of spans by name
TRACED_RUN = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("bench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
tr = tracer.Tracer()
tracer.install(tr)
tr.enabled = True
from qslearn import cli
for argv in json.loads(sys.argv[2]):
    assert cli.main(argv) == 0, argv
spans = {name: agg[0] for name, agg in tr.self_times().items()}
print(json.dumps({"counters": tr.counters, "spans": spans}))
"""


def _write_rows(path, x):
    path.write_text("".join(f"{int(a > 0)} 1:{a:.6f} 2:{b:.6f}\n" for a, b in x))


def _traced_run(commands) -> dict:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(BENCHMARKS / "tracer.py"), json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_tracer_hooks_count_factorizations_rows_and_model_bytes(tmp_path):
    n, grid = 40, [0.01, 0.1, 1.0]
    x = np.random.default_rng(0).normal(size=(n, 2))
    data = tmp_path / "toy.libsvm"
    _write_rows(data, x)
    model = tmp_path / "m.npz"
    commands = [
        ["train", "--data", str(data), "--m", "2", "--loss", "hamming",
         "--lambda-grid", ",".join(map(str, grid)), "--out", str(model)],
        ["predict", "--model", str(model), "--data", str(data), "--out", str(tmp_path / "p.txt")],
    ]
    counters = _traced_run(commands)["counters"]
    # train selects lambda on 3/4 of the rows, one factorization per lambda,
    # then refits on all rows; the fast-path predict factors nothing
    n_tr = n - n // 4
    assert counters["kernels.factor_flops"] == len(grid) * n_tr**3 / 3.0 + n**3 / 3.0
    assert counters["data.parse_rows"] == 2 * n
    assert counters["estimator.model_bytes"] == model.stat().st_size


def test_predict_records_one_cross_kernel_span_per_row_block(tmp_path):
    # 5000 rows against 1000 training rows are three blocks of at most
    # BLOCK_CELLS kernel cells; each block's cross_kernel call is one
    # kernels.cross span, so kernels.cross_s still sees all kernel time
    from qslearn.cli import main
    from qslearn.losses.base import BLOCK_CELLS

    rng = np.random.default_rng(1)
    n_train, rows = 1000, 5000
    train, test, model = tmp_path / "train.libsvm", tmp_path / "test.libsvm", tmp_path / "m.npz"
    _write_rows(train, rng.normal(size=(n_train, 2)))
    _write_rows(test, rng.normal(size=(rows, 2)))
    assert main(["train", "--data", str(train), "--m", "2", "--loss", "hamming",
                 "--lambda-grid", "0.1", "--out", str(model)]) == 0
    blocks = -(-rows // (BLOCK_CELLS // n_train))
    assert blocks == 3
    for path in ([], ["--decompose-free"]):
        spans = _traced_run([["predict", "--model", str(model), "--data", str(test),
                              "--out", str(tmp_path / "p.txt")] + path])["spans"]
        assert spans["kernels.cross"] == blocks
        assert spans["estimator.predict"] == 1


def test_pd_predict_past_m8_records_no_heuristic_search(tmp_path):
    # PD decodes by one sort at every m; the greedy arc-set used to run here
    rng = np.random.default_rng(2)
    x = rng.normal(size=(60, 2))
    data, model = tmp_path / "pd9.libsvm", tmp_path / "m.npz"
    data.write_text("".join(
        ",".join(str(j) for j in np.flatnonzero(rng.uniform(size=9) < 0.4))
        + f" 1:{a:.6f} 2:{b:.6f}\n" for a, b in x))
    commands = [
        ["train", "--data", str(data), "--m", "9", "--loss", "pd",
         "--lambda", "0.1", "--out", str(model)],
        ["predict", "--model", str(model), "--data", str(data), "--out", str(tmp_path / "p.txt")],
    ]
    spans = _traced_run(commands)["spans"]
    assert spans["estimator.predict"] == 1
    assert "decode.heuristic_search" not in spans
