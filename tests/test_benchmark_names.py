"""Every library name the benchmark reaches for still exists.

``benchmarks/tracer.py`` wraps the functions listed in ``SPANNED`` by
module and attribute, and the workloads and their checks call a few more
by name; a rename or an API trim would only show as a failing
``benchmarks/run.py --trace 1``.  The tracer module is read, never
installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"

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

