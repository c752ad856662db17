"""Span recorder that wraps the program's public functions from outside.

``install`` replaces each public function of the traced layers with a
wrapper, at every name under which a ``qslearn`` module holds it (the
estimator imports ``build_gram`` by name, the CLI imports ``fit``, ...), and
wraps the loss methods ``value``/``f_row``/``u_row`` and a few other methods
on their classes.  Nothing in the program changes on disk.

A span is (name, parent, start, end) in ``perf_counter_ns`` time; spans stay
in memory and are written out once, at the end of the run.  The three loss
methods run up to millions of times per round, so they are recorded as
per-thread call counts and total time instead of spans, and their time is
charged to the enclosing span as covered child time.  A layer's self time is
its spans' durations minus the union of the intervals their children cover.
Wrappers record only while ``enabled`` is set; otherwise they add one
attribute test per call.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter_ns

NAME, PARENT, START, END, LEAF_NS = range(5)

LEAF_METHODS = ("value", "f_row", "u_row")

# (module, attribute or Class.method, span name)
SPANNED = [
    ("qslearn.data", "parse_multilabel", "data.parse"),
    ("qslearn.data", "standardize", "data.standardize"),
    ("qslearn.data", "Standardizer.apply", "data.standardize"),
    ("qslearn.kernels", "build_gram", "kernels.gram"),
    ("qslearn.kernels", "ridge_factor", "kernels.factor"),
    ("qslearn.kernels", "solve_ridge", "kernels.solve"),
    ("qslearn.kernels", "cross_kernel", "kernels.cross"),
    ("qslearn.kernels", "weights_at", "kernels.weights"),
    ("qslearn.kernels", "median_heuristic", "kernels.median"),
    ("qslearn.decode", "decode", "decode.linear"),  # renamed per call by path
    ("qslearn.decode", "decode_bruteforce", "decode.bruteforce"),
    ("qslearn.decode", "greedy_arcset", "decode.heuristic_search"),
    ("qslearn.decode", "qap_local_search", "decode.heuristic_search"),
    ("qslearn.estimator", "fit", "estimator.fit"),
    ("qslearn.estimator", "predict", "estimator.predict"),
    ("qslearn.estimator", "predict_batch", "estimator.predict"),
    ("qslearn.estimator", "empirical_risk", "estimator.risk"),
    ("qslearn.estimator", "save_model", "estimator.save"),
    ("qslearn.estimator", "load_model", "estimator.load"),
    ("qslearn.synth", "MultilabelGenerator.sample", "synth.sample"),
    ("qslearn.synth", "MultilabelGenerator.sample_inputs", "synth.sample"),
    ("qslearn.synth", "MultilabelGenerator.sample_labels", "synth.sample"),
    ("qslearn.synth", "bayes_predictions", "synth.bayes_predictions"),
    ("qslearn.synth", "excess_risk_exact", "synth.excess_risk"),
    ("qslearn.synth", "rate_experiment", "synth.rate_experiment"),
    ("qslearn.theory", "FiniteProblem.__init__", "theory.problem_build"),
    ("qslearn.theory", "comparison_check", "theory.comparison"),
    ("qslearn.theory", "tsybakov_check", "theory.tsybakov"),
] + [
    ("qslearn.cli", f"cmd_{cmd}", f"cli.{cmd}")
    for cmd in ("constants", "check", "train", "predict", "eval", "rates")
]


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._leaf_tables: list[dict] = []
        self._main_stack: list[int] = []

    # -- per-thread state ----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if main else []
            self._local.stack = stack
        return stack

    def _leaves(self) -> dict:
        table = getattr(self._local, "leaves", None)
        if table is None:
            table = defaultdict(lambda: [0, 0])
            with self._lock:
                self._leaf_tables.append(table)
            self._local.leaves = table
        return table

    # -- wrappers --------------------------------------------------------------
    def span(self, name: str, fn, namer=None, hook=None):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            # a worker thread's first span hangs under the main thread's open span
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else -1)
            rec = [namer(args, kwargs) if namer else name, parent, perf_counter_ns(), 0, 0]
            with self._lock:
                idx = len(self.spans)
                self.spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "SpaceTooLargeError":
                    self.counters["decode.space_too_large"] += 1
                raise
            finally:
                stack.pop()
                rec[END] = perf_counter_ns()
            if hook:
                hook(self, args, kwargs, result)
            return result

        return wrapped

    def leaf(self, name: str, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            t0 = perf_counter_ns()
            result = fn(*args, **kwargs)
            dt = perf_counter_ns() - t0
            agg = self._leaves()[name]
            agg[0] += 1
            agg[1] += dt
            stack = self._stack()
            if stack:
                self.spans[stack[-1]][LEAF_NS] += dt
            return result

        return wrapped

    # -- results ---------------------------------------------------------------
    def leaf_totals(self) -> dict[str, list]:
        out: dict[str, list] = defaultdict(lambda: [0, 0])
        for table in self._leaf_tables:
            for name, (calls, ns) in list(table.items()):
                out[name][0] += calls
                out[name][1] += ns
        return out

    def self_times(self) -> dict[str, list]:
        """name -> [spans, self ns, total ns]."""
        children: dict[int, list] = defaultdict(list)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                children[rec[PARENT]].append((rec[START], rec[END]))
        out: dict[str, list] = defaultdict(lambda: [0, 0, 0])
        for idx, rec in enumerate(self.spans):
            covered, reach = 0, None
            for start, end in sorted(children.get(idx, ())):
                if reach is None or start > reach:
                    covered += end - start
                    reach = end
                elif end > reach:
                    covered += end - reach
                    reach = end
            dur = rec[END] - rec[START]
            agg = out[rec[NAME]]
            agg[0] += 1
            agg[1] += dur - covered - rec[LEAF_NS]
            agg[2] += dur
        return out

    def write(self, path: str, meta: dict) -> None:
        names = sorted({rec[NAME] for rec in self.spans})
        code = {n: i for i, n in enumerate(names)}
        payload = {
            "meta": meta,
            "fields": ["name", "parent", "start_ns", "end_ns", "leaf_ns"],
            "names": names,
            "spans": [[code[r[NAME]], r[PARENT], r[START], r[END], r[LEAF_NS]] for r in self.spans],
            "leaves": {k: {"calls": v[0], "ns": v[1]} for k, v in self.leaf_totals().items()},
            "counters": dict(self.counters),
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _decode_path(args, kwargs) -> str:
    from qslearn.decode import DEFAULT_BUDGET
    from qslearn.losses import MeanAveragePrecision, PairwiseDisagreement

    loss = args[0]
    budget = args[2] if len(args) > 2 else kwargs.get("budget", DEFAULT_BUDGET)
    if isinstance(loss, PairwiseDisagreement):
        return "decode.exact" if loss.m <= budget.exact_limit else "decode.heuristic"
    if isinstance(loss, MeanAveragePrecision):
        return "decode.exact" if loss.m <= budget.exact_limit_map else "decode.heuristic"
    return "decode.linear"


def _count_rows(tracer, args, kwargs, result):
    tracer.counters["data.parse_rows"] += result.n


def _count_flops(tracer, args, kwargs, result):
    tracer.counters["kernels.factor_flops"] += args[0].n ** 3 / 3.0


def _count_bytes(tracer, args, kwargs, result):
    path = str(args[1])
    path = path if path.endswith(".npz") else path + ".npz"
    tracer.counters["estimator.model_bytes"] += os.path.getsize(path)


HOOKS = {
    "parse_multilabel": (None, _count_rows),
    "ridge_factor": (None, _count_flops),
    "save_model": (None, _count_bytes),
    "decode": (_decode_path, None),
}


def _loss_classes():
    from qslearn.losses import DiscreteLoss

    seen, todo = [], [DiscreteLoss]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return seen


def install(tracer: Tracer) -> None:
    """Wrap every traced callable at every name a qslearn module binds it to."""
    import qslearn.cli  # noqa: F401  (load every module before sweeping names)

    replaced = {}
    for module_name, attr, span_name in SPANNED:
        owner = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, tracer.span(span_name, cls.__dict__[meth]))
            continue
        original = getattr(owner, attr)
        namer, hook = HOOKS.get(attr, (None, None))
        replaced[id(original)] = (original, tracer.span(span_name, original, namer, hook))
    for cls in _loss_classes():
        for meth in LEAF_METHODS:
            if meth in cls.__dict__:
                setattr(cls, meth, tracer.leaf(f"losses.{meth}", cls.__dict__[meth]))
    for name, module in list(sys.modules.items()):
        if not name.startswith("qslearn") or module is None:
            continue
        for key, value in list(vars(module).items()):
            entry = replaced.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, key, entry[1])
