"""Run the qslearn benchmark.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py [--seed N] [--seconds S] [--trace 0|1]

With ``--workload`` one workload runs in this process: it sets up its
inputs from the seed (three times, reporting the median), runs whole rounds
until the next round would end past ``--seconds``, checks the outputs, and
prints its metrics by name, then one JSON line as the last line of output.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
program's layers and reports per-layer metrics per round instead.

Without ``--workload`` every workload runs in its own child process, one
after another, and a summary follows; with ``--trace 1`` each workload runs
untraced and then traced, and the difference is printed as the tracing
overhead.  The program is imported from ``src/`` next to this directory;
without it the run exits 2.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import os  # noqa: E402

# BLAS threads are pinned before numpy loads: one thread is steadier than two
# on a small shared machine, and the program's kernels are mostly not BLAS.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".bench_run")
WORKLOAD_NAMES = ("scene_pipeline", "decode_sweep", "exact_oracles")
SETUP_REPEATS = 3
STAGE_METRICS = ("stage1_s", "stage2_s", "stage3_s", "stage4_s")


def default_seconds() -> float:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            return float(json.load(fh)["run_seconds"])
    except (OSError, KeyError, ValueError):
        return 20.0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = default_seconds()
    return args


def import_program():
    if not os.path.isfile(os.path.join(SRC, "qslearn", "__init__.py")):
        print(f"error: no qslearn sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import qslearn

    if not os.path.abspath(qslearn.__file__).startswith(SRC + os.sep):
        print(f"error: qslearn imported from {qslearn.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def warm_up() -> None:
    """First calls into numpy/scipy code paths, outside any timing."""
    import numpy as np
    from qslearn import estimator, kernels
    from qslearn.losses import make_loss

    x = np.linspace(0.0, 1.0, 40).reshape(20, 2)
    y = [(i % 2, (i // 2) % 2) for i in range(20)]
    model = estimator.fit(make_loss("hamming", 2), kernels.KernelSpec("gaussian", 1.0), 0.1, x, y)
    estimator.predict_batch(model, x)
    estimator.predict_batch(model, x[:2], path="alpha")


def layer_metrics(tr, rounds: int) -> dict:
    """Per-round per-layer metrics from the tracer: name -> (value, unit)."""
    spans = tr.self_times()
    leaves = tr.leaf_totals()
    counters = tr.counters

    def self_s(*names):
        return sum(spans[n][1] for n in names if n in spans) / 1e9 / rounds

    def calls(*names):
        return sum(spans[n][0] for n in names if n in spans) / rounds

    def leaf(name, i):
        return leaves[name][i] / (1e9 if i else 1) / rounds if name in leaves else 0.0

    cli = [n for n in spans if n.startswith("cli.")]
    heuristic = ("decode.heuristic", "decode.heuristic_search")
    return {
        "data.parse_s": (self_s("data.parse"), "s"),
        "data.parse_rows": (counters.get("data.parse_rows", 0.0) / rounds, "count"),
        "data.standardize_s": (self_s("data.standardize"), "s"),
        "kernels.gram_s": (self_s("kernels.gram"), "s"),
        "kernels.gram_calls": (calls("kernels.gram"), "count"),
        "kernels.factor_s": (self_s("kernels.factor"), "s"),
        "kernels.factor_calls": (calls("kernels.factor"), "count"),
        "kernels.factor_flops": (counters.get("kernels.factor_flops", 0.0) / rounds, "flop"),
        "kernels.cross_s": (self_s("kernels.cross"), "s"),
        "kernels.weights_s": (self_s("kernels.weights"), "s"),
        "kernels.median_s": (self_s("kernels.median"), "s"),
        "losses.value_calls": (leaf("losses.value", 0), "count"),
        "losses.value_s": (leaf("losses.value", 1), "s"),
        "losses.f_row_calls": (leaf("losses.f_row", 0), "count"),
        "losses.f_row_s": (leaf("losses.f_row", 1), "s"),
        "losses.u_row_calls": (leaf("losses.u_row", 0), "count"),
        "decode.linear_s": (self_s("decode.linear"), "s"),
        "decode.linear_rows": (calls("decode.linear"), "count"),
        "decode.exact_s": (self_s("decode.exact"), "s"),
        "decode.exact_rows": (calls("decode.exact"), "count"),
        "decode.heuristic_s": (self_s(*heuristic), "s"),
        "decode.heuristic_rows": (calls("decode.heuristic"), "count"),
        "decode.bruteforce_s": (self_s("decode.bruteforce"), "s"),
        "decode.bruteforce_calls": (calls("decode.bruteforce"), "count"),
        "decode.space_too_large": (counters.get("decode.space_too_large", 0.0) / rounds, "count"),
        "estimator.fit_s": (self_s("estimator.fit"), "s"),
        "estimator.fit_calls": (calls("estimator.fit"), "count"),
        "estimator.predict_s": (self_s("estimator.predict"), "s"),
        "estimator.load_s": (self_s("estimator.load"), "s"),
        "estimator.load_calls": (calls("estimator.load"), "count"),
        "estimator.save_s": (self_s("estimator.save"), "s"),
        "estimator.model_bytes": (counters.get("estimator.model_bytes", 0.0) / rounds, "bytes"),
        "synth.sample_s": (self_s("synth.sample"), "s"),
        "synth.bayes_predictions_s": (self_s("synth.bayes_predictions"), "s"),
        "synth.excess_risk_s": (self_s("synth.excess_risk"), "s"),
        "theory.problem_build_s": (self_s("theory.problem_build"), "s"),
        "theory.comparison_s": (self_s("theory.comparison"), "s"),
        "theory.tsybakov_s": (self_s("theory.tsybakov"), "s"),
        "cli.self_s": (self_s(*cli), "s"),
    }


def layer_table(tr, rounds: int, stage_wall: float) -> list[str]:
    """Self time per layer per round, with its share of the stages' wall time."""
    per_layer: dict[str, list] = {}
    for name, (count, self_ns, _) in tr.self_times().items():
        agg = per_layer.setdefault(name.split(".")[0], [0.0, 0])
        agg[0] += self_ns / 1e9 / rounds
        agg[1] += count / rounds
    for name, (count, ns) in tr.leaf_totals().items():
        agg = per_layer.setdefault(name.split(".")[0], [0.0, 0])
        agg[0] += ns / 1e9 / rounds
        agg[1] += count / rounds
    lines = [f"  {'layer':<10} {'self s/round':>13} {'share':>7} {'calls/round':>12}"]
    total = 0.0
    for layer in ("data", "kernels", "losses", "decode", "estimator", "synth", "theory", "cli"):
        secs, count = per_layer.get(layer, (0.0, 0))
        total += secs
        lines.append(f"  {layer:<10} {secs:13.4f} {secs / stage_wall:7.1%} {count:12.0f}")
    lines.append(f"  {'untraced':<10} {stage_wall - total:13.4f} "
                 f"{(stage_wall - total) / stage_wall:7.1%}   (benchmark glue, uncovered code)")
    return lines


def run_one(args) -> int:
    import_program()
    import checks
    import tracer
    import workloads

    tr = None
    if args.trace:
        tr = tracer.Tracer()
        tracer.install(tr)
    warm_up()
    t_import = time.perf_counter() - T_START
    workdir = os.path.join(RUN_DIR, f"{args.workload}-{os.getpid()}")
    cls = workloads.WORKLOADS[args.workload]
    setups = []
    error = None
    rounds = attempted = failed = 0
    timer = workloads.Timer(tr)
    try:
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            w = cls(args.seed, workdir)
            timer.probes.append(workloads.calibrate())
            t0 = time.perf_counter()
            w.setup()
            setups.append(time.perf_counter() - t0)
        start = time.perf_counter()
        while True:
            r0 = time.perf_counter()
            outputs, a, f = w.run_round(timer)
            took = time.perf_counter() - r0
            attempted, failed, rounds = attempted + a, failed + f, rounds + 1
            w.verify(outputs)
            # stop before a round that would end past --seconds (checks excluded)
            if time.perf_counter() - start + took > args.seconds:
                break
    except checks.CheckFailed as exc:
        error = str(exc)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if rounds == 0:
        print(f"error: {args.workload} stopped before a round completed: {error}",
              file=sys.stderr)
        return 1

    scale = timer.scale()
    wall, _ = w.summarize(timer.samples)
    stages, issue = w.summarize({k: [v * scale for v in vs] for k, vs in timer.samples.items()})
    setup_wall = t_import + workloads.median(setups)
    setup_s = setup_wall * scale
    print(f"workload {args.workload}  seed {args.seed}  rounds {rounds}  trace {args.trace}  "
          f"nproc {os.cpu_count()}  BLAS threads {BLAS_THREADS}  "
          f"qsl rates --threads {workloads.RATES_THREADS}")
    print(f"  calibration: median block {workloads.median(timer.probes) * 1e3:.2f} ms over "
          f"{len(timer.probes)} probes; times below are wall x {scale:.4f}")
    print(f"  setup_s    {setup_s:.4f} s  (wall: imports and warm-up {t_import:.4f} s + median "
          "set-up of " + ", ".join(f"{s:.4f}" for s in setups) + ")")
    print(f"  peak_rss_mb {w.peak_rss_mb:.1f} MB  (set-up and first round, before its checks)")
    for key, stage, value, raw in zip(STAGE_METRICS, w.stage_names, stages, wall):
        print(f"  {key:<9} {value:.4f} s  ({stage}; wall {raw:.4f} s)")
    for name, value, unit in issue:
        print(f"  {name:<26} {value:.6g} {unit}")
    print(f"  attempted {attempted}  failed {failed}  correct {error is None}")
    if error:
        print(f"  CHECK FAILED: {error}")

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics(tr, rounds).items()}
        stage_wall = sum(sum(v) for v in timer.samples.values()) / rounds
        print("\n".join(layer_table(tr, rounds, stage_wall)))
        for name, m in metrics.items():
            print(f"  {name:<26} {m['value']:.6g} {m['unit']}/round")
        path = os.path.join(RUN_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        tr.write(path, {"workload": args.workload, "seed": args.seed, "rounds": rounds})
        print(f"  spans: {len(tr.spans)} written to {os.path.relpath(path, ROOT)}")
    else:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": w.peak_rss_mb, "unit": "MB"}}
        for key, value in zip(STAGE_METRICS, stages):
            metrics[key] = {"value": value, "unit": "s"}
    print(json.dumps({"correct": error is None, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if error is None else 1


def run_all(args) -> int:
    """Each workload in a child process; with --trace 1 also the overhead."""
    status = 0
    summary = {}
    for name in WORKLOAD_NAMES:
        results = {}
        for trace in ((0, 1) if args.trace else (0,)):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                status = 1
                break
            results[trace] = (json.loads(lines[-1]), proc.stdout)
        if 0 in results:
            summary[name] = results[0][0]
        if 1 in results:
            print(f"tracing overhead on {name} (traced - untraced):")
            traced = _stage_lines(results[1][1])
            for key, value in results[0][0]["metrics"].items():
                if key in traced:
                    delta = traced[key] - value["value"]
                    print(f"  {key:<9} {delta:+.4f} s  ({delta / value['value']:+.1%})")
    print(json.dumps(summary))
    return status


def _stage_lines(stdout: str) -> dict:
    """stageN_s values from a traced run's human-readable lines."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if parts and parts[0] in STAGE_METRICS:
            out[parts[0]] = float(parts[1])
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload:
        return run_one(args)
    import_program()
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
