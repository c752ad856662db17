"""Batch command-line surface: constants | check | train | predict | eval | rates.

Exit codes: 0 success, 1 check failure, 2 usage error: a flag the command
does not declare (each command takes only the flags it reads, matched whole),
a file that cannot be read or written (any OSError), or malformed data,
model or config.  Every command is deterministic: check, train and eval
given --seed, rates given its spec's seed or --seed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .data import parse_multilabel, split, standardize
from .decode import argmin_untied, decode_batch, decode_bruteforce
from .estimator import (empirical_risk, fit, load_model, predict_batch, predict_models,
                        save_model, select_and_refit, select_lambda)
from .kernels import KernelSpec, cross_kernel
from .losses import LOSS_NAMES, DiscreteLoss, LossConfigError, decomposition_check, make_loss
from .losses.base import BLOCK_CELLS
from .synth import MultilabelGenerator, SyntheticSpec, rate_experiment, rate_rows_csv

USAGE_ERROR = 2
CHECK_FAILURE = 1
_CHECK_DRAWS = 100  # draws per check instance before a tied one is kept


def _loss_from_args(args) -> DiscreteLoss:
    cfg = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise LossConfigError(f"loss config {args.config} must be a JSON object")
    name = args.loss or cfg.get("name")
    m = args.m if args.m is not None else cfg.get("m")
    if name is None or m is None:
        raise LossConfigError("loss name and m are required (flags or config)")
    params = {k: v for k, v in cfg.items() if k not in ("name", "m")}
    flags = {"k": args.k, "R": args.relevance}
    params.update((key, val) for key, val in flags.items() if val is not None)
    return make_loss(name, m, **params)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_constants(args) -> int:
    loss = _loss_from_args(args)
    sharp = loss.sharp()
    record = {
        "loss": loss.name,
        "m": loss.m,
        "r": sharp.r,
        "f_inf_norm": sharp.f_inf_norm,
        "u_max": sharp.u_max,
        "a": sharp.a,
        "is_bound": sharp.is_bound,
        "affine_dimension": loss.r,
        "decoder": loss.decoder,
        "note": sharp.note,
    }
    if args.format == "json":
        _emit(json.dumps(record, indent=2) + "\n", args.out)
    else:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([record, map(str, record.values())])
        _emit(buf.getvalue(), args.out)
    return 0


def cmd_check(args) -> int:
    if args.instances < 1:
        raise ValueError(f"--instances must be at least 1, got {args.instances}")
    loss = _loss_from_args(args)
    failures = []
    err = decomposition_check(loss)
    print(f"decomposition identity: max error {err:.3e}")
    if err > 1e-12:
        failures.append(f"{loss.name}: decomposition error {err:.3e} > 1e-12")
    rng = np.random.default_rng(args.seed)
    observations, u_rows = loss.observation_table.tuples, loss.observation_table.rows
    f_rows = loss.output_table.rows
    thetas, draws, redrawn, tries = [], [], 0, 0
    while len(thetas) < args.instances:
        # a block of draws in stream order, no more than the instances left
        # need, screened at once; ties between distinct outputs fall to
        # rounding, outside the decoder contract, and are redrawn
        block = []
        for _ in range(min(args.instances - len(thetas), max(1, BLOCK_CELLS // len(f_rows)))):
            n = int(rng.integers(5, 15))
            weights = rng.normal(size=n)
            drawn = rng.integers(len(observations), size=n)
            block.append((weights, drawn, np.sum(weights[:, None] * u_rows[drawn], axis=0)))
        untied = argmin_untied(f_rows, np.array([theta for _, _, theta in block]))
        for (weights, drawn, theta), ok in zip(block, untied):
            tries += 1
            redrawn += not ok
            if ok or tries == _CHECK_DRAWS:  # the last of a run of tied draws is kept
                thetas.append(theta)
                draws.append(np.bincount(drawn, weights, minlength=len(observations)))
                tries = 0
    labels = decode_batch(loss, np.reshape(thetas, (-1, loss.r)))
    oracle = decode_bruteforce(loss, np.reshape(draws, (-1, len(observations))), observations)
    mismatches = sum(z != o for z, o in zip(labels, oracle))
    print(f"tied instances redrawn: {redrawn}")
    print(f"decoder vs brute force: {mismatches} mismatches in {args.instances} instances")
    if mismatches:
        failures.append(f"{loss.name}: {mismatches} decoder mismatches")
    if failures:
        for f in failures:
            print("FAIL:", f, file=sys.stderr)
        return CHECK_FAILURE
    print("ok")
    return 0


def _check_kernel_flags(args) -> None:
    """Refuse flag pairs where one flag would silently override the other."""
    if args.lam is not None and args.lambda_grid is not None:
        raise ValueError("--lambda and --lambda-grid exclude each other; give one")
    if args.kernel == "linear" and args.bandwidth is not None:
        raise ValueError("--bandwidth sets the gaussian kernel; --kernel linear has none")


def _lambda_grid(args, n: int) -> list[float]:
    if args.lam is not None:
        return [args.lam]
    if args.lambda_grid is None:
        return [10.0**k * n**-0.5 for k in range(-3, 2)]
    if not all(t.strip() for t in args.lambda_grid.split(",")):
        raise ValueError(f"--lambda-grid {args.lambda_grid!r} has an empty entry")
    return [float(t) for t in args.lambda_grid.split(",")]


def cmd_train(args) -> int:
    if not args.out:
        raise ValueError("--out is required for train")
    _check_kernel_flags(args)
    loss = _loss_from_args(args)
    ds = parse_multilabel(args.data, loss.m, fmt=args.data_format, d=args.d)
    x = ds.dense_features()
    scaler = None
    if args.standardize:
        scaler = standardize(x)
        x = scaler.apply(x)
    grid = _lambda_grid(args, ds.n)
    if len(grid) > 1 and ds.n < 2:
        raise ValueError(f"a lambda grid needs 2 rows, for training and validation; "
                         f"{args.data} has {ds.n}, so give one --lambda")
    kernel = KernelSpec(args.kernel, args.bandwidth)
    if len(grid) > 1:
        perm = np.random.default_rng(args.seed).permutation(ds.n)
        n_val = max(1, int(0.25 * ds.n))
        risk, model = select_and_refit(loss, kernel, grid, x, ds.labels, perm[n_val:], perm[:n_val])
        print(f"selected lambda = {model.lam:.6g} (validation risk {risk:.4f})")
    else:
        model = fit(loss, kernel, grid[0], x, ds.labels)
    model.scaler = scaler
    save_model(model, args.out)
    print(f"model written to {args.out}")
    return 0


def _format_label(loss: DiscreteLoss, z) -> str:
    """A permutation as its ranks, a subset as its item indices."""
    if loss.output_space.kind == "perm":
        return " ".join(str(r) for r in z)
    return ",".join(str(j) for j, b in enumerate(z) if b)


def cmd_predict(args) -> int:
    model = load_model(args.model)
    if args.standardize and model.scaler is None:
        raise ValueError(f"{args.model} has no saved scaler; train it with --standardize")
    ds = parse_multilabel(args.data, model.loss.m, fmt=args.data_format, d=model.x_train.shape[1])
    path = "alpha" if args.decompose_free else "fast"
    preds = predict_batch(model, ds.features, path, model.scaler if args.standardize else None)
    _emit("\n".join(_format_label(model.loss, z) for z in preds) + "\n", args.out)
    return 0


def cmd_eval(args) -> int:
    _check_kernel_flags(args)
    names = "zero_one,hamming,fscore" if args.losses is None else args.losses
    if not all(t.strip() for t in names.split(",")):
        raise ValueError(f"--losses {names!r} has an empty entry")
    if args.m is None:
        raise LossConfigError("--m is required to parse multilabel data")
    ds = parse_multilabel(args.data, args.m, fmt=args.data_format, d=args.d)
    if ds.n < 3:
        raise ValueError(f"eval needs 3 rows, for training, validation and test; {args.data} "
                         f"has {ds.n}")
    train, val, test = split(ds, seed=args.seed)
    x_tr, x_va, x_te = (part.dense_features() for part in (train, val, test))
    scaler = standardize(x_tr)
    x_tr, x_va, x_te = (scaler.apply(x) for x in (x_tr, x_va, x_te))
    losses = [make_loss(name, ds.m) for name in names.split(",")]
    path = "alpha" if args.decompose_free else "fast"
    picks = select_lambda(losses, KernelSpec(args.kernel, args.bandwidth),
                          _lambda_grid(args, train.n), x_tr, train.labels, x_va, val.labels, path)
    # every pick carries the kernel its split's Gram was built with
    k_te = cross_kernel(picks[0][1].kernel, x_te, x_tr)
    preds = predict_models([model for _, model in picks], k_te, path=path)
    records = []
    for (val_risk, model), loss, pred in zip(picks, losses, preds):
        test_risk = empirical_risk(pred, loss, test.labels)
        records.append(
            {"loss": loss.name, "lambda": model.lam, "val_risk": val_risk, "test_risk": test_risk}
        )
        print(f"{loss.name}: lambda={model.lam:.6g} val={val_risk:.4f} test={test_risk:.4f}",
              file=sys.stderr)
    if args.format == "json":
        _emit(json.dumps(records, indent=2) + "\n", args.out)
    else:
        lines = ["loss,lambda,val_risk,test_risk"] + [
            f"{r['loss']},{r['lambda']:.6g},{r['val_risk']:.6g},{r['test_risk']:.6g}"
            for r in records
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


# the keys a rates spec may hold: SyntheticSpec's fields, and noise_modes for
# one experiment per mode
_SPEC_KEYS = {field.name for field in dataclasses.fields(SyntheticSpec)} | {"noise_modes"}


def cmd_rates(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad rates spec {args.spec}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValueError(f"rates spec {args.spec} must be a JSON object, not {type(cfg).__name__}")
    unknown = sorted(set(cfg) - _SPEC_KEYS)
    if unknown:
        raise ValueError(f"rates spec {args.spec} has unknown key(s) {', '.join(unknown)}")
    if "noise_modes" in cfg:
        modes = cfg.pop("noise_modes")
        if not isinstance(modes, list) or not modes or "noise_mode" in cfg:
            raise ValueError("rates spec noise_modes must be a nonempty list, without noise_mode")
    else:
        modes = [cfg.pop("noise_mode", "smooth_crossing")]
    if args.seed is not None:
        cfg["seed"] = args.seed
    specs = [SyntheticSpec(noise_mode=mode, **cfg) for mode in modes]
    for spec in specs:  # a bad loss or margin is refused before the directory is made
        spec.make_loss(), MultilabelGenerator(spec)
    if args.out_dir:  # and the directory before the experiments, so a bad one costs none
        os.makedirs(args.out_dir, exist_ok=True)
    with ThreadPoolExecutor(max_workers=max(args.threads, 1)) as pool:
        reports = list(pool.map(rate_experiment, specs))
    csv_text = rate_rows_csv([row for rep in reports for row in rep.rows])
    summary = json.dumps([rep.summary() for rep in reports], indent=2) + "\n"
    if args.out_dir:
        _emit(csv_text, f"{args.out_dir}/rates.csv")
        _emit(summary, f"{args.out_dir}/summary.json")
        print(f"wrote {args.out_dir}/rates.csv and {args.out_dir}/summary.json")
    else:
        sys.stdout.write(csv_text + summary)
    return 0


# Every flag a command may declare, as (names, add_argument keywords).
_FLAGS = {
    "loss": (["--loss"], {"help": f"loss name ({', '.join(LOSS_NAMES)})"}),
    "m": (["--m"], {"type": int, "help": "number of classes"}),
    "k": (["--k"], {"type": int, "help": "Prec@k cutoff"}),
    "relevance": (["--relevance", "--R"], {"type": int,
                                          "help": "top relevance score for ndcg/eru"}),
    "config": (["--config"], {"help": "JSON loss config; flags override"}),
    "kernel": (["--kernel"], {"choices": ["gaussian", "linear"], "default": "gaussian"}),
    "bandwidth": (["--bandwidth"], {"type": float,
                                    "help": "gaussian bandwidth (default: median heuristic)"}),
    "lambda": (["--lambda"], {"dest": "lam", "type": float, "help": "ridge regularization"}),
    "lambda-grid": (["--lambda-grid"], {"help": "comma-separated; default 10^k n^-1/2, k=-3..1"}),
    "data": (["--data"], {"required": True, "help": "dataset path (.gz ok)"}),
    "data-format": (["--data-format"], {"choices": ["libsvm_multilabel", "csv"],
                                        "default": "libsvm_multilabel"}),
    "d": (["--d"], {"type": int, "help": "feature dimension override for libsvm parsing"}),
    "standardize": (["--standardize"], {"action": "store_true", "help": "scale features: "
                                        "train fits and saves the scaler, predict applies it"}),
    "model": (["--model"], {"required": True}),
    "decompose-free": (["--decompose-free"], {"action": "store_true",
                                              "help": "use the weight-based inference path"}),
    "losses": (["--losses"], {"help": "comma-separated metric losses "
                                      "(default zero_one,hamming,fscore)"}),
    "instances": (["--instances"], {"type": int, "default": 50}),
    "spec": (["--spec"], {"required": True}),
    "out-dir": (["--out-dir"], {}),
    "spec-seed": (["--seed"], {"type": int, "help": "replaces the spec's seed"}),
    "threads": (["--threads"], {"type": int, "default": os.cpu_count() or 1}),
    "seed": (["--seed"], {"type": int, "default": 0}),
    "format": (["--format"], {"choices": ["csv", "json"], "default": "csv"}),
    "out": (["--out"], {"help": "output file (default stdout)"}),
}
_LOSS_FLAGS = ("loss", "m", "k", "relevance", "config")
_KERNEL_FLAGS = ("kernel", "bandwidth", "lambda", "lambda-grid")
_DATA_FLAGS = ("data", "data-format")

# Each command declares exactly the flags its cmd_* reads, so any other flag
# is an argparse usage error instead of a silent no-op.
_COMMANDS = {
    "constants": (cmd_constants, "sharp constant table for a loss",
                  (*_LOSS_FLAGS, "format", "out")),
    "check": (cmd_check, "decomposition + decoder/oracle verification",
              (*_LOSS_FLAGS, "instances", "seed")),
    "train": (cmd_train, "fit a surrogate model on a dataset",
              (*_LOSS_FLAGS, *_KERNEL_FLAGS, *_DATA_FLAGS, "d", "standardize", "seed", "out")),
    "predict": (cmd_predict, "predict labels with a saved model",
                ("model", *_DATA_FLAGS, "decompose-free", "standardize", "out")),
    "eval": (cmd_eval, "split, validate lambda, report test metrics",
             ("m", *_KERNEL_FLAGS, *_DATA_FLAGS, "d", "losses", "decompose-free", "seed",
              "format", "out")),
    "rates": (cmd_rates, "learning-rate experiment from a JSON spec",
              ("spec", "out-dir", "spec-seed", "threads")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qsl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in _COMMANDS.items():
        # whole flags only: an abbreviation would let rates' --out reach --out-dir
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in flags:
            names, kwargs = _FLAGS[flag]
            p.add_argument(*names, **kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if (getattr(args, "seed", None) or 0) < 0:  # numpy's own refusal names no flag
            raise ValueError(f"--seed must be non-negative, got {args.seed}")
        return args.func(args)
    except (ValueError, OSError) as exc:  # LossConfigError and DataFormatError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
