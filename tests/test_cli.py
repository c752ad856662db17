"""CLI commands: constants, check, train/predict/eval, rates; exit codes."""

import argparse
import csv
import json
import math
import re

import numpy as np
import pytest

import qslearn.cli as cli
import qslearn.data as dataset_module
import qslearn.estimator as estimator
import qslearn.kernels as kernels
from qslearn.data import parse_multilabel, split, standardize
from qslearn.estimator import empirical_risk, fit, load_model, predict_batch, save_model
from qslearn.kernels import GEMM_MIN_ROWS, KernelSpec, median_heuristic
from qslearn.losses import LOSS_NAMES, Hamming, NDCGType, enumerated_constants, make_loss
from qslearn.synth import MultilabelGenerator, SyntheticSpec

from conftest import popcount_partition


def make_toy_dataset(path, n=60, seed=0):
    """Linearly separable two-label toy set: labels are coordinate signs."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(n, 2))
    x = np.where(np.abs(x) < 0.2, np.sign(x) * 0.2 + x, x)  # margin band
    with open(path, "w", encoding="utf-8") as fh:
        for row in x:
            labels = [j for j in range(2) if row[j] > 0]
            lab = ",".join(str(j) for j in labels)
            fh.write(f"{lab} 1:{row[0]:.6f} 2:{row[1]:.6f}\n")


def run(args):
    return cli.main(args)


def test_constants_hamming(capsys):
    assert run(["constants", "--loss", "hamming", "--m", "10", "--format", "json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["a"] == pytest.approx(0.5, abs=1e-9)
    assert rec["r"] == 10 and rec["affine_dimension"] == 10


def test_constants_prec_at_k(capsys):
    assert run(["constants", "--loss", "prec_at_k", "--m", "9", "--k", "4", "--format", "json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["a"] == pytest.approx(1.5, abs=1e-9)


def test_constants_ndcg_matches_enumeration(capsys):
    assert run(["constants", "--loss", "ndcg", "--m", "3", "--R", "3", "--format", "json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    loss = NDCGType(3, R=3)
    f_max, u_max = enumerated_constants(loss)
    assert rec["a"] == pytest.approx(math.sqrt(loss.r) * f_max * u_max, rel=1e-9)


def test_block_partition_via_config(tmp_path, capsys):
    partition = [[[0, 0], [1, 1]], [[0, 1], [1, 0]]]
    cfg = tmp_path / "block.json"
    cfg.write_text(json.dumps({"name": "block_zero_one", "m": 2, "partition": partition}))
    assert run(["constants", "--config", str(cfg), "--format", "json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["a"] == pytest.approx(math.sqrt(2), abs=1e-9)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "block_zero_one", "m": 2, "partition": partition[:1]}))
    assert run(["constants", "--config", str(bad)]) == cli.USAGE_ERROR
    # a non-integral entry is refused, not truncated to a cover of the lattice
    bad.write_text(json.dumps({"name": "block_zero_one", "m": 2,
                               "partition": [[[0.5, 0], [1, 1]], [[0, 1], [1, 0.9]]]}))
    assert run(["constants", "--config", str(bad)]) == cli.USAGE_ERROR
    assert "0.5" in capsys.readouterr().err


def test_constants_requires_loss():
    assert run(["constants", "--m", "4"]) == cli.USAGE_ERROR


def test_parameter_the_loss_does_not_take_is_usage_error(tmp_path, capsys):
    assert run(["constants", "--loss", "hamming", "--m", "4", "--k", "2"]) == cli.USAGE_ERROR
    assert "'k'" in capsys.readouterr().err
    cfg = tmp_path / "f.json"
    cfg.write_text(json.dumps({"name": "fscore", "m": 3, "k": 7, "bogus": 1}))
    assert run(["check", "--config", str(cfg)]) == cli.USAGE_ERROR
    assert "unexpected keyword argument" in capsys.readouterr().err


def test_check_passes(capsys):
    assert run(["check", "--loss", "fscore", "--m", "4", "--instances", "25"]) == 0
    assert "ok" in capsys.readouterr().out


def test_check_detects_injected_corruption(monkeypatch, capsys):
    monkeypatch.setattr(cli, "decomposition_check", lambda loss: 0.5)
    assert run(["check", "--loss", "hamming", "--m", "3"]) == cli.CHECK_FAILURE
    assert "hamming" in capsys.readouterr().err


def test_check_redraws_tied_instances(capsys):
    # MAP scores tie often in exact arithmetic; rounding must not count as a mismatch
    assert run(["check", "--loss", "map", "--m", "4", "--instances", "150", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "decoder vs brute force: 0 mismatches in 150 instances" in out
    assert re.search(r"^tied instances redrawn: [1-9]\d*$", out, re.M)


@pytest.mark.parametrize("instances", ["0", "-2"])
def test_check_needs_one_instance(instances, capsys):
    assert run(["check", "--loss", "hamming", "--m", "3", "--instances", instances]) == \
        cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert "--instances" in captured.err and "ok" not in captured.out


def test_check_detects_wrong_decoder(monkeypatch, capsys):
    monkeypatch.setattr(Hamming, "decode_batch", lambda self, thetas: [(0,) * self.m] * len(thetas))
    assert run(["check", "--loss", "hamming", "--m", "3"]) == cli.CHECK_FAILURE
    assert "decoder mismatches" in capsys.readouterr().err


@pytest.mark.parametrize("name", LOSS_NAMES)
def test_constants_reports_class_decoder(name, tmp_path, capsys):
    params = {"prec_at_k": {"k": 2}, "block_zero_one": {"partition": popcount_partition(3)}}
    cfg = tmp_path / "loss.json"
    cfg.write_text(json.dumps({"name": name, "m": 3, **params.get(name, {})}))
    assert run(["constants", "--config", str(cfg), "--format", "json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["decoder"] == type(make_loss(name, 3, **params.get(name, {}))).decoder
    # the CSV row holds the same fields, quoted where they have commas (F-score's note)
    assert run(["constants", "--config", str(cfg)]) == 0
    header, row = csv.reader(capsys.readouterr().out.splitlines())
    assert header == list(rec) and row == [str(v) for v in rec.values()]


def test_train_eval_workflow(tmp_path, capsys):
    data = tmp_path / "toy.libsvm"
    make_toy_dataset(data, n=80)
    model = tmp_path / "model.npz"
    rc = run(
        ["train", "--data", str(data), "--m", "2", "--loss", "hamming",
         "--kernel", "gaussian", "--lambda", "0.001", "--out", str(model)]
    )
    assert rc == 0 and model.exists()

    preds = tmp_path / "preds.txt"
    rc = run(["predict", "--model", str(model), "--data", str(data), "--out", str(preds)])
    assert rc == 0
    # lambda near zero: training predictions nearly interpolate
    lines = preds.read_text().strip().split("\n")
    truth = [line.split(" ")[0] for line in data.read_text().strip().split("\n")]
    errs = sum(
        len({0, 1} & {int(t) for t in p.split(",") if t} ^ {int(t) for t in q.split(",") if t})
        for p, q in zip(lines, truth)
    ) / (2 * len(lines))
    assert errs <= 0.05

    rc = run(["eval", "--data", str(data), "--m", "2", "--format", "json",
              "--out", str(tmp_path / "metrics.json")])
    assert rc == 0
    records = json.loads((tmp_path / "metrics.json").read_text())
    by_loss = {r["loss"]: r for r in records}
    assert by_loss["hamming"]["test_risk"] <= 0.05
    assert by_loss["zero_one"]["test_risk"] <= 0.10
    assert by_loss["fscore"]["test_risk"] <= 0.10


def test_train_takes_m_from_config(tmp_path, capsys):
    data = tmp_path / "toy.libsvm"
    make_toy_dataset(data, n=40)
    cfg = tmp_path / "h.json"
    cfg.write_text(json.dumps({"name": "hamming", "m": 3}))
    model = tmp_path / "model.npz"
    assert run(["train", "--data", str(data), "--config", str(cfg), "--lambda", "0.1",
                "--out", str(model)]) == 0
    with np.load(model) as payload:
        assert payload["y_train"].shape == (40, 3)
    # eval has no loss config, so --m stays required
    assert run(["eval", "--data", str(data)]) == cli.USAGE_ERROR
    assert "--m is required" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("flags, named", [
    (["--lambda", "0.1", "--lambda-grid", "0.1,1"], ["--lambda ", "--lambda-grid"]),
    (["--kernel", "linear", "--bandwidth", "5"], ["--bandwidth", "--kernel linear"]),
])
def test_flag_that_would_be_overridden_is_usage_error(command, flags, named, tmp_path, capsys):
    data = tmp_path / "toy.libsvm"
    make_toy_dataset(data, n=40)
    model = tmp_path / "model.npz"
    argv = {"train": ["train", "--data", str(data), "--loss", "hamming", "--m", "2",
                      "--out", str(model)],
            "eval": ["eval", "--data", str(data), "--m", "2"]}[command]
    assert run(argv + flags) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert all(flag in captured.err for flag in named)
    assert not model.exists() and "selected lambda" not in captured.out


@pytest.mark.parametrize("bandwidth", ["inf", "nan", "0"])
def test_non_finite_bandwidth_is_usage_error(bandwidth, tmp_path, capsys):
    data = tmp_path / "toy.libsvm"
    make_toy_dataset(data, n=40)
    model = tmp_path / "model.npz"
    argv = ["train", "--data", str(data), "--loss", "hamming", "--m", "2", "--lambda", "0.1",
            "--bandwidth", bandwidth, "--out", str(model)]
    assert run(argv) == cli.USAGE_ERROR
    assert "finite bandwidth" in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("grid", ["", " ", "1,,2"], ids=["empty", "blank", "gap"])
def test_empty_lambda_grid_entry_is_usage_error(command, grid, tmp_path, capsys):
    data = tmp_path / "toy.libsvm"
    make_toy_dataset(data, n=40)
    model = tmp_path / "model.npz"
    argv = {"train": ["train", "--data", str(data), "--loss", "hamming", "--m", "2",
                      "--out", str(model)],
            "eval": ["eval", "--data", str(data), "--m", "2"]}[command]
    assert run(argv + ["--lambda-grid", grid]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert "--lambda-grid" in captured.err
    assert not model.exists() and "selected lambda" not in captured.out


@pytest.mark.parametrize("losses", ["", " ", "hamming,"], ids=["empty", "blank", "trailing"])
def test_empty_losses_entry_is_usage_error(losses, tmp_path, capsys):
    data = tmp_path / "toy.libsvm"
    make_toy_dataset(data, n=40)
    out = tmp_path / "e.json"
    assert run(["eval", "--data", str(data), "--m", "2", "--losses", losses,
                "--out", str(out)]) == cli.USAGE_ERROR
    assert "--losses" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("lam", ["nan", "inf"])
def test_non_finite_lambda_is_usage_error(command, lam, tmp_path, capsys):
    data = tmp_path / "toy.libsvm"
    make_toy_dataset(data, n=40)
    model = tmp_path / "model.npz"
    argv = {"train": ["train", "--data", str(data), "--loss", "hamming", "--m", "2",
                      "--out", str(model)],
            "eval": ["eval", "--data", str(data), "--m", "2"]}[command]
    assert run(argv + ["--lambda", lam]) == cli.USAGE_ERROR
    assert "lambda must be positive and finite" in capsys.readouterr().err
    assert not model.exists()


def test_eval_decompose_free_matches_fast(tmp_path):
    data = tmp_path / "toy.libsvm"
    make_toy_dataset(data, n=40, seed=3)
    out_fast = tmp_path / "fast.json"
    out_alpha = tmp_path / "alpha.json"
    base = ["eval", "--data", str(data), "--m", "2", "--losses", "hamming",
            "--lambda", "0.01", "--format", "json"]
    assert cli.main(base + ["--out", str(out_fast)]) == 0
    assert cli.main(base + ["--decompose-free", "--out", str(out_alpha)]) == 0
    assert json.loads(out_fast.read_text()) == json.loads(out_alpha.read_text())


def test_predict_overflowing_row_is_usage_error(tmp_path, capsys):
    data = tmp_path / "noisy.libsvm"
    make_noisy_dataset(data, n=40)
    model = tmp_path / "m.npz"
    assert run(["train", "--data", str(data), "--m", "3", "--loss", "pd", "--kernel", "linear",
                "--lambda", "0.1", "--out", str(model)]) == 0
    huge = tmp_path / "huge.libsvm"
    huge.write_text("0 1:1.7e308 2:-1.7e308 3:1.7e308\n")
    for flags in ([], ["--decompose-free"]):  # theta, or K_x before the alpha solve
        assert run(["predict", "--model", str(model), "--data", str(huge), *flags]) == cli.USAGE_ERROR
        err = capsys.readouterr().err
        assert "not finite" in err and len(err.splitlines()) == 1


def test_train_on_an_overflowing_linear_gram_is_usage_error(tmp_path, capsys):
    data = tmp_path / "huge.libsvm"
    data.write_text("0 1:1e200 2:1\n1 1:-1e200 2:2\n0,1 1:3 2:1e200\n")  # finite rows
    assert run(["train", "--data", str(data), "--m", "2", "--loss", "hamming", "--kernel",
                "linear", "--lambda", "0.1", "--out", str(tmp_path / "m.npz")]) == cli.USAGE_ERROR
    err = capsys.readouterr().err
    assert err == "error: the Gram matrix is not finite; the inputs overflow the kernel\n"


def test_one_class_subset_model_writes_item_zero(tmp_path):
    data = tmp_path / "one.libsvm"
    data.write_text("".join(f"0 1:{v:.2f}\n" for v in np.linspace(-1, 1, 12)))
    model, preds = tmp_path / "m.npz", tmp_path / "p.txt"
    assert run(["train", "--data", str(data), "--m", "1", "--loss", "hamming",
                "--lambda", "0.01", "--out", str(model)]) == 0
    assert run(["predict", "--model", str(model), "--data", str(data), "--out", str(preds)]) == 0
    assert preds.read_text().split("\n") == ["0"] * 12 + [""]
    assert cli._format_label(make_loss("pd", 2), (2, 1)) == "2 1"


def test_feature_index_past_int64_is_usage_error(tmp_path, capsys):
    data = tmp_path / "toy.libsvm"
    make_toy_dataset(data, n=20)
    model = tmp_path / "m.npz"
    assert run(["train", "--data", str(data), "--m", "2", "--loss", "hamming",
                "--lambda", "0.1", "--out", str(model)]) == 0
    huge = tmp_path / "huge.libsvm"
    huge.write_text("0 1:1\n1 18446744073709551621:1\n")
    capsys.readouterr()
    assert run(["train", "--data", str(huge), "--m", "2", "--loss", "hamming",
                "--lambda", "0.1", "--out", str(tmp_path / "h.npz")]) == cli.USAGE_ERROR
    assert run(["predict", "--model", str(model), "--data", str(huge)]) == cli.USAGE_ERROR
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: line 2: feature index 18446744073709551621 does not fit an int64"] * 2


def test_stray_feature_index_is_refused_before_densifying(tmp_path, capsys):
    data = tmp_path / "stray.libsvm"
    data.write_text("".join(f"{i % 2} 1:{i}\n" for i in range(12)) + "1 1000000000:1\n")
    cap = "13 rows x 1000000000 features (width from the largest feature index)"
    assert run(["train", "--data", str(data), "--m", "2", "--loss", "hamming",
                "--lambda", "0.1", "--out", str(tmp_path / "m.npz")]) == cli.USAGE_ERROR
    assert cap in capsys.readouterr().err
    # eval densifies its three parts, each well under the width's cap
    assert run(["eval", "--data", str(data), "--m", "2"]) == cli.USAGE_ERROR
    err = capsys.readouterr().err
    assert "x 1000000000 features (width from the largest feature index)" in err
    assert len(err.splitlines()) == 1


def test_predict_refuses_a_pairwise_pd_model(tmp_path, capsys):
    data = tmp_path / "noisy.libsvm"
    make_noisy_dataset(data, n=40)
    model = tmp_path / "m.npz"
    assert run(["train", "--data", str(data), "--m", "3", "--loss", "pd",
                "--lambda", "0.1", "--out", str(model)]) == 0
    with np.load(model) as payload:
        arrays = dict(payload)
    np.savez(model, **{**arrays, "format_version": np.array(2)})
    capsys.readouterr()
    assert run(["predict", "--model", str(model), "--data", str(data)]) == cli.USAGE_ERROR
    assert "format-2 pd model" in capsys.readouterr().err


def test_predict_missing_file_is_usage_error(tmp_path):
    assert run(["predict", "--model", str(tmp_path / "none.npz"),
                "--data", str(tmp_path / "none.libsvm")]) == cli.USAGE_ERROR


def test_rates_command(tmp_path):
    spec = {
        "d": 2, "m": 2, "n_grid": [24, 48], "n_test": 50,
        "replications": 1, "noise_modes": ["smooth_crossing"], "seed": 5,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_dir = tmp_path / "out"
    assert run(["rates", "--spec", str(spec_path), "--seed", "5", "--out-dir", str(out_dir)]) == 0
    csv_text = (out_dir / "rates.csv").read_text()
    assert csv_text.startswith("loss,noise_mode,n,replication")
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary[0]["noise_mode"] == "smooth_crossing"
    # reproducibility: running again yields identical artifacts
    out2 = tmp_path / "out2"
    assert run(["rates", "--spec", str(spec_path), "--seed", "5", "--out-dir", str(out2)]) == 0
    assert (out2 / "rates.csv").read_text() == csv_text


def test_rates_empty_grid_usage_error(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"n_grid": []}))
    assert run(["rates", "--spec", str(spec_path)]) == cli.USAGE_ERROR


RATES_SPEC = {"d": 2, "m": 2, "n_grid": [24, 48], "n_test": 40, "replications": 1}


@pytest.mark.parametrize("spec, named", [
    ([RATES_SPEC], "JSON object"),
    ({**RATES_SPEC, "extra": 3}, "extra"),
    ({**RATES_SPEC, "n_test": 0}, "n_test"),
    ({**RATES_SPEC, "n_grid": [0, 24]}, "n_grid"),
    ({**RATES_SPEC, "n_grid": 24}, "n_grid"),
    ({**RATES_SPEC, "replications": 0}, "replications"),
    ({**RATES_SPEC, "d": 0}, "d must"),
    ({**RATES_SPEC, "noise_modes": []}, "noise_modes"),
    ({**RATES_SPEC, "noise_modes": ["hard_margin"], "noise_mode": "hard_margin"}, "noise_modes"),
    ({**RATES_SPEC, "d": "2"}, "d must be an integer"),
    ({**RATES_SPEC, "n_grid": ["48"]}, "n_grid entry must be an integer"),
    ({**RATES_SPEC, "replications": True}, "replications must be an integer"),
    ({**RATES_SPEC, "n_grid": [24, True]}, "n_grid entry must be an integer"),
    ({**RATES_SPEC, "delta": "0.2"}, "delta must be a number"),
    ({**RATES_SPEC, "loss_name": 3}, "loss_name must be a string"),
    ({**RATES_SPEC, "loss_params": 5}, "loss_params"),
    ({**RATES_SPEC, "kernel": "rbf"}, "unknown kernel"),
], ids=["array", "unknown_key", "n_test", "n_grid_entry", "n_grid_scalar", "replications", "d",
        "no_modes", "both_mode_keys", "d_string", "n_grid_string", "replications_bool",
        "n_grid_bool", "delta_string", "loss_name_int", "loss_params_scalar", "kernel"])
def test_malformed_rates_spec_is_usage_error(spec, named, tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_dir = tmp_path / "out"
    assert run(["rates", "--spec", str(spec_path), "--out-dir", str(out_dir)]) == cli.USAGE_ERROR
    assert named in capsys.readouterr().err
    assert not out_dir.exists()


def test_unattainable_hard_margin_delta_is_usage_error(tmp_path, capsys):
    spec = {**RATES_SPEC, "m": 4, "noise_mode": "hard_margin", "delta": 0.45, "seed": 0}
    # checked first: a generator that took this delta would sample forever below
    with pytest.raises(ValueError, match="unattainable"):
        MultilabelGenerator(SyntheticSpec(**{**spec, "n_grid": tuple(spec["n_grid"])}))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_dir = tmp_path / "out"
    assert run(["rates", "--spec", str(spec_path), "--out-dir", str(out_dir)]) == cli.USAGE_ERROR
    assert "delta 0.45 is unattainable" in capsys.readouterr().err
    assert not out_dir.exists()


def test_pd_rates_run_beyond_m8(tmp_path):
    # PD's sort decoder is exact at every m, so its f* is known past m = 8
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({**RATES_SPEC, "loss_name": "pd", "m": 12}))
    out_dir = tmp_path / "out"
    assert run(["rates", "--spec", str(spec_path), "--out-dir", str(out_dir)]) == 0
    rows = (out_dir / "rates.csv").read_text().splitlines()
    assert len(rows) == 1 + len(RATES_SPEC["n_grid"])
    assert all(row.startswith("pd,") for row in rows[1:])


def test_threads_do_not_change_output(tmp_path):
    spec = {"d": 2, "m": 2, "n_grid": [24, 48], "n_test": 40, "replications": 1,
            "noise_modes": ["smooth_crossing", "hard_margin"], "delta": 0.2}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    outs = []
    for threads, tag in ((1, "a"), (4, "b")):
        out_dir = tmp_path / tag
        assert run(["rates", "--spec", str(spec_path), "--threads", str(threads),
                    "--out-dir", str(out_dir)]) == 0
        outs.append((out_dir / "rates.csv").read_text())
    assert outs[0] == outs[1]


def _rates_csv(tmp_path, tag, spec, *flags):
    spec_path = tmp_path / f"{tag}.json"
    spec_path.write_text(json.dumps(spec))
    out_dir = tmp_path / tag
    assert run(["rates", "--spec", str(spec_path), *flags, "--out-dir", str(out_dir)]) == 0
    with open(out_dir / "rates.csv", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_rates_seed_comes_from_spec_unless_flag_given(tmp_path):
    spec = {"d": 2, "m": 2, "n_grid": [24, 48], "n_test": 40, "replications": 1}
    seven = _rates_csv(tmp_path, "seven", {**spec, "seed": 7})
    zero = _rates_csv(tmp_path, "zero", {**spec, "seed": 0})
    five = _rates_csv(tmp_path, "five", {**spec, "seed": 7}, "--seed", "5")
    assert {row["seed"] for row in seven} == {"7"}
    assert {row["seed"] for row in zero} == {"0"}
    assert {row["seed"] for row in five} == {"5"}
    excess = [[row["excess_test"] for row in rows] for rows in (seven, zero)]
    assert excess[0] != excess[1]


# the flags each command declares, by argparse dest
OPTIONS = {
    "constants": {"loss", "m", "k", "relevance", "side", "config", "format", "out"},
    "check": {"loss", "m", "k", "relevance", "side", "config", "seed", "instances"},
    "train": {"loss", "m", "k", "relevance", "side", "config", "kernel", "bandwidth", "lam",
              "lambda_grid", "data", "data_format", "d", "standardize", "seed", "out"},
    "predict": {"model", "data", "data_format", "decompose_free", "standardize", "out"},
    "eval": {"m", "kernel", "bandwidth", "lam", "lambda_grid", "data", "data_format", "d",
             "losses", "decompose_free", "seed", "format", "out"},
    "rates": {"spec", "out_dir", "seed", "threads"},
}


def _declared(parser):
    return {a.dest for a in parser._actions
            if not isinstance(a, (argparse._HelpAction, argparse._SubParsersAction))}


def test_each_command_declares_only_the_flags_it_reads():
    parser = cli.build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert _declared(parser) == set()
    assert {name: _declared(p) for name, p in sub.choices.items()} == OPTIONS
    assert sum(map(len, OPTIONS.values())) == 55


# argv each command accepts, and (command, flag) pairs it refuses; None is the top level
BASE_ARGV = {
    "constants": ["constants", "--loss", "hamming", "--m", "3"],
    "check": ["check", "--loss", "hamming", "--m", "3"],
    "train": ["train", "--data", "x.svm", "--m", "2", "--loss", "hamming", "--out", "m.npz"],
    "predict": ["predict", "--model", "m.npz", "--data", "x.svm"],
    "eval": ["eval", "--data", "x.svm", "--m", "2"],
    "rates": ["rates", "--spec", "spec.json"],
}
FLAG_VALUES = {"--seed": "1", "--threads": "1", "--format": "json", "--out": "o.txt",
               "--d": "3", "--loss": "hamming", "--k": "2", "--relevance": "2", "--side": "p",
               "--config": "c.json", "--standardize": None}
REMOVED = (
    [(None, flag) for flag in ("--seed", "--threads", "--format", "--out")]
    + [("constants", flag) for flag in ("--seed", "--threads")]
    + [("check", flag) for flag in ("--threads", "--format", "--out")]
    + [("train", flag) for flag in ("--threads", "--format")]
    + [("predict", flag) for flag in ("--d", "--seed", "--threads", "--format")]
    + [("eval", flag) for flag in ("--threads", "--loss", "--k", "--relevance", "--side",
                                   "--config", "--standardize")]
    + [("rates", flag) for flag in ("--format", "--out")]
)


@pytest.mark.parametrize("command,flag", REMOVED)
def test_removed_flag_is_usage_error(command, flag, capsys):
    base = BASE_ARGV[command or "rates"]
    cli.build_parser().parse_args(base)
    given = [flag] + ([] if FLAG_VALUES[flag] is None else [FLAG_VALUES[flag]])
    argv = given + base if command is None else base + given
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    assert exc.value.code == cli.USAGE_ERROR
    assert "error:" in capsys.readouterr().err


def test_eval_json_on_stdout_parses(tmp_path, capsys):
    data = tmp_path / "toy.libsvm"
    make_toy_dataset(data, n=40, seed=3)
    assert run(["eval", "--data", str(data), "--m", "2", "--losses", "hamming,zero_one",
                "--lambda", "0.01", "--format", "json"]) == 0
    captured = capsys.readouterr()
    records = json.loads(captured.out)
    assert [r["loss"] for r in records] == ["hamming", "zero_one"]
    assert captured.err.startswith("hamming: lambda=")


def make_noisy_dataset(path, n=90, d=3, m=3, seed=1):
    """Labels are noisy coordinate signs, so validation risks differ across lambdas."""
    rng = np.random.default_rng(seed)
    x = rng.normal(loc=2.0, scale=[1.0, 3.0, 0.5], size=(n, d))
    flip = rng.uniform(size=(n, m)) < 0.2
    with open(path, "w", encoding="utf-8") as fh:
        for row, noise in zip(x, flip):
            labels = [j for j in range(m) if (row[j % d] > 2.0) != noise[j]]
            feats = " ".join(f"{j + 1}:{v:.6f}" for j, v in enumerate(row))
            fh.write(",".join(map(str, labels)) + " " + feats + "\n")


GRID = [0.001, 0.01, 0.1, 1.0]


def per_pair_eval(data, m, seed, losses, grid):
    """The eval records from one fit per (loss, lambda), as a reference."""
    train, val, test = split(parse_multilabel(str(data), m), seed=seed)
    scaler = standardize(train.dense_features())
    x_tr, x_va, x_te = (scaler.apply(p.dense_features()) for p in (train, val, test))
    kernel = KernelSpec("gaussian", median_heuristic(x_tr))
    records = []
    for name in losses:
        loss = make_loss(name, m)
        best = (np.inf, None, None)
        for lam in grid:
            model = fit(loss, kernel, lam, x_tr, train.labels)
            risk = empirical_risk(predict_batch(model, x_va), loss, val.labels)
            if risk < best[0]:
                best = (risk, lam, model)
        risk, lam, model = best
        test_risk = empirical_risk(predict_batch(model, x_te), loss, test.labels)
        records.append({"loss": name, "lambda": lam, "val_risk": risk, "test_risk": test_risk})
    return records


@pytest.mark.parametrize("seed", [0, 4])
def test_eval_equals_per_pair_reference(tmp_path, seed):
    data = tmp_path / "noisy.libsvm"
    make_noisy_dataset(data, seed=seed)
    out = tmp_path / "eval.json"
    assert run(["eval", "--data", str(data), "--m", "3", "--seed", str(seed),
                "--lambda-grid", ",".join(map(str, GRID)), "--format", "json",
                "--out", str(out)]) == 0
    got = json.loads(out.read_text())
    want = per_pair_eval(data, 3, seed, ["zero_one", "hamming", "fscore"], GRID)
    assert got == want


def _count_calls(monkeypatch, module, name, counts):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_eval_builds_one_gram_and_one_factor_per_lambda(tmp_path, monkeypatch):
    data = tmp_path / "noisy.libsvm"
    make_noisy_dataset(data)
    counts = {}
    for module, name in [(estimator, "build_gram"), (kernels, "ridge_factor"),
                         (estimator, "ridge_factor"), (kernels, "median_heuristic")]:
        _count_calls(monkeypatch, module, name, counts)
    assert run(["eval", "--data", str(data), "--m", "3", "--lambda-grid",
                ",".join(map(str, GRID)), "--out", str(tmp_path / "e.csv")]) == 0
    # the Gram reads the bandwidth from its own distances: no median_heuristic call
    assert counts == {"build_gram": 1, "ridge_factor": len(GRID)}


def test_train_grid_builds_two_grams_and_one_validation_kernel(tmp_path, monkeypatch):
    data = tmp_path / "noisy.libsvm"
    make_noisy_dataset(data)
    counts = {}
    for module, name in [(kernels, "median_heuristic"), (estimator, "build_gram"),
                         (estimator, "cross_kernel")]:
        _count_calls(monkeypatch, module, name, counts)
    assert run(["train", "--data", str(data), "--m", "3", "--loss", "hamming", "--lambda-grid",
                ",".join(map(str, GRID)), "--out", str(tmp_path / "m.npz")]) == 0
    # one Gram for the selection split, which chooses the bandwidth, and one
    # for the refit on all rows; no median_heuristic call
    assert counts == {"build_gram": 2, "cross_kernel": 1}


def test_decompose_free_eval_solves_alpha_once_per_lambda(tmp_path, monkeypatch):
    data = tmp_path / "noisy.libsvm"
    make_noisy_dataset(data)
    counts = {}
    for module, name in [(estimator, "build_gram"), (estimator, "ridge_factor"),
                         (estimator, "weights_at")]:
        _count_calls(monkeypatch, module, name, counts)
    out = tmp_path / "e.json"
    assert run(["eval", "--data", str(data), "--m", "3", "--decompose-free", "--format", "json",
                "--lambda-grid", ",".join(map(str, GRID)), "--out", str(out)]) == 0
    selected = {rec["lambda"] for rec in json.loads(out.read_text())}
    assert counts == {"build_gram": 1, "weights_at": len(GRID) + len(selected)}
    assert json.loads(out.read_text()) == per_pair_eval(data, 3, 0, ["zero_one", "hamming", "fscore"],
                                                       GRID)


def test_train_refits_with_selection_bandwidth(tmp_path):
    data = tmp_path / "noisy.libsvm"
    make_noisy_dataset(data)
    model_path = tmp_path / "m.npz"
    assert run(["train", "--data", str(data), "--m", "3", "--loss", "hamming", "--seed", "2",
                "--lambda-grid", ",".join(map(str, GRID)), "--out", str(model_path)]) == 0
    x = parse_multilabel(str(data), 3).dense_features()
    n = len(x)
    tr_idx = np.random.default_rng(2).permutation(n)[max(1, int(0.25 * n)):]
    model = load_model(str(model_path))
    assert model.kernel.bandwidth == median_heuristic(x[tr_idx])
    assert model.lam in GRID and len(model.x_train) == n


def test_one_row_predict_standardize_uses_training_scaler(tmp_path):
    data = tmp_path / "noisy.libsvm"
    make_noisy_dataset(data)
    model_path = tmp_path / "m.npz"
    assert run(["train", "--data", str(data), "--m", "3", "--loss", "hamming",
                "--standardize", "--lambda", "0.01", "--out", str(model_path)]) == 0
    x = parse_multilabel(str(data), 3).dense_features()
    mean, std = x.mean(axis=0), x.std(axis=0)
    model = load_model(str(model_path))
    rows = data.read_text().splitlines()
    for i in range(5):
        one = tmp_path / f"one{i}.libsvm"
        one.write_text(rows[i] + "\n")
        out = tmp_path / f"one{i}.txt"
        assert run(["predict", "--model", str(model_path), "--standardize",
                    "--data", str(one), "--out", str(out)]) == 0
        want = predict_batch(model, ((x[i] - mean) / std)[None, :])[0]
        assert out.read_text().strip() == cli._format_label(model.loss, want)


def test_predict_densifies_row_blocks_not_the_file(tmp_path, monkeypatch):
    # the whole file is over a dense cap that each row block is under; the
    # blocks and so the labels are those of predict_batch on the dense file
    data = tmp_path / "noisy.libsvm"
    make_noisy_dataset(data)
    model_path = tmp_path / "m.npz"
    assert run(["train", "--data", str(data), "--m", "3", "--loss", "hamming",
                "--standardize", "--lambda", "0.01", "--out", str(model_path)]) == 0
    model = load_model(str(model_path))
    x = model.scaler.apply(parse_multilabel(str(data), 3).dense_features())
    monkeypatch.setattr(estimator, "BLOCK_CELLS", len(model.x_train) * GEMM_MIN_ROWS)
    monkeypatch.setattr(dataset_module, "DENSE_MAX_CELLS", GEMM_MIN_ROWS * 2 * x.shape[1])
    assert x.size > dataset_module.DENSE_MAX_CELLS
    for flags, path in (([], "fast"), (["--decompose-free"], "alpha")):
        out = tmp_path / f"{path}.txt"
        assert run(["predict", "--model", str(model_path), "--standardize", "--data", str(data),
                    "--out", str(out)] + flags) == 0
        want = [cli._format_label(model.loss, z) for z in predict_batch(model, x, path=path)]
        assert out.read_text().splitlines() == want
    assert (tmp_path / "fast.txt").read_text() == (tmp_path / "alpha.txt").read_text()


def test_predict_standardize_needs_saved_scaler(tmp_path, capsys):
    data = tmp_path / "noisy.libsvm"
    make_noisy_dataset(data, n=20)
    model_path = tmp_path / "m.npz"
    assert run(["train", "--data", str(data), "--m", "3", "--loss", "hamming",
                "--lambda", "0.01", "--out", str(model_path)]) == 0
    assert run(["predict", "--model", str(model_path), "--standardize",
                "--data", str(data)]) == cli.USAGE_ERROR
    assert "scaler" in capsys.readouterr().err


def test_corrupt_model_is_usage_error(tmp_path, capsys):
    data = tmp_path / "noisy.libsvm"
    make_noisy_dataset(data, n=20)
    model_path = tmp_path / "m.npz"
    assert run(["train", "--data", str(data), "--m", "3", "--loss", "hamming",
                "--lambda", "0.01", "--out", str(model_path)]) == 0
    model = load_model(str(model_path))
    model.coefficients = model.coefficients[:, :-1]
    save_model(model, str(model_path))
    assert run(["predict", "--model", str(model_path), "--data", str(data)]) == cli.USAGE_ERROR
    assert "coefficients" in capsys.readouterr().err


def test_gaussian_model_without_bandwidth_is_usage_error(tmp_path, capsys):
    # save_model writes -1 for a missing bandwidth; a gaussian model must not
    # load with it, since cross_kernel has no Gram to choose one from
    data = tmp_path / "noisy.libsvm"
    make_noisy_dataset(data, n=20)
    model_path = tmp_path / "m.npz"
    assert run(["train", "--data", str(data), "--m", "3", "--loss", "hamming",
                "--lambda", "0.01", "--out", str(model_path)]) == 0
    with np.load(model_path) as payload:
        arrays = {key: payload[key] for key in payload.files}
    np.savez(model_path, **{**arrays, "bandwidth": np.array(-1.0)})
    assert run(["predict", "--model", str(model_path), "--data", str(data)]) == cli.USAGE_ERROR
    assert "bandwidth" in capsys.readouterr().err


def _model_file(tmp_path, **arrays):
    """A saved Hamming(3) model, with the given arrays replaced."""
    path = tmp_path / "model.npz"
    save_model(fit(Hamming(3), KernelSpec("gaussian", 1.0), 0.1, np.zeros((2, 2)),
                   [(0, 1, 1), (1, 0, 0)]), str(path))
    with np.load(path) as payload:
        np.savez(path, **{**{key: payload[key] for key in payload.files}, **arrays})
    return path


def _loss_json(cfg):
    return {"loss_json": np.array(json.dumps(cfg))}


# (file written, its content, command line with {file} and {out}); every
# case is malformed input, which must exit 2 with one error line and no output
MALFORMED = {
    "config_list": ("cfg.json", [{"name": "hamming", "m": 3}],
                    ["constants", "--config", "{file}", "--out", "{out}"]),
    "config_m_float": ("cfg.json", {"name": "hamming", "m": 3.5},
                       ["constants", "--config", "{file}", "--out", "{out}"]),
    "config_m_bool": ("cfg.json", {"name": "hamming", "m": True},
                      ["constants", "--config", "{file}", "--out", "{out}"]),
    "config_m_string": ("cfg.json", {"name": "hamming", "m": "3"},
                        ["check", "--config", "{file}", "--instances", "2"]),
    "config_name_list": ("cfg.json", {"name": ["hamming"], "m": 3},
                         ["constants", "--config", "{file}", "--out", "{out}"]),
    "config_partition_int": ("cfg.json", {"name": "block_zero_one", "m": 2, "partition": 3},
                             ["constants", "--config", "{file}", "--out", "{out}"]),
    "config_partition_block_int": ("cfg.json", {"name": "block_zero_one", "m": 2,
                                                "partition": [[[0, 0], [1, 1]], 5]},
                                   ["constants", "--config", "{file}", "--out", "{out}"]),
    "model_loss_json_list": ("model.npz", _loss_json([{"name": "hamming", "m": 3}]),
                             ["predict", "--model", "{file}", "--data", "{data}", "--out", "{out}"]),
    "model_m_float": ("model.npz", _loss_json({"name": "hamming", "m": 3.0}),
                      ["predict", "--model", "{file}", "--data", "{data}", "--out", "{out}"]),
    "model_m_string": ("model.npz", _loss_json({"name": "hamming", "m": "3"}),
                       ["predict", "--model", "{file}", "--data", "{data}", "--out", "{out}"]),
    "model_y_train_entry": ("model.npz", {"y_train": np.array([[0, 1, 1], [1, 0, 2]])},
                            ["predict", "--model", "{file}", "--data", "{data}", "--out", "{out}"]),
    "rates_m_float": ("spec.json", {**RATES_SPEC, "m": 3.5},
                      ["rates", "--spec", "{file}", "--out-dir", "{out}"]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2_with_one_error_line(case, tmp_path, capsys):
    name, content, argv = MALFORMED[case]
    path = tmp_path / name
    if name.endswith(".npz"):
        path = _model_file(tmp_path, **content)
    else:
        path.write_text(json.dumps(content))
    data = tmp_path / "x.libsvm"
    data.write_text("0 1:0.5 2:0.1\n")
    out = tmp_path / "out"
    argv = [a.format(file=path, out=out, data=data) for a in argv]
    assert run(argv) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    assert not out.exists()
