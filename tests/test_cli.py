"""Tests for the command-line interface and experiment runner."""

import csv
import json
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from pnet.cli import (
    _KEY_TYPES,
    _TRAIN_CONFIG_DEFAULTS,
    EXPERIMENTS,
    _merge_config,
    _parse_layer_spec,
    _parse_overrides,
    _train_variant,
    build_parser,
    main,
    run_experiment,
    run_shape,
)
from pnet.data import Dataset, gen_activity_standin, gen_square, load_csv, save_csv
from pnet.network import forward_batch, init_network, load_network, save_network
from pnet.training import UPDATE_MODES, mse


def two_target_rows(task):
    """A small 1-input, 2-target dataset of the given task."""
    if task == "classification":
        return gen_activity_standin(per_class=3, seed=5, n_classes=2, dim=1)
    data = gen_square(6, seed=5)
    return Dataset(data.inputs, np.hstack([data.targets, data.targets]), "regression")


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestParser:
    def test_subcommands_parse(self):
        parser = build_parser()
        assert parser.parse_args(["experiment", "ex1"]).name == "ex1"
        assert parser.parse_args(["shape", "--lambda", "0.5"]).lam == 0.5
        assert parser.parse_args(["gradcheck", "--layers", "2-3-2"]).layers == "2-3-2"
        args = parser.parse_args(["train", "--config", "c", "--data", "d", "--model", "m"])
        assert (args.config, args.data, args.model) == ("c", "d", "m")
        assert parser.parse_args(["eval", "--model", "m", "--data", "d"]).model == "m"

    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_name_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "ex99"])

    def test_layer_spec_parsing(self):
        assert _parse_layer_spec("2-3-2") == [2, 3, 2]
        assert _parse_layer_spec("4,5") == [4, 5]
        assert _parse_layer_spec("1 2 3") == [1, 2, 3]
        with pytest.raises(ValueError):
            _parse_layer_spec("7")
        with pytest.raises(ValueError):
            _parse_layer_spec("a-b")


class TestOverrides:
    def test_json_values(self):
        cfg = {"alpha_w": 0.1, "update": "batch", "layer_sizes": [1, 2]}
        out = _parse_overrides(["alpha_w=0.5", "layer_sizes=[1,3]", "update=incremental"], cfg)
        assert out["alpha_w"] == 0.5
        assert out["layer_sizes"] == [1, 3]
        assert out["update"] == "incremental"
        assert cfg["alpha_w"] == 0.1  # original untouched

    def test_bad_items_rejected(self):
        with pytest.raises(ValueError):
            _parse_overrides(["alpha_w"], {"alpha_w": 0.1})
        with pytest.raises(ValueError, match="valid keys: alpha_w"):
            _parse_overrides(["nope=1"], {"alpha_w": 0.1})

    @pytest.mark.parametrize("name, key", [("ex1", "initial_w"), ("ex2a", "baseline_initial_w"),
                                           ("ex3", "initial_w"), ("ex3", "baseline_initial_w"),
                                           ("ex2a", "baseline_max_gradient"), ("ex3", "baseline_hidden"),
                                           ("ex1", "head"), ("ex3", "head"), ("ex1", "grid_lo"),
                                           ("ex2a", "grid_hi"), ("ex3", "data_n"),
                                           ("ex2a", "activation_iterations")])
    def test_unread_keys_are_usage_errors(self, tmp_path, capsys, name, key):
        # No code reads a weight-init scheme, the baseline's kinds and
        # gradient stop are fixed, the head is the data's task, a fit's grid
        # spans its data range, ex3's activity data has no sample count, and
        # each activation solve stops by its own rule, so no config offers
        # these keys.
        code = main(["experiment", name, "--out", str(tmp_path), "--repetitions", "1",
                     "--set", f'{key}="uniform"'])
        assert code == 2
        assert f"unknown config key(s) {key}" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / name)


# (key, --set text, classification head) cases that once escaped as a bare
# TypeError (exit 1, the "diverged" code), were coerced or misread silently
# (exit 0), or were ignored (initial_p_output on a softmax output).
BAD_CONFIG_VALUES = [
    ("alpha_w", '"x"', False),
    ("max_error", '"1e-4"', False),
    ("seed", "1.5", False),
    ("layer_sizes", "[1, null, 1]", False),
    ("grid_points", "2.5", False),
    ("lambda", '"1"', False),
    ("max_iterations", "true", False),
    ("layer_sizes", "[1, true, 1]", False),
    ("layer_sizes", "null", False),
    ("data_lo", "true", False),
    ("variants", '["adaptve"]', False),
    ("variants", "adaptive", False),  # not JSON, so --set reads the bare string
    ("variants", "[]", False),
    ("variants", '["frozen", "adaptive", "frozen"]', False),
    ("initial_p_output", "7", True),
]


def _bad_config_cases():
    for key, raw, classification in BAD_CONFIG_VALUES:
        if key in EXPERIMENTS["ex1"]:
            yield pytest.param("experiment", key, raw, classification, id=f"experiment-{key}={raw}")
        if key in _TRAIN_CONFIG_DEFAULTS:
            yield pytest.param("train", key, raw, classification, id=f"train-{key}={raw}")


@pytest.mark.parametrize("command, key, raw, classification", _bad_config_cases())
def test_bad_config_value_is_usage_error(tmp_path, capsys, command, key, raw, classification):
    out = tmp_path / "out"
    if command == "experiment":
        name = "ex3" if classification else "ex1"
        code = main(["experiment", name, "--out", str(out), "--repetitions", "1", "--set", f"{key}={raw}"])
    else:
        # The head follows the CSV's task column, so a classification case trains on one-hot rows.
        data_path = str(tmp_path / "train.csv")
        if classification:
            save_csv(gen_activity_standin(per_class=3, seed=3, n_classes=2, dim=1), data_path)
            cfg = {"layer_sizes": [1, 3, 2]}
        else:
            save_csv(gen_square(10, seed=3), data_path)
            cfg = {"layer_sizes": [1, 3, 1]}
        cfg[key] = json.loads(raw)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        code = main(["train", "--config", str(cfg_path), "--data", data_path, "--model", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert key in err and "must be" in err, err
    assert not out.exists()


# (experiment, --set items, what the message must name).  A data kind whose
# keys the experiment lacks once escaped as a bare KeyError (exit 1, the
# "diverged" code); layer widths that do not fit the data failed in numpy, or
# trained a pass on a broadcast error, after the data was written; a grid of
# fewer than two points wrote test_error=nan and exited 0.
@pytest.mark.parametrize("name, items, named", [
    ("ex1", ["data=activity"], ["'data'", "activity"]),
    ("ex2a", ["grid_points=1", "max_iterations=1", "data_n=4"], ["grid_points"]),
    ("ex3", ["data=sign"], ["'data'", "sign"]),
    ("ex3", ["layer_sizes=[60,30,15,4]", "pool_per_class=12", "train_per_class=4", "test_total=5"], ["layer_sizes"]),
    ("ex1", ["layer_sizes=[2,3,1]", "data_n=8", "grid_points=11", "max_iterations=2"], ["layer_sizes"]),
    ("ex1", ["layer_sizes=[1,5,3,2]", "data_n=8", "grid_points=11", "max_iterations=2"], ["layer_sizes"]),
    ("ex1", ["grid_points=0", "max_iterations=1", "data_n=4"], ["grid_points"]),
    ("ex2b", ["data_lo=1", "data_hi=-1", "max_iterations=1", "data_n=4"], ["'data_lo'", "'data_hi'"]),
    ("ex1", ["layer_sizes=[1]", "max_iterations=2"], ["layer_sizes"]),
    ("ex2a", ['variants=["baseline"]', "layer_sizes=[1,0,1]", "max_iterations=2"], ["layer_sizes"]),
])
def test_config_that_misfits_its_data_is_usage_error(tmp_path, capsys, name, items, named):
    overrides = [arg for item in items for arg in ("--set", item)]
    code = main(["experiment", name, "--out", str(tmp_path), "--repetitions", "1", *overrides])
    assert code == 2
    err = capsys.readouterr().err
    assert all(key in err for key in named), err
    assert not os.path.exists(tmp_path / name)


# `ActivationParams` rejects each (p, lambda) before `pnet shape` writes a table.
@pytest.mark.parametrize("args, named", [
    (["--lambda", "-1"], "lam"),
    (["--lambda", "nan"], "lam"),
    (["--lambda", "inf"], "lam"),
    (["--p", "0.5"], "p"),
    (["--p", "1.0"], "p"),
    (["--p", "3", "20000"], "p"),
])
def test_shape_outside_the_activation_domain_is_usage_error(tmp_path, capsys, args, named):
    out = tmp_path / "shape.csv"
    assert main(["shape", "--n-points", "3", "--out", str(out), *args]) == 2
    assert f"{named} must" in capsys.readouterr().err
    assert not out.exists()


class TestShapeCommand:
    def test_columns_and_closed_forms(self, tmp_path):
        out = str(tmp_path / "shape.csv")
        run_shape([2.0], lam=1.0, a_min=-2.0, a_max=2.0, n_points=41, out_path=out)
        header, rows = read_csv(out)
        assert header == ["p", "a", "v", "dv_da"]
        assert len(rows) == 41
        a = np.array([float(r[1]) for r in rows])
        v = np.array([float(r[2]) for r in rows])
        assert_allclose(v, a / 3.0, rtol=0, atol=1e-12)

    def test_identity_when_unregularized(self, tmp_path):
        out = str(tmp_path / "shape.csv")
        run_shape([3.0, 7.0], lam=0.0, a_min=-1.0, a_max=1.0, n_points=21, out_path=out)
        _, rows = read_csv(out)
        assert len(rows) == 42
        for r in rows:
            assert float(r[2]) == float(r[1])
            assert float(r[3]) == 1.0

    def test_odd_symmetry_in_table(self, tmp_path):
        out = str(tmp_path / "shape.csv")
        run_shape([3.0], lam=1.0, a_min=-2.0, a_max=2.0, n_points=21, out_path=out)
        _, rows = read_csv(out)
        v = np.array([float(r[2]) for r in rows])
        assert_allclose(v, -v[::-1], rtol=0, atol=1e-15)

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            run_shape([2.0], 1.0, 1.0, -1.0, 5, str(tmp_path / "x.csv"))
        with pytest.raises(ValueError):
            run_shape([2.0], 1.0, -1.0, 1.0, 1, str(tmp_path / "x.csv"))

    def test_via_main(self, tmp_path):
        out = str(tmp_path / "shape.csv")
        code = main(["shape", "--p", "2", "--out", out, "--n-points", "11"])
        assert code == 0 and os.path.exists(out)


class TestGradcheckCommand:
    def test_passes(self, capsys):
        assert main(["gradcheck", "--seed", "1"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_injected_error_fails(self, capsys):
        assert main(["gradcheck", "--seed", "1", "--inject-gradient-error"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_classification_head(self):
        assert main(["gradcheck", "--seed", "2", "--head", "classification"]) == 0

    def test_bad_layer_spec_is_usage_error(self):
        assert main(["gradcheck", "--layers", "7"]) == 2

    @pytest.mark.parametrize("flag", ["--h", "--tol"])
    @pytest.mark.parametrize("value", ["0", "-1e-6", "nan", "inf"])
    def test_bad_step_or_tolerance_is_usage_error(self, capsys, flag, value):
        assert main(["gradcheck", f"{flag}={value}"]) == 2
        captured = capsys.readouterr()
        assert f"{flag.lstrip('-')} must be finite and > 0" in captured.err
        assert captured.out == ""


class TestTrainEvalCommands:
    def write_inputs(self, tmp_path, update="batch"):
        data_path = str(tmp_path / "train.csv")
        save_csv(gen_square(30, seed=3), data_path)
        cfg = {
            "layer_sizes": [1, 4, 1],
            "lambda": 1.0,
            "initial_p_hidden": 2.0,
            "alpha_w": 0.1,
            "alpha_p": 1.0,
            "max_iterations": 25,
            "max_error": 1e-9,
            "update": update,
            "seed": 7,
        }
        cfg_path = str(tmp_path / "config.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        return cfg_path, data_path

    def test_train_then_eval_round_trip(self, tmp_path, capsys):
        cfg_path, data_path = self.write_inputs(tmp_path)
        model_path = str(tmp_path / "model.txt")
        log_path = str(tmp_path / "log.csv")
        code = main(["train", "--config", cfg_path, "--data", data_path,
                     "--model", model_path, "--log", log_path])
        train_out = capsys.readouterr().out
        assert code == 0
        final_error = float(train_out.split("final_error")[1].split()[0])

        code = main(["eval", "--model", model_path, "--data", data_path])
        eval_out = capsys.readouterr().out
        assert code == 0
        eval_error = float(eval_out.split("mse")[1].split()[0])
        # The saved model must reproduce the final logged training error.
        assert abs(eval_error - final_error) <= 1e-12

        header, rows = read_csv(log_path)
        assert header == ["iter", "E"]
        assert len(rows) == 25
        assert float(rows[-1][1]) == final_error

    def test_incremental_update_config(self, tmp_path, capsys):
        cfg_path, data_path = self.write_inputs(tmp_path, update="incremental")
        model_path = str(tmp_path / "model.txt")
        code = main(["train", "--config", cfg_path, "--data", data_path, "--model", model_path])
        capsys.readouterr()
        assert code == 0 and os.path.exists(model_path)

    def test_saved_model_matches_in_process_forward(self, tmp_path, capsys):
        cfg_path, data_path = self.write_inputs(tmp_path)
        model_path = str(tmp_path / "model.txt")
        main(["train", "--config", cfg_path, "--data", data_path, "--model", model_path])
        train_out = capsys.readouterr().out
        final_error = float(train_out.split("final_error")[1].split()[0])
        net = load_network(model_path)
        data = gen_square(30, seed=3)
        e = mse(forward_batch(net, data.inputs).outputs[-1], data.targets)
        assert abs(e - final_error) <= 1e-12

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg_path, data_path = self.write_inputs(tmp_path)
        with open(cfg_path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
        for key in ("learning_rate", "activation_iterations"):
            with open(cfg_path, "w", encoding="utf-8") as fh:
                json.dump({**cfg, key: 10}, fh)
            assert main(["train", "--config", cfg_path, "--data", data_path,
                         "--model", str(tmp_path / "m.txt")]) == 2

    def test_missing_required_key_is_usage_error(self, tmp_path, capsys):
        cfg_path, data_path = self.write_inputs(tmp_path)
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump({"lambda": 1.0}, fh)
        assert main(["train", "--config", cfg_path, "--data", data_path,
                     "--model", str(tmp_path / "m.txt")]) == 2
        assert "'layer_sizes' must be" in capsys.readouterr().err

    def test_head_follows_the_csv_task(self, tmp_path, capsys):
        # One config trains a softmax classifier on one-hot rows and a
        # regression net on real targets; no key names the head.
        data_path, model_path, cfg_path = (str(tmp_path / name) for name in ("d.csv", "m.txt", "c.json"))
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump({"layer_sizes": [1, 3, 2], "max_iterations": 2}, fh)
        save_csv(gen_activity_standin(per_class=4, seed=3, n_classes=2, dim=1), data_path)
        assert main(["train", "--config", cfg_path, "--data", data_path, "--model", model_path]) == 0
        net = load_network(model_path)
        assert net.head == "classification" and net.activations[-1] == "softmax"
        assert main(["eval", "--model", model_path, "--data", data_path]) == 0
        assert "classification_error" in capsys.readouterr().out

    @pytest.mark.parametrize("head", ["regression", "classification"])
    def test_eval_on_data_of_the_other_task_is_usage_error(self, tmp_path, capsys, head):
        # A softmax model on regression rows once printed an mse, and a
        # regression model on one-hot rows a classification_error, exit 0.
        model_path, data_path = str(tmp_path / "model.txt"), str(tmp_path / "data.csv")
        save_network(init_network([1, 3, 2], head, 1.0, 2.0, seed=0), model_path)
        other = "classification" if head == "regression" else "regression"
        save_csv(two_target_rows(other), data_path)
        assert main(["eval", "--model", model_path, "--data", data_path]) == 2
        captured = capsys.readouterr()
        assert f"dataset task {other!r} does not match network head {head!r}" in captured.err
        assert captured.out == ""

    def test_eval_on_malformed_model_is_usage_error(self, tmp_path, capsys):
        # A "lambda" line with no value once raised IndexError: a traceback
        # and exit 1, the code for a diverged run.
        model_path, data_path = tmp_path / "model.txt", str(tmp_path / "data.csv")
        save_network(init_network([1, 3, 1], "regression", 1.0, 2.0, seed=0), str(model_path))
        text = model_path.read_text(encoding="utf-8")
        model_path.write_text(text.replace("lambda 1\n", "lambda\n"), encoding="utf-8")
        save_csv(gen_square(6, seed=5), data_path)
        assert main(["eval", "--model", str(model_path), "--data", data_path]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {model_path} line 3: cannot read 'lambda'\n"
        assert captured.out == ""

    @pytest.mark.parametrize("update", UPDATE_MODES)
    def test_diverged_run_exits_1(self, tmp_path, capsys, update):
        # A batch run whose pre-activations overflowed once exited 2, the
        # usage-error code, on the solver's bare ValueError.
        cfg_path, data_path = self.write_inputs(tmp_path, update)
        with open(cfg_path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump({**cfg, "layer_sizes": [1, 3, 1], "alpha_w": 1e300, "max_iterations": 5}, fh)
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["train", "--config", cfg_path, "--data", data_path, "--model", str(tmp_path / "m.txt")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "after iteration 1" in captured.err
        assert "Traceback" not in captured.err
        assert not os.path.exists(tmp_path / "m.txt")

    def test_missing_files_are_usage_errors(self, tmp_path):
        cfg_path, data_path = self.write_inputs(tmp_path)
        assert main(["train", "--config", str(tmp_path / "nope.json"),
                     "--data", data_path, "--model", str(tmp_path / "m.txt")]) == 2
        assert main(["eval", "--model", str(tmp_path / "nope.txt"), "--data", data_path]) == 2

    @pytest.mark.parametrize("bad", [{"max_iterations": 2.5}, {"max_iterations": 25.0},
                                     {"layer_sizes": [1, 2.5, 1]}])
    def test_non_integral_counts_are_usage_errors(self, tmp_path, capsys, bad):
        cfg_path, data_path = self.write_inputs(tmp_path)
        with open(cfg_path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump({**cfg, **bad}, fh)
        assert main(["train", "--config", cfg_path, "--data", data_path,
                     "--model", str(tmp_path / "m.txt")]) == 2
        assert "must be" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "m.txt")

    def test_non_object_config_is_usage_error(self, tmp_path):
        cfg_path, data_path = self.write_inputs(tmp_path)
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump([1, 2], fh)
        assert main(["train", "--config", cfg_path, "--data", data_path,
                     "--model", str(tmp_path / "m.txt")]) == 2

    def test_same_model_as_experiment(self, tmp_path, capsys):
        # `pnet train` and `pnet experiment` translate the same keys through
        # one routine, so ex1's keys and data give ex1's model, byte for byte.
        res = run_experiment("ex1", out_dir=str(tmp_path), repetitions=1,
                             overrides=["max_iterations=3", "data_n=8"])
        cfg = {key: EXPERIMENTS["ex1"][key] for key in _TRAIN_CONFIG_DEFAULTS if key != "seed"}
        cfg_path = str(tmp_path / "config.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump({**cfg, "max_iterations": 3, "seed": 1}, fh)
        data_path = os.path.join(res["dir"], "data", "train_seed1.csv")
        model_path = str(tmp_path / "model.txt")
        assert main(["train", "--config", cfg_path, "--data", data_path, "--model", model_path]) == 0
        capsys.readouterr()
        with open(model_path, "rb") as fh:
            got = fh.read()
        with open(os.path.join(res["dir"], "models", "adaptive_seed1.txt"), "rb") as fh:
            assert got == fh.read()

    def test_malformed_json_is_usage_error(self, tmp_path):
        cfg_path, data_path = self.write_inputs(tmp_path)
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write("{not json")
        assert main(["train", "--config", cfg_path, "--data", data_path,
                     "--model", str(tmp_path / "m.txt")]) == 2


class TestRunExperiment:
    OVERRIDES = ["max_iterations=3", "data_n=8", "grid_points=11"]

    def test_outputs_and_summary_round_trip(self, tmp_path, capsys):
        res = run_experiment("ex1", out_dir=str(tmp_path), repetitions=2, overrides=self.OVERRIDES)
        capsys.readouterr()
        exp_dir = res["dir"]
        for name in ("error_log.csv", "p_evolution.csv", "summary.csv", "predictions.csv"):
            assert os.path.exists(os.path.join(exp_dir, name)), name
        assert os.path.exists(os.path.join(exp_dir, "models", "adaptive_seed1.txt"))
        assert os.path.exists(os.path.join(exp_dir, "data", "train_seed1.csv"))

        header, rows = read_csv(os.path.join(exp_dir, "summary.csv"))
        assert header == ["variant", "seed", "train_error", "test_error"]
        by_key = {(r[0], r[1]): (float(r[2]), float(r[3])) for r in rows}
        for rec in res["results"]:
            got = by_key[(rec["variant"], str(rec["seed"]))]
            assert got == (rec["train_error"], rec["test_error"])

    def test_deterministic_reruns_byte_identical(self, tmp_path, capsys):
        run_experiment("ex1", out_dir=str(tmp_path / "a"), repetitions=1, overrides=self.OVERRIDES)
        run_experiment("ex1", out_dir=str(tmp_path / "b"), repetitions=1, overrides=self.OVERRIDES)
        capsys.readouterr()
        for name in ("error_log.csv", "p_evolution.csv", "summary.csv", "predictions.csv"):
            with open(tmp_path / "a" / "ex1" / name, "rb") as fh:
                a = fh.read()
            with open(tmp_path / "b" / "ex1" / name, "rb") as fh:
                b = fh.read()
            assert a == b, name

    def test_saved_models_reproduce_summary_errors(self, tmp_path, capsys):
        res = run_experiment("ex1", out_dir=str(tmp_path), repetitions=1, overrides=self.OVERRIDES)
        capsys.readouterr()
        rec = res["results"][0]
        net = load_network(os.path.join(res["dir"], "models", "adaptive_seed1.txt"))
        from pnet.data import load_csv

        data = load_csv(os.path.join(res["dir"], "data", "train_seed1.csv"))
        e = mse(forward_batch(net, data.inputs).outputs[-1], data.targets)
        assert abs(e - rec["train_error"]) <= 1e-12

    def test_classification_summary_footer(self, tmp_path, capsys):
        res = run_experiment(
            "ex3",
            out_dir=str(tmp_path),
            repetitions=2,
            overrides=[
                "max_iterations=3",
                "pool_per_class=30",
                "train_per_class=10",
                "test_total=25",
            ],
        )
        capsys.readouterr()
        _, rows = read_csv(os.path.join(res["dir"], "summary.csv"))
        per_seed = [r for r in rows if r[1] not in ("mean", "std")]
        footer = [r for r in rows if r[1] in ("mean", "std")]
        assert len(per_seed) == 6 and len(footer) == 6
        for variant in ("frozen", "adaptive", "baseline"):
            test_errs = np.array([float(r[3]) for r in per_seed if r[0] == variant])
            mean_row = next(r for r in footer if r[0] == variant and r[1] == "mean")
            std_row = next(r for r in footer if r[0] == variant and r[1] == "std")
            assert_allclose(float(mean_row[3]), test_errs.mean(), rtol=0, atol=1e-15)
            assert_allclose(float(std_row[3]), test_errs.std(ddof=1), rtol=0, atol=1e-15)

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            run_experiment("ex99", out_dir=str(tmp_path))
        with pytest.raises(ValueError):
            run_experiment("ex1", out_dir=str(tmp_path), repetitions=0)

    def test_experiment_configs_are_complete(self):
        for name, cfg in EXPERIMENTS.items():
            assert cfg["update"] in ("batch", "incremental"), name
            assert cfg["variants"], name
            # `pnet train` reads the same keys, plus the init seed.
            assert set(_TRAIN_CONFIG_DEFAULTS) - {"seed"} <= set(cfg), name
            # Every canned value passes its own type check.
            assert _merge_config(cfg, {}) == cfg, name
        required = {"layer_sizes": [1, 1]}  # the defaults leave it None
        assert _merge_config(_TRAIN_CONFIG_DEFAULTS, required) == {**_TRAIN_CONFIG_DEFAULTS, **required}
        # The type table covers exactly the keys the configs use.
        assert set(_KEY_TYPES) == set(_TRAIN_CONFIG_DEFAULTS).union(*EXPERIMENTS.values())

    def test_every_canned_key_is_read(self, tmp_path, capsys, monkeypatch):
        # Record each key `run_experiment` looks up in the merged config.
        read = set()

        class Recording(dict):
            def __getitem__(self, key):
                read.add(key)
                return super().__getitem__(key)

        merge = _merge_config
        monkeypatch.setattr("pnet.cli._merge_config", lambda cfg, updates: Recording(merge(cfg, updates)))
        small = {"ex3": ["pool_per_class=12", "train_per_class=4", "test_total=5"]}
        for name, cfg in EXPERIMENTS.items():
            read.clear()
            overrides = ["max_iterations=1"] + small.get(name, ["data_n=4", "grid_points=3"])
            run_experiment(name, out_dir=str(tmp_path), repetitions=1, overrides=overrides)
            assert read == set(cfg), (name, sorted(set(cfg) - read))
        capsys.readouterr()

    def test_fit_switch_reads_the_range_and_grids_it(self, tmp_path, capsys):
        # ex1 switched to the parabola draws from and predicts over its own
        # data_lo..data_hi; the parent drew from [-1, 1] and gridded [-5, 5].
        res = run_experiment("ex1", out_dir=str(tmp_path), repetitions=1,
                             overrides=["data=square", "data_lo=-2", "data_hi=2", "data_n=40",
                                        "grid_points=9", "max_iterations=1"])
        capsys.readouterr()
        data = load_csv(os.path.join(res["dir"], "data", "train_seed1.csv"))
        assert np.abs(data.inputs).max() > 1.0 and np.abs(data.inputs).max() <= 2.0
        assert_array_equal(data.targets, data.inputs**2)
        _, rows = read_csv(os.path.join(res["dir"], "predictions.csv"))
        x = np.array([float(r[2]) for r in rows])
        assert_array_equal(x, np.linspace(-2.0, 2.0, 9))
        assert_array_equal([float(r[3]) for r in rows], x**2)

    def test_switch_between_fits_runs(self, tmp_path, capsys):
        res = run_experiment("ex2a", out_dir=str(tmp_path), repetitions=1,
                             overrides=["data=sign", "data_n=8", "grid_points=5", "max_iterations=2"])
        capsys.readouterr()
        assert [r["variant"] for r in res["results"]] == ["frozen", "adaptive", "baseline"]
        data = load_csv(os.path.join(res["dir"], "data", "train_seed1.csv"))
        assert_array_equal(data.targets, np.sign(data.inputs))

    def test_unknown_variant_is_rejected(self):
        with pytest.raises(ValueError, match="variant must be one of frozen, adaptive, baseline"):
            _train_variant(EXPERIMENTS["ex1"], "adaptve", 1, gen_square(5, seed=1))

    def test_via_main(self, tmp_path, capsys):
        code = main(["experiment", "ex1", "--out", str(tmp_path), "--repetitions", "1",
                     "--set", "max_iterations=2", "--set", "data_n=6", "--set", "grid_points=11"])
        capsys.readouterr()
        assert code == 0
