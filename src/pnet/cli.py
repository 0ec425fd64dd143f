"""Command-line interface: experiments, shape dumps, gradient checks.

Every command is deterministic given its configuration and seed; CSV
outputs are byte-identical across runs.  The default output directory is
taken from the ``PNET_OUT`` environment variable (falling back to
``./pnet_out``).

Experiment configs and ``pnet train`` configs are flat key-value
dictionaries; any experiment key can be overridden on the command line
with ``--set key=value`` (values parsed as JSON, so lists and numbers
work).  `_KEY_TYPES` holds each key's JSON type, and every merged config
is checked against it before anything is built or written: an unknown
key or a value of the wrong type (a JSON boolean included) is a usage
error that names the key.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .activation import dv_da_many, evaluate_many
from .data import (
    Dataset,
    gen_abs,
    gen_activity_standin,
    gen_sign,
    gen_square,
    load_csv,
    save_csv,
    split_train_test,
)
from .network import HEADS, fmt_float, forward_batch, init_network, load_network, nguyen_widrow_init, save_network
from .oracle import check_network_gradients, random_check_case
from .training import (
    TrainConfig,
    TrainingDivergedError,
    UPDATE_MODES,
    classification_error,
    mse,
    train,
)

__all__ = ["EXPERIMENTS", "VARIANTS", "run_experiment", "run_shape", "main"]

_g = fmt_float


def default_out_dir() -> str:
    return os.environ.get("PNET_OUT", "pnet_out")


# Experiment defaults.  Keys mirror the configuration tables one-to-one;
# any of them can be overridden with --set.  The baseline variant has no
# keys of its own: it takes `nguyen_widrow_init`'s kinds for the head
# (satlins/purelin or tansig/softmax) and stops at BASELINE_MAX_GRADIENT.
EXPERIMENTS: dict[str, dict] = {
    # Sign fit: adaptive p only, starting from the explicit p=2 regime.
    "ex1": {
        "layer_sizes": [1, 5, 3, 1],
        "head": "regression",
        "lambda": 1.0,
        "initial_p_hidden": 2.0,
        "initial_p_output": 2.0,
        "alpha_w": 0.1,
        "alpha_p": 100.0,
        "max_iterations": 1000,
        "max_error": 1e-3,
        "activation_iterations": 100,
        "update": "incremental",
        "data": "sign",
        "data_n": 100,
        "data_lo": -5.0,
        "data_hi": 5.0,
        "grid_lo": -5.0,
        "grid_hi": 5.0,
        "grid_points": 201,
        "variants": ["adaptive"],
    },
    # Parabola fit: frozen vs adaptive p-network vs fixed-activation baseline.
    "ex2a": {
        "layer_sizes": [1, 10, 5, 3, 1],
        "head": "regression",
        "lambda": 1e-10,
        "initial_p_hidden": 100.0,
        "initial_p_output": 2.0,
        "alpha_w": 0.01,
        "alpha_p": 1e4,
        "max_iterations": 1000,
        "max_error": 1e-4,
        "activation_iterations": 10,
        "update": "incremental",
        "data": "square",
        "data_n": 100,
        "grid_lo": -1.0,
        "grid_hi": 1.0,
        "grid_points": 201,
        "variants": ["frozen", "adaptive", "baseline"],
    },
    # As ex2a but fitting y = |x|.
    "ex2b": None,  # filled in below
    # Five-class activity classification on the synthetic stand-in pool.
    "ex3": {
        "layer_sizes": [60, 30, 15, 5],
        "head": "classification",
        "lambda": 1.0,
        "initial_p_hidden": 5.0,
        "initial_p_output": None,
        "alpha_w": 0.1,
        "alpha_p": 0.1,
        "max_iterations": 1000,
        "max_error": 1e-4,
        "activation_iterations": 10,
        "update": "batch",
        "data": "activity",
        "pool_per_class": 1000,
        "pool_seed": 977,
        "train_per_class": 500,
        "test_total": 500,
        "variants": ["frozen", "adaptive", "baseline"],
    },
}
EXPERIMENTS["ex2b"] = {**EXPERIMENTS["ex2a"], "data": "abs"}

_TRUE_FUNCTIONS = {"sign": np.sign, "square": np.square, "abs": np.abs}
VARIANTS = ("frozen", "adaptive", "baseline")
BASELINE_MAX_GRADIENT = 1e-4

# The training keys every `EXPERIMENTS` entry has, plus the init seed.
_TRAIN_CONFIG_DEFAULTS = {
    "layer_sizes": None,  # required
    "head": None,  # required
    "lambda": 1.0,
    "initial_p_hidden": 2.0,
    "initial_p_output": None,
    "alpha_w": 0.1,
    "alpha_p": 0.0,
    "max_iterations": 1000,
    "max_error": 1e-4,
    "activation_iterations": 100,
    "update": "batch",
    "seed": 0,
}


def _one_of(choices: tuple) -> tuple:
    return f"one of {', '.join(choices)}", lambda v: v in choices


# Every config key's JSON type, as (description, test).  JSON numbers load as
# exact ints and floats, so testing type() also rejects booleans.  Ranges are
# left to `TrainConfig`, `PNetwork.validate` and the data generators.
_INT = ("an integer", lambda v: type(v) is int)
_NUMBER = ("a number", lambda v: type(v) in (int, float))
_KEY_TYPES = {
    **dict.fromkeys(["max_iterations", "activation_iterations", "seed", "data_n", "grid_points",
                     "pool_per_class", "pool_seed", "train_per_class", "test_total"], _INT),
    **dict.fromkeys(["lambda", "initial_p_hidden", "alpha_w", "alpha_p", "max_error",
                     "data_lo", "data_hi", "grid_lo", "grid_hi"], _NUMBER),
    "initial_p_output": ("a number or null", lambda v: v is None or _NUMBER[1](v)),
    "layer_sizes": ("a non-empty list of integers", lambda v: type(v) is list and v and all(map(_INT[1], v))),
    "head": _one_of(HEADS),
    "update": _one_of(UPDATE_MODES),
    "data": _one_of((*_TRUE_FUNCTIONS, "activity")),
    "variants": (f"a non-empty list of distinct names from {', '.join(VARIANTS)}",
                 lambda v: type(v) is list and v and all(x in VARIANTS for x in v) and len(set(v)) == len(v)),
}


def _merge_config(cfg: dict, updates: dict) -> dict:
    """``cfg`` with ``updates`` applied, every value checked against `_KEY_TYPES`.

    A key ``cfg`` lacks, or a value of the wrong type, is a usage error.
    """
    unknown = sorted(set(updates) - set(cfg))
    if unknown:
        raise ValueError(f"unknown config key(s) {', '.join(unknown)}; valid keys: {', '.join(sorted(cfg))}")
    merged = {**cfg, **updates}
    for key, value in merged.items():
        what, ok = _KEY_TYPES[key]
        if not ok(value):
            raise ValueError(f"config key {key!r} must be {what}, got {json.dumps(value)}")
    return merged


def _parse_overrides(items: list[str] | None, cfg: dict) -> dict:
    updates = {}
    for item in items or []:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            updates[key] = json.loads(raw)
        except json.JSONDecodeError:
            updates[key] = raw
    return _merge_config(cfg, updates)


def _write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _make_datasets(cfg: dict, seeds: list[int]):
    """Per-seed (train, test) datasets; test is None for the regression fits."""
    kind = cfg["data"]
    if kind == "activity":
        pool = gen_activity_standin(cfg["pool_per_class"], cfg["pool_seed"])
        return {s: split_train_test(pool, cfg["train_per_class"], cfg["test_total"], seed=s) for s in seeds}
    if kind == "sign":
        return {s: (gen_sign(cfg["data_n"], cfg["data_lo"], cfg["data_hi"], seed=s), None) for s in seeds}
    if kind == "square":
        return {s: (gen_square(cfg["data_n"], seed=s), None) for s in seeds}
    return {s: (gen_abs(cfg["data_n"], seed=s), None) for s in seeds}


def _build_variant(cfg: dict, variant: str, seed: int):
    """The untrained net and `TrainConfig` of one variant; baselines always take full-batch steps.

    The one translator from the CLI's config keys to network init and
    `TrainConfig`, which keeps its own field names for library callers.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {', '.join(VARIANTS)}, got {variant!r}")
    if variant == "baseline":
        net = nguyen_widrow_init(cfg["layer_sizes"], cfg["head"], seed=seed)
        alpha_p, update, max_gradient = 0.0, "batch", BASELINE_MAX_GRADIENT
    else:
        net = init_network(cfg["layer_sizes"], cfg["head"], cfg["lambda"], cfg["initial_p_hidden"],
                           seed=seed, initial_p_output=cfg["initial_p_output"])
        alpha_p = cfg["alpha_p"] if variant == "adaptive" else 0.0
        update, max_gradient = cfg["update"], 0.0
    return net, TrainConfig(
        alpha_w=cfg["alpha_w"], alpha_p=alpha_p, max_iters=cfg["max_iterations"], max_error=cfg["max_error"],
        inner_iters=cfg["activation_iterations"], update=update, max_gradient=max_gradient,
    )


def _train_variant(cfg: dict, variant: str, seed: int, data: Dataset):
    """Train one variant on ``data``; returns `train`'s (net, log)."""
    net, tc = _build_variant(cfg, variant, seed)
    return train(net, data, tc)


def _final_errors(cfg: dict, net, train_data: Dataset, test_data: Dataset | None, grid=None):
    """(train_error, test_error) recomputed from the trained network."""
    inner = cfg["activation_iterations"]
    if cfg["head"] == "classification":
        e_train = classification_error(net, train_data, inner)
        e_test = classification_error(net, test_data, inner)
        return e_train, e_test, None
    yhat_train = forward_batch(net, train_data.inputs, inner).outputs[-1]
    yhat_grid = forward_batch(net, grid[0], inner).outputs[-1]
    return mse(yhat_train, train_data.targets), mse(yhat_grid, grid[1]), yhat_grid


def run_experiment(
    name: str,
    out_dir: str | None = None,
    repetitions: int = 5,
    seed: int = 1,
    overrides: list[str] | None = None,
) -> dict:
    """Run one named experiment; writes CSV logs and saved models.

    Returns a summary dictionary with one entry per (variant, seed):
    final train error, test/grid error, and iteration count.
    """
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; choose from {', '.join(EXPERIMENTS)}")
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    cfg = _parse_overrides(overrides, EXPERIMENTS[name])
    seeds = [seed + i for i in range(repetitions)]
    datasets = _make_datasets(cfg, seeds)
    grid = None
    if cfg["head"] == "regression":
        x = np.linspace(cfg["grid_lo"], cfg["grid_hi"], cfg["grid_points"])[:, None]
        grid = (x, _TRUE_FUNCTIONS[cfg["data"]](x))
    # Every dataset, net and TrainConfig is built, so every key checked, before anything is written.
    runs = {(v, s): _build_variant(cfg, v, s) for v in cfg["variants"] for s in seeds}
    exp_dir = os.path.join(out_dir if out_dir is not None else default_out_dir(), name)
    model_dir = os.path.join(exp_dir, "models")
    data_dir = os.path.join(exp_dir, "data")
    os.makedirs(model_dir, exist_ok=True)
    os.makedirs(data_dir, exist_ok=True)
    for s in seeds:
        train_data, test_data = datasets[s]
        save_csv(train_data, os.path.join(data_dir, f"train_seed{s}.csv"))
        if test_data is not None:
            save_csv(test_data, os.path.join(data_dir, f"test_seed{s}.csv"))

    error_rows, p_rows, summary_rows, pred_rows = [], [], [], []
    results = []
    per_variant: dict[str, list] = {}
    for (variant, s), (net, tc) in runs.items():
        train_data, test_data = datasets[s]
        net, log = train(net, train_data, tc)
        e_train, e_test, yhat_grid = _final_errors(cfg, net, train_data, test_data, grid)
        for it, e in enumerate(log.errors, start=1):
            error_rows.append([str(it), variant, str(s), _g(e)])
        if log.p_history is not None:
            for it, snap in enumerate(log.p_history, start=1):
                for (layer, neuron), pv in zip(log.p_labels, snap):
                    p_rows.append([str(it), str(layer), str(neuron + 1), _g(pv), variant, str(s)])
        if yhat_grid is not None:
            for xg, yt, yp in zip(grid[0][:, 0], grid[1][:, 0], yhat_grid[:, 0]):
                pred_rows.append([variant, str(s), _g(xg), _g(yt), _g(yp)])
        summary_rows.append([variant, str(s), _g(e_train), _g(e_test)])
        model_path = os.path.join(model_dir, f"{variant}_seed{s}.txt")
        save_network(net, model_path)
        rec = {
            "variant": variant,
            "seed": s,
            "train_error": e_train,
            "test_error": e_test,
            "iterations": int(log.errors.size),
        }
        results.append(rec)
        per_variant.setdefault(variant, []).append(rec)
        print(
            f"{name} {variant} seed {s}: iterations={rec['iterations']} "
            f"train_error={e_train:.6g} test_error={e_test:.6g}"
        )

    if cfg["data"] == "activity":
        for variant in cfg["variants"]:
            recs = per_variant[variant]
            tr = np.array([r["train_error"] for r in recs])
            te = np.array([r["test_error"] for r in recs])
            ddof = 1 if len(recs) > 1 else 0
            summary_rows.append([variant, "mean", _g(tr.mean()), _g(te.mean())])
            summary_rows.append([variant, "std", _g(tr.std(ddof=ddof)), _g(te.std(ddof=ddof))])

    _write_csv(os.path.join(exp_dir, "error_log.csv"), ["iter", "variant", "seed", "E"], error_rows)
    _write_csv(
        os.path.join(exp_dir, "p_evolution.csv"),
        ["iter", "layer", "neuron", "p", "variant", "seed"],
        p_rows,
    )
    _write_csv(
        os.path.join(exp_dir, "summary.csv"),
        ["variant", "seed", "train_error", "test_error"],
        summary_rows,
    )
    if pred_rows:
        _write_csv(
            os.path.join(exp_dir, "predictions.csv"),
            ["variant", "seed", "x", "y_true", "y_pred"],
            pred_rows,
        )
    return {"name": name, "dir": exp_dir, "results": results}


def run_shape(p_list, lam: float, a_min: float, a_max: float, n_points: int, out_path: str, inner_iters: int = 100) -> None:
    """Tabulate the activation and its input slope on a grid, per p."""
    if not a_min < a_max or n_points < 2:
        raise ValueError("need a_min < a_max and n_points >= 2")
    a = np.linspace(a_min, a_max, n_points)
    rows = []
    for p in p_list:
        v = evaluate_many(a, float(p), lam, inner_iters)
        dv = dv_da_many(v, float(p), lam)
        rows.extend([_g(p), _g(ai), _g(vi), _g(di)] for ai, vi, di in zip(a, v, dv))
    _write_csv(out_path, ["p", "a", "v", "dv_da"], rows)


def _parse_layer_spec(spec: str) -> list[int]:
    try:
        sizes = [int(tok) for tok in spec.replace("-", " ").replace(",", " ").split()]
    except ValueError as exc:
        raise ValueError(f"bad layer spec {spec!r}: {exc}") from exc
    if len(sizes) < 2:
        raise ValueError(f"layer spec needs at least two sizes, got {spec!r}")
    return sizes


def cmd_experiment(args) -> int:
    run_experiment(args.name, args.out, args.repetitions, args.seed, args.set)
    return 0


def cmd_shape(args) -> int:
    out_path = args.out
    if out_path is None:
        os.makedirs(default_out_dir(), exist_ok=True)
        out_path = os.path.join(default_out_dir(), "shape.csv")
    run_shape(args.p, args.lam, args.a_min, args.a_max, args.n_points, out_path, args.inner_iters)
    print(f"wrote {out_path}")
    return 0


def cmd_gradcheck(args) -> int:
    sizes = _parse_layer_spec(args.layers)
    net = init_network(sizes, args.head, args.lam, args.initial_p, seed=args.seed)
    X, Y = random_check_case(sizes, args.head, seed=args.seed, n_samples=args.samples)
    batch = Dataset(inputs=X, targets=Y, task=args.head)
    report = check_network_gradients(
        net, batch, h=args.h, inner_iters=args.inner_iters,
        corrupt=1.0 if args.inject_gradient_error else 0.0,
    )
    print(report.summary(args.tol))
    return 0 if report.passed(args.tol) else 1


def cmd_train(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        user_cfg = json.load(fh)
    if not isinstance(user_cfg, dict):
        raise ValueError(f"config must be a JSON object, got {type(user_cfg).__name__}")
    cfg = _merge_config(_TRAIN_CONFIG_DEFAULTS, user_cfg)  # a required key left None fails its type
    trained, log = _train_variant(cfg, "adaptive", cfg["seed"], load_csv(args.data))
    save_network(trained, args.model)
    if args.log:
        _write_csv(args.log, ["iter", "E"], [[str(t), _g(e)] for t, e in enumerate(log.errors, 1)])
    print(f"iterations {log.errors.size}")
    print(f"final_error {_g(log.errors[-1])}")
    return 0


def cmd_eval(args) -> int:
    net = load_network(args.model)
    data = load_csv(args.data)
    yhat = forward_batch(net, data.inputs, args.inner_iters).outputs[-1]
    print(f"mse {_g(mse(yhat, data.targets))}")
    if data.task == "classification":
        err = classification_error(net, data, args.inner_iters)
        print(f"classification_error {_g(err)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pnet",
        description="Train and inspect networks with implicit consensus activations.",
    )
    parser.add_argument("--version", action="version", version=f"pnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiment", help="run a named experiment and write CSV logs")
    p_exp.add_argument("name", choices=sorted(EXPERIMENTS))
    p_exp.add_argument("--out", default=None, help="output directory (default: $PNET_OUT or ./pnet_out)")
    p_exp.add_argument("--repetitions", type=int, default=5)
    p_exp.add_argument("--seed", type=int, default=1, help="first seed; repetitions use seed, seed+1, ...")
    p_exp.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key (JSON value)")
    p_exp.set_defaults(func=cmd_experiment)

    p_shape = sub.add_parser("shape", help="tabulate activation shape v(a) and slope per p")
    p_shape.add_argument("--p", type=float, nargs="+", default=[1.01, 1.5, 2.0, 3.0, 5.0, 10.0, 100.0])
    p_shape.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p_shape.add_argument("--a-min", type=float, default=-3.0)
    p_shape.add_argument("--a-max", type=float, default=3.0)
    p_shape.add_argument("--n-points", type=int, default=601)
    p_shape.add_argument("--inner-iters", type=int, default=100)
    p_shape.add_argument("--out", default=None, help="output CSV path (default: <out dir>/shape.csv)")
    p_shape.set_defaults(func=cmd_shape)

    p_gc = sub.add_parser("gradcheck", help="compare backprop gradients against finite differences")
    p_gc.add_argument("--layers", default="2-3-2", help="layer sizes, e.g. 2-3-2")
    p_gc.add_argument("--head", choices=["regression", "classification"], default="regression")
    p_gc.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p_gc.add_argument("--initial-p", type=float, default=2.5)
    p_gc.add_argument("--seed", type=int, default=1)
    p_gc.add_argument("--samples", type=int, default=5)
    p_gc.add_argument("--h", type=float, default=None, help="finite-difference step (default: scaled 1e-6)")
    p_gc.add_argument("--tol", type=float, default=1e-3)
    p_gc.add_argument("--inner-iters", type=int, default=200)
    p_gc.add_argument("--inject-gradient-error", action="store_true",
                      help="self-test hook: corrupt one gradient so the check must fail")
    p_gc.set_defaults(func=cmd_gradcheck)

    p_train = sub.add_parser("train", help="train a network from a JSON config and CSV dataset")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--data", required=True)
    p_train.add_argument("--model", required=True, help="path to write the trained model")
    p_train.add_argument("--log", default=None, help="optional error-log CSV path")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a saved model on a CSV dataset")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--inner-iters", type=int, default=100)
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
