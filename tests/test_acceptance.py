"""End-to-end acceptance suite.

One test per numbered criterion; the per-test pass/fail line of
``pytest -v`` is the acceptance record.  Criteria 6-9 retrain the shipped
experiment configurations from scratch, so this file dominates the suite's
runtime (several minutes, single core).
"""

import time

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from pnet.activation import (
    ActivationParams,
    dv_da,
    dv_dp,
    evaluate,
    evaluate_many,
    threshold_input,
)
from pnet.cli import EXPERIMENTS, _make_datasets, _train_variant
from pnet.data import (
    Dataset,
    gen_abs,
    gen_activity_standin,
    gen_sign,
    gen_square,
    split_train_test,
)
from pnet.network import forward_batch, init_network, nguyen_widrow_init, softmax
from pnet.oracle import bisect_root, check_network_gradients, random_check_case
from pnet.training import TrainConfig, classification_error, mse, train

GRID_P = (1.01, 1.5, 2.0, 3.0, 5.0, 10.0, 100.0)
GRID_LAM = (1e-10, 0.1, 1.0)
GRID_A = np.linspace(-10.0, 10.0, 41)


def final_train_error(cfg: dict, variant: str, seed: int, data) -> float:
    """Train one experiment variant and re-measure its final whole-set error."""
    net, _ = _train_variant(cfg, variant, seed, data)
    yhat = forward_batch(net, data.inputs).outputs[-1]
    return mse(yhat, data.targets)


def test_criterion_01_activation_matches_bisection_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for p in GRID_P:
        for lam in GRID_LAM:
            v = evaluate_many(GRID_A, np.full(GRID_A.size, p), lam, inner_iters=100)
            ref = np.array([bisect_root(a, p, lam) for a in GRID_A])
            worst = max(worst, float(np.max(np.abs(v - ref))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-6, f"worst |evaluate - bisect| = {worst:.3e} exceeds 1e-6"
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s (budget 1s)"


def test_criterion_02_derivatives_match_finite_differences():
    t0 = time.perf_counter()
    worst_da = 0.0
    worst_dp = 0.0
    for p in GRID_P:
        for lam in GRID_LAM:
            params = ActivationParams(p=p, lam=lam)
            for a in GRID_A:
                if abs(a) < 1e-3:
                    continue
                v = bisect_root(a, p, lam, tol=None)
                h_a = max(1e-6, 1e-6 * abs(a))
                fd_a = (
                    bisect_root(a + h_a, p, lam, tol=None)
                    - bisect_root(a - h_a, p, lam, tol=None)
                ) / (2 * h_a)
                an_a = dv_da(v, params)
                # Both routes agreeing on "essentially zero" counts as a
                # match; a relative error there only measures float noise.
                if max(abs(an_a), abs(fd_a)) > 1e-6:
                    worst_da = max(worst_da, abs(an_a - fd_a) / max(abs(an_a), abs(fd_a)))
                h_p = max(1e-6, 1e-6 * p)
                fd_p = (
                    bisect_root(a, p + h_p, lam, tol=None)
                    - bisect_root(a, p - h_p, lam, tol=None)
                ) / (2 * h_p)
                an_p = dv_dp(v, params)
                if max(abs(an_p), abs(fd_p)) > 1e-6:
                    worst_dp = max(worst_dp, abs(an_p - fd_p) / max(abs(an_p), abs(fd_p)))
    elapsed = time.perf_counter() - t0
    assert worst_da <= 1e-4, f"worst dv_da relative error {worst_da:.3e} exceeds 1e-4"
    assert worst_dp <= 1e-4, f"worst dv_dp relative error {worst_dp:.3e} exceeds 1e-4"
    assert elapsed < 5.0, f"criterion 2 took {elapsed:.2f}s (budget 5s)"


def test_criterion_03_p2_closed_form():
    rng = np.random.default_rng(0)
    for _ in range(100):
        a = float(rng.uniform(-100.0, 100.0))
        lam = float(rng.uniform(0.0, 10.0))
        v = evaluate(a, ActivationParams(p=2.0, lam=lam))
        assert abs(v - a / (1.0 + 2.0 * lam)) <= 1e-12


def test_criterion_04_threshold_slope_half():
    for p in (3.0, 5.0, 10.0, 100.0):
        for lam in (1e-10, 1.0):
            params = ActivationParams(p=p, lam=lam)
            a_tau = threshold_input(params)
            v = bisect_root(a_tau, p, lam)
            slope = dv_da(v, params)
            assert abs(slope - 0.5) <= 1e-6, (
                f"slope at threshold (p={p}, lam={lam}) is {slope!r}, not 0.5 +/- 1e-6"
            )


def test_criterion_05_network_gradient_check():
    t0 = time.perf_counter()
    for head in ("regression", "classification"):
        for seed in (1, 2, 3):
            net = init_network([2, 3, 2], head, lam=1.0, initial_p=2.5, seed=seed)
            X, Y = random_check_case([2, 3, 2], head, seed=seed, n_samples=5)
            report = check_network_gradients(net, Dataset(X, Y, head), inner_iters=200)
            assert report.weight_error <= 1e-3, (
                f"{head} seed {seed}: weight gradient error {report.weight_error:.3e}"
            )
            assert report.p_error is not None and report.p_error <= 1e-3, (
                f"{head} seed {seed}: p gradient error {report.p_error}"
            )
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"criterion 5 took {elapsed:.2f}s (budget 10s)"


def _regression_trend(name: str) -> None:
    cfg = EXPERIMENTS[name]
    seeds = [1, 2, 3, 4, 5]
    datasets = _make_datasets(cfg, seeds)
    adaptive, frozen = {}, {}
    for s in seeds:
        t0 = time.perf_counter()
        data = datasets[s][0]
        adaptive[s] = final_train_error(cfg, "adaptive", s, data)
        frozen[s] = final_train_error(cfg, "frozen", s, data)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"{name} seed {s} took {elapsed:.1f}s (budget 60s/seed)"
    n_small = sum(adaptive[s] <= 1.5e-3 for s in seeds)
    n_beat = sum(adaptive[s] < frozen[s] for s in seeds)
    detail = "; ".join(
        f"seed {s}: adaptive {adaptive[s]:.4e} vs frozen {frozen[s]:.4e}" for s in seeds
    )
    assert n_small >= 3 and n_beat >= 4, (
        f"{name}: adaptive <= 1.5e-3 in {n_small}/5 seeds (need >= 3), "
        f"adaptive < frozen in {n_beat}/5 seeds (need >= 4) -- {detail}"
    )


@pytest.mark.slow
def test_criterion_06_parabola_trend():
    _regression_trend("ex2a")


@pytest.mark.slow
def test_criterion_07_absolute_value_trend():
    _regression_trend("ex2b")


@pytest.mark.slow
def test_criterion_08_sign_fit_quality():
    cfg = EXPERIMENTS["ex1"]
    datasets = _make_datasets(cfg, [1, 2, 3, 4, 5])
    grid = np.linspace(cfg["data_lo"], cfg["data_hi"], cfg["grid_points"])[:, None]
    outer = np.abs(grid[:, 0]) > 1.0
    passing = 0
    fractions = []
    for s in (1, 2, 3, 4, 5):
        t0 = time.perf_counter()
        net, _ = _train_variant(cfg, "adaptive", s, datasets[s][0])
        yhat = forward_batch(net, grid).outputs[-1][:, 0]
        frac = float(np.mean(np.sign(yhat[outer]) == np.sign(grid[outer, 0])))
        fractions.append(frac)
        passing += frac >= 0.95
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"ex1 seed {s} took {elapsed:.1f}s (budget 30s/seed)"
    assert passing >= 4, (
        f"correct sign on >= 95% of the |x| > 1 grid in only {passing}/5 seeds; "
        f"fractions: {[f'{f:.4f}' for f in fractions]}"
    )


@pytest.mark.slow
def test_criterion_09_classification_trend():
    cfg = EXPERIMENTS["ex3"]
    seeds = [1, 2, 3, 4, 5]
    t0 = time.perf_counter()
    datasets = _make_datasets(cfg, seeds)
    errors = {"adaptive": [], "frozen": []}
    for variant in ("adaptive", "frozen"):
        for s in seeds:
            train_data, test_data = datasets[s]
            net, _ = _train_variant(cfg, variant, s, train_data)
            errors[variant].append(classification_error(net, test_data))
    elapsed = time.perf_counter() - t0
    mean_adaptive = float(np.mean(errors["adaptive"]))
    mean_frozen = float(np.mean(errors["frozen"]))
    assert mean_adaptive <= mean_frozen, (
        f"mean adaptive test error {mean_adaptive:.4f} exceeds frozen {mean_frozen:.4f} "
        f"(adaptive {errors['adaptive']}, frozen {errors['frozen']})"
    )
    assert elapsed < 300.0, f"criterion 9 took {elapsed:.1f}s (budget 5 min)"


def test_criterion_10_property_suites():
    cases = 200

    # Odd symmetry of the activation.
    rng = np.random.default_rng(100)
    for _ in range(cases):
        a = rng.uniform(-50.0, 50.0, int(rng.integers(1, 50)))
        p = rng.uniform(1.01, 150.0, a.size)
        lam = float(rng.choice([1e-10, 0.1, 1.0]))
        assert_array_equal(evaluate_many(-a, p, lam), -evaluate_many(a, p, lam))

    # Monotonicity in the input.
    rng = np.random.default_rng(101)
    for _ in range(cases):
        p = float(rng.uniform(1.01, 150.0))
        lam = float(rng.choice([1e-10, 0.1, 1.0]))
        a = np.sort(rng.uniform(-30.0, 30.0, 100))
        v = evaluate_many(a, np.full(a.size, p), lam)
        assert np.all(np.diff(v) >= -1e-12)

    # Output magnitude never exceeds input magnitude.
    rng = np.random.default_rng(102)
    for _ in range(cases):
        a = rng.uniform(-100.0, 100.0, int(rng.integers(1, 50)))
        p = rng.uniform(1.01, 150.0, a.size)
        lam = float(rng.choice([1e-10, 0.1, 1.0]))
        assert np.all(np.abs(evaluate_many(a, p, lam)) <= np.abs(a))

    # Zero regularization reduces to the identity.
    rng = np.random.default_rng(103)
    for _ in range(cases):
        a = rng.uniform(-1e4, 1e4, int(rng.integers(1, 50)))
        p = rng.uniform(1.01, 1e4, a.size)
        assert_array_equal(evaluate_many(a, p, 0.0), a)

    # Softmax rows are probability distributions.
    rng = np.random.default_rng(104)
    for _ in range(cases):
        logits = rng.uniform(-30.0, 30.0, (int(rng.integers(1, 6)), int(rng.integers(2, 7))))
        s = softmax(logits)
        assert np.all(s > 0.0)
        assert np.max(np.abs(np.sum(s, axis=1) - 1.0)) <= 1e-12

    # Frozen p never moves during training.
    rng = np.random.default_rng(105)
    for _ in range(cases):
        seed = int(rng.integers(0, 2**31))
        net = init_network([1, 2, 1], "regression", lam=1.0, initial_p=float(rng.uniform(1.5, 4.0)), seed=seed)
        before = [pk.copy() for pk in net.p_values]
        case_rng = np.random.default_rng(seed)
        x = case_rng.uniform(-1.0, 1.0, (4, 1))
        update = "batch" if seed % 2 == 0 else "incremental"
        cfg = TrainConfig(alpha_w=0.05, alpha_p=0.0, max_iters=2, max_error=1e-300, update=update)
        trained, _ = train(net, Dataset(x, x**2, "regression"), cfg)
        for pk_before, pk_after in zip(before, trained.p_values):
            assert_array_equal(pk_before, pk_after)

    # Every seeded operation reproduces bit-identically from its seed.
    rng = np.random.default_rng(106)
    for _ in range(cases):
        seed = int(rng.integers(0, 2**31))
        which = seed % 6
        if which == 0:
            a = init_network([2, 3, 1], "regression", lam=1.0, initial_p=2.0, seed=seed)
            b = init_network([2, 3, 1], "regression", lam=1.0, initial_p=2.0, seed=seed)
            for Wa, Wb in zip(a.weights, b.weights):
                assert_array_equal(Wa, Wb)
        elif which == 1:
            a = nguyen_widrow_init([2, 3, 1], "regression", seed=seed)
            b = nguyen_widrow_init([2, 3, 1], "regression", seed=seed)
            for Wa, Wb in zip(a.weights, b.weights):
                assert_array_equal(Wa, Wb)
        elif which == 2:
            assert_array_equal(gen_sign(8, seed=seed).inputs, gen_sign(8, seed=seed).inputs)
        elif which == 3:
            assert_array_equal(gen_square(8, seed=seed).inputs, gen_square(8, seed=seed).inputs)
        elif which == 4:
            assert_array_equal(gen_abs(8, seed=seed).inputs, gen_abs(8, seed=seed).inputs)
        else:
            pool = gen_activity_standin(per_class=6, seed=977)
            a_tr, a_te = split_train_test(pool, 3, 10, seed=seed)
            b_tr, b_te = split_train_test(pool, 3, 10, seed=seed)
            assert_array_equal(a_tr.inputs, b_tr.inputs)
            assert_array_equal(a_te.inputs, b_te.inputs)
