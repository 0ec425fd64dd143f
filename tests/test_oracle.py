"""Tests for the numerical reference suite (bisection and finite differences)."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pnet.data import Dataset
from pnet.network import init_network, nguyen_widrow_init
from pnet.oracle import (
    BracketError,
    BracketingInterval,
    _bisect,
    bisect_activation,
    bisect_root,
    check_network_gradients,
    finite_diff,
    random_check_case,
    rel_err,
)
from pnet.activation import ActivationParams

N_CASES = 200


class TestBisectRoot:
    def test_p2_closed_form(self):
        rng = np.random.default_rng(31)
        for _ in range(N_CASES):
            a = float(rng.uniform(-100, 100))
            lam = float(rng.uniform(0.0, 5.0))
            got = bisect_root(a, 2.0, lam)
            assert_allclose(got, a / (1.0 + 2.0 * lam), rtol=0, atol=1e-11 * max(1.0, abs(a)))

    def test_frozen_value(self):
        assert_allclose(bisect_root(3.0, 2.5, 1.0), 0.8924094427077307, rtol=0, atol=1e-12)

    def test_root_zeroes_residual(self):
        rng = np.random.default_rng(32)
        for _ in range(N_CASES):
            a = float(rng.uniform(-10, 10))
            p = float(rng.uniform(1.01, 6.0))
            lam = float(rng.choice([0.1, 1.0]))
            v = bisect_root(a, p, lam)
            r = lam * p * abs(v) ** (p - 1.0) * math.copysign(1.0, v) + (v - a) if v != 0 else -a
            assert abs(r) <= 1e-9 * max(1.0, abs(a))

    def test_identity_cases(self):
        assert bisect_root(0.0, 3.0, 1.0) == 0.0
        assert bisect_root(4.0, 3.0, 0.0) == 4.0
        assert bisect_root(-4.0, 3.0, 0.0) == -4.0

    def test_exhaustive_mode_refines(self):
        # tol=None bisects to float resolution; the p=2 closed form is the
        # independent target.
        rng = np.random.default_rng(33)
        for _ in range(50):
            a = float(rng.uniform(-10, 10))
            got = bisect_root(a, 2.0, 1.0, tol=None)
            assert_allclose(got, a / 3.0, rtol=0, atol=4e-16 * max(1.0, abs(a)))

    def test_validation(self):
        with pytest.raises(ValueError):
            bisect_root(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            bisect_root(1.0, 2.0, -1.0)
        with pytest.raises(ValueError):
            bisect_root(np.inf, 2.0, 1.0)

    def test_bisect_activation_wrapper(self):
        params = ActivationParams(p=3.0, lam=1.0)
        assert bisect_activation(2.0, params) == bisect_root(2.0, 3.0, 1.0)


class TestBisectCore:
    def test_linear_root(self):
        root = _bisect(lambda x: x - 0.5, BracketingInterval(0.0, 1.0))
        assert_allclose(root, 0.5, rtol=0, atol=1e-12)

    def test_no_sign_change_raises(self):
        with pytest.raises(BracketError):
            _bisect(lambda x: x * x + 1.0, BracketingInterval(0.0, 1.0))

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            BracketingInterval(1.0, 0.0)
        with pytest.raises(ValueError):
            BracketingInterval(0.0, 1.0, tol=1e-15)
        with pytest.raises(ValueError):
            BracketingInterval(0.0, 1.0, max_steps=0)


class TestFiniteDiff:
    def test_against_known_derivatives(self):
        assert_allclose(finite_diff(math.sin, 0.3), math.cos(0.3), rtol=1e-9)
        assert_allclose(finite_diff(lambda x: x * x, 2.0), 4.0, rtol=1e-9)
        assert_allclose(finite_diff(math.exp, 0.0), 1.0, rtol=1e-9)

    def test_explicit_step(self):
        got = finite_diff(lambda x: x * x * x, 1.0, h=1e-5)
        assert_allclose(got, 3.0, rtol=1e-8)

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            finite_diff(math.sin, 0.0, h=0.0)
        with pytest.raises(ValueError):
            finite_diff(math.sin, 0.0, h=-1e-6)


class TestRelErr:
    def test_ordinary_ratio(self):
        # Denominator is the larger magnitude of the pair.
        assert_allclose(rel_err(1.0, 1.0001), 1e-4 / 1.0001, rtol=1e-9)

    def test_exact_match_is_zero(self):
        assert rel_err(0.0, 0.0) == 0.0
        assert rel_err(2.5, 2.5) == 0.0

    def test_near_zero_uses_absolute_scale(self):
        # Denominators are floored so ~0 references compare absolutely
        # instead of dividing by ~0.
        assert rel_err(1e-12, 0.0) <= 1e-3


class TestNetworkGradientCheck:
    def test_regression_gradients_pass(self):
        net = init_network([2, 3, 2], "regression", lam=1.0, initial_p=2.5, seed=1)
        X, Y = random_check_case([2, 3, 2], "regression", seed=1)
        report = check_network_gradients(net, Dataset(X, Y, "regression"))
        assert report.weight_error <= 1e-3
        assert report.p_error is not None and report.p_error <= 1e-3

    def test_classification_gradients_pass(self):
        net = init_network([2, 3, 2], "classification", lam=1.0, initial_p=2.5, seed=1)
        X, Y = random_check_case([2, 3, 2], "classification", seed=1)
        report = check_network_gradients(net, Dataset(X, Y, "classification"))
        assert report.weight_error <= 1e-3
        assert report.p_error is not None and report.p_error <= 1e-3

    def test_fixed_activation_gradients_pass_without_p(self):
        net = nguyen_widrow_init([2, 3, 2], "classification", seed=1)
        X, Y = random_check_case([2, 3, 2], "classification", seed=1)
        report = check_network_gradients(net, Dataset(X, Y, "classification"))
        assert report.weight_error <= 1e-3
        assert report.p_error is None

    def test_mixed_kind_gradients_pass(self):
        # An implicit layer between a tansig layer and a purelin output:
        # backprop picks each layer's rule from its kind.
        net = init_network([2, 3, 3, 2], "regression", lam=1.0, initial_p=2.5, seed=2)
        net.activations[0] = "tansig"
        net.activations[-1] = "purelin"
        net.p_values[0] = net.p_values[-1] = None
        X, Y = random_check_case([2, 3, 3, 2], "regression", seed=2)
        report = check_network_gradients(net, Dataset(X, Y, "regression"))
        assert report.weight_error <= 1e-3
        assert report.p_error is not None and report.p_error <= 1e-3

    def test_corrupt_hook_is_detected(self):
        # Injecting an error into one analytic gradient must blow up the
        # comparison; this proves the harness can catch a wrong gradient.
        net = init_network([2, 3, 2], "regression", lam=1.0, initial_p=2.5, seed=1)
        X, Y = random_check_case([2, 3, 2], "regression", seed=1)
        report = check_network_gradients(net, Dataset(X, Y, "regression"), corrupt=1.0)
        assert report.weight_error > 1e-2


class TestRandomCheckCase:
    def test_deterministic(self):
        X1, Y1 = random_check_case([3, 4, 2], "regression", seed=9)
        X2, Y2 = random_check_case([3, 4, 2], "regression", seed=9)
        assert np.array_equal(X1, X2) and np.array_equal(Y1, Y2)

    def test_shapes_and_one_hot(self):
        X, Y = random_check_case([3, 4, 2], "classification", seed=5, n_samples=7)
        assert X.shape == (7, 3) and Y.shape == (7, 2)
        assert np.all((Y == 0.0) | (Y == 1.0))
        assert np.array_equal(np.sum(Y, axis=1), np.ones(7))
