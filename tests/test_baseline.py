"""Tests for fixed-activation (baseline) networks: Nguyen-Widrow nets whose
layers carry fixed activation kinds and run through the shared forward
pass, backprop, training loop and model format."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from pnet.activation import ACTIVATION_KINDS, evaluate_many, fixed_deriv, fixed_eval
from pnet.data import Dataset
from pnet.network import PNetwork, forward_batch, init_network, load_network, nguyen_widrow_init, save_network
from pnet.oracle import rel_err
from pnet.training import TrainConfig, TrainingDivergedError, backprop_batch, classification_error, mse, train

N_CASES = 200


class TestFixedEval:
    def test_satlins_clamps(self):
        assert fixed_eval("satlins", np.array(2.0)) == 1.0
        assert fixed_eval("satlins", np.array(-2.0)) == -1.0
        assert fixed_eval("satlins", np.array(0.5)) == 0.5

    def test_purelin_identity(self):
        a = np.random.default_rng(51).standard_normal(20)
        assert_array_equal(fixed_eval("purelin", a), a)

    def test_tansig_is_tanh(self):
        rng = np.random.default_rng(52)
        for _ in range(N_CASES):
            a = rng.uniform(-5, 5, 10)
            assert_allclose(fixed_eval("tansig", a), np.tanh(a), rtol=0, atol=1e-12)

    def test_softmax_rows_normalize(self):
        rng = np.random.default_rng(53)
        for _ in range(N_CASES):
            a = rng.uniform(-10, 10, (3, 4))
            s = fixed_eval("softmax", a)
            assert_allclose(np.sum(s, axis=1), np.ones(3), rtol=0, atol=1e-12)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            fixed_eval("relu", np.zeros(3))
        with pytest.raises(ValueError):
            fixed_eval("implicit", np.zeros(3))
        with pytest.raises(ValueError):
            fixed_deriv("implicit", np.zeros(3))

    def test_tansig_saturates_without_overflow(self):
        # The logistic form 2/(1+exp(-2a)) - 1 overflowed exp for a <= -355.
        a = np.array([-400.0, 400.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = fixed_eval("tansig", a)
            slope = fixed_deriv("tansig", v)
        assert_array_equal(v, [-1.0, 1.0])
        assert_array_equal(slope, [0.0, 0.0])


class TestFixedDeriv:
    # fixed_deriv takes the layer output v, not the pre-activation.
    def test_hand_values(self):
        assert fixed_deriv("satlins", np.array(0.0)) == 1.0
        assert fixed_deriv("satlins", np.array(0.5)) == 1.0
        assert fixed_deriv("satlins", np.array(1.0)) == 0.0
        assert fixed_deriv("satlins", np.array(-1.0)) == 0.0
        assert fixed_deriv("tansig", np.array(0.0)) == 1.0
        assert fixed_deriv("tansig", np.array(0.5)) == 0.75
        assert fixed_deriv("purelin", np.array(3.7)) == 1.0
        assert_array_equal(fixed_deriv("softmax", np.array([[0.5, 0.25, 0.25]])), [[0.25, 0.1875, 0.1875]])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(54)
        h = 1e-6
        for _ in range(N_CASES):
            kind = str(rng.choice(["satlins", "tansig", "purelin"]))
            a = float(rng.uniform(-3, 3))
            if kind == "satlins" and min(abs(a - 1.0), abs(a + 1.0)) < 1e-3:
                continue  # kink: derivative is a subgradient choice there
            fd = (
                float(fixed_eval(kind, np.array(a + h)))
                - float(fixed_eval(kind, np.array(a - h)))
            ) / (2 * h)
            assert rel_err(float(fixed_deriv(kind, fixed_eval(kind, np.array(a)))), fd) <= 1e-5

    def test_softmax_matches_finite_differences_in_own_logit(self):
        rng = np.random.default_rng(60)
        h = 1e-6
        for _ in range(N_CASES):
            a = rng.uniform(-3, 3, (1, 4))
            slope = fixed_deriv("softmax", fixed_eval("softmax", a))
            for j in range(a.shape[1]):
                up, dn = a.copy(), a.copy()
                up[0, j] += h
                dn[0, j] -= h
                fd = (fixed_eval("softmax", up)[0, j] - fixed_eval("softmax", dn)[0, j]) / (2 * h)
                assert rel_err(float(slope[0, j]), float(fd)) <= 1e-5


# Both constructors draw the same Nguyen-Widrow weights.
WEIGHT_DRAWS = pytest.mark.parametrize(
    "make",
    [
        lambda sizes, seed: nguyen_widrow_init(sizes, "regression", seed=seed),
        lambda sizes, seed: init_network(sizes, "regression", lam=1.0, initial_p=2.0, seed=seed),
    ],
    ids=["nguyen_widrow_init", "init_network"],
)


class TestNguyenWidrow:
    @WEIGHT_DRAWS
    def test_row_magnitudes(self, make):
        net = make([3, 7, 2], 0)
        for k, (n, hsz) in enumerate([(3, 7), (7, 2)]):
            beta = 0.7 * hsz ** (1.0 / n)
            norms = np.linalg.norm(net.weights[k][:, 1:], axis=1)
            assert_allclose(norms, np.full(hsz, beta), rtol=1e-12, atol=0)

    @WEIGHT_DRAWS
    def test_bias_spread_alternates(self, make):
        net = make([3, 5, 2], 1)
        n, hsz = 3, 5
        beta = 0.7 * hsz ** (1.0 / n)
        expected = beta * np.linspace(-1.0, 1.0, hsz) * (-1.0) ** np.arange(hsz)
        assert_allclose(net.weights[0][:, 0], expected, rtol=0, atol=1e-12)

    @WEIGHT_DRAWS
    def test_single_neuron_bias_zero(self, make):
        net = make([3, 4, 1], 2)
        assert net.weights[-1][0, 0] == 0.0

    def test_default_kinds(self):
        reg = nguyen_widrow_init([2, 4, 3, 1], "regression", seed=3)
        assert reg.activations == ["satlins", "satlins", "purelin"]
        cls = nguyen_widrow_init([2, 4, 3], "classification", seed=3)
        assert cls.activations == ["tansig", "softmax"]

    def test_is_a_pnetwork_without_p(self):
        net = nguyen_widrow_init([2, 4, 3, 1], "regression", seed=3)
        assert isinstance(net, PNetwork)
        assert net.p_values == [None, None, None]

    def test_explicit_kinds_and_determinism(self):
        a = nguyen_widrow_init([2, 4, 1], "regression", seed=4, hidden_kind="tansig", output_kind="purelin")
        b = nguyen_widrow_init([2, 4, 1], "regression", seed=4, hidden_kind="tansig", output_kind="purelin")
        assert a.activations == ["tansig", "purelin"]
        for Wa, Wb in zip(a.weights, b.weights):
            assert_array_equal(Wa, Wb)


class TestValidate:
    def test_softmax_only_on_output(self):
        net = nguyen_widrow_init([2, 3, 2], "classification", seed=5)
        net.activations[0] = "softmax"
        with pytest.raises(ValueError):
            net.validate()

    def test_classification_requires_softmax_output(self):
        net = nguyen_widrow_init([2, 3, 2], "classification", seed=6)
        net.activations[-1] = "tansig"
        with pytest.raises(ValueError):
            net.validate()

    def test_unknown_kind_rejected(self):
        net = nguyen_widrow_init([2, 3, 1], "regression", seed=7)
        net.activations[0] = "relu"
        with pytest.raises(ValueError):
            net.validate()

    def test_activation_kinds_constant(self):
        assert ACTIVATION_KINDS == ("implicit", "satlins", "tansig", "purelin", "softmax")

    def test_fixed_layer_with_p_rejected(self):
        net = nguyen_widrow_init([2, 3, 1], "regression", seed=7)
        net.p_values[0] = np.full(3, 2.0)
        with pytest.raises(ValueError):
            net.validate()


class TestForwardFixed:
    def test_matches_manual_computation(self):
        net = nguyen_widrow_init([2, 3, 1], "regression", seed=8)
        rng = np.random.default_rng(55)
        X = rng.standard_normal((6, 2))
        trace = forward_batch(net, X)
        V = X
        for k in range(net.n_layers):
            W = net.weights[k]
            A = V @ W[:, 1:].T + W[:, 0]
            assert_allclose(trace.activations[k], A, rtol=0, atol=1e-12)
            V = fixed_eval(net.activations[k], A)
        assert_allclose(trace.outputs[-1], V, rtol=0, atol=1e-12)

    def test_input_validation(self):
        net = nguyen_widrow_init([2, 3, 1], "regression", seed=9)
        with pytest.raises(ValueError):
            forward_batch(net, np.zeros((4, 3)))

    def test_non_finite_input_rejected(self):
        net = nguyen_widrow_init([2, 3, 1], "regression", seed=9)
        X = np.zeros((4, 2))
        X[2, 1] = np.nan
        with pytest.raises(ValueError):
            forward_batch(net, X)


class TestBackpropFixed:
    def test_matches_finite_differences(self):
        # Smooth kinds only; satlins has kinks where FD is meaningless.
        net = nguyen_widrow_init([2, 4, 2], "regression", seed=10, hidden_kind="tansig", output_kind="purelin")
        rng = np.random.default_rng(56)
        X = rng.standard_normal((5, 2))
        Y = rng.standard_normal((5, 2))
        grads, p_grads = backprop_batch(net, forward_batch(net, X), Y)
        assert p_grads == [None, None]

        def loss() -> float:
            return mse(forward_batch(net, X).outputs[-1], Y)

        h = 1e-6
        worst = 0.0
        for k in range(net.n_layers):
            W = net.weights[k]
            for idx in np.ndindex(W.shape):
                x0 = W[idx]
                W[idx] = x0 + h
                up = loss()
                W[idx] = x0 - h
                dn = loss()
                W[idx] = x0
                worst = max(worst, rel_err(grads[k][idx], (up - dn) / (2 * h)))
        assert worst <= 1e-5

    def test_classification_delta_matches_finite_differences_below_output(self):
        # The softmax layer uses the elementwise delta definition, so the
        # comparison freezes that output delta and checks the layers under
        # it through the same recursion the p-network uses.
        net = nguyen_widrow_init([2, 4, 3], "classification", seed=11)
        rng = np.random.default_rng(57)
        X = rng.standard_normal((4, 2))
        labels = rng.integers(0, 3, 4)
        Y = np.zeros((4, 3))
        Y[np.arange(4), labels] = 1.0
        grads, _ = backprop_batch(net, forward_batch(net, X), Y)
        assert all(np.all(np.isfinite(g)) for g in grads)
        assert any(np.any(g != 0.0) for g in grads)


class TestTrainFixed:
    def toy(self, seed=0) -> Dataset:
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, (40, 1))
        return Dataset(x, x**2, "regression")

    def test_decreases_error(self):
        net = nguyen_widrow_init([1, 6, 1], "regression", seed=12)
        data = self.toy(12)
        e0 = mse(forward_batch(net, data.inputs).outputs[-1], data.targets)
        _, log = train(net, data, TrainConfig(0.1, 0.0, 100, 1e-300))
        assert log.errors[-1] < e0

    def test_gradient_floor_stops_before_update(self):
        net = nguyen_widrow_init([1, 4, 1], "regression", seed=13)
        before = [W.copy() for W in net.weights]
        trained, log = train(net, self.toy(13), TrainConfig(0.1, 0.0, 50, 1e-300, max_gradient=1e9))
        assert log.errors.size == 0
        for Wb, Wa in zip(before, trained.weights):
            assert_array_equal(Wb, Wa)

    def test_divergence_raises(self):
        net = nguyen_widrow_init([1, 4, 1], "regression", seed=14)
        with np.errstate(over="ignore"), pytest.raises(TrainingDivergedError):
            train(net, self.toy(14), TrainConfig(1e14, 0.0, 60, 1e-300))

    def test_task_mismatch_rejected(self):
        net = nguyen_widrow_init([1, 4, 2], "classification", seed=15)
        with pytest.raises(ValueError):
            train(net, self.toy(15), TrainConfig(0.1, 0.0, 5, 1e-3))

    def test_bad_max_gradient_rejected(self):
        net = nguyen_widrow_init([1, 4, 1], "regression", seed=16)
        with pytest.raises(ValueError):
            train(net, self.toy(16), TrainConfig(0.1, 0.0, 5, 1e-3, max_gradient=-1.0))

    def test_classification_training_runs(self):
        rng = np.random.default_rng(58)
        X = rng.standard_normal((40, 2))
        Y = np.zeros((40, 2))
        Y[np.arange(40), (X[:, 0] > 0).astype(int)] = 1.0
        data = Dataset(X, Y, "classification")
        net = nguyen_widrow_init([2, 6, 2], "classification", seed=17)
        trained, log = train(net, data, TrainConfig(0.5, 0.0, 200, 1e-300))
        assert log.p_history is None
        assert classification_error(trained, data) <= classification_error(net, data)


class TestShapeSimilarity:
    def test_satlins_tracks_saturating_activation(self):
        # A slightly regularized high-exponent activation saturates like
        # satlins: identical in the linear region, within 0.25 across
        # [-3, 3] (the saturation branch keeps a slow residual growth).
        a = np.linspace(-3.0, 3.0, 601)
        v = evaluate_many(a, np.full(a.size, 100.0), 1e-10)
        s = np.clip(a, -1.0, 1.0)
        inside = np.abs(a) <= 1.0
        assert np.max(np.abs(v[inside] - s[inside])) <= 1e-6
        assert np.max(np.abs(v - s)) <= 0.25


class TestBaselineSerialization:
    def test_round_trip_exact(self, tmp_path):
        net = nguyen_widrow_init([2, 5, 3], "classification", seed=18)
        path = str(tmp_path / "baseline.txt")
        save_network(net, path)
        with open(path, encoding="utf-8") as fh:
            assert fh.readline() == "baseline 1\n"
        back = load_network(path)
        assert isinstance(back, PNetwork)
        assert back.layer_sizes == net.layer_sizes
        assert back.activations == net.activations
        assert back.p_values == [None, None]
        assert back.head == net.head
        for Wa, Wb in zip(net.weights, back.weights):
            assert_array_equal(Wa, Wb)

    def test_round_trip_preserves_predictions(self, tmp_path):
        net = nguyen_widrow_init([2, 4, 1], "regression", seed=19)
        path = str(tmp_path / "baseline.txt")
        save_network(net, path)
        back = load_network(path)
        X = np.random.default_rng(59).standard_normal((5, 2))
        assert_array_equal(forward_batch(net, X).outputs[-1], forward_batch(back, X).outputs[-1])


class TestBenchmarkAliases:
    def test_train_fixed_takes_batch_steps_with_its_gradient_stop(self):
        # `pnet.baseline.train_fixed` ignores the config's update mode, as
        # the benchmark's ex3_baseline workload expects.
        from pnet.baseline import train_fixed

        net = nguyen_widrow_init([1, 4, 1], "regression", seed=20)
        data = TestTrainFixed().toy(20)
        cfg = TrainConfig(0.1, 0.0, 30, 1e-300, update="incremental")
        got, got_log = train_fixed(net, data, cfg, max_gradient=0.05)
        want, want_log = train(net, data, TrainConfig(0.1, 0.0, 30, 1e-300, max_gradient=0.05))
        assert 0 < got_log.errors.size < 30
        assert_array_equal(got_log.errors, want_log.errors)
        for Wa, Wb in zip(got.weights, want.weights):
            assert_array_equal(Wa, Wb)
