"""Tests for the implicit-activation network container and serialization."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from pnet.activation import evaluate_many
from pnet.network import (
    ModelFormatError,
    PNetwork,
    fmt_float,
    forward,
    forward_batch,
    init_network,
    load_network,
    predict,
    save_network,
    softmax,
)

N_CASES = 200


class TestInitNetwork:
    def test_shapes_and_uniform_p(self):
        net = init_network([3, 5, 2], "regression", lam=1.0, initial_p=2.0, seed=0)
        assert net.layer_sizes == [3, 5, 2]
        assert net.weights[0].shape == (5, 4)
        assert net.weights[1].shape == (2, 6)
        assert_array_equal(net.p_values[0], np.full(5, 2.0))
        assert_array_equal(net.p_values[1], np.full(2, 2.0))

    def test_output_p_override(self):
        net = init_network([1, 4, 1], "regression", lam=1e-10, initial_p=100.0, seed=0, initial_p_output=2.0)
        assert_array_equal(net.p_values[0], np.full(4, 100.0))
        assert_array_equal(net.p_values[-1], np.array([2.0]))

    def test_classification_output_has_no_p(self):
        net = init_network([3, 4, 2], "classification", lam=1.0, initial_p=5.0, seed=0)
        assert net.p_values[-1] is None
        assert_array_equal(net.p_values[0], np.full(4, 5.0))

    def test_seed_determinism(self):
        a = init_network([2, 3, 1], "regression", lam=1.0, initial_p=2.0, seed=42)
        b = init_network([2, 3, 1], "regression", lam=1.0, initial_p=2.0, seed=42)
        c = init_network([2, 3, 1], "regression", lam=1.0, initial_p=2.0, seed=43)
        for Wa, Wb in zip(a.weights, b.weights):
            assert_array_equal(Wa, Wb)
        assert any(not np.array_equal(Wa, Wc) for Wa, Wc in zip(a.weights, c.weights))


class TestValidate:
    def test_bad_head(self):
        net = init_network([2, 2], "regression", lam=1.0, initial_p=2.0, seed=0)
        net.head = "nonsense"
        with pytest.raises(ValueError):
            net.validate()

    def test_bad_weight_shape(self):
        net = init_network([2, 2], "regression", lam=1.0, initial_p=2.0, seed=0)
        net.weights[0] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            net.validate()

    def test_p_outside_clamp(self):
        net = init_network([2, 2], "regression", lam=1.0, initial_p=2.0, seed=0)
        net.p_values[0] = np.array([0.5, 2.0])
        with pytest.raises(ValueError):
            net.validate()

    def test_classification_p_on_output_rejected(self):
        net = init_network([2, 3, 2], "classification", lam=1.0, initial_p=2.0, seed=0)
        net.p_values[-1] = np.full(2, 2.0)
        with pytest.raises(ValueError):
            net.validate()

    def test_copy_is_deep(self):
        net = init_network([2, 3, 1], "regression", lam=1.0, initial_p=2.0, seed=0)
        dup = net.copy()
        dup.weights[0][0, 0] += 1.0
        dup.p_values[0][0] = 3.0
        assert net.weights[0][0, 0] != dup.weights[0][0, 0]
        assert net.p_values[0][0] == 2.0


class TestSoftmax:
    def test_rows_normalize(self):
        rng = np.random.default_rng(41)
        for _ in range(N_CASES):
            a = rng.uniform(-20, 20, (int(rng.integers(1, 8)), int(rng.integers(2, 6))))
            s = softmax(a)
            assert np.all(s > 0.0)
            assert_allclose(np.sum(s, axis=1), np.ones(s.shape[0]), rtol=0, atol=1e-12)

    def test_large_logits_stable(self):
        s = softmax(np.array([[1000.0, 0.0, -1000.0]]))
        assert np.all(np.isfinite(s))
        assert_allclose(np.sum(s), 1.0, rtol=0, atol=1e-12)

    def test_shift_invariance(self):
        a = np.array([[0.3, -1.2, 2.0]])
        assert_allclose(softmax(a), softmax(a + 7.5), rtol=0, atol=1e-12)


class TestForward:
    def test_matches_manual_computation(self):
        net = init_network([2, 3, 1], "regression", lam=1.0, initial_p=2.5, seed=3)
        rng = np.random.default_rng(42)
        X = rng.standard_normal((4, 2))
        trace = forward_batch(net, X)
        V = X
        for k in range(net.n_layers):
            W = net.weights[k]
            A = V @ W[:, 1:].T + W[:, 0]
            assert_allclose(trace.activations[k], A, rtol=0, atol=1e-12)
            V = evaluate_many(A, net.p_values[k][None, :], net.lam)
            assert_allclose(trace.outputs[k + 1], V, rtol=0, atol=1e-12)
        assert trace.outputs[0] is X or np.array_equal(trace.outputs[0], X)

    def test_classification_output_is_distribution(self):
        net = init_network([3, 4, 3], "classification", lam=1.0, initial_p=3.0, seed=5)
        rng = np.random.default_rng(43)
        X = rng.standard_normal((6, 3))
        yhat = forward_batch(net, X).outputs[-1]
        assert_allclose(np.sum(yhat, axis=1), np.ones(6), rtol=0, atol=1e-12)
        assert np.all(yhat > 0.0)

    def test_single_sample_matches_batch(self):
        net = init_network([2, 3, 2], "regression", lam=0.5, initial_p=2.0, seed=7)
        rng = np.random.default_rng(44)
        X = rng.standard_normal((5, 2))
        batch = forward_batch(net, X).outputs[-1]
        for i in range(5):
            single = forward(net, X[i]).outputs[-1][0]
            assert_allclose(single, batch[i], rtol=0, atol=1e-12)

    def test_predict_shapes(self):
        net = init_network([2, 3, 2], "regression", lam=0.5, initial_p=2.0, seed=7)
        x = np.array([0.1, -0.2])
        X = np.tile(x, (3, 1))
        assert predict(net, x).shape == (2,)
        assert predict(net, X).shape == (3, 2)
        assert_allclose(predict(net, X)[0], predict(net, x), rtol=0, atol=1e-15)

    def test_input_validation(self):
        net = init_network([2, 3, 1], "regression", lam=1.0, initial_p=2.0, seed=0)
        with pytest.raises(ValueError):
            forward_batch(net, np.zeros((3, 5)))
        with pytest.raises(ValueError):
            forward_batch(net, np.array([[0.0, np.inf]]))
        with pytest.raises(ValueError):
            forward(net, np.zeros((2, 2)))

    def test_deterministic(self):
        net = init_network([2, 4, 2], "regression", lam=1.0, initial_p=3.0, seed=9)
        X = np.random.default_rng(45).standard_normal((8, 2))
        y1 = forward_batch(net, X).outputs[-1]
        y2 = forward_batch(net, X).outputs[-1]
        assert_array_equal(y1, y2)


class TestSerialization:
    def test_fmt_float_round_trips(self):
        rng = np.random.default_rng(46)
        for _ in range(N_CASES):
            x = float(rng.standard_normal() * 10.0 ** rng.integers(-12, 12))
            assert float(fmt_float(x)) == x

    def test_regression_round_trip_exact(self, tmp_path):
        net = init_network([2, 5, 3, 1], "regression", lam=1e-10, initial_p=100.0, seed=2, initial_p_output=2.0)
        path = str(tmp_path / "model.txt")
        save_network(net, path)
        back = load_network(path)
        assert isinstance(back, PNetwork)
        assert back.layer_sizes == net.layer_sizes
        assert back.head == net.head and back.lam == net.lam
        for Wa, Wb in zip(net.weights, back.weights):
            assert_array_equal(Wa, Wb)
        for pa, pb in zip(net.p_values, back.p_values):
            assert_array_equal(pa, pb)

    def test_classification_round_trip_exact(self, tmp_path):
        net = init_network([4, 3, 2], "classification", lam=1.0, initial_p=5.0, seed=8)
        path = str(tmp_path / "model.txt")
        save_network(net, path)
        back = load_network(path)
        assert back.p_values[-1] is None
        for Wa, Wb in zip(net.weights, back.weights):
            assert_array_equal(Wa, Wb)

    def test_round_trip_preserves_predictions(self, tmp_path):
        net = init_network([2, 4, 1], "regression", lam=1.0, initial_p=2.5, seed=10)
        path = str(tmp_path / "model.txt")
        save_network(net, path)
        back = load_network(path)
        X = np.random.default_rng(47).standard_normal((6, 2))
        assert_array_equal(forward_batch(net, X).outputs[-1], forward_batch(back, X).outputs[-1])

    def test_unknown_tag_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("mystery 1\nend\n", encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_network(str(path))

    def test_truncated_file_rejected(self, tmp_path):
        net = init_network([2, 3, 1], "regression", lam=1.0, initial_p=2.0, seed=0)
        path = str(tmp_path / "model.txt")
        save_network(net, path)
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        trunc = tmp_path / "trunc.txt"
        trunc.write_text("".join(lines[: len(lines) // 2]), encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_network(str(trunc))

    def test_wrong_value_count_rejected(self, tmp_path):
        net = init_network([2, 3, 1], "regression", lam=1.0, initial_p=2.0, seed=0)
        path = str(tmp_path / "model.txt")
        save_network(net, path)
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        for i, line in enumerate(lines):
            if line.startswith("w "):
                lines[i] = "w 1.0\n"
                break
        bad = tmp_path / "bad.txt"
        bad.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_network(str(bad))
