"""Tests for the network container, forward evaluation and serialization."""

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from pnet.activation import evaluate_many
from pnet.data import TASKS
from pnet.network import (
    HEADS,
    ModelFormatError,
    PNetwork,
    fmt_float,
    forward_batch,
    init_network,
    load_network,
    nguyen_widrow_init,
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

    def test_classification_rejects_initial_p_output(self):
        # A softmax output has no p, so an output exponent would be ignored.
        with pytest.raises(ValueError, match="initial_p_output must be None"):
            init_network([3, 4, 2], "classification", lam=1.0, initial_p=5.0, seed=0, initial_p_output=7.0)

    def test_non_integral_sizes_rejected(self):
        for bad in ([1, 2.5, 1], [1.5, 2, 1], [1, "2", 1], [1, True, 1], [1, np.True_, 1]):
            with pytest.raises(ValueError, match="whole numbers"):
                init_network(bad, "regression", lam=1.0, initial_p=2.0, seed=0)
            with pytest.raises(ValueError, match="whole numbers"):
                nguyen_widrow_init(bad, "regression", seed=0)
        # Integral floats and numpy integers are sizes, converted to int.
        for ok in ([1, 2.0, 1], np.array([1, 2, 1])):
            assert init_network(ok, "regression", lam=1.0, initial_p=2.0, seed=0).layer_sizes == [1, 2, 1]
            assert nguyen_widrow_init(ok, "regression", seed=0).layer_sizes == [1, 2, 1]

    def test_too_few_or_empty_layers_rejected(self):
        # Both constructors index the sizes, so they are checked first.
        for bad in ([], [1], [1, 0, 1], [2, -1, 1]):
            with pytest.raises(ValueError, match=">= 2 positive integers"):
                init_network(bad, "regression", lam=1.0, initial_p=2.0, seed=0)
            with pytest.raises(ValueError, match=">= 2 positive integers"):
                nguyen_widrow_init(bad, "regression", seed=0)

    @pytest.mark.parametrize("head", ["regression", "classification"])
    @pytest.mark.parametrize(
        "sizes", [[3, 5, 2], [1, 10, 5, 3, 1], [60, 30, 15, 5], [4, 1]], ids=lambda s: "-".join(map(str, s))
    )
    def test_weights_are_nguyen_widrow_init_weights(self, head, sizes):
        # A p-net and a baseline of the same sizes and seed start from the
        # same weights, so a comparison changes only the activations.
        net = init_network(sizes, head, lam=1.0, initial_p=5.0, seed=17)
        base = nguyen_widrow_init(sizes, head, seed=17)
        assert len(net.weights) == len(base.weights)
        for W, Wb in zip(net.weights, base.weights):
            assert_array_equal(W, Wb)

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

    def test_heads_are_the_data_tasks(self):
        assert HEADS is TASKS

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

    def test_nan_p_rejected(self):
        # A NaN p passed the range test, which compares false for NaN.
        net = init_network([2, 3, 2], "regression", lam=1.0, initial_p=2.0, seed=0)
        net.p_values[1] = np.array([2.0, np.nan])
        with pytest.raises(ValueError, match="layer 2: p must lie in"):
            net.validate()
        with pytest.raises(ValueError, match="layer 1: p must lie in"):
            init_network([2, 3, 2], "regression", lam=1.0, initial_p=np.nan, seed=0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, value):
        net = nguyen_widrow_init([2, 3, 1], "regression", seed=0)
        net.weights[1][0, 2] = value
        with pytest.raises(ValueError, match="layer 2: weights must be finite"):
            net.validate()

    def test_nan_p_in_model_file_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        save_network(init_network([2, 3, 1], "regression", lam=1.0, initial_p=3.0, seed=0), str(path))
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("p 3 3 3\n", "p nan 3 3\n"), encoding="utf-8")
        with pytest.raises(ValueError, match="layer 1: p must lie in"):
            load_network(str(path))

    def test_classification_p_on_output_rejected(self):
        net = init_network([2, 3, 2], "classification", lam=1.0, initial_p=2.0, seed=0)
        net.p_values[-1] = np.full(2, 2.0)
        with pytest.raises(ValueError):
            net.validate()

    def test_regression_softmax_output_rejected(self, tmp_path):
        # backprop_batch would apply the softmax delta to a squared-error loss.
        with pytest.raises(ValueError, match="exactly when the head is classification"):
            nguyen_widrow_init([2, 3, 2], "regression", seed=1, hidden_kind="tansig", output_kind="softmax")
        path = tmp_path / "model.txt"
        save_network(init_network([2, 3, 2], "classification", lam=1.0, initial_p=2.0, seed=0), str(path))
        path.write_text(path.read_text(encoding="utf-8").replace("head classification", "head regression"),
                        encoding="utf-8")
        with pytest.raises(ValueError, match="exactly when the head is classification"):
            load_network(str(path))

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
            assert_allclose(predict(net, X[i]), batch[i], rtol=0, atol=1e-12)

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

    def test_deterministic(self):
        net = init_network([2, 4, 2], "regression", lam=1.0, initial_p=3.0, seed=9)
        X = np.random.default_rng(45).standard_normal((8, 2))
        y1 = forward_batch(net, X).outputs[-1]
        y2 = forward_batch(net, X).outputs[-1]
        assert_array_equal(y1, y2)

    def test_start_trace_warm_starts_implicit_layers(self):
        net = init_network([2, 4, 3, 2], "classification", lam=1.0, initial_p=3.0, seed=10)
        X = np.random.default_rng(46).standard_normal((8, 2))
        cold = forward_batch(net, X, inner_iters=10)
        moved = net.copy()
        moved.weights[0] *= 1.01
        warm = forward_batch(moved, X, inner_iters=10, start=cold.outputs)
        for k, V in enumerate(forward_batch(moved, X, inner_iters=10).outputs):
            assert_allclose(warm.outputs[k], V, rtol=1e-12, atol=0)
        # Starting at the roots themselves, one step confirms them.
        again = forward_batch(moved, X, inner_iters=1, start=warm.outputs)
        assert_allclose(again.outputs[-1], warm.outputs[-1], rtol=1e-12, atol=0)

    def test_mismatched_start_trace_rejected(self):
        net = init_network([2, 4, 3, 2], "classification", lam=1.0, initial_p=3.0, seed=10)
        X = np.random.default_rng(47).standard_normal((8, 2))
        # A one-row trace would broadcast silently into the solver.
        one_row = forward_batch(net, X[:1])
        other_net = forward_batch(init_network([2, 3, 3, 2], "classification", 1.0, 3.0, seed=10), X)
        for start in (one_row, forward_batch(net, X[:5]), other_net):
            with pytest.raises(ValueError):
                forward_batch(net, X, start=start.outputs)


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

    @pytest.mark.parametrize(
        "baseline, key, line",
        [
            (False, "head", "head"),
            (False, "lambda", "lambda"),
            (False, "lambda", "lambda abc"),
            (False, "layer_sizes", "layer_sizes 2 1.5 1"),
            (True, "activation", "activation"),
            (False, "pnetwork", "pnetwork 99"),
            (True, "baseline", "baseline"),
            (False, "layer", "layer 7"),
            (False, "head", "head regression extra"),
            (False, "lambda", "lambda 1 2"),
            (True, "activation", "activation satlins purelin"),
            (False, "end", "end now"),
        ],
    )
    def test_malformed_line_names_file_and_line(self, tmp_path, baseline, key, line):
        # Such lines once escaped as a bare IndexError or ValueError.
        if baseline:
            net = nguyen_widrow_init([2, 3, 1], "regression", seed=0)
        else:
            net = init_network([2, 3, 1], "regression", lam=1.0, initial_p=2.0, seed=0)
        path = tmp_path / "model.txt"
        save_network(net, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        i = next(i for i, text in enumerate(lines) if text.split()[0] == key)
        lines[i] = line
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ModelFormatError, match=f"^{re.escape(str(path))} line {i + 1}: "):
            load_network(str(path))

    def test_blank_lines_are_skipped(self, tmp_path):
        net = init_network([2, 3, 1], "regression", lam=1.0, initial_p=2.5, seed=3)
        path = tmp_path / "model.txt"
        save_network(net, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n\n".join(lines) + "\n  \n\n", encoding="utf-8")
        back = load_network(str(path))
        for a, b in zip(net.weights + net.p_values, back.weights + back.p_values):
            assert a.tobytes() == b.tobytes()

    def test_bad_number_names_file_and_line(self, tmp_path):
        path = tmp_path / "model.txt"
        save_network(init_network([2, 3, 1], "regression", lam=1.0, initial_p=2.5, seed=3), str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        i = next(i for i, text in enumerate(lines) if text.startswith("w "))
        lines[i] = "w abc " + " ".join(lines[i].split()[2:])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ModelFormatError, match=f"^{re.escape(str(path))} line {i + 1}: bad number"):
            load_network(str(path))


# One v1 model file of each kind, with the predictions on V1_INPUTS, as
# written by the code that had separate p-network and baseline classes.
# ``make`` rebuilds the same net: a baseline with its constructor, a
# p-network from the weights and p written in its file (those weights are
# not a Nguyen-Widrow draw).
V1_INPUTS = np.array([[0.5, -1.0], [2.0, 0.25], [-0.75, 1.5]])
V1_MODELS = {
    "pnetwork_regression": dict(
        make=lambda: PNetwork(
            layer_sizes=[2, 2, 1],
            weights=[
                np.array([
                    [0.35877340800391416, 1.5106773081434572, -1.7863312373111822],
                    [1.6866135086657521, -0.047317212156137566, -0.79997858437515323],
                ]),
                np.array([[-0.80295671839036198, -1.0828165165825909, -0.22364535840745078]]),
            ],
            activations=["implicit", "implicit"],
            p_values=[np.array([3.0, 3.0]), np.array([1.5])],
            lam=0.5,
            head="regression",
        ),
        text="""pnetwork 1
head regression
lambda 0.5
layer_sizes 2 2 1
layer 1
p 3 3
w 0.35877340800391416 1.5106773081434572 -1.7863312373111822
w 1.6866135086657521 -0.047317212156137566 -0.79997858437515323
layer 2
p 1.5
w -0.80295671839036198 -1.0828165165825909 -0.22364535840745078
end
""",
        outputs=[["-1.3428424769732155"], ["-1.2977530064893061"], ["0.15043978226535559"]],
    ),
    "pnetwork_classification": dict(
        make=lambda: PNetwork(
            layer_sizes=[2, 2, 2],
            weights=[
                np.array([
                    [-1.3976184247040431, -1.204009490095536, -1.3022690060563118],
                    [-0.62268536704388844, 1.4472801153936388, -1.6013138916154472],
                ]),
                np.array([
                    [0.94396946426691153, 1.2624719157159621, -0.35546062571105153],
                    [-0.70093608667580731, 0.47211462069079746, 1.214557665204409],
                ]),
            ],
            activations=["implicit", "softmax"],
            p_values=[np.array([2.5, 2.5]), None],
            lam=1.0,
            head="classification",
        ),
        text="""pnetwork 1
head classification
lambda 1
layer_sizes 2 2 2
layer 1
p 2.5 2.5
w -1.3976184247040431 -1.204009490095536 -1.3022690060563118
w -0.62268536704388844 1.4472801153936388 -1.6013138916154472
layer 2
p softmax
w 0.94396946426691153 1.2624719157159621 -0.35546062571105153
w -0.70093608667580731 0.47211462069079746 1.214557665204409
end
""",
        outputs=[
            ["0.6208984333269334", "0.37910156667306655"],
            ["0.44185517940302071", "0.55814482059697923"],
            ["0.94296117748150121", "0.057038822518498705"],
        ],
    ),
    "baseline_regression": dict(
        make=lambda: nguyen_widrow_init([2, 2, 1], "regression", seed=23),
        text="""baseline 1
head regression
layer_sizes 2 2 1
layer 1
activation satlins
w -0.98994949366116658 0.79979105650416638 0.58338174974535262
w -0.98994949366116658 -0.68606698345284778 -0.71366104995012158
layer 2
activation purelin
w 0 0.27860169436484117 0.6421690555430396
end
""",
        outputs=[["-0.6763110767218079"], ["-0.4316915888676976"], ["-0.8412913035117161"]],
    ),
    "baseline_classification": dict(
        make=lambda: nguyen_widrow_init([2, 2, 2], "classification", seed=24),
        text="""baseline 1
head classification
layer_sizes 2 2 2
layer 1
activation tansig
w -0.98994949366116658 -0.8642286759229717 -0.48281341707995978
w -0.98994949366116658 0.98633996723156769 0.084459866455199317
layer 2
activation softmax
w -0.98994949366116658 0.6708183909733817 0.72801283390602622
w -0.98994949366116658 0.66410643395255076 -0.73414075243295596
end
""",
        outputs=[
            ["0.3163783397344011", "0.68362166026559901"],
            ["0.75199035262686587", "0.24800964737313408"],
            ["0.20528711641347841", "0.79471288358652159"],
        ],
    ),
}


class TestV1ModelFiles:
    @pytest.mark.parametrize("name", sorted(V1_MODELS))
    def test_loads_and_predicts_as_written(self, tmp_path, name):
        case = V1_MODELS[name]
        path = tmp_path / "model.txt"
        path.write_text(case["text"], encoding="utf-8")
        net = load_network(str(path))
        want = np.array([[float(v) for v in row] for row in case["outputs"]])
        assert_array_equal(predict(net, V1_INPUTS), want)

    @pytest.mark.parametrize("name", sorted(V1_MODELS))
    def test_save_is_byte_identical(self, tmp_path, name):
        case = V1_MODELS[name]
        path = tmp_path / "model.txt"
        save_network(case["make"](), str(path))
        assert path.read_bytes() == case["text"].encode("utf-8")

    def test_mixed_kinds_round_trip(self, tmp_path):
        # Implicit hidden layers under a fixed-kind output: the pnetwork
        # format names the kind on that layer's "p" line.
        net = init_network([2, 3, 1], "regression", lam=1.0, initial_p=2.5, seed=25)
        net.activations[-1] = "purelin"
        net.p_values[-1] = None
        path = tmp_path / "model.txt"
        save_network(net, str(path))
        assert "p purelin\n" in path.read_text(encoding="utf-8")
        back = load_network(str(path))
        assert back.activations == ["implicit", "purelin"]
        assert_array_equal(predict(back, V1_INPUTS), predict(net, V1_INPUTS))
