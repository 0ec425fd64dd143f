"""Tests for gradient computation and the training loop."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from pnet.activation import P_MAX, P_MIN, dv_da_many, dv_dp_many
from pnet.data import Dataset, gen_activity_standin, gen_square
from pnet.network import PNetwork, forward_batch, init_network, nguyen_widrow_init
from pnet.training import (
    UPDATE_MODES,
    TrainConfig,
    TrainingDivergedError,
    TrainLog,
    _apply_batch_pass,
    backprop_batch,
    classification_error,
    mse,
    train,
)


def single_neuron_net() -> PNetwork:
    # One input, one p=2 neuron with bias 0 and weight 1, lambda 1:
    # a = x, v = x/3.
    return PNetwork(
        layer_sizes=[1, 1],
        weights=[np.array([[0.0, 1.0]])],
        activations=["implicit"],
        p_values=[np.array([2.0])],
        lam=1.0,
        head="regression",
    )


def toy_regression(n=30, seed=0) -> Dataset:
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, (n, 1))
    return Dataset(x, x**2, "regression")


class TestMse:
    def test_single_sample(self):
        assert mse(np.array([[1.0]]), np.array([[0.0]])) == 0.5

    def test_zero_when_equal(self):
        y = np.random.default_rng(0).standard_normal((5, 3))
        assert mse(y, y) == 0.0

    def test_two_sample_example(self):
        assert mse(np.array([[1.0], [0.0]]), np.array([[0.0], [2.0]])) == 1.25

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mse(np.zeros((2, 1)), np.zeros((3, 1)))
        with pytest.raises(ValueError):
            mse(np.zeros(3), np.zeros(3))


class TestBackprop:
    def test_single_neuron_hand_values(self):
        net = single_neuron_net()
        trace = forward_batch(net, np.array([[3.0]]))
        assert_allclose(trace.outputs[-1], [[1.0]], rtol=0, atol=1e-15)
        wg, pg = backprop_batch(net, trace, np.array([[0.0]]))
        # delta = (1 - 0) * dv_da(v=1) = 1/3; dE/dw = delta * x = 1;
        # dE/dbias = delta; dE/dp = (1 - 0) * dv_dp(v=1) = -1/3.
        assert_allclose(wg[0], np.array([[1.0 / 3.0, 1.0]]), rtol=0, atol=1e-12)
        assert_allclose(pg[0], np.array([-1.0 / 3.0]), rtol=0, atol=1e-12)

    def test_zero_gradients_at_perfect_fit(self):
        net = init_network([2, 3, 2], "regression", lam=1.0, initial_p=2.5, seed=1)
        X = np.random.default_rng(1).standard_normal((4, 2))
        trace = forward_batch(net, X)
        wg, pg = backprop_batch(net, trace, trace.outputs[-1])
        for g in wg:
            assert_array_equal(g, np.zeros_like(g))
        for g in pg:
            assert_array_equal(g, np.zeros_like(g))

    def test_classification_zero_error_gives_zero_gradients(self):
        net = init_network([2, 3, 2], "classification", lam=1.0, initial_p=2.5, seed=1)
        X = np.random.default_rng(2).standard_normal((4, 2))
        trace = forward_batch(net, X)
        wg, _ = backprop_batch(net, trace, trace.outputs[-1])
        for g in wg:
            assert_array_equal(g, np.zeros_like(g))

    def test_batch_gradient_is_mean_of_singles(self):
        net = init_network([2, 4, 1], "regression", lam=1.0, initial_p=2.5, seed=3)
        rng = np.random.default_rng(3)
        X = rng.standard_normal((5, 2))
        Y = rng.standard_normal((5, 1))
        trace = forward_batch(net, X)
        wg, pg = backprop_batch(net, trace, Y)
        singles_w = [np.zeros_like(g) for g in wg]
        singles_p = [np.zeros_like(g) for g in pg]
        for i in range(5):
            ti = forward_batch(net, X[i : i + 1])
            wgi, pgi = backprop_batch(net, ti, Y[i : i + 1])
            for k in range(len(wg)):
                singles_w[k] += wgi[k] / 5.0
                singles_p[k] += pgi[k] / 5.0
        for k in range(len(wg)):
            assert_allclose(wg[k], singles_w[k], rtol=1e-10, atol=1e-14)
            assert_allclose(pg[k], singles_p[k], rtol=1e-10, atol=1e-14)

    def test_compute_p_flag(self):
        net = init_network([2, 3, 1], "regression", lam=1.0, initial_p=2.5, seed=4)
        X = np.random.default_rng(4).standard_normal((3, 2))
        trace = forward_batch(net, X)
        _, pg = backprop_batch(net, trace, np.zeros((3, 1)), compute_p=False)
        assert all(g is None for g in pg)

    def test_cached_terms_match_recomputed_derivatives(self):
        # Reference: the same recursion with dv/da and dv/dp each computed
        # on its own, instead of from one shared `derivative_terms` call.
        for head in ("regression", "classification"):
            net = init_network([3, 5, 4, 2], head, lam=0.5, initial_p=2.5, seed=5)
            net.p_values[0] = np.array([1.05, 1.7, 2.0, 6.0, 300.0])
            rng = np.random.default_rng(5)
            X = 2.0 * rng.standard_normal((7, 3))
            Y = rng.uniform(0.0, 1.0, (7, 2))
            trace = forward_batch(net, X)
            wg, pg = backprop_batch(net, trace, Y)
            V = trace.outputs
            err = V[-1] - Y
            if head == "classification":
                delta = err * V[-1] * (1.0 - V[-1])
            else:
                p_out = net.p_values[-1][None, :]
                delta = err * dv_da_many(V[-1], p_out, net.lam)
                assert_allclose(pg[-1], np.mean(err * dv_dp_many(V[-1], p_out, net.lam), axis=0), rtol=1e-12)
            for k in range(net.n_layers - 1, -1, -1):
                ref_w = np.concatenate([delta.sum(axis=0)[:, None], delta.T @ V[k]], axis=1) / 7
                assert_allclose(wg[k], ref_w, rtol=1e-12, atol=1e-300)
                if k == 0:
                    break
                S = delta @ net.weights[k][:, 1:]
                pk = net.p_values[k - 1][None, :]
                ref_p = np.mean(dv_dp_many(V[k], pk, net.lam) * S, axis=0)
                assert_allclose(pg[k - 1], ref_p, rtol=1e-12, atol=1e-300)
                delta = dv_da_many(V[k], pk, net.lam) * S


class TestTrainConfig:
    def test_valid_modes(self):
        for mode in UPDATE_MODES:
            cfg = TrainConfig(0.1, 0.0, 10, 1e-3, update=mode)
            assert cfg.update == mode

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(0.0, 0.0, 10, 1e-3)
        with pytest.raises(ValueError):
            TrainConfig(0.1, -1.0, 10, 1e-3)
        with pytest.raises(ValueError):
            TrainConfig(0.1, 0.0, 0, 1e-3)
        with pytest.raises(ValueError):
            TrainConfig(0.1, 0.0, 10, 0.0)
        with pytest.raises(ValueError):
            TrainConfig(0.1, 0.0, 10, 1e-3, inner_iters=0)
        # Iteration counts feed range(), so a float is rejected, even an integral one.
        for bad in (2.5, 3.0, "3", None, True):
            with pytest.raises(ValueError, match="max_iters must be an integer"):
                TrainConfig(0.1, 0.0, bad, 1e-3)
            with pytest.raises(ValueError, match="inner_iters must be an integer"):
                TrainConfig(0.1, 0.0, 10, 1e-3, inner_iters=bad)
        assert TrainConfig(0.1, 0.0, np.int64(3), 1e-3, inner_iters=np.int32(5)).max_iters == 3
        good = dict(alpha_w=0.1, alpha_p=0.0, max_iters=10, max_error=1e-3)
        for name in ("alpha_w", "alpha_p", "max_error"):
            for bad in (True, np.True_):
                with pytest.raises(ValueError, match=f"{name} must be a number"):
                    TrainConfig(**{**good, name: bad})
        with pytest.raises(ValueError):
            TrainConfig(0.1, 0.0, 10, 1e-3, update="online")


class TestTrainBatch:
    def test_single_neuron_one_step(self):
        net = single_neuron_net()
        data = Dataset(np.array([[3.0]]), np.array([[0.0]]), "regression")
        cfg = TrainConfig(alpha_w=0.1, alpha_p=0.0, max_iters=1, max_error=1e-300)
        trained, log = train(net, data, cfg)
        # dE/dw_11 = 1, so one step of size 0.1 moves the weight 1 -> 0.9.
        assert_allclose(trained.weights[0][0, 1], 0.9, rtol=0, atol=1e-12)
        assert len(log.errors) == 1

    def test_infinitesimal_step_decreases_error(self):
        net = init_network([1, 4, 1], "regression", lam=1.0, initial_p=2.5, seed=5)
        data = toy_regression(seed=5)
        e0 = mse(forward_batch(net, data.inputs).outputs[-1], data.targets)
        cfg = TrainConfig(alpha_w=1e-8, alpha_p=1e-8, max_iters=1, max_error=1e-300)
        _, log = train(net, data, cfg)
        assert log.errors[0] < e0

    def test_frozen_p_is_bit_identical(self):
        net = init_network([1, 4, 1], "regression", lam=1.0, initial_p=2.5, seed=6)
        before = [pk.copy() for pk in net.p_values]
        cfg = TrainConfig(alpha_w=0.05, alpha_p=0.0, max_iters=20, max_error=1e-300)
        trained, log = train(net, toy_regression(seed=6), cfg)
        for pk_before, pk_after in zip(before, trained.p_values):
            assert_array_equal(pk_before, pk_after)
        assert_array_equal(log.p_history, np.tile(log.p_history[0], (len(log.errors), 1)))

    def test_log_length_and_early_stop(self):
        net = init_network([1, 4, 1], "regression", lam=1.0, initial_p=2.5, seed=7)
        data = toy_regression(seed=7)
        cfg = TrainConfig(alpha_w=0.05, alpha_p=0.0, max_iters=8, max_error=1e-300)
        _, log_a = train(net, data, cfg)
        assert len(log_a.errors) == 8
        # Stop as soon as the error dips below a threshold between two
        # consecutive logged errors: the log must end exactly there.
        drops = np.nonzero(np.diff(log_a.errors) < 0)[0]
        assert drops.size > 0
        t = int(drops[0])
        thresh = float((log_a.errors[t] + log_a.errors[t + 1]) / 2.0)
        cfg_b = TrainConfig(alpha_w=0.05, alpha_p=0.0, max_iters=8, max_error=thresh)
        _, log_b = train(net, data, cfg_b)
        first_below = int(np.nonzero(log_a.errors < thresh)[0][0])
        assert len(log_b.errors) == first_below + 1
        assert_array_equal(log_b.errors, log_a.errors[: first_below + 1])

    def test_p_stays_clamped(self):
        net = init_network([1, 4, 1], "regression", lam=1.0, initial_p=2.0, seed=8)
        cfg = TrainConfig(alpha_w=0.01, alpha_p=1e9, max_iters=5, max_error=1e-300)
        trained, log = train(net, toy_regression(seed=8), cfg)
        for pk in trained.p_values:
            assert np.all(pk >= P_MIN) and np.all(pk <= P_MAX)
        assert np.all(log.p_history >= P_MIN) and np.all(log.p_history <= P_MAX)

    def test_divergence_raises(self):
        net = init_network([1, 4, 1], "regression", lam=1.0, initial_p=2.0, seed=9)
        cfg = TrainConfig(alpha_w=1e12, alpha_p=0.0, max_iters=50, max_error=1e-300)
        with pytest.raises(TrainingDivergedError):
            train(net, toy_regression(seed=9), cfg)

    @pytest.mark.parametrize("update", UPDATE_MODES)
    def test_overflow_raises_diverged(self, update):
        # The solve's Newton power overflows at this pre-activation: the
        # incremental pass meets it in Python float arithmetic
        # (OverflowError), the batch pass as a non-finite weight.
        net = init_network([1, 1], "regression", lam=1e-300, initial_p=1e4, seed=0)
        net.weights[0][:] = [[0.0, 1e300]]
        data = Dataset(inputs=np.array([[1.0]]), targets=np.array([[0.0]]), task="regression")
        cfg = TrainConfig(alpha_w=0.1, alpha_p=0.0, max_iters=2, max_error=1e-9, update=update)
        with pytest.raises(TrainingDivergedError) as info:
            train(net, data, cfg)
        if update == "incremental":
            assert isinstance(info.value.__cause__, OverflowError)

    @pytest.mark.parametrize("update", UPDATE_MODES)
    def test_overflowed_pre_activation_raises_diverged(self, update):
        # One step leaves the weights finite, but the hidden outputs times
        # them overflow: the measurement's solve once raised a bare
        # ValueError on its infinite input, and then warned of the overflow.
        net = init_network([1, 3, 1], "regression", 1.0, 2.0, seed=0)
        cfg = TrainConfig(alpha_w=1e300, alpha_p=0.0, max_iters=5, max_error=1e-300, update=update)
        with pytest.raises(TrainingDivergedError, match="iteration 1$"):
            train(net, toy_regression(seed=0), cfg)

    def test_determinism(self):
        net = init_network([1, 4, 1], "regression", lam=1.0, initial_p=2.5, seed=10)
        data = toy_regression(seed=10)
        cfg = TrainConfig(alpha_w=0.05, alpha_p=10.0, max_iters=10, max_error=1e-300)
        t1, l1 = train(net, data, cfg)
        t2, l2 = train(net, data, cfg)
        assert_array_equal(l1.errors, l2.errors)
        assert_array_equal(l1.p_history, l2.p_history)
        for Wa, Wb in zip(t1.weights, t2.weights):
            assert_array_equal(Wa, Wb)

    def test_task_mismatch_rejected(self):
        net = init_network([1, 4, 2], "classification", lam=1.0, initial_p=2.0, seed=0)
        with pytest.raises(ValueError):
            train(net, toy_regression(), TrainConfig(0.1, 0.0, 5, 1e-3))

    @pytest.mark.parametrize("update", UPDATE_MODES)
    @pytest.mark.parametrize("sizes", [[2, 4, 1], [1, 4, 2]])
    def test_width_mismatch_rejected_before_training(self, update, sizes):
        # The per-pair pass once broadcast a 2-wide output against 1-wide
        # targets and trained a full pass before any error was measured.
        net = init_network(sizes, "regression", lam=1.0, initial_p=2.0, seed=0)
        with pytest.raises(ValueError, match="layer_sizes"):
            train(net, toy_regression(), TrainConfig(0.1, 0.0, 5, 1e-3, update=update))

    @pytest.mark.parametrize("update", UPDATE_MODES)
    def test_invalid_net_rejected_before_training(self, update):
        # A hand-built net once failed in the solver ("activation input
        # must be finite") or in a numpy matmul.
        cfg = TrainConfig(0.1, 0.0, 5, 1e-3, update=update)
        low_p = init_network([1, 4, 1], "regression", lam=1.0, initial_p=2.0, seed=0)
        low_p.p_values[0][2] = 0.5
        with pytest.raises(ValueError, match="layer 1: p must lie in"):
            train(low_p, toy_regression(), cfg)
        misshaped = init_network([1, 4, 1], "regression", lam=1.0, initial_p=2.0, seed=0)
        misshaped.weights[1] = np.zeros((1, 4))
        with pytest.raises(ValueError, match="layer 2: weight shape"):
            train(misshaped, toy_regression(), cfg)

    def test_p_labels_and_history_shape(self):
        net = init_network([1, 4, 2], "regression", lam=1.0, initial_p=2.0, seed=11)
        cfg = TrainConfig(alpha_w=0.01, alpha_p=1.0, max_iters=4, max_error=1e-300)
        data = Dataset(np.array([[0.5], [-0.5]]), np.array([[0.1, 0.2], [0.3, 0.4]]), "regression")
        _, log = train(net, data, cfg)
        assert log.p_labels == [(1, 0), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1)]
        assert log.p_history.shape == (4, 6)

    def test_classification_p_labels_skip_output(self):
        net = init_network([2, 3, 2], "classification", lam=1.0, initial_p=2.0, seed=12)
        Y = np.zeros((4, 2))
        Y[:, 0] = 1.0
        data = Dataset(np.random.default_rng(12).standard_normal((4, 2)), Y, "classification")
        cfg = TrainConfig(alpha_w=0.01, alpha_p=1.0, max_iters=3, max_error=1e-300)
        _, log = train(net, data, cfg)
        assert log.p_labels == [(1, 0), (1, 1), (1, 2)]
        assert log.p_history.shape == (3, 3)


class TestWarmStartedBatch:
    # An ex3-shaped classifier (60-30-15-5, lam 1, p 5, inner_iters 10) on
    # 300 rows of the activity stand-in, trained with batch updates whose
    # error evaluations warm-start from the previous iterations' traces:
    # the first from the last outputs, the rest from their extrapolation
    # 2*V_t - V_(t-1).
    CFG = TrainConfig(alpha_w=0.1, alpha_p=0.1, max_iters=20, max_error=1e-300, inner_iters=10)

    def _net_and_data(self):
        net = init_network([60, 30, 15, 5], "classification", lam=1.0, initial_p=5.0, seed=13)
        return net, gen_activity_standin(60, 977)

    @staticmethod
    def _check_matches_cold_solves(net, data, cfg):
        trained, log = train(net, data, cfg)
        # The same updates with every evaluation solved cold.
        ref, errors = net.copy(), []
        trace = forward_batch(ref, data.inputs, cfg.inner_iters)
        for _ in range(cfg.max_iters):
            _apply_batch_pass(ref, trace, data.targets, cfg, True)
            trace = forward_batch(ref, data.inputs, cfg.inner_iters)
            errors.append(mse(trace.outputs[-1], data.targets))
        assert_allclose(log.errors, errors, rtol=1e-12, atol=0)
        got = trained.weights + [pk for pk in trained.p_values if pk is not None]
        want = ref.weights + [pk for pk in ref.p_values if pk is not None]
        for g, w in zip(got, want, strict=True):
            assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))
        return log

    def test_matches_cold_solves(self):
        net, data = self._net_and_data()
        self._check_matches_cold_solves(net, data, self.CFG)

    @pytest.mark.parametrize("alpha_p", [1.0, 60.0], ids=["free", "pinned"])
    def test_matches_cold_solves_below_p2(self, alpha_p):
        # A 2-6-4-1 regression net at p = 1.5, lam = 0.1, where every
        # extrapolated start passes through the w**(p-1) branch.  At
        # alpha_p = 60 a hidden p reaches P_MIN after a few warm
        # measurements and stays there, and p = 1.01 puts lanes in the
        # soft-threshold regime, where outputs underflow to 0.
        rng = np.random.default_rng(41)
        X = rng.uniform(-1.0, 1.0, (200, 2))
        data = Dataset(X, X[:, :1] * X[:, 1:], "regression")
        net = init_network([2, 6, 4, 1], "regression", lam=0.1, initial_p=1.5, seed=17)
        cfg = TrainConfig(alpha_w=0.1, alpha_p=alpha_p, max_iters=20, max_error=1e-300, inner_iters=10)
        log = self._check_matches_cold_solves(net, data, cfg)
        pinned = np.flatnonzero((log.p_history <= P_MIN).any(axis=1))
        if alpha_p > 1.0:
            assert 3 <= pinned[0] and pinned[-1] == cfg.max_iters - 1, pinned
        else:
            assert pinned.size == 0 and log.p_history.max() < 2.0

    def test_starts_extrapolate_the_last_two_measurements(self, monkeypatch):
        # Each measurement's start, as forward_batch receives it, against
        # the outputs of the measurements before it (copied when made,
        # since train reuses the older arrays for the extrapolation).
        import pnet.training

        calls = []

        def recording(net, X, inner_iters=100, start=None):
            seen = None if start is None else [V.copy() for V in start]
            trace = forward_batch(net, X, inner_iters, start)
            calls.append((start, seen, [V.copy() for V in trace.outputs]))
            return trace

        monkeypatch.setattr(pnet.training, "forward_batch", recording)
        net, data = self._net_and_data()
        train(net, data, TrainConfig(0.1, 0.1, 5, 1e-300, inner_iters=10))
        # One cold solve inside the first iteration, then one per measurement.
        assert len(calls) == 6 and calls[0][0] is None and calls[1][0] is None
        assert_array_equal(calls[2][1][1], calls[1][2][1])
        for j in range(3, 6):
            older, last = calls[j - 2][2], calls[j - 1][2]
            for k in (1, 2):  # the implicit layers
                want = 2.0 * last[k] - older[k]
                assert_allclose(calls[j][1][k], want, rtol=0, atol=4e-16 * np.max(np.abs(want)))
            assert_array_equal(calls[j][1][3], last[3])  # softmax output: the last trace's

    def test_baselines_start_from_the_last_trace(self, monkeypatch):
        # A net with no implicit layer builds no extrapolated start.
        import pnet.training

        starts, traces = [], []

        def recording(net, X, inner_iters=100, start=None):
            starts.append(start)
            traces.append(forward_batch(net, X, inner_iters, start))
            return traces[-1]

        monkeypatch.setattr(pnet.training, "forward_batch", recording)
        _, data = self._net_and_data()
        net = nguyen_widrow_init([60, 30, 15, 5], "classification", seed=13)
        train(net, data, TrainConfig(0.1, 0.0, 4, 1e-300))
        assert starts[:2] == [None, None]
        for start, trace in zip(starts[2:], traces[1:-1], strict=True):
            assert all(s is t for s, t in zip(start[1:], trace.outputs[1:], strict=True))

    def test_reruns_are_byte_identical(self):
        net, data = self._net_and_data()
        t1, l1 = train(net, data, self.CFG)
        t2, l2 = train(net, data, self.CFG)
        assert l1.errors.tobytes() == l2.errors.tobytes()
        assert l1.p_history.tobytes() == l2.p_history.tobytes()
        for Wa, Wb in zip(t1.weights, t2.weights):
            assert Wa.tobytes() == Wb.tobytes()


class TestTrainIncremental:
    @staticmethod
    def reference_passes(net, data, cfg, passes):
        # The per-pair semantics, spelled out with the public batch
        # routines on one-row batches: forward one pair, take all its
        # gradients at the parameters it found, then step the weights and
        # clip each p.
        ref = net.copy()
        for _ in range(passes):
            for i in range(data.inputs.shape[0]):
                x, y = data.inputs[i : i + 1], data.targets[i : i + 1]
                wg, pg = backprop_batch(ref, forward_batch(ref, x, cfg.inner_iters), y)
                for k in range(ref.n_layers):
                    ref.weights[k] -= cfg.alpha_w * wg[k]
                    if pg[k] is not None:
                        pk = ref.p_values[k]
                        pk -= cfg.alpha_p * pg[k]
                        np.clip(pk, P_MIN, P_MAX, out=pk)
        return ref

    def _check_against_reference(self, net, data, cfg):
        trained, log = train(net, data, cfg)
        assert log.errors.size == cfg.max_iters
        ref = self.reference_passes(net, data, cfg, cfg.max_iters)
        for got, want in zip(trained.weights, ref.weights):
            assert_allclose(got, want, rtol=1e-10, atol=1e-12)
        for got, want in zip(trained.p_values, ref.p_values):
            if want is None:
                assert got is None
            else:
                assert_allclose(got, want, rtol=1e-10, atol=0)
        return trained

    def test_three_passes_match_reference_regression(self):
        net = init_network([1, 4, 3, 1], "regression", lam=1.0, initial_p=2.5, seed=21)
        cfg = TrainConfig(0.05, 5.0, 3, 1e-300, inner_iters=100, update="incremental")
        trained = self._check_against_reference(net, toy_regression(n=20, seed=21), cfg)
        for before, after in zip(net.p_values, trained.p_values):
            assert not np.array_equal(before, after)

    def test_three_passes_match_reference_softmax_head(self):
        rng = np.random.default_rng(22)
        X = rng.standard_normal((20, 2))
        Y = np.zeros((20, 2))
        Y[np.arange(20), (X[:, 0] > 0).astype(int)] = 1.0
        net = init_network([2, 4, 2], "classification", lam=1.0, initial_p=2.5, seed=22)
        cfg = TrainConfig(0.5, 2.0, 3, 1e-300, inner_iters=100, update="incremental")
        trained = self._check_against_reference(net, Dataset(X, Y, "classification"), cfg)
        assert not np.array_equal(net.p_values[0], trained.p_values[0])

    @pytest.mark.parametrize(
        "kinds",
        [("satlins", "purelin"), ("tansig", "purelin"), ("tansig", "softmax"), ("implicit", "purelin")],
        ids="-".join,
    )
    def test_three_passes_match_reference_any_kinds(self, kinds):
        # Fixed-kind and mixed nets take the same per-pair pass.
        rng = np.random.default_rng(23)
        X = 2.0 * rng.standard_normal((20, 2))
        if kinds[-1] == "softmax":
            Y = np.zeros((20, 2))
            Y[np.arange(20), (X[:, 0] > 0).astype(int)] = 1.0
            data = Dataset(X, Y, "classification")
        else:
            data = Dataset(X, np.tanh(X[:, ::-1]), "regression")
        net = nguyen_widrow_init([2, 4, 2], data.task, seed=23)
        net.activations = list(kinds)
        if kinds[0] == "implicit":
            net.p_values[0], net.lam = np.full(4, 2.5), 1.0
        net.validate()
        cfg = TrainConfig(0.2, 2.0, 3, 1e-300, inner_iters=100, update="incremental")
        trained = self._check_against_reference(net, data, cfg)
        for before, after in zip(net.weights + net.p_values, trained.weights + trained.p_values):
            assert (before is None and after is None) or not np.array_equal(before, after)

    def test_single_sample_matches_batch(self):
        # With one training pair the mean gradient equals the pair
        # gradient, so both modes follow the same trajectory.
        net = single_neuron_net()
        data = Dataset(np.array([[3.0]]), np.array([[0.0]]), "regression")
        cfg_b = TrainConfig(0.1, 0.0, 12, 1e-300, update="batch")
        cfg_i = TrainConfig(0.1, 0.0, 12, 1e-300, update="incremental")
        tb, lb = train(net, data, cfg_b)
        ti, li = train(net, data, cfg_i)
        assert_allclose(li.errors, lb.errors, rtol=1e-10, atol=1e-15)
        assert_allclose(ti.weights[0], tb.weights[0], rtol=1e-10, atol=1e-15)

    def test_differs_from_batch_on_multiple_samples(self):
        net = init_network([1, 4, 1], "regression", lam=1.0, initial_p=2.5, seed=13)
        data = toy_regression(n=20, seed=13)
        tb, lb = train(net, data, TrainConfig(0.05, 0.0, 5, 1e-300, update="batch"))
        ti, li = train(net, data, TrainConfig(0.05, 0.0, 5, 1e-300, update="incremental"))
        assert not np.allclose(lb.errors, li.errors)

    def test_decreases_error(self):
        net = init_network([1, 4, 1], "regression", lam=1.0, initial_p=2.5, seed=14)
        data = toy_regression(seed=14)
        _, log = train(net, data, TrainConfig(0.05, 0.0, 40, 1e-300, update="incremental"))
        assert log.errors[-1] < log.errors[0]

    def test_determinism(self):
        net = init_network([1, 4, 1], "regression", lam=1.0, initial_p=2.5, seed=15)
        data = toy_regression(seed=15)
        cfg = TrainConfig(0.05, 5.0, 10, 1e-300, update="incremental")
        t1, l1 = train(net, data, cfg)
        t2, l2 = train(net, data, cfg)
        assert_array_equal(l1.errors, l2.errors)
        for Wa, Wb in zip(t1.weights, t2.weights):
            assert_array_equal(Wa, Wb)

    def test_training_resumes_bit_identically(self):
        # Passes carry nothing between them, so 4 iterations equal 2 followed
        # by 2 more from the result.  The ex2a net: 1-10-5-3-1, lam 1e-10.
        net = init_network([1, 10, 5, 3, 1], "regression", lam=1e-10, initial_p=100.0, seed=1,
                           initial_p_output=2.0)
        data = gen_square(100, seed=1)
        whole, log = train(net, data, TrainConfig(0.01, 1e4, 4, 1e-300, inner_iters=10, update="incremental"))
        half = TrainConfig(0.01, 1e4, 2, 1e-300, inner_iters=10, update="incremental")
        first, log1 = train(net, data, half)
        second, log2 = train(first, data, half)
        assert log.errors.tobytes() == np.concatenate([log1.errors, log2.errors]).tobytes()
        assert log.p_history.tobytes() == np.concatenate([log1.p_history, log2.p_history]).tobytes()
        for got, want in zip(second.weights + second.p_values, whole.weights + whole.p_values):
            assert got.tobytes() == want.tobytes()

    def test_frozen_p_is_bit_identical(self):
        net = init_network([1, 4, 1], "regression", lam=1.0, initial_p=2.5, seed=16)
        before = [pk.copy() for pk in net.p_values]
        cfg = TrainConfig(0.05, 0.0, 15, 1e-300, update="incremental")
        trained, _ = train(net, toy_regression(seed=16), cfg)
        for pk_before, pk_after in zip(before, trained.p_values):
            assert_array_equal(pk_before, pk_after)

    def test_p_stays_clamped(self):
        net = init_network([1, 4, 1], "regression", lam=1.0, initial_p=2.0, seed=17)
        cfg = TrainConfig(0.01, 1e9, 4, 1e-300, update="incremental")
        trained, _ = train(net, toy_regression(seed=17), cfg)
        for pk in trained.p_values:
            assert np.all(pk >= P_MIN) and np.all(pk <= P_MAX)

    def test_classification_head(self):
        rng = np.random.default_rng(18)
        X = rng.standard_normal((30, 2))
        Y = np.zeros((30, 2))
        Y[np.arange(30), (X[:, 0] > 0).astype(int)] = 1.0
        data = Dataset(X, Y, "classification")
        net = init_network([2, 4, 2], "classification", lam=1.0, initial_p=2.0, seed=18)
        e0 = mse(forward_batch(net, X).outputs[-1], Y)
        _, log = train(net, data, TrainConfig(0.5, 0.0, 60, 1e-300, update="incremental"))
        assert log.errors[-1] < e0


def _digest_cases():
    ex2a = init_network([1, 10, 5, 3, 1], "regression", lam=1e-10, initial_p=100.0, seed=1,
                        initial_p_output=2.0)
    square = gen_square(100, seed=1)
    rng = np.random.default_rng(23)
    X = 2.0 * rng.standard_normal((20, 2))
    fixed = nguyen_widrow_init([2, 4, 2], "regression", seed=23)
    fixed.activations = ["satlins", "purelin"]
    rng = np.random.default_rng(22)
    Xc = rng.standard_normal((20, 2))
    Yc = np.zeros((20, 2))
    Yc[np.arange(20), (Xc[:, 0] > 0).astype(int)] = 1.0
    return {
        "ex2a": (ex2a, square, 0.01, 1e4),
        "ex2a-frozen": (ex2a, square, 0.01, 0.0),
        "satlins-purelin": (fixed, Dataset(X, np.tanh(X[:, ::-1]), "regression"), 0.2, 2.0),
        "implicit-softmax": (init_network([2, 4, 2], "classification", lam=1.0, initial_p=2.5, seed=22),
                             Dataset(Xc, Yc, "classification"), 0.5, 2.0),
    }


def _digest(trained, log) -> str:
    h = hashlib.sha256()
    for arr in trained.weights + [pk for pk in trained.p_values if pk is not None]:
        h.update(arr.tobytes())
    h.update(log.errors.tobytes())
    return h.hexdigest()


class TestIncrementalPassDigests:
    # SHA-256 of the weights, the p values and `log.errors` after three
    # incremental passes.  The per-pair pass is tuned for speed, and every
    # such change must leave its arithmetic bit for bit as it was; these
    # digests were recorded before the pass was reworked (numpy 2.4 with
    # OpenBLAS on x86-64; another BLAS or libm may round differently).
    DIGESTS = {
        "ex2a": "066876a23d08d574152dd01481b3059b97d8ba605908b1e21d10729e2bfd9966",
        "ex2a-frozen": "46230b0c6b3fddae7e855495f61f53fcd6ffc315dc4be1b1f7015535e49a3f9d",
        "satlins-purelin": "04b538b2a54694c9a840a1ac778ee80dfb1d542abcf8e6fb38bdab3cb37ac295",
        "implicit-softmax": "11acf53660579616f2e6e7406251281537153c5eed9405173858617009b6f0aa",
    }

    @pytest.mark.parametrize("name", list(DIGESTS))
    def test_three_passes_are_bit_identical(self, name):
        net, data, alpha_w, alpha_p = _digest_cases()[name]
        trained, log = train(net, data, TrainConfig(alpha_w, alpha_p, 3, 1e-300, update="incremental"))
        assert _digest(trained, log) == self.DIGESTS[name]


class TestBatchPassDigests:
    # SHA-256 of the weights, the p values and `log.errors` after five
    # batch iterations, so measurements 3 to 5 start from the extrapolated
    # start.  Recorded before the batch loop's forward passes were moved
    # into `train` (numpy 2.4 with OpenBLAS on x86-64; another BLAS or libm
    # may round differently).
    CFG = TrainConfig(alpha_w=0.1, alpha_p=0.1, max_iters=5, max_error=1e-300, inner_iters=10)
    DIGESTS = {
        "ex3": "9c60013160cd0f7e9de6ae5f11c3d06db9ba845d4eda54d5ca6da6abd72d2918",
        "ex3-frozen": "a4397e73c3fef27a0838b77c9d6adcbade89190101abd7b933a4aae210489f56",
        "tansig-softmax": "49185cadcdd04df3c5cfb0ef14fd422c3f38b45efbb91a45615be2064dab9af8",
    }

    @pytest.mark.parametrize("name", list(DIGESTS))
    def test_five_iterations_are_bit_identical(self, name):
        data = gen_activity_standin(60, 977)
        if name == "tansig-softmax":
            net = nguyen_widrow_init([60, 30, 15, 5], "classification", seed=13)
        else:
            net = init_network([60, 30, 15, 5], "classification", lam=1.0, initial_p=5.0, seed=13)
        alpha_p = 0.0 if name == "ex3-frozen" else self.CFG.alpha_p
        trained, log = train(net, data, replace(self.CFG, alpha_p=alpha_p))
        assert _digest(trained, log) == self.DIGESTS[name]


class TestClassificationError:
    @staticmethod
    def sign_classifier() -> PNetwork:
        # Two softmax outputs driven by +/- 5x: argmax 0 for x > 0,
        # argmax 1 for x < 0, tie (resolved to index 0) at x = 0.
        return PNetwork(
            layer_sizes=[1, 2],
            weights=[np.array([[0.0, 5.0], [0.0, -5.0]])],
            activations=["softmax"],
            p_values=[None],
            lam=1.0,
            head="classification",
        )

    def test_zero_and_full_error(self):
        net = self.sign_classifier()
        X = np.array([[2.0], [-3.0], [1.0], [-0.5]])
        right = np.array([[1, 0], [0, 1], [1, 0], [0, 1]], dtype=float)
        data_right = Dataset(X, right, "classification")
        data_wrong = Dataset(X, right[:, ::-1].copy(), "classification")
        assert classification_error(net, data_right) == 0.0
        assert classification_error(net, data_wrong) == 1.0

    def test_tie_breaks_to_lowest_index(self):
        net = self.sign_classifier()
        data = Dataset(np.array([[0.0]]), np.array([[1.0, 0.0]]), "classification")
        assert classification_error(net, data) == 0.0

    def test_regression_dataset_rejected(self):
        net = self.sign_classifier()
        with pytest.raises(ValueError):
            classification_error(net, toy_regression())


class TestTrainLog:
    def test_errors_nonnegative_and_finite(self):
        net = init_network([1, 3, 1], "regression", lam=1.0, initial_p=2.0, seed=19)
        _, log = train(net, toy_regression(seed=19), TrainConfig(0.05, 1.0, 10, 1e-300))
        assert isinstance(log, TrainLog)
        assert np.all(log.errors >= 0.0) and np.all(np.isfinite(log.errors))
