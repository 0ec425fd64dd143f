"""Gradient computation and training for p-networks and fixed-activation nets.

Backpropagation treats each implicit neuron's shape exponent p as a
trainable parameter alongside the weights: sensitivities flow back through
dv/da, and each p collects dv/dp weighted by the same back-propagated sum.
A layer of a fixed kind passes sensitivities back through its elementwise
derivative and has no p.  A softmax output layer contributes the
elementwise delta (yhat - y) * yhat * (1 - yhat).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activation import (
    P_MAX,
    P_MIN,
    _scalar_layer,
    derivative_terms,
    dv_da_many,
    dv_dp_many,
    fixed_deriv,
    softmax,
)
from .data import Dataset
from .network import ForwardTrace, PNetwork, forward_batch

__all__ = [
    "UPDATE_MODES",
    "TrainConfig",
    "TrainLog",
    "TrainingDivergedError",
    "mse",
    "backprop",
    "backprop_batch",
    "check_dataset",
    "train",
    "classification_error",
]


UPDATE_MODES = ("batch", "incremental")


@dataclass(frozen=True)
class TrainConfig:
    """Step sizes, stopping rules, and update mode for gradient descent.

    ``update`` selects how the gradient step is applied: ``"batch"``
    averages gradients over the whole training set before each update,
    ``"incremental"`` applies one update per training pair, cycling
    through the set in order once per iteration.  ``max_gradient`` stops
    batch training before an update whose largest weight-gradient
    magnitude is below it; the default 0 never stops.
    """

    alpha_w: float
    alpha_p: float
    max_iters: int
    max_error: float
    inner_iters: int = 100
    update: str = "batch"
    max_gradient: float = 0.0

    def __post_init__(self):
        for name in ("alpha_w", "alpha_p", "max_error", "max_gradient"):
            if isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
        if not (np.isfinite(self.alpha_w) and self.alpha_w > 0):
            raise ValueError(f"alpha_w must be finite and > 0, got {self.alpha_w}")
        if not (np.isfinite(self.alpha_p) and self.alpha_p >= 0):
            raise ValueError(f"alpha_p must be finite and >= 0, got {self.alpha_p}")
        for name in ("max_iters", "inner_iters"):
            value = getattr(self, name)  # both feed range(), which takes integers only
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if not (np.isfinite(self.max_error) and self.max_error > 0):
            raise ValueError(f"max_error must be finite and > 0, got {self.max_error}")
        if self.update not in UPDATE_MODES:
            raise ValueError(f"update must be one of {UPDATE_MODES}, got {self.update!r}")
        if not (np.isfinite(self.max_gradient) and self.max_gradient >= 0):
            raise ValueError(f"max_gradient must be finite and >= 0, got {self.max_gradient}")
        if self.max_gradient > 0 and self.update != "batch":
            raise ValueError("max_gradient applies to batch updates only")


@dataclass
class TrainLog:
    """Per-iteration training error and (for nets with implicit layers) p snapshots.

    ``errors[t]`` is the batch error measured after the t-th update.
    ``p_history`` has one row per iteration and one column per p value,
    ordered as ``p_labels`` (layer index from 1, neuron index from 0);
    it is None for networks without trainable p.
    """

    errors: np.ndarray
    p_history: np.ndarray | None = None
    p_labels: list[tuple[int, int]] | None = None


class TrainingDivergedError(RuntimeError):
    """Raised when the batch error or a parameter becomes non-finite, or an update overflows."""


def mse(outputs: np.ndarray, targets: np.ndarray) -> float:
    """Half mean squared error over the batch: sum of squares / (2N)."""
    outputs = np.asarray(outputs, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if outputs.shape != targets.shape or outputs.ndim != 2:
        raise ValueError(f"outputs {outputs.shape} and targets {targets.shape} must be matching N x r")
    diff = outputs - targets
    return float(np.sum(diff * diff) / (2.0 * outputs.shape[0]))


def backprop_batch(
    net: PNetwork,
    trace: ForwardTrace,
    targets: np.ndarray,
    compute_p: bool = True,
) -> tuple[list[np.ndarray], list[np.ndarray | None]]:
    """Batch-mean gradients of the half-MSE with respect to weights and p.

    Returns (weight_grads, p_grads); ``weight_grads[k]`` matches
    ``net.weights[k]`` (bias column first) and ``p_grads[k]`` matches
    ``net.p_values[k]``, with None where the layer has no p or when
    ``compute_p`` is false.
    """
    Y = np.asarray(targets, dtype=float)
    m = net.n_layers
    yhat = trace.outputs[-1]
    if Y.shape != yhat.shape:
        raise ValueError(f"targets {Y.shape} do not match outputs {yhat.shape}")
    n = Y.shape[0]

    weight_grads: list[np.ndarray] = [None] * m  # type: ignore[list-item]
    p_grads: list[np.ndarray | None] = [None] * m

    S = yhat - Y  # dE/dv of the layer being processed, per sample
    for k in range(m - 1, -1, -1):
        kind = net.activations[k]
        if kind == "softmax":
            delta = S * yhat * (1.0 - yhat)
        elif kind == "implicit":
            V = trace.outputs[k + 1]
            pk = net.p_values[k][None, :]
            power = None
            if compute_p:
                power, log_v = derivative_terms(V, pk, net.lam)
                p_grads[k] = np.mean(dv_dp_many(V, pk, net.lam, power, log_v) * S, axis=0)
            delta = dv_da_many(V, pk, net.lam, power) * S
        else:
            delta = fixed_deriv(kind, trace.activations[k]) * S
        weight_grads[k] = np.concatenate(
            [np.sum(delta, axis=0)[:, None], delta.T @ trace.outputs[k]], axis=1
        ) / n
        if k == 0:
            break
        S = delta @ net.weights[k][:, 1:]

    return weight_grads, p_grads


def backprop(
    net: PNetwork, trace: ForwardTrace, target
) -> tuple[list[np.ndarray], list[np.ndarray | None]]:
    """Single-sample gradients; the trace must hold exactly one row."""
    target = np.asarray(target, dtype=float)
    if target.ndim == 1:
        target = target[None, :]
    if trace.outputs[-1].shape[0] != 1 or target.shape[0] != 1:
        raise ValueError("backprop expects a single-sample trace and target; use backprop_batch")
    return backprop_batch(net, trace, target)


def _p_labels(net: PNetwork) -> list[tuple[int, int]]:
    labels = []
    for k, pk in enumerate(net.p_values):
        if pk is not None:
            labels.extend((k + 1, j) for j in range(pk.size))
    return labels


def _p_snapshot(net: PNetwork) -> np.ndarray:
    return np.concatenate([pk for pk in net.p_values if pk is not None])


def _apply_batch_pass(net: PNetwork, X, Y, cfg: TrainConfig, adapt_p: bool, trace: ForwardTrace | None) -> bool:
    """One full-batch update: mean gradients at the current parameters.

    ``trace`` is a forward pass of ``X`` at those parameters, or None to
    run one cold.  Returns True, without updating, when the largest
    weight-gradient magnitude is below ``cfg.max_gradient``.
    """
    if trace is None:
        trace = forward_batch(net, X, cfg.inner_iters)
    wg, pg = backprop_batch(net, trace, Y, compute_p=adapt_p)
    if cfg.max_gradient > 0 and max(np.max(np.abs(g)) for g in wg) < cfg.max_gradient:
        return True
    for k in range(net.n_layers):
        net.weights[k] -= cfg.alpha_w * wg[k]
        if adapt_p and pg[k] is not None:
            pk = net.p_values[k]
            pk -= cfg.alpha_p * pg[k]
            np.clip(pk, P_MIN, P_MAX, out=pk)
    return False


def _apply_incremental_pass(net: PNetwork, X, Y, cfg: TrainConfig, adapt_p: bool) -> None:
    """One cycle of per-pair updates, in dataset order.

    Every layer is implicit except possibly a softmax output.  Each
    pair's gradients are all taken at the parameters it found (backward
    sweep completes before any update), then applied at once.  The
    forward sweep solves each implicit layer with `_scalar_layer`, which
    also returns the slopes and p-sensitivities the backward sweep
    needs.  That plain-Python route is about six times faster than array
    calls on ex2a's layers of 1 to 10 neurons; numpy is kept for the
    per-pair matrix products and the weight step.  Every solve starts
    cold, so the pass reads nothing but the net and the data.  The p
    values live in Python lists during the pass and are written back to
    ``net.p_values`` at its end.
    """
    m = net.n_layers
    n = X.shape[0]
    lam = net.lam
    aw, ap = cfg.alpha_w, cfg.alpha_p
    inner = cfg.inner_iters
    # Layers 0 .. n_implicit-1 are implicit; a softmax output follows them.
    n_implicit = m - 1 if net.activations[-1] == "softmax" else m
    ps = [net.p_values[k].tolist() for k in range(n_implicit)]

    outs = [None] * (m + 1)
    slopes = [None] * n_implicit
    sens = [None] * n_implicit
    deltas = [None] * m
    pgs = [None] * n_implicit
    for i in range(n):
        v = X[i]
        outs[0] = v
        for k in range(m):
            W = net.weights[k]
            a = W[:, 1:] @ v + W[:, 0]
            if k == n_implicit:
                v = softmax(a)
            else:
                vl, slopes[k], sens[k] = _scalar_layer(a.tolist(), ps[k], lam, inner, adapt_p)
                v = np.array(vl)
            outs[k + 1] = v

        err = v - Y[i]
        if n_implicit < m:
            deltas[m - 1] = err * v * (1.0 - v)
        else:
            deltas[m - 1] = err * slopes[m - 1]
            if adapt_p:
                pgs[m - 1] = err * sens[m - 1]
        for k in range(m - 1, 0, -1):
            S = deltas[k] @ net.weights[k][:, 1:]
            if adapt_p:
                pgs[k - 1] = S * sens[k - 1]
            deltas[k - 1] = S * slopes[k - 1]

        for k in range(m):
            d = deltas[k]
            net.weights[k] -= aw * (d[:, None] * np.concatenate(([1.0], outs[k])))
            if adapt_p and k < n_implicit:
                pk = ps[k]
                for j, step in enumerate((ap * pgs[k]).tolist()):
                    pk[j] = min(max(pk[j] - step, P_MIN), P_MAX)
    if adapt_p:
        for k in range(n_implicit):
            net.p_values[k][:] = ps[k]


def check_dataset(net: PNetwork, data: Dataset) -> None:
    """Raise ValueError unless ``data`` has ``net``'s task and row widths."""
    if (data.task == "classification") != (net.head == "classification"):
        raise ValueError(f"dataset task {data.task!r} does not match network head {net.head!r}")
    sizes = net.layer_sizes
    widths = (data.inputs.shape[1], data.targets.shape[1])
    if widths != (sizes[0], sizes[-1]):
        raise ValueError(
            f"layer_sizes {sizes} need input width {sizes[0]} and target width {sizes[-1]}, "
            f"but the dataset's are {widths[0]} and {widths[1]}"
        )


def train(net: PNetwork, data: Dataset, cfg: TrainConfig) -> tuple[PNetwork, TrainLog]:
    """Gradient-descent training; returns a trained copy and its log.

    Each iteration applies one update pass at the current parameters —
    a mean-gradient step for ``update="batch"``, a cycle of per-pair
    steps for ``update="incremental"`` — with every p clipped to its
    valid range, then measures the whole-set error at the new
    parameters.  Stops after ``max_iters`` iterations, as soon as the
    measured error drops below ``max_error``, or (batch only) before an
    update whose weight gradients are all below ``max_gradient``;
    raises `TrainingDivergedError` if a weight or the error becomes
    non-finite or an update pass overflows.  The dataset must pass
    `check_dataset`, and incremental updates need every layer implicit
    except a softmax output.

    The last measurement's trace is the only state carried between
    iterations.  A batch update takes its gradients from it, and the
    next measurement warm-starts its activation solves from its outputs
    (`forward_batch`'s ``start``), which lie on either side of the new
    roots; a warm lane takes at most 6 Newton steps, and the results
    depend on the start at rounding level only.  An incremental pass
    solves every pair cold and moves the parameters after every pair, so
    the measurement after it starts cold too.
    """
    check_dataset(net, data)
    if cfg.update == "incremental" and not set(net.activations) <= {"implicit", "softmax"}:
        raise ValueError(f"incremental updates need implicit layers, got {net.activations}")
    net = net.copy()
    X, Y = data.inputs, data.targets
    adapt_p = cfg.alpha_p > 0 and any(pk is not None for pk in net.p_values)
    track_p = any(pk is not None for pk in net.p_values)
    labels = _p_labels(net) if track_p else None
    batch = cfg.update == "batch"

    errors: list[float] = []
    p_rows: list[np.ndarray] = []
    trace = None
    for it in range(cfg.max_iters):
        try:
            if batch:
                if _apply_batch_pass(net, X, Y, cfg, adapt_p, trace):
                    break
            else:
                _apply_incremental_pass(net, X, Y, cfg, adapt_p)
        except OverflowError as exc:  # Python float arithmetic raises where numpy gives inf
            raise TrainingDivergedError(f"overflow in update pass {it + 1}") from exc
        if not all(np.all(np.isfinite(W)) for W in net.weights):
            raise TrainingDivergedError(f"non-finite weight after iteration {it + 1}")
        trace = forward_batch(net, X, cfg.inner_iters, start=trace if batch else None)
        e = mse(trace.outputs[-1], Y)
        if not np.isfinite(e):
            raise TrainingDivergedError(f"non-finite training error after iteration {it + 1}")
        errors.append(e)
        if track_p:
            p_rows.append(_p_snapshot(net))
        if e < cfg.max_error:
            break

    log = TrainLog(
        errors=np.array(errors),
        p_history=np.array(p_rows) if track_p else None,
        p_labels=labels,
    )
    return net, log


def classification_error(net: PNetwork, data: Dataset, inner_iters: int = 100) -> float:
    """Fraction of samples whose argmax output misses the argmax target.

    Ties resolve to the lowest index on both sides.
    """
    if data.task != "classification":
        raise ValueError("classification_error needs a classification dataset")
    yhat = forward_batch(net, data.inputs, inner_iters).outputs[-1]
    pred = np.argmax(yhat, axis=1)
    truth = np.argmax(data.targets, axis=1)
    return float(np.mean(pred != truth))
