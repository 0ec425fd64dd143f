"""Gradient computation and training for p-networks and fixed-activation nets.

Backpropagation treats each implicit neuron's shape exponent p as a
trainable parameter alongside the weights: sensitivities flow back through
dv/da, and each p collects dv/dp weighted by the same back-propagated sum.
A layer of a fixed kind has no p and passes sensitivities back through
`pnet.activation.fixed_deriv` at its output; a softmax output thus gives
the diagonal delta (yhat - y) * yhat * (1 - yhat).
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
    fixed_eval,
)
from .data import Dataset
from .network import ForwardTrace, PNetwork, forward_batch

__all__ = [
    "UPDATE_MODES",
    "TrainConfig",
    "TrainLog",
    "TrainingDivergedError",
    "mse",
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
    through the set in order once per iteration.  Training stops after
    ``max_iters`` iterations or once the error drops below ``max_error``.
    """

    alpha_w: float
    alpha_p: float
    max_iters: int
    max_error: float
    inner_iters: int = 100
    update: str = "batch"

    def __post_init__(self):
        for name in ("alpha_w", "alpha_p", "max_error"):
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
    """Raised when the batch error or a parameter becomes non-finite, or training arithmetic overflows."""


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
        V = trace.outputs[k + 1]
        if kind == "implicit":
            pk = net.p_values[k][None, :]
            power = None
            if compute_p:
                power, log_v = derivative_terms(V, pk, net.lam)
                p_grads[k] = np.mean(dv_dp_many(V, pk, net.lam, power, log_v) * S, axis=0)
            delta = dv_da_many(V, pk, net.lam, power) * S
        else:
            delta = fixed_deriv(kind, V) * S
        weight_grads[k] = np.concatenate(
            [np.sum(delta, axis=0)[:, None], delta.T @ trace.outputs[k]], axis=1
        ) / n
        if k == 0:
            break
        S = delta @ net.weights[k][:, 1:]

    return weight_grads, p_grads


def _p_labels(net: PNetwork) -> list[tuple[int, int]]:
    labels = []
    for k, pk in enumerate(net.p_values):
        if pk is not None:
            labels.extend((k + 1, j) for j in range(pk.size))
    return labels


def _p_snapshot(net: PNetwork) -> np.ndarray:
    return np.concatenate([pk for pk in net.p_values if pk is not None])


def _apply_batch_pass(net: PNetwork, trace: ForwardTrace, Y, cfg: TrainConfig, adapt_p: bool) -> None:
    """One mean-gradient step from ``trace``, a forward pass at the current parameters."""
    wg, pg = backprop_batch(net, trace, Y, compute_p=adapt_p)
    for k in range(net.n_layers):
        net.weights[k] -= cfg.alpha_w * wg[k]
        if adapt_p and pg[k] is not None:
            pk = net.p_values[k]
            pk -= cfg.alpha_p * pg[k]
            np.clip(pk, P_MIN, P_MAX, out=pk)


def _apply_incremental_pass(net: PNetwork, X, Y, cfg: TrainConfig, adapt_p: bool) -> None:
    """One cycle of per-pair updates, in dataset order, for nets of every kind.

    The forward sweep treats each layer by its kind, as `forward_batch`
    does.  A layer with p is solved by `_scalar_layer`, which also
    returns the slopes and p-sensitivities the backward sweep needs;
    on ex2a's net at init that plain-Python route takes about 31 µs a
    pair over its four layers of 1 to 10 neurons, and the array routines
    about 300 µs (2-core Xeon, Python 3.11, numpy 2.4, one BLAS thread).
    A fixed-kind layer is `fixed_eval` followed by `fixed_deriv` at its
    output.  The backward sweep, at layer k, forms the delta, steps and
    clamps p, passes the error back through the old weights and only
    then steps them, so each pair's gradients are all taken at the
    parameters it found.  Every solve starts cold, so the pass reads
    nothing but the net and the data.  The p values live in Python lists
    during the pass and are written back to ``net.p_values`` at its end.

    On layers this small numpy's per-call cost outweighs the arithmetic,
    so the pass makes no array it can reuse: each layer's input sits in
    a buffer ``[1, v]`` that the forward sweep writes in place and the
    weight step reads, the weight and bias views are taken once (the
    in-place steps keep them valid), and the p step runs on Python
    floats.  A pass over ex2a's 100 pairs takes about 6 ms on the
    machine above.
    """
    m = net.n_layers
    aw, ap, lam, inner_iters = cfg.alpha_w, cfg.alpha_p, net.lam, cfg.inner_iters
    ps = [None if pk is None else pk.tolist() for pk in net.p_values]
    Ws = [W[:, 1:] for W in net.weights]
    bs = [W[:, 0] for W in net.weights]
    ext = [np.ones(n + 1) for n in net.layer_sizes]  # [1, v_k] of every layer k
    outs = [e[1:] for e in ext]
    slopes = [None] * m
    sens = [None] * m
    for x, y in zip(X, Y):
        outs[0][:] = x
        for k, kind in enumerate(net.activations):
            a = Ws[k] @ outs[k] + bs[k]
            if ps[k] is None:
                outs[k + 1][:] = fixed_eval(kind, a)
                slopes[k] = fixed_deriv(kind, outs[k + 1])
            else:
                outs[k + 1][:], slopes[k], sens[k] = _scalar_layer(a.tolist(), ps[k], lam, inner_iters, adapt_p)

        S = outs[m] - y  # dE/dv of layer k, per pair
        for k in range(m - 1, -1, -1):
            delta = S * slopes[k]
            if adapt_p and ps[k] is not None:
                pk = ps[k]
                for j, (s, d) in enumerate(zip(S.tolist(), sens[k])):
                    q = pk[j] - ap * (s * d)
                    q = P_MIN if P_MIN > q else q  # max(q, P_MIN)
                    pk[j] = P_MAX if P_MAX < q else q  # min(q, P_MAX)
            if k:
                S = delta @ Ws[k]
            net.weights[k] -= aw * (delta[:, None] * ext[k])
    if adapt_p:
        for pk, new in zip(net.p_values, ps):
            if new is not None:
                pk[:] = new


def _warm_start(net: PNetwork, last: list[np.ndarray], older: list[np.ndarray] | None) -> list[np.ndarray]:
    """The start of the measurement after the one whose outputs are ``last``.

    With ``older``, the outputs of the measurement before ``last``, each
    implicit layer starts at ``2*V_t - V_(t-1)``, written over ``older``'s
    dead array, and every other layer at ``last``'s output; without it
    the start is ``last`` itself.
    """
    if older is None:
        return last
    start = list(last)
    for i, kind in enumerate(net.activations, 1):
        if kind == "implicit":
            start[i] = np.subtract(last[i], older[i], out=older[i])
            start[i] += last[i]
    return start


def check_dataset(net: PNetwork, data: Dataset) -> None:
    """Raise ValueError unless ``net`` is valid and ``data`` has its task and row widths."""
    net.validate()
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
    parameters.  Stops after ``max_iters`` iterations or once the error
    drops below ``max_error``, so the log holds at least one error.  An
    overflow or invalid operation, which numpy raises here rather than
    warns, or a non-finite weight or error raises `TrainingDivergedError`.
    The dataset must pass `check_dataset`; both update modes take nets of
    every kind.

    Batch training takes every forward pass itself: a cold pass inside
    iteration 1, then one measurement per iteration.  A batch update
    takes its gradients from the last pass.  From the third measurement
    on, each implicit layer starts its solves (`forward_batch`'s
    ``start``) where its roots are heading, at ``2*V_t - V_(t-1)`` from
    the last two measured outputs, written over the older ones, which are
    dead by then; the second starts at the first's outputs.  On ex3 the
    extrapolated start is 40 to 100 times closer to the new root than the
    last output.  Starts lie on either side of the new roots; a warm lane
    takes at most 6 Newton steps, and the results depend on the start at
    rounding level only.
    An incremental pass solves every pair cold and moves the parameters
    after every pair, so the measurement after it starts cold too.
    """
    check_dataset(net, data)
    net = net.copy()
    X, Y = data.inputs, data.targets
    adapt_p = cfg.alpha_p > 0 and any(pk is not None for pk in net.p_values)
    track_p = any(pk is not None for pk in net.p_values)
    labels = _p_labels(net) if track_p else None
    batch = cfg.update == "batch"

    errors: list[float] = []
    p_rows: list[np.ndarray] = []
    trace = start = None  # the last measurement, and the next one's start
    with np.errstate(over="raise", invalid="raise"):
        try:
            for it in range(cfg.max_iters):
                if batch:  # from the last measurement, or in iteration 1 from a cold pass
                    _apply_batch_pass(net, trace or forward_batch(net, X, cfg.inner_iters), Y, cfg, adapt_p)
                else:
                    _apply_incremental_pass(net, X, Y, cfg, adapt_p)
                if not all(np.all(np.isfinite(W)) for W in net.weights):
                    raise TrainingDivergedError(f"non-finite weight after iteration {it + 1}")
                newer = forward_batch(net, X, cfg.inner_iters, start=start)
                if batch:
                    start = _warm_start(net, newer.outputs, None if trace is None else trace.outputs)
                trace = newer
                e = mse(trace.outputs[-1], Y)
                if not np.isfinite(e):
                    raise TrainingDivergedError(f"non-finite training error after iteration {it + 1}")
                errors.append(e)
                if track_p:
                    p_rows.append(_p_snapshot(net))
                if e < cfg.max_error:
                    break
        except (OverflowError, FloatingPointError) as exc:  # Python floats raise one, numpy the other here
            raise TrainingDivergedError(f"overflow or invalid value after iteration {it + 1}") from exc

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
