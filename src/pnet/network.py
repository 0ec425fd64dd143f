"""Network structure and forward evaluation.

A `PNetwork` is a fully connected feedforward net whose neurons apply the
implicit consensus activation with a per-neuron shape exponent p.  Biases
are stored as weight column 0 against a fixed virtual input of 1, so one
matrix per layer carries everything and the gradient formulas stay uniform.
A classification head replaces the last layer's activation with a softmax
over the pre-activations; that layer then has no p values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .activation import P_MAX, P_MIN, evaluate_many

__all__ = [
    "HEADS",
    "PNetwork",
    "ForwardTrace",
    "init_network",
    "forward",
    "forward_batch",
    "predict",
    "softmax",
    "save_network",
    "load_network",
]

HEADS = ("regression", "classification")


@dataclass
class PNetwork:
    """Layer sizes, weights (bias = column 0), per-neuron p, and head kind."""

    layer_sizes: list[int]
    weights: list[np.ndarray]
    p_values: list[np.ndarray | None]
    lam: float
    head: str

    def validate(self) -> None:
        sizes = self.layer_sizes
        if len(sizes) < 2 or any(int(r) != r or r < 1 for r in sizes):
            raise ValueError(f"layer_sizes must be >= 2 positive integers, got {sizes}")
        if self.head not in HEADS:
            raise ValueError(f"head must be one of {HEADS}, got {self.head!r}")
        if not (np.isfinite(self.lam) and self.lam >= 0.0):
            raise ValueError(f"lambda must be finite and >= 0, got {self.lam}")
        m = len(sizes) - 1
        if len(self.weights) != m or len(self.p_values) != m:
            raise ValueError("need one weight matrix and one p vector per layer")
        for k in range(m):
            want = (sizes[k + 1], sizes[k] + 1)
            if self.weights[k].shape != want:
                raise ValueError(f"layer {k + 1}: weight shape {self.weights[k].shape}, expected {want}")
            pk = self.p_values[k]
            is_last = k == m - 1
            if self.head == "classification" and is_last:
                if pk is not None:
                    raise ValueError("softmax output layer must not carry p values")
            else:
                if pk is None or pk.shape != (sizes[k + 1],):
                    raise ValueError(f"layer {k + 1}: p vector missing or misshaped")
                if np.any(pk < P_MIN) or np.any(pk > P_MAX):
                    raise ValueError(f"layer {k + 1}: p outside [{P_MIN}, {P_MAX}]")

    @property
    def n_layers(self) -> int:
        return len(self.layer_sizes) - 1

    def copy(self) -> "PNetwork":
        return PNetwork(
            layer_sizes=list(self.layer_sizes),
            weights=[W.copy() for W in self.weights],
            p_values=[None if p is None else p.copy() for p in self.p_values],
            lam=self.lam,
            head=self.head,
        )


@dataclass
class ForwardTrace:
    """Per-layer pre-activations and outputs cached by a forward pass.

    ``activations[k]`` holds a^{k+1} and ``outputs[k+1]`` holds v^{k+1},
    with ``outputs[0]`` the input batch itself; all arrays are N x r.
    The implicit bias input v_0 = 1 is applied at use sites, not stored.
    Derivative terms are not cached: backpropagation forms them from the
    outputs (`pnet.activation.derivative_terms`), so a forward pass that
    is never backpropagated does not pay for them.
    """

    activations: list[np.ndarray] = field(default_factory=list)
    outputs: list[np.ndarray] = field(default_factory=list)


def init_network(
    layer_sizes,
    head: str,
    lam: float,
    initial_p: float,
    seed: int,
    initial_p_output: float | None = None,
) -> PNetwork:
    """Standard-normal weights/biases from a seeded generator, uniform p.

    ``initial_p_output`` overrides the output layer's p on regression nets
    (configs may start hidden and output layers at different exponents).
    """
    sizes = [int(r) for r in layer_sizes]
    m = len(sizes) - 1
    rng = np.random.default_rng(seed)
    weights = [rng.standard_normal((sizes[k + 1], sizes[k] + 1)) for k in range(m)]
    p_values: list[np.ndarray | None] = [np.full(sizes[k + 1], float(initial_p)) for k in range(m)]
    if head == "classification":
        p_values[-1] = None
    elif initial_p_output is not None:
        p_values[-1] = np.full(sizes[-1], float(initial_p_output))
    net = PNetwork(layer_sizes=sizes, weights=weights, p_values=p_values, lam=float(lam), head=head)
    net.validate()
    return net


def softmax(a: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by subtracting the row max."""
    z = np.exp(a - np.max(a, axis=-1, keepdims=True))
    return z / np.sum(z, axis=-1, keepdims=True)


def forward_batch(net: PNetwork, X: np.ndarray, inner_iters: int = 100) -> ForwardTrace:
    """Evaluate the network on an N x r0 batch, caching the full trace."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != net.layer_sizes[0]:
        raise ValueError(f"input batch must be N x {net.layer_sizes[0]}, got {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("input batch must be finite")
    trace = ForwardTrace(outputs=[X])
    V = X
    m = net.n_layers
    for k in range(m):
        W = net.weights[k]
        A = V @ W[:, 1:].T + W[:, 0]
        trace.activations.append(A)
        if net.head == "classification" and k == m - 1:
            V = softmax(A)
        else:
            V = evaluate_many(A, net.p_values[k][None, :], net.lam, inner_iters)
        trace.outputs.append(V)
    return trace


def forward(net: PNetwork, x, inner_iters: int = 100) -> ForwardTrace:
    """Evaluate one input vector; returns a trace with single-row arrays."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"forward expects a 1-d input vector, got shape {x.shape}")
    return forward_batch(net, x[None, :], inner_iters)


def predict(net: PNetwork, x, inner_iters: int = 100) -> np.ndarray:
    """Network output: a vector for a 1-d input, a batch for a 2-d input."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return forward(net, x, inner_iters).outputs[-1][0]
    return forward_batch(net, x, inner_iters).outputs[-1]


# --- serialization -------------------------------------------------------
#
# Versioned plain-text format, one value stream per line, floats printed
# with 17 significant digits so a save/load round-trip is bit-exact:
#
#   pnetwork 1
#   head regression
#   lambda 1
#   layer_sizes 1 5 3 1
#   layer 1
#   p <r_1 values>            (or "p softmax" on a classification output)
#   w <r_0 + 1 values>        (r_1 rows, bias first)
#   ...
#   end
#
# Baseline networks use the same layout with tag "baseline" and an
# "activation <kind>" line in place of "p" (see the baseline module).


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_row(values) -> str:
    return " ".join(fmt_float(v) for v in values)


class ModelFormatError(ValueError):
    """Raised when a model file does not match the expected layout."""


class _LineReader:
    def __init__(self, path: str):
        with open(path, "r", encoding="utf-8") as fh:
            self.lines = fh.read().splitlines()
        self.pos = 0
        self.path = path

    def next(self, expect: str | None = None) -> list[str]:
        while self.pos < len(self.lines) and not self.lines[self.pos].strip():
            self.pos += 1
        if self.pos >= len(self.lines):
            raise ModelFormatError(f"{self.path}: unexpected end of file (wanted {expect or 'a line'})")
        fields = self.lines[self.pos].split()
        self.pos += 1
        if expect is not None and fields[0] != expect:
            raise ModelFormatError(f"{self.path} line {self.pos}: expected '{expect}', got '{fields[0]}'")
        return fields

    def floats(self, fields: list[str], n: int, what: str) -> np.ndarray:
        if len(fields) != n:
            raise ModelFormatError(f"{self.path} line {self.pos}: {what} needs {n} values, got {len(fields)}")
        try:
            return np.array([float(v) for v in fields])
        except ValueError as exc:
            raise ModelFormatError(f"{self.path} line {self.pos}: bad number in {what}: {exc}") from exc


def save_network(net: PNetwork, path: str) -> None:
    net.validate()
    lines = [
        "pnetwork 1",
        f"head {net.head}",
        f"lambda {fmt_float(net.lam)}",
        "layer_sizes " + " ".join(str(r) for r in net.layer_sizes),
    ]
    for k in range(net.n_layers):
        lines.append(f"layer {k + 1}")
        pk = net.p_values[k]
        lines.append("p softmax" if pk is None else "p " + _fmt_row(pk))
        for row in net.weights[k]:
            lines.append("w " + _fmt_row(row))
    lines.append("end")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _load_pnetwork(r: _LineReader) -> PNetwork:
    head = r.next("head")[1]
    lam = float(r.next("lambda")[1])
    sizes = [int(v) for v in r.next("layer_sizes")[1:]]
    weights = []
    p_values: list[np.ndarray | None] = []
    for k in range(len(sizes) - 1):
        r.next("layer")
        pf = r.next("p")
        if pf[1:] == ["softmax"]:
            p_values.append(None)
        else:
            p_values.append(r.floats(pf[1:], sizes[k + 1], "p"))
        rows = [r.floats(r.next("w")[1:], sizes[k] + 1, "weights") for _ in range(sizes[k + 1])]
        weights.append(np.array(rows))
    r.next("end")
    net = PNetwork(layer_sizes=sizes, weights=weights, p_values=p_values, lam=lam, head=head)
    net.validate()
    return net


def load_network(path: str):
    """Load a saved model; returns a `PNetwork` or a baseline network."""
    r = _LineReader(path)
    tag = r.next()
    if tag[0] == "pnetwork":
        return _load_pnetwork(r)
    if tag[0] == "baseline":
        from .baseline import _load_baseline

        return _load_baseline(r)
    raise ModelFormatError(f"{path}: unknown model tag {tag[0]!r}")
