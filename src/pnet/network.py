"""Network structure and forward evaluation.

A `PNetwork` is a fully connected feedforward net.  Each layer is a weight
matrix plus an activation kind (`pnet.activation.ACTIVATION_KINDS`):
``implicit`` layers apply the implicit consensus activation with a
per-neuron shape exponent p; the fixed kinds (saturating linear,
hyperbolic tangent sigmoid, identity, softmax) carry no p.  Biases are
stored as weight column 0 against a fixed virtual input of 1, so one
matrix per layer carries everything and the gradient formulas stay
uniform.  A classification head ends in a softmax layer, and no other
head does.

`init_network` builds the implicit-activation nets the paper trains;
`nguyen_widrow_init` builds the fixed-activation baselines they are
compared against.  For equal sizes and seed both draw the same
Nguyen-Widrow weights, so two variants differ only in activation kinds,
lambda and p.  Both run through the same forward pass, training loop
and model format.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .activation import ACTIVATION_KINDS, P_MAX, P_MIN, evaluate_many, fixed_eval, softmax
from .data import TASKS

__all__ = [
    "HEADS",
    "PNetwork",
    "ForwardTrace",
    "init_network",
    "nguyen_widrow_init",
    "forward_batch",
    "predict",
    "softmax",
    "save_network",
    "load_network",
]

HEADS = TASKS  # a net's head is the task of the data it trains on


@dataclass
class PNetwork:
    """Layer sizes, weights (bias = column 0), per-layer activation kinds,
    per-neuron p, and head kind.

    ``p_values[k]`` is an array of one p per neuron exactly where
    ``activations[k]`` is ``"implicit"``, and None elsewhere.  ``lam`` is
    the regularization weight of the implicit layers.
    """

    layer_sizes: list[int]
    weights: list[np.ndarray]
    activations: list[str]
    p_values: list[np.ndarray | None]
    lam: float
    head: str

    def validate(self) -> None:
        sizes = _whole_sizes(self.layer_sizes)
        if self.head not in HEADS:
            raise ValueError(f"head must be one of {HEADS}, got {self.head!r}")
        if not (np.isfinite(self.lam) and self.lam >= 0.0):
            raise ValueError(f"lambda must be finite and >= 0, got {self.lam}")
        m = len(sizes) - 1
        if not len(self.weights) == len(self.activations) == len(self.p_values) == m:
            raise ValueError("need one weight matrix, activation kind and p entry per layer")
        for k in range(m):
            want = (sizes[k + 1], sizes[k] + 1)
            if self.weights[k].shape != want:
                raise ValueError(f"layer {k + 1}: weight shape {self.weights[k].shape}, expected {want}")
            if not np.all(np.isfinite(self.weights[k])):
                raise ValueError(f"layer {k + 1}: weights must be finite")
            kind = self.activations[k]
            if kind not in ACTIVATION_KINDS:
                raise ValueError(f"layer {k + 1}: unknown activation {kind!r}")
            if kind == "softmax" and k != m - 1:
                raise ValueError("softmax is only valid on the output layer")
            pk = self.p_values[k]
            if kind != "implicit":
                if pk is not None:
                    raise ValueError(f"layer {k + 1}: a {kind} layer must not carry p values")
            elif pk is None or pk.shape != (sizes[k + 1],):
                raise ValueError(f"layer {k + 1}: p vector missing or misshaped")
            elif not np.all((pk >= P_MIN) & (pk <= P_MAX)):  # NaN fails both
                raise ValueError(f"layer {k + 1}: p must lie in [{P_MIN}, {P_MAX}], got {pk.min()}..{pk.max()}")
        if (self.head == "classification") != (self.activations[-1] == "softmax"):
            raise ValueError("the output layer must be softmax exactly when the head is classification")

    @property
    def n_layers(self) -> int:
        return len(self.layer_sizes) - 1

    def copy(self) -> "PNetwork":
        return PNetwork(
            layer_sizes=list(self.layer_sizes),
            weights=[W.copy() for W in self.weights],
            activations=list(self.activations),
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
    Derivative terms are not cached: backpropagation reads only the
    outputs and forms every slope from them (`derivative_terms`,
    `fixed_deriv`), so a forward pass that is never backpropagated does
    not pay for them.  ``activations`` is kept only for the benchmark's
    solver check.
    """

    activations: list[np.ndarray] = field(default_factory=list)
    outputs: list[np.ndarray] = field(default_factory=list)


def _whole_sizes(layer_sizes) -> list[int]:
    """Layer sizes as ints, checked before any constructor indexes them.

    A non-integral or boolean size raises instead of truncating; so do
    fewer than two sizes and a size below 1.
    """
    sizes = list(layer_sizes)
    if any(isinstance(r, (bool, np.bool_)) or int(r) != r for r in sizes):
        raise ValueError(f"layer_sizes must be whole numbers, got {sizes}")
    sizes = [int(r) for r in sizes]
    if len(sizes) < 2 or min(sizes) < 1:
        raise ValueError(f"layer_sizes must be >= 2 positive integers, got {sizes}")
    return sizes


def _nguyen_widrow_weights(sizes: list[int], seed: int) -> list[np.ndarray]:
    """Nguyen-Widrow weights (Nguyen & Widrow 1990), bias as column 0.

    Per layer with fan-in n and h neurons, weight rows drawn uniform in
    [-1, 1] are rescaled to magnitude beta = 0.7 * h**(1/n), and biases
    are spread uniformly over [-beta, beta] with alternating sign (a
    single neuron gets bias 0).
    """
    rng = np.random.default_rng(seed)
    weights = []
    for n, h in zip(sizes[:-1], sizes[1:]):
        beta = 0.7 * h ** (1.0 / n)
        W = rng.uniform(-1.0, 1.0, size=(h, n))
        W *= beta / np.linalg.norm(W, axis=1, keepdims=True)
        if h == 1:
            b = np.zeros(1)
        else:
            b = beta * np.linspace(-1.0, 1.0, h) * (-1.0) ** np.arange(h)
        weights.append(np.concatenate([b[:, None], W], axis=1))
    return weights


def init_network(
    layer_sizes,
    head: str,
    lam: float,
    initial_p: float,
    seed: int,
    initial_p_output: float | None = None,
) -> PNetwork:
    """An implicit-activation net with Nguyen-Widrow weights and uniform p.

    The weights are those `nguyen_widrow_init` draws for the same sizes
    and seed.  ``initial_p_output`` overrides the output layer's p on
    regression nets (configs may start hidden and output layers at
    different exponents); a classification net's softmax output has no
    p, so it must be None there.
    """
    if head == "classification" and initial_p_output is not None:
        raise ValueError(f"initial_p_output must be None on a classification head, got {initial_p_output}")
    sizes = _whole_sizes(layer_sizes)
    m = len(sizes) - 1
    kinds = ["implicit"] * m
    p_values: list[np.ndarray | None] = [np.full(sizes[k + 1], float(initial_p)) for k in range(m)]
    if head == "classification":
        kinds[-1] = "softmax"
        p_values[-1] = None
    elif initial_p_output is not None:
        p_values[-1] = np.full(sizes[-1], float(initial_p_output))
    weights = _nguyen_widrow_weights(sizes, seed)
    net = PNetwork(
        layer_sizes=sizes, weights=weights, activations=kinds, p_values=p_values, lam=float(lam), head=head
    )
    net.validate()
    return net


def nguyen_widrow_init(
    layer_sizes,
    head: str,
    seed: int,
    hidden_kind: str | None = None,
    output_kind: str | None = None,
) -> PNetwork:
    """A fixed-activation baseline net with Nguyen-Widrow weights.

    The kinds default to satlins/purelin on a regression head and
    tansig/softmax on a classification head.
    """
    sizes = _whole_sizes(layer_sizes)
    m = len(sizes) - 1
    if hidden_kind is None:
        hidden_kind = "satlins" if head == "regression" else "tansig"
    if output_kind is None:
        output_kind = "purelin" if head == "regression" else "softmax"
    kinds = [hidden_kind] * (m - 1) + [output_kind]
    weights = _nguyen_widrow_weights(sizes, seed)
    net = PNetwork(layer_sizes=sizes, weights=weights, activations=kinds, p_values=[None] * m, lam=0.0, head=head)
    net.validate()
    return net


def forward_batch(
    net: PNetwork, X: np.ndarray, inner_iters: int = 100, start: list[np.ndarray] | None = None
) -> ForwardTrace:
    """Evaluate the network on an N x r0 batch, caching the full trace.

    ``inner_iters`` is the Newton step budget of the implicit layers.
    ``start`` optionally warm-starts them: a list of outputs laid out as
    a trace's, over the same rows, whose entries serve as the implicit
    layers' ``v0`` in `evaluate_many`; typically those of the same net a
    small parameter step ago (batch training extrapolates its last two).
    Warm starts may lie on either side of the root and take at most 6
    steps per lane; the outputs then depend on ``start`` at rounding
    level only.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != net.layer_sizes[0]:
        raise ValueError(f"input batch must be N x {net.layer_sizes[0]}, got {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("input batch must be finite")
    if start is not None:
        shapes = [np.shape(V) for V in start[1:]]
        want = [(X.shape[0], r) for r in net.layer_sizes[1:]]
        if shapes != want:
            raise ValueError(f"start has output shapes {shapes}, expected {want}")
    trace = ForwardTrace(outputs=[X])
    V = X
    for k, kind in enumerate(net.activations):
        W = net.weights[k]
        A = V @ W[:, 1:].T + W[:, 0]
        trace.activations.append(A)
        if kind == "implicit":
            v0 = None if start is None else start[k + 1]
            V = evaluate_many(A, net.p_values[k][None, :], net.lam, inner_iters, v0)
        else:
            V = fixed_eval(kind, A)
        trace.outputs.append(V)
    return trace


def predict(net: PNetwork, x, inner_iters: int = 100) -> np.ndarray:
    """Network output: a vector for a 1-d input, a batch for a 2-d input."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return forward_batch(net, x[None, :], inner_iters).outputs[-1][0]
    return forward_batch(net, x, inner_iters).outputs[-1]


# --- serialization -------------------------------------------------------
#
# Versioned plain-text format, one value stream per line, floats printed
# with 17 significant digits so a save/load round-trip is bit-exact.  A net
# with implicit layers is written as
#
#   pnetwork 1
#   head regression
#   lambda 1
#   layer_sizes 1 5 3 1
#   layer 1
#   p <r_1 values>            (or "p <kind>" on a layer of a fixed kind,
#                              e.g. "p softmax" on a classification output)
#   w <r_0 + 1 values>        (r_1 rows, bias first)
#   ...
#   end
#
# and a net of fixed kinds only uses the same layout with tag "baseline",
# no "lambda" line, and an "activation <kind>" line in place of "p".


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

    def next(self, expect: str | None = None, count: int | None = None) -> list[str]:
        """The fields of the next non-blank line: keyword ``expect``, then ``count`` values."""
        while self.pos < len(self.lines) and not self.lines[self.pos].strip():
            self.pos += 1
        if self.pos >= len(self.lines):
            raise ModelFormatError(f"{self.path}: unexpected end of file (wanted {expect or 'a line'})")
        fields = self.lines[self.pos].split()
        self.pos += 1
        if expect is not None and fields[0] != expect:
            raise ModelFormatError(f"{self.path} line {self.pos}: expected '{expect}', got '{fields[0]}'")
        if count is not None and len(fields) != count + 1:
            raise self.bad_line()
        return fields

    def bad_line(self) -> ModelFormatError:
        return ModelFormatError(f"{self.path} line {self.pos}: cannot read {self.lines[self.pos - 1].strip()!r}")

    def floats(self, fields: list[str], n: int, what: str) -> np.ndarray:
        if len(fields) != n:
            raise ModelFormatError(f"{self.path} line {self.pos}: {what} needs {n} values, got {len(fields)}")
        try:
            return np.array([float(v) for v in fields])
        except ValueError as exc:
            raise ModelFormatError(f"{self.path} line {self.pos}: bad number in {what}: {exc}") from exc


def save_network(net: PNetwork, path: str) -> None:
    """Write a net as ``pnetwork 1`` if it has implicit layers, else ``baseline 1``."""
    net.validate()
    implicit = "implicit" in net.activations
    lines = ["pnetwork 1" if implicit else "baseline 1", f"head {net.head}"]
    if implicit:
        lines.append(f"lambda {fmt_float(net.lam)}")
    lines.append("layer_sizes " + " ".join(str(r) for r in net.layer_sizes))
    for k, kind in enumerate(net.activations):
        lines.append(f"layer {k + 1}")
        if not implicit:
            lines.append(f"activation {kind}")
        elif kind == "implicit":
            lines.append("p " + _fmt_row(net.p_values[k]))
        else:
            lines.append(f"p {kind}")
        for row in net.weights[k]:
            lines.append("w " + _fmt_row(row))
    lines.append("end")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_network(path: str) -> PNetwork:
    """Load a model saved in either the ``pnetwork 1`` or ``baseline 1`` format.

    A line that does not parse raises `ModelFormatError` naming the file
    and line.  So does a version other than 1, a ``layer`` line whose
    index is not its place in the file, a ``head``, ``lambda``, ``layer``
    or ``activation`` line without exactly one value, and an ``end`` line
    with any.  A net that parses but breaks a `PNetwork.validate` rule
    raises its ValueError.
    """
    r = _LineReader(path)
    tag = r.next(count=1)
    if tag not in (["pnetwork", "1"], ["baseline", "1"]):
        raise r.bad_line()
    implicit = tag[0] == "pnetwork"
    try:
        head = r.next("head", 1)[1]
        lam = float(r.next("lambda", 1)[1]) if implicit else 0.0
        sizes = [int(v) for v in r.next("layer_sizes")[1:]]
        weights, kinds = [], []
        p_values: list[np.ndarray | None] = []
        for k in range(len(sizes) - 1):
            if r.next("layer", 1)[1] != str(k + 1):
                raise r.bad_line()
            if implicit:
                pf = r.next("p")[1:]
                kind = pf[0] if len(pf) == 1 and pf[0] in ACTIVATION_KINDS else "implicit"
                p_values.append(r.floats(pf, sizes[k + 1], "p") if kind == "implicit" else None)
            else:
                kind = r.next("activation", 1)[1]
                p_values.append(None)
            kinds.append(kind)
            rows = [r.floats(r.next("w")[1:], sizes[k] + 1, "weights") for _ in range(sizes[k + 1])]
            weights.append(np.array(rows))
    except ModelFormatError:
        raise
    except ValueError as exc:  # a value that is not a number
        raise r.bad_line() from exc
    r.next("end", 0)
    net = PNetwork(layer_sizes=sizes, weights=weights, activations=kinds, p_values=p_values, lam=lam, head=head)
    net.validate()
    return net
