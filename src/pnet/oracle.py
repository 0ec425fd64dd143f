"""Independent reference routines for cross-checking activations and gradients.

Roots of the activation residual come from interval bisection; derivatives
come from central finite differences.  Nothing here reuses the production
fixed-point iteration or the analytic backpropagation, so tests that compare
the two routes measure real deviations instead of shared bugs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .activation import ActivationParams

__all__ = [
    "BracketError",
    "BracketingInterval",
    "GradientCheckReport",
    "bisect_activation",
    "bisect_root",
    "check_network_gradients",
    "finite_diff",
    "random_check_case",
    "rel_err",
]


class BracketError(ValueError):
    """The function does not change sign over the supplied interval."""


@dataclass(frozen=True)
class BracketingInterval:
    """Closed interval expected to bracket a sign change of a function."""

    lo: float
    hi: float
    tol: float = 1e-12
    max_steps: int = 1200

    def __post_init__(self) -> None:
        if not (self.lo <= self.hi):
            raise ValueError(f"need lo <= hi, got [{self.lo}, {self.hi}]")
        if not (self.tol >= 1e-14):
            raise ValueError(f"tol must be >= 1e-14, got {self.tol}")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


def _bisect_core(f, lo: float, hi: float, tol: float, max_steps: int) -> float:
    """Bisection on ``f`` over [lo, hi].

    Stops when ``|f(mid)| <= tol`` or when the bracket can no longer shrink
    in float64, returning the midpoint either way; steep functions therefore
    resolve the root to the last representable bit even when the residual
    tolerance itself is unreachable at that scale.  ``tol = 0`` disables the
    residual stop entirely and always runs to float resolution.
    """
    r_lo = f(lo)
    r_hi = f(hi)
    if r_lo == 0.0 or abs(r_lo) <= tol:
        return lo
    if r_hi == 0.0 or abs(r_hi) <= tol:
        return hi
    if (r_lo > 0.0) == (r_hi > 0.0):
        raise BracketError(f"no sign change on [{lo}, {hi}]: f(lo)={r_lo}, f(hi)={r_hi}")
    neg_lo = r_lo < 0.0
    mid = 0.5 * (lo + hi)
    for _ in range(max_steps):
        r_mid = f(mid)
        if abs(r_mid) <= tol:
            return mid
        if (r_mid < 0.0) == neg_lo:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
    return mid


def _bisect(f, interval: BracketingInterval) -> float:
    """Bisection on ``f`` over a validated `BracketingInterval`."""
    return _bisect_core(f, float(interval.lo), float(interval.hi), interval.tol, interval.max_steps)


def _residual_raw(a: float, v: float, p: float, lam: float) -> float:
    """Activation residual on plain floats (fast path for bisection loops).

    Python float exponentiation raises OverflowError instead of returning
    inf; for large p the power term overflows already at |v| slightly
    above 1, where the regularization term dominates the residual, so its
    sign is the sign of v (or the linear part when lam is zero).
    """
    if v == 0.0:
        return -a
    s = 1.0 if v > 0.0 else -1.0
    try:
        reg = lam * p * abs(v) ** (p - 1.0) * s
    except OverflowError:
        if lam == 0.0:
            return v - a
        return math.inf * s
    return reg + (v - a)


def bisect_root(
    a: float, p: float, lam: float, tol: float | None = 1e-12, max_steps: int = 1200
) -> float:
    """Bisection root of the activation residual, on raw parameter floats.

    Accepts any p > 1 and lam >= 0 without constructing ActivationParams,
    which finite-difference probes need when stepping p slightly outside the
    trainable range.  Bracket is [0, a] (mirrored for negative a) since the
    root always lies between 0 and a.  ``tol=None`` bisects all the way to
    float resolution — required when differencing two roots whose separation
    is far below any residual tolerance.
    """
    a = float(a)
    if not (math.isfinite(a) and math.isfinite(p) and math.isfinite(lam)):
        raise ValueError("inputs must be finite")
    if p <= 1.0 or lam < 0.0:
        raise ValueError(f"need p > 1 and lam >= 0, got p={p}, lam={lam}")
    if a == 0.0 or lam == 0.0:
        return a

    def f(v: float) -> float:
        return _residual_raw(a, v, p, lam)

    lo, hi = (0.0, a) if a > 0.0 else (a, 0.0)
    if tol is None:
        return _bisect_core(f, lo, hi, 0.0, max_steps)
    return _bisect(f, BracketingInterval(lo, hi, tol=tol, max_steps=max_steps))


def bisect_activation(a: float, params: ActivationParams, tol: float = 1e-12) -> float:
    """Reference activation value: the bisection root of the residual."""
    return bisect_root(a, params.p, params.lam, tol=tol)


def finite_diff(f, x: float, h: float | None = None) -> float:
    """Central difference (f(x+h) - f(x-h)) / (2h), default h = max(1e-6, 1e-6*|x|)."""
    x = float(x)
    if h is None:
        h = max(1e-6, 1e-6 * abs(x))
    if not h > 0.0:
        raise ValueError(f"h must be positive, got {h}")
    return (f(x + h) - f(x - h)) / (2.0 * h)


# Floor for relative-error denominators, so near-zero reference values are
# compared on an absolute scale instead of dividing by ~0.
REL_ERR_FLOOR = 1e-8


def rel_err(analytic: float, numeric: float) -> float:
    """|analytic - numeric| / max(|analytic|, |numeric|, REL_ERR_FLOOR)."""
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), REL_ERR_FLOOR)


@dataclass
class GradientCheckReport:
    """Worst-case relative errors of analytic gradients vs finite differences."""

    weight_error: float
    p_error: float | None

    def passed(self, tol: float) -> bool:
        ok = self.weight_error <= tol
        if self.p_error is not None:
            ok = ok and self.p_error <= tol
        return ok

    def summary(self, tol: float) -> str:
        lines = [
            f"weights: max relative error {self.weight_error:.3e} "
            f"{'PASS' if self.weight_error <= tol else 'FAIL'} (tol {tol:g})"
        ]
        if self.p_error is not None:
            lines.append(
                f"p:       max relative error {self.p_error:.3e} "
                f"{'PASS' if self.p_error <= tol else 'FAIL'} (tol {tol:g})"
            )
        return "\n".join(lines)


def _loss_and_grads(net, X, Y, inner_iters):
    """Analytic gradients plus the scalar loss finite differences should probe.

    Regression nets expose the training error itself.  Softmax-head nets
    train with a diagonal output delta rather than the full softmax Jacobian,
    so the matching scalar freezes that delta at the base point:
    loss(theta) = mean_d sum_j c_dj * a_dj(theta).  The gradient of that
    frozen-delta loss is exactly what the production backprop computes;
    the loss recomputes a from the probed pass's outputs and weights.
    """
    from . import network as nw
    from . import training as tr

    trace = nw.forward_batch(net, X, inner_iters)
    wg, pg = tr.backprop_batch(net, trace, Y)

    def fresh_trace(mod):
        return nw.forward_batch(mod, X, inner_iters)

    if net.head == "classification":
        yhat = trace.outputs[-1]
        frozen = (yhat - Y) * yhat * (1.0 - yhat)

        def loss(mod) -> float:
            V, W = fresh_trace(mod).outputs, mod.weights[-1]
            return float(np.sum(frozen * (V[-2] @ W[:, 1:].T + W[:, 0])) / X.shape[0])

    else:

        def loss(mod) -> float:
            return float(tr.mse(fresh_trace(mod).outputs[-1], Y))

    return wg, pg, loss


def check_network_gradients(
    net, batch, h: float | None = None, inner_iters: int = 200, corrupt: float = 0.0
) -> GradientCheckReport:
    """Compare backpropagated gradients against central finite differences.

    ``batch`` is any object with ``inputs`` (N x r0) and ``targets`` (N x rm)
    arrays.  Every weight and every trainable shape exponent is perturbed
    individually with step ``max(1e-6, 1e-6*|x|)`` unless ``h`` is given;
    the result holds the worst relative error per parameter class.

    ``corrupt`` is a self-test hook: it is added to one analytic weight
    gradient before the comparison, so any nonzero value must make the
    check fail and prove the harness can detect a wrong gradient.
    """
    if h is not None and not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"h must be finite and > 0, got {h}")
    X = np.asarray(batch.inputs, dtype=float)
    Y = np.asarray(batch.targets, dtype=float)
    work = net.copy()
    wg, pg, loss = _loss_and_grads(work, X, Y, inner_iters)
    if corrupt != 0.0:
        wg = [g.copy() for g in wg]
        wg[0][0, 0] += corrupt

    def fd_at(container, idx, x0):
        hk = h if h is not None else max(1e-6, 1e-6 * abs(x0))
        container[idx] = x0 + hk
        up = loss(work)
        container[idx] = x0 - hk
        dn = loss(work)
        container[idx] = x0
        return (up - dn) / (2.0 * hk)

    worst_w = 0.0
    for k, grad in enumerate(wg):
        W = work.weights[k]
        for idx in np.ndindex(W.shape):
            worst_w = max(worst_w, rel_err(grad[idx], fd_at(W, idx, W[idx])))

    worst_p = None
    if any(grad is not None for grad in pg):
        vals = [0.0]
        for k, grad in enumerate(pg):
            if grad is None:
                continue
            P = work.p_values[k]
            for j in range(P.shape[0]):
                vals.append(rel_err(grad[j], fd_at(P, j, P[j])))
        worst_p = max(vals)
    return GradientCheckReport(weight_error=worst_w, p_error=worst_p)


def random_check_case(layer_sizes, head: str, seed: int, n_samples: int = 5):
    """Deterministic random inputs/targets for a gradient-check run."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n_samples, layer_sizes[0]))
    if head == "classification":
        labels = rng.integers(0, layer_sizes[-1], size=n_samples)
        Y = np.zeros((n_samples, layer_sizes[-1]))
        Y[np.arange(n_samples), labels] = 1.0
    else:
        Y = rng.standard_normal((n_samples, layer_sizes[-1]))
    return X, Y
