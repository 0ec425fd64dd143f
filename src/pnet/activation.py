"""Implicit consensus activation: evaluation and partial derivatives.

The activation output ``v`` for a pre-activation input ``a`` is the unique
root of

    R(a, v) = lam * p * |v|**(p-1) * sign(v) + (v - a) = 0,

the proximal map of ``lam*|v|**p`` (Parikh & Boyd 2014, *Proximal
Algorithms*): an odd, strictly increasing map with ``|v| <= |a|``.  For
``p == 2`` the root has the closed form ``v = a / (1 + 2*lam)``.

Every lane is solved by one monotone Newton iteration (`evaluate_many`).
With ``x = |a|`` the root's magnitude solves ``d*y + k*y**n = x`` in a
variable ``y`` chosen so that the power term is convex:

* ``p > 2``: ``y = |v|``, ``n = p - 1``, ``d = 1``, ``k = lam*p``;
* ``p <= 2``: ``y = |v|**(p-1)``, ``n = 1/(p-1)``, ``d = lam*p``, ``k = 1``.

The residual is then convex and increasing in ``y``, so Newton started
above the root decreases monotonically onto it and never leaves the
bracket ``[0, x/d]``.  A step costs one power: with ``u = k*y**(n-1)``,
``y <- (x + (n-1)*u*y) / (d + n*u)``.  At ``p = 2`` (``n = 1``) the first
step is the closed form.

The start is the tightest of three upper bounds.  The normalized root
``s = d*y/x`` solves ``s + K*s**n = 1`` with ``K = k*x**(n-1)/d**n``, so
``s <= 1``, ``s <= K**(-1/n)`` and, because ``1 - exp(-t) <= t``,
``s <= exp(-W(n*K)/n)`` with ``W`` Lambert's function.  The lower bound
``W(z) >= L - log(1 + L)`` holds for ``L = log(1 + z)``, hence for the
smaller ``L = max(log z, 0)`` used here, and keeps the third bound an
upper bound.  In ``y`` the first two are ``min(x, (x/(lam*p))**(1/(p-1)))``
for ``p > 2``.  The third places the start in Newton's quadratic basin
where the power term is extreme (``p`` near 1.01 or 1e4), where the first
two alone cost up to a dozen slow steps.

A lane freezes once its relative step ``rho`` satisfies
``(n-1)*rho**2 <= eps`` (machine epsilon): by convexity the error left
after that step is about ``(n-1)/2*rho**2`` relative, i.e. at rounding
level.  Over ``p`` in [1.01, 1e4], ``|a|`` in [1e-300, 1e300] and ``lam``
in [1e-10, 10] every lane freezes within 5 steps; for ``|a|`` in
[1e-8, 1e4] it agrees with the exact root to `EXIT_TOL` relative.

A warm start ``v0`` (a nearby earlier root, say) may lie on either side
of the root; the lane starts at the smaller of ``|v0|`` (in ``y``) and
the trivial bound ``x/d``, and a NaN ``v0`` starts at ``x/d``.  The cold
bound is not formed up front: the first step decides which lanes need
it.  Newton's first step from below the root lands above it, because
the residual is convex and increasing, so that step cannot count as
convergence.  A lane is *far* when its first relative step
``rho = |y - y_new| / min(y, y_new)`` has ``(n-1)*rho > 1/2``, or is not
finite: it started below the root by a wide margin, or above it in
Newton's slow phase, where each step shrinks ``y`` by about ``1/n``.
Only the far lanes compute the cold bound, gathered, and continue from no
higher than it; from there the iteration is the cold one, so a warm lane
takes at most one step more than a cold lane (6).  A near lane is in
Newton's quadratic basin and continues from its first step.  Starts
within 1e-6 of a root that does not underflow never compute the bound,
and most warm lanes of batch training freeze after two steps.  The root
is the same, but the path to it is not, so outputs depend on ``v0`` at
rounding level.

Lanes converge at different rates, above all when each neuron has its
own ``p``.  `evaluate_many` therefore steps the full array only while
most lanes still move; once at most half of its working set does, it
gathers the moving lanes into compact arrays and steps only those.  Each
lane's arithmetic is the same either way, so outputs do not depend on
batching or gathering.

Both derivative routines differentiate the implicit equation at the
converged output, so they take ``v`` (not ``a``) as their argument.  They
share the factor ``lam*p*|v|**(p-2)``, and dv/dp also needs ``log|v|``
(`derivative_terms`).  Backpropagation computes both once per layer and
passes them to both routines; a forward pass computes neither.

A network layer applies one activation kind (`ACTIVATION_KINDS`): the
implicit activation above, the only kind with a trainable ``p``, or one
of the fixed classical kinds evaluated by `fixed_eval`.  Every kind's
slope is read from the layer output (`dv_da_many`, `fixed_deriv`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "P_MIN",
    "P_MAX",
    "EPS_V",
    "EXIT_TOL",
    "ActivationParams",
    "residual",
    "eval_p2",
    "method1_step",
    "method2_step",
    "threshold_input",
    "evaluate",
    "evaluate_many",
    "derivative_terms",
    "dv_da",
    "dv_da_many",
    "dv_dp",
    "dv_dp_many",
    "ACTIVATION_KINDS",
    "softmax",
    "fixed_eval",
    "fixed_deriv",
]

P_MIN = 1.01
P_MAX = 1.0e4

# Floor for |v| wherever it enters a negative power in `method1_step`.
EPS_V = 1e-12
# Relative accuracy of a converged lane against the exact root.
EXIT_TOL = 1e-12

_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)


@dataclass(frozen=True)
class ActivationParams:
    """Shape exponent ``p`` and regularization weight ``lam``.

    ``p`` must lie in ``[P_MIN, P_MAX]``; ``lam`` must be finite and
    nonnegative.
    """

    p: float
    lam: float

    def __post_init__(self) -> None:
        if not (P_MIN <= self.p <= P_MAX):
            raise ValueError(f"p must lie in [{P_MIN}, {P_MAX}], got {self.p}")
        if not (np.isfinite(self.lam) and self.lam >= 0.0):
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")


def _as_float_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _scalar_or_array(x: np.ndarray):
    return float(x) if x.ndim == 0 else x


def residual(a, v, params: ActivationParams):
    """R(a, v) = lam*p*|v|**(p-1)*sign(v) + (v - a); zero exactly at v = f(a)."""
    a = _as_float_array(a)
    v = _as_float_array(v)
    with np.errstate(over="ignore"):
        r = params.lam * params.p * np.abs(v) ** (params.p - 1.0) * np.sign(v) + (v - a)
    return _scalar_or_array(r)


def eval_p2(a, lam: float):
    """Closed-form root for p = 2: a / (1 + 2*lam)."""
    a = _as_float_array(a)
    return _scalar_or_array(a / (1.0 + 2.0 * lam))


def method1_step(a, v_prev, params: ActivationParams):
    """One divisive update of the paper: a / (1 + lam*p*|v_prev|**(p-2)).

    For ``p < 2`` a zero ``v_prev`` is floored at `EPS_V` so the negative
    power stays finite (the a = 0 fixed point is still exact because the
    numerator vanishes).
    """
    a = _as_float_array(a)
    v_prev = _as_float_array(v_prev)
    w = np.abs(v_prev)
    if params.p < 2.0:
        w = np.maximum(w, EPS_V)
    with np.errstate(over="ignore"):
        denom = 1.0 + params.lam * params.p * w ** (params.p - 2.0)
    return _scalar_or_array(a / denom)


def method2_step(a, v_prev, params: ActivationParams):
    """One inverted update of the paper: sign(a) * (|a - v_prev| / (lam*p))**(1/(p-1))."""
    if params.p <= 1.0:
        raise ValueError("method2_step requires p > 1")
    if params.lam <= 0.0:
        raise ValueError("method2_step requires lam > 0")
    a = _as_float_array(a)
    v_prev = _as_float_array(v_prev)
    step = np.sign(a) * (np.abs(a - v_prev) / (params.lam * params.p)) ** (1.0 / (params.p - 1.0))
    return _scalar_or_array(step)


def threshold_input(params: ActivationParams) -> float:
    """Input magnitude where dv/da = 1/2, the paper's method-switch point.

    Defined only for ``p > 2`` and ``lam > 0``.  The corresponding output
    magnitude is ``(1/(lam*p*(p-1)))**(1/(p-2))``; the input adds the
    regularization pull-back factor ``1 + 1/(p-1)``.
    """
    p, lam = params.p, params.lam
    if p <= 2.0:
        raise ValueError("threshold_input is undefined for p <= 2")
    if lam <= 0.0:
        raise ValueError("threshold_input is undefined for lam <= 0")
    with np.errstate(over="ignore"):
        v_tau = np.float64(1.0 / (lam * p * (p - 1.0))) ** (1.0 / (p - 2.0))
    return float(v_tau * (1.0 + 1.0 / (p - 1.0)))


def _newton_form(p, lam: float):
    """Per-exponent constants of the Newton variable y (see the module docstring).

    Returns ``(low, n, d, k, log_kd)`` with ``low = p < 2`` (where
    ``y = |v|**(p-1)``) and ``log_kd = log(k / d**n)``.
    """
    high = p > 2.0
    c = lam * p
    n = np.where(high, p - 1.0, 1.0 / (p - 1.0))
    d = np.where(high, 1.0, c)
    k = np.where(high, c, 1.0)
    return p < 2.0, n, d, k, np.log(k) - n * np.log(d)


def _cold_bound(x, n, nm1, log_kd, d) -> np.ndarray:
    """The cold start of each lane, in y: an upper bound of the root.

    That is ``(x/d) * exp(-max(log K, W~(n*K)) / n)`` (see the module
    docstring), formed in y with L in a scratch array.  ``x`` is a
    lane array; the constants broadcast against it.
    """
    y = np.maximum(x, _TINY)
    np.log(y, out=y)
    y *= nm1
    y += log_kd
    u = y + np.log(n)
    np.maximum(u, 0.0, out=u)
    np.subtract(u, np.log1p(u), out=u)
    np.maximum(y, u, out=y)
    y *= -1.0 / n
    np.exp(y, out=y)
    y *= x
    y /= d
    return y


def _p_index(p: np.ndarray, shape, lanes: np.ndarray) -> np.ndarray:
    """The flat index into ``p`` of each flat lane of ``p`` broadcast to ``shape``."""
    return np.broadcast_to(np.arange(p.size).reshape(p.shape), shape).reshape(-1)[lanes]


def evaluate_many(a, p, lam: float, inner_iters: int = 100, v0=None) -> np.ndarray:
    """Evaluate the activation elementwise; ``a`` and ``p`` broadcast.

    This is the array kernel behind `evaluate` and the network forward
    pass: identity when ``lam == 0``, otherwise at most ``inner_iters``
    monotone Newton steps per lane from an upper bound of the root (the
    closed form is the first step when ``p == 2``; see the module
    docstring for the variable, start and stop rule).  Constants that
    depend only on ``p`` are computed on ``p`` before broadcasting, so a
    row of per-neuron exponents costs one evaluation per neuron, not per
    lane.

    Each lane freezes on its own relative step.  Steps run over the whole
    array until at most half of the working set still moves; then the
    working set is gathered down to the moving lanes (with their ``x``,
    ``y`` and per-lane copies of the ``p`` constants), and the frozen
    lanes are written back.  So a step's cost follows the lanes still
    moving, all gathers together copy less than twice the array, and
    every lane computes exactly what it would alone: outputs do not
    depend on how inputs are batched.

    ``v0`` optionally provides a starting magnitude ``|v0|`` per lane,
    capped at the trivial bound ``x/d``; a lane whose ``v0`` is NaN
    starts at that bound.  The start may lie on either side of the root.
    A lane whose first step moves up by more than its stop tolerance
    keeps moving.  A far lane, whose first relative step
    ``rho = |y - y_new| / min(y, y_new)`` has ``(n-1)*rho > 1/2`` or is not
    finite, keeps moving from no higher than the cold bound, which is
    computed for the far lanes alone; every later step is monotone.  A
    warm lane takes at most 6 steps, and the result depends on ``v0`` at
    rounding level.  Without ``v0`` every lane starts at the cold bound,
    computed by the same routine as a far lane's.
    """
    if inner_iters < 1:
        raise ValueError(f"inner_iters must be >= 1, got {inner_iters}")
    a = _as_float_array(a)
    p = _as_float_array(p)
    out_shape = np.broadcast_shapes(a.shape, p.shape)
    if not np.all(np.isfinite(a)):
        raise ValueError("activation input must be finite")
    if lam == 0.0:
        return np.array(np.broadcast_to(a, out_shape))
    a = np.atleast_1d(a)
    p = np.atleast_1d(p)
    shape = np.broadcast_shapes(a.shape, p.shape)
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        low, n, d, k, log_kd = _newton_form(p, lam)
        nm1 = n - 1.0
        # A lane keeps moving while y > (1 + tol) * y_new.
        tol1 = 1.0 + np.sqrt(_EPS / np.maximum(nm1, _EPS))

        x = np.abs(np.broadcast_to(a, shape), order="C")
        warm = v0 is not None
        if warm:
            # A warm start from either side, never above the trivial bound
            # x/d (fmin also drops NaN).  The first step decides which lanes
            # need the cold bound.
            y = np.abs(np.broadcast_to(_as_float_array(v0), shape))
            if low.any():
                y = np.where(low, y ** (p - 1.0), y)
            u = x / d
            np.fmin(y, u, out=y)
        else:
            y = _cold_bound(x, n, nm1, log_kd, d)
            u = np.empty(shape)
        # u and y_new are the step's scratch.
        y_new = np.empty(shape)

        # The working set starts as every lane of y, constants broadcast
        # from p.  Once at most half of it still moves it is gathered down
        # to the moving lanes: `lanes` (flat indices into y), their x and y,
        # and per-lane copies of the p-only constants.
        y = np.ascontiguousarray(y)
        y_flat = y.reshape(-1)
        lanes = None
        xs, ys = x, y
        consts = (nm1, k * nm1, k * n, d, tol1)
        active = np.ones(shape, dtype=bool)
        moving = np.empty(shape, dtype=bool)
        for _ in range(inner_iters):
            c_nm1, c_km1, c_kn, c_d, c_tol1 = consts
            np.power(ys, c_nm1, out=u)
            np.multiply(u, c_km1, out=y_new)
            y_new *= ys
            y_new += xs
            u *= c_kn
            u += c_d
            y_new /= u
            np.multiply(y_new, c_tol1, out=u)
            np.greater(ys, u, out=moving)
            if warm:
                # First step of a warm start.  A lane that started below the
                # root steps up past it and keeps moving.  A far lane, whose
                # relative step rho = |y - y_new| / min(y, y_new) has
                # (n-1)*rho > 1/2 or is not finite, keeps moving from no
                # higher than the cold bound, computed for the far lanes only.
                warm = False
                np.multiply(ys, c_tol1, out=u)
                np.greater(y_new, u, out=u)
                np.logical_or(moving, u, out=moving)
                np.subtract(ys, y_new, out=u)
                np.abs(u, out=u)
                u *= 2.0 * c_nm1
                # NaN compares false, so a non-finite step is far.
                near = u <= ys
                near &= u <= y_new
                far = np.flatnonzero(~near)
                if far.size:
                    pf = _p_index(p, shape, far)
                    bound = _cold_bound(
                        x.reshape(-1)[far], *(c.reshape(-1)[pf] for c in (n, nm1, log_kd, d))
                    )
                    y_new.reshape(-1)[far] = np.fmin(y_new.reshape(-1)[far], bound)
                    moving.reshape(-1)[far] = True
            np.copyto(ys, y_new, where=active)
            active &= moving
            count = np.count_nonzero(active)
            if count == 0:
                break
            if 2 * count > active.size:
                continue
            sel = np.flatnonzero(active)
            if lanes is None:
                pf = _p_index(p, shape, sel)
                consts = tuple(c.reshape(-1)[pf] for c in consts)
                lanes, xs, ys = sel, x.reshape(-1)[sel], y_flat[sel]
            else:
                y_flat[lanes] = ys
                consts = tuple(c[sel] for c in consts)
                lanes, xs, ys = lanes[sel], xs[sel], ys[sel]
            active = np.ones(count, dtype=bool)
            u = u.reshape(-1)[:count]
            y_new = y_new.reshape(-1)[:count]
            moving = moving.reshape(-1)[:count]
        if lanes is not None:
            y_flat[lanes] = ys

        if low.any():
            y = np.where(low, y**n, y)
        np.minimum(y, x, out=y)
    return np.copysign(y, a).reshape(out_shape)


def evaluate(a, params: ActivationParams):
    """Activation output for input ``a`` (scalar or array).

    Identity when ``lam == 0``; otherwise monotone Newton steps per
    element from an upper bound of the root until its stop rule fires,
    the first step being the closed form when ``p == 2``.  An element
    agrees with the exact root to `EXIT_TOL` relative after at most five
    steps over the ranges stated in the module docstring.
    """
    out = evaluate_many(a, params.p, params.lam)
    return _scalar_or_array(np.asarray(out))


def _scalar_layer(a, p, lam: float, inner_iters: int, with_dp: bool):
    """Outputs, slopes and p-sensitivities of one layer for one input row.

    ``a`` (pre-activations) and ``p`` are lists of Python floats, one
    entry per neuron.  Returns the lists ``(v, dv/da, dv/dp)``, the last
    None unless ``with_dp``.  Each neuron is solved and differentiated in
    one pass of a plain-Python loop.

    The incremental trainer calls this once per layer and pair.  On
    layers of a few neurons the array routines' per-call overhead
    dwarfs the arithmetic: on ex2a's net at init this routine takes
    about 18, 8, 4 and 2 µs per call on its layers of 10, 5, 3 and 1
    neurons, and `evaluate_many` plus the three derivative routines
    55-95 µs (2-core Xeon, Python 3.11, numpy 2.4, one BLAS thread).
    A builtin call costs more than the arithmetic here, so the loop
    makes none: ``max(a, b)`` is written ``b if b > a else a`` and
    ``min(a, b)`` ``b if b < a else a``, which return what the builtins
    do, NaN included.  ``|a|`` is ``-a if a < 0.0 else a``, which keeps
    the sign of a zero or a NaN; a zero input is handled apart, and a NaN
    gives NaN either way.

    The solve is `evaluate_many`'s cold solve (the same variable, start,
    step and stop rule), and the derivatives use the formulas of
    `dv_da_many` and `dv_dp_many`; the two routes agree to rounding, not
    bit for bit.
    """
    if lam == 0.0:
        return list(a), [1.0] * len(a), ([0.0] * len(a) if with_dp else None)
    log, exp, log1p, sqrt, copysign = math.log, math.exp, math.log1p, math.sqrt, math.copysign
    vs = []
    slopes = []
    sens = [] if with_dp else None
    for aj, pj in zip(a, p):
        x = -aj if aj < 0.0 else aj
        if x == 0.0:
            v = aj
            av = 0.0
        else:
            # log(k) - n*log(d), where d is 1 for p > 2 and k is 1 otherwise.
            if pj > 2.0:
                n, d, k = pj - 1.0, 1.0, lam * pj
                log_c = log(k)
            else:
                n, d, k = 1.0 / (pj - 1.0), lam * pj, 1.0
                log_c = 0.0 - n * log(d)
            nm1 = n - 1.0
            log_K = nm1 * log(_TINY if _TINY > x else x) + log_c
            L = log_K + log(n)
            if L <= 0.0:
                # max(L, 0) is 0 and log_K <= L (n >= 1), so the general
                # start's exponent is -0 or 0 and its exp exactly 1.
                y = x / d
            else:
                s = L - log1p(L)
                y = exp((s if s > log_K else log_K) * (-1.0 / n)) * x / d
            tol1 = 1.0 + sqrt(_EPS / (_EPS if _EPS > nm1 else nm1))
            km1 = k * nm1
            kn = k * n
            for _ in range(inner_iters):
                u = y**nm1
                y_new = (x + km1 * u * y) / (d + kn * u)
                moving = y > tol1 * y_new
                y = y_new
                if not moving:
                    break
            if pj < 2.0:
                y = y**n
            av = x if x < y else y  # |v| = min(y, x)
            v = copysign(av, aj)
        vs.append(v)
        # lam*p*|v|**(p-2), shared by both derivatives; inf where the power
        # overflows or where v = 0 and p < 2.
        try:
            power = lam * pj * av ** (pj - 2.0)
        except (OverflowError, ZeroDivisionError):
            power = math.inf
        slopes.append(1.0 / (1.0 + (pj - 1.0) * power))
        if with_dp:
            if v == 0.0 or power == 0.0:
                sens.append(0.0)
            else:
                sens.append(v * (-1.0 - pj * log(av)) / (pj / power + pj * (pj - 1.0)))
    return vs, slopes, sens


def _power(av: np.ndarray, p: np.ndarray, lam: float) -> np.ndarray:
    """lam*p*|v|**(p-2) from ``av = |v|``, with its limits: inf for ``v = 0,
    p < 2``, 0 for ``v = 0, p > 2``, ``2*lam`` for ``p = 2`` (``|0|**0`` is 1)."""
    if lam == 0.0:
        return np.zeros(np.broadcast_shapes(av.shape, p.shape))
    with np.errstate(over="ignore", divide="ignore"):
        return lam * p * av ** (p - 2.0)


def derivative_terms(v, p, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """``(power, log|v|)`` at converged outputs ``v`` (arrays broadcast).

    ``power`` is ``lam*p*|v|**(p-2)``; ``log|v|`` is floored at the log of
    the smallest normal float, so it is finite at ``v == 0``.
    `dv_da_many` and `dv_dp_many` accept both in place of recomputing
    them, so one power and one logarithm per element serve both
    derivatives.
    """
    av = np.abs(_as_float_array(v))
    return _power(av, _as_float_array(p), lam), np.log(np.maximum(av, _TINY))


def dv_da_many(v, p, lam: float, power=None) -> np.ndarray:
    """Slope of the activation at a converged output ``v`` (array form).

    ``power`` optionally supplies ``lam*p*|v|**(p-2)`` from
    `derivative_terms`.
    """
    p = _as_float_array(p)
    if power is None:
        power = _power(np.abs(_as_float_array(v)), p, lam)
    return 1.0 / (1.0 + (p - 1.0) * power)


def dv_da(v, params: ActivationParams):
    """dv/da = 1 / (lam*p*(p-1)*|v|**(p-2) + 1).

    Limits: 0 for ``v = 0, p < 2`` (denominator blows up), 1 for
    ``v = 0, p > 2``, and ``1/(2*lam + 1)`` for ``p = 2`` where
    ``|0|**0`` is taken as 1.  Always in ``[0, 1]``.
    """
    return _scalar_or_array(dv_da_many(v, params.p, params.lam))


def dv_dp_many(v, p, lam: float, power=None, log_v=None) -> np.ndarray:
    """Sensitivity of the activation output to ``p`` (array form).

    Computed as ``v*(-1 - p*log|v|) / (p/power + p*(p-1))`` with
    ``power = lam*p*|v|**(p-2)``, which stays finite where the power
    overflows (large ``p``, ``|v| > 1``) or underflows and is exactly 0 at
    ``v = 0``.  ``power`` and ``log_v`` optionally supply the
    `derivative_terms` of ``v``.
    """
    v = _as_float_array(v)
    p = _as_float_array(p)
    if power is None or log_v is None:
        power, log_v = derivative_terms(v, p, lam)
    with np.errstate(divide="ignore", over="ignore"):
        num = log_v * -p
        num -= 1.0
        num *= v
        den = p / power
        den += p * (p - 1.0)
        num /= den
    return num


def dv_dp(v, params: ActivationParams):
    """dv/dp = -lam*|v|**(p-1)*sign(v)*(1 + p*ln|v|) / (lam*p*(p-1)*|v|**(p-2) + 1).

    Exactly 0 at ``v = 0`` (the numerator vanishes faster than the
    logarithm diverges) and finite for every ``v`` and trainable ``p``.
    """
    return _scalar_or_array(dv_dp_many(v, params.p, params.lam))


# --- fixed activation kinds ------------------------------------------------

ACTIVATION_KINDS = ("implicit", "satlins", "tansig", "purelin", "softmax")


def softmax(a: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by subtracting the row max."""
    z = np.exp(a - np.max(a, axis=-1, keepdims=True))
    return z / np.sum(z, axis=-1, keepdims=True)


def fixed_eval(kind: str, a: np.ndarray) -> np.ndarray:
    """Evaluate a fixed activation elementwise (softmax: across the row)."""
    a = np.asarray(a, dtype=float)
    if kind == "satlins":
        return np.clip(a, -1.0, 1.0)
    if kind == "tansig":
        return np.tanh(a)
    if kind == "purelin":
        return a.copy()
    if kind == "softmax":
        return softmax(a)
    raise ValueError(f"unknown fixed activation kind {kind!r}")


def fixed_deriv(kind: str, v: np.ndarray) -> np.ndarray:
    """Elementwise slope of a fixed activation at its output ``v`` (not its
    input): satlins ``|v| < 1``, tansig ``1 - v*v``, purelin 1, and softmax
    ``v*(1 - v)``, the diagonal of its row Jacobian used as the output delta.
    """
    v = np.asarray(v, dtype=float)
    if kind == "satlins":
        return (np.abs(v) < 1.0).astype(float)
    if kind == "tansig":
        return 1.0 - v * v
    if kind == "purelin":
        return np.ones_like(v)
    if kind == "softmax":
        return v * (1.0 - v)
    raise ValueError(f"no elementwise derivative for activation kind {kind!r}")
