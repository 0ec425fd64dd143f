"""Iteration clock and layer spans recorded around calls into pnet's public API.

Wrappers are installed on the module attributes that callers look up at
call time (``pnet.training.forward_batch`` is what ``train`` calls, for
example) and are always restored on exit.  Underscore-prefixed scalar
helpers are never wrapped: a wrapper there costs more than the work.

The iteration clock is a wrapper on the public ``mse``, which ``train`` and
``train_fixed`` each call exactly once per iteration, at its end.  An
iteration therefore runs from the end of one ``mse`` call (or the start of
training) to the end of the next.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import time

import numpy as np

import pnet.baseline
import pnet.network
import pnet.training
from pnet.activation import ActivationParams, threshold_input

ITERATION = "iteration"

# The iteration clock: installed on every run, traced or not.
CLOCK_TARGETS = [(pnet.training, "mse"), (pnet.baseline, "mse")]


def _forward_counts(net, X, *args, **kwargs) -> dict:
    """Rows and computed matmul work of one batch forward pass."""
    n = np.shape(X)[0]
    sizes = net.layer_sizes
    flop = sum(2 * n * sizes[k] * sizes[k + 1] for k in range(len(sizes) - 1))
    return {"rows": n, "mflop": flop / 1e6}


def _solve_counts(a, p, lam, *args, **kwargs) -> dict:
    """Lanes of one solver call and their regime: p < 2, and the inverted
    update rule (p > 2 and |a| at or above `threshold_input`)."""
    a = np.asarray(a, dtype=float)
    p = np.asarray(p, dtype=float)
    shape = np.broadcast_shapes(a.shape, p.shape)
    thr = np.full(p.shape, np.inf)
    if lam > 0.0:
        for idx in np.ndindex(p.shape):
            if p[idx] > 2.0:
                thr[idx] = threshold_input(ActivationParams(p=float(p[idx]), lam=float(lam)))
    return {
        "lanes": int(np.prod(shape)),
        "p_lt2": int(np.count_nonzero(np.broadcast_to(p < 2.0, shape))),
        "method2": int(np.count_nonzero(np.abs(a) >= thr)),
    }


# Layer spans, recorded on traced runs only: (module, attribute, span name,
# counter computed from the call's arguments after the span has closed).
LAYER_TARGETS = [
    (pnet.training, "forward_batch", "network.forward", _forward_counts),
    (pnet.network, "evaluate_many", "activation.solve", _solve_counts),
    (pnet.training, "backprop_batch", "training.backprop", None),
    (pnet.training, "dv_da_many", "activation.slope", None),
    (pnet.training, "dv_dp_many", "activation.psens", None),
    (pnet.baseline, "forward_batch_fixed", "baseline.forward", _forward_counts),
    (pnet.baseline, "backprop_batch_fixed", "baseline.backprop", None),
]


class Recorder:
    """Spans kept in memory: name, start, end, parent span and run id.

    Every training run gets a run id and a chain of ``iteration`` spans;
    with ``traced`` set, the layer functions in `LAYER_TARGETS` also get
    spans, nested under the iteration (or layer span) that was open when
    they were called.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._run = None
        self._ids = itertools.count()

    def _open(self, name: str) -> dict:
        span = {
            "id": next(self._ids),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "run": self._run,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")

    def _clock(self, fn):
        @functools.wraps(fn)
        def clocked(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self._run is not None:
                self._close(self._stack[0])
                self._open(ITERATION)
            return out

        return clocked

    def _span(self, fn, name, count):
        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if self._run is None:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                span.update(count(*args, **kwargs))
            return out

        return spanned

    @contextlib.contextmanager
    def installed(self):
        """Install the wrappers; the original attributes always come back."""
        saved = []
        try:
            for mod, attr in CLOCK_TARGETS:
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self._clock(getattr(mod, attr)))
            if self.traced:
                for mod, attr, name, count in LAYER_TARGETS:
                    saved.append((mod, attr, getattr(mod, attr)))
                    setattr(mod, attr, self._span(getattr(mod, attr), name, count))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    @contextlib.contextmanager
    def run(self, run_id):
        """Record one training run as a chain of iteration spans.

        The iteration opened by the last ``mse`` call is dropped on exit:
        training returns right after that call, so it holds no work.
        """
        self._run = run_id
        self._stack = []
        first = self._open(ITERATION)
        try:
            yield self
        finally:
            trailing = self._stack[0] if self._stack else first
            self.spans.remove(trailing)
            self._stack = []
            self._run = None

    def iterations(self, run_id) -> list[float]:
        """Wall seconds of each recorded iteration of one run."""
        return [
            s["end"] - s["start"]
            for s in self.spans
            if s["run"] == run_id and s["name"] == ITERATION and s["end"] is not None
        ]


def originals_restored() -> bool:
    """True when no wrapper of this module is left on a pnet attribute."""
    targets = [(m, a) for m, a in CLOCK_TARGETS] + [(m, a) for m, a, _, _ in LAYER_TARGETS]
    return all(not hasattr(getattr(m, a), "__wrapped__") for m, a in targets)


def _covered(children: list[dict]) -> float:
    """Seconds covered by the union of the children's intervals."""
    total, reach = 0.0, -np.inf
    for c in sorted(children, key=lambda s: s["start"]):
        lo = max(c["start"], reach)
        if c["end"] > lo:
            total += c["end"] - lo
            reach = c["end"]
    return total


def layer_split(spans: list[dict], pairs_per_iteration: int) -> dict:
    """Per-iteration layer metrics from the spans of traced training runs."""
    done = [s for s in spans if s["end"] is not None]
    children: dict[int, list[dict]] = {}
    for s in done:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def dur(s):
        return s["end"] - s["start"]

    iters = [s for s in done if s["name"] == ITERATION]
    n = len(iters)
    tot: dict[str, float] = {}

    def add(key, value):
        tot[key] = tot.get(key, 0.0) + value

    for it in iters:
        add("iter", dur(it))
        kids = children.get(it["id"], [])
        forwards = [k for k in kids if k["name"] in ("network.forward", "baseline.forward")]
        if forwards:
            add("eval", dur(forwards[-1]))
        for k in kids:
            add(k["name"], dur(k))
            add(k["name"] + ".self", dur(k) - _covered(children.get(k["id"], [])))
            if k["name"] == "network.forward":
                add("forward_calls", 1)
                add("mflop", k["mflop"])
            for g in children.get(k["id"], []):
                add(g["name"], dur(g))
                for key in ("lanes", "p_lt2", "method2"):
                    add(key, g.get(key, 0))

    def per_iter_ms(key):
        return 1e3 * tot.get(key, 0.0) / n

    lanes = tot.get("lanes", 0.0)
    pnet_busy = tot.get("network.forward", 0.0) + tot.get("training.backprop", 0.0)
    base_busy = tot.get("baseline.forward", 0.0) + tot.get("baseline.backprop", 0.0)
    return {
        "activation.solve_ms": per_iter_ms("activation.solve"),
        "activation.solve_lanes": lanes / n,
        "activation.solve_ns_per_lane": 1e9 * tot.get("activation.solve", 0.0) / lanes if lanes else 0.0,
        "activation.slope_ms": per_iter_ms("activation.slope"),
        "activation.psens_ms": per_iter_ms("activation.psens"),
        "activation.method2_share": tot.get("method2", 0.0) / lanes if lanes else 0.0,
        "activation.p_lt2_share": tot.get("p_lt2", 0.0) / lanes if lanes else 0.0,
        "network.forward_ms": per_iter_ms("network.forward"),
        "network.forward_calls": tot.get("forward_calls", 0.0) / n,
        "network.forward_self_ms": per_iter_ms("network.forward.self"),
        "network.matmul_mflop": tot.get("mflop", 0.0) / n,
        "training.backprop_ms": per_iter_ms("training.backprop"),
        "training.backprop_self_ms": per_iter_ms("training.backprop.self"),
        "training.update_ms": 1e3 * (tot["iter"] - pnet_busy) / n if pnet_busy else 0.0,
        "training.pair_us": 1e6 * (tot["iter"] - tot.get("eval", 0.0)) / (n * pairs_per_iteration),
        "training.eval_share": tot.get("eval", 0.0) / tot["iter"],
        "baseline.forward_ms": per_iter_ms("baseline.forward"),
        "baseline.backprop_ms": per_iter_ms("baseline.backprop"),
        "baseline.update_ms": 1e3 * (tot["iter"] - base_busy) / n if base_busy else 0.0,
    }
