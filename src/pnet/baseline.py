"""Former baseline-network names, kept as aliases for the benchmark.

Fixed-activation baselines are ordinary `pnet.network.PNetwork` nets whose
layers carry fixed activation kinds; they are built by
`pnet.network.nguyen_widrow_init` and run through
`pnet.network.forward_batch`, `pnet.training.backprop_batch` and
`pnet.training.train`.  The benchmark's worker and tracer
(``perfbench/worker.py``, ``perfbench/tracing.py``) still look these names
up here; the module goes once they use the names above.
"""

from __future__ import annotations

from dataclasses import replace

from .data import Dataset
from .network import PNetwork, forward_batch, nguyen_widrow_init
from .training import TrainConfig, TrainLog, backprop_batch, mse, train

__all__ = ["mse", "nguyen_widrow_init", "forward_batch_fixed", "backprop_batch_fixed", "train_fixed"]

forward_batch_fixed = forward_batch
backprop_batch_fixed = backprop_batch


def train_fixed(
    net: PNetwork, data: Dataset, cfg: TrainConfig, max_gradient: float = 1e-4
) -> tuple[PNetwork, TrainLog]:
    """`train` with full-batch updates and the gradient-norm stop ``max_gradient``."""
    return train(net, data, replace(cfg, update="batch", max_gradient=max_gradient))
